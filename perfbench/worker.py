"""One benchmark pass in a fresh process.

    python3 worker.py <spec.json> <result.json>

Imports the package and loads every scenario of the workload (set-up), then
runs each command through ``platoon_lab.cli.main`` and records wall time,
CPU time, peak resident memory and exit codes.  With ``"trace": true`` in the
spec, the tracer is installed right after the import, and the spans and
per-layer metrics are written too.  Nothing from the package is imported
before the set-up clock starts.
"""

import json
import os
import platform
import resource
import sys
import time
import traceback


def run_command(main, argv) -> int:
    try:
        return main(argv)
    except SystemExit as exc:  # argparse rejects the arguments
        return exc.code if isinstance(exc.code, int) else 1
    except Exception:  # a crash is a failed command; the pass goes on
        traceback.print_exc()
        return 1


def main() -> int:
    spec_path, result_path = sys.argv[1], sys.argv[2]
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)

    t0 = time.perf_counter()
    from platoon_lab import cli, scenario

    tracer = None
    if spec["trace"]:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    for path in spec["scenarios"]:
        try:
            scenario.load_scenario(path)
        except scenario.ScenarioError:
            pass  # the commands on this file fail and are counted there
    setup_s = time.perf_counter() - t0

    codes, seconds = [], []
    cpu0, wall0 = time.process_time(), time.perf_counter()
    for argv in spec["commands"]:
        t = time.perf_counter()
        codes.append(run_command(cli.main, argv))
        seconds.append(time.perf_counter() - t)
    wall_s = time.perf_counter() - wall0
    cpu_s = time.process_time() - cpu0
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    import numpy
    import scipy

    result = {"setup_s": setup_s, "wall_s": wall_s, "cpu_s": cpu_s,
              "peak_rss_mib": peak_rss_mib, "exit_codes": codes, "command_s": seconds,
              "env": {"python": platform.python_version(), "numpy": numpy.__version__,
                      "scipy": scipy.__version__, "nproc": len(os.sched_getaffinity(0))}}
    if tracer is not None:
        tracer.uninstall()
        tracer.save(spec["spans"])
        result["layers"] = tracer.metrics()
        result["missing_sites"] = tracer.missing
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
