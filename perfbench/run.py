"""Layered benchmark for platoon-lab.

    python3 perfbench/run.py --workload <ensemble|suite|all>
                             --seed N [--holdout-seed M] --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from ``src``.  The
workload's scenario files are generated from the bundled presets (see
``workloads.py``), then the workload runs as a sequence of passes, each a
fresh single process that imports the package, loads the scenarios and runs
every command through ``platoon_lab.cli.main``.  Before the passes, five
set-up-only processes add samples of the set-up time.  Passes repeat while
the next one fits in ``--seconds`` (at least one runs).  Every command's
outputs are checked (``checks.py``) and its CSVs are digested; a digest that
differs from an earlier pass, or from an earlier run of the same source on
the same seeds, fails the command.

With ``--trace 0`` the last line reports the end-to-end metrics: ``wall_s``
and ``cpu_s`` as means over the passes, ``setup_s`` and ``peak_rss_mib`` as
medians over their samples.  On a shared 2-core VM, CPU speed swung by up to
1.6x over tens of seconds; the mean integrates the whole run where a median
picks one phase, which cut the run-to-run spread of the short-pass workloads
there by a fifth to a third.  With ``--trace 1`` untraced and traced passes alternate,
and the last line reports the per-layer metrics of the traced passes
(``tracing.py``) plus ``trace.overhead_s``.  Both modes print a summary first,
including ``vehicle_steps_per_s`` (workloads that simulate),
``failed_ops_ratio``, the output digest and the versions of Python, numpy and
scipy.  Scratch files and results go to ``.perfbench/`` in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import tracing
import workloads as wl

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
STATE = ROOT / ".perfbench"
SRC = ROOT / "src"

SETUP_PROBES = 5
# Every run must end within 180 s; no pass starts a timeout beyond this.
HARD_LIMIT_S = 165.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END = {"setup_s": "s", "wall_s": "s", "cpu_s": "s", "peak_rss_mib": "MiB"}


def run_key(workload: wl.Workload, inputs: Path) -> str:
    """Identifies the program source, generated inputs and commands of a run;
    runs with the same key must write the same CSVs."""
    h = hashlib.sha256(repr(workload.commands).encode())
    files = sorted((SRC / "platoon_lab").rglob("*")) + sorted(inputs.iterdir())
    for path in files:
        if path.suffix in (".py", ".ini"):
            h.update(path.name.encode() + b"\0" + path.read_bytes())
    return f"{workload.name}-{h.hexdigest()[:16]}"


def run_worker(wdir: Path, spec: dict, timeout: float) -> dict | None:
    """Run one pass in a fresh process; its result, or None if it crashed."""
    (wdir / "spec.json").write_text(json.dumps(spec), encoding="utf-8")
    result_path = wdir / "result.json"
    result_path.unlink(missing_ok=True)
    # a fixed hash seed lays out every pass's dicts and sets alike
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0",
               **{v: "1" for v in THREAD_VARS})
    with open(wdir / "pass.log", "w", encoding="utf-8") as log:
        try:
            proc = subprocess.run([sys.executable, str(HERE / "worker.py"), "spec.json",
                                   "result.json"], cwd=wdir, env=env, stdout=log,
                                  stderr=subprocess.STDOUT, timeout=max(timeout, 1.0))
        except subprocess.TimeoutExpired:
            return None
    if proc.returncode != 0 or not result_path.is_file():
        return None
    return json.loads(result_path.read_text(encoding="utf-8"))


class Run:
    """One benchmark run of one workload."""

    def __init__(self, workload: wl.Workload, trace: bool):
        self.workload, self.trace = workload, trace
        self.wdir = STATE / workload.name
        self.inputs = self.wdir / "inputs"
        shutil.rmtree(self.wdir, ignore_errors=True)
        wl.write_inputs(workload, self.inputs)
        self.key = run_key(workload, self.inputs)
        self.known = load_digests().get(self.key, {})
        self.setup: list[float] = []
        self.passes: list[dict] = []
        self.traced: list[dict] = []
        self.attempted = self.failed = 0
        self.problems: list[str] = []
        self.records: dict[str, dict] = {}
        self.digests: dict[str, str] = {}
        self.env: dict = {}

    def spec(self, trace: bool, commands: bool = True) -> dict:
        return {"trace": trace, "spans": "spans.npz",
                "scenarios": [f"inputs/{f}" for f in self.workload.scenarios],
                "commands": [c.argv(Path("inputs"), Path("out") / c.label)
                             for c in self.workload.commands] if commands else []}

    def probe(self, timeout: float) -> None:
        result = run_worker(self.wdir, self.spec(False, commands=False), timeout)
        if result is None:
            raise RuntimeError(f"set-up failed, see {self.wdir / 'pass.log'}")
        self.setup.append(result["setup_s"])

    def run_pass(self, trace: bool, timeout: float) -> None:
        shutil.rmtree(self.wdir / "out", ignore_errors=True)
        result = run_worker(self.wdir, self.spec(trace), timeout)
        cmds = self.workload.commands
        self.attempted += len(cmds)
        codes = result["exit_codes"] if result else [None] * len(cmds)
        for cmd, rc in zip(cmds, codes):
            if rc is None:
                problems, record = ["pass crashed or timed out"], {}
            else:
                problems, record = checks.check_command(cmd, rc, self.wdir, self.inputs)
            if not problems:
                problems = self.compare_digest(cmd.label, checks.csv_digest(self.wdir / "out" / cmd.label))
            self.records[cmd.label] = record
            if problems:
                self.failed += 1
                self.problems.append(f"{cmd.label}: {'; '.join(problems)}")
        if result is None:
            return
        self.env = result["env"]
        if trace:
            self.traced.append(result)
        else:
            self.passes.append(result)
            self.setup.append(result["setup_s"])

    def compare_digest(self, label: str, digest: str) -> list[str]:
        expected = self.digests.setdefault(label, self.known.get(label, digest))
        if digest != expected:
            return [f"CSV digest {digest[:16]} differs from {expected[:16]} on the same seed"]
        return []

    def execute(self, seconds: float) -> None:
        start = time.perf_counter()

        def left() -> float:
            return HARD_LIMIT_S - (time.perf_counter() - start)

        for _ in range(SETUP_PROBES):
            self.probe(left())
        kinds = (False, True) if self.trace else (False,)
        last: dict[bool, float] = {}
        for i in itertools.count():
            kind = kinds[i % len(kinds)]
            t = time.perf_counter()
            self.run_pass(kind, left())
            last[kind] = time.perf_counter() - t
            nxt = kinds[(i + 1) % len(kinds)]
            if i + 1 >= len(kinds) and (time.perf_counter() - start + last[nxt] > seconds
                                        or last[nxt] > left()):
                break
        if not self.failed:
            store_digests(self.key, self.digests)

    def vehicle_steps(self) -> int:
        return sum(wl.vehicle_steps(c, self.inputs) for c in self.workload.commands)

    def output_digest(self) -> str:
        h = hashlib.sha256()
        for label in sorted(self.digests):
            h.update(f"{label}:{self.digests[label]}\n".encode())
        return h.hexdigest()

    def metrics(self) -> dict[str, dict]:
        if not self.passes or (self.trace and not self.traced):
            raise RuntimeError("no pass completed: " + "; ".join(self.problems))
        e2e = {"setup_s": statistics.median(self.setup),
               "wall_s": self.mean_wall(),
               "cpu_s": statistics.fmean(p["cpu_s"] for p in self.passes),
               "peak_rss_mib": statistics.median(p["peak_rss_mib"] for p in self.passes)}
        if not self.trace:
            return {k: {"value": e2e[k], "unit": u} for k, u in END_TO_END.items()}
        names = sorted({m for r in self.traced for m in r["layers"]})
        out = {m: {"value": statistics.median(r["layers"][m] for r in self.traced),
                   "unit": tracing.LAYER_METRICS[m][0]} for m in names}
        traced_wall = statistics.fmean(r["wall_s"] for r in self.traced)
        out["trace.overhead_s"] = {"value": traced_wall - e2e["wall_s"], "unit": "s"}
        return out

    def mean_wall(self) -> float:
        return statistics.fmean(p["wall_s"] for p in self.passes)

    def summary(self, metrics: dict[str, dict]) -> list[str]:
        w = self.workload
        lines = [f"workload {w.name}: {w.why}",
                 f"  passes: {len(self.passes)} untraced, {len(self.traced)} traced; "
                 f"set-up samples: {len(self.setup)}",
                 "  env: python {python}, numpy {numpy}, scipy {scipy}, nproc {nproc}".format(**self.env)]
        lines += [f"  {k} = {v['value']:.6g} {v['unit']}" for k, v in metrics.items()]
        steps = self.vehicle_steps()
        if steps and self.passes:
            rate = steps / self.mean_wall()
            lines.append(f"  vehicle_steps_per_s = {rate:.6g} 1/s ({steps} vehicle steps a pass)")
        lines.append(f"  failed_ops_ratio = {self.failed / self.attempted:.6g} ratio "
                     f"({self.failed} of {self.attempted} commands)")
        lines.append(f"  output_digest = {self.output_digest()}")
        lines += [f"  {label}: {rec}" for label, rec in self.records.items() if rec]
        missing = sorted({s for r in self.traced for s in r.get("missing_sites", [])})
        if missing:
            lines.append(f"  absent lookup sites (their metrics are omitted): {missing}")
        lines += [f"  FAILED {p}" for p in self.problems]
        return lines

    def save(self, metrics: dict[str, dict]) -> None:
        path = STATE / "results" / f"{self.workload.name}-trace{int(self.trace)}.json"
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({
            "workload": self.workload.name, "key": self.key, "env": self.env,
            "attempted": self.attempted, "failed": self.failed, "problems": self.problems,
            "metrics": metrics, "setup_s": self.setup, "passes": self.passes,
            "traced": self.traced, "records": self.records, "digests": self.digests,
            "output_digest": self.output_digest()}, indent=1), encoding="utf-8")


def load_digests() -> dict:
    path = STATE / "digests.json"
    return json.loads(path.read_text(encoding="utf-8")) if path.is_file() else {}


def store_digests(key: str, digests: dict[str, str]) -> None:
    known = load_digests()
    known.setdefault(key, digests)
    (STATE / "digests.json").write_text(json.dumps(known, indent=1), encoding="utf-8")


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=wl.WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--holdout-seed", type=int, default=None,
                   help="second seed for the ensemble check (default: seed + 1000000)")
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "platoon_lab" / "cli.py").is_file():
        print(f"platoon_lab sources not found under {SRC}", file=sys.stderr)
        return 2
    holdout = args.seed + 1_000_000 if args.holdout_seed is None else args.holdout_seed
    names = wl.WORKLOADS if args.workload == "all" else (args.workload,)
    attempted = failed = 0
    metrics: dict[str, dict] = {}
    for name in names:
        run = Run(wl.build(name, args.seed, holdout), bool(args.trace))
        try:
            run.execute(args.seconds)
            run_metrics = run.metrics()
        except RuntimeError as exc:
            print(f"{name}: {exc}", file=sys.stderr)
            return 1
        run.save(run_metrics)
        print("\n".join(run.summary(run_metrics)), flush=True)
        attempted += run.attempted
        failed += run.failed
        prefix = "" if len(names) == 1 else f"{name}."
        metrics.update({prefix + k: v for k, v in run_metrics.items()})
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    # SIGTERM unwinds like an exception, so subprocess.run kills and waits for the pass
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    sys.exit(main())
