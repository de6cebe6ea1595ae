"""Every lookup site of the benchmark's span tracer still names a function.

``perfbench/tracing.py`` wraps program functions at the module attributes
where callers look them up, and skips a site that no longer exists.  A
refactor that renames or moves such a function would silently drop its span
and the per-layer metrics derived from it; the first test makes that a
failure.  The second runs two commands under the installed tracer, so a
change to a hooked call's arguments or results that breaks the hook that
reads them fails here too, not only in a traced benchmark pass.
"""

import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_tracer_site_resolves():
    tracing = _load_tracing()
    missing = [f"{span}: {site}" for span, sites in tracing.SITES.items()
               for site in sites if tracing._resolve(site) is None]
    assert not missing, f"tracer sites that no longer resolve: {missing}"


def test_hooks_count_a_traced_run(tmp_path):
    # tier-1 runs no traced benchmark pass; a hooked call whose arguments
    # the hook can no longer read (say a spec without probs) fails here
    from platoon_lab import cli
    from platoon_lab.scenario import preset_text

    fig4 = tmp_path / "fig4.ini"
    fig4.write_text(preset_text("paper-fig4").replace("horizon = 40.0", "horizon = 2.0")
                    .replace("n_realizations = 100", "n_realizations = 2"), encoding="utf-8")
    tracer = _load_tracing().Tracer()
    tracer.install()
    try:
        for command, scenario in (("oracle", "paper-fig9"), ("montecarlo", str(fig4))):
            assert cli.main(["run", command, "--scenario", scenario,
                             "--out", str(tmp_path / "out")]) == 0
    finally:
        tracer.uninstall()
    for counter in ("channel.link_steps", "sim.linear_steps", "expectation.assignments",
                    "output.bytes"):
        assert tracer.counters[counter] > 0, counter
