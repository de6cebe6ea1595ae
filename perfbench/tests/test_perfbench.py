"""Tests of the benchmark itself.

    python3 -m pytest perfbench/tests -q

Passes run in subprocesses against the package in ``src``; every test keeps
its scratch files in a temporary directory.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parents[1]
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(1, str(ROOT / "src"))

import checks  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads as wl  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.fixture(autouse=True)
def state_dir(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "STATE", tmp_path / "state")
    return tmp_path / "state"


def small_workload(name: str, fig8: dict) -> wl.Workload:
    """Short-horizon fig4, fig8 and fig9 runs plus an oracle: every counter moves."""
    scenarios = {
        "fig4.ini": ("paper-fig4", {"horizon": "12.0"}),
        "fig8.ini": ("paper-fig8", {"stochastic_seeds": "1", "horizon": "12.0", **fig8}),
        "fig9.ini": ("paper-fig9", {"horizon": "11.0"}),
    }
    commands = (wl.Command("simulate-fig4", "simulate", "fig4.ini", 7),
                wl.Command("simulate-fig8", "simulate", "fig8.ini", 7),
                wl.Command("simulate-fig9", "simulate", "fig9.ini", 7),
                wl.Command("oracle-fig9", "oracle", "fig9.ini", 7))
    return wl.Workload(name, "small traced workload", scenarios, commands)


def last_json(text: str) -> dict:
    return json.loads(text.strip().splitlines()[-1])


# Per-layer counts that must repeat exactly across traced passes on one seed.
EXACT_COUNTERS = ("sim.runs", "sim.expm_calls", "sim.advance_calls", "channel.link_steps",
                  "expectation.assignments", "maps.step_calls", "maps.interp_calls",
                  "maps.invert_calls", "control.law_calls", "dynamics.step_lag_calls",
                  "dynamics.accel_at_calls", "stability.hinf_calls", "output.bytes")


def test_counters_repeat_across_traced_passes():
    r = run.Run(small_workload("counters", {}), trace=True)
    r.run_pass(True, 150)
    r.run_pass(True, 150)
    assert r.failed == 0, r.problems
    first, second = (p["layers"] for p in r.traced)
    for name in ("sim.expm_calls", "sim.advance_calls", "channel.link_steps",
                 "expectation.assignments", "maps.step_calls", "output.bytes"):
        assert first[name] > 0, name
    for name in EXACT_COUNTERS:
        assert first[name] == second[name], name


def test_failed_command_is_counted_and_the_run_goes_on():
    w = small_workload("broken", {"n_followers": "many"})
    w = wl.Workload(w.name, w.why, w.scenarios, w.commands[1:2] + w.commands[3:])
    r = run.Run(w, trace=False)
    r.execute(seconds=0)
    assert (r.attempted, r.failed) == (2, 1)
    assert r.problems[0].startswith("simulate-fig8: exit code 2")
    assert "failed_ops_ratio = 0.5 ratio" in "\n".join(r.summary(r.metrics()))


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_is_emitted_with_its_unit(trace, section, capsys):
    assert run.main(["--workload", "suite", "--seed", "3", "--seconds", "1",
                     "--trace", str(trace)]) == 0
    result = last_json(capsys.readouterr().out)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    expected = {m["name"]: m["unit"] for m in BENCHMARK[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(math.isfinite(v["value"]) for v in result["metrics"].values())


def test_removed_lookup_site_leaves_its_metrics_absent(monkeypatch):
    sites = dict(tracing.SITES, **{"sim.expm": ("platoon_lab.sim:no_such_function",)})
    monkeypatch.setattr(tracing, "SITES", sites)
    tracer = tracing.Tracer()
    tracer.install()
    tracer.uninstall()
    metrics = tracer.metrics()
    assert tracer.missing == ["platoon_lab.sim:no_such_function"]
    assert not {"sim.expm_calls", "sim.expm_s", "sim.expm_cache_hit_ratio"} & set(metrics)
    assert metrics["sim.runs"] == 0.0


def test_grid_peak_matches_closed_forms():
    assert checks.grid_peak((1.0,), (1.0, 1.0)) == pytest.approx(1.0, rel=1e-12)
    zeta = 0.2
    resonant = 1.0 / (2 * zeta * math.sqrt(1 - zeta ** 2))
    assert checks.grid_peak((4.0,), (1.0, 4 * zeta, 4.0)) == pytest.approx(resonant, rel=1e-12)


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "suite",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
