"""Benchmark workloads: scenario INIs derived from the bundled presets.

Each workload copies one or more presets from ``src/platoon_lab/presets``,
overrides only ensemble sizes, and lists the CLI commands it runs on the
generated files.  The program never sees a preset name, only these files.
The seed goes to the program as ``--seed``; a separate holdout seed reruns
the ensemble check on realizations disjoint from the main seed's.
"""

from __future__ import annotations

import configparser
import re
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PRESET_DIR = ROOT / "src" / "platoon_lab" / "presets"

# Ensemble size for the fig4 Monte Carlo runs.  Over all 200 windows of R
# consecutive realization seeds in 0..219, the relative peak gap has a
# standard deviation of 3.2 % and a largest value of 8.3 % at R = 10, against
# 2.2 % and 5.3 % at R = 20, which keeps the 10 % bound about 4 deviations away.
ENSEMBLE_REALIZATIONS = 20
# Stochastic runs per lossy fig8 panel (the preset runs 50).
SUITE_STOCHASTIC_SEEDS = 10
# Simulated horizon of the workloads that simulate (the presets run 40 s).
# The lead stops between 10 s and 12.78 s; every follower's peak spacing error
# in fig4, fig8, fig9 and fig10 falls before 16 s, so the peaks, the suite
# patterns and the ensemble gap are those of the full horizon, at half the
# steps.  Shorter passes let a run take the median of several.
SIM_HORIZON = "20.0"


@dataclass(frozen=True)
class Command:
    """One CLI invocation: ``platoon-lab run <command> --scenario <file>``."""

    label: str
    command: str
    scenario: str
    seed: int

    def argv(self, inputs: Path, out: Path) -> list[str]:
        return ["run", self.command, "--scenario", str(inputs / self.scenario),
                "--seed", str(self.seed), "--jobs", "1", "--out", str(out)]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    # generated file name -> (preset name, {key: replacement value})
    scenarios: dict[str, tuple[str, dict[str, str]]]
    commands: tuple[Command, ...]


def derive_ini(preset: str, overrides: dict[str, str]) -> str:
    """Preset text with each ``key = value`` line replaced by the override."""
    text = (PRESET_DIR / f"{preset}.ini").read_text(encoding="utf-8")
    for key, value in overrides.items():
        text, n = re.subn(rf"(?m)^{re.escape(key)}\s*=.*$", f"{key} = {value}", text)
        if n != 1:
            raise ValueError(f"preset {preset} has {n} lines for key {key!r}, expected 1")
    return text


def write_inputs(workload: Workload, inputs: Path) -> None:
    inputs.mkdir(parents=True, exist_ok=True)
    for fname, (preset, overrides) in workload.scenarios.items():
        (inputs / fname).write_text(derive_ini(preset, overrides), encoding="utf-8")


def read_ini(path: Path) -> configparser.ConfigParser:
    cp = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    cp.read_string(path.read_text(encoding="utf-8"))
    return cp


def panel_modes(cp: configparser.ConfigParser) -> list[str]:
    """'ideal' or 'lossy' for each panel of the scenario's suite."""
    panels = cp.get("suite", "panels", fallback="").split(",")
    return [p.split(":")[0].strip() for p in panels if p.strip()]


def vehicle_steps(cmd: Command, inputs: Path) -> int:
    """Followers x time steps over every platoon run the command performs.

    Counted from the generated scenario, not from the program: montecarlo
    runs R realizations plus the gamma-system run; simulate runs one platoon
    per suite panel plus the stochastic seeds of each lossy panel.
    """
    if cmd.command not in ("montecarlo", "simulate"):
        return 0
    cp = read_ini(inputs / cmd.scenario)
    try:
        n_f = cp.getint("platoon", "n_followers")
        steps = round(cp.getfloat("analysis", "horizon") / cp.getfloat("analysis", "dt", fallback=0.01))
    except ValueError:
        return 0  # a malformed scenario runs no platoon; its command fails
    if cmd.command == "montecarlo":
        runs = cp.getint("analysis", "n_realizations", fallback=100) + 1
    elif modes := panel_modes(cp):
        seeds = cp.getint("analysis", "stochastic_seeds", fallback=0)
        runs = len(modes) + seeds * modes.count("lossy")
    else:
        runs = 1
    return runs * n_f * steps


def build(name: str, seed: int, holdout: int) -> Workload:
    """The named workload with its commands bound to the seeds."""
    if name == "ensemble":
        # Directions 2 and 5: channel sampling and Taylor-action propagation
        # (CACC+, 10 followers, 19 links) carry nearly all the work.
        fig4 = {"fig4.ini": ("paper-fig4", {"n_realizations": str(ENSEMBLE_REALIZATIONS),
                                           "horizon": SIM_HORIZON})}
        return Workload(name, "fig4 Monte Carlo on the Taylor-action path, main and holdout seed",
                        fig4, (Command("montecarlo-fig4", "montecarlo", "fig4.ini", seed),
                               Command("montecarlo-fig4-holdout", "montecarlo", "fig4.ini", holdout)))
    if name == "suite":
        # Every other layer, one command after the other: the fig8 suite
        # through the memoized-expm path (11 links) with heavy CSV and SVG
        # output (deleting the memo cache shows up here and not on the
        # ensemble); the fig9 and fig10 suites on the empirical engine, a
        # per-vehicle Python loop through control, maps and dynamics with no
        # channel and no expm; and headway, stability and oracle on the
        # unmodified presets, the only commands exercising stability
        # (H-infinity norms, Gramian bounds) and expectation.  fig4's oracle
        # is left out only because it enumerates 2^19 link assignments for
        # each of 6 powers (192 s a run).
        figs = ("fig4", "fig8", "fig9", "fig10")
        files = {f"{f}-sim.ini": (f"paper-{f}", {"horizon": SIM_HORIZON}) for f in figs[1:]}
        files["fig8-sim.ini"][1]["stochastic_seeds"] = str(SUITE_STOCHASTIC_SEEDS)
        files.update({f"{f}.ini": (f"paper-{f}", {}) for f in figs})
        cmds = [Command(f"simulate-{f}", "simulate", f"{f}-sim.ini", seed) for f in figs[1:]]
        cmds += [Command(f"{c}-{f}", c, f"{f}.ini", seed)
                 for f in figs for c in ("headway", "stability")]
        cmds += [Command(f"oracle-{f}", "oracle", f"{f}.ini", seed) for f in figs[1:]]
        return Workload(name, "fig8, fig9 and fig10 suites, then headway, stability and oracle "
                        "analyses of all four presets", files, tuple(cmds))
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("ensemble", "suite")
