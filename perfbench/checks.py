"""Correctness checks on each command's report and artifacts, and CSV digests.

A command is correct when it exits with 0, writes its report and the
artifacts its scenario implies, and every numeric verdict is finite.  On
top of that, a Monte Carlo ensemble must meet the relative peak gap bound of
acceptance criterion 5, and every H-infinity norm in a stability report
must be bracketed by this module's own dense-grid evaluation of |H(jw)|.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

import numpy as np

from workloads import Command, panel_modes, read_ini

GAP_BOUND = 0.10          # acceptance criterion 5
HINF_ACCURACY = 1e-6      # relative accuracy documented by stability.hinf_norm
ROUNDING = 1e-12          # two evaluations of one point may differ by rounding

REPORTS = {"headway": "{}-headway-report.json", "stability": "{}-stability-report.json",
           "oracle": "{}-oracle-report.json", "montecarlo": "{}-montecarlo-report.json",
           "simulate": "{}-report.json"}


def csv_digest(out: Path) -> str:
    """sha256 over the names and bytes of every CSV under ``out``."""
    h = hashlib.sha256()
    for path in sorted(out.rglob("*.csv")):
        h.update(path.relative_to(out).as_posix().encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def _numbers(obj):
    if isinstance(obj, dict):
        for v in obj.values():
            yield from _numbers(v)
    elif isinstance(obj, list):
        for v in obj:
            yield from _numbers(v)
    elif isinstance(obj, float):
        yield obj


def _expected_artifacts(cmd: Command, cp) -> tuple[int, int]:
    """(CSV count, SVG count) the command writes for this scenario."""
    csv = cp.getboolean("output", "csv", fallback=True)
    svg = cp.getboolean("output", "svg", fallback=True)
    if cmd.command == "simulate":
        runs = len(panel_modes(cp)) or 1
        return 2 * runs * csv, runs * svg
    if cmd.command == "montecarlo":
        return int(csv), int(svg)
    if cmd.command == "oracle":
        return 1, 0
    return 0, 0


def check_command(cmd: Command, rc: int, wdir: Path, inputs: Path) -> tuple[list[str], dict]:
    """Problems found (empty when the command is correct) and verdicts to record.

    ``wdir`` is the directory the pass ran in; report artifact paths are
    relative to it.
    """
    if rc != 0:
        return [f"exit code {rc}"], {}
    cp = read_ini(inputs / cmd.scenario)
    prefix = cp.get("output", "prefix", fallback=Path(cmd.scenario).stem)
    report_path = wdir / "out" / cmd.label / REPORTS[cmd.command].format(prefix)
    if not report_path.is_file():
        return [f"missing report {report_path.name}"], {}
    report = json.loads(report_path.read_text(encoding="utf-8"))
    verdicts = report.get("verdicts", {})
    problems = []

    artifacts = [wdir / a for a in report.get("artifacts", [])]
    empty = [a.name for a in artifacts if not a.is_file() or a.stat().st_size == 0]
    if empty:
        problems.append(f"missing or empty artifacts {empty}")
    found = (sum(a.suffix == ".csv" for a in artifacts), sum(a.suffix == ".svg" for a in artifacts))
    if found != _expected_artifacts(cmd, cp):
        problems.append(f"(csv, svg) artifacts {found}, expected {_expected_artifacts(cmd, cp)}")
    if not all(math.isfinite(x) for x in _numbers(verdicts)):
        problems.append("non-finite numeric verdict")

    record = {}
    if cmd.command == "montecarlo":
        gap = verdicts.get("relative_peak_gap", math.inf)
        record["relative_peak_gap"] = gap
        if not gap < GAP_BOUND:
            problems.append(f"relative peak gap {gap} not below {GAP_BOUND}")
    elif cmd.command == "simulate":
        record["pattern"] = verdicts.get("pattern")
    elif cmd.command == "stability":
        problems += _check_hinf(cp, verdicts)
    return problems, record


def _gamma(cp) -> float:
    """The reception rate the stability command analyses."""
    det = cp.get("analysis", "deterministic_gamma", fallback="auto").strip().lower()
    if det != "auto":
        return float(det)
    p = cp.getfloat("channel", "p_gb", fallback=0.0)
    q = cp.getfloat("channel", "q_bg", fallback=1.0)
    r = cp.getfloat("channel", "r_recv_bad", fallback=1.0)
    return 1.0 - p * (1.0 - r) / (p + q)


def error_tfs(cp) -> dict[str, tuple[tuple, tuple]]:
    """Spacing-error transfer functions (num, den) by stability-report key.

    From the control laws with the lead term gated by gamma: CACC gives
    (g ka s^2 + kv s + kp) / (tau s^3 + s^2 + (kv + kp h) s + kp), ACC the
    same with g = 0.  CACC+ adds the second predecessor weighted by the same
    rate, as the stability command evaluates it.
    """
    tau = cp.getfloat("platoon", "tau")
    ka, kv, kp = (cp.getfloat("platoon", k) for k in ("k_a", "k_v", "k_p"))
    h = cp.getfloat("platoon", "headway")
    scheme = cp.get("platoon", "scheme", fallback="cacc").strip().lower()
    g = 0.0 if scheme == "acc" else _gamma(cp)
    if scheme == "cacc_plus":
        den = (tau, 1.0, (1 + g) * kv + (1 + 2 * g) * kp * h, (1 + g) * kp)
        return {"hinf_h_p1": ((g * ka, kv, kp), den),
                "hinf_h_p2": ((g * ka, g * kv, g * kp), den)}
    return {"hinf_h": ((g * ka, kv, kp), (tau, 1.0, kv + kp * h, kp))}


def grid_peak(num, den) -> float:
    """max |H(jw)| on a dense log grid over [1e-4, 1e4] plus w = 0, zoomed
    in four times around the best point (H strictly proper, so the
    w -> infinity limit is 0)."""
    def mag(w):
        return np.abs(np.polyval(num, 1j * w) / np.polyval(den, 1j * w))

    w = np.concatenate(([0.0], np.logspace(-4.0, 4.0, 80001)))
    best = 0.0
    for _ in range(5):
        m = mag(w)
        i = int(m.argmax())
        best = max(best, float(m[i]))
        w = np.linspace(w[max(i - 1, 0)], w[min(i + 1, w.size - 1)], 1001)
    return best


def _check_hinf(cp, verdicts) -> list[str]:
    problems = []
    for key, (num, den) in error_tfs(cp).items():
        norm = verdicts.get(key)
        if not isinstance(norm, float):
            problems.append(f"stability report lacks {key}")
            continue
        peak = grid_peak(num, den)
        if not peak * (1 - ROUNDING) <= norm <= peak * (1 + HINF_ACCURACY):
            problems.append(f"{key} = {norm!r} outside [{peak!r}, {peak * (1 + HINF_ACCURACY)!r}]")
    return problems
