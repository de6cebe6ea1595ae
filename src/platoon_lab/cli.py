"""Batch command-line front-end.

    platoon-lab run <command> --scenario <path-or-preset> [--seed N] [--out DIR]

Commands: headway, simulate, montecarlo, stability, oracle.  Results land in
the output directory (flag --out, else $PLATOON_LAB_OUT, else ./platoon-lab-out)
as CSV series, SVG plots and a report.json; a summary goes to stdout.

Exit codes: 0 success, 2 configuration error, 3 simulation divergence,
4 analysis error (non-Hurwitz dynamics, error dynamics decaying too slowly
for the time-domain constants: slowest decay rate below about 1e-2 1/s, an
H-infinity norm whose |H(j omega)|^2 overflows the float range, or an oracle
whose E[A^k] or (E[A])^k is not finite).
"""

from __future__ import annotations

import argparse
import os
import platform
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import __version__, control, expectation, output, stability
from .control import Scheme
from .scenario import Scenario, ScenarioError, load_scenario
from .sim import (SimOutput, SimulationDivergedError, empirical_string_stability,
                  monte_carlo, simulate, simulate_panels)

DEFAULT_SEED = 20201
EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DIVERGED = 3
EXIT_ANALYSIS = 4


def _out_dir(arg: str | None) -> Path:
    root = arg or os.environ.get("PLATOON_LAB_OUT") or "platoon-lab-out"
    path = Path(root)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _report(command: str, scenario: Scenario, verdicts: dict) -> output.RunReport:
    """A report on ``scenario`` with its provenance: the versions that
    produced it and the master seed (--seed), which the config hash does not
    cover."""
    provenance = {"platoon_lab": __version__, "numpy": np.__version__,
                  "python": platform.python_version(), "seed": scenario.config.master_seed}
    return output.RunReport(command, scenario.config_hash, verdicts, provenance)


def _headway_table(scenario: Scenario) -> dict:
    cfg = scenario.config
    gamma, mu = scenario.analysis_rates
    tau, ka = cfg.tau, cfg.gains.k_a

    def h_min(g: float, m: float) -> float | None:
        # past A1 = (1 + m) g k_a >= 1 no headway is string stable (see min_headway)
        return control.min_headway(tau, g, m, ka) if (1.0 + m) * g * ka < 1.0 else None

    table = {"gamma": gamma}
    for scheme in Scheme:
        table[f"h_min_{scheme.value}"] = h_min(*control.scheme_rates(scheme, gamma, gamma))
    if mu != gamma:
        table["mu"] = mu
        table["h_min_cacc_plus_mu"] = h_min(gamma, mu)
    table["scheme"] = cfg.scheme.value
    table["configured_headway"] = cfg.policy.h_w
    h = h_min(*control.scheme_rates(cfg.scheme, gamma, mu))
    table["headway_sufficient"] = h is not None and cfg.policy.h_w >= h
    return table


def cmd_headway(scenario: Scenario, outdir: Path) -> output.RunReport:
    verdicts = _headway_table(scenario)
    report = _report("headway", scenario, verdicts)
    report.write(outdir / f"{scenario.output.prefix}-headway-report.json")
    print(f"gamma = {verdicts['gamma']:.4f}")
    for k in ("h_min_acc", "h_min_cacc", "h_min_cacc_plus", "h_min_cacc_plus_mu"):
        if k in verdicts:
            h = verdicts[k]
            print(f"{k} = none (no string-stable headway at these rates)" if h is None
                  else f"{k} = {h:.4f} s")
    state = "sufficient" if verdicts["headway_sufficient"] else "insufficient"
    print(f"configured headway {verdicts['configured_headway']:g} s is {state} "
          f"for scheme {verdicts['scheme']}")
    return report


def _write_run_outputs(scenario: Scenario, out: SimOutput, outdir: Path,
                       label: str, report: output.RunReport):
    prefix = scenario.output.prefix
    if scenario.output.csv:
        report.artifacts += [
            output.write_timeseries_csv(out, outdir / f"{prefix}-{label}-timeseries.csv"),
            output.write_peaks_csv(out.peak_errors(), outdir / f"{prefix}-{label}-peaks.csv")]
    if scenario.output.svg:
        series = {f"e{i + 1}": out.errors[i] for i in range(out.errors.shape[0])}
        report.artifacts.append(output.write_svg(
            outdir / f"{prefix}-{label}-errors.svg", out.time, series,
            title=f"{scenario.name} {label}: spacing errors"))


def _run_suite(scenario: Scenario, outdir: Path, report: output.RunReport) -> dict:
    cfg = scenario.config
    lossy = cfg.link_rates()
    rates = [(1.0, 1.0) if panel.mode == "ideal" else lossy for panel in scenario.suite]
    outs = simulate_panels(cfg, scenario.maneuver,
                           [(panel.headway, gamma, mu)
                            for panel, (gamma, mu) in zip(scenario.suite, rates)])
    # every lossy panel's stochastic seeds, stepped as one batch
    n_seeds = scenario.analysis.stochastic_seeds
    headways = [panel.headway for panel in scenario.suite if panel.mode == "lossy"]
    seeds = iter(monte_carlo(cfg, scenario.maneuver, n_seeds, headways)
                 if n_seeds > 0 and headways else ())
    verdicts: dict = {"panels": []}
    for panel, (gamma, _), out in zip(scenario.suite, rates, outs):
        stable, peaks = empirical_string_stability(out)
        entry = {"label": panel.label, "mode": panel.mode, "headway": panel.headway,
                 "gamma": gamma, "stable": stable,
                 "peaks": [float(p) for p in peaks]}
        if panel.mode == "lossy" and n_seeds > 0:
            pk = next(seeds).peaks
            entry["stochastic_last_exceeds_first"] = (
                int(np.count_nonzero(pk[:, -1] > pk[:, 0])) / n_seeds)
        verdicts["panels"].append(entry)
        _write_run_outputs(scenario, out, outdir, panel.label, report)
    verdicts["pattern"] = ["stable" if p["stable"] else "unstable" for p in verdicts["panels"]]
    return verdicts


def cmd_simulate(scenario: Scenario, outdir: Path) -> output.RunReport:
    # the verdict compares followers' peaks, so it needs two of them; say so
    # before simulating rather than after
    if scenario.config.n_followers < 2:
        raise ScenarioError("simulate judges string stability from the followers' "
                            "peak errors and needs n_followers >= 2")
    if scenario.suite and scenario.config.rates is not None:
        # each panel runs at its own rates and the seeds sample the channels
        raise ScenarioError("a [suite] sets each panel's link rates, but [analysis] "
                            "deterministic_gamma fixes them; remove it")
    report = _report("simulate", scenario, {})
    if scenario.suite:
        report.verdicts = _run_suite(scenario, outdir, report)
        print("suite verdicts:", ", ".join(
            f"{p['label']}={'stable' if p['stable'] else 'unstable'}"
            for p in report.verdicts["panels"]))
    else:
        out = simulate(scenario.config, scenario.maneuver)
        stable, peaks = empirical_string_stability(out)
        report.verdicts = {"stable": stable, "peaks": [float(p) for p in peaks],
                           "seed": out.seed}
        _write_run_outputs(scenario, out, outdir, "run", report)
        print(f"string stable: {stable}; per-follower peaks: "
              + ", ".join(f"{p:.3f}" for p in peaks))
    report.write(outdir / f"{scenario.output.prefix}-report.json")
    return report


def _link_reception(cfg, rates) -> list[dict]:
    """Each link's realized reception rate next to the gamma_of it samples."""
    n_f = cfg.n_followers
    names = ([f"{i}<-{i - 1}" for i in range(1, n_f + 1)]
             + [f"{i}<-{i - 2}" for i in range(2, n_f + 1)])
    gammas = cfg.link_rates()
    return [{"link": names[li], "reception_rate": float(rate),
             "gamma_of": gammas[li >= n_f]} for li, rate in enumerate(rates)]


def cmd_montecarlo(scenario: Scenario, outdir: Path) -> output.RunReport:
    cfg = scenario.config
    if cfg.rates is not None:
        # R copies of one fixed-rate run would compare the gamma system with itself
        raise ScenarioError("montecarlo samples every link's channel, but [analysis] "
                            "deterministic_gamma fixes the link weights; remove it")
    stats = monte_carlo(cfg, scenario.maneuver, scenario.analysis.n_realizations)
    det = simulate(replace(cfg, rates=cfg.link_rates()), scenario.maneuver)
    det_peaks = det.peak_errors()
    last = -1
    peak_mean = float(stats.mean_trajectory_peaks[last])
    peak_det = float(det_peaks[last])
    # no relative gap to a gamma system with zero peak; JSON has no infinity
    rel_gap = abs(peak_mean - peak_det) / peak_det if peak_det else None
    report = _report("montecarlo", scenario, {
        "n_realizations": stats.n_realizations,
        "last_vehicle_peak_of_mean": peak_mean,
        "last_vehicle_gamma_system_peak": peak_det,
        "relative_peak_gap": rel_gap,
        "mean_trajectory_peaks": [float(p) for p in stats.mean_trajectory_peaks],
        "deterministic_peaks": [float(p) for p in det_peaks],
        "link_reception": _link_reception(cfg, stats.reception_rates),
    })
    prefix = scenario.output.prefix
    if scenario.output.csv:
        header = ["t"] + [f"{k}_e{i + 1}" for k in ("mean", "det") for i in range(cfg.n_followers)]
        table = np.column_stack((det.time, stats.mean_errors.T, det.errors.T))
        report.artifacts.append(output.write_table(
            outdir / f"{prefix}-ensemble.csv", header, map(np.ndarray.tolist, table), "\n"))
    if scenario.output.svg:
        p = output.write_svg(outdir / f"{prefix}-ensemble.svg", det.time,
                             {"ensemble mean (last)": stats.mean_errors[last],
                              "gamma system (last)": det.errors[last]},
                             title=f"{scenario.name}: ensemble mean vs gamma system")
        report.artifacts.append(p)
    report.write(outdir / f"{prefix}-montecarlo-report.json")
    print(f"n={stats.n_realizations}: last-vehicle peak of mean {peak_mean:.3f} m, "
          f"gamma-system peak {peak_det:.3f} m, relative gap "
          + ("n/a" if rel_gap is None else f"{rel_gap * 100:.2f}%"))
    return report


def cmd_stability(scenario: Scenario, outdir: Path) -> output.RunReport:
    cfg = scenario.config
    verdicts = _headway_table(scenario)
    ss = stability.build_error_system(cfg.gains, cfg.tau, cfg.policy.h_w, cfg.scheme,
                                      *scenario.analysis_rates)
    norms = [stability.hinf_norm(tf) for tf in ss.tfs]
    ok, margin = stability.string_stable_sum(norms)
    l1 = [stability.impulse_l1_norm(tf) for tf in ss.tfs]
    if len(ss.tfs) == 1:
        verdicts.update({"hinf_h": norms[0], "hinf_margin": margin,
                         "frequency_condition": ok, "l1_h": l1[0]})
    else:
        verdicts.update({"hinf_h_p1": norms[0], "hinf_h_p2": norms[1],
                         "hinf_sum": sum(norms), "sum_margin": margin,
                         "frequency_condition": ok,
                         "l1_h_p1": l1[0], "l1_h_p2": l1[1], "l1_sum": sum(l1)})
    bound = stability.peak_output_bound(ss, scenario.analysis.alpha_star)
    peak = bound.evaluate(scenario.analysis.w0_l2)
    # a standstill distance of the peak bound absorbs the worst-case spacing error
    verdicts.update({"j_value": bound.j_value, "m1": bound.m1, "m2": bound.m2,
                     "peak_error_bound": peak, "safe_standstill_distance": peak})
    report = _report("stability", scenario, verdicts)
    report.write(outdir / f"{scenario.output.prefix}-stability-report.json")
    cond = "holds" if ok else "violated"
    print(f"frequency-domain condition {cond}; peak error bound {peak:.3f} m")
    return report


def cmd_oracle(scenario: Scenario, outdir: Path) -> output.RunReport:
    """E[A^k] against (E[A])^k for k = 1..6, from one exact recursion.

    Each vehicle's rows are conditioned on its own links (at most four
    assignments; see :mod:`platoon_lab.expectation`), so it takes milliseconds.
    """
    spec = expectation.from_platoon(scenario.config)
    ks = range(1, 7)
    rows = [{"k": k, "holds": holds, "frobenius_gap": gap}
            for k, (holds, gap) in zip(ks, expectation.check_multilinearity(spec, ks))]
    verdicts = {"n_variables": len(spec.probs), "checks": rows,
                "identity_holds_all": all(r["holds"] for r in rows)}
    report = _report("oracle", scenario, verdicts)
    prefix = scenario.output.prefix
    report.artifacts.append(output.write_table(
        outdir / f"{prefix}-oracle.csv", ["k", "holds", "frobenius_gap"],
        ((r["k"], int(r["holds"]), r["frobenius_gap"]) for r in rows), "\n"))
    report.write(outdir / f"{prefix}-oracle-report.json")
    for r in rows:
        print(f"k={r['k']}: E[A^k] == (E[A])^k -> {r['holds']} (gap {r['frobenius_gap']:.3e})")
    return report


_COMMANDS = {
    "headway": cmd_headway,
    "simulate": cmd_simulate,
    "montecarlo": cmd_montecarlo,
    "stability": cmd_stability,
    "oracle": cmd_oracle,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="platoon-lab",
                                     description="Lossy-V2V platoon analysis toolkit")
    sub = parser.add_subparsers(dest="mode", required=True)
    run = sub.add_parser("run", help="run one analysis command on a scenario")
    run.add_argument("command", choices=sorted(_COMMANDS))
    run.add_argument("--scenario", required=True,
                     help="scenario file path or bundled preset name")
    run.add_argument("--seed", type=int, default=DEFAULT_SEED,
                     help=f"master seed (default {DEFAULT_SEED})")
    run.add_argument("--jobs", type=int, default=1,
                     help="accepted for compatibility; has no effect (ensembles "
                     "run batched in one process)")
    run.add_argument("--out", default=None, help="output directory "
                     "(default $PLATOON_LAB_OUT or ./platoon-lab-out)")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        scenario = load_scenario(args.scenario, master_seed=args.seed)
    except ScenarioError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        outdir = _out_dir(args.out)
    except OSError as exc:
        print(f"configuration error: cannot use output directory: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        _COMMANDS[args.command](scenario, outdir)
    except SimulationDivergedError as exc:
        print(f"simulation diverged: {exc}", file=sys.stderr)
        return EXIT_DIVERGED
    except (stability.UnstableTransferFunctionError, stability.NormOverflowError,
            expectation.NonFiniteExpectationError) as exc:
        print(f"analysis error: {exc}", file=sys.stderr)
        return EXIT_ANALYSIS
    except ScenarioError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
