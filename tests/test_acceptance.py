"""Acceptance gate: one test per criterion, one PASS/FAIL line each.

Run with  pytest tests/test_acceptance.py -v -s  to see the per-criterion
lines.  Criterion 3 checks the closed-form minimum headways at the velocity
gains they are exact thresholds for; they are minima over (k_v, k_p), not the
thresholds of the paper's own gains.  Criterion 4 fails and is left failing
rather than weakened: the measured three-panel patterns are fig8 UUU, fig9
SUS and fig10 UUU, and the cause is not settled.  It is not the first
follower alone (without follower 1, fig8 gives UUS and fig10 UUU; fig8's
ideal-panel peaks also rise from follower 3 to 4 and 5 to 6), not the
frequency-domain verdicts (the sum certificate rejects every CACC+ panel,
with sums 1.31-2.22, and at fig10's k_a = 0.75 certifies no headway at all),
and not the velocity gain (the designed k_v+ gives fig8 UUS and fig10 UUU).
Settling it needs the paper's figure gains and its verdict rule for
two-predecessor platoons.
"""

import time
from dataclasses import replace

import numpy as np

import platoon_lab as pl
from designed_gains import designed_kv
from platoon_lab import cli
from platoon_lab.channel import GilbertParams, gamma_of
from platoon_lab.control import Gains, SpacingPolicy, min_headway
from platoon_lab.dynamics import Maneuver, TimeGrid
from platoon_lab.expectation import check_multilinearity, from_platoon
from platoon_lab.scenario import load_scenario
from platoon_lab.sim import (PlatoonConfig, empirical_string_stability, monte_carlo,
                             simulate, simulate_panels)
from platoon_lab.stability import (build_error_system, hinf_norm, lyapunov_gramian,
                                   peak_output_bound, string_stable_sum)

BRAKE = Maneuver(((0.0, 0.0), (10.0, -9.0), (11.0, 0.0)), 25.0)
CHANNEL = GilbertParams(0.2, 0.1, 0.2)


def report(criterion: int, ok: bool, detail: str):
    marker = "PASS" if ok else "FAIL"
    print(f"\nACCEPTANCE {criterion}: {marker} - {detail}")
    return ok


def test_criterion_1_gamma_formula():
    gamma_of(CHANNEL)  # warm up
    t0 = time.perf_counter()
    g = gamma_of(CHANNEL)
    elapsed = time.perf_counter() - t0
    ok = abs(g - 0.4667) <= 1e-4 and elapsed < 1e-3
    assert report(1, ok, f"gamma_of(0.2,0.1,0.2) = {g:.5f} in {elapsed * 1e6:.1f} us")


def test_criterion_2_headway_formulas():
    cases = [
        ("ideal CACC+ 0.38 s", lambda: min_headway(0.4, 1.0, 1.0, 0.2), 0.38, 0.005),
        ("lossy CACC+ 0.53 s", lambda: min_headway(0.4, 0.467, 0.467, 0.2), 0.53, 0.01),
        ("lossy CACC 0.538 s", lambda: min_headway(0.37, 0.467, 0.0, 0.8), 0.538, 0.002),
        ("ACC 0.74 s", lambda: min_headway(0.37, 0.0, 0.0, 0.0), 0.74, 0.0),
        ("ACC 0.8 s", lambda: min_headway(0.4, 0.0, 0.0, 0.0), 0.8, 0.0),
        ("high-fidelity CACC+ 0.371 s", lambda: min_headway(0.37, 0.467, 0.467, 0.75),
         0.371, 0.002),
    ]
    all_ok = True
    details = []
    for label, fn, want, tol in cases:
        fn()  # warm up
        t0 = time.perf_counter()
        got = fn()
        elapsed = time.perf_counter() - t0
        ok = abs(got - want) <= max(tol, 1e-12) and elapsed < 1e-3
        all_ok &= ok
        details.append(f"{label}: {got:.4f}")
    assert report(2, all_ok, "; ".join(details))


def test_criterion_3_frequency_domain_tightness():
    # the closed forms take no k_v or k_p: each is the smallest headway any
    # (k_v, k_p) makes string stable, and the exact threshold only at the
    # designed k_v (designed_gains.py).  At each paper (tau, k_a, k_p) set with
    # that k_v the norm must equal 1 within 1e-3 at the closed-form minimum,
    # stay <= 1 on [h_min, 2 h_min] and exceed 1 + 1e-3 at 0.99 h_min; the
    # paper's own k_v must not be string stable below the minimum either.
    # For CACC+ the norm is |H_p1| over its DC gain; the sum certificate is
    # checked where (1 + gamma) k_a <= 1, since above that no gain and headway
    # meet it (see min_headway), and sum@hmin is printed for all sets
    t0 = time.perf_counter()
    gamma = 0.467
    gain_sets = ((Gains(0.2, 2.5, 1.0), 0.4), (Gains(0.8, 1.5, 2.0), 0.37),
                 (Gains(0.75, 2.5, 1.5), 0.37))
    all_ok = True
    details = []
    for paper, tau in gain_sets:
        k_a = paper.k_a
        hm = min_headway(tau, gamma, 0.0, k_a)
        star = replace(paper, k_v=designed_kv(gamma, 0.0, k_a, tau))
        def cacc_norm(gains, h):
            (tf,) = build_error_system(gains, tau, h, pl.Scheme.CACC, gamma, 0.0).tfs
            return hinf_norm(tf)

        norm_at_min = cacc_norm(star, hm)
        cacc_ok = abs(norm_at_min - 1.0) <= 1e-3
        for h in np.linspace(hm, 2 * hm, 20):
            cacc_ok &= cacc_norm(star, h) <= 1.0 + 1e-9
        for gains in (star, paper):
            cacc_ok &= cacc_norm(gains, 0.99 * hm) > 1.0 + 1e-3
        paper_norm = cacc_norm(paper, hm)

        hp = min_headway(tau, gamma, gamma, k_a)
        plus = replace(paper, k_v=designed_kv(gamma, gamma, k_a, tau))
        with_sum = (1.0 + gamma) * k_a <= 1.0
        t1, t2 = build_error_system(plus, tau, hp, pl.Scheme.CACC_PLUS, gamma, gamma).tfs
        n1, n2 = hinf_norm(t1), hinf_norm(t2)
        p1_at_min = n1 / t1.dc_gain()
        sum_at_min = n1 + n2
        plus_ok = abs(p1_at_min - 1.0) <= 1e-3
        if with_sum:
            plus_ok &= abs(sum_at_min - 1.0) <= 1e-3
        for h in np.linspace(hp, 2 * hp, 20):
            t1, t2 = build_error_system(plus, tau, h, pl.Scheme.CACC_PLUS, gamma, gamma).tfs
            plus_ok &= hinf_norm(t1) / t1.dc_gain() <= 1.0 + 1e-9
            if with_sum:
                plus_ok &= string_stable_sum((hinf_norm(t1), hinf_norm(t2)))[0]
        for gains in (plus, paper):
            t1, _ = build_error_system(gains, tau, 0.99 * hp, pl.Scheme.CACC_PLUS,
                                       gamma, gamma).tfs
            plus_ok &= hinf_norm(t1) / t1.dc_gain() > 1.0 + 1e-3
        paper_sum = sum(hinf_norm(tf) for tf in
                        build_error_system(paper, tau, hp, pl.Scheme.CACC_PLUS, gamma, gamma).tfs)
        all_ok &= cacc_ok and plus_ok
        details.append(f"K_a={k_a}: |H|@hmin={norm_at_min:.4f}, "
                       f"|H_p1|/H_p1(0)@hmin={p1_at_min:.4f}, sum@hmin={sum_at_min:.4f}"
                       f"{'' if with_sum else ' (unreachable)'}; paper k_v "
                       f"|H|@hmin={paper_norm:.3f}, sum@hmin={paper_sum:.3f}")
    elapsed = time.perf_counter() - t0
    all_ok &= elapsed < 1.0
    assert report(3, all_ok, "; ".join(details) + f" ({elapsed:.2f} s)"), (
        "the closed-form minimum headway is not the exact string-stability "
        "threshold at the designed velocity gain, or the paper's k_v is string "
        "stable below it")


def _suite_pattern(preset: str) -> list[bool]:
    scen = load_scenario(preset, master_seed=cli.DEFAULT_SEED)
    cfg = scen.config
    g_lossy = gamma_of(cfg.channel)
    gammas = [1.0 if panel.mode == "ideal" else g_lossy for panel in scen.suite]
    # pedal-map panels step together as rows, each bitwise its lone run
    outs = simulate_panels(cfg, scen.maneuver,
                           [(panel.headway, g, g) for panel, g in zip(scen.suite, gammas)])
    return [empirical_string_stability(out)[0] for out in outs]


def test_criterion_4_scenario_verdicts():
    t0 = time.perf_counter()
    want = [True, False, True]
    patterns = {}
    for preset in ("paper-fig8", "paper-fig9", "paper-fig10"):
        patterns[preset] = _suite_pattern(preset)
    # stochastic check on the unstable middle panel of the linear suite
    scen = load_scenario("paper-fig8", master_seed=cli.DEFAULT_SEED)
    mid = scen.suite[1]
    pcfg = replace(scen.config, policy=replace(scen.config.policy, h_w=mid.headway),
                   grid=TimeGrid(0.01, 30.0))
    # seeds DEFAULT_SEED + 0..49, stepped together as the rows of one run
    pk = monte_carlo(replace(pcfg, master_seed=cli.DEFAULT_SEED), scen.maneuver, 50).peaks
    wins = int(np.count_nonzero(pk[:, -1] > pk[:, 0]))
    frac = wins / 50
    elapsed = time.perf_counter() - t0
    det_ok = all(patterns[p] == want for p in patterns)
    stoch_ok = frac >= 0.6
    ok = det_ok and stoch_ok and elapsed < 30.0
    fmt = {p: "".join("S" if v else "U" for v in patterns[p]) for p in patterns}
    assert report(4, ok, f"deterministic patterns (want SUS): {fmt}; "
                         f"middle-panel last>first in {frac * 100:.0f}% of seeds "
                         f"({elapsed:.1f} s)"), (
        "the two-predecessor suites do not reproduce the three-panel pattern; "
        "cause not settled: dropping follower 1 still gives fig8 UUS and fig10 "
        "UUU, the sum certificate rejects every CACC+ panel, and the designed "
        "k_v+ gives fig8 UUS and fig10 UUU (see the module docstring)")


def test_criterion_5_monte_carlo_convergence():
    t0 = time.perf_counter()
    scen = load_scenario("paper-fig4", master_seed=5000)
    cfg = scen.config
    stats = monte_carlo(cfg, scen.maneuver, 100)
    peak_mean = stats.mean_trajectory_peaks[-1]
    peak_det = simulate(replace(cfg, rates=cfg.link_rates()), scen.maneuver).peak_errors()[-1]
    rel = abs(peak_mean - peak_det) / peak_det
    elapsed = time.perf_counter() - t0
    ok = rel < 0.10 and elapsed < 60.0
    assert report(5, ok, f"last-vehicle peak of 100-run mean {peak_mean:.3f} m vs "
                         f"gamma-system {peak_det:.3f} m -> {rel * 100:.2f}% "
                         f"({elapsed:.1f} s)")


def test_criterion_6_expectation_oracle():
    t0 = time.perf_counter()
    def cfg_for(scheme):
        return PlatoonConfig(
            n_followers=2, tau=0.4, gains=Gains(0.2, 2.5, 1.0),
            policy=SpacingPolicy(h_w=0.45, d=5.0), scheme=scheme,
            grid=TimeGrid(0.01, 1.0), channel=CHANNEL)
    cacc = from_platoon(cfg_for(pl.Scheme.CACC))
    cacc_ok = True
    worst = 0.0
    for holds, gap in check_multilinearity(cacc, range(1, 7)):
        cacc_ok &= holds and gap < 1e-10
        worst = max(worst, gap)
    plus = from_platoon(cfg_for(pl.Scheme.CACC_PLUS))
    [(_, gap3)] = check_multilinearity(plus, [3])
    elapsed = time.perf_counter() - t0
    ok = cacc_ok and gap3 > 1e-6 and elapsed < 5.0
    assert report(6, ok, f"CACC k=1..6 worst gap {worst:.2e}; CACC+ k=3 gap "
                         f"{gap3:.2e} ({elapsed:.2f} s)")


def test_criterion_7_lyapunov_peak_bound():
    t0 = time.perf_counter()
    gamma = gamma_of(CHANNEL)
    # Gramian residuals on the paper error dynamics
    res_ok = True
    for gains, tau, scheme in ((Gains(0.8, 1.5, 2.0), 0.37, pl.Scheme.CACC),
                               (Gains(0.2, 2.5, 1.0), 0.4, pl.Scheme.CACC_PLUS)):
        ss = build_error_system(gains, tau, 0.6, scheme, gamma, gamma)
        p = lyapunov_gramian(ss.a, ss.b)
        res = np.linalg.norm(ss.a @ p + p @ ss.a.T + ss.b @ ss.b.T)
        res_ok &= res < 1e-8 * np.linalg.norm(ss.b @ ss.b.T)
    # bound domination over seeded stable runs (zero initial errors, so the
    # alpha* term vanishes; ||w0||_2 = 9 for the one-second braking ramp)
    violations = 0
    checked = 0
    worst_margin = np.inf
    gains_c, tau_c = Gains(0.8, 1.5, 2.0), 0.37
    ss = build_error_system(gains_c, tau_c, 0.6, pl.Scheme.CACC, gamma, 0.0)
    bound_c = peak_output_bound(ss, 0.0).evaluate(9.0)
    # seeds 4200-4299, stepped as the rows of one batch
    cfg = PlatoonConfig(n_followers=6, tau=tau_c, gains=gains_c,
                        policy=SpacingPolicy(h_w=0.6, d=5.0), scheme=pl.Scheme.CACC,
                        grid=TimeGrid(0.01, 30.0), channel=CHANNEL, master_seed=4200)
    peaks = monte_carlo(cfg, BRAKE, 100).peaks
    checked += peaks.size
    violations += int(np.sum(peaks > bound_c))
    worst_margin = min(worst_margin, bound_c - peaks.max())
    # two-predecessor variant at a configuration satisfying the sum condition
    gains_p, tau_p, hw_p = Gains(0.2, 0.5, 1.0), 0.4, 1.0
    ssp = build_error_system(gains_p, tau_p, hw_p, pl.Scheme.CACC_PLUS, gamma, gamma)
    bound_p = peak_output_bound(ssp, 0.0).evaluate(9.0)
    # seeds 8800-8819
    cfg = PlatoonConfig(n_followers=6, tau=tau_p, gains=gains_p,
                        policy=SpacingPolicy(h_w=hw_p, d=5.0), scheme=pl.Scheme.CACC_PLUS,
                        grid=TimeGrid(0.01, 30.0), channel=CHANNEL, master_seed=8800)
    peaks = monte_carlo(cfg, BRAKE, 20).peaks
    checked += peaks.size
    violations += int(np.sum(peaks > bound_p))
    elapsed = time.perf_counter() - t0
    ok = res_ok and violations == 0 and elapsed < 60.0
    assert report(7, ok, f"residuals < 1e-8; {violations} violations over {checked} "
                         f"vehicle peaks (CACC bound {bound_c:.3f} m, worst margin "
                         f"{worst_margin:.3f} m; CACC+ bound {bound_p:.3f} m) "
                         f"({elapsed:.1f} s)")


def test_criterion_8_stochastic_mean_equivalence():
    t0 = time.perf_counter()
    cfg = PlatoonConfig(n_followers=6, tau=0.4, gains=Gains(0.2, 2.5, 1.0),
                        policy=SpacingPolicy(h_w=0.7, d=5.0), scheme=pl.Scheme.CACC,
                        grid=TimeGrid(0.01, 30.0), channel=CHANNEL, master_seed=777)
    det = simulate(replace(cfg, rates=(gamma_of(CHANNEL),) * 2), BRAKE)
    gaps = {}
    for n in (20, 200):
        stats = monte_carlo(cfg, BRAKE, n)
        gaps[n] = float(np.abs(stats.mean_errors - det.errors).max())
    ratio = gaps[200] / gaps[20]
    elapsed = time.perf_counter() - t0
    ok = ratio < 0.5 and elapsed < 60.0
    assert report(8, ok, f"pointwise gap to gamma system: n=20 -> {gaps[20]:.4f} m, "
                         f"n=200 -> {gaps[200]:.4f} m (ratio {ratio:.2f}) "
                         f"({elapsed:.1f} s)")


def test_criterion_9_reproducibility(tmp_path):
    scenario_text = """
[platoon]
n_followers = 3
tau = 0.4
k_a = 0.2
k_v = 2.5
k_p = 1.0
headway = 0.6
scheme = cacc_plus

[channel]
p_gb = 0.2
q_bg = 0.1
r_recv_bad = 0.2

[maneuver]
initial_velocity = 25.0
segments = 0:0, 5:-9, 6:0

[analysis]
dt = 0.01
horizon = 20.0

[output]
prefix = repro
svg = false
"""
    scen_path = tmp_path / "repro.ini"
    scen_path.write_text(scenario_text)
    blobs = {}
    for d in ("first", "second"):
        rc = cli.main(["run", "simulate", "--scenario", str(scen_path),
                       "--out", str(tmp_path / d), "--seed", "31415"])
        assert rc == 0
        blobs[d] = ((tmp_path / d / "repro-run-timeseries.csv").read_bytes(),
                    (tmp_path / d / "repro-run-peaks.csv").read_bytes())
    ok = blobs["first"] == blobs["second"]
    assert report(9, ok, "identical command + seed produced byte-identical CSVs")
