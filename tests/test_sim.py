from dataclasses import replace

import numpy as np
import pytest
from scipy.linalg import expm

import platoon_lab as pl
import reference_engine as ref
from platoon_lab.channel import GilbertParams
from platoon_lab.control import Gains, Scheme, SpacingPolicy
from platoon_lab.dynamics import Maneuver, TimeGrid
from platoon_lab.scenario import load_scenario
from platoon_lab.sim import (PlatoonConfig, SimulationDivergedError, _link_tables,
                             _offset_vector, _Propagator, _augmented_matrix,
                             _weights_for, build_system_matrix,
                             empirical_string_stability, equilibrium_state,
                             link_decomposition, monte_carlo, simulate,
                             simulate_deterministic)

CHANNEL = GilbertParams(0.2, 0.1, 0.2)
BRAKE = Maneuver(((0.0, 0.0), (10.0, -9.0), (11.0, 0.0)), 25.0)


def make_config(scheme=Scheme.CACC, n_followers=2, tau=0.4, gains=Gains(0.2, 2.5, 1.0),
                h_w=0.6, horizon=30.0, seed=100, **kw):
    kw.setdefault("channel", CHANNEL)
    return PlatoonConfig(
        n_followers=n_followers, tau=tau, gains=gains,
        policy=SpacingPolicy(h_w=h_w, d=5.0), scheme=scheme,
        grid=TimeGrid(0.01, horizon), master_seed=seed, **kw)


def hand_built_cacc_matrix(ka, kv, kp, tau, hw, w10, w21):
    """The printed 9x9 three-vehicle one-predecessor system matrix."""
    p1 = -(kv + kp * hw) / tau
    m = np.zeros((9, 9))
    for i in range(3):
        m[3 * i, 3 * i + 1] = 1.0
        m[3 * i + 1, 3 * i + 2] = 1.0
        m[3 * i + 2, 3 * i + 2] = -1.0 / tau
    m[5, 0] = kp / tau
    m[5, 1] = kv / tau
    m[5, 2] = w10 * ka / tau
    m[5, 3] = -kp / tau
    m[5, 4] = p1
    m[8, 3] = kp / tau
    m[8, 4] = kv / tau
    m[8, 5] = w21 * ka / tau
    m[8, 6] = -kp / tau
    m[8, 7] = p1
    return m


def hand_built_cacc_plus_matrix(ka, kv, kp, tau, hw, w10, w21, w20):
    """The printed (2+1)-vehicle two-predecessor matrix with P1, P2, P3."""
    m = hand_built_cacc_matrix(ka, kv, kp, tau, hw, w10, w21)
    m[8, 0] = w20 * kp / tau
    m[8, 1] = w20 * kv / tau
    m[8, 2] = w20 * ka / tau
    m[8, 6] = -(kp + w20 * kp) / tau                       # P2
    m[8, 7] = -(kv + kp * hw + w20 * (kv + 2 * kp * hw)) / tau  # P3
    return m


class TestBuildSystemMatrix:
    def test_matches_printed_cacc_matrix(self):
        cfg = make_config(Scheme.CACC)
        ka, kv, kp = 0.2, 2.5, 1.0
        for w in ((1.0, 1.0), (1.0, 0.0), (0.0, 0.0)):
            got = build_system_matrix(cfg, np.array(w))
            want = hand_built_cacc_matrix(ka, kv, kp, 0.4, 0.6, *w)
            np.testing.assert_allclose(got, want, atol=1e-15)

    def test_all_dropped_cacc_equals_acc(self):
        cfg = make_config(Scheme.CACC)
        acc = make_config(Scheme.ACC)
        np.testing.assert_allclose(build_system_matrix(cfg, np.zeros(2)),
                                   build_system_matrix(acc, np.ones(2)), atol=1e-15)

    def test_matches_printed_cacc_plus_matrix(self):
        cfg = make_config(Scheme.CACC_PLUS)
        ka, kv, kp = 0.2, 2.5, 1.0
        for w in ((1.0, 1.0, 1.0), (1.0, 0.0, 1.0), (0.4670, 0.4670, 0.2)):
            got = build_system_matrix(cfg, np.array(w))
            want = hand_built_cacc_plus_matrix(ka, kv, kp, 0.4, 0.6, *w)
            np.testing.assert_allclose(got, want, atol=1e-15)

    def test_dimension_mismatch(self):
        cfg = make_config(Scheme.CACC_PLUS)
        with pytest.raises(ValueError):
            build_system_matrix(cfg, np.ones(2))  # CACC+ with 2 followers has 3 links


class TestConfigValidation:
    def test_cacc_plus_needs_two_followers(self):
        with pytest.raises(ValueError, match="two-predecessor"):
            make_config(Scheme.CACC_PLUS, n_followers=1)

    def test_at_least_one_follower(self):
        with pytest.raises(ValueError):
            make_config(n_followers=0)

    def test_empirical_needs_maps(self):
        with pytest.raises(ValueError):
            make_config(model="empirical")


class TestSimulate:
    def test_zero_maneuver_stays_at_equilibrium(self):
        cfg = make_config(Scheme.CACC_PLUS, n_followers=3, horizon=5.0)
        out = simulate(cfg, Maneuver.constant_velocity(25.0))
        assert np.abs(out.errors).max() == 0.0
        assert np.all(out.v == 25.0)

    def test_reproducible_bit_identical(self):
        cfg = make_config(Scheme.CACC_PLUS, n_followers=4, h_w=0.6, horizon=20.0)
        a = simulate(cfg, BRAKE)
        b = simulate(cfg, BRAKE)
        assert np.array_equal(a.errors, b.errors)
        assert np.array_equal(a.x, b.x)

    def test_different_seed_changes_stochastic_run(self):
        cfg = make_config(Scheme.CACC, n_followers=3, horizon=20.0, seed=1)
        cfg2 = make_config(Scheme.CACC, n_followers=3, horizon=20.0, seed=2)
        assert not np.array_equal(simulate(cfg, BRAKE).errors, simulate(cfg2, BRAKE).errors)

    def test_deterministic_gamma_one_equals_lossless_stochastic(self):
        lossless = GilbertParams(0.3, 0.2, 1.0)  # received everywhere
        cfg = make_config(Scheme.CACC, n_followers=3, horizon=20.0, channel=lossless)
        stoch = simulate(cfg, BRAKE)
        det = simulate_deterministic(cfg, BRAKE, 1.0)
        assert np.array_equal(stoch.errors, det.errors)

    def test_deterministic_gamma_zero_cacc_equals_acc(self):
        cfg = make_config(Scheme.CACC, n_followers=3, horizon=20.0)
        acc = make_config(Scheme.ACC, n_followers=3, horizon=20.0)
        a = simulate_deterministic(cfg, BRAKE, 0.0)
        b = simulate(acc, BRAKE)
        np.testing.assert_array_equal(a.errors, b.errors)

    def test_cacc_plus_with_dead_second_link_reproduces_cacc(self):
        # second-predecessor channel absorbed in Bad with zero reception ->
        # trajectories must be bit-identical to the plain CACC run
        dead = GilbertParams(1.0, 0.0, 0.0)
        plus = make_config(Scheme.CACC_PLUS, n_followers=3, horizon=20.0,
                           channel_second=dead)
        cacc = make_config(Scheme.CACC, n_followers=3, horizon=20.0)
        np.testing.assert_array_equal(simulate(plus, BRAKE).errors,
                                      simulate(cacc, BRAKE).errors)

    def test_stable_cacc_config_has_decreasing_peaks(self):
        cfg = make_config(Scheme.CACC, n_followers=6, tau=0.37,
                          gains=Gains(0.8, 1.5, 2.0), h_w=0.7, horizon=35.0)
        out = simulate_deterministic(cfg, BRAKE, 1.0)
        ok, peaks = empirical_string_stability(out)
        assert ok
        assert np.all(np.diff(peaks) < 0)

    def test_ideal_cacc_well_above_threshold_monotone(self):
        # gamma=1, gains (0.2,2.5,1), h=0.7: the braking response decays from
        # vehicle 2 on, but the head pair amplifies marginally (~1.4 cm) since
        # |H|_inf = 1.16 > 1 at this headway (the exact threshold for this
        # gain set is h ~ 1.37, far above the closed-form minimum)
        cfg = make_config(Scheme.CACC, n_followers=6, h_w=0.7, horizon=40.0)
        peaks = simulate_deterministic(cfg, BRAKE, 1.0).peak_errors()
        assert np.all(np.diff(peaks[1:]) < 0)
        assert 0.0 < peaks[1] - peaks[0] < 0.02

    def test_divergence_guard(self):
        # negative effective damping: blow-up must raise with the step index
        cfg = make_config(Scheme.CACC, n_followers=2, tau=2.0,
                          gains=Gains(0.0001, 0.01, 5.0), h_w=0.01, horizon=120.0)
        with pytest.raises(SimulationDivergedError):
            simulate_deterministic(cfg, BRAKE, 0.0)

    def test_velocity_clamp(self):
        stop = Maneuver(((0.0, 0.0), (1.0, -9.0), (4.0, 0.0)), 20.0)
        cfg = make_config(Scheme.CACC, n_followers=2, h_w=0.6, horizon=20.0,
                          velocity_clamp=True)
        out = simulate_deterministic(cfg, stop, 0.467)
        assert out.v.min() >= 0.0


class TestEngineExactness:
    def test_propagator_taylor_matches_expm(self):
        cfg = make_config(Scheme.CACC_PLUS, n_followers=3, horizon=1.0)
        prop = _Propagator(cfg)
        rng = np.random.default_rng(0)
        x = rng.normal(size=12)
        for w in (np.ones(5), np.zeros(5), rng.integers(0, 2, 5).astype(float)):
            e = expm(_augmented_matrix(cfg, w) * cfg.grid.dt)
            direct = e[:12, :12] @ x + e[:12, 12] * -3.0 + e[:12, 13]
            cached = prop.advance(x, -3.0, w)
            np.testing.assert_allclose(cached, direct, atol=1e-12)
            prop.cacheable = False
            taylor = prop.advance(x, -3.0, w)
            prop.cacheable = True
            np.testing.assert_allclose(taylor, direct, atol=1e-12)

    def test_cached_equals_fresh_propagator(self):
        cfg = make_config(Scheme.CACC, n_followers=2, horizon=1.0)
        w = np.array([1.0, 0.0])
        p1 = _Propagator(cfg)
        first = p1.step_matrix(w)
        again = p1.step_matrix(w)        # cache hit
        fresh = _Propagator(cfg).step_matrix(w)
        assert again is first
        np.testing.assert_allclose(first, fresh, atol=1e-15)

    def test_against_fine_euler_oracle(self):
        # independent integration of the same closed loop at a 100x finer step
        cfg = make_config(Scheme.CACC, n_followers=2, h_w=0.7, horizon=8.0)
        man = Maneuver(((0.0, 0.0), (1.0, -3.0), (2.0, 0.0)), 20.0)
        g = 0.467
        out = simulate_deterministic(cfg, man, g)
        a = build_system_matrix(cfg, np.full(2, g))
        c = _offset_vector(cfg, np.full(2, g))
        b = np.zeros(9)
        b[2] = 1.0 / cfg.tau
        x = equilibrium_state(cfg, 20.0)
        dt = 1e-4
        for k in range(int(8.0 / dt)):
            u = man.accel_at(k * dt)
            x = x + dt * (a @ x + b * u + c)
        final = out.x[:, -1]
        np.testing.assert_allclose(x[0::3], final, atol=2e-3)

    def test_spacing_errors_satisfy_printed_recursions(self):
        # FFT check that simulated errors obey E_i = H1 E_{i-1} (+ H2 E_{i-2})
        from platoon_lab.stability import build_cacc_plus_tfs, build_cacc_tf
        g = 0.467
        cfg = make_config(Scheme.CACC_PLUS, n_followers=6, h_w=0.6, horizon=60.0)
        out = simulate_deterministic(cfg, BRAKE, g)
        freqs = np.fft.rfftfreq(out.errors.shape[1], 0.01) * 2 * np.pi
        t1, t2 = build_cacc_plus_tfs(cfg.gains, cfg.tau, 0.6, g)
        f = np.fft.rfft(out.errors, axis=1)
        sel = freqs < 20.0
        for i in (3, 4, 5, 6):
            lhs = f[i - 1][sel]
            rhs = (t1(1j * freqs) * f[i - 2] + t2(1j * freqs) * f[i - 3])[sel]
            assert np.linalg.norm(lhs - rhs) / np.linalg.norm(lhs) < 1e-4

        cfg_c = make_config(Scheme.CACC, n_followers=4, tau=0.37,
                            gains=Gains(0.8, 1.5, 2.0), h_w=0.6, horizon=60.0)
        out_c = simulate_deterministic(cfg_c, BRAKE, g)
        tf = build_cacc_tf(cfg_c.gains, cfg_c.tau, 0.6, g)
        f = np.fft.rfft(out_c.errors, axis=1)
        for i in (2, 3, 4):
            lhs = f[i - 1][sel]
            rhs = (tf(1j * freqs) * f[i - 2])[sel]
            assert np.linalg.norm(lhs - rhs) / np.linalg.norm(lhs) < 1e-6


class TestMonteCarlo:
    def test_single_realization_mean_is_the_run(self):
        cfg = make_config(Scheme.CACC, n_followers=2, horizon=15.0, seed=5)
        stats = monte_carlo(cfg, BRAKE, 1)
        single = simulate(make_config(Scheme.CACC, n_followers=2, horizon=15.0, seed=5), BRAKE)
        np.testing.assert_array_equal(stats.mean_errors, single.errors)
        np.testing.assert_array_equal(stats.peaks[0], single.peak_errors())

    def test_mean_converges_to_gamma_system_for_cacc(self):
        cfg = make_config(Scheme.CACC, n_followers=3, h_w=0.7, horizon=25.0, seed=777)
        det = simulate_deterministic(cfg, BRAKE, pl.gamma_of(CHANNEL))
        gaps = {}
        for n in (10, 80):
            stats = monte_carlo(cfg, BRAKE, n)
            gaps[n] = np.abs(stats.mean_errors - det.errors).max()
        assert gaps[80] < gaps[10]

    def test_parallel_jobs_reduce_identically(self):
        cfg = make_config(Scheme.CACC, n_followers=2, horizon=10.0, seed=3)
        seq = monte_carlo(cfg, BRAKE, 6, jobs=1)
        par = monte_carlo(cfg, BRAKE, 6, jobs=2)
        np.testing.assert_array_equal(seq.mean_errors, par.mean_errors)
        np.testing.assert_array_equal(seq.peaks, par.peaks)


class TestEmpiricalStringStability:
    def test_all_zero_errors_stable(self):
        cfg = make_config(Scheme.CACC, n_followers=3, horizon=5.0)
        out = simulate(cfg, Maneuver.constant_velocity(25.0))
        ok, peaks = empirical_string_stability(out)
        assert ok
        np.testing.assert_array_equal(peaks, np.zeros(3))

    def test_growing_synthetic_peaks_rejected(self):
        cfg = make_config(Scheme.CACC, n_followers=3, horizon=1.0)
        out = simulate(cfg, Maneuver.constant_velocity(25.0))
        out.errors = np.array([[0.0, 1.0], [0.0, 2.0], [0.0, 3.0]])
        ok, peaks = empirical_string_stability(out)
        assert not ok
        np.testing.assert_allclose(peaks, [1.0, 2.0, 3.0])

    def test_needs_two_followers(self):
        cfg = make_config(Scheme.CACC, n_followers=1, horizon=1.0)
        out = simulate(cfg, Maneuver.constant_velocity(25.0))
        with pytest.raises(ValueError):
            empirical_string_stability(out)


class TestLinkTableEquivalence:
    def test_vectorized_tables_match_channel_step(self):
        from platoon_lab.channel import ChannelState, channel_step, link_streams
        from platoon_lab.sim import _link_tables
        cfg = make_config(Scheme.CACC_PLUS, n_followers=3, horizon=3.0, seed=42)
        table = _link_tables(cfg, 300)
        streams = link_streams(42, cfg.n_links)
        for li, rng in enumerate(streams):
            params = cfg.channel if li < cfg.n_followers else cfg.second_params()
            state = ChannelState.stationary(params, rng)
            seq = []
            for _ in range(300):
                state, s = channel_step(state, params)
                seq.append(s.weight())
            assert table[li].tolist() == seq


class TestLinkDecomposition:
    @pytest.mark.parametrize("scheme", list(Scheme))
    def test_affine_split_reproduces_matrix_and_offset(self, scheme):
        cfg = make_config(scheme, n_followers=4)
        a0, da, c0, dc = link_decomposition(cfg)
        assert da.shape == (cfg.n_links,) + a0.shape
        assert dc.shape == (cfg.n_links,) + c0.shape
        rng = np.random.default_rng(12)
        for w in (rng.uniform(size=cfg.n_links), rng.integers(0, 2, cfg.n_links).astype(float)):
            np.testing.assert_allclose(a0 + np.tensordot(w, da, axes=1),
                                       build_system_matrix(cfg, w), rtol=0, atol=1e-14)
            np.testing.assert_allclose(c0 + w @ dc, _offset_vector(cfg, w), rtol=0, atol=1e-14)


def _reference_table(cfg):
    """The link-weight table that ``simulate`` feeds the engine for ``cfg``."""
    if cfg.deterministic_gamma is None:
        return _link_tables(cfg, cfg.grid.n_steps)
    mu = cfg.mu if cfg.mu is not None else cfg.deterministic_gamma
    w = _weights_for(cfg, cfg.deterministic_gamma, mu)
    return np.broadcast_to(w.reshape(-1, 1), (cfg.n_links, cfg.grid.n_steps))


def assert_matches_reference(cfg, maneuver):
    """Array map engine against the scalar per-vehicle engine, within 1e-9 m."""
    out = simulate(cfg, maneuver)
    x, v, a, e = ref.run_reference(cfg, maneuver, _reference_table(cfg))
    for got, want in ((out.x, x), (out.v, v), (out.a, a), (out.errors, e)):
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-9)
    return out, (x, v, a, e)


class TestMapEngineMatchesReference:
    """The map engine takes its law from the closed-loop matrix; the reference
    engine writes it term by term, one vehicle at a time."""

    @pytest.mark.parametrize("preset", ["paper-fig9", "paper-fig10"])
    @pytest.mark.parametrize("panel", [0, 1, 2])
    def test_suite_panels(self, preset, panel):
        scen = load_scenario(preset)
        cfg, p = scen.config, scen.suite[panel]
        assert cfg.model == "empirical" and cfg.grid.horizon == 40.0
        g = 1.0 if p.mode == "ideal" else pl.gamma_of(cfg.channel)
        mu = 1.0 if p.mode == "ideal" else pl.gamma_of(cfg.second_params())
        cfg = replace(cfg, policy=replace(cfg.policy, h_w=p.headway),
                      deterministic_gamma=g, mu=mu)
        assert_matches_reference(cfg, scen.maneuver)

    @pytest.mark.parametrize("preset", ["paper-fig9", "paper-fig10"])
    def test_stochastic_link_table(self, preset):
        scen = load_scenario(preset, master_seed=31)
        cfg = replace(scen.config, grid=TimeGrid(0.01, 20.0), deterministic_gamma=None,
                      policy=replace(scen.config.policy, h_w=scen.suite[1].headway))
        table = _reference_table(cfg)
        assert 0.0 < table.mean() < 1.0
        assert_matches_reference(cfg, scen.maneuver)

    def test_acc_platoon(self):
        scen = load_scenario("paper-fig9")
        cfg = replace(scen.config, scheme=Scheme.ACC, grid=TimeGrid(0.01, 20.0),
                      policy=replace(scen.config.policy, h_w=1.0), deterministic_gamma=None)
        assert_matches_reference(cfg, scen.maneuver)

    def test_command_and_velocity_clamps(self):
        scen = load_scenario("paper-fig9")
        stop = Maneuver(((0.0, 0.0), (1.0, -9.0), (3.0, 0.0)), 6.0)
        cfg = replace(scen.config, grid=TimeGrid(0.01, 8.0), deterministic_gamma=0.5,
                      velocity_clamp=True, u_clamp=(-4.0, 2.0))
        out, _ = assert_matches_reference(cfg, stop)
        free = simulate(replace(cfg, velocity_clamp=False, u_clamp=None), stop)
        # both clamps engage: without them speeds go negative and the
        # followers command more than 4 m/s^2 of braking
        assert free.v.min() < -1.0 and out.v.min() == 0.0
        assert free.a[1:].min() < -5.0 and out.a[1:].min() >= -4.0 - 1e-9
        assert out.a[0].min() < -8.0  # the lead's maneuver is not clamped
