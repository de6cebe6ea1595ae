from dataclasses import replace
from functools import lru_cache

import numpy as np
import pytest
from scipy.linalg import expm

import platoon_lab as pl
import platoon_lab.sim as sim_mod
import reference_engine as ref
from platoon_lab.channel import ChannelMode, GilbertParams
from platoon_lab.control import Gains, Scheme, SpacingPolicy
from platoon_lab.dynamics import Maneuver, TimeGrid
from platoon_lab.scenario import load_scenario
from platoon_lab.sim import (PlatoonConfig, SimulationDivergedError, _link_tables,
                             _offset_vector, _Propagator, _augmented_matrix,
                             _row_states, _seed_weights, _weight_table,
                             build_system_matrix,
                             empirical_string_stability, equilibrium_state,
                             link_decomposition, monte_carlo, seed_peaks, simulate,
                             simulate_deterministic, simulate_panels)

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
    def test_u_clamp_needs_map_model(self):
        with pytest.raises(ValueError, match="empirical"):
            make_config(u_clamp=(-2.0, 1.0))

    def test_u_clamp_bounds_ordered(self):
        scen = load_scenario("paper-fig9")
        with pytest.raises(ValueError, match="exceeds"):
            replace(scen.config, u_clamp=(2.0, -2.0))
        replace(scen.config, u_clamp=(1.0, 1.0))

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
        x = rng.normal(size=(3, 12))
        w = np.stack([np.ones(5), np.zeros(5), rng.integers(0, 2, 5).astype(float)])
        direct = np.empty_like(x)
        for r in range(3):
            e = expm(_augmented_matrix(cfg, w[r]) * cfg.grid.dt)
            direct[r] = e[:12, :12] @ x[r] + e[:12, 12] * -3.0 + e[:12, 13]
        cached = prop.advance(x, -3.0, w)
        np.testing.assert_allclose(cached, direct, atol=1e-12)
        prop.cacheable = False
        taylor = prop.advance(x, -3.0, w)
        np.testing.assert_allclose(taylor, direct, atol=1e-12)
        # a row's update does not depend on the other rows of the batch
        for r in range(3):
            np.testing.assert_array_equal(prop.advance(x[r:r + 1], -3.0, w[r:r + 1])[0],
                                          taylor[r])
            np.testing.assert_array_equal(ref.advance(prop, x[r], -3.0, w[r]), taylor[r])

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

    def test_map_model_ensemble_matches_per_seed_runs(self):
        scen = load_scenario("paper-fig9", master_seed=17)
        cfg = replace(scen.config, grid=TimeGrid(0.01, 4.0), deterministic_gamma=None)
        maneuver = Maneuver(((0.0, 0.0), (1.0, -6.0), (2.0, 0.0)), 20.0)
        stats = monte_carlo(cfg, maneuver, 3)
        runs = [simulate(replace(cfg, master_seed=17 + i), maneuver).errors for i in range(3)]
        np.testing.assert_array_equal(stats.mean_errors, (runs[0] + runs[1] + runs[2]) / 3)
        np.testing.assert_array_equal(stats.peaks, np.abs(runs).max(axis=2))

    def test_reception_rates_are_table_means(self):
        cfg = make_config(Scheme.CACC_PLUS, n_followers=3, horizon=5.0, seed=9)
        stats = monte_carlo(cfg, BRAKE, 4)
        tables = [_link_tables(replace(cfg, master_seed=9 + i), 500) for i in range(4)]
        np.testing.assert_allclose(stats.reception_rates, np.mean(tables, axis=(0, 2)),
                                   rtol=0, atol=1e-15)


def assert_ensemble_matches_reference(cfg, maneuver, n_realizations):
    """Batched ensemble against the per-seed loop, bit for bit."""
    stats = monte_carlo(cfg, maneuver, n_realizations)
    mean, peaks, mean_peaks, det_peaks = ref.monte_carlo(cfg, maneuver, n_realizations)
    np.testing.assert_array_equal(stats.mean_errors, mean)
    np.testing.assert_array_equal(stats.peaks, peaks)
    np.testing.assert_array_equal(stats.mean_trajectory_peaks, mean_peaks)
    np.testing.assert_array_equal(stats.deterministic_peaks, det_peaks)
    return stats


class TestBatchedEnsembleMatchesReference:
    """monte_carlo steps every realization in one loop; the reference engine
    runs them one seed at a time with the scalar propagator actions."""

    @pytest.mark.parametrize("n_followers", [3, 7])
    @pytest.mark.parametrize("gamma", [None, 0.467])
    def test_single_run_matches_reference(self, n_followers, gamma):
        cfg = make_config(Scheme.CACC_PLUS, n_followers=n_followers, horizon=12.0,
                          seed=2, deterministic_gamma=gamma)
        out = simulate(cfg, BRAKE)
        for got, want in zip((out.x, out.v, out.a, out.errors),
                             ref.run_linear(cfg, BRAKE, _weight_table(cfg))):
            np.testing.assert_array_equal(got, want)

    def test_taylor_path(self):
        cfg = make_config(Scheme.CACC_PLUS, n_followers=7, horizon=12.0, seed=21)
        assert not _Propagator(cfg).cacheable
        assert_ensemble_matches_reference(cfg, BRAKE, 5)

    @pytest.mark.parametrize("n_followers", [2, 6])
    def test_memo_path(self, n_followers):
        cfg = make_config(Scheme.CACC, n_followers=n_followers, horizon=14.0, seed=4)
        assert _Propagator(cfg).cacheable
        assert_ensemble_matches_reference(cfg, BRAKE, 6)

    def test_velocity_clamp(self):
        stop = Maneuver(((0.0, 0.0), (1.0, -9.0), (4.0, 0.0)), 20.0)
        cfg = make_config(Scheme.CACC, n_followers=3, horizon=8.0, seed=8,
                          velocity_clamp=True)
        stats = assert_ensemble_matches_reference(cfg, stop, 5)
        free = monte_carlo(replace(cfg, velocity_clamp=False), stop, 5)
        assert not np.array_equal(stats.mean_errors, free.mean_errors)

    @pytest.mark.parametrize("mode", [ChannelMode.GOOD, ChannelMode.BAD])
    def test_forced_init_mode(self, mode):
        cfg = make_config(Scheme.CACC_PLUS, n_followers=3, horizon=10.0, seed=13,
                          init_mode=mode)
        assert_ensemble_matches_reference(cfg, BRAKE, 4)

    def test_divergence_raises_at_earliest_step(self):
        # negative effective damping; the radio term moves the blow-up by seed
        cfg = make_config(Scheme.CACC, n_followers=2, tau=2.0,
                          gains=Gains(3.0, 0.01, 5.0), h_w=0.01, horizon=120.0)
        steps = []
        for i in range(4):
            c = replace(cfg, master_seed=cfg.master_seed + i)
            with pytest.raises(SimulationDivergedError) as exc:
                ref.run_linear(c, BRAKE, _link_tables(c, c.grid.n_steps))
            steps.append(exc.value.step)
        assert len(set(steps)) > 1 and steps[0] != min(steps)
        with pytest.raises(SimulationDivergedError) as exc:
            monte_carlo(cfg, BRAKE, 4)
        assert exc.value.step == min(steps)


class TestBatchedRowsMatchLoneRuns:
    """A point-mass batch of more than one seed takes the Taylor action and a
    lone run the memoized step; a batched row stays within 1e-9 m of the lone
    run of its seed (measured: below 1e-11 m)."""

    def test_ensemble_rows(self):
        cfg = make_config(Scheme.CACC_PLUS, n_followers=6, horizon=14.0, seed=4)
        assert _Propagator(cfg).cacheable and not _Propagator(cfg, 5).cacheable
        stats = monte_carlo(cfg, BRAKE, 5)
        lone = [simulate(replace(cfg, master_seed=4 + i), BRAKE) for i in range(5)]
        np.testing.assert_allclose(stats.peaks, [out.peak_errors() for out in lone],
                                   rtol=0, atol=1e-9)
        np.testing.assert_allclose(stats.mean_errors,
                                   np.mean([out.errors for out in lone], axis=0),
                                   rtol=0, atol=1e-9)

    def test_suite_rows(self):
        scen = load_scenario("paper-fig8", master_seed=20201)
        cfg = replace(scen.config, grid=TimeGrid(0.01, 20.0),
                      policy=replace(scen.config.policy, h_w=scen.suite[1].headway))
        peaks = seed_peaks(cfg, scen.maneuver, 6)
        lone = np.array([simulate(replace(cfg, master_seed=20201 + i), scen.maneuver)
                         .peak_errors() for i in range(6)])
        np.testing.assert_allclose(peaks, lone, rtol=0, atol=1e-9)
        np.testing.assert_array_equal(peaks[:, -1] > peaks[:, 0], lone[:, -1] > lone[:, 0])

    def test_batched_ensemble_calls_expm_only_for_the_gamma_run(self, monkeypatch):
        # a shared memo would grow with every link pattern the batch meets
        cfg = make_config(Scheme.CACC_PLUS, n_followers=6, horizon=14.0, seed=4)
        assert cfg.n_links <= sim_mod._CACHE_LINK_LIMIT
        calls = []
        real = sim_mod.expm
        monkeypatch.setattr(sim_mod, "expm", lambda m: calls.append(1) or real(m))
        monte_carlo(cfg, BRAKE, 6)
        batched = len(calls)
        calls.clear()
        simulate_deterministic(cfg, BRAKE, pl.gamma_of(CHANNEL))
        assert batched == len(calls) == 1


class TestBooleanLinkTables:
    def test_sampled_tables_are_boolean_and_gamma_tables_float(self):
        cfg = make_config(Scheme.CACC_PLUS, n_followers=3, horizon=2.0)
        sampled = _seed_weights(cfg, 3)
        assert sampled.dtype == bool
        assert sampled.shape == (cfg.grid.n_steps, 3, cfg.n_links)
        det = _seed_weights(replace(cfg, deterministic_gamma=0.7, mu=0.6), 2)
        assert det.dtype == np.float64
        np.testing.assert_array_equal(det[:, :, :3], 0.7)
        np.testing.assert_array_equal(det[:, :, 3:], 0.6)

    @pytest.mark.parametrize("n_rows", [1, 4])
    def test_point_mass_steps_alike_on_flags_and_floats(self, n_rows):
        # n_rows = 1 takes the memoized step, 4 the Taylor action
        cfg = make_config(Scheme.CACC_PLUS, n_followers=3, horizon=14.0, seed=8)
        flags = _seed_weights(cfg, n_rows)
        for x_flags, x_floats in zip(_row_states(cfg, BRAKE, flags),
                                     _row_states(cfg, BRAKE, flags.astype(float))):
            assert x_flags.tobytes() == x_floats.tobytes()

    def test_pedal_maps_step_alike_on_flags_and_floats(self):
        scen = load_scenario("paper-fig9", master_seed=3)
        cfg = replace(scen.config, grid=TimeGrid(scen.config.grid.dt, 12.0),
                      deterministic_gamma=None, mu=None)
        flags = _seed_weights(cfg, 3)
        assert flags.dtype == bool
        for x_flags, x_floats in zip(_row_states(cfg, scen.maneuver, flags),
                                     _row_states(cfg, scen.maneuver, flags.astype(float))):
            assert x_flags.tobytes() == x_floats.tobytes()


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


def stepped_tables(cfg, n_steps):
    """Every link's reception sequence from the scalar ``channel_step`` loop."""
    from platoon_lab.channel import link_streams
    rows = []
    for li, rng in enumerate(link_streams(cfg.master_seed, cfg.n_links)):
        params = cfg.channel if li < cfg.n_followers else cfg.second_params()
        if cfg.init_mode is None:
            state = ref.ChannelState.stationary(params, rng)
        else:
            state = ref.ChannelState.in_mode(cfg.init_mode, rng)
        seq = []
        for _ in range(n_steps):
            state, s = ref.channel_step(state, params)
            seq.append(s.weight())
        rows.append(seq)
    return np.array(rows)


class TestLinkTableEquivalence:
    def test_vectorized_tables_match_channel_step(self):
        cfg = make_config(Scheme.CACC_PLUS, n_followers=3, horizon=3.0, seed=42)
        table = _link_tables(cfg, 300)
        np.testing.assert_array_equal(table, stepped_tables(cfg, 300))

    @pytest.mark.parametrize("params, init_mode", [
        (GilbertParams(0.2, 0.1, 0.2), ChannelMode.GOOD),
        (GilbertParams(0.2, 0.1, 0.2), ChannelMode.BAD),
        (GilbertParams(1.0, 0.0, 0.35), None),              # i.i.d. losses
        (GilbertParams(1.0, 0.0, 0.35), ChannelMode.GOOD),
        (GilbertParams(0.0, 0.4, 0.3), ChannelMode.BAD),    # Bad never re-entered
        (GilbertParams(0.3, 1.0, 0.5), None),               # Bad lasts one step
        (GilbertParams(0.25, 0.15, 0.0), None),             # nothing arrives in Bad
        (GilbertParams(0.25, 0.15, 1.0), ChannelMode.BAD),  # everything arrives
        (GilbertParams(0.1, 0.6, 0.4), None),               # p < q
        (GilbertParams(0.6, 0.1, 0.4), None),               # p > q
        (GilbertParams(0.1, 0.6, 0.4), ChannelMode.BAD),
        (GilbertParams(0.6, 0.1, 0.4), ChannelMode.GOOD),
    ])
    def test_scan_matches_channel_step(self, params, init_mode):
        second = GilbertParams(0.35, 0.05, 0.5)
        for seed in (3, 77):
            cfg = make_config(Scheme.CACC_PLUS, n_followers=3, seed=seed, channel=params,
                              channel_second=second, init_mode=init_mode)
            table = _link_tables(cfg, 400)
            assert table.shape == (cfg.n_links, 400)
            np.testing.assert_array_equal(table, stepped_tables(cfg, 400))


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


def assert_matches_reference(cfg, maneuver):
    """Array map engine against the scalar per-vehicle engine, within 1e-9 m."""
    out = simulate(cfg, maneuver)
    x, v, a, e = ref.run_reference(cfg, maneuver, _weight_table(cfg))
    for got, want in ((out.x, x), (out.v, v), (out.a, a), (out.errors, e)):
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-9)
    return out, (x, v, a, e)


@lru_cache(maxsize=None)
def stacked_suite(preset):
    """A map-model suite's three panels stepped as the rows of one run.

    Returns the scenario, each panel's config and the stacked outputs.
    """
    scen = load_scenario(preset)
    cfg = scen.config
    assert cfg.model == "empirical" and cfg.grid.horizon == 40.0
    lossy = (pl.gamma_of(cfg.channel), pl.gamma_of(cfg.second_params()))
    panels = [(p.headway, *((1.0, 1.0) if p.mode == "ideal" else lossy)) for p in scen.suite]
    cfgs = [replace(cfg, policy=replace(cfg.policy, h_w=hw), deterministic_gamma=g, mu=mu)
            for hw, g, mu in panels]
    return scen, cfgs, simulate_panels(cfg, scen.maneuver, panels)


class TestMapEngineMatchesReference:
    """The map engine takes its law from the closed-loop matrix; the reference
    engine writes it term by term, one vehicle at a time."""

    @pytest.mark.parametrize("preset", ["paper-fig9", "paper-fig10"])
    @pytest.mark.parametrize("panel", [0, 1, 2])
    def test_suite_panels(self, preset, panel):
        # each row of the stacked suite run against the scalar engine
        scen, cfgs, outs = stacked_suite(preset)
        x, v, a, e = ref.run_reference(cfgs[panel], scen.maneuver, _weight_table(cfgs[panel]))
        out = outs[panel]
        for got, want in ((out.x, x), (out.v, v), (out.a, a), (out.errors, e)):
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-9)

    @pytest.mark.parametrize("preset", ["paper-fig9", "paper-fig10"])
    def test_stacked_panels_equal_lone_runs(self, preset):
        scen, cfgs, outs = stacked_suite(preset)
        assert len({cfg.policy.h_w for cfg in cfgs}) > 1
        for cfg, out in zip(cfgs, outs):
            lone = simulate_deterministic(cfg, scen.maneuver, cfg.deterministic_gamma, cfg.mu)
            for got, want in ((out.x, lone.x), (out.v, lone.v), (out.a, lone.a),
                              (out.errors, lone.errors)):
                np.testing.assert_array_equal(got, want)
            assert out.config_hash == lone.config_hash

    @pytest.mark.parametrize("preset", ["paper-fig9", "paper-fig10"])
    def test_stochastic_link_table(self, preset):
        scen = load_scenario(preset, master_seed=31)
        cfg = replace(scen.config, grid=TimeGrid(0.01, 20.0), deterministic_gamma=None,
                      policy=replace(scen.config.policy, h_w=scen.suite[1].headway))
        table = _weight_table(cfg)
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
