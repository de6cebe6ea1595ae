from dataclasses import fields, replace
from functools import lru_cache

import numpy as np
import pytest
from scipy.linalg import expm

import platoon_lab.sim as sim_mod
import reference_engine as ref
from helpers import affine_maps, closed_loop, constant_velocity
from platoon_lab.channel import ChannelMode, GilbertParams
from platoon_lab.control import Gains, Scheme, SpacingPolicy
from platoon_lab.dynamics import Maneuver, TimeGrid, VehicleState
from platoon_lab.scenario import load_scenario, parse_scenario_text, preset_text
from platoon_lab.sim import (EnsembleStats, PlatoonConfig, SimulationDivergedError,
                             _collect, _link_tables, _MapStepper, _Propagator,
                             _row_states, _row_weights, _seed_configs, _weight_table,
                             empirical_string_stability, equilibrium_state,
                             link_decomposition, monte_carlo, simulate, simulate_panels)

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
            got = closed_loop(cfg, w)[0]
            want = hand_built_cacc_matrix(ka, kv, kp, 0.4, 0.6, *w)
            np.testing.assert_allclose(got, want, atol=1e-15)

    def test_all_dropped_cacc_equals_acc(self):
        cfg = make_config(Scheme.CACC)
        acc = make_config(Scheme.ACC)
        np.testing.assert_allclose(closed_loop(cfg, np.zeros(2))[0],
                                   closed_loop(acc, np.ones(2))[0], atol=1e-15)

    def test_matches_printed_cacc_plus_matrix(self):
        cfg = make_config(Scheme.CACC_PLUS)
        ka, kv, kp = 0.2, 2.5, 1.0
        for w in ((1.0, 1.0, 1.0), (1.0, 0.0, 1.0), (0.4670, 0.4670, 0.2)):
            got = closed_loop(cfg, w)[0]
            want = hand_built_cacc_plus_matrix(ka, kv, kp, 0.4, 0.6, *w)
            np.testing.assert_allclose(got, want, atol=1e-15)


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
        out = simulate(cfg, constant_velocity(25.0))
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
        det = simulate(replace(cfg, rates=(1.0, 1.0)), BRAKE)
        assert np.array_equal(stoch.errors, det.errors)

    def test_deterministic_gamma_zero_cacc_equals_acc(self):
        cfg = make_config(Scheme.CACC, n_followers=3, horizon=20.0)
        acc = make_config(Scheme.ACC, n_followers=3, horizon=20.0)
        a = simulate(replace(cfg, rates=(0.0, 0.0)), BRAKE)
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
        out = simulate(replace(cfg, rates=(1.0, 1.0)), BRAKE)
        ok, peaks = empirical_string_stability(out)
        assert ok
        assert np.all(np.diff(peaks) < 0)

    def test_ideal_cacc_well_above_threshold_monotone(self):
        # gamma=1, gains (0.2,2.5,1), h=0.7: the braking response decays from
        # vehicle 2 on, but the head pair amplifies marginally (~1.4 cm) since
        # |H|_inf = 1.16 > 1 at this headway (the exact threshold for this
        # gain set is h ~ 1.37, far above the closed-form minimum)
        cfg = make_config(Scheme.CACC, n_followers=6, h_w=0.7, horizon=40.0)
        peaks = simulate(replace(cfg, rates=(1.0, 1.0)), BRAKE).peak_errors()
        assert np.all(np.diff(peaks[1:]) < 0)
        assert 0.0 < peaks[1] - peaks[0] < 0.02

    def test_divergence_guard(self):
        # negative effective damping: blow-up must raise with the step index
        cfg = make_config(Scheme.CACC, n_followers=2, tau=2.0,
                          gains=Gains(0.0001, 0.01, 5.0), h_w=0.01, horizon=120.0)
        with pytest.raises(SimulationDivergedError):
            simulate(replace(cfg, rates=(0.0, 0.0)), BRAKE)

    def test_velocity_clamp(self):
        stop = Maneuver(((0.0, 0.0), (1.0, -9.0), (4.0, 0.0)), 20.0)
        cfg = make_config(Scheme.CACC, n_followers=2, h_w=0.6, horizon=20.0,
                          velocity_clamp=True)
        out = simulate(replace(cfg, rates=(0.467, 0.467)), stop)
        assert out.v.min() >= 0.0


def augmented_matrix(cfg, w):
    """[[A, B_lead, c], [0, 0, 0], [0, 0, 0]]: the exact ZOH carrier of one step."""
    a, c = closed_loop(cfg, w)
    n = a.shape[0]
    m = np.zeros((n + 2, n + 2))
    m[:n, :n] = a
    m[2, n] = 1.0 / cfg.tau
    m[:n, n + 1] = c
    return m


class TestEngineExactness:
    def test_propagator_taylor_matches_expm(self):
        cfg = make_config(Scheme.CACC_PLUS, n_followers=3, horizon=1.0)
        rng = np.random.default_rng(0)
        x = rng.normal(size=(3, 12))
        w = np.stack([np.ones(5), np.zeros(5), rng.integers(0, 2, 5).astype(float)])
        direct = np.empty_like(x)
        for r in range(3):
            e = expm(augmented_matrix(cfg, w[r]) * cfg.grid.dt)
            direct[r] = e[:12, :12] @ x[r] + e[:12, 12] * -3.0 + e[:12, 13]
        # a one-step table is constant, so each row takes its exponential
        once = _Propagator([cfg] * 3, w[None])
        assert once.steps is not None
        exact = once.advance(x, -3.0, w)
        np.testing.assert_allclose(exact, direct, atol=1e-12)
        # every row's weights change over this table: the Taylor action
        changing = np.stack([w, 1.0 - w])
        prop = _Propagator([cfg] * 3, changing)
        assert prop.steps is None
        taylor = prop.advance(x, -3.0, w)
        np.testing.assert_allclose(taylor, direct, atol=1e-12)
        # a row's update does not depend on the other rows of the batch
        for r in range(3):
            for batch, table, want in ((prop, changing, taylor), (once, w[None], exact)):
                lone = _Propagator([cfg], table[:, r:r + 1])
                assert (lone.steps is None) == (batch.steps is None)
                np.testing.assert_array_equal(lone.advance(x[r:r + 1], -3.0, w[r:r + 1])[0],
                                              want[r])
                np.testing.assert_array_equal(ref.advance(lone, x[r], -3.0, w[r]), want[r])

    def test_against_fine_euler_oracle(self):
        # independent integration of the same closed loop at a 100x finer step
        cfg = make_config(Scheme.CACC, n_followers=2, h_w=0.7, horizon=8.0)
        man = Maneuver(((0.0, 0.0), (1.0, -3.0), (2.0, 0.0)), 20.0)
        g = 0.467
        out = simulate(replace(cfg, rates=(g, g)), man)
        a, c = closed_loop(cfg, np.full(2, g))
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
        from platoon_lab.stability import build_error_system
        g = 0.467
        cfg = make_config(Scheme.CACC_PLUS, n_followers=6, h_w=0.6, horizon=60.0)
        out = simulate(replace(cfg, rates=(g, g)), BRAKE)
        freqs = np.fft.rfftfreq(out.errors.shape[1], 0.01) * 2 * np.pi
        t1, t2 = build_error_system(cfg.gains, cfg.tau, 0.6, Scheme.CACC_PLUS, g, g).tfs
        f = np.fft.rfft(out.errors, axis=1)
        sel = freqs < 20.0
        for i in (3, 4, 5, 6):
            lhs = f[i - 1][sel]
            rhs = (t1(1j * freqs) * f[i - 2] + t2(1j * freqs) * f[i - 3])[sel]
            assert np.linalg.norm(lhs - rhs) / np.linalg.norm(lhs) < 1e-4

        cfg_c = make_config(Scheme.CACC, n_followers=4, tau=0.37,
                            gains=Gains(0.8, 1.5, 2.0), h_w=0.6, horizon=60.0)
        out_c = simulate(replace(cfg_c, rates=(g, g)), BRAKE)
        tf = build_error_system(cfg_c.gains, cfg_c.tau, 0.6, Scheme.CACC, g, 0.0).tfs[0]
        f = np.fft.rfft(out_c.errors, axis=1)
        for i in (2, 3, 4):
            lhs = f[i - 1][sel]
            rhs = (tf(1j * freqs) * f[i - 2])[sel]
            assert np.linalg.norm(lhs - rhs) / np.linalg.norm(lhs) < 1e-6


class TestOwnExponential:
    """``sim.expm`` (the Taylor series under the action's stop rule, scaled
    and squared past an infinity norm of ``sim._THETA``) against scipy's
    Pade ``expm``, and the constant-rate runs that take it against the same
    runs stepped with scipy's."""

    @staticmethod
    def step_matrices(cfg):
        """The gamma, all-ones and all-zeros step matrices of a platoon."""
        gamma = np.full(cfg.n_links, cfg.link_rates()[0])
        gamma[cfg.n_followers:] = cfg.link_rates()[1]
        for w in (gamma, np.ones(cfg.n_links), np.zeros(cfg.n_links)):
            yield augmented_matrix(cfg, w) * cfg.grid.dt

    @pytest.mark.parametrize("preset", ["paper-fig4", "paper-fig8"])
    @pytest.mark.parametrize("large_step", [False, True], ids=["preset_dt", "dt1_tau005"])
    def test_matches_scipy(self, preset, large_step):
        # measured: 1.1e-16 of max|E| at the presets' dt, unscaled; at most
        # 1.7e-14 at dt = 1 s and tau = 0.05 s, after 8 or 9 squarings
        cfg = load_scenario(preset).config
        if large_step:
            cfg = replace(cfg, tau=0.05, grid=TimeGrid(1.0, 2.0))
        for m in self.step_matrices(cfg):
            assert (sim_mod._halvings(m) > 0) == large_step
            want = expm(m)
            bound = (1e-13 if large_step else 1e-15) * np.abs(want).max()
            assert np.abs(sim_mod.expm(m) - want).max() <= bound

    def test_overflow_is_quiet(self):
        # warnings are errors in this suite: a step matrix whose exponential
        # overflows gives a non-finite result and no numpy warning
        cfg = load_scenario("paper-fig8").config
        cfg = replace(cfg, gains=replace(cfg.gains, k_p=1e306))
        for m in self.step_matrices(cfg):
            assert not np.isfinite(sim_mod.expm(m)).all()

    def assert_near_scipy_steps(self, out, cfg, maneuver):
        want = ref.run_linear(cfg, maneuver, _weight_table(cfg), scipy_expm=True)
        for got, series in zip((out.x, out.v, out.a, out.errors), want):
            np.testing.assert_allclose(got, series, rtol=0, atol=1e-9)

    def test_gamma_run(self):
        # the gamma system of `run montecarlo` on fig4 (measured: 9.8e-12 m)
        scen = load_scenario("paper-fig4")
        cfg = replace(scen.config, rates=scen.config.link_rates())
        self.assert_near_scipy_steps(simulate(cfg, scen.maneuver), cfg, scen.maneuver)

    def test_suite_panels(self):
        # the fig8 suite's panels (measured: 4.3e-11 m, on positions of 738 m)
        scen, cfgs, outs = stacked_suite("paper-fig8")
        for cfg, out in zip(cfgs, outs):
            self.assert_near_scipy_steps(out, cfg, scen.maneuver)

    def test_deterministic_gamma_scenario(self):
        # `run simulate` on fig4 with deterministic_gamma = auto
        text = preset_text("paper-fig4").replace("[analysis]",
                                                 "[analysis]\ndeterministic_gamma = auto")
        scen = parse_scenario_text(text, master_seed=20201)
        assert scen.config.rates == scen.config.link_rates() and not scen.suite
        self.assert_near_scipy_steps(simulate(scen.config, scen.maneuver), scen.config,
                                     scen.maneuver)


class TestBlockedTaylorStep:
    """The Taylor step takes a block of terms for every row and reads each
    row's own stop off it, so each row must stay bitwise the per-term loop
    (``reference_engine.taylor_action``) and its lone run, however its stop
    compares with its batch-mates' and the previous step's."""

    CFG = make_config(Scheme.CACC_PLUS, n_followers=3, horizon=1.0)  # 5 links
    W = np.array([[1.0, 1, 1, 1, 1], [0, 0, 0, 0, 0], [1, 0, 1, 1, 0]])
    RNG = np.random.default_rng(3)
    NEAR_REST = equilibrium_state(CFG, 0.0) + 1e-6 * RNG.normal(size=(3, 12))
    MOVING = equilibrium_state(CFG, 25.0) + RNG.normal(size=(3, 12))

    def propagators(self, cfg):
        # every row's weights change over the table: the Taylor action
        table = np.stack([self.W, 1.0 - self.W])
        batch = _Propagator([cfg] * 3, table)
        lone = [_Propagator([cfg], table[:, r:r + 1]) for r in range(3)]
        assert batch.steps is None and all(p.steps is None for p in lone)
        return batch, lone

    def step(self, batch, lone, x, u_lead=0.0):
        """One step of the batch, checked row by row; the rows' stops."""
        got = batch.advance(x, u_lead, self.W)
        stops = []
        for r, prop in enumerate(lone):
            want, stop = ref.taylor_action(prop, x[r], u_lead, self.W[r])
            np.testing.assert_array_equal(got[r], want)
            np.testing.assert_array_equal(prop.advance(x[r:r + 1], u_lead, self.W[r:r + 1])[0],
                                          want)
            stops.append(stop)
        return stops

    def test_rows_stop_at_their_own_terms(self):
        batch, lone = self.propagators(self.CFG)
        x = np.stack([self.NEAR_REST[0], self.MOVING[1], self.NEAR_REST[2]])
        stops = self.step(batch, lone, x)
        assert stops[0] < stops[1] and stops[2] < stops[1]

    def test_step_that_needs_more_terms_than_the_last(self):
        batch, lone = self.propagators(self.CFG)
        calm = self.step(batch, lone, self.NEAR_REST)
        busy = self.step(batch, lone, np.stack([self.NEAR_REST[0], self.MOVING[1],
                                                self.MOVING[2]]))
        again = self.step(batch, lone, self.NEAR_REST)
        assert max(calm) < max(busy) and again == calm

    def test_rows_that_reach_the_term_cap(self):
        # a step matrix of large norm (dt = 1 s, tau = 0.05 s): the per-term
        # loop reaches term 39 unconverged, off by hundreds of times the
        # result's magnitude, so every row takes its scaled and squared
        # exponential instead, within 1e-13 of the state's magnitude of
        # scipy's, and stays bitwise its lone run
        cfg = replace(self.CFG, tau=0.05, grid=TimeGrid(1.0, 2.0))
        batch, lone = self.propagators(cfg)
        got = batch.advance(self.MOVING, -3.0, self.W)
        for r, prop in enumerate(lone):
            x = self.MOVING[r]
            e = expm(augmented_matrix(cfg, self.W[r]) * cfg.grid.dt)
            want = e[:12, :12] @ x + e[:12, 12] * -3.0 + e[:12, 13]
            capped, stop = ref.taylor_action(prop, x, -3.0, self.W[r])
            assert stop == 39 and np.abs(capped - want).max() > 100 * np.abs(want).max()
            np.testing.assert_allclose(got[r], want, rtol=0, atol=1e-13 * np.abs(x).max())
            np.testing.assert_array_equal(prop.advance(x[None], -3.0, self.W[r:r + 1])[0], got[r])

    def test_wide_and_narrow_rows_in_one_batch(self):
        # a 60 s headway lifts one row's step-matrix norm past the unscaled
        # series' range: that row takes its exponential every step, its
        # batch-mates the Taylor action, and each stays bitwise its lone run
        wide = replace(self.CFG, policy=replace(self.CFG.policy, h_w=60.0))
        rows = [self.CFG, wide, self.CFG]
        table = np.stack([self.W, 1.0 - self.W])
        batch = _Propagator(rows, table)
        assert list(batch._wide) == [1] and list(batch._narrow) == [0, 2]
        got = batch.advance(self.MOVING, -3.0, self.W)
        for r, cfg in enumerate(rows):
            lone = _Propagator([cfg], table[:, r:r + 1])
            np.testing.assert_array_equal(
                lone.advance(self.MOVING[r:r + 1], -3.0, self.W[r:r + 1])[0], got[r])
            e = expm(augmented_matrix(cfg, self.W[r]) * cfg.grid.dt)
            want = e[:12, :12] @ self.MOVING[r] + e[:12, 12] * -3.0 + e[:12, 13]
            np.testing.assert_allclose(got[r], want, rtol=0,
                                       atol=1e-13 * np.abs(self.MOVING[r]).max())


class TestMonteCarlo:
    def test_single_realization_mean_is_the_run(self):
        cfg = make_config(Scheme.CACC, n_followers=2, horizon=15.0, seed=5)
        stats = monte_carlo(cfg, BRAKE, 1)
        single = simulate(make_config(Scheme.CACC, n_followers=2, horizon=15.0, seed=5), BRAKE)
        np.testing.assert_array_equal(stats.mean_errors, single.errors)
        np.testing.assert_array_equal(stats.peaks[0], single.peak_errors())

    def test_mean_converges_to_gamma_system_for_cacc(self):
        cfg = make_config(Scheme.CACC, n_followers=3, h_w=0.7, horizon=25.0, seed=777)
        det = simulate(replace(cfg, rates=cfg.link_rates()), BRAKE)
        gaps = {}
        for n in (10, 80):
            stats = monte_carlo(cfg, BRAKE, n)
            gaps[n] = np.abs(stats.mean_errors - det.errors).max()
        assert gaps[80] < gaps[10]

    def test_map_model_ensemble_matches_per_seed_runs(self):
        scen = load_scenario("paper-fig9", master_seed=17)
        cfg = replace(scen.config, grid=TimeGrid(0.01, 4.0), rates=None)
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

    @pytest.mark.parametrize("preset", ["paper-fig8", "paper-fig9"])  # point mass, maps
    def test_headway_ensembles_in_one_batch_are_their_own_calls(self, preset):
        # a suite's lossy panels run their seeds as the rows of one batch
        scen = load_scenario(preset, master_seed=31)
        cfg = replace(scen.config, grid=TimeGrid(0.01, 14.0), rates=None)
        batched = monte_carlo(cfg, scen.maneuver, 3, headways=[0.45, 0.6, 0.45])
        assert len(batched) == 3
        for stats, hw in zip(batched, [0.45, 0.6, 0.45]):
            lone = monte_carlo(replace(cfg, policy=replace(cfg.policy, h_w=hw)), scen.maneuver, 3)
            for field in fields(EnsembleStats):
                np.testing.assert_array_equal(getattr(stats, field.name),
                                              getattr(lone, field.name))
        assert not np.array_equal(batched[0].peaks, batched[1].peaks)


def assert_ensemble_matches_reference(cfg, maneuver, n_realizations):
    """Batched ensemble and its gamma system against the per-seed loop, bit for bit."""
    stats = monte_carlo(cfg, maneuver, n_realizations)
    mean, peaks, mean_peaks, det_peaks = ref.monte_carlo(cfg, maneuver, n_realizations)
    np.testing.assert_array_equal(stats.mean_errors, mean)
    np.testing.assert_array_equal(stats.peaks, peaks)
    np.testing.assert_array_equal(stats.mean_trajectory_peaks, mean_peaks)
    det = simulate(replace(cfg, rates=cfg.link_rates()), maneuver)
    np.testing.assert_array_equal(det.peak_errors(), det_peaks)
    return stats


class TestBatchedEnsembleMatchesReference:
    """monte_carlo steps every realization in one loop; the reference engine
    runs them one seed at a time with the scalar propagator actions."""

    @pytest.mark.parametrize("n_followers", [3, 7])
    @pytest.mark.parametrize("gamma", [None, 0.467])
    def test_single_run_matches_reference(self, n_followers, gamma):
        cfg = make_config(Scheme.CACC_PLUS, n_followers=n_followers, horizon=12.0,
                          seed=2, rates=None if gamma is None else (gamma, gamma))
        out = simulate(cfg, BRAKE)
        for got, want in zip((out.x, out.v, out.a, out.errors),
                             ref.run_linear(cfg, BRAKE, _weight_table(cfg))):
            np.testing.assert_array_equal(got, want)

    def test_taylor_path(self):
        cfg = make_config(Scheme.CACC_PLUS, n_followers=7, horizon=12.0, seed=21)
        assert_ensemble_matches_reference(cfg, BRAKE, 5)

    @pytest.mark.parametrize("n_followers", [2, 6])
    def test_one_predecessor_platoon(self, n_followers):
        cfg = make_config(Scheme.CACC, n_followers=n_followers, horizon=14.0, seed=4)
        assert_ensemble_matches_reference(cfg, BRAKE, 6)

    @pytest.mark.parametrize("scheme, channel", [
        (Scheme.ACC, CHANNEL),                             # no link reaches the matrix
        (Scheme.CACC_PLUS, GilbertParams(0.3, 0.2, 1.0)),  # every packet arrives
    ], ids=["acc", "lossless"])
    def test_constant_tables_take_the_exponential(self, scheme, channel):
        cfg = make_config(scheme, n_followers=4, horizon=12.0, seed=5, channel=channel)
        rows = _seed_configs(cfg, 4)
        assert _Propagator(rows, _row_weights(rows)).steps is not None
        assert_ensemble_matches_reference(cfg, BRAKE, 4)

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


def count_expm(monkeypatch):
    calls = []
    real = sim_mod.expm
    monkeypatch.setattr(sim_mod, "expm", lambda m: calls.append(1) or real(m))
    return calls


class TestBatchedRowsMatchLoneRuns:
    """A sampled point-mass batch and the sampled lone run of each of its
    seeds take the same Taylor action, so every batched row is bitwise the
    lone run of its seed, on any number of links."""

    def test_ensemble_rows(self):
        for n_followers in (6, 7):  # 11 and 13 links
            cfg = make_config(Scheme.CACC_PLUS, n_followers=n_followers, horizon=14.0, seed=4)
            stats = monte_carlo(cfg, BRAKE, 5)
            lone = [simulate(replace(cfg, master_seed=4 + i), BRAKE) for i in range(5)]
            np.testing.assert_array_equal(stats.peaks, [out.peak_errors() for out in lone])
            # the ensemble mean sums the rows in seed order, then divides
            np.testing.assert_array_equal(stats.mean_errors,
                                          sum(out.errors for out in lone) / 5)

    def test_suite_rows(self):
        scen = load_scenario("paper-fig8", master_seed=20201)
        cfg = replace(scen.config, grid=TimeGrid(0.01, 20.0),
                      policy=replace(scen.config.policy, h_w=scen.suite[1].headway))
        peaks = monte_carlo(cfg, scen.maneuver, 6).peaks
        lone = np.array([simulate(replace(cfg, master_seed=20201 + i), scen.maneuver)
                         .peak_errors() for i in range(6)])
        np.testing.assert_array_equal(peaks, lone)

    def test_batched_ensemble_calls_expm_only_for_the_gamma_run(self, monkeypatch):
        # the ensemble of `run montecarlo` and then its gamma system
        calls = count_expm(monkeypatch)
        for n_followers in (6, 7):  # 11 and 13 links
            cfg = make_config(Scheme.CACC_PLUS, n_followers=n_followers, horizon=14.0, seed=4)
            calls.clear()
            monte_carlo(cfg, BRAKE, 6)
            assert calls == []
            simulate(replace(cfg, rates=cfg.link_rates()), BRAKE)
            assert len(calls) == 1


class TestStepRule:
    """A run takes each row's exponential once when no row's weights on the
    links that reach its matrix change over the run, and the Taylor action
    otherwise: the step follows from the weights, whatever the link count."""

    WIDE = make_config(Scheme.CACC_PLUS, n_followers=7, horizon=14.0, seed=4)  # 13 links
    LOSSLESS = GilbertParams(0.3, 0.2, 1.0)

    def test_gamma_run_calls_expm_once_per_row(self, monkeypatch):
        calls = count_expm(monkeypatch)
        simulate(replace(self.WIDE, rates=(0.467, 0.6)), BRAKE)
        assert len(calls) == 1
        calls.clear()
        simulate_panels(self.WIDE, BRAKE, [(0.6, 1.0, 1.0), (0.6, 0.467, 0.6), (0.8, 0.467, 0.6)])
        assert len(calls) == 3

    @pytest.mark.parametrize("n_followers", [2, 7])  # 3 and 13 links
    def test_sampled_run_never_calls_expm(self, monkeypatch, n_followers):
        cfg = replace(self.WIDE, n_followers=n_followers)
        calls = count_expm(monkeypatch)
        simulate(cfg, BRAKE)
        monte_carlo(cfg, BRAKE, 3)
        assert calls == []

    @pytest.mark.parametrize("scheme, channel", [(Scheme.CACC_PLUS, LOSSLESS),
                                                 (Scheme.ACC, CHANNEL)], ids=["lossless", "acc"])
    def test_constant_sampled_table_calls_expm_once_per_row(self, monkeypatch, scheme, channel):
        # every packet arrives, or no link reaches the matrix (ACC)
        cfg = replace(self.WIDE, scheme=scheme, channel=channel)
        calls = count_expm(monkeypatch)
        simulate(cfg, BRAKE)
        assert len(calls) == 1
        calls.clear()
        monte_carlo(cfg, BRAKE, 3)
        assert len(calls) == 3

    def test_constant_row_in_a_sampled_batch_stays_near_its_lone_run(self):
        # the one row that is not bitwise its lone run: its table is constant
        # and the batch's is not, so it takes the Taylor action where its lone
        # run takes the exponential (measured gap: 5.3e-12 m)
        gamma = replace(self.WIDE, rates=(0.467, 0.6))
        rows = [gamma, self.WIDE]
        det, sampled = _collect(rows, _row_states(rows, BRAKE, _row_weights(rows)))
        lone = simulate(gamma, BRAKE)
        for got, want in ((det.x, lone.x), (det.v, lone.v), (det.a, lone.a),
                          (det.errors, lone.errors)):
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-9)
        np.testing.assert_array_equal(sampled.x, simulate(self.WIDE, BRAKE).x)


class TestBooleanLinkTables:
    def test_sampled_tables_are_boolean_and_gamma_tables_float(self):
        cfg = make_config(Scheme.CACC_PLUS, n_followers=3, horizon=2.0)
        sampled = _row_weights(_seed_configs(cfg, 3))
        assert sampled.dtype == bool
        assert sampled.shape == (cfg.grid.n_steps, 3, cfg.n_links)
        det = _row_weights(_seed_configs(replace(cfg, rates=(0.7, 0.6)), 2))
        assert det.dtype == np.float64
        np.testing.assert_array_equal(det[:, :, :3], 0.7)
        np.testing.assert_array_equal(det[:, :, 3:], 0.6)

    @pytest.mark.parametrize("n_rows", [1, 4])
    def test_point_mass_steps_alike_on_flags_and_floats(self, n_rows):
        cfg = make_config(Scheme.CACC_PLUS, n_followers=3, horizon=14.0, seed=8)
        rows = _seed_configs(cfg, n_rows)
        flags = _row_weights(rows)
        for x_flags, x_floats in zip(_row_states(rows, BRAKE, flags),
                                     _row_states(rows, BRAKE, flags.astype(float))):
            assert x_flags.tobytes() == x_floats.tobytes()

    def test_pedal_maps_step_alike_on_flags_and_floats(self):
        scen = load_scenario("paper-fig9", master_seed=3)
        cfg = replace(scen.config, grid=TimeGrid(scen.config.grid.dt, 12.0),
                      rates=None)
        rows = _seed_configs(cfg, 3)
        flags = _row_weights(rows)
        assert flags.dtype == bool
        for x_flags, x_floats in zip(_row_states(rows, scen.maneuver, flags),
                                     _row_states(rows, scen.maneuver, flags.astype(float))):
            assert x_flags.tobytes() == x_floats.tobytes()


class TestEmpiricalStringStability:
    def test_all_zero_errors_stable(self):
        cfg = make_config(Scheme.CACC, n_followers=3, horizon=5.0)
        out = simulate(cfg, constant_velocity(25.0))
        ok, peaks = empirical_string_stability(out)
        assert ok
        np.testing.assert_array_equal(peaks, np.zeros(3))

    def test_growing_synthetic_peaks_rejected(self):
        cfg = make_config(Scheme.CACC, n_followers=3, horizon=1.0)
        out = simulate(cfg, constant_velocity(25.0))
        out.errors = np.array([[0.0, 1.0], [0.0, 2.0], [0.0, 3.0]])
        ok, peaks = empirical_string_stability(out)
        assert not ok
        np.testing.assert_allclose(peaks, [1.0, 2.0, 3.0])

    def test_needs_two_followers(self):
        cfg = make_config(Scheme.CACC, n_followers=1, horizon=1.0)
        out = simulate(cfg, constant_velocity(25.0))
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
        # every follower's row of A(w) X + c(w) is its scalar law written
        # term by term, (u - a_i) / tau, under the weights of its links;
        # the lead's rows are the bare lag chain
        rng = np.random.default_rng(12)
        gains, policy, n_f = cfg.gains, cfg.policy, cfg.n_followers
        for w in (rng.uniform(size=cfg.n_links), rng.integers(0, 2, cfg.n_links).astype(float)):
            a, c = a0 + np.tensordot(w, da, axes=1), c0 + w @ dc
            for _ in range(5):
                x = rng.normal(scale=3.0, size=a0.shape[0])
                rates = a @ x + c
                veh = [VehicleState(*x[3 * i:3 * i + 3]) for i in range(n_f + 1)]
                for i in range(1, n_f + 1):
                    if scheme is Scheme.ACC:
                        u = ref.acc_input(veh[i], veh[i - 1], gains, policy)
                    elif scheme is Scheme.CACC:
                        u = ref.cacc_input(veh[i], veh[i - 1], w[i - 1], gains, policy)
                    elif i == 1:
                        u = ref.first_follower_input(veh[1], veh[0], w[0], gains, policy)
                    else:
                        u = ref.cacc_plus_input(veh[i], veh[i - 1], veh[i - 2], w[i - 1],
                                                w[n_f + i - 2], gains, policy)
                    np.testing.assert_allclose(rates[3 * i + 2], (u - veh[i].a) / cfg.tau,
                                               rtol=1e-12, atol=0)
                np.testing.assert_array_equal(rates[0::3], x[1::3])
                np.testing.assert_array_equal(rates[1::3], x[2::3])
                np.testing.assert_allclose(rates[2], -x[2] / cfg.tau, rtol=1e-12, atol=0)
        # both steppers patch each entry of a row's law in place from the one
        # link it depends on: bitwise the sum over all links, two headways
        # in one batch, under fractional and binary weights
        for n_followers in (2, 3, 10):
            cfg = replace(cfg, n_followers=n_followers)
            rows = [cfg, replace(cfg, policy=replace(cfg.policy, h_w=1.3))]
            n, dt, tau = 3 * (n_followers + 1), cfg.grid.dt, cfg.tau
            for w in (rng.uniform(size=(2, cfg.n_links)),
                      rng.integers(0, 2, (2, cfg.n_links)).astype(float)):
                table = np.stack([w, 1.0 - w])  # changing weights: patched every step
                aug = _Propagator(rows, table)._law.at(w)
                accel = _MapStepper(rows, table)._law.at(w)
                for r, row in enumerate(rows):
                    a0, da, c0, dc = link_decomposition(row)
                    np.testing.assert_array_equal(
                        aug[r, :n, :n], a0 * dt + np.tensordot(w[r], da * dt, axes=1))
                    np.testing.assert_array_equal(aug[r, :n, n + 1],
                                                  c0 * dt + w[r] @ (dc * dt))
                    np.testing.assert_array_equal(
                        accel[r, :, :n],
                        tau * a0[2::3] + np.tensordot(w[r], tau * da[:, 2::3], axes=1))
                    np.testing.assert_array_equal(accel[r, :, n], (c0 + w[r] @ dc)[2::3])

    @pytest.mark.parametrize("preset, h_w", [("paper-fig4", 0.45), ("paper-fig8", 0.45),
                                             ("paper-fig8", 0.6), ("paper-fig9", 0.45),
                                             ("paper-fig9", 0.6), ("paper-fig10", 0.3),
                                             ("paper-fig10", 0.4)])
    def test_coefficients_are_the_printed_ones(self, preset, h_w):
        # each coefficient is written as printed, not recovered from A(w)
        # by differencing: that subtraction once rounded 5 entries of da and
        # 5 of dc at fig10's gains, by up to 1.8e-15 and 7.1e-15
        cfg = load_scenario(preset).config
        cfg = replace(cfg, policy=replace(cfg.policy, h_w=h_w))
        tau, d, g = cfg.tau, cfg.policy.d, cfg.gains
        ka, kv, kp = g.k_a, g.k_v, g.k_p
        n_f, n = cfg.n_followers, 3 * (cfg.n_followers + 1)
        a0, da, c0, dc = link_decomposition(cfg)
        want_a0, want_c0 = np.zeros((n, n)), np.zeros(n)
        want_da, want_dc = np.zeros_like(da), np.zeros_like(dc)
        for i in range(n_f + 1):
            want_a0[3 * i, 3 * i + 1] = want_a0[3 * i + 1, 3 * i + 2] = 1.0
            want_a0[3 * i + 2, 3 * i + 2] = -1.0 / tau
        for i in range(1, n_f + 1):
            r, p = 3 * i + 2, 3 * (i - 1)
            want_a0[r, p], want_a0[r, p + 1] = kp / tau, kv / tau
            want_a0[r, 3 * i], want_a0[r, 3 * i + 1] = -kp / tau, -(kv + kp * h_w) / tau
            want_c0[r] = -kp * d / tau
            if cfg.scheme is not Scheme.ACC:
                want_da[i - 1, r, p + 2] = ka / tau
            if cfg.scheme is Scheme.CACC_PLUS and i >= 2:
                link, q = n_f + i - 2, 3 * (i - 2)
                want_da[link, r, q], want_da[link, r, q + 1] = kp / tau, kv / tau
                want_da[link, r, q + 2] = ka / tau
                want_da[link, r, 3 * i] = -kp / tau
                want_da[link, r, 3 * i + 1] = -(kv + 2 * kp * h_w) / tau
                want_dc[link, r] = -kp * 2 * d / tau
        for got, want in ((a0, want_a0), (da, want_da), (c0, want_c0), (dc, want_dc)):
            np.testing.assert_array_equal(got, want)


def assert_matches_reference(cfg, maneuver):
    """Array map engine against the scalar per-vehicle engine, within 1e-9 m."""
    out = simulate(cfg, maneuver)
    x, v, a, e = ref.run_reference(cfg, maneuver, _weight_table(cfg))
    for got, want in ((out.x, x), (out.v, v), (out.a, a), (out.errors, e)):
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-9)
    return out, (x, v, a, e)


@lru_cache(maxsize=None)
def stacked_suite(preset):
    """A suite's three panels stepped as the rows of one run.

    Returns the scenario, each panel's config and the stacked outputs.
    """
    scen = load_scenario(preset)
    cfg = scen.config
    assert cfg.grid.horizon == 40.0
    lossy = cfg.link_rates()
    panels = [(p.headway, *((1.0, 1.0) if p.mode == "ideal" else lossy)) for p in scen.suite]
    cfgs = [replace(cfg, policy=replace(cfg.policy, h_w=hw), rates=(g, mu))
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

    @pytest.mark.parametrize("preset", ["paper-fig8", "paper-fig9", "paper-fig10"])
    def test_stacked_panels_equal_lone_runs(self, preset):
        scen, cfgs, outs = stacked_suite(preset)
        assert len({cfg.policy.h_w for cfg in cfgs}) > 1
        for cfg, out in zip(cfgs, outs):
            lone = simulate(cfg, scen.maneuver)
            for got, want in ((out.x, lone.x), (out.v, lone.v), (out.a, lone.a),
                              (out.errors, lone.errors)):
                np.testing.assert_array_equal(got, want)

    def test_fixed_law_taken_once_and_bitwise(self):
        # a constant table (the suite's panels) or links that never reach the
        # law (ACC) fix every row's law at the start; a sampled CACC+ (fig10) table not
        scen = load_scenario("paper-fig10")
        cfg = replace(scen.config, grid=TimeGrid(0.01, 2.0))
        fixed = [replace(cfg, rates=(1.0, 1.0)),
                 replace(cfg, policy=replace(cfg.policy, h_w=0.6), rates=(0.467, 0.3))]
        sampled = _seed_configs(replace(cfg, rates=None), 2)
        acc = _seed_configs(replace(cfg, rates=None, scheme=Scheme.ACC), 2)
        rng = np.random.default_rng(5)
        x = np.stack([equilibrium_state(c, 20.0) for c in fixed]) + rng.normal(size=(2, 21))
        for rows, once in ((fixed, True), (sampled, False), (acc, True)):
            weights = _row_weights(rows)
            # one decision for both steppers; the point mass takes its
            # exponentials once under it
            prop, stepper = _Propagator(rows, weights), _MapStepper(rows, weights)
            assert prop._law.fixed == stepper._law.fixed == once
            assert (prop.steps is not None) == (stepper._fixed is not None) == once
            each_step = _MapStepper(rows, weights)
            each_step._fixed = None
            for k in range(3):
                np.testing.assert_array_equal(stepper.advance(x, -2.0, weights[k]),
                                              each_step.advance(x, -2.0, weights[k]))

    @pytest.mark.parametrize("preset", ["paper-fig9", "paper-fig10"])
    def test_stochastic_link_table(self, preset):
        scen = load_scenario(preset, master_seed=31)
        cfg = replace(scen.config, grid=TimeGrid(0.01, 20.0), rates=None,
                      policy=replace(scen.config.policy, h_w=scen.suite[1].headway))
        table = _weight_table(cfg)
        assert 0.0 < table.mean() < 1.0
        assert_matches_reference(cfg, scen.maneuver)

    def test_acc_platoon(self):
        scen = load_scenario("paper-fig9")
        cfg = replace(scen.config, scheme=Scheme.ACC, grid=TimeGrid(0.01, 20.0),
                      policy=replace(scen.config.policy, h_w=1.0), rates=None)
        assert_matches_reference(cfg, scen.maneuver)

    def test_command_and_velocity_clamps(self):
        scen = load_scenario("paper-fig9")
        stop = Maneuver(((0.0, 0.0), (1.0, -9.0), (3.0, 0.0)), 6.0)
        cfg = replace(scen.config, grid=TimeGrid(0.01, 8.0), rates=(0.5, 0.5),
                      velocity_clamp=True, u_clamp=(-4.0, 2.0))
        out, _ = assert_matches_reference(cfg, stop)
        free = simulate(replace(cfg, velocity_clamp=False, u_clamp=None), stop)
        # both clamps engage: without them speeds go negative and the
        # followers command more than 4 m/s^2 of braking
        assert free.v.min() < -1.0 and out.v.min() == 0.0
        assert free.a[1:].min() < -5.0 and out.a[1:].min() >= -4.0 - 1e-9
        assert out.a[0].min() < -8.0  # the lead's maneuver is not clamped


class TestMapEngineIsItsLinearRecursion:
    """Under maps that never clamp (authority +-100 m/s^2) the map engine is
    the exact linear recursion x_{k+1} = M x_k + f + b u_lead of
    ``reference_engine.run_map_recursion``: equal to rounding (measured
    3.2e-12 to 1.9e-11 m over these 20 s runs), held within 1e-9 m."""

    @pytest.mark.parametrize("weights", ["gamma", "sampled"])
    @pytest.mark.parametrize("scheme", list(Scheme))
    @pytest.mark.parametrize("preset", ["paper-fig4", "paper-fig8", "paper-fig9",
                                        "paper-fig10"])
    def test_equals_recursion(self, preset, scheme, weights):
        scen = load_scenario(preset, master_seed=20201)
        thr, brk = affine_maps(slope=200.0, offset=-100.0)
        cfg = replace(scen.config, scheme=scheme, grid=TimeGrid(0.01, 20.0),
                      model="empirical", throttle_map=thr, brake_map=brk)
        cfg = replace(cfg, rates=cfg.link_rates() if weights == "gamma" else None)
        table = _weight_table(cfg)
        if weights == "sampled":
            assert 0.0 < table.mean() < 1.0  # one M per step
        out = simulate(cfg, scen.maneuver)
        x, v, a, e = ref.run_map_recursion(cfg, scen.maneuver, table)
        for got, want in ((out.x, x), (out.v, v), (out.a, a), (out.errors, e)):
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-9)


class TestEnginesConverge:
    """The two engines model different controllers: the point-mass feedback
    acts continuously, the map engine holds each command over the step.
    Under maps that never clamp (authority +-100 m/s^2), the gap between them
    on a preset's gamma system is first order in dt: each halving of the step
    halves it (measured ratios 2.02-2.10; fig4 0.0635 -> 0.0302 -> 0.0148 m)."""

    @pytest.mark.parametrize("preset", ["paper-fig4", "paper-fig8", "paper-fig9",
                                        "paper-fig10"])
    def test_gap_halves_with_the_step(self, preset):
        scen = load_scenario(preset)
        thr, brk = affine_maps(slope=200.0, offset=-100.0)
        gamma = replace(scen.config, rates=scen.config.link_rates())
        gaps = []
        for dt in (0.01, 0.005, 0.0025):
            grid = TimeGrid(dt, 30.0)
            point_mass = replace(gamma, grid=grid, model="point_mass",
                                 throttle_map=None, brake_map=None)
            maps = replace(point_mass, model="empirical", throttle_map=thr, brake_map=brk)
            e_pm = simulate(point_mass, scen.maneuver).errors
            e_map = simulate(maps, scen.maneuver).errors
            gaps.append(float(np.abs(e_map - e_pm).max()))
        assert 0.0 < gaps[-1] < gaps[0] < 0.1, gaps
        for coarse, fine in zip(gaps, gaps[1:]):
            assert 1.8 <= coarse / fine <= 2.2, gaps


class TestOneDivergenceRule:
    """Both engines step through one driver, which checks x, v and a after
    every step, idle lead-in steps included, and reports the first diverging
    row's magnitude."""

    @pytest.mark.parametrize("preset", ["paper-fig8", "paper-fig9"])  # point mass, maps
    def test_far_start_diverges_at_step_zero(self, preset):
        scen = load_scenario(preset)
        far = replace(scen.maneuver, initial_velocity=1e6)
        cfg = replace(scen.config, policy=replace(scen.config.policy, h_w=0.45),
                      rates=(1.0, 1.0))
        # the last follower starts 6 (d + h v0) behind the lead, then moves v0 dt
        last = abs(equilibrium_state(cfg, 1e6)[-3] + 1e6 * cfg.grid.dt)
        assert last > 1e6 and cfg.n_followers == 6
        with pytest.raises(SimulationDivergedError) as exc:
            simulate(cfg, far)
        assert (exc.value.step, exc.value.value) == (0, last)
        assert str(exc.value) == "state magnitude 2.690e+06 exceeded 1e+06 at step 0"
        # the stacked panels report the first row's magnitude, not the largest
        with pytest.raises(SimulationDivergedError) as exc:
            simulate_panels(cfg, far, [(0.45, 1.0, 1.0), (0.6, 1.0, 1.0)])
        assert (exc.value.step, exc.value.value) == (0, last)

    @pytest.mark.parametrize("preset", ["paper-fig8", "paper-fig9"])
    def test_overflowed_law_is_a_non_finite_divergence(self, preset):
        # every coefficient of the law is finite, but the state it drives
        # overflows and the law then reads inf * 0: a NaN command or state
        scen = load_scenario(preset)
        cfg = replace(scen.config, gains=replace(scen.config.gains, k_p=1e306),
                      rates=(1.0, 1.0))
        with pytest.raises(SimulationDivergedError) as exc:
            simulate(cfg, scen.maneuver)
        assert np.isnan(exc.value.value)
        assert str(exc.value) == f"state became non-finite at step {exc.value.step}"
