import numpy as np
import pytest

import reference_engine as ref
from helpers import affine_maps, write_map_csv
from platoon_lab.dynamics import VehicleState, step_lag
from platoon_lab.maps import (MapFormatError, PedalMap, actuate, interp, invert,
                              step_empirical, synthetic_brake_map, synthetic_throttle_map)


def bilinear_exact_map():
    # f(p, v) = 2 p - 0.01 v is reproduced exactly by bilinear interpolation
    pedal = (0.0, 0.3, 0.7, 1.0)
    vel = (0.0, 10.0, 25.0, 35.0)
    grid = tuple(tuple(2.0 * p - 0.01 * v for v in vel) for p in pedal)
    return PedalMap(pedal, vel, grid)


class TestPedalMap:
    def test_axis_validation(self):
        with pytest.raises(MapFormatError):
            PedalMap((0.0, 0.0, 1.0), (0.0, 1.0), ((0.0, 0.0),) * 3)
        with pytest.raises(MapFormatError):
            PedalMap((0.0, 1.0), (0.0,), ((0.0,), (0.0,)))
        with pytest.raises(MapFormatError):
            PedalMap((0.0, 1.0), (0.0, 1.0), ((0.0, 0.0),))

    @pytest.mark.parametrize("pedal, velocity, grid", [
        ((0.0, 1.0), (0.0, float("nan"), 35.0), ((0.0, 0.0, 0.0), (1.0, 1.0, 1.0))),
        ((0.0, float("inf")), (0.0, 35.0), ((0.0, 0.0), (1.0, 1.0))),
        ((0.0, 1.0), (0.0, 35.0), ((0.0, 0.0), (1.0, float("inf")))),
        ((0.0, 1.0), (0.0, 35.0), ((-float("inf"), 0.0), (1.0, 1.0))),
    ], ids=["nan_velocity", "inf_pedal", "inf_cell", "minus_inf_cell"])
    def test_non_finite_values_rejected(self, pedal, velocity, grid):
        # NaN passes "strictly ascending" (every comparison is False) and an
        # infinite cell passes "strictly monotone"
        with pytest.raises(MapFormatError, match="finite"):
            PedalMap(pedal, velocity, grid)

    def test_csv_roundtrip(self, tmp_path):
        m = synthetic_throttle_map()
        path = tmp_path / "throttle.csv"
        write_map_csv(m, path)
        back = PedalMap.from_csv_text(path.read_text(encoding="utf-8"))
        assert back.pedal == m.pedal
        assert back.velocity == m.velocity
        np.testing.assert_array_equal(back.grid(), m.grid())

    def test_csv_header_checked(self):
        with pytest.raises(MapFormatError):
            PedalMap.from_csv_text("speed,0,10\n0,1,1\n1,2,2\n")
        with pytest.raises(MapFormatError):
            PedalMap.from_csv_text("pedal,0,ten\n0,1,1\n1,2,2\n")

    def test_csv_columns_must_be_monotone_in_one_direction(self):
        ok = PedalMap.from_csv_text("pedal,0,10\n0,3,2\n1,-1,-2\n")  # falling, like a brake
        assert ok.accel == ((3.0, 2.0), (-1.0, -2.0))
        with pytest.raises(MapFormatError, match="monotone"):
            PedalMap.from_csv_text("pedal,0,10\n0,0,0\n0.5,1,1\n1,0.5,0.5\n")
        with pytest.raises(MapFormatError, match="monotone"):
            PedalMap.from_csv_text("pedal,0,10\n0,0,0\n1,0,1\n")  # flat column
        # each column strictly monotone, but one rises and one falls: the
        # interpolated slice in between is flat and cannot be inverted
        with pytest.raises(MapFormatError, match="same direction"):
            PedalMap.from_csv_text("pedal,0,10\n0,0,1\n1,1,0\n")
        # the check holds for maps built in code too, not only for CSV files
        with pytest.raises(MapFormatError, match="same direction"):
            PedalMap((0.0, 1.0), (0.0, 10.0), ((0.0, 1.0), (1.0, 0.0)))

    def test_arrays_are_read_only(self):
        m = synthetic_throttle_map()
        with pytest.raises(ValueError):
            m.grid()[0, 0] = 1.0
        with pytest.raises(ValueError):
            m.axes()[0][0] = 1.0


class TestInterp:
    def test_node_values_exact(self):
        m = synthetic_brake_map()
        for i, p in enumerate(m.pedal):
            for j, v in enumerate(m.velocity):
                assert interp(m, p, v) == pytest.approx(m.accel[i][j], abs=1e-14)

    def test_reproduces_bilinear_function(self):
        m = bilinear_exact_map()
        rng = np.random.default_rng(5)
        for _ in range(200):
            p, v = rng.uniform(0, 1), rng.uniform(0, 35)
            assert interp(m, p, v) == pytest.approx(2.0 * p - 0.01 * v, abs=1e-12)

    def test_out_of_range_clamps(self):
        m = bilinear_exact_map()
        assert interp(m, 1.5, 10.0) == interp(m, 1.0, 10.0)
        assert interp(m, -0.2, 10.0) == interp(m, 0.0, 10.0)
        assert interp(m, 0.5, 99.0) == interp(m, 0.5, 35.0)

    def test_array_matches_scalar(self):
        rng = np.random.default_rng(9)
        p, v = rng.uniform(-0.2, 1.2, 500), rng.uniform(-5.0, 40.0, 500)
        for m in (synthetic_throttle_map(), synthetic_brake_map(), bilinear_exact_map()):
            arr = interp(m, p, v)
            assert arr.shape == (500,)
            scalar = np.array([interp(m, a, b) for a, b in zip(p, v)])
            oracle = np.array([ref.interp(m, a, b) for a, b in zip(p, v)])
            np.testing.assert_array_equal(arr, scalar)
            np.testing.assert_array_equal(arr, oracle)
            # a scalar against an array broadcasts, either way round
            np.testing.assert_array_equal(interp(m, 0.5, v), [interp(m, 0.5, b) for b in v])
            np.testing.assert_array_equal(interp(m, p, 20.0), [interp(m, a, 20.0) for a in p])

    def test_continuity_across_cell_boundaries(self):
        m = synthetic_throttle_map()
        rng = np.random.default_rng(6)
        eps = 1e-11
        for _ in range(10 ** 4):
            p_node = m.pedal[rng.integers(1, len(m.pedal) - 1)]
            v = rng.uniform(0, 35)
            jump = abs(interp(m, p_node - eps, v) - interp(m, p_node + eps, v))
            assert jump < 1e-9
            v_node = m.velocity[rng.integers(1, len(m.velocity) - 1)]
            p = rng.uniform(0, 1)
            jump = abs(interp(m, p, v_node - eps) - interp(m, p, v_node + eps))
            assert jump < 1e-9


class TestInvert:
    def test_roundtrip_within_range(self):
        for m in (synthetic_throttle_map(), synthetic_brake_map()):
            rng = np.random.default_rng(7)
            for _ in range(300):
                v = rng.uniform(0, 35)
                lo = interp(m, 0.0, v)
                hi = interp(m, 1.0, v)
                a, b = min(lo, hi), max(lo, hi)
                target = rng.uniform(a, b)
                pedal = invert(m, target, v)
                assert interp(m, pedal, v) == pytest.approx(target, abs=1e-9)

    def test_clamps_outside_authority(self):
        m = synthetic_throttle_map()
        assert invert(m, 99.0, 10.0) == m.pedal[-1]
        assert invert(m, -99.0, 10.0) == m.pedal[0]

    def test_non_monotone_slice_rejected(self):
        # such a map cannot be built, so no slice of any map is non-monotone
        with pytest.raises(MapFormatError, match="monotone"):
            PedalMap((0.0, 0.5, 1.0), (0.0, 10.0), ((0.0, 0.0), (1.0, 1.0), (0.5, 0.5)))

    def test_array_matches_scalar(self):
        rng = np.random.default_rng(10)
        a, v = rng.uniform(-12.0, 6.0, 500), rng.uniform(-5.0, 40.0, 500)
        for m in (synthetic_throttle_map(), synthetic_brake_map()):
            arr = invert(m, a, v)
            assert arr.shape == (500,)
            scalar = np.array([invert(m, x, y) for x, y in zip(a, v)])
            oracle = np.array([ref.invert(m, x, y) for x, y in zip(a, v)])
            np.testing.assert_array_equal(arr, scalar)
            np.testing.assert_array_equal(arr, oracle)
            np.testing.assert_array_equal(invert(m, 1.0, v), [invert(m, 1.0, b) for b in v])
            np.testing.assert_array_equal(invert(m, a, 20.0), [invert(m, x, 20.0) for x in a])

    def test_array_non_monotone_slice_rejected(self):
        # one column falls where the others rise: rejected when the map is
        # built, before any lookup could reach the flat slice near v = 18
        with pytest.raises(MapFormatError, match="monotone"):
            PedalMap((0.0, 0.5, 1.0), (0.0, 10.0, 20.0),
                     ((0.0, 0.0, 0.0), (1.0, 1.0, 1.0), (2.0, 2.0, 0.5)))


def csv_pair_on_different_grids():
    """A CSV-loaded throttle (rising) and brake (falling) on different speed axes."""
    throttle = PedalMap.from_csv_text(
        "pedal,0,12,30\n0,-0.1,-0.3,-0.5\n0.4,1.5,1.0,0.4\n1,3.0,2.2,1.1\n")
    brake = PedalMap.from_csv_text(
        "pedal,0,5,20,40\n0,-0.1,-0.2,-0.4,-0.7\n0.5,-4,-4.2,-4.5,-5\n1,-8,-8.5,-9,-9.5\n")
    return throttle, brake


class TestActuateMatchesOracle:
    """The clamp equals the scalar invert-then-interp actuator of the oracle."""

    @pytest.mark.parametrize("pair", [
        (synthetic_throttle_map(), synthetic_brake_map()),
        affine_maps(),
        csv_pair_on_different_grids(),
    ], ids=["synthetic", "affine", "csv_different_grids"])
    def test_within_1e12_and_same_flags(self, pair):
        thr, brk = pair
        rng = np.random.default_rng(12)
        n = 1500
        # speeds below 0 and past every map's last breakpoint
        v = rng.uniform(-5.0, 45.0, n)
        coast = np.array([ref.interp(thr, thr.pedal[0], x) for x in v])
        # commands across the whole authority, near the band's edges, inside it
        u = np.concatenate([
            rng.uniform(-12.0, 6.0, n // 3),
            coast[n // 3: 2 * n // 3] + rng.uniform(-0.1, 0.1, n // 3),
            coast[2 * n // 3:] + rng.uniform(-0.05, 0.05, n - 2 * (n // 3)),
        ])
        for previous in (False, True):
            prev = np.full(n, previous)
            achieved, flags = actuate(thr, brk, u, v, prev)
            for i in range(n):
                veh = ref.EmpiricalVehicle(thr, brk, 0.4, VehicleState(0.0, v[i], 0.0),
                                           previous)
                want, braking = ref.actuate(veh, u[i])
                assert flags[i] == braking
                assert abs(achieved[i] - want) <= 1e-12


class TestStepEmpirical:
    """One step of a row of map vehicles: ``actuate`` then the exact lag."""

    @staticmethod
    def step(thr, brk, state, u, braking, tau=0.4, dt=0.01):
        return step_empirical(thr, brk, state, np.asarray(u, dtype=float),
                              np.asarray(braking), tau, dt)

    def test_rest_with_zero_command_holds_still(self):
        thr, brk = affine_maps()
        rest = VehicleState(np.zeros(3), np.zeros(3), np.zeros(3))
        out, _ = self.step(thr, brk, rest, np.zeros(3), np.zeros(3, dtype=bool))
        for field in (out.x, out.v, out.a):
            np.testing.assert_array_equal(field, 0.0)

    def test_affine_maps_reduce_to_pure_lag(self):
        thr, brk = affine_maps()
        state = VehicleState(np.zeros(4), np.full(4, 20.0), np.zeros(4))
        lag = state
        braking = np.zeros(4, dtype=bool)
        rng = np.random.default_rng(8)
        for _ in range(200):
            u = rng.uniform(-3.8, 3.8, 4)
            state, braking = self.step(thr, brk, state, u, braking)
            lag = step_lag(lag, u, 0.4, 0.01)
            np.testing.assert_allclose(state.x, lag.x, rtol=0, atol=1e-12)
            np.testing.assert_allclose(state.v, lag.v, rtol=0, atol=1e-12)
            np.testing.assert_allclose(state.a, lag.a, rtol=0, atol=1e-12)

    def test_branch_hysteresis(self):
        thr, brk = synthetic_throttle_map(), synthetic_brake_map()
        coast = interp(thr, thr.pedal[0], 20.0)
        state = VehicleState(np.zeros(5), np.full(5, 20.0), np.zeros(5))
        # below the band brakes, above it throttles, inside it (at the coast
        # line) each vehicle keeps its own previous branch
        u = [coast - 0.2, coast, coast, coast + 0.2, coast + 0.2]
        prev = [False, True, False, True, False]
        _, braking = self.step(thr, brk, state, u, prev)
        assert braking.tolist() == [True, True, False, False, False]

    def test_brake_command_decelerates(self):
        thr, brk = synthetic_throttle_map(), synthetic_brake_map()
        state = VehicleState(np.zeros(1), np.full(1, 25.0), np.zeros(1))
        braking = np.zeros(1, dtype=bool)
        for _ in range(300):
            state, braking = self.step(thr, brk, state, [-9.0], braking, tau=0.37)
        assert braking[0]
        assert state.v[0] < 25.0 - 9.0 * 3.0 * 0.8  # most of the commanded decel
        assert state.a[0] == pytest.approx(-9.0, abs=0.5)

    def test_matches_scalar_reference_vehicle(self):
        thr, brk = synthetic_throttle_map(), synthetic_brake_map()
        rng = np.random.default_rng(11)
        v = rng.uniform(0.0, 35.0, 6)
        state = VehicleState(np.zeros(6), v, rng.normal(size=6))
        braking = rng.integers(0, 2, 6).astype(bool)
        u = rng.uniform(-9.0, 3.0, 6)
        out, flags = self.step(thr, brk, state, u, braking)
        for i in range(6):
            veh = ref.EmpiricalVehicle(thr, brk, 0.4, VehicleState(0.0, v[i], state.a[i]),
                                       bool(braking[i]))
            one = ref.step_empirical(veh, u[i], 0.01)
            assert one.braking == flags[i]
            assert (one.state.x, one.state.v, one.state.a) == (out.x[i], out.v[i], out.a[i])


class TestEmpiricalPlatoonVerdicts:
    def test_cacc_plus_headway_verdict_pattern_preserved(self):
        # the map-model platoon keeps the stable/unstable pattern that the
        # linear analysis predicts when the headway crosses the lossy minimum
        import platoon_lab as pl
        from platoon_lab.dynamics import Maneuver, TimeGrid
        from platoon_lab.sim import PlatoonConfig, simulate

        man = Maneuver(((0.0, 0.0), (5.0, -9.0), (6.0, 0.0)), 25.0)
        peaks = {}
        for hw in (0.3, 0.4):
            cfg = PlatoonConfig(
                n_followers=6, tau=0.37, gains=pl.Gains(0.75, 2.5, 1.5),
                policy=pl.SpacingPolicy(h_w=hw, d=5.0), scheme=pl.Scheme.CACC_PLUS,
                grid=TimeGrid(0.01, 30.0), channel=pl.GilbertParams(0.2, 0.1, 0.2),
                model="empirical", throttle_map=synthetic_throttle_map(),
                brake_map=synthetic_brake_map(), rates=(0.4667, 0.4667))
            out = simulate(cfg, man)
            peaks[hw] = out.peak_errors()
        # the two-predecessor recursion governs vehicles 3..N (vehicle 1 runs
        # the one-predecessor law, vehicle 2 couples directly to the lead), so
        # the discriminating statistic is growth along that interior chain:
        # below the lossy minimum headway the tail amplifies, above it decays
        assert peaks[0.3][-1] > peaks[0.3][2]
        assert peaks[0.4][-1] < peaks[0.4][2]
