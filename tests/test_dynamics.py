import math

import numpy as np
import pytest

from platoon_lab.dynamics import Maneuver, TimeGrid, VehicleState, step_lag


def euler_lag(state, u, tau, total, dt):
    """Independent fine-step forward-Euler oracle for the lag chain."""
    x, v, a = state.x, state.v, state.a
    steps = int(round(total / dt))
    for _ in range(steps):
        x += v * dt
        v += a * dt
        a += (u - a) / tau * dt
    return VehicleState(x, v, a)


def lead_trajectory(m: Maneuver, grid: TimeGrid, tau: float) -> list[VehicleState]:
    """The lead vehicle's own lag dynamics under the maneuver, at every grid point."""
    state = VehicleState(0.0, m.initial_velocity, 0.0)
    out = [state]
    t = 0.0
    for _ in range(grid.n_steps):
        state = step_lag(state, m.accel_at(t), tau, grid.dt)
        out.append(state)
        t += grid.dt
    return out


def test_zero_input_zero_state_is_fixed_point():
    s = VehicleState(0.0, 0.0, 0.0)
    out = step_lag(s, 0.0, tau=0.5, dt=0.3)
    assert out == VehicleState(0.0, 0.0, 0.0)


def test_steady_state_of_first_order_lag():
    s = VehicleState(0.0, 0.0, 0.0)
    out = step_lag(s, 1.0, tau=0.4, dt=400.0)  # many time constants
    assert out.a == pytest.approx(1.0, abs=1e-12)


def test_one_time_constant_step_response():
    # closed form a(tau) = 1 - exp(-1); cross-checked against the Euler oracle
    out = step_lag(VehicleState(0.0, 0.0, 0.0), 1.0, tau=0.4, dt=0.4)
    assert out.a == pytest.approx(1.0 - math.exp(-1.0), abs=1e-12)
    fine = euler_lag(VehicleState(0.0, 0.0, 0.0), 1.0, 0.4, 0.4, dt=1e-6)
    assert out.a == pytest.approx(fine.a, abs=1e-5)
    assert out.v == pytest.approx(fine.v, abs=1e-5)
    assert out.x == pytest.approx(fine.x, abs=1e-5)


def test_zoh_composition_exactness():
    rng = np.random.default_rng(7)
    for _ in range(20):
        s = VehicleState(*rng.normal(size=3))
        u, tau, dt = rng.normal(), rng.uniform(0.1, 1.0), rng.uniform(0.01, 0.5)
        once = step_lag(s, u, tau, dt)
        twice = step_lag(step_lag(s, u, tau, dt / 2), u, tau, dt / 2)
        assert once.x == pytest.approx(twice.x, abs=1e-12)
        assert once.v == pytest.approx(twice.v, abs=1e-12)
        assert once.a == pytest.approx(twice.a, abs=1e-12)


def euler_lag_fast(state, u, tau, total, dt):
    """Forward-Euler oracle, vectorized: identical recurrence to euler_lag.

    The acceleration recurrence a_{k+1} = a_k (1 - dt/tau) + u dt/tau has the
    exact solution a_k = u + (a_0 - u) r^k, and v/x follow by cumulative sums
    in the same old-value update order as the loop version.
    """
    steps = int(round(total / dt))
    r = 1.0 - dt / tau
    a_hist = u + (state.a - u) * r ** np.arange(steps)          # a_0 .. a_{steps-1}
    v_hist = state.v + dt * np.concatenate([[0.0], np.cumsum(a_hist)])
    x_final = state.x + dt * float(np.sum(v_hist[:steps]))
    a_final = u + (state.a - u) * r ** steps
    return VehicleState(x_final, float(v_hist[-1]), float(a_final))


def test_euler_fast_matches_loop_oracle():
    s = VehicleState(1.0, -2.0, 0.5)
    slow = euler_lag(s, 0.7, 0.4, 0.5, dt=1e-3)
    fast = euler_lag_fast(s, 0.7, 0.4, 0.5, dt=1e-3)
    assert fast.x == pytest.approx(slow.x, abs=1e-12)
    assert fast.v == pytest.approx(slow.v, abs=1e-12)
    assert fast.a == pytest.approx(slow.a, abs=1e-12)


def test_against_fine_euler_over_long_horizon():
    s = VehicleState(0.0, 20.0, 0.0)
    u, tau = -2.0, 0.4
    coarse = s
    for _ in range(int(30.0 / 0.001)):
        coarse = step_lag(coarse, u, tau, 0.001)
    fine = euler_lag_fast(s, u, tau, 30.0, dt=0.00001)
    assert abs(coarse.x - fine.x) < 1e-3
    assert abs(coarse.v - fine.v) < 1e-3
    assert abs(coarse.a - fine.a) < 1e-3


def test_nonfinite_rejected():
    with pytest.raises(ValueError):
        step_lag(VehicleState(0.0, 0.0, float("nan")), 0.0, 0.4, 0.01)
    with pytest.raises(ValueError):
        step_lag(VehicleState(0.0, 0.0, 0.0), float("inf"), 0.4, 0.01)
    with pytest.raises(ValueError):
        step_lag(VehicleState(0.0, 0.0, 0.0), 0.0, -0.4, 0.01)


class TestManeuver:
    def test_segment_validation(self):
        with pytest.raises(ValueError):
            Maneuver(segments=(), initial_velocity=25.0)
        with pytest.raises(ValueError):
            Maneuver(segments=((1.0, 0.0),), initial_velocity=25.0)
        with pytest.raises(ValueError):
            Maneuver(segments=((0.0, 0.0), (0.0, -9.0)), initial_velocity=25.0)
        with pytest.raises(ValueError):
            Maneuver(segments=((0.0, 12.0),), initial_velocity=25.0)  # above 10 m/s^2

    def test_accel_lookup_piecewise_constant(self):
        m = Maneuver(((0.0, 0.0), (10.0, -9.0), (11.0, 0.0)), 25.0)
        assert m.accel_at(0.0) == 0.0
        assert m.accel_at(10.0) == -9.0
        assert m.accel_at(10.99) == -9.0
        assert m.accel_at(11.0) == 0.0


class TestLeadTrajectory:
    def test_constant_velocity(self):
        m = Maneuver.constant_velocity(25.0)
        traj = lead_trajectory(m, TimeGrid(0.01, 5.0), tau=0.4)
        assert all(s.v == pytest.approx(25.0, abs=1e-12) for s in traj)

    def test_paper_braking_velocity_target(self):
        # -9 m/s^2 for one second from 25 m/s settles at 16 m/s despite the lag
        tau = 0.4
        m = Maneuver(((0.0, 0.0), (10.0, -9.0), (11.0, 0.0)), 25.0)
        grid = TimeGrid(0.01, 20.0)
        traj = lead_trajectory(m, grid, tau)
        k = int(round((11.0 + 5 * tau) / grid.dt))
        assert traj[k].v == pytest.approx(16.0, abs=0.1)

    def test_matches_analytic_ramp_response(self):
        # v(t) = 2 (t - tau (1 - exp(-t/tau))) for a constant u = 2 from rest
        tau = 0.4
        m = Maneuver(((0.0, 2.0),), 0.0)
        grid = TimeGrid(0.01, 3.0)
        traj = lead_trajectory(m, grid, tau)
        for k in (50, 150, 300):
            t = k * grid.dt
            expected = 2.0 * (t - tau * (1.0 - math.exp(-t / tau)))
            assert traj[k].v == pytest.approx(expected, abs=1e-12)


class TestTimeGrid:
    def test_integer_step_count_enforced(self):
        TimeGrid(0.01, 40.0)
        with pytest.raises(ValueError):
            TimeGrid(0.01, 40.005)
        with pytest.raises(ValueError):
            TimeGrid(-0.01, 1.0)

    def test_times(self):
        g = TimeGrid(0.5, 2.0)
        assert g.n_steps == 4
        np.testing.assert_allclose(g.times(), [0.0, 0.5, 1.0, 1.5, 2.0])
