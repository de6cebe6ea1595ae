"""Point-mass longitudinal vehicle model with a first-order actuation lag.

Every vehicle is a triple-integrator chain x -> v -> a where the achieved
acceleration follows the commanded one through ``tau * da/dt + a = u``.
Because the model is linear and the command is held constant over each
controller step, the exact zero-order-hold update has a closed form and no
integration error accumulates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Bound (m/s^2) on every maneuver segment's acceleration.
_A_MAX = 10.0


@dataclass(frozen=True)
class VehicleState:
    """Position (m), velocity (m/s) and achieved acceleration (m/s^2).

    The fields are floats for one vehicle, or equal-shape arrays holding one
    entry per vehicle.
    """

    x: float
    v: float
    a: float


@dataclass(frozen=True)
class Maneuver:
    """Piecewise-constant commanded acceleration profile for the lead vehicle.

    ``segments`` is an ordered list of (start_time, acceleration) pairs; each
    acceleration holds until the next segment starts.  A finite sequence of
    bounded segments keeps the input square-integrable over any finite
    horizon, which the peak-error bounds require.
    """

    segments: tuple[tuple[float, float], ...]
    initial_velocity: float

    def __post_init__(self):
        segs = tuple((float(t), float(a)) for t, a in self.segments)
        object.__setattr__(self, "segments", segs)
        if not segs:
            raise ValueError("maneuver needs at least one segment")
        if segs[0][0] != 0.0:
            raise ValueError("first segment must start at t=0")
        for t, _ in segs:
            if not math.isfinite(t):
                raise ValueError(f"segment start {t} must be finite")
        for (t0, _), (t1, _) in zip(segs, segs[1:]):
            if not t1 > t0:
                raise ValueError("segment start times must be strictly increasing")
        for _, a in segs:
            if not math.isfinite(a) or abs(a) > _A_MAX:
                raise ValueError(f"segment acceleration {a} exceeds bound {_A_MAX}")
        if not math.isfinite(self.initial_velocity):
            raise ValueError("initial velocity must be finite")

    def accel_at(self, t: float) -> float:
        """Commanded acceleration at time ``t`` (left-continuous lookup)."""
        u = 0.0
        for start, a in self.segments:
            if t >= start:
                u = a
            else:
                break
        return u


@dataclass(frozen=True)
class TimeGrid:
    """Fixed simulation grid; ``horizon`` must be an integer number of steps."""

    dt: float
    horizon: float

    def __post_init__(self):
        if not 0.0 < self.dt < math.inf:
            raise ValueError("dt must be positive and finite")
        if not 0.0 < self.horizon < math.inf:
            raise ValueError("horizon must be positive and finite")
        steps = self.horizon / self.dt
        if abs(steps - round(steps)) > 1e-9:
            raise ValueError("horizon must be an integer multiple of dt")

    @property
    def n_steps(self) -> int:
        return int(round(self.horizon / self.dt))

    def times(self):
        return np.arange(self.n_steps + 1) * self.dt


def step_lag(state: VehicleState, u, tau: float, dt: float) -> VehicleState:
    """Advance vehicles by ``dt`` with the commands ``u`` held constant.

    ``state`` and ``u`` are scalars for one vehicle or arrays over vehicles;
    a NaN state or command gives a NaN state, which the driver reports.

    Exact discretization of x' = v, v' = a, a' = (u - a)/tau:

        a(t+dt) = u + (a - u) exp(-dt/tau)
        v(t+dt) = v + u dt + (a - u) tau (1 - exp(-dt/tau))
        x(t+dt) = x + v dt + u dt^2/2 + (a - u) tau (dt - tau (1 - exp(-dt/tau)))
    """
    if tau <= 0 or dt <= 0:
        raise ValueError("tau and dt must be positive")
    decay = math.exp(-dt / tau)
    rem = 1.0 - decay
    da = state.a - u
    a_new = u + da * decay
    v_new = state.v + u * dt + da * tau * rem
    x_new = state.x + state.v * dt + 0.5 * u * dt * dt + da * tau * (dt - tau * rem)
    return VehicleState(x_new, v_new, a_new)

