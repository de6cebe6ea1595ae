"""Pedal-map longitudinal model: (pedal, velocity) -> acceleration surfaces.

A drive-by-wire vehicle exposes throttle/brake pedal fractions; measured maps
relate pedal and speed to the acceleration actually produced.  The controller
inverts the same map that the vehicle then evaluates, and on a slice strictly
monotone and piecewise linear in pedal that round trip returns the command
clamped to the slice's range.  So :func:`actuate` clamps each command to its
branch's authority at the current speed: only a map's first and last pedal
rows and the coast line reach the dynamics, never the shape of its interior
(a plant map different from the controller's inverse map would be a new
feature).  The actuation lag then follows (:func:`step_empirical`).

Measured surfaces are loaded from CSV text (see ``PedalMap.from_csv_text``);
the ``synthetic_*`` generators produce smooth saturating stand-ins with the
same qualitative shape for simulation studies.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass

import numpy as np

from .dynamics import VehicleState, step_lag

class MapFormatError(ValueError):
    pass


@dataclass(frozen=True)
class PedalMap:
    """Finite acceleration grid over strictly ascending pedal and velocity axes,
    strictly monotone in pedal, every column in the same direction."""

    pedal: tuple[float, ...]
    velocity: tuple[float, ...]
    accel: tuple[tuple[float, ...], ...]  # shape len(pedal) x len(velocity)

    def __post_init__(self):
        p = tuple(float(x) for x in self.pedal)
        v = tuple(float(x) for x in self.velocity)
        g = tuple(tuple(float(x) for x in row) for row in self.accel)
        object.__setattr__(self, "pedal", p)
        object.__setattr__(self, "velocity", v)
        object.__setattr__(self, "accel", g)
        if len(p) < 2 or len(v) < 2:
            raise MapFormatError("need at least two breakpoints per axis")
        if len(g) != len(p) or any(len(row) != len(v) for row in g):
            raise MapFormatError("grid shape does not match axes")
        arrays = tuple(np.array(x) for x in (p, v, g))
        # NaN fails no comparison below, and inf passes the monotone one
        if not all(np.isfinite(arr).all() for arr in arrays):
            raise MapFormatError("axes and grid must be finite")
        if not all((np.diff(axis) > 0).all() for axis in arrays[:2]):
            raise MapFormatError("axes must be strictly ascending")
        # mixed directions leave some interpolated slice flat, so every
        # velocity column must rise (or every one fall) strictly in pedal
        d = np.diff(arrays[2], axis=0)
        if not ((d > 0).all() or (d < 0).all()):
            raise MapFormatError("every velocity column must be strictly monotone "
                                 "in pedal, all in the same direction")
        for arr in arrays:
            arr.flags.writeable = False
        object.__setattr__(self, "_arrays", arrays)

    def axes(self) -> tuple[np.ndarray, np.ndarray]:
        """Read-only (pedal, velocity) breakpoint arrays."""
        return self._arrays[0], self._arrays[1]

    def grid(self) -> np.ndarray:
        """Read-only acceleration grid, shape (len(pedal), len(velocity))."""
        return self._arrays[2]

    @classmethod
    def from_csv_text(cls, text: str) -> "PedalMap":
        """CSV layout: header 'pedal,v1,v2,...'; each row 'p,a(p,v1),...'."""
        rows = list(csv.reader(io.StringIO(text)))
        if not rows or not rows[0] or rows[0][0].strip().lower() != "pedal":
            raise MapFormatError("first cell of the header must be 'pedal'")
        try:
            velocity = [float(x) for x in rows[0][1:]]
            pedal, grid = [], []
            for row in rows[1:]:
                if not row:
                    continue
                pedal.append(float(row[0]))
                grid.append([float(x) for x in row[1:]])
        except ValueError as exc:
            raise MapFormatError(f"non-numeric cell: {exc}") from exc
        return cls(tuple(pedal), tuple(velocity), tuple(tuple(r) for r in grid))


def _bracket(axis: np.ndarray, q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Clamped cell indices and interpolation weights along one axis."""
    idx = np.minimum(np.maximum(np.searchsorted(axis, q, side="right") - 1, 0), len(axis) - 2)
    lo = axis[idx]
    t = np.minimum(np.maximum((q - lo) / (axis[idx + 1] - lo), 0.0), 1.0)
    return idx, t


def _slices(pmap: PedalMap, velocity: np.ndarray) -> np.ndarray:
    """Map values at every pedal breakpoint, one column per velocity."""
    j, tv = _bracket(pmap.axes()[1], velocity)
    g = pmap.grid()
    return g[:, j] + tv * (g[:, j + 1] - g[:, j])


def interp(pmap: PedalMap, pedal, velocity):
    """Bilinear interpolation with edge clamping on both axes.

    Takes scalars or 1-D arrays, broadcast against each other; returns a
    scalar only when both are scalars.
    """
    p, v = np.broadcast_arrays(pedal, velocity)
    s = _slices(pmap, np.atleast_1d(v))
    i, tp = _bracket(pmap.axes()[0], np.atleast_1d(p))
    cols = np.arange(s.shape[1])
    low = s[i, cols]
    out = low + tp * (s[i + 1, cols] - low)
    return out if p.ndim else out[0]


def invert(pmap: PedalMap, accel, velocity):
    """Pedal achieving ``accel`` at ``velocity``; clamps outside the range.

    The bilinear surface is piecewise linear along the pedal axis at fixed
    velocity, and strictly monotone in the map's one direction, so the
    inversion is exact within the map's authority.  Takes scalars or 1-D
    arrays, broadcast against each other; returns a scalar only when both
    are scalars.
    """
    a, v = np.broadcast_arrays(accel, velocity)
    pedal_axis, g = pmap.axes()[0], pmap.grid()
    sign = 1.0 if g[1, 0] > g[0, 0] else -1.0
    s = sign * _slices(pmap, np.atleast_1d(v))
    target = sign * np.atleast_1d(a)
    k = np.minimum(np.maximum((s <= target).sum(axis=0) - 1, 0), len(pedal_axis) - 2)
    cols = np.arange(s.shape[1])
    lo = s[k, cols]
    frac = (target - lo) / (s[k + 1, cols] - lo)
    out = pedal_axis[k] + frac * (pedal_axis[k + 1] - pedal_axis[k])
    out = np.where(target >= s[-1], pedal_axis[-1], out)
    out = np.where(target <= s[0], pedal_axis[0], out)
    return out if a.ndim else out[0]


# Hysteresis band (m/s^2) around the coast line to prevent branch chattering.
COAST_HYSTERESIS = 0.05


def _edge_rows(pmap: PedalMap, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The map's first and last pedal rows at speeds ``v`` (clamped at the edges)."""
    velocity, g = pmap.axes()[1], pmap.grid()
    return np.interp(v, velocity, g[0]), np.interp(v, velocity, g[-1])


def actuate(throttle: PedalMap, brake: PedalMap, u: np.ndarray, v: np.ndarray,
            braking: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Achieved commands and branch flags for desired accelerations ``u``.

    The equal-shape arrays run over vehicles.  Commands above the coast line (the
    zero-throttle acceleration at the current speed) select the throttle map,
    below it the brake map, and inside a +-``COAST_HYSTERESIS`` band each
    vehicle keeps its previous branch ``braking``.  Inverting a command to a
    pedal on its branch and evaluating the branch there returns the command
    clamped to the branch's authority at that speed, the range between its
    first and last pedal rows; that clamp is what this computes.  The result
    feeds the actuation lag.
    """
    coast, full_throttle = _edge_rows(throttle, v)
    braking = np.where(u >= coast + COAST_HYSTERESIS, False,
                       np.where(u < coast - COAST_HYSTERESIS, True, braking))
    brake_first, brake_last = _edge_rows(brake, v)
    first = np.where(braking, brake_first, coast)
    last = np.where(braking, brake_last, full_throttle)
    lo, hi = np.minimum(first, last), np.maximum(first, last)
    return np.minimum(np.maximum(u, lo), hi), braking


def step_empirical(throttle: PedalMap, brake: PedalMap, state: VehicleState,
                   u: np.ndarray, braking: np.ndarray, tau: float,
                   dt: float) -> tuple[VehicleState, np.ndarray]:
    """Advance every vehicle by ``dt``: :func:`actuate`, then the exact lag."""
    achieved, braking = actuate(throttle, brake, u, state.v, braking)
    return step_lag(state, achieved, tau, dt), braking


def synthetic_throttle_map() -> PedalMap:
    """Smooth saturating throttle surface: strong at low speed, fading with v."""
    pedal, vel = np.linspace(0.0, 1.0, 11), np.linspace(0.0, 35.0, 8)
    grid = []
    for p in pedal:
        row = [(1.0 - np.exp(-3.0 * p)) * (4.6 - 0.075 * v) - (0.12 + 0.0135 * v)
               for v in vel]
        grid.append(row)
    return PedalMap(tuple(pedal), tuple(vel), tuple(tuple(r) for r in grid))


def synthetic_brake_map() -> PedalMap:
    """Smooth saturating brake surface (values <= 0, deceleration grows with p)."""
    pedal, vel = np.linspace(0.0, 1.0, 11), np.linspace(0.0, 35.0, 8)
    norm = 1.0 - np.exp(-2.6)
    grid = []
    for p in pedal:
        row = [-(0.12 + 0.0135 * v) - 10.8 * (1.0 - np.exp(-2.6 * p)) / norm
               for v in vel]
        grid.append(row)
    return PedalMap(tuple(pedal), tuple(vel), tuple(tuple(r) for r in grid))
