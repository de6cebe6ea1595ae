"""Pedal-map longitudinal model: (pedal, velocity) -> acceleration surfaces.

A drive-by-wire vehicle exposes throttle/brake pedal fractions; measured maps
relate pedal and speed to the acceleration actually produced.  The platoon
controllers command accelerations, so :func:`actuate` converts each command
to a pedal by an inverse lookup (monotone search along the pedal axis at the
current speed), and the forward map gives the achieved command that the
actuation lag of the dynamics module then follows (:func:`step_empirical`).
Lookups, the actuator and the step work on arrays over vehicles.

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


class InversionError(ValueError):
    """Raised when a pedal slice is not monotone and cannot be inverted."""


@dataclass(frozen=True)
class PedalMap:
    """Acceleration grid over strictly ascending pedal and velocity axes."""

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
        if any(b <= a for a, b in zip(p, p[1:])) or any(b <= a for a, b in zip(v, v[1:])):
            raise MapFormatError("axes must be strictly ascending")
        if len(g) != len(p) or any(len(row) != len(v) for row in g):
            raise MapFormatError("grid shape does not match axes")
        arrays = tuple(np.array(x) for x in (p, v, g))
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
        pmap = cls(tuple(pedal), tuple(velocity), tuple(tuple(r) for r in grid))
        # mixed directions leave some interpolated slice flat, so every
        # velocity column must rise (or every one fall) strictly in pedal
        d = np.diff(pmap.grid(), axis=0)
        if not (np.all(d > 0) or np.all(d < 0)):
            raise MapFormatError("every velocity column must be strictly monotone "
                                 "in pedal, all in the same direction")
        return pmap

    def to_csv(self, path):
        with open(path, "w", newline="", encoding="utf-8") as fh:
            w = csv.writer(fh)
            w.writerow(["pedal"] + [repr(v) for v in self.velocity])
            for p, row in zip(self.pedal, self.accel):
                w.writerow([repr(p)] + [repr(a) for a in row])


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


def _forward(pedal_axis: np.ndarray, s: np.ndarray, pedal: np.ndarray) -> np.ndarray:
    """Evaluate each slice column of ``s`` at its pedal value (linear, clamped)."""
    i, tp = _bracket(pedal_axis, pedal)
    cols = np.arange(s.shape[1])
    low = s[i, cols]
    return low + tp * (s[i + 1, cols] - low)


def _inverse(pedal_axis: np.ndarray, s: np.ndarray, accel: np.ndarray,
             velocity: np.ndarray) -> np.ndarray:
    """Pedal at which each slice column of ``s`` reaches its ``accel``."""
    d = s[1:] - s[:-1]
    rising = (d > 0).all(axis=0)
    flat = ~(rising | (d < 0).all(axis=0))
    if flat.any():
        raise InversionError(f"pedal slice at v={velocity[flat][0]} is not monotone")
    sign = np.where(rising, 1.0, -1.0)
    s = s * sign
    accel = accel * sign
    k = np.minimum(np.maximum((s <= accel).sum(axis=0) - 1, 0), len(pedal_axis) - 2)
    cols = np.arange(s.shape[1])
    lo = s[k, cols]
    frac = (accel - lo) / (s[k + 1, cols] - lo)
    out = pedal_axis[k] + frac * (pedal_axis[k + 1] - pedal_axis[k])
    out = np.where(accel >= s[-1], pedal_axis[-1], out)
    return np.where(accel <= s[0], pedal_axis[0], out)


def interp(pmap: PedalMap, pedal, velocity):
    """Bilinear interpolation with edge clamping on both axes.

    Takes scalars or equal-length 1-D arrays; :func:`actuate` uses the same
    slice helpers.
    """
    s = _slices(pmap, np.atleast_1d(velocity))
    out = _forward(pmap.axes()[0], s, np.atleast_1d(pedal))
    return out if np.ndim(pedal) else out[0]


def invert(pmap: PedalMap, accel, velocity):
    """Pedal achieving ``accel`` at ``velocity``; clamps outside the range.

    The bilinear surface is piecewise linear along the pedal axis at fixed
    velocity, so the inversion is exact within the map's authority.  Takes
    scalars or equal-length 1-D arrays.  Raises :class:`InversionError` when
    a slice is not monotone.
    """
    v = np.atleast_1d(velocity)
    out = _inverse(pmap.axes()[0], _slices(pmap, v), np.atleast_1d(accel), v)
    return out if np.ndim(accel) else out[0]


# Hysteresis band (m/s^2) around the coast line to prevent branch chattering.
COAST_HYSTERESIS = 0.05


def actuate(throttle: PedalMap, brake: PedalMap, u: np.ndarray, v: np.ndarray,
            braking: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Achieved commands and branch flags for desired accelerations ``u``.

    The 1-D arrays run over vehicles.  Commands above the coast line (the
    zero-throttle acceleration at the current speed) select the throttle map,
    below it the brake map, and inside a +-``COAST_HYSTERESIS`` band each
    vehicle keeps its previous branch ``braking``.  Each command goes through
    the inverse and then the forward map of its branch at that speed; the
    result feeds the actuation lag.
    """
    s_throttle = _slices(throttle, v)
    coast = s_throttle[0]
    braking = np.where(u >= coast + COAST_HYSTERESIS, False,
                       np.where(u < coast - COAST_HYSTERESIS, True, braking))
    throttling = ~braking
    achieved = np.empty_like(u)
    # each map's pedal slices are interpolated once per step, then inverted
    # and evaluated in place of separate invert / interp lookups
    for pmap, s, sel in ((throttle, s_throttle[:, throttling], throttling),
                         (brake, _slices(brake, v[braking]), braking)):
        pedal_axis = pmap.axes()[0]
        achieved[sel] = _forward(pedal_axis, s, _inverse(pedal_axis, s, u[sel], v[sel]))
    return achieved, braking


def step_empirical(throttle: PedalMap, brake: PedalMap, state: VehicleState,
                   u: np.ndarray, braking: np.ndarray, tau: float,
                   dt: float) -> tuple[VehicleState, np.ndarray]:
    """Advance every vehicle by ``dt``: :func:`actuate`, then the exact lag."""
    achieved, braking = actuate(throttle, brake, u, state.v, braking)
    return step_lag(state, achieved, tau, dt), braking


def synthetic_throttle_map(pedal_points: int = 11, velocity_points: int = 8,
                           v_max: float = 35.0) -> PedalMap:
    """Smooth saturating throttle surface: strong at low speed, fading with v."""
    pedal = np.linspace(0.0, 1.0, pedal_points)
    vel = np.linspace(0.0, v_max, velocity_points)
    grid = []
    for p in pedal:
        row = [(1.0 - np.exp(-3.0 * p)) * (4.6 - 0.075 * v) - (0.12 + 0.0135 * v)
               for v in vel]
        grid.append(row)
    return PedalMap(tuple(pedal), tuple(vel), tuple(tuple(r) for r in grid))


def synthetic_brake_map(pedal_points: int = 11, velocity_points: int = 8,
                        v_max: float = 35.0, peak_decel: float = 10.8) -> PedalMap:
    """Smooth saturating brake surface (values <= 0, deceleration grows with p)."""
    pedal = np.linspace(0.0, 1.0, pedal_points)
    vel = np.linspace(0.0, v_max, velocity_points)
    norm = 1.0 - np.exp(-2.6)
    grid = []
    for p in pedal:
        row = [-(0.12 + 0.0135 * v) - peak_decel * (1.0 - np.exp(-2.6 * p)) / norm
               for v in vel]
        grid.append(row)
    return PedalMap(tuple(pedal), tuple(vel), tuple(tuple(r) for r in grid))


def affine_maps(slope: float = 8.0, offset: float = -4.0,
                v_max: float = 35.0) -> tuple[PedalMap, PedalMap]:
    """Identical affine throttle/brake pair a(p, v) = slope*p + offset.

    With these, the inverse-then-forward composition is exact and the map
    vehicle reproduces the plain lag model; used as a test identity.
    """
    pedal = (0.0, 0.5, 1.0)
    vel = (0.0, v_max / 2.0, v_max)
    grid = tuple(tuple(slope * p + offset for _ in vel) for p in pedal)
    m = PedalMap(pedal, vel, grid)
    return m, m
