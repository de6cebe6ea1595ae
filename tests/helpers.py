"""Constructors the tests share that the program itself never needs.

The closed loop A(w), c(w) at given link weights, a pedal-map file writer in
the format scenarios load with ``throttle_map`` and ``brake_map``, the affine
map pair under which the map engine reduces to the pure lag, and the idle
maneuver.
"""

import csv

import numpy as np

from platoon_lab.dynamics import Maneuver
from platoon_lab.maps import PedalMap
from platoon_lab.sim import link_decomposition


def closed_loop(config, link_values) -> tuple[np.ndarray, np.ndarray]:
    """The closed-loop matrix A(w) = a0 + w . da and offset c(w) = c0 + w . dc
    at one weight per link (the link order of ``link_decomposition``)."""
    w = np.asarray(link_values, dtype=float)
    a0, da, c0, dc = link_decomposition(config)
    return a0 + np.tensordot(w, da, axes=1), c0 + w @ dc


def write_map_csv(pmap: PedalMap, path):
    """Write ``pmap`` as CSV text that ``PedalMap.from_csv_text`` reads back exactly."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(["pedal"] + [repr(v) for v in pmap.velocity])
        for p, row in zip(pmap.pedal, pmap.accel):
            w.writerow([repr(p)] + [repr(a) for a in row])


def affine_maps(slope: float = 8.0, offset: float = -4.0,
                v_max: float = 35.0) -> tuple[PedalMap, PedalMap]:
    """Identical affine throttle/brake pair a(p, v) = slope*p + offset.

    With these, the inverse-then-forward composition is exact and the map
    vehicle reproduces the plain lag model.
    """
    pedal = (0.0, 0.5, 1.0)
    vel = (0.0, v_max / 2.0, v_max)
    grid = tuple(tuple(slope * p + offset for _ in vel) for p in pedal)
    m = PedalMap(pedal, vel, grid)
    return m, m


def constant_velocity(v0: float) -> Maneuver:
    """The lead holds ``v0`` for the whole run."""
    return Maneuver(segments=((0.0, 0.0),), initial_velocity=v0)
