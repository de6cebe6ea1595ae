"""Spacing-controller parameters (ACC / CACC / CACC+) and minimum-headway
selectors.

The constant-time-headway policy targets a gap of ``d + h_w * v`` behind the
predecessor.  Radar terms (relative position and velocity of the immediate
predecessor) are always available; anything radioed is gated by the packet
reception indicator of the corresponding link.  ACC is just CACC with the
radio permanently down.  The control law itself is written once, as the
closed-loop matrix of :func:`platoon_lab.sim.build_system_matrix`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum


@dataclass(frozen=True)
class Gains:
    """Feedforward/feedback gains: k_a (dimensionless), k_v (1/s), k_p (1/s^2)."""

    k_a: float
    k_v: float
    k_p: float

    def __post_init__(self):
        # written so that NaN fails every check
        if not (0.0 < self.k_v < math.inf and 0.0 < self.k_p < math.inf):
            raise ValueError("k_v and k_p must be positive and finite")
        if not 0.0 <= self.k_a < math.inf:
            raise ValueError("k_a must be non-negative and finite")


@dataclass(frozen=True)
class SpacingPolicy:
    """Constant-time-headway spacing: desired gap = d + h_w * v."""

    h_w: float
    d: float = 5.0

    def __post_init__(self):
        if not 0.0 < self.h_w < math.inf:
            raise ValueError("time headway must be positive and finite")
        if not 0.0 <= self.d < math.inf:
            raise ValueError("standstill distance must be non-negative and finite")


class Scheme(Enum):
    ACC = "acc"
    CACC = "cacc"
    CACC_PLUS = "cacc_plus"


def min_headway_acc(tau: float) -> float:
    """Smallest string-stable headway without communication: twice the lag."""
    if tau < 0:
        raise ValueError("tau must be non-negative")
    return 2.0 * tau


def min_headway_cacc(tau: float, gamma: float, k_a: float) -> float:
    """Lossy one-predecessor limit: 2*tau / (1 + gamma*k_a).

    This is the minimum achievable headway over (k_v, k_p), not the
    string-stability threshold of one gain set.  For the CACC propagation
    function N/D of ``stability.build_error_system``, |D(jw)|^2 - |N(jw)|^2 at
    w^2 = k_p h / tau equals k_p w^2 (1 - gamma k_a) ((1 + gamma k_a) h / tau - 2),
    so for gamma k_a < 1 no k_v, k_p keeps |H| <= 1 below this headway.  It is
    the exact threshold at the designed gain k_v* = (1 - (gamma k_a)^2) / (2 tau),
    for every k_p > 0.

    Falls back to the ACC value at gamma = 0 and decreases monotonically as
    reception or feedforward gain improve.
    """
    _check(tau, gamma, k_a)
    return 2.0 * tau / (1.0 + gamma * k_a)


def min_headway_cacc_plus(tau: float, gamma: float, k_a: float) -> float:
    """Lossy two-predecessor limit with a common reception rate gamma.

    This is the minimum achievable headway over (k_v, k_p) for the condition
    |H_p1(jw)| <= H_p1(0) on the CACC+ pair of ``stability.build_error_system``.
    With h' = (1 + 2 gamma) h / (1 + gamma) and A1 = (1 + gamma) gamma k_a,
    evaluating (1 + gamma)^2 |N1|^2 <= |D|^2 as in ``min_headway_cacc`` (at
    w^2 = (1 + 2 gamma) k_p h / tau) asks for (1 + A1) h' >= 2 tau when A1 < 1.
    It is the exact threshold at the designed gain
    k_v+ = (1 - A1^2) / (2 tau (1 + gamma)), for every k_p > 0.

    Since H_p1(0) + H_p2(0) = 1 and each norm is at least its DC gain,
    ``stability.string_stable_sum`` holds only when H_p2 also stays at or below
    its DC gain.  The same evaluation for H_p2, with A2 = (1 + gamma) k_a > 1,
    asks for (1 + A2) h' <= 2 tau.  So for gamma < 1 and A1 < 1 < A2 no gains
    and headway meet the sum certificate and it never confirms this closed
    form there; 400,000 random (k_v, k_p, h) samples at the paper's k_a = 0.8
    and 0.75 found none either.  For A2 <= 1 it can, but A2 <= 1 does not make
    this closed form the sum certificate's threshold: it clears H_p2 at that
    one frequency only, and H_p2 can still peak above its DC gain elsewhere.
    At k_a = 0.2, gamma = 0.467 and k_v+ the sum is exactly 1 at this headway;
    at k_a = 0.5, gamma = 0.7, tau = 0.3, k_p = 1.5 (A2 = 0.85) and k_v+ it is
    1.0334 at h = 0.2665 s, while |H_p1| / H_p1(0) = 1 there.  No closed form
    here gives the sum certificate's threshold.
    """
    _check(tau, gamma, k_a)
    return 2.0 * tau * (1.0 + gamma) / ((1.0 + 2.0 * gamma) * (1.0 + gamma * (1.0 + gamma) * k_a))


def min_headway_cacc_plus_mu(tau: float, gamma: float, mu: float, k_a: float) -> float:
    """Two-predecessor limit when the (i, i-2) link has its own rate mu."""
    _check(tau, gamma, k_a)
    if not 0.0 <= mu <= 1.0:
        raise ValueError("mu must lie in [0, 1]")
    return 2.0 * tau * (1.0 + gamma) / ((1.0 + 2.0 * mu) * (1.0 + gamma * (1.0 + mu) * k_a))


def _check(tau: float, gamma: float, k_a: float):
    if tau < 0:
        raise ValueError("tau must be non-negative")
    if not 0.0 <= gamma <= 1.0:
        raise ValueError("gamma must lie in [0, 1]")
    if k_a < 0:
        raise ValueError("k_a must be non-negative")
