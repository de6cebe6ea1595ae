"""Spacing-controller parameters (ACC / CACC / CACC+), the scheme rule and
the minimum headway.

The constant-time-headway policy targets a gap of ``d + h_w * v`` behind the
predecessor.  Radar terms (relative position and velocity of the immediate
predecessor) are always available; anything radioed is gated by the packet
reception indicator of the corresponding link.  ACC is just CACC with the
radio permanently down.  The control law itself is written once, as the
closed loop's affine split in the link weights
(:func:`platoon_lab.sim.link_decomposition`).  The analysis reads each
scheme at the rates of :func:`scheme_rates` (ACC is CACC+ with both links
off, CACC with the second one off), so one formula, :func:`min_headway`,
gives every scheme's minimum headway.
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


def scheme_rates(scheme: Scheme, gamma: float, mu: float) -> tuple[float, float]:
    """The rates (gamma, mu) at which ``scheme`` weighs its radioed terms.

    ACC has no radio, CACC only the (i, i-1) link and CACC+ both links:
    ACC -> (0, 0), CACC -> (gamma, 0), CACC+ -> (gamma, mu).
    """
    if not (0.0 <= gamma <= 1.0 and 0.0 <= mu <= 1.0):  # NaN fails too
        raise ValueError("gamma and mu must lie in [0, 1]")
    if scheme is Scheme.ACC:
        return 0.0, 0.0
    return gamma, mu if scheme is Scheme.CACC_PLUS else 0.0


def min_headway(tau: float, gamma: float, mu: float, k_a: float) -> float:
    """Smallest headway any (k_v, k_p) makes string stable:

        h_min = 2 tau (1 + mu) / ((1 + 2 mu) (1 + gamma (1 + mu) k_a))

    at (gamma, mu) of :func:`scheme_rates`: 2 tau for ACC, 2 tau / (1 + gamma k_a)
    for CACC and 2 tau (1 + gamma) / ((1 + 2 gamma) (1 + gamma (1 + gamma) k_a))
    for CACC+ with a common rate.  It decreases as reception or feedforward gain
    improve.

    This is a minimum over the gains, not the threshold of one gain set.  At
    mu = 0 the chain of ``stability.build_error_system`` is H = N/D with
    N = gamma k_a s^2 + k_v s + k_p and D = tau s^3 + s^2 + (k_v + k_p h) s + k_p,
    and |D(jw)|^2 - |N(jw)|^2 at w^2 = k_p h / tau equals
    k_p w^2 (1 - gamma k_a) ((1 + gamma k_a) h / tau - 2), so for gamma k_a < 1
    no k_v, k_p keeps |H| <= 1 below 2 tau / (1 + gamma k_a).  For mu > 0 the
    condition is |H_p1(jw)| <= H_p1(0) = 1 / (1 + mu), i.e.
    (1 + mu)^2 |N1|^2 <= |D_mu|^2, which is the mu = 0 condition under
    k_v' = (1 + mu) k_v, k_p' = (1 + mu) k_p, h' = (1 + 2 mu) h / (1 + mu) and
    gamma' k_a' = A1 = (1 + mu) gamma k_a; so for A1 < 1 it asks for
    (1 + A1) h' >= 2 tau.  The bound is the exact threshold at the designed gain
    k_v = (1 - A1^2) / (2 tau (1 + mu)), for every k_p > 0.  For A1 >= 1 it is
    no threshold: the same evaluation then rules out every h' above
    2 tau / (1 + A1), and 20,000 random (k_v, k_p, h) at tau = 0.37,
    gamma = mu = 1 and k_a = 0.75 (A1 = 1.5) met the condition nowhere.

    It is not the threshold of the sum certificate
    (``stability.string_stable_sum``).  Since H_p1(0) + H_p2(0) = 1 and each
    norm is at least its DC gain, the sum holds only when H_p2 also stays at or
    below its DC gain mu / (1 + mu).  The same evaluation for H_p2 (mu > 0), with
    A2 = (1 + mu) k_a > 1, asks for (1 + A2) h' <= 2 tau.  So for gamma < 1 and
    A1 < 1 < A2 no gains and headway meet the sum certificate; 400,000 random
    (k_v, k_p, h) samples at mu = gamma and the paper's k_a = 0.8 and 0.75 found
    none either.  For A2 <= 1 it can, but A2 <= 1 does not make this bound the
    sum certificate's threshold: it clears H_p2 at that one frequency only, and
    H_p2 can still peak above its DC gain elsewhere.  At mu = gamma = 0.467,
    k_a = 0.2 and the designed k_v the sum is exactly 1 at h_min; at
    mu = gamma = 0.7, k_a = 0.5, tau = 0.3, k_p = 1.5 (A2 = 0.85) and the
    designed k_v it is 1.0334 at h_min = 0.2665 s, while |H_p1| / H_p1(0) = 1
    there.
    """
    # written so that NaN fails every check
    if not (0.0 <= tau < math.inf and 0.0 <= k_a < math.inf):
        raise ValueError("tau and k_a must be non-negative and finite")
    if not (0.0 <= gamma <= 1.0 and 0.0 <= mu <= 1.0):
        raise ValueError("gamma and mu must lie in [0, 1]")
    return 2.0 * tau * (1.0 + mu) / ((1.0 + 2.0 * mu) * (1.0 + gamma * (1.0 + mu) * k_a))
