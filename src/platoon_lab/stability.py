"""Frequency-domain string-stability analysis and Lyapunov peak-error bounds.

Spacing errors propagate down a homogeneous platoon through rational transfer
functions; the platoon is string stable in the L-infinity-certificate sense
when the H-infinity norms of those functions (their sum, for multi-predecessor
schemes) do not exceed one.  This module builds the error-propagation transfer
functions for CACC and CACC+, computes H-infinity and impulse-L1 norms, and
evaluates the Gramian-based upper bound on the peak spacing error of every
vehicle given the lead vehicle's maneuver energy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import expm

from .control import Gains


class UnstableTransferFunctionError(ValueError):
    """Raised when a computation requires a Hurwitz denominator and gets none."""


# Eigenvalues with real part above this are treated as unstable.
_HURWITZ_TOL = -1e-9


@dataclass(frozen=True)
class RationalTF:
    """Rational transfer function as coefficient tuples, descending powers of s."""

    num: tuple[float, ...]
    den: tuple[float, ...]

    def __post_init__(self):
        num = tuple(float(c) for c in self.num)
        den = tuple(float(c) for c in self.den)
        # strip leading zeros so degrees are meaningful
        while len(num) > 1 and num[0] == 0.0:
            num = num[1:]
        while len(den) > 1 and den[0] == 0.0:
            den = den[1:]
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)
        if den[0] == 0.0:
            raise ValueError("denominator is identically zero")
        if len(num) > len(den):
            raise ValueError("transfer function must be proper")

    def __call__(self, s):
        return np.polyval(self.num, s) / np.polyval(self.den, s)

    def poles(self) -> np.ndarray:
        return np.roots(self.den)

    def is_hurwitz(self) -> bool:
        if len(self.den) == 1:
            return True
        return bool(np.max(self.poles().real) < _HURWITZ_TOL)

    def dc_gain(self) -> float:
        return float(self.num[-1] / self.den[-1])

    def hf_gain(self) -> float:
        """|H(j inf)|: ratio of leading coefficients for biproper, else 0."""
        if len(self.num) == len(self.den):
            return abs(self.num[0] / self.den[0])
        return 0.0

    def is_zero(self) -> bool:
        return all(c == 0.0 for c in self.num)


@dataclass(frozen=True)
class StateSpace:
    """Realization of the error-propagation chain.

    ``a`` is shared by every follower; ``b`` has one column per predecessor
    tap (one for CACC, two for CACC+); ``c`` reads the spacing error.
    ``lead_tf`` is the map from the lead vehicle's achieved acceleration to
    the first follower's spacing error.  It is a transfer function because
    for CACC+ the first follower runs the one-predecessor law, so the map
    lives outside the chain realization.
    """

    a: np.ndarray
    b: np.ndarray
    c: np.ndarray
    lead_tf: RationalTF

    def __post_init__(self):
        n = self.a.shape[0]
        if self.a.shape != (n, n) or self.b.shape[0] != n or self.c.shape[1] != n:
            raise ValueError("inconsistent state-space dimensions")

    def is_hurwitz(self) -> bool:
        return bool(np.max(np.linalg.eigvals(self.a).real) < _HURWITZ_TOL)


@dataclass(frozen=True)
class PeakBound:
    """Uniform bound  ||e_i||_inf <= m1 + m2 * ||w0||_2  for every follower.

    ``m1`` already includes the initial-error budget alpha_star; ``m2`` scales
    the L2 norm of the lead vehicle's acceleration input.  beta2, gamma2 and
    eta are the induced-norm constants the bound is assembled from.
    """

    j_value: float
    m1: float
    m2: float
    alpha_star: float
    beta2: float
    gamma2: float
    eta: float

    def __post_init__(self):
        if self.j_value < -1e-12 or self.m1 < 0 or self.m2 < 0:
            raise ValueError("peak bound constants must be non-negative")

    def evaluate(self, w0_l2: float) -> float:
        return self.m1 + self.m2 * w0_l2


def build_cacc_tf(gains: Gains, tau: float, h_w: float, gamma: float) -> RationalTF:
    """Spacing-error propagation H(s) for the gamma-weighted CACC law.

    H(s) = (gamma K_a s^2 + K_v s + K_p)
           / (tau s^3 + s^2 + (K_v + K_p h_w) s + K_p);  H(0) = 1.
    """
    if tau <= 0 or h_w <= 0:
        raise ValueError("tau and h_w must be positive")
    if not 0.0 <= gamma <= 1.0:
        raise ValueError("gamma must lie in [0, 1]")
    num = (gamma * gains.k_a, gains.k_v, gains.k_p)
    den = (tau, 1.0, gains.k_v + gains.k_p * h_w, gains.k_p)
    return RationalTF(num, den)


def build_cacc_plus_tfs(gains: Gains, tau: float, h_w: float,
                        gamma: float) -> tuple[RationalTF, RationalTF]:
    """Interior error-propagation pair (H_p1, H_p2) for gamma-weighted CACC+.

    Both share the denominator
        tau s^3 + s^2 + [(1+gamma) K_v + (1+2 gamma) K_p h_w] s + (1+gamma) K_p
    and satisfy H_p1(0) + H_p2(0) = 1 identically.  At gamma = 0 the second
    function vanishes and H_p1 degenerates to the ACC propagation.
    """
    if tau <= 0 or h_w <= 0:
        raise ValueError("tau and h_w must be positive")
    if not 0.0 <= gamma <= 1.0:
        raise ValueError("gamma must lie in [0, 1]")
    den = (tau, 1.0,
           (1.0 + gamma) * gains.k_v + (1.0 + 2.0 * gamma) * gains.k_p * h_w,
           (1.0 + gamma) * gains.k_p)
    num1 = (gamma * gains.k_a, gains.k_v, gains.k_p)
    num2 = (gamma * gains.k_a, gamma * gains.k_v, gamma * gains.k_p)
    return RationalTF(num1, den), RationalTF(num2, den)


def _golden_max(f, lo: float, hi: float, tol: float = 1e-12) -> float:
    """Golden-section maximum of a unimodal f on [lo, hi]."""
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = f(c), f(d)
    while b - a > tol * max(1.0, abs(a) + abs(b)):
        if fc < fd:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = f(d)
        else:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = f(c)
    return max(fc, fd)


def hinf_norm(tf: RationalTF, w_lo: float = 1e-3, w_hi: float = 1e3,
              n_grid: int = 4000) -> float:
    """sup over omega >= 0 of |H(j omega)| by log sweep plus local refinement.

    Includes omega = 0 and the omega -> infinity limit as candidates, then
    refines every interior grid maximum by golden section in log-frequency.
    Relative accuracy is well below 1e-6 for the low-order systems used here.
    """
    if tf.is_zero():
        return 0.0
    if not tf.is_hurwitz():
        raise UnstableTransferFunctionError(
            f"denominator {tf.den} is not Hurwitz; H-infinity norm undefined")
    w = np.logspace(math.log10(w_lo), math.log10(w_hi), n_grid)
    mag = np.abs(tf(1j * w))
    best = max(abs(tf.dc_gain()), tf.hf_gain(), float(mag.max()))

    def mag_at_logw(lw: float) -> float:
        return abs(tf(1j * 10.0 ** lw))

    lw = np.log10(w)
    interior = np.nonzero((mag[1:-1] >= mag[:-2]) & (mag[1:-1] >= mag[2:]))[0] + 1
    for i in interior:
        best = max(best, _golden_max(mag_at_logw, lw[i - 1], lw[i + 1]))
    # boundary maxima: refine the outermost cells too
    if mag[0] >= mag[1]:
        best = max(best, _golden_max(mag_at_logw, lw[0] - 1.0, lw[1]))
    if mag[-1] >= mag[-2]:
        best = max(best, _golden_max(mag_at_logw, lw[-2], lw[-1] + 1.0))
    return best


def string_stable_sum(tfs) -> tuple[bool, float]:
    """Sufficient string-stability certificate: sum of H-infinity norms <= 1.

    Returns (stable, margin) with margin = 1 - sum of norms; the boolean
    tolerates a 1e-9 numerical margin violation.
    """
    total = sum(hinf_norm(tf) for tf in tfs)
    margin = 1.0 - total
    return margin >= -1e-9, margin


def tf_to_ss(tf: RationalTF) -> tuple[np.ndarray, np.ndarray, np.ndarray, float]:
    """Observable-canonical realization (A, B, C, D) of a proper rational TF."""
    den = np.asarray(tf.den, dtype=float)
    num = np.zeros_like(den)
    num[len(den) - len(tf.num):] = tf.num
    num = num / den[0]
    den = den / den[0]
    d = num[0]
    num = num[1:] - d * den[1:]  # strictly proper remainder
    n = len(den) - 1
    if n == 0:
        return np.zeros((0, 0)), np.zeros((0, 1)), np.zeros((1, 0)), float(d)
    a = np.zeros((n, n))
    a[:, 0] = -den[1:]
    a[:-1, 1:] = np.eye(n - 1)
    b = num.reshape(-1, 1)
    c = np.zeros((1, n))
    c[0, 0] = 1.0
    return a, b, c, float(d)


def impulse_l1_norm(tf: RationalTF, horizon: float | None = None, dt: float = 1e-3) -> float:
    """L1 norm of the impulse response, integrated until the tail is negligible.

    Realizes the transfer function in state space, samples h(t) = C e^{At} B on
    a uniform grid via one cached matrix exponential, and accumulates the
    trapezoid integral of |h| in chunks until the remaining tail (bounded by
    the slowest pole) is below 1e-6.  A direct-feedthrough term contributes
    |D| for biproper functions.
    """
    if not tf.is_hurwitz():
        raise UnstableTransferFunctionError(
            f"denominator {tf.den} is not Hurwitz; impulse response diverges")
    a, b, c, d = tf_to_ss(tf)
    total = abs(d)
    if a.shape[0] == 0:
        return total
    sigma = -float(np.max(np.linalg.eigvals(a).real))  # slowest decay rate
    step = expm(a * dt)
    x = b.copy()
    h_prev = (c @ x).item()
    chunk = max(64, int(round(1.0 / (sigma * dt))))
    t = 0.0
    hard_cap = horizon if horizon is not None else 5000.0 / sigma
    while t < hard_cap:
        peak = 0.0
        for _ in range(chunk):
            x = step @ x
            h = (c @ x).item()
            total += 0.5 * (abs(h_prev) + abs(h)) * dt
            h_prev = h
            peak = max(peak, abs(h))
        t += chunk * dt
        # conservative tail bound: |h| already decays at rate sigma
        if horizon is None and peak / sigma < 1e-6 * max(total, 1.0):
            break
    return total


def lyapunov_gramian(a: np.ndarray, b_cat: np.ndarray) -> np.ndarray:
    """Solve A P + P A^T + B B^T = 0 for the controllability Gramian P.

    ``b_cat`` may stack several input columns; the equation then carries the
    summed outer products, as the two-predecessor bound requires.  Solved
    densely on the vectorized equation (systems here have n <= 12), then
    symmetrized.  Raises for non-Hurwitz A.
    """
    a = np.asarray(a, dtype=float)
    b_cat = np.asarray(b_cat, dtype=float)
    if b_cat.ndim == 1:
        b_cat = b_cat.reshape(-1, 1)
    n = a.shape[0]
    if np.max(np.linalg.eigvals(a).real) >= _HURWITZ_TOL:
        raise UnstableTransferFunctionError("A is not Hurwitz; Lyapunov equation has no PSD solution")
    q = b_cat @ b_cat.T
    k = np.kron(np.eye(n), a) + np.kron(a, np.eye(n))
    p = np.linalg.solve(k, -q.reshape(-1)).reshape(n, n)
    return 0.5 * (p + p.T)


def build_error_system(gains: Gains, tau: float, h_w: float, gamma: float,
                       scheme: str = "cacc") -> StateSpace:
    """State-space realization of the error-propagation chain.

    Observable canonical form of the shared denominator, so one A and C serve
    every numerator: the predecessor taps become input columns B (CACC) or
    B1, B2 (CACC+).  The lead-to-first-error map (input = achieved lead
    acceleration) is attached as ``lead_tf``:

        E1(s) / A0(s) = [(gamma K_a h_w - tau) s + (gamma K_a + K_v h_w - 1)]
                        / (tau s^3 + s^2 + (K_v + K_p h_w) s + K_p)
    """
    ka, kv, kp = gains.k_a, gains.k_v, gains.k_p
    lead_num = (gamma * ka * h_w - tau, gamma * ka + kv * h_w - 1.0)
    lead_den = (tau, 1.0, kv + kp * h_w, kp)
    lead_tf = RationalTF(lead_num, lead_den)
    if scheme == "cacc":
        tf = build_cacc_tf(gains, tau, h_w, gamma)
        a, _, c, _ = tf_to_ss(tf)
        b = np.array([[gamma * ka], [kv], [kp]]) / tau
        return StateSpace(a=a, b=b, c=c, lead_tf=lead_tf)
    if scheme == "cacc_plus":
        tf1, tf2 = build_cacc_plus_tfs(gains, tau, h_w, gamma)
        a, _, c, _ = tf_to_ss(tf1)
        b1 = np.array([gamma * ka, kv, kp]) / tau
        b2 = gamma * np.array([ka, kv, kp]) / tau
        b = np.column_stack([b1, b2])
        # first follower runs the CACC law, whose denominator differs from the
        # chain's; the lead coupling is exact only as lead_tf
        return StateSpace(a=a, b=b, c=c, lead_tf=lead_tf)
    raise ValueError(f"unknown scheme {scheme!r}")


def _sup_output_decay(a: np.ndarray, c: np.ndarray) -> float:
    """eta = sup_t ||C e^{At}||_2, the initial-condition peak-output gain."""
    sigma = -float(np.max(np.linalg.eigvals(a).real))
    dt = min(0.02 / sigma, 0.01)
    steps = int(40.0 / (sigma * dt))
    step = expm(a * dt)
    row = np.array(c, dtype=float)
    best = float(np.linalg.norm(row))
    for _ in range(steps):
        row = row @ step
        best = max(best, float(np.linalg.norm(row)))
    return best


def peak_output_bound(ss: StateSpace, alpha_star: float, w0_l2: float) -> PeakBound:
    """Gramian-based uniform peak bound on every follower's spacing error.

    J is the squared L2-to-Linf gain of the chain: the largest eigenvalue of
    C P C^T with P the controllability Gramian of (A, [B1 ... Bm]).  (The
    optimization min g s.t. C^T P C - g I < 0 written with a row-vector C is
    dimensionally the C P C^T form; its optimum is that eigenvalue, so no SDP
    solver is needed.)  beta2 comes from the observability Gramian, gamma2 is
    the H-infinity norm of the lead-to-first-error map, and eta is the decay
    supremum sup_t ||C e^{At}||.

    One-predecessor chains use  m1 = (sqrt(J) beta2 + eta) alpha*,
    m2 = sqrt(J) gamma2;  two-predecessor chains use the doubled constants
    m1 = 2 sqrt(J) beta2 alpha*, m2 = 2 sqrt(J) gamma2.
    """
    if alpha_star < 0:
        raise ValueError("alpha_star must be non-negative")
    if w0_l2 < 0:
        raise ValueError("w0_l2 must be non-negative")
    if not ss.is_hurwitz():
        raise UnstableTransferFunctionError("error dynamics are not Hurwitz")
    p = lyapunov_gramian(ss.a, ss.b)
    jmat = ss.c @ p @ ss.c.T
    j = float(np.max(np.linalg.eigvalsh(0.5 * (jmat + jmat.T))))
    j = max(j, 0.0)
    q = lyapunov_gramian(ss.a.T, ss.c.T)
    beta2 = math.sqrt(max(float(np.max(np.linalg.eigvalsh(q))), 0.0))
    gamma2 = hinf_norm(ss.lead_tf)
    eta = _sup_output_decay(ss.a, ss.c)
    sj = math.sqrt(j)
    n_taps = ss.b.shape[1]
    if n_taps == 1:
        m1 = (sj * beta2 + eta) * alpha_star
        m2 = sj * gamma2
    else:
        m1 = 2.0 * sj * beta2 * alpha_star
        m2 = 2.0 * sj * gamma2
    return PeakBound(j_value=j, m1=m1, m2=m2, alpha_star=alpha_star,
                     beta2=beta2, gamma2=gamma2, eta=eta)


def safe_standstill_distance(bound: PeakBound, w0_l2: float, margin: float = 0.0) -> float:
    """Standstill distance that absorbs the worst-case peak spacing error."""
    if margin < 0:
        raise ValueError("margin must be non-negative")
    return bound.evaluate(w0_l2) + margin
