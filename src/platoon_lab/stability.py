"""Frequency-domain string-stability analysis and Lyapunov peak-error bounds.

Spacing errors propagate down a homogeneous platoon through rational transfer
functions; the platoon is string stable in the L-infinity-certificate sense
when the H-infinity norms of those functions (their sum, for multi-predecessor
schemes) do not exceed one.  This module writes the error-propagation law of
every scheme once (:func:`build_error_system`, at the rates of
:func:`platoon_lab.control.scheme_rates`: ACC is the CACC+ pair with both
links off, CACC with its second link off), computes the norms of its
transfer functions, and evaluates the Gramian-based upper bound on the peak
spacing error of every vehicle given the lead vehicle's maneuver energy.

* H-infinity norms are exact: the largest |H| over the stationary points of
  |H(j omega)|^2, found as polynomial roots (:func:`hinf_norm`).
* Gramians solve the Lyapunov equation as one Kronecker linear system
  (:func:`lyapunov_gramian`).
* Both time-domain constants, the impulse-L1 norm ||h||_1 (the exact
  L-inf -> L-inf gain) and eta = sup_t ||C e^{At}||, come from one blocked
  sampler of C e^{A k dt} (:func:`_response_blocks`), whose step e^{A dt}
  is the engine's own exponential (:func:`platoon_lab.sim.expm`).

Everything here runs on numpy alone; scipy's ``expm`` and
``solve_continuous_lyapunov`` stay the tests' oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .control import Gains, Scheme, scheme_rates
from .sim import expm


class UnstableTransferFunctionError(ValueError):
    """Raised when a computation requires a Hurwitz denominator and gets none."""


class NormOverflowError(ArithmeticError):
    """Raised when the polynomials behind a norm overflow the float range."""


# Dynamics decaying at or below this rate (1/s) count as unstable.
_MIN_DECAY = 1e-9
# C e^{At} is sampled over 40 decay times of its slowest mode, with at most
# 2^22 samples (about 0.2 s of work), in blocks of 4096 rows.
_DECAY_TIMES = 40.0
_SAMPLE_BUDGET = 1 << 22
_BLOCK = 1 << 12


def _decay_rate(poles: np.ndarray) -> float:
    """Slowest decay rate sigma = -max Re(pole), inf without poles; the
    state-space constants take dynamics as Hurwitz when sigma > _MIN_DECAY."""
    return -float(np.max(poles.real)) if poles.size else math.inf


@dataclass(frozen=True)
class RationalTF:
    """Strictly proper rational transfer function, as all that
    :func:`build_error_system` makes are: coefficient tuples, descending powers of s."""

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
        if len(num) >= len(den):
            raise ValueError("transfer function must be strictly proper")

    def __call__(self, s):
        return np.polyval(self.num, s) / np.polyval(self.den, s)

    def is_hurwitz(self) -> bool:
        """Routh-Hurwitz test on the coefficients; np.roots misplaces roots when they are huge."""
        sign, upper, lower = math.copysign(1.0, self.den[0]), self.den[0::2], self.den[1::2]
        while lower:
            if not sign * lower[0] > 0.0:
                return False
            upper, lower = lower, [u - upper[0] / lower[0] * v
                                   for u, v in zip(upper[1:], [*lower[1:], 0.0])]
        return True

    def dc_gain(self) -> float:
        return float(self.num[-1] / self.den[-1])

    def is_zero(self) -> bool:
        return all(c == 0.0 for c in self.num)


@dataclass(frozen=True)
class StateSpace:
    """Realization of the error-propagation chain.

    ``a`` is shared by every follower; ``b`` has one column per predecessor
    tap, realizing the transfer function of the same index in ``tfs`` (one
    for ACC and CACC, two for CACC+); ``c`` reads the spacing error.
    ``lead_tf`` is the map from the lead vehicle's achieved acceleration to
    the first follower's spacing error.  It is a transfer function because
    for CACC+ the first follower runs the one-predecessor law, so the map
    lives outside the chain realization.
    """

    a: np.ndarray
    b: np.ndarray
    c: np.ndarray
    lead_tf: RationalTF
    tfs: tuple[RationalTF, ...]

    def __post_init__(self):
        n = self.a.shape[0]
        if (self.a.shape != (n, n) or self.b.shape != (n, len(self.tfs))
                or self.c.shape[1] != n):
            raise ValueError("inconsistent state-space dimensions")


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


def _squared_magnitude(poly) -> np.ndarray:
    """Coefficients of |p(j omega)|^2 as a polynomial in x = omega^2.

    p(s) p(-s) is even in s, and s^2 = -x on the imaginary axis; descending
    powers throughout.
    """
    p = np.asarray(poly, dtype=float)
    mirrored = p * (-1.0) ** np.arange(len(p) - 1, -1, -1)  # p(-s)
    even = np.polymul(p, mirrored)[::2]
    return even * (-1.0) ** np.arange(len(even) - 1, -1, -1)


def hinf_norm(tf: RationalTF) -> float:
    """sup over omega >= 0 of |H(j omega)|, from its exact stationary points.

    With x = omega^2, |H(j omega)|^2 = N(x) / D(x), whose derivative vanishes
    only at roots of N'D - N D'.  The norm is the largest |H| at omega = 0
    and at omega = sqrt(Re x) for every root x with Re x > 0 (complex roots
    too, so a double root split by rounding is not missed; a first-order H
    has none), as a strictly proper H vanishes at omega -> inf.  Each
    candidate is a value of |H|, so the result is exact up to rounding:
    within 1e-12 relative of a zoomed dense grid on CACC and CACC+
    functions, far inside the 1e-6 a grid check may hold it to.
    """
    if tf.is_zero():
        return 0.0
    if not tf.is_hurwitz():
        raise UnstableTransferFunctionError(
            f"denominator {tf.den} is not Hurwitz; H-infinity norm undefined")
    with np.errstate(over="ignore", invalid="ignore"):
        n, d = _squared_magnitude(tf.num), _squared_magnitude(tf.den)
        stationary = np.polysub(np.polymul(np.polyder(n), d), np.polymul(n, np.polyder(d)))
    if not np.isfinite(stationary).all():
        raise NormOverflowError(f"|H(j omega)|^2 of {tf.num} / {tf.den} overflows the float range")
    x = np.roots(stationary).real
    mags = np.abs(tf(1j * np.sqrt(x[x > 0.0])))
    return float(max([abs(tf.dc_gain()), *mags]))


def string_stable_sum(norms) -> tuple[bool, float]:
    """Sufficient string-stability certificate: sum of H-infinity norms <= 1.

    Takes the links' :func:`hinf_norm` values and returns (stable, margin) with
    margin = 1 - their sum; the boolean tolerates a 1e-9 margin violation.
    """
    margin = 1.0 - sum(norms)
    return margin >= -1e-9, margin


def tf_to_ss(tf: RationalTF) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Observable-canonical realization (A, B, C) of a strictly proper TF."""
    den = np.asarray(tf.den, dtype=float)
    n = len(den) - 1
    b = np.zeros((n, 1))
    b[n - len(tf.num):, 0] = tf.num
    a = np.eye(n, k=1)
    a[:, 0] = -den[1:] / den[0]
    return a, b / den[0], np.eye(1, n)


def _response_blocks(a: np.ndarray, c: np.ndarray, max_dt: float):
    """Step dt and the rows C e^{A k dt} (``c`` one row), k = 0, 1, ..., in blocks.

    The samples cover 40 decay times 1/sigma every dt = min(max_dt, 0.02 /
    sigma) s.  The first block (C, C E, ...; E = e^{A dt}) is built by
    doubling, rows 0..m-1 times E^m giving rows m..2m-1; each later block is
    the one before times E^4096, so memory stays at one block.  Raises
    UnstableTransferFunctionError for non-Hurwitz A, and where that takes
    over 2^22 samples (sigma below about 1e-2 1/s at max_dt = 1e-3): such
    dynamics are all but marginal, and sampling them would not end.
    """
    sigma = _decay_rate(np.linalg.eigvals(a))
    if not sigma > _MIN_DECAY:
        raise UnstableTransferFunctionError(
            f"A is not Hurwitz (slowest decay rate {sigma:.3g} 1/s)")
    dt = min(max_dt, 0.02 / sigma)
    n = math.ceil(_DECAY_TIMES / (sigma * dt)) + 1
    if n > _SAMPLE_BUDGET:
        raise UnstableTransferFunctionError(
            f"dynamics decay too slowly to sample: slowest decay rate sigma = "
            f"{sigma:.3g} 1/s, and {_DECAY_TIMES:g}/sigma at dt = {dt:g} s takes "
            f"{n} samples, more than {_SAMPLE_BUDGET}")

    def blocks():
        block = np.asarray(c, dtype=float).reshape(1, -1)
        power = expm(a * dt)  # always E^(rows of block)
        while len(block) < min(n, _BLOCK):
            block = np.vstack((block, block @ power))
            power = power @ power
        for start in range(0, n, len(block)):
            yield block[:n - start]
            block = block @ power

    return dt, blocks()


def impulse_l1_norm(tf: RationalTF) -> float:
    """L1 norm of the impulse response h, the exact L-inf -> L-inf gain of H.

    The trapezoid rule on |h(t)| = |C e^{At} B| sampled by
    :func:`_response_blocks` (every 1e-3 s at most, over 40 decay times; the
    tail past them is below e^{-40}).  The quadrature error is O(dt^2),
    within 1e-6 relative on the CACC and CACC+ functions.  Raises
    UnstableTransferFunctionError as the sampler does.
    """
    a, b, c = tf_to_ss(tf)
    dt, blocks = _response_blocks(a, c, 1e-3)
    total = last = 0.0
    for block in blocks:
        h = np.abs(block @ b[:, 0])
        total += float(h.sum())
        last = float(h[-1])
    first = abs(float(c[0] @ b[:, 0]))
    return dt * (total - 0.5 * (first + last))


def lyapunov_gramian(a: np.ndarray, b_cat: np.ndarray) -> np.ndarray:
    """Solve A P + P A^T + B B^T = 0 for the controllability Gramian P.

    ``b_cat`` may stack several input columns; the equation then carries the
    summed outer products, as the two-predecessor bound requires.  Solved as
    the linear system (I kron A + A kron I) vec P = -vec(B B^T) by numpy's
    LAPACK, then symmetrized.  Raises for non-Hurwitz A, before any solve.

    The system is n^2 x n^2, so the solve costs O(n^6): nothing for the
    n = 3 of every chain :func:`build_error_system` makes (a 9 x 9 system),
    but a Gramian of the whole 3N-state platoon would need its block
    structure: numpy has no Schur factorization for a Bartels-Stewart solve.
    """
    a = np.asarray(a, dtype=float)
    b_cat = np.asarray(b_cat, dtype=float).reshape(len(a), -1)
    if not _decay_rate(np.linalg.eigvals(a)) > _MIN_DECAY:
        raise UnstableTransferFunctionError("A is not Hurwitz; Lyapunov equation has no PSD solution")
    n = len(a)
    eye = np.eye(n)
    p = np.linalg.solve(np.kron(eye, a) + np.kron(a, eye),
                        -(b_cat @ b_cat.T).reshape(-1)).reshape(n, n)
    return 0.5 * (p + p.T)


def _denominator(gains: Gains, tau: float, h_w: float, mu: float) -> tuple[float, ...]:
    """tau s^3 + s^2 + [(1+mu) K_v + (1+2 mu) K_p h_w] s + (1+mu) K_p."""
    kv, kp = gains.k_v, gains.k_p
    return (tau, 1.0, (1.0 + mu) * kv + (1.0 + 2.0 * mu) * kp * h_w, (1.0 + mu) * kp)


def build_error_system(gains: Gains, tau: float, h_w: float, scheme: Scheme,
                       gamma: float, mu: float) -> StateSpace:
    """Spacing-error propagation of every scheme, as transfer functions and
    their state-space realization.

    With (gamma, mu) taken through :func:`platoon_lab.control.scheme_rates`
    (ACC at (0, 0), CACC at (gamma, 0), CACC+ at (gamma, mu)), the chain is

        H_p1(s) = (gamma K_a s^2 + K_v s + K_p) / D_mu(s)
        H_p2(s) = mu (K_a s^2 + K_v s + K_p) / D_mu(s)

    with D_mu of :func:`_denominator`; H_p1(0) + H_p2(0) = 1.  ``tfs`` holds
    (H_p1,) for ACC and CACC, where H_p2 vanishes, and (H_p1, H_p2) for CACC+.
    The observable canonical form of D_mu serves every numerator, so the taps
    become the input columns of one (A, C).  The first follower runs the
    one-predecessor law under every scheme, so the lead-to-first-error map
    (input = achieved lead acceleration) is exact only as ``lead_tf``:

        E1(s) / A0(s) = [(gamma K_a h_w - tau) s + (gamma K_a + K_v h_w - 1)] / D_0(s)
    """
    if tau <= 0 or h_w <= 0:
        raise ValueError("tau and h_w must be positive")
    gamma, mu = scheme_rates(scheme, gamma, mu)
    ka, kv, kp = gains.k_a, gains.k_v, gains.k_p
    den = _denominator(gains, tau, h_w, mu)
    tfs = (RationalTF((gamma * ka, kv, kp), den),)
    if scheme is Scheme.CACC_PLUS:
        tfs += (RationalTF((mu * ka, mu * kv, mu * kp), den),)
    lead_tf = RationalTF((gamma * ka * h_w - tau, gamma * ka + kv * h_w - 1.0),
                         _denominator(gains, tau, h_w, 0.0))
    a, _, c = tf_to_ss(tfs[0])
    b = np.column_stack([tf_to_ss(tf)[1] for tf in tfs])
    return StateSpace(a=a, b=b, c=c, lead_tf=lead_tf, tfs=tfs)


def _sup_output_decay(a: np.ndarray, c: np.ndarray) -> float:
    """eta = sup_t ||C e^{At}||_2, the initial-condition peak-output gain,
    as the maximum over samples of :func:`_response_blocks` every <= 0.01 s."""
    _, blocks = _response_blocks(a, c, 0.01)
    return max(float(np.linalg.norm(block, axis=1).max()) for block in blocks)


def peak_output_bound(ss: StateSpace, alpha_star: float) -> PeakBound:
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
    p = lyapunov_gramian(ss.a, ss.b)
    jmat = ss.c @ p @ ss.c.T
    j = max(float(np.max(np.linalg.eigvalsh(0.5 * (jmat + jmat.T)))), 0.0)
    q = lyapunov_gramian(ss.a.T, ss.c.T)
    beta2 = math.sqrt(max(float(np.max(np.linalg.eigvalsh(q))), 0.0))
    gamma2 = hinf_norm(ss.lead_tf)
    eta = _sup_output_decay(ss.a, ss.c)
    sj = math.sqrt(j)
    if ss.b.shape[1] == 1:
        m1 = (sj * beta2 + eta) * alpha_star
        m2 = sj * gamma2
    else:
        m1 = 2.0 * sj * beta2 * alpha_star
        m2 = 2.0 * sj * gamma2
    return PeakBound(j_value=j, m1=m1, m2=m2, alpha_star=alpha_star,
                     beta2=beta2, gamma2=gamma2, eta=eta)

