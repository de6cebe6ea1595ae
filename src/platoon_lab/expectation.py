"""Exact expectations of powers of a platoon's random closed-loop matrix.

The closed-loop matrix A(w) is affine in the per-link packet indicators w,
which are mutually independent Bernoulli variables at their links' reception
rates.  For one-predecessor platoons every entry of every power is
multilinear in them, so expectation commutes with powers: E[A^k] = (E[A])^k.
Two-predecessor platoons put an indicator on the diagonal block, powers pick
up squared indicators from k = 3 on, and the identity fails.

E[A^k] is exact without walking all 2^m assignments.  A is block lower
triangular by vehicle: vehicle i's rows B_i = 3i..3i+2 reach no later
vehicle's columns, and only its own links (i, i-1) and (i, i-2) enter them.
Rows B_i of A then depend only on the assignment s of those links, and the
rows above them not at all, so

    C_s(k) = E[(A^k)[B_i, :] | s] = R_s[:, :a] @ E[A^(k-1)][:a] + R_s[:, B_i] @ C_s(k-1)

with R_s = A(s)[B_i, :], a = 3i and C_s(0) = I[B_i]; taking vehicles front
to back, E[A^k][B_i] = sum_s p_s C_s(k).  That is at most four assignments
per vehicle and max(ks) small products each: milliseconds on fig4 (19
links), where the 2^19 enumeration took a minute and its rounding flipped
the k = 2 verdict.  It agrees with the enumeration to about 1e-14 relative
on the presets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product

import numpy as np

from .sim import PlatoonConfig, link_decomposition


class NonFiniteExpectationError(ArithmeticError):
    """E[A^k] or (E[A])^k, or their Frobenius norms, left the float range."""


@dataclass(frozen=True)
class RandomMatrixSpec:
    """A platoon's closed loop, affine in named independent Bernoulli links.

    A(x) = base + sum_v x_v * coeffs[v], with x_v ~ Bernoulli(probs[v]).
    ``vehicles[i]`` names the links whose coefficients reach vehicle i's rows
    3i..3i+2, (i, i-1) before (i, i-2); a link with no nonzero coefficient
    is left out.
    """

    base: np.ndarray
    coeffs: dict[str, np.ndarray]
    probs: dict[str, float]
    vehicles: tuple[tuple[str, ...], ...]

    def realize(self, assignment: dict[str, float]) -> np.ndarray:
        a = self.base.copy()
        for name, val in assignment.items():
            a += val * self.coeffs[name]
        return a

    def mean_matrix(self) -> np.ndarray:
        return self.realize({name: self.probs[name] for name in self.coeffs})


def exact_expected_power(spec: RandomMatrixSpec, ks) -> list[np.ndarray]:
    """E[A^k] for each exponent in ``ks``, from one vehicle-conditioned recursion.

    Each vehicle's assignments are walked in ``itertools.product`` order over
    its links, dropping those of probability zero.
    """
    ks = list(ks)
    if any(k < 0 for k in ks):
        raise ValueError("exponent must be non-negative")
    n = spec.base.shape[0]
    powers = np.zeros((max(ks, default=0) + 1, n, n))
    powers[0] = np.eye(n)
    for i, links in enumerate(spec.vehicles):
        start, stop = 3 * i, 3 * i + 3
        for bits in product((0.0, 1.0), repeat=len(links)):
            pr = math.prod(spec.probs[v] if b else 1.0 - spec.probs[v]
                           for v, b in zip(links, bits))
            if pr == 0.0:
                continue
            rows = spec.realize(dict(zip(links, bits)))[start:stop]
            cond = powers[0, start:stop]
            for k in range(1, len(powers)):
                cond = rows[:, :start] @ powers[k - 1, :start] + rows[:, start:stop] @ cond
                powers[k, start:stop] += pr * cond
    return [powers[k].copy() for k in ks]


def check_multilinearity(spec: RandomMatrixSpec, ks) -> list[tuple[bool, float]]:
    """For each k in ``ks``: does E[A^k] equal (E[A])^k?  (holds, Frobenius gap).

    The identity holds when the gap is at most 1e-12 * max(1, ||(E[A])^k||_F).
    Raises NonFiniteExpectationError where the gap or ||(E[A])^k||_F is not
    finite (so either power is not), since no verdict follows from them.
    """
    ks = list(ks)
    with np.errstate(over="ignore", invalid="ignore"):
        exacts = exact_expected_power(spec, ks)
        mean = spec.mean_matrix()
        powers = [np.linalg.matrix_power(mean, k) for k in ks]
        gaps = [float(np.linalg.norm(e - p)) for e, p in zip(exacts, powers)]
        norms = [float(np.linalg.norm(p)) for p in powers]
    for k, gap, norm in zip(ks, gaps, norms):
        if not math.isfinite(gap + norm):
            raise NonFiniteExpectationError(
                f"k = {k}: E[A^k], (E[A])^k or their Frobenius norms are not finite "
                f"(closed-loop entries up to {float(np.abs(mean).max()):.3g})")
    return [(gap <= 1e-12 * max(1.0, norm), gap) for gap, norm in zip(gaps, norms)]


def from_platoon(config: PlatoonConfig) -> RandomMatrixSpec:
    """Random-matrix view of a platoon's closed loop.

    Variables are named w1_i (link i -> i-1) and w2_i (link i -> i-2); their
    probabilities are the long-run reception rates of their channels.  The
    affine decomposition is :func:`platoon_lab.sim.link_decomposition`, the
    one both simulation engines use, so the views agree by construction.
    """
    base, da, _, _ = link_decomposition(config)
    n_f = config.n_followers
    names = ([f"w1_{i}" for i in range(1, n_f + 1)]
             + [f"w2_{i}" for i in range(2, 2 + config.n_second_links)])
    coeffs = dict(zip(names, da))
    rates = config.link_rates()
    # a link with no term in the law (every link of ACC, the (i, i-1) links
    # at k_a = 0) conditions no vehicle
    vehicles = tuple(tuple(v for v in (f"w1_{i}", f"w2_{i}") if v in coeffs and coeffs[v].any())
                     for i in range(n_f + 1))
    return RandomMatrixSpec(base=base, coeffs=coeffs,
                            probs={name: rates[li >= n_f] for li, name in enumerate(names)},
                            vehicles=vehicles)
