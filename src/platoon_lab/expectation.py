"""Exact expectations of powers of random platoon matrices.

The closed-loop system matrix is affine in the per-link packet indicators.
For one-predecessor platoons every entry of every power is multilinear in the
(mutually independent) indicators, so expectation commutes with powers:
E[A^k] = (E[A])^k.  Two-predecessor platoons put an indicator on the diagonal
block, powers pick up squared indicators from k = 3 on, and the identity
fails.  Everything here is verified by exact enumeration over the 2^m
indicator assignments.

One sweep serves every requested exponent: the assignments are walked in
``itertools.product`` order in stacked blocks of _BLOCK realizations, each
block's matrices are powered together, and each exponent's total takes the
probability-weighted powers row by row in enumeration order.  So every total
is bitwise the one-assignment-at-a-time sum, and the stacked arrays stay
small.  fig8 and fig10 have m = 11 (2,048 assignments, about 0.07 s for
k = 0..6 on a 2-core VM); fig4's m = 19 takes about 44 s, which is why the
benchmark leaves it out.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice, product

import numpy as np

from .sim import PlatoonConfig, link_decomposition


# 2^m assignments are enumerated exactly; refuse beyond this.
MAX_ENUM_VARS = 20
# assignments per stacked block: a (32, 21, 21) stack of fig8 matrices is
# about 110 KiB; 256-row blocks raised the benchmark's peak RSS by a tenth
_BLOCK = 32


@dataclass(frozen=True)
class RandomMatrixSpec:
    """Matrix affine in named independent Bernoulli variables.

    A(x) = base + sum_v x_v * coeff[v], with x_v ~ Bernoulli(prob[v]).
    """

    base: np.ndarray
    coeffs: dict[str, np.ndarray]
    probs: dict[str, float]

    def __post_init__(self):
        object.__setattr__(self, "base", np.asarray(self.base, dtype=float))
        object.__setattr__(self, "coeffs",
                           {k: np.asarray(v, dtype=float) for k, v in self.coeffs.items()})
        if set(self.coeffs) != set(self.probs):
            raise ValueError("coeffs and probs must name the same variables")
        for name, p in self.probs.items():
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"prob[{name}]={p} outside [0, 1]")
        n = self.base.shape[0]
        if self.base.shape != (n, n):
            raise ValueError("base matrix must be square")
        for name, m in self.coeffs.items():
            if m.shape != (n, n):
                raise ValueError(f"coeff[{name}] shape mismatch")

    @property
    def names(self) -> list[str]:
        return sorted(self.coeffs)

    @property
    def n_vars(self) -> int:
        return len(self.coeffs)

    def realize(self, assignment: dict[str, float]) -> np.ndarray:
        a = self.base.copy()
        for name, val in assignment.items():
            a += val * self.coeffs[name]
        return a

    def mean_matrix(self) -> np.ndarray:
        return self.realize({name: self.probs[name] for name in self.coeffs})


def _check_enum_size(spec: RandomMatrixSpec):
    if spec.n_vars > MAX_ENUM_VARS:
        raise ValueError(
            f"{spec.n_vars} variables exceed the enumeration limit {MAX_ENUM_VARS}")


def _assignment_blocks(spec: RandomMatrixSpec):
    """Yield (probabilities, realizations) over all 2^m corner points.

    Blocks of up to _BLOCK assignments in ``itertools.product`` order over
    ``spec.names``; assignments of probability zero are dropped.  Each
    probability is the left-to-right product over the names, and each
    realization adds bit * coeff to the base in name order, as
    :meth:`RandomMatrixSpec.realize` does for one assignment.
    """
    names = spec.names
    corners = product((0.0, 1.0), repeat=len(names))
    while chunk := list(islice(corners, _BLOCK)):
        bits = np.array(chunk).reshape(len(chunk), len(names))
        pr = np.ones(len(chunk))
        for j, name in enumerate(names):
            p = spec.probs[name]
            pr *= np.where(bits[:, j] == 1.0, p, 1.0 - p)
        keep = pr != 0.0
        bits, pr = bits[keep], pr[keep]
        a = np.repeat(spec.base[None], len(pr), axis=0)
        for j, name in enumerate(names):
            a += bits[:, j, None, None] * spec.coeffs[name]
        yield pr, a


def exact_expected_power(spec: RandomMatrixSpec, ks) -> list[np.ndarray]:
    """E[A^k] for each exponent in ``ks``, from one sweep over the assignments.

    Each is the exact probability-weighted sum over all assignments, added
    in enumeration order.
    """
    ks = list(ks)
    if any(k < 0 for k in ks):
        raise ValueError("exponent must be non-negative")
    _check_enum_size(spec)
    totals = [np.zeros_like(spec.base) for _ in ks]
    for pr, a in _assignment_blocks(spec):
        for k, total in zip(ks, totals):
            for term in pr[:, None, None] * np.linalg.matrix_power(a, k):
                total += term
    return totals


def check_multilinearity(spec: RandomMatrixSpec, ks) -> list[tuple[bool, float]]:
    """For each k in ``ks``: does E[A^k] equal (E[A])^k?  (holds, Frobenius gap)."""
    ks = list(ks)
    exacts = exact_expected_power(spec, ks)
    mean = spec.mean_matrix()
    checks = []
    for k, exact in zip(ks, exacts):
        gap = float(np.linalg.norm(exact - np.linalg.matrix_power(mean, k)))
        checks.append((gap < 1e-10, gap))
    return checks


def from_platoon(config: PlatoonConfig) -> RandomMatrixSpec:
    """Random-matrix view of a platoon's closed loop.

    Variables are named w1_i (link i -> i-1) and w2_i (link i -> i-2); their
    probabilities are the long-run reception rates of the corresponding
    channels.  The affine decomposition is
    :func:`platoon_lab.sim.link_decomposition`, the one both simulation
    engines use, so all views stay in sync by construction.
    """
    from .channel import gamma_of

    base, da, _, _ = link_decomposition(config)
    names = []
    for i in range(1, config.n_followers + 1):
        names.append(f"w1_{i}")
    if config.scheme.value == "cacc_plus":
        for i in range(2, config.n_followers + 1):
            names.append(f"w2_{i}")
    gamma1 = gamma_of(config.channel)
    gamma2 = gamma_of(config.second_params())
    coeffs, probs = {}, {}
    for li, name in enumerate(names):
        coeffs[name] = da[li]
        probs[name] = gamma1 if li < config.n_followers else gamma2
    return RandomMatrixSpec(base=base, coeffs=coeffs, probs=probs)
