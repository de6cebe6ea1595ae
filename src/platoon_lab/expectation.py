"""Exact expectations of powers of random platoon matrices.

The closed-loop system matrix is affine in the per-link packet indicators.
For one-predecessor platoons every entry of every power is multilinear in the
(mutually independent) indicators, so expectation commutes with powers:
E[A^k] = (E[A])^k.  Two-predecessor platoons put an indicator on the diagonal
block, powers pick up squared indicators from k = 3 on, and the identity
fails.  Everything here is verified by exact enumeration over the 2^m
indicator assignments, which is cheap for platoon-sized m.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

import numpy as np

from .sim import PlatoonConfig, link_decomposition


# 2^m assignments are enumerated exactly; refuse beyond this.
MAX_ENUM_VARS = 20


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


def _assignments(spec: RandomMatrixSpec):
    """Yield (probability, assignment) over all 2^m corner points."""
    names = spec.names
    for bits in product((0.0, 1.0), repeat=len(names)):
        pr = 1.0
        for name, b in zip(names, bits):
            p = spec.probs[name]
            pr *= p if b == 1.0 else (1.0 - p)
        if pr == 0.0:
            continue
        yield pr, dict(zip(names, bits))


def _check_enum_size(spec: RandomMatrixSpec):
    if spec.n_vars > MAX_ENUM_VARS:
        raise ValueError(
            f"{spec.n_vars} variables exceed the enumeration limit {MAX_ENUM_VARS}")


def exact_expected_power(spec: RandomMatrixSpec, k: int) -> np.ndarray:
    """E[A^k] as the exact probability-weighted sum over all assignments."""
    if k < 0:
        raise ValueError("exponent must be non-negative")
    _check_enum_size(spec)
    total = np.zeros_like(spec.base)
    for pr, assignment in _assignments(spec):
        total += pr * np.linalg.matrix_power(spec.realize(assignment), k)
    return total


def check_multilinearity(spec: RandomMatrixSpec, k: int) -> tuple[bool, float]:
    """Does E[A^k] equal (E[A])^k?  Returns (holds, Frobenius gap)."""
    exact = exact_expected_power(spec, k)
    mean_pow = np.linalg.matrix_power(spec.mean_matrix(), k)
    gap = float(np.linalg.norm(exact - mean_pow))
    return gap < 1e-10, gap


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
