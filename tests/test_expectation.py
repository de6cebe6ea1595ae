import numpy as np
import pytest
from scipy.linalg import expm

from platoon_lab.channel import GilbertParams
from platoon_lab.control import Gains, Scheme, SpacingPolicy
from platoon_lab.dynamics import TimeGrid
from platoon_lab.expectation import (RandomMatrixSpec, check_multilinearity,
                                     exact_expected_power, from_platoon)
from platoon_lab.sim import PlatoonConfig, build_system_matrix


def platoon_spec(scheme):
    cfg = PlatoonConfig(
        n_followers=2, tau=0.4, gains=Gains(0.2, 2.5, 1.0),
        policy=SpacingPolicy(h_w=0.45, d=5.0), scheme=scheme,
        grid=TimeGrid(0.01, 1.0), channel=GilbertParams(0.2, 0.1, 0.2))
    return cfg, from_platoon(cfg)


class TestRandomMatrixSpec:
    def test_realization_matches_system_matrix(self):
        cfg, spec = platoon_spec(Scheme.CACC_PLUS)
        rng = np.random.default_rng(1)
        for _ in range(5):
            bits = rng.integers(0, 2, cfg.n_links).astype(float)
            assignment = dict(zip(spec.names, bits[[0, 1, 2]]))
            # names sort as w1_1, w1_2, w2_2 matching the link ordering
            direct = build_system_matrix(cfg, bits)
            via_spec = spec.realize({"w1_1": bits[0], "w1_2": bits[1], "w2_2": bits[2]})
            np.testing.assert_allclose(via_spec, direct, atol=1e-14)
            del assignment

    def test_mean_matrix_uses_reception_rates(self):
        cfg, spec = platoon_spec(Scheme.CACC)
        g = 1.0 - 0.2 * (1 - 0.2) / 0.3
        np.testing.assert_allclose(spec.mean_matrix(),
                                   build_system_matrix(cfg, np.full(2, g)), atol=1e-14)

    def test_enumeration_limit(self):
        n = 25
        spec = RandomMatrixSpec(np.zeros((2, 2)),
                                {f"v{i}": np.eye(2) for i in range(n)},
                                {f"v{i}": 0.5 for i in range(n)})
        with pytest.raises(ValueError, match="enumeration limit"):
            exact_expected_power(spec, 2)


class TestExactExpectedPower:
    def test_k1_is_entrywise_mean(self):
        _, spec = platoon_spec(Scheme.CACC_PLUS)
        np.testing.assert_allclose(exact_expected_power(spec, 1), spec.mean_matrix(),
                                   atol=1e-14)

    def test_deterministic_spec_is_plain_power(self):
        a = np.array([[0.0, 1.0], [-1.0, -0.5]])
        spec = RandomMatrixSpec(a, {}, {})
        np.testing.assert_allclose(exact_expected_power(spec, 3),
                                   np.linalg.matrix_power(a, 3), atol=1e-14)

    def test_cacc_identity_k4(self):
        _, spec = platoon_spec(Scheme.CACC)
        exact = exact_expected_power(spec, 4)
        np.testing.assert_allclose(
            exact, np.linalg.matrix_power(spec.mean_matrix(), 4), atol=1e-10)


class TestMultilinearity:
    def test_cacc_holds_through_k6(self):
        _, spec = platoon_spec(Scheme.CACC)
        for k in range(1, 7):
            holds, gap = check_multilinearity(spec, k)
            assert holds, f"k={k} gap={gap}"

    def test_cacc_plus_fails_from_k3(self):
        _, spec = platoon_spec(Scheme.CACC_PLUS)
        for k in (1, 2):
            holds, gap = check_multilinearity(spec, k)
            assert holds, f"k={k} gap={gap}"
        holds, gap = check_multilinearity(spec, 3)
        assert not holds
        assert gap > 1e-6

    def test_gap_grows_with_power(self):
        _, spec = platoon_spec(Scheme.CACC_PLUS)
        gaps = [check_multilinearity(spec, k)[1] for k in (3, 4, 5)]
        assert gaps[0] < gaps[1] < gaps[2]


class TestAppendixRecursions:
    def test_block_power_recursions_match_direct_powers(self):
        # lower block-triangular [A0 0 0; B1 A0 0; 0 B2 A0] with rank-one
        # random couplings: the off-diagonal blocks of A_L^k satisfy
        #   A1_{k+1} = B1 A0^k + A0 A1_k
        #   A2_{k+1} = B2 A0^k + A0 A2_k
        #   A3_{k+1} = B2 A1_k + A0 A3_k
        rng = np.random.default_rng(9)
        a0 = rng.normal(size=(3, 3))
        e3 = np.zeros((3, 1))
        e3[2, 0] = 1.0
        b1 = e3 @ rng.normal(size=(1, 3))
        b2 = e3 @ rng.normal(size=(1, 3))
        al = np.block([[a0, np.zeros((3, 3)), np.zeros((3, 3))],
                       [b1, a0, np.zeros((3, 3))],
                       [np.zeros((3, 3)), b2, a0]])
        a1k = b1.copy()
        a2k = b2.copy()
        a3k = np.zeros((3, 3))
        for k in range(1, 8):
            pw = np.linalg.matrix_power(al, k)
            a0k = np.linalg.matrix_power(a0, k)
            np.testing.assert_allclose(pw[3:6, 0:3], a1k, atol=1e-12)
            np.testing.assert_allclose(pw[6:9, 3:6], a2k, atol=1e-12)
            np.testing.assert_allclose(pw[6:9, 0:3], a3k, atol=1e-12)
            a3k = b2 @ a1k + a0 @ a3k
            a1k = b1 @ a0k + a0 @ a1k
            a2k = b2 @ a0k + a0 @ a2k


def expected_exponential(spec, dt):
    """E[exp(A dt)] by exact enumeration over the indicator assignments."""
    return sum(pr * expm(spec.realize(a) * dt) for pr, a in _all_assignments(spec))


class TestExpectedExponential:
    def test_cacc_exponential_gap_vanishes(self):
        # termwise consequence of the power identity: E[e^{A dt}] = e^{Abar dt}
        _, spec = platoon_spec(Scheme.CACC)
        exact = expected_exponential(spec, 0.01)
        gap = np.linalg.norm(exact - expm(spec.mean_matrix() * 0.01))
        assert gap < 1e-12

    def test_cacc_plus_exponential_gap_positive(self):
        # the approximation error the deterministic gamma system accepts:
        # strictly positive, reported for the record
        _, spec = platoon_spec(Scheme.CACC_PLUS)
        exact = expected_exponential(spec, 0.01)
        gap = np.linalg.norm(exact - expm(spec.mean_matrix() * 0.01))
        print(f"\nCACC+ exact E[exp(A dt)] vs exp(Abar dt) Frobenius gap: {gap:.3e}")
        assert gap > 1e-9

    def test_monte_carlo_consistent_with_enumeration(self):
        # 4-sigma agreement between the sampler and the exact enumeration
        _, spec = platoon_spec(Scheme.CACC_PLUS)
        dt, n = 0.01, 20000
        rng = np.random.default_rng(7)
        names = spec.names
        ps = np.array([spec.probs[m] for m in names])
        mc = np.zeros_like(spec.base)
        for _ in range(n):
            bits = (rng.random(len(names)) < ps).astype(float)
            mc += expm(spec.realize(dict(zip(names, bits))) * dt)
        mc /= n
        exact = expected_exponential(spec, dt)
        # entrywise spread of exp(A dt) over assignments bounds the MC sigma
        mats = [expm(spec.realize(a) * dt) for _, a in
                [(p, a) for p, a in _all_assignments(spec)]]
        spread = np.max(np.abs(np.max(mats, axis=0) - np.min(mats, axis=0)))
        sigma = spread / np.sqrt(n)
        assert np.max(np.abs(mc - exact)) < 4.0 * sigma

    def test_mc_power_consistency(self):
        # exact_expected_power agrees with a direct sampling estimate within
        # four sigma, with sigma bounded by the entrywise assignment spread
        _, spec = platoon_spec(Scheme.CACC_PLUS)
        rng = np.random.default_rng(3)
        names = spec.names
        ps = np.array([spec.probs[m] for m in names])
        n = 20000
        total = np.zeros_like(spec.base)
        for _ in range(n):
            bits = (rng.random(len(names)) < ps).astype(float)
            total += np.linalg.matrix_power(spec.realize(dict(zip(names, bits))), 3)
        mc = total / n
        exact = exact_expected_power(spec, 3)
        cubes = [np.linalg.matrix_power(spec.realize(a), 3)
                 for _, a in _all_assignments(spec)]
        spread = np.max(np.abs(np.max(cubes, axis=0) - np.min(cubes, axis=0)))
        assert np.max(np.abs(mc - exact)) < 4.0 * spread / np.sqrt(n)


def _all_assignments(spec):
    from platoon_lab.expectation import _assignments
    return list(_assignments(spec))
