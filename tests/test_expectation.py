from dataclasses import replace

import numpy as np
import pytest
from scipy.linalg import expm

import reference_engine as ref
from helpers import closed_loop
from platoon_lab.channel import GilbertParams
from platoon_lab.control import Gains, Scheme, SpacingPolicy
from platoon_lab.dynamics import TimeGrid
from platoon_lab.expectation import (NonFiniteExpectationError, check_multilinearity,
                                     exact_expected_power, from_platoon)
from platoon_lab.scenario import load_scenario
from platoon_lab.sim import PlatoonConfig


def platoon_config(scheme, n_followers=2, k_a=0.2):
    return PlatoonConfig(
        n_followers=n_followers, tau=0.4, gains=Gains(k_a, 2.5, 1.0),
        policy=SpacingPolicy(h_w=0.45, d=5.0), scheme=scheme,
        grid=TimeGrid(0.01, 1.0), channel=GilbertParams(0.2, 0.1, 0.2))


def platoon_spec(scheme, **kw):
    cfg = platoon_config(scheme, **kw)
    return cfg, from_platoon(cfg)


def scaled(spec, factor):
    """The same random matrix times ``factor``: base and every link's coefficients."""
    return replace(spec, base=factor * spec.base,
                   coeffs={v: factor * c for v, c in spec.coeffs.items()})


class TestRandomMatrixSpec:
    def test_realization_matches_system_matrix(self):
        cfg, spec = platoon_spec(Scheme.CACC_PLUS)
        rng = np.random.default_rng(1)
        for _ in range(5):
            bits = rng.integers(0, 2, cfg.n_links).astype(float)
            direct = closed_loop(cfg, bits)[0]
            via_spec = spec.realize({"w1_1": bits[0], "w1_2": bits[1], "w2_2": bits[2]})
            np.testing.assert_allclose(via_spec, direct, atol=1e-14)

    def test_mean_matrix_uses_reception_rates(self):
        cfg, spec = platoon_spec(Scheme.CACC)
        g = 1.0 - 0.2 * (1 - 0.2) / 0.3
        np.testing.assert_allclose(spec.mean_matrix(),
                                   closed_loop(cfg, np.full(2, g))[0], atol=1e-14)


class TestExactExpectedPower:
    def test_k1_is_entrywise_mean(self):
        _, spec = platoon_spec(Scheme.CACC_PLUS)
        np.testing.assert_allclose(exact_expected_power(spec, [1])[0], spec.mean_matrix(),
                                   atol=1e-14)

    def test_deterministic_spec_is_plain_power(self):
        # ACC weighs no radioed term, so no vehicle conditions on a link
        _, spec = platoon_spec(Scheme.ACC)
        assert spec.vehicles == ((), (), ())
        np.testing.assert_allclose(exact_expected_power(spec, [3])[0],
                                   np.linalg.matrix_power(spec.base, 3), atol=1e-14)

    def test_cacc_identity_k4(self):
        _, spec = platoon_spec(Scheme.CACC)
        exact = exact_expected_power(spec, [4])[0]
        np.testing.assert_allclose(
            exact, np.linalg.matrix_power(spec.mean_matrix(), 4), atol=1e-10)


class TestMultilinearity:
    def test_cacc_holds_through_k6(self):
        _, spec = platoon_spec(Scheme.CACC)
        for k, (holds, gap) in zip(range(1, 7), check_multilinearity(spec, range(1, 7))):
            assert holds, f"k={k} gap={gap}"

    def test_cacc_plus_fails_from_k3(self):
        _, spec = platoon_spec(Scheme.CACC_PLUS)
        *low, (holds, gap) = check_multilinearity(spec, [1, 2, 3])
        for k, (holds_k, gap_k) in zip((1, 2), low):
            assert holds_k, f"k={k} gap={gap_k}"
        assert not holds
        assert gap > 1e-6

    def test_verdict_is_relative_to_the_power(self):
        # scaling A by 1e3 scales A^6 by 1e18 and its rounding with it; the
        # identity still holds for CACC and still fails from k = 3 for CACC+
        for scheme, expected in ((Scheme.CACC, [True] * 6),
                                 (Scheme.CACC_PLUS, [True, True] + [False] * 4)):
            _, spec = platoon_spec(scheme)
            checks = check_multilinearity(scaled(spec, 1e3), range(1, 7))
            assert [holds for holds, _ in checks] == expected, checks

    @pytest.mark.parametrize("scale, first_bad", [(1e60, 3), (1e160, 1)])
    def test_powers_out_of_float_range_refused(self, scale, first_bad):
        # a gap of inf <= 1e-12 * inf once read as "holds".  On the CACC+
        # platoon (E[A])^k stays finite through k = 5 at 1e60 and k = 1 at
        # 1e160, but its Frobenius norm overflows from k = 3 and k = 1
        _, spec = platoon_spec(Scheme.CACC_PLUS)
        with pytest.raises(NonFiniteExpectationError, match=f"k = {first_bad}:"):
            check_multilinearity(scaled(spec, scale), range(1, 7))

    def test_gap_grows_with_power(self):
        _, spec = platoon_spec(Scheme.CACC_PLUS)
        gaps = [gap for _, gap in check_multilinearity(spec, (3, 4, 5))]
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
        names = list(spec.probs)
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
        names = list(spec.probs)
        ps = np.array([spec.probs[m] for m in names])
        n = 20000
        total = np.zeros_like(spec.base)
        for _ in range(n):
            bits = (rng.random(len(names)) < ps).astype(float)
            total += np.linalg.matrix_power(spec.realize(dict(zip(names, bits))), 3)
        mc = total / n
        exact = exact_expected_power(spec, [3])[0]
        cubes = [np.linalg.matrix_power(spec.realize(a), 3)
                 for _, a in _all_assignments(spec)]
        spread = np.max(np.abs(np.max(cubes, axis=0) - np.min(cubes, axis=0)))
        assert np.max(np.abs(mc - exact)) < 4.0 * spread / np.sqrt(n)


def _all_assignments(spec):
    return list(ref.assignments(spec))


KS = range(7)


def assert_sweep_matches_oracle(spec, ks=KS):
    """Every exponent is within 1e-12 * max(1, ||oracle||_F) of the one-at-a-time sum."""
    ks = list(ks)
    sweep = exact_expected_power(spec, ks)
    assert len(sweep) == len(ks)
    for k, total in zip(ks, sweep):
        oracle = ref.exact_expected_power(spec, k)
        gap = np.linalg.norm(total - oracle)
        assert gap <= 1e-12 * max(1.0, np.linalg.norm(oracle)), f"k={k} gap={gap}"


def _channel(rng):
    """A Gilbert channel whose reception rate is 0, 1 or drawn at random."""
    kind = rng.integers(3)
    if kind == 0:
        return GilbertParams(1.0, 0.0, 0.0)
    if kind == 1:
        return GilbertParams(0.0, 1.0, rng.random())
    return GilbertParams(*rng.uniform(0.05, 0.95, 3))


def _random_platoon(seed):
    """Random platoon: any scheme, 1-5 followers (2-5 for CACC+), k_a = 0
    in a quarter of the draws, and first and second channels at rates 0, 1
    or in between."""
    rng = np.random.default_rng(seed)
    scheme = list(Scheme)[seed % 3]
    return PlatoonConfig(
        n_followers=int(rng.integers(2 if scheme is Scheme.CACC_PLUS else 1, 6)),
        tau=rng.uniform(0.1, 1.0),
        gains=Gains(0.0 if rng.random() < 0.25 else rng.uniform(0.05, 1.0),
                    rng.uniform(0.1, 3.0), rng.uniform(0.1, 3.0)),
        policy=SpacingPolicy(h_w=rng.uniform(0.1, 1.5), d=5.0), scheme=scheme,
        grid=TimeGrid(0.01, 1.0), channel=_channel(rng), channel_second=_channel(rng))


class TestSweepMatchesOracle:
    @pytest.mark.parametrize("preset", ["paper-fig8", "paper-fig9", "paper-fig10"])
    def test_preset_specs(self, preset):
        assert_sweep_matches_oracle(from_platoon(load_scenario(preset).config))

    def test_no_variables(self):
        _, spec = platoon_spec(Scheme.ACC)
        assert_sweep_matches_oracle(replace(spec, coeffs={}, probs={}))

    def test_certain_and_impossible_variables(self):
        # probabilities 0 and 1 zero out half the corner points each; the
        # sweep must drop the same assignments the oracle skips
        _, spec = platoon_spec(Scheme.CACC_PLUS, n_followers=3)
        probs = dict(zip(["w1_1", "w1_2", "w1_3", "w2_2", "w2_3"], [0.0, 0.3, 1.0, 0.6, 0.5]))
        assert probs.keys() == spec.probs.keys()
        assert_sweep_matches_oracle(replace(spec, probs=probs))

    @pytest.mark.parametrize("seed", range(36))
    def test_random_platoons(self, seed):
        assert_sweep_matches_oracle(from_platoon(_random_platoon(seed)))

    def test_platoon_partition_is_vehicle_blocks(self):
        # leader plus six followers: follower i conditioned on its own links
        # w1_i and (from i = 2) w2_i, each where it carries a term of the law
        cases = {
            (Scheme.CACC_PLUS, 0.2): [(), ("w1_1",),
                                      *((f"w1_{i}", f"w2_{i}") for i in range(2, 7))],
            # at k_a = 0 the (i, i-1) link carries no term, the (i, i-2) link does
            (Scheme.CACC_PLUS, 0.0): [(), (), *((f"w2_{i}",) for i in range(2, 7))],
            (Scheme.CACC, 0.2): [(), *((f"w1_{i}",) for i in range(1, 7))],
            (Scheme.CACC, 0.0): [()] * 7,
            (Scheme.ACC, 0.2): [()] * 7,
        }
        for (scheme, k_a), links in cases.items():
            spec = from_platoon(platoon_config(scheme, n_followers=6, k_a=k_a))
            assert list(spec.vehicles) == links, (scheme, k_a)
            # block lower triangular by vehicle, base and links alike
            reach = (spec.base != 0) | np.any([c != 0 for c in spec.coeffs.values()], axis=0)
            rows, cols = np.nonzero(reach)
            assert (cols // 3 <= rows // 3).all()
            # a recorded link reaches its vehicle's rows only, the others no row
            for i, names in enumerate(spec.vehicles):
                for name in names:
                    assert (np.flatnonzero(spec.coeffs[name].any(axis=1)) // 3 == i).all()
            recorded = {name for names in spec.vehicles for name in names}
            assert not any(spec.coeffs[name].any() for name in set(spec.coeffs) - recorded)

    def test_repeated_and_unordered_exponents(self):
        _, spec = platoon_spec(Scheme.CACC_PLUS)
        assert_sweep_matches_oracle(spec, [4, 1, 4, 0])

    def test_negative_exponent_rejected(self):
        _, spec = platoon_spec(Scheme.CACC)
        with pytest.raises(ValueError, match="non-negative"):
            exact_expected_power(spec, [2, -1])
