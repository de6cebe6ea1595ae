import math

import numpy as np
import pytest

from designed_gains import designed_kv
from platoon_lab.control import Gains, Scheme, SpacingPolicy, min_headway, scheme_rates
from platoon_lab.dynamics import VehicleState
from platoon_lab.stability import build_error_system, hinf_norm
from reference_engine import (LinkSample, acc_input, cacc_input, cacc_plus_input,
                              first_follower_input)


GAINS = Gains(0.5, 1.0, 1.0)
POLICY = SpacingPolicy(h_w=1.0, d=5.0)


class TestCaccInput:
    def test_equilibrium_is_zero(self):
        ego = VehicleState(0.0, 20.0, 0.0)
        pred = VehicleState(25.0, 20.0, 0.0)  # gap = d + h*v = 25
        assert cacc_input(ego, pred, 1.0, GAINS, POLICY) == 0.0

    def test_dropout_reduces_to_acc(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            ego = VehicleState(*rng.normal(scale=10, size=3))
            pred = VehicleState(*rng.normal(scale=10, size=3))
            dropped = cacc_input(ego, pred, LinkSample(False), GAINS, POLICY)
            assert dropped == acc_input(ego, pred, GAINS, POLICY)

    def test_hand_evaluated_example(self):
        # 0.5*1 - 1*(0 - 25 + 5 + 20) = 0.5; spacing term vanishes by construction
        ego = VehicleState(0.0, 20.0, 0.0)
        pred = VehicleState(25.0, 20.0, 1.0)
        u = cacc_input(ego, pred, LinkSample(True), GAINS, POLICY)
        # independent re-evaluation of the formula
        expected = (1.0 * GAINS.k_a * pred.a
                    - GAINS.k_v * (ego.v - pred.v)
                    - GAINS.k_p * (ego.x - pred.x + POLICY.d + POLICY.h_w * ego.v))
        assert u == pytest.approx(0.5, abs=1e-12)
        assert u == pytest.approx(expected, abs=1e-12)

    def test_weight_range_validation(self):
        ego = pred = VehicleState(0.0, 0.0, 0.0)
        with pytest.raises(ValueError):
            cacc_input(ego, pred, 1.5, GAINS, POLICY)


class TestCaccPlusInput:
    def test_equilibrium_is_zero(self):
        ego = VehicleState(0.0, 20.0, 0.0)
        p1 = VehicleState(25.0, 20.0, 0.0)
        p2 = VehicleState(50.0, 20.0, 0.0)
        assert cacc_plus_input(ego, p1, p2, 1.0, 1.0, GAINS, POLICY) == 0.0

    def test_second_link_down_degrades_to_cacc(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            ego, p1, p2 = (VehicleState(*rng.normal(scale=5, size=3)) for _ in range(3))
            w1 = float(rng.integers(2))
            u = cacc_plus_input(ego, p1, p2, w1, 0.0, GAINS, POLICY)
            assert u == cacc_input(ego, p1, w1, GAINS, POLICY)

    def test_gamma_weighted_second_bracket(self):
        ego = VehicleState(0.0, 20.0, 0.0)
        p1 = VehicleState(25.0, 20.0, 0.0)
        p2 = VehicleState(51.0, 21.0, 0.5)
        g = 0.467
        u = cacc_plus_input(ego, p1, p2, g, g, GAINS, POLICY)
        second = (GAINS.k_a * p2.a - GAINS.k_v * (ego.v - p2.v)
                  - GAINS.k_p * (ego.x - p2.x + 2 * POLICY.d + 2 * POLICY.h_w * ego.v))
        assert u == pytest.approx(cacc_input(ego, p1, g, GAINS, POLICY) + g * second, abs=1e-12)


def test_first_follower_delegates_to_cacc():
    ego = VehicleState(1.0, 19.0, 0.2)
    pred = VehicleState(26.0, 20.5, -0.1)
    for w in (LinkSample(True), LinkSample(False), 0.467):
        assert first_follower_input(ego, pred, w, GAINS, POLICY) == \
            cacc_input(ego, pred, w, GAINS, POLICY)


# each scheme's minimum headway at its rates, CACC+ with a common rate
def acc(tau):
    return min_headway(tau, 0.0, 0.0, 0.8)


def cacc(tau, g, ka):
    return min_headway(tau, g, 0.0, ka)


def cacc_plus(tau, g, ka):
    return min_headway(tau, g, g, ka)


class TestMinHeadways:
    def test_scheme_closed_forms_exactly(self):
        # each scheme's rates give its closed form to the last bit
        rng = np.random.default_rng(19)
        for _ in range(2000):
            tau, g, ka = rng.uniform(0.0, 1.0), rng.uniform(0.0, 1.0), rng.uniform(0.0, 2.0)
            mu = rng.uniform(0.0, 1.0)
            assert min_headway(tau, *scheme_rates(Scheme.ACC, g, mu), ka) == 2.0 * tau
            assert min_headway(tau, *scheme_rates(Scheme.CACC, g, mu), ka) == \
                2.0 * tau / (1.0 + g * ka)
            assert min_headway(tau, *scheme_rates(Scheme.CACC_PLUS, g, g), ka) == \
                2.0 * tau * (1.0 + g) / ((1.0 + 2.0 * g) * (1.0 + g * (1.0 + g) * ka))

    def test_scheme_rates(self):
        assert scheme_rates(Scheme.ACC, 0.4, 0.3) == (0.0, 0.0)
        assert scheme_rates(Scheme.CACC, 0.4, 0.3) == (0.4, 0.0)
        assert scheme_rates(Scheme.CACC_PLUS, 0.4, 0.3) == (0.4, 0.3)

    def test_acc_paper_values(self):
        assert acc(0.37) == pytest.approx(0.74, abs=1e-12)
        assert acc(0.4) == pytest.approx(0.8, abs=1e-12)
        assert acc(0.0) == 0.0

    def test_cacc_paper_value(self):
        assert cacc(0.37, 0.467, 0.8) == pytest.approx(0.538, abs=0.002)

    def test_cacc_gamma_zero_falls_back_to_acc(self):
        for tau in (0.2, 0.37, 0.4):
            assert cacc(tau, 0.0, 0.8) == acc(tau)

    def test_cacc_bracket_for_small_gain(self):
        lo = 2 * 0.4 / (1 + 0.05)
        val = cacc(0.4, 0.467, 0.05)
        assert lo < val < 2 * 0.4

    def test_cacc_plus_paper_values(self):
        assert cacc_plus(0.4, 0.467, 0.2) == pytest.approx(0.53, abs=0.01)
        assert cacc_plus(0.4, 1.0, 0.2) == pytest.approx(0.381, abs=0.002)
        assert cacc_plus(0.37, 0.467, 0.75) == pytest.approx(0.371, abs=0.002)

    def test_cacc_plus_gamma_zero_is_acc(self):
        for tau in (0.37, 0.4):
            assert cacc_plus(tau, 0.0, 0.6) == pytest.approx(2 * tau, abs=1e-12)

    def test_mu_equal_gamma_reduces(self):
        for g in (0.0, 0.3, 0.467, 1.0):
            assert min_headway(0.4, g, g, 0.2) == cacc_plus(0.4, g, 0.2)

    def test_mu_zero_substitution(self):
        # with its second link off the two-predecessor law is CACC
        g, tau, ka = 0.7, 0.4, 0.3
        assert min_headway(tau, g, 0.0, ka) == 2.0 * tau / (1.0 + g * ka)

    def test_mu_variant_direct_substitution(self):
        # independent evaluation of the printed expression at one point
        tau, g, mu, ka = 0.4, 0.467, 0.2, 0.2
        expected = 2 * tau * (1 + mu) / ((1 + 2 * mu) * (1 + g * (1 + mu) * ka))
        assert min_headway(tau, g, mu, ka) == pytest.approx(expected, abs=1e-15)

    @pytest.mark.parametrize("mu", [0.0, 1.0 / 6.0, 0.467, 0.8])
    def test_exact_threshold_at_designed_gain(self, mu):
        # at the designed k_v, |H_p1| / H_p1(0) touches 1 at h_min and
        # exceeds it just below, for every k_p (hinf_norm is the oracle)
        tau, g, ka = 0.4, 0.467, 0.2
        hm = min_headway(tau, g, mu, ka)
        for kp in (0.5, 1.0, 3.0):
            gains = Gains(ka, designed_kv(g, mu, ka, tau), kp)

            def ratio(h):
                tf = build_error_system(gains, tau, h, Scheme.CACC_PLUS, g, mu).tfs[0]
                return hinf_norm(tf) * (1.0 + mu)

            assert ratio(hm) <= 1.0 + 1e-9
            assert ratio(0.99 * hm) > 1.0

    def test_monotone_decreasing_in_gamma_and_gain(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            tau = rng.uniform(0.1, 0.8)
            ka = rng.uniform(0.05, 1.5)
            g1, g2 = sorted(rng.uniform(0.01, 1.0, size=2))
            if g1 == g2:
                continue
            assert cacc(tau, g2, ka) < cacc(tau, g1, ka)
            assert cacc_plus(tau, g2, ka) < cacc_plus(tau, g1, ka)
            ka2 = ka + rng.uniform(0.05, 0.5)
            assert cacc(tau, g1, ka2) < cacc(tau, g1, ka)

    def test_scheme_ordering_at_paper_gain_sets(self):
        # CACC+ <= CACC <= ACC across gamma, for the paper's gain sets
        for ka in (0.2, 0.75, 0.8):
            for tau in (0.37, 0.4):
                for g in np.linspace(0.05, 1.0, 12):
                    assert cacc_plus(tau, g, ka) <= cacc(tau, g, ka) <= acc(tau)

    def test_domain_validation(self):
        for args in ((0.4, 1.5, 0.0, 0.2), (0.4, 0.5, 0.0, -0.2), (0.4, 0.5, 1.2, 0.2),
                     (-0.1, 0.5, 0.5, 0.2), (math.nan, 0.5, 0.5, 0.2),
                     (0.4, math.nan, 0.5, 0.2), (0.4, 0.5, math.nan, 0.2),
                     (0.4, 0.5, 0.5, math.nan), (0.4, 0.5, 0.5, math.inf)):
            with pytest.raises(ValueError):
                min_headway(*args)
        for rates in ((1.5, 0.0), (0.5, math.nan), (math.nan, 0.5)):
            with pytest.raises(ValueError):
                scheme_rates(Scheme.CACC, *rates)


class TestTypes:
    def test_gain_validation(self):
        with pytest.raises(ValueError):
            Gains(0.2, 0.0, 1.0)
        with pytest.raises(ValueError):
            Gains(-0.1, 1.0, 1.0)

    def test_policy_validation(self):
        with pytest.raises(ValueError):
            SpacingPolicy(h_w=0.0)
        with pytest.raises(ValueError):
            SpacingPolicy(h_w=0.5, d=-1.0)
