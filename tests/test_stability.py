import math
import re

import numpy as np
import pytest
from scipy.linalg import solve_lyapunov
from scipy.signal import ss2tf

import reference_engine as ref
from designed_gains import designed_kv
from platoon_lab import cli, stability
from platoon_lab.control import Gains, Scheme, min_headway
from platoon_lab.scenario import parse_scenario_text, preset_text
from platoon_lab.stability import (PeakBound, RationalTF, StateSpace,
                                   UnstableTransferFunctionError,
                                   build_error_system, hinf_norm, impulse_l1_norm,
                                   lyapunov_gramian, peak_output_bound,
                                   string_stable_sum, tf_to_ss, _response_blocks)
from reference_engine import stepped_response

PAPER_GAIN_SETS = (
    # (gains, tau) as used in the linear and high-fidelity studies
    (Gains(0.2, 2.5, 1.0), 0.4),
    (Gains(0.8, 1.5, 2.0), 0.37),
    (Gains(0.75, 2.5, 1.5), 0.37),
)


class TestRationalTF:
    def test_proper_enforced(self):
        with pytest.raises(ValueError):
            RationalTF((1.0, 0.0, 0.0), (1.0, 1.0))

    def test_biproper_refused(self):
        # a numerator of the denominator's degree (a highpass, s / (s + 1))
        with pytest.raises(ValueError, match="strictly proper"):
            RationalTF((1.0, 0.0), (1.0, 1.0))
        # degrees are counted after the leading zeros go
        assert RationalTF((0.0, 0.0, 1.0), (1.0, 1.0)).num == (1.0,)

    def test_leading_zero_stripping(self):
        tf = RationalTF((0.0, 1.0), (0.0, 1.0, 1.0))
        assert tf.num == (1.0,)
        assert tf.den == (1.0, 1.0)

    def test_hurwitz(self):
        assert RationalTF((1.0,), (1.0, 2.0, 1.0)).is_hurwitz()
        assert not RationalTF((1.0,), (1.0, -2.0, 1.0)).is_hurwitz()

    @pytest.mark.parametrize("degree", [1, 2, 3, 4])
    def test_routh_agrees_with_the_roots(self, degree):
        # every root at least 0.1 from the imaginary axis, so rounding in
        # np.roots cannot move one across it; every other polynomial has one
        # real root or complex pair mirrored into the right half-plane
        rng = np.random.default_rng(4200 + degree)
        verdicts = []
        for trial in range(200):
            groups = []  # real roots and complex-conjugate pairs
            while sum(map(len, groups)) < degree:
                real, imag = -rng.uniform(0.1, 3.0), rng.uniform(0.1, 3.0)
                if sum(map(len, groups)) + 2 <= degree and rng.random() < 0.5:
                    groups.append([complex(real, imag), complex(real, -imag)])
                else:
                    groups.append([complex(real)])
            if trial % 2:
                k = rng.integers(len(groups))
                groups[k] = [-r.conjugate() for r in groups[k]]
            den = (rng.choice([-1.0, 1.0]) * rng.uniform(0.2, 5.0)
                   * np.poly([r for group in groups for r in group]).real)
            stable = bool(np.roots(den).real.max() < 0.0)
            assert RationalTF((1.0,), den).is_hurwitz() is stable, den
            verdicts.append(stable)
        assert verdicts.count(True) == verdicts.count(False) == 100

    def test_routh_decides_huge_coefficients(self):
        # fig8's CACC+ denominator at k_p = 1e306: a1 a2 > a0 a3, so Hurwitz,
        # while np.roots puts a root at exactly 0
        den = (0.4, 1.0, 8.700000000000001e305, 1.466666666666667e306)
        assert RationalTF((1.0,), den).is_hurwitz()
        assert not RationalTF((1.0,), (0.4, 1.0, 5.8e305, 1.466666666666667e306)).is_hurwitz()


class TestBuildCaccTf:
    def test_dc_gain_is_one(self):
        for gains, tau in PAPER_GAIN_SETS:
            for g in (0.0, 0.3, 0.467, 1.0):
                tf = build_error_system(gains, tau, 0.6, Scheme.CACC, g, 0.0).tfs[0]
                assert tf.dc_gain() == pytest.approx(1.0, abs=1e-15)

    def test_gamma_zero_drops_numerator_degree(self):
        tf = build_error_system(Gains(0.8, 1.5, 2.0), 0.37, 0.6, Scheme.CACC, 0.0, 0.0).tfs[0]
        assert len(tf.num) == 2  # K_v s + K_p only

    def test_coefficients(self):
        g = Gains(0.2, 2.5, 1.0)
        tf = build_error_system(g, 0.4, 0.45, Scheme.CACC, 0.467, 0.0).tfs[0]
        assert tf.num == (0.467 * 0.2, 2.5, 1.0)
        assert tf.den == (0.4, 1.0, 2.5 + 1.0 * 0.45, 1.0)

    def test_norm_above_one_below_threshold(self):
        # (0.2, 2.5, 1), gamma=1: the exact stability threshold for this gain
        # set sits far above the closed-form minimum, so both h=0.45 and h=0.7
        # still peak above one (frozen values from the sweep oracle)
        g = Gains(0.2, 2.5, 1.0)
        (low,) = build_error_system(g, 0.4, 0.45, Scheme.CACC, 1.0, 0.0).tfs
        (high,) = build_error_system(g, 0.4, 0.70, Scheme.CACC, 1.0, 0.0).tfs
        assert hinf_norm(low) == pytest.approx(1.2436, abs=2e-3)
        assert hinf_norm(high) == pytest.approx(1.1606, abs=2e-3)


class TestOneFormula:
    """build_error_system against the three coefficient sets it replaced,
    written out by hand: CACC's H, the CACC+ pair and the lead map."""

    @staticmethod
    def cacc(ka, kv, kp, tau, hw, g):
        return RationalTF((g * ka, kv, kp), (tau, 1.0, kv + kp * hw, kp))

    @staticmethod
    def cacc_plus(ka, kv, kp, tau, hw, g):
        den = (tau, 1.0, (1.0 + g) * kv + (1.0 + 2.0 * g) * kp * hw, (1.0 + g) * kp)
        return RationalTF((g * ka, kv, kp), den), RationalTF((g * ka, g * kv, g * kp), den)

    @staticmethod
    def lead(ka, kv, kp, tau, hw, g):
        return RationalTF((g * ka * hw - tau, g * ka + kv * hw - 1.0),
                          (tau, 1.0, kv + kp * hw, kp))

    @pytest.mark.parametrize("gains, tau", PAPER_GAIN_SETS[:2])
    @pytest.mark.parametrize("g", [0.0, 0.467, 1.0])
    @pytest.mark.parametrize("scheme", list(Scheme))
    def test_equal_to_the_hand_written_coefficients(self, gains, tau, g, scheme):
        hw = 0.45
        ss = build_error_system(gains, tau, hw, scheme, g, g)
        # ACC is CACC at gamma = 0, whatever the channel
        radio = 0.0 if scheme is Scheme.ACC else g
        args = (gains.k_a, gains.k_v, gains.k_p, tau, hw, radio)
        tfs = self.cacc_plus(*args) if scheme is Scheme.CACC_PLUS else (self.cacc(*args),)
        assert ss.tfs == tfs
        assert ss.lead_tf == self.lead(*args)
        assert ss.b.shape == (3, len(tfs))

    def test_columns_must_match_the_transfer_functions(self):
        tf = RationalTF((1.0,), (1.0, 1.0))
        with pytest.raises(ValueError, match="inconsistent"):
            StateSpace(a=np.array([[-1.0]]), b=np.array([[1.0]]), c=np.array([[1.0]]),
                       lead_tf=tf, tfs=(tf, tf))


class TestBuildCaccPlusTfs:
    def test_dc_gains_sum_to_one(self):
        for gains, tau in PAPER_GAIN_SETS:
            for g in (0.1, 0.467, 1.0):
                t1, t2 = build_error_system(gains, tau, 0.5, Scheme.CACC_PLUS, g, g).tfs
                assert t1.dc_gain() + t2.dc_gain() == pytest.approx(1.0, abs=1e-12)

    def test_gamma_zero_kills_second_path(self):
        t1, t2 = build_error_system(Gains(0.2, 2.5, 1.0), 0.4, 0.5, Scheme.CACC_PLUS, 0.0, 0.0).tfs
        assert t2.is_zero()

    def test_printed_coefficients(self):
        ka, kv, kp, tau, hw, g = 0.75, 2.5, 1.5, 0.37, 0.4, 0.467
        t1, t2 = build_error_system(Gains(ka, kv, kp), tau, hw, Scheme.CACC_PLUS, g, g).tfs
        den = (tau, 1.0, (1 + g) * kv + (1 + 2 * g) * kp * hw, (1 + g) * kp)
        assert t1.den == pytest.approx(den)
        assert t1.num == pytest.approx((g * ka, kv, kp))
        assert t2.num == pytest.approx((g * ka, g * kv, g * kp))


class TestHinfNorm:
    def test_first_order_lowpass(self):
        assert hinf_norm(RationalTF((1.0,), (1.0, 1.0))) == pytest.approx(1.0, abs=1e-9)

    def test_resonant_second_order_analytic(self):
        wn, z = 2.0, 0.25
        tf = RationalTF((wn * wn,), (1.0, 2 * z * wn, wn * wn))
        assert hinf_norm(tf) == pytest.approx(1.0 / (2 * z * math.sqrt(1 - z * z)), rel=1e-9)

    def test_unstable_rejected(self):
        with pytest.raises(UnstableTransferFunctionError):
            hinf_norm(RationalTF((1.0,), (1.0, -1.0)))

    def test_overflowing_squared_magnitude_refused(self):
        # Hurwitz, but |D(j omega)|^2 has k_p^2 ~ 1e612 among its coefficients;
        # np.roots once raised LinAlgError on them after a RuntimeWarning
        tf = RationalTF((0.09333333333333334, 2.5, 1e306),
                        (0.4, 1.0, 8.700000000000001e305, 1.466666666666667e306))
        with pytest.raises(stability.NormOverflowError, match=re.escape(
                f"|H(j omega)|^2 of {tf.num} / {tf.den} overflows the float range")):
            hinf_norm(tf)

    def test_tight_at_hmin_for_designed_gains(self):
        # the closed-form minimum headway is exactly the string-stability
        # threshold when k_v is chosen per the derivation
        for ka, kp, tau, g in ((0.8, 2.0, 0.37, 0.467), (0.2, 1.0, 0.4, 1.0),
                               (0.5, 1.5, 0.3, 0.7)):
            gains = Gains(ka, designed_kv(g, 0.0, ka, tau), kp)
            hmin = 2 * tau / (1 + g * ka)
            at, above, below = (build_error_system(gains, tau, h, Scheme.CACC, g, 0.0).tfs[0]
                                for h in (hmin, 1.3 * hmin, 0.9 * hmin))
            assert hinf_norm(at) == pytest.approx(1.0, abs=1e-6)
            assert hinf_norm(above) <= 1.0 + 1e-9
            assert hinf_norm(below) > 1.0 + 1e-3

    def test_tight_at_hmin_plus_for_designed_gains(self):
        # at k_v+ the closed-form CACC+ minimum is exactly the headway where
        # |H_p1| first exceeds its DC gain; where H_p2 also stays at or below
        # its DC gain there (the paper's k_a = 0.2 set), the sum is exact too
        for ka, kp, tau, g, sum_exact in ((0.8, 2.0, 0.37, 0.467, False),
                                          (0.2, 1.0, 0.4, 0.467, True),
                                          (0.5, 1.5, 0.3, 0.7, False)):
            gains = Gains(ka, designed_kv(g, g, ka, tau), kp)
            hp = min_headway(tau, g, g, ka)
            ratio = []
            for h in (hp, 1.3 * hp, 0.9 * hp):
                t1, _ = build_error_system(gains, tau, h, Scheme.CACC_PLUS, g, g).tfs
                ratio.append(hinf_norm(t1) / t1.dc_gain())
            assert ratio[0] == pytest.approx(1.0, abs=1e-6)
            assert ratio[1] <= 1.0 + 1e-9
            assert ratio[2] > 1.0 + 1e-3
            if sum_exact:
                t1, t2 = build_error_system(gains, tau, hp, Scheme.CACC_PLUS, g, g).tfs
                assert hinf_norm(t1) + hinf_norm(t2) == pytest.approx(1.0, abs=1e-6)

    def test_sum_above_one_at_hmin_plus_although_a2_below_one(self):
        # (1 + gamma) k_a = 0.85 <= 1 clears H_p2 at the one frequency of the
        # derivation, yet H_p2 peaks above its DC gain elsewhere, so the sum
        # certificate fails at the closed-form headway (min_headway)
        ka, kp, tau, g = 0.5, 1.5, 0.3, 0.7
        assert (1 + g) * ka <= 1.0
        hp = min_headway(tau, g, g, ka)
        assert hp == pytest.approx(0.2665, abs=5e-5)
        gains = Gains(ka, designed_kv(g, g, ka, tau), kp)
        t1, t2 = build_error_system(gains, tau, hp, Scheme.CACC_PLUS, g, g).tfs
        assert hinf_norm(t1) / t1.dc_gain() == pytest.approx(1.0, abs=1e-6)
        assert hinf_norm(t1) + hinf_norm(t2) == pytest.approx(1.0334, abs=5e-5)


def grid_peak(tf: RationalTF) -> float:
    """max |H(jw)| over w = 0 and a dense log grid on [1e-4, 1e4] zoomed in
    four times around its best point (a strictly proper H vanishes as
    w -> inf): an oracle that shares no code with hinf_norm."""
    def mag(w):
        return np.abs(np.polyval(tf.num, 1j * w) / np.polyval(tf.den, 1j * w))

    w = np.concatenate(([0.0], np.logspace(-4.0, 4.0, 80001)))
    best = 0.0
    for _ in range(5):
        m = mag(w)
        i = int(m.argmax())
        best = max(best, float(m[i]))
        w = np.linspace(w[max(i - 1, 0)], w[min(i + 1, w.size - 1)], 1001)
    return best


def random_hurwitz_tfs(rng, n_cacc=60, n_plus=40, n_other=40):
    """Seeded CACC, CACC+, first-order and second-order transfer functions."""
    tfs = []
    while len(tfs) < n_cacc + 2 * n_plus:
        gains = Gains(rng.uniform(0.0, 1.0), rng.uniform(0.05, 3.0), rng.uniform(0.2, 3.0))
        tau, h, g = rng.uniform(0.1, 1.0), rng.uniform(0.05, 2.0), rng.uniform(0.0, 1.0)
        if len(tfs) < n_cacc:
            new = [build_error_system(gains, tau, h, Scheme.CACC, g, 0.0).tfs[0]]
        else:
            new = [tf for tf in build_error_system(gains, tau, h, Scheme.CACC_PLUS, g, g).tfs
                   if not tf.is_zero()]
        tfs += [tf for tf in new if np.roots(tf.den).real.max() < -1e-6]
    for _ in range(n_other // 2):
        # a lowpass k / (s + p), with no stationary point, and a second-order
        # (b s + c) / (s^2 + a1 s + a0); the draws are those of the lead-lag
        # and biproper functions these replaced, one leading coefficient fewer
        tfs.append(RationalTF((rng.uniform(0.1, 3.0),), (1.0, rng.uniform(0.1, 3.0))))
        num = (rng.uniform(0.5, 3.0), rng.uniform(0.01, 3.0), rng.uniform(0.1, 3.0))[1:]
        tfs.append(RationalTF(num, (1.0, rng.uniform(0.5, 3.0), rng.uniform(0.1, 3.0))))
    return tfs


class TestHinfAgainstGrid:
    def test_bracketed_by_dense_grid(self):
        # grid <= ||H||_inf <= grid (1 + 1e-9) on 180 functions whose maximum
        # lies at w = 0 or inside the band; two evaluations of one point may
        # differ by rounding, which a sharp resonance amplifies (2e-13
        # relative at |H| = 403 here)
        tfs = random_hurwitz_tfs(np.random.default_rng(10))
        where = {"zero": 0, "band": 0}
        for tf in tfs:
            norm, grid = hinf_norm(tf), grid_peak(tf)
            assert grid * (1 - 1e-12) <= norm <= grid * (1 + 1e-9)
            where["zero" if norm <= abs(tf.dc_gain()) * (1 + 1e-12) else "band"] += 1
        assert len(tfs) == 180
        assert min(where.values()) >= 10, where


class TestStringStableSum:
    def test_single_below_one(self):
        ok, margin = string_stable_sum([hinf_norm(RationalTF((0.8,), (1.0, 1.0)))])
        assert ok and margin == pytest.approx(0.2, abs=1e-9)

    def test_two_norms_exceeding(self):
        tfs = [RationalTF((0.6,), (1.0, 1.0))] * 2
        ok, margin = string_stable_sum([hinf_norm(t) for t in tfs])
        assert not ok and margin == pytest.approx(-0.2, abs=1e-9)

    def test_no_peaking_cacc_plus_config(self):
        # small velocity gain keeps both propagation magnitudes below DC,
        # so the sum condition holds with margin ~ 0
        t1, t2 = build_error_system(Gains(0.2, 0.5, 1.0), 0.4, 1.0, Scheme.CACC_PLUS,
                                    0.467, 0.467).tfs
        ok, margin = string_stable_sum([hinf_norm(t1), hinf_norm(t2)])
        assert ok
        assert margin == pytest.approx(0.0, abs=1e-6)

    def test_paper_config_sums_above_one(self):
        # frozen truth: at the paper gain set the sum condition is violated
        # even at the stable-verdict headway (the closed-form minimum is not
        # the sum-condition threshold for these gains)
        t1, t2 = build_error_system(Gains(0.2, 2.5, 1.0), 0.4, 0.6, Scheme.CACC_PLUS,
                                    0.467, 0.467).tfs
        ok, margin = string_stable_sum([hinf_norm(t1), hinf_norm(t2)])
        assert not ok
        assert 1.0 - margin == pytest.approx(1.3147, abs=5e-3)


class TestImpulseL1:
    def test_first_order(self):
        assert impulse_l1_norm(RationalTF((1.0,), (1.0, 1.0))) == pytest.approx(1.0, abs=1e-5)

    def test_against_quadrature_oracle(self):
        # h(t) = e^-t (cos t + sin t) for (s+2)/(s^2+2s+2)
        t = np.linspace(0, 40, 400001)
        h = np.exp(-t) * (np.cos(t) + np.sin(t))
        l1_quad = float(np.trapezoid(np.abs(h), t))
        tf = RationalTF((1.0, 2.0), (1.0, 2.0, 2.0))
        assert impulse_l1_norm(tf) == pytest.approx(l1_quad, abs=1e-4)

    def test_refinement_convergence(self):
        # the fixed 1e-3 s step against a trapezoid on the same sampler's
        # responses every 1e-4 s
        tf = RationalTF((1.0, 2.0), (1.0, 2.0, 2.0))
        a, b, c = tf_to_ss(tf)
        dt, blocks = _response_blocks(a, c, 1e-4)
        h = np.abs(np.vstack(list(blocks)) @ b[:, 0])
        assert dt == 1e-4
        assert impulse_l1_norm(tf) == pytest.approx(np.trapezoid(h, dx=dt), abs=1e-5)

    def test_unstable_rejected(self):
        with pytest.raises(UnstableTransferFunctionError):
            impulse_l1_norm(RationalTF((1.0,), (1.0, -2.0, 1.0)))

    def test_inequality_chain_on_constructed_tfs(self):
        # H(0) <= ||H||_inf <= ||h||_1 for every platoon propagation function
        for gains, tau in PAPER_GAIN_SETS:
            for g in (0.3, 1.0):
                tf = build_error_system(gains, tau, 0.8, Scheme.CACC, g, 0.0).tfs[0]
                dc, ninf = abs(tf.dc_gain()), hinf_norm(tf)
                l1 = impulse_l1_norm(tf)
                assert dc <= ninf + 1e-3
                assert ninf <= l1 + 1e-3
                t1, t2 = build_error_system(gains, tau, 0.8, Scheme.CACC_PLUS, g, g).tfs
                assert hinf_norm(t1) <= impulse_l1_norm(t1) + 1e-3


class TestResponseSampler:
    # the blocked sampler against the per-sample loop it replaced, on a chain
    # long enough for three 4096-row blocks and on one short of a single block
    CASES = (build_error_system(Gains(0.2, 2.5, 1.0), 0.4, 0.45, Scheme.CACC_PLUS, 0.467, 0.467),
             build_error_system(Gains(0.8, 1.5, 2.0), 0.37, 0.45, Scheme.CACC, 0.467, 0.0),
             StateSpace(a=np.array([[-5.0]]), b=np.array([[1.0]]), c=np.array([[1.0]]),
                        lead_tf=RationalTF((1.0,), (1.0, 5.0)),
                        tfs=(RationalTF((1.0,), (1.0, 5.0)),)))

    @pytest.mark.parametrize("ss", CASES)
    def test_blocks_match_stepped_loop(self, ss):
        dt, blocks = _response_blocks(ss.a, ss.c, 0.01)
        rows = np.vstack(list(blocks))
        sigma = -np.linalg.eigvals(ss.a).real.max()
        assert dt == min(0.01, 0.02 / sigma)
        assert len(rows) == math.ceil(40.0 / (sigma * dt)) + 1
        ref = stepped_response(ss.a, ss.c, dt, len(rows))
        np.testing.assert_allclose(rows, ref, rtol=0, atol=1e-12 * np.abs(ref).max())

    def test_impulse_l1_matches_stepped_trapezoid(self):
        for tf in build_error_system(Gains(0.2, 2.5, 1.0), 0.4, 0.45, Scheme.CACC_PLUS,
                                     0.467, 0.467).tfs:
            a, b, c = tf_to_ss(tf)
            dt, blocks = _response_blocks(a, c, 1e-3)
            h = np.abs(stepped_response(a, c, dt, sum(len(x) for x in blocks)) @ b[:, 0])
            assert impulse_l1_norm(tf) == pytest.approx(np.trapezoid(h, dx=dt), rel=1e-12)

    def test_slow_decay_refused_before_sampling(self):
        with pytest.raises(UnstableTransferFunctionError, match="sigma = 0.0001 1/s"):
            _response_blocks(np.array([[-1e-4]]), np.array([[1.0]]), 1e-3)


class TestLyapunovGramian:
    def test_scalar(self):
        p = lyapunov_gramian(np.array([[-1.0]]), np.array([[1.0]]))
        assert p[0, 0] == pytest.approx(0.5, abs=1e-14)

    def test_identity_pair(self):
        p = lyapunov_gramian(-np.eye(2), np.eye(2))
        np.testing.assert_allclose(p, 0.5 * np.eye(2), atol=1e-14)

    def test_residual_and_psd_on_error_dynamics(self):
        for gains, tau in PAPER_GAIN_SETS:
            for scheme in (Scheme.CACC, Scheme.CACC_PLUS):
                ss = build_error_system(gains, tau, 0.8, scheme, 0.467, 0.467)
                p = lyapunov_gramian(ss.a, ss.b)
                res = np.linalg.norm(ss.a @ p + p @ ss.a.T + ss.b @ ss.b.T)
                assert res < 1e-8 * np.linalg.norm(ss.b @ ss.b.T)
                np.testing.assert_allclose(p, p.T, atol=1e-12)
                assert np.min(np.linalg.eigvalsh(p)) >= -1e-10

    def test_against_scipy(self):
        rng = np.random.default_rng(2)
        a = -np.eye(4) + 0.3 * rng.normal(size=(4, 4))
        if np.max(np.linalg.eigvals(a).real) >= 0:
            a -= 2 * np.eye(4)
        b = rng.normal(size=(4, 2))
        p_mine = lyapunov_gramian(a, b)
        p_scipy = solve_lyapunov(a, -b @ b.T)
        np.testing.assert_allclose(p_mine, p_scipy, atol=1e-10)

    def test_unstable_rejected(self, monkeypatch):
        # before any solve: a call to np.linalg.solve would raise TypeError
        monkeypatch.setattr(np.linalg, "solve", None)
        with pytest.raises(UnstableTransferFunctionError):
            lyapunov_gramian(np.array([[1.0]]), np.array([[1.0]]))
        with pytest.raises(UnstableTransferFunctionError):
            lyapunov_gramian(np.array([[0.0, 1.0], [2.0, -1.0]]), np.eye(2))


class TestAgainstScipyOracle:
    """The analysis on numpy alone against the same analysis on scipy's
    exponential and Lyapunov solver (``reference_engine``), on every preset
    under every scheme: each float of the stability report, the l1_* values
    of :func:`impulse_l1_norm` among them, within 1e-12 relative, and each
    verdict and H-infinity norm identical."""

    CASES = [(preset, scheme) for preset in ("paper-fig4", "paper-fig8", "paper-fig9",
                                             "paper-fig10") for scheme in Scheme]

    @staticmethod
    def scenario(preset, scheme):
        text = re.sub(r"(?m)^scheme = .*$", f"scheme = {scheme.value}", preset_text(preset))
        return parse_scenario_text(text, name=preset)

    @pytest.mark.parametrize("preset,scheme", CASES)
    def test_report_within_1e12(self, preset, scheme, tmp_path, monkeypatch):
        scenario = self.scenario(preset, scheme)
        mine = cli.cmd_stability(scenario, tmp_path).verdicts
        monkeypatch.setattr(stability, "expm", ref.expm)
        monkeypatch.setattr(stability, "lyapunov_gramian", ref.lyapunov_gramian)
        want = cli.cmd_stability(scenario, tmp_path).verdicts
        assert mine.keys() == want.keys()
        for key, value in want.items():
            if isinstance(value, float) and not key.startswith("hinf"):
                assert mine[key] == pytest.approx(value, rel=1e-12, abs=0.0), key
            else:
                assert mine[key] == value, key

    @pytest.mark.parametrize("preset,scheme", CASES)
    def test_both_gramians_within_1e12(self, preset, scheme):
        scenario = self.scenario(preset, scheme)
        cfg = scenario.config
        ss = build_error_system(cfg.gains, cfg.tau, cfg.policy.h_w, scheme,
                                *scenario.analysis_rates)
        for a, b in ((ss.a, ss.b), (ss.a.T, ss.c.T)):
            want = ref.lyapunov_gramian(a, b)
            assert np.abs(lyapunov_gramian(a, b) - want).max() <= 1e-12 * np.abs(want).max()


class TestTfToSs:
    def test_roundtrip_frequency_response(self):
        tf = RationalTF((0.3, 1.2, 0.7), (0.4, 1.0, 2.3, 0.9))
        a, b, c = tf_to_ss(tf)
        for w in (0.0, 0.5, 2.0, 17.0):
            s = 1j * w
            h_tf = tf(s)
            h_ss = (c @ np.linalg.solve(s * np.eye(3) - a, b))[0, 0]
            assert h_ss == pytest.approx(h_tf, abs=1e-12)


class TestPeakOutputBound:
    def test_zero_output_matrix(self):
        ss = StateSpace(a=np.array([[-1.0]]), b=np.array([[1.0]]),
                        c=np.array([[0.0]]), lead_tf=RationalTF((0.0,), (1.0, 1.0)),
                        tfs=(RationalTF((0.0,), (1.0, 1.0)),))
        bound = peak_output_bound(ss, alpha_star=2.0)
        assert bound.j_value == pytest.approx(0.0, abs=1e-15)
        assert bound.m2 == 0.0
        assert bound.m1 == pytest.approx(bound.eta * 2.0, abs=1e-12)

    def test_scalar_l2_to_linf_gain_with_achiever_oracle(self):
        # for a = -1, b = c = 1: J = C P C^T = 0.5 and the L2->Linf gain
        # sqrt(J) is attained by the time-reversed impulse response input
        ss = StateSpace(a=np.array([[-1.0]]), b=np.array([[1.0]]),
                        c=np.array([[1.0]]), lead_tf=RationalTF((1.0,), (1.0, 1.0)),
                        tfs=(RationalTF((1.0,), (1.0, 1.0)),))
        bound = peak_output_bound(ss, alpha_star=0.0)
        assert bound.j_value == pytest.approx(0.5, abs=1e-12)
        dt, horizon = 1e-3, 14.0
        t = np.arange(0.0, horizon, dt)
        h = np.exp(-t)  # impulse response
        u = h[::-1] / np.sqrt(np.sum(h * h) * dt)  # unit-energy achiever
        x = 0.0
        y_peak = 0.0
        for uk in u:
            x = x * math.exp(-dt) + (1 - math.exp(-dt)) * uk  # exact ZOH step
            y_peak = max(y_peak, abs(x))
        assert y_peak == pytest.approx(math.sqrt(0.5), abs=1e-3)
        assert bound.m2 == pytest.approx(math.sqrt(0.5), abs=1e-12)

    def test_unstable_rejected(self):
        ss = StateSpace(a=np.array([[1.0]]), b=np.array([[1.0]]), c=np.array([[1.0]]),
                        lead_tf=RationalTF((1.0,), (1.0, -1.0)),
                        tfs=(RationalTF((1.0,), (1.0, -1.0)),))
        with pytest.raises(UnstableTransferFunctionError):
            peak_output_bound(ss, 0.0)

    def test_cacc_lead_tf_consistent_with_embedded_column(self):
        # for CACC the lead map shares the chain's denominator, so it is also
        # realized by the column (0, n1, n0) / tau of its numerator
        # n1 s + n0 in the chain's (a, c)
        gains, tau = Gains(0.8, 1.5, 2.0), 0.37
        ss = build_error_system(gains, tau, 0.6, Scheme.CACC, 0.467, 0.0)
        column = np.array([[0.0], [ss.lead_tf.num[0]], [ss.lead_tf.num[1]]]) / tau
        num, den = ss2tf(ss.a, column, ss.c, np.zeros((1, 1)))
        embedded = RationalTF(tuple(num[0]), tuple(den))
        assert hinf_norm(embedded) == pytest.approx(hinf_norm(ss.lead_tf), rel=1e-6)

    def test_theorem_two_doubles_constants(self):
        gains, tau = Gains(0.2, 0.5, 1.0), 0.4
        sp = build_error_system(gains, tau, 1.0, Scheme.CACC_PLUS, 0.467, 0.467)
        bound = peak_output_bound(sp, alpha_star=0.5)
        assert bound.m2 == pytest.approx(2.0 * math.sqrt(bound.j_value) * bound.gamma2, abs=1e-12)
        assert bound.m1 == pytest.approx(2.0 * math.sqrt(bound.j_value) * bound.beta2 * 0.5, abs=1e-12)


class TestSafeStandstill:
    # `run stability` reports the peak bound as the safe standstill distance
    def test_zero_inputs_zero_distance(self):
        bound = PeakBound(j_value=0.5, m1=0.0, m2=0.7, alpha_star=0.0,
                          beta2=1.0, gamma2=1.0, eta=1.0)
        assert bound.evaluate(0.0) == 0.0

    def test_affine_in_maneuver_energy(self):
        bound = PeakBound(j_value=0.5, m1=0.3, m2=0.7, alpha_star=1.0,
                          beta2=1.0, gamma2=1.0, eta=1.0)
        assert bound.evaluate(4.0) - bound.evaluate(2.0) == pytest.approx(0.7 * 2.0, abs=1e-12)


class TestLeadTransferFunction:
    def test_first_follower_response_matches_simulation(self):
        # drive one CACC follower with the lead's achieved acceleration and
        # compare against the lead_tf frequency response via FFT
        import platoon_lab as pl
        from platoon_lab.dynamics import Maneuver, TimeGrid

        gains, tau, hw, g = Gains(0.8, 1.5, 2.0), 0.37, 0.6, 0.467
        cfg = pl.PlatoonConfig(
            n_followers=2, tau=tau, gains=gains,
            policy=pl.SpacingPolicy(h_w=hw, d=5.0), scheme=pl.Scheme.CACC,
            grid=TimeGrid(0.01, 80.0), channel=pl.GilbertParams(0.2, 0.1, 0.2),
            rates=(g, g))
        man = Maneuver(((0.0, 0.0), (5.0, -2.0), (6.0, 0.0)), 25.0)
        out = pl.simulate(cfg, man)
        ss = build_error_system(gains, tau, hw, Scheme.CACC, g, 0.0)
        w0 = out.a[0]        # achieved lead acceleration
        e1 = out.errors[0]
        freqs = np.fft.rfftfreq(len(w0), 0.01) * 2 * np.pi
        resp = ss.lead_tf(1j * freqs)
        pred = np.fft.irfft(np.fft.rfft(w0) * resp, n=len(w0))
        sel = slice(0, int(60 / 0.01))
        err = np.max(np.abs(pred[sel] - e1[sel])) / np.max(np.abs(e1))
        assert err < 5e-3
