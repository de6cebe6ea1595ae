import math

import numpy as np
import pytest
from scipy.linalg import solve_lyapunov
from scipy.signal import ss2tf

from designed_gains import designed_kv, designed_kv_plus
from platoon_lab.control import Gains, Scheme, min_headway_cacc_plus
from platoon_lab.stability import (PeakBound, RationalTF, StateSpace,
                                   UnstableTransferFunctionError,
                                   build_cacc_plus_tfs, build_cacc_tf,
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

    def test_leading_zero_stripping(self):
        tf = RationalTF((0.0, 1.0), (0.0, 1.0, 1.0))
        assert tf.num == (1.0,)
        assert tf.den == (1.0, 1.0)

    def test_hurwitz(self):
        assert RationalTF((1.0,), (1.0, 2.0, 1.0)).is_hurwitz()
        assert not RationalTF((1.0,), (1.0, -2.0, 1.0)).is_hurwitz()


class TestBuildCaccTf:
    def test_dc_gain_is_one(self):
        for gains, tau in PAPER_GAIN_SETS:
            for g in (0.0, 0.3, 0.467, 1.0):
                tf = build_cacc_tf(gains, tau, 0.6, g)
                assert tf.dc_gain() == pytest.approx(1.0, abs=1e-15)

    def test_gamma_zero_drops_numerator_degree(self):
        tf = build_cacc_tf(Gains(0.8, 1.5, 2.0), 0.37, 0.6, 0.0)
        assert len(tf.num) == 2  # K_v s + K_p only

    def test_coefficients(self):
        g = Gains(0.2, 2.5, 1.0)
        tf = build_cacc_tf(g, 0.4, 0.45, 0.467)
        assert tf.num == (0.467 * 0.2, 2.5, 1.0)
        assert tf.den == (0.4, 1.0, 2.5 + 1.0 * 0.45, 1.0)

    def test_norm_above_one_below_threshold(self):
        # (0.2, 2.5, 1), gamma=1: the exact stability threshold for this gain
        # set sits far above the closed-form minimum, so both h=0.45 and h=0.7
        # still peak above one (frozen values from the sweep oracle)
        g = Gains(0.2, 2.5, 1.0)
        assert hinf_norm(build_cacc_tf(g, 0.4, 0.45, 1.0)) == pytest.approx(1.2436, abs=2e-3)
        assert hinf_norm(build_cacc_tf(g, 0.4, 0.70, 1.0)) == pytest.approx(1.1606, abs=2e-3)


class TestBuildCaccPlusTfs:
    def test_dc_gains_sum_to_one(self):
        for gains, tau in PAPER_GAIN_SETS:
            for g in (0.1, 0.467, 1.0):
                t1, t2 = build_cacc_plus_tfs(gains, tau, 0.5, g)
                assert t1.dc_gain() + t2.dc_gain() == pytest.approx(1.0, abs=1e-12)

    def test_gamma_zero_kills_second_path(self):
        t1, t2 = build_cacc_plus_tfs(Gains(0.2, 2.5, 1.0), 0.4, 0.5, 0.0)
        assert t2.is_zero()

    def test_printed_coefficients(self):
        ka, kv, kp, tau, hw, g = 0.75, 2.5, 1.5, 0.37, 0.4, 0.467
        t1, t2 = build_cacc_plus_tfs(Gains(ka, kv, kp), tau, hw, g)
        den = (tau, 1.0, (1 + g) * kv + (1 + 2 * g) * kp * hw, (1 + g) * kp)
        assert t1.den == pytest.approx(den)
        assert t1.num == pytest.approx((g * ka, kv, kp))
        assert t2.num == pytest.approx((g * ka, g * kv, g * kp))


class TestHinfNorm:
    def test_first_order_lowpass(self):
        assert hinf_norm(RationalTF((1.0,), (1.0, 1.0))) == pytest.approx(1.0, abs=1e-9)

    def test_highpass_limit(self):
        # sup approached as omega -> inf; the limit candidate must be included
        assert hinf_norm(RationalTF((1.0, 0.0), (1.0, 1.0))) >= 1.0 - 1e-6

    def test_resonant_second_order_analytic(self):
        wn, z = 2.0, 0.25
        tf = RationalTF((wn * wn,), (1.0, 2 * z * wn, wn * wn))
        assert hinf_norm(tf) == pytest.approx(1.0 / (2 * z * math.sqrt(1 - z * z)), rel=1e-9)

    def test_unstable_rejected(self):
        with pytest.raises(UnstableTransferFunctionError):
            hinf_norm(RationalTF((1.0,), (1.0, -1.0)))

    def test_tight_at_hmin_for_designed_gains(self):
        # the closed-form minimum headway is exactly the string-stability
        # threshold when k_v is chosen per the derivation
        for ka, kp, tau, g in ((0.8, 2.0, 0.37, 0.467), (0.2, 1.0, 0.4, 1.0),
                               (0.5, 1.5, 0.3, 0.7)):
            gains = Gains(ka, designed_kv(g, ka, tau), kp)
            hmin = 2 * tau / (1 + g * ka)
            assert hinf_norm(build_cacc_tf(gains, tau, hmin, g)) == pytest.approx(1.0, abs=1e-6)
            assert hinf_norm(build_cacc_tf(gains, tau, 1.3 * hmin, g)) <= 1.0 + 1e-9
            assert hinf_norm(build_cacc_tf(gains, tau, 0.9 * hmin, g)) > 1.0 + 1e-3

    def test_tight_at_hmin_plus_for_designed_gains(self):
        # at k_v+ the closed-form CACC+ minimum is exactly the headway where
        # |H_p1| first exceeds its DC gain; where H_p2 also stays at or below
        # its DC gain there (the paper's k_a = 0.2 set), the sum is exact too
        for ka, kp, tau, g, sum_exact in ((0.8, 2.0, 0.37, 0.467, False),
                                          (0.2, 1.0, 0.4, 0.467, True),
                                          (0.5, 1.5, 0.3, 0.7, False)):
            gains = Gains(ka, designed_kv_plus(g, ka, tau), kp)
            hp = min_headway_cacc_plus(tau, g, ka)
            ratio = []
            for h in (hp, 1.3 * hp, 0.9 * hp):
                t1, _ = build_cacc_plus_tfs(gains, tau, h, g)
                ratio.append(hinf_norm(t1) / t1.dc_gain())
            assert ratio[0] == pytest.approx(1.0, abs=1e-6)
            assert ratio[1] <= 1.0 + 1e-9
            assert ratio[2] > 1.0 + 1e-3
            if sum_exact:
                t1, t2 = build_cacc_plus_tfs(gains, tau, hp, g)
                assert hinf_norm(t1) + hinf_norm(t2) == pytest.approx(1.0, abs=1e-6)

    def test_sum_above_one_at_hmin_plus_although_a2_below_one(self):
        # (1 + gamma) k_a = 0.85 <= 1 clears H_p2 at the one frequency of the
        # derivation, yet H_p2 peaks above its DC gain elsewhere, so the sum
        # certificate fails at the closed-form headway (min_headway_cacc_plus)
        ka, kp, tau, g = 0.5, 1.5, 0.3, 0.7
        assert (1 + g) * ka <= 1.0
        hp = min_headway_cacc_plus(tau, g, ka)
        assert hp == pytest.approx(0.2665, abs=5e-5)
        t1, t2 = build_cacc_plus_tfs(Gains(ka, designed_kv_plus(g, ka, tau), kp), tau, hp, g)
        assert hinf_norm(t1) / t1.dc_gain() == pytest.approx(1.0, abs=1e-6)
        assert hinf_norm(t1) + hinf_norm(t2) == pytest.approx(1.0334, abs=5e-5)


def grid_peak(tf: RationalTF) -> float:
    """max |H(jw)| over w = 0, a dense log grid on [1e-4, 1e4] zoomed in four
    times around its best point, and the w -> inf limit: an oracle that
    shares no code with hinf_norm."""
    def mag(w):
        return np.abs(np.polyval(tf.num, 1j * w) / np.polyval(tf.den, 1j * w))

    w = np.concatenate(([0.0], np.logspace(-4.0, 4.0, 80001)))
    best = 0.0
    for _ in range(5):
        m = mag(w)
        i = int(m.argmax())
        best = max(best, float(m[i]))
        w = np.linspace(w[max(i - 1, 0)], w[min(i + 1, w.size - 1)], 1001)
    limit = abs(tf.num[0] / tf.den[0]) if len(tf.num) == len(tf.den) else 0.0
    return max(best, limit)


def random_hurwitz_tfs(rng, n_cacc=60, n_plus=40, n_biproper=40):
    """Seeded CACC, CACC+ and biproper second-order transfer functions."""
    tfs = []
    while len(tfs) < n_cacc + 2 * n_plus:
        gains = Gains(rng.uniform(0.0, 1.0), rng.uniform(0.05, 3.0), rng.uniform(0.2, 3.0))
        tau, h, g = rng.uniform(0.1, 1.0), rng.uniform(0.05, 2.0), rng.uniform(0.0, 1.0)
        if len(tfs) < n_cacc:
            new = [build_cacc_tf(gains, tau, h, g)]
        else:
            new = [tf for tf in build_cacc_plus_tfs(gains, tau, h, g) if not tf.is_zero()]
        tfs += [tf for tf in new if np.roots(tf.den).real.max() < -1e-6]
    for _ in range(n_biproper // 2):
        # a lead or lag (s + z) / (s + p), and a biproper second-order function
        tfs.append(RationalTF((1.0, rng.uniform(0.1, 3.0)), (1.0, rng.uniform(0.1, 3.0))))
        num = (rng.uniform(0.5, 3.0), rng.uniform(0.01, 3.0), rng.uniform(0.1, 3.0))
        tfs.append(RationalTF(num, (1.0, rng.uniform(0.5, 3.0), rng.uniform(0.1, 3.0))))
    return tfs


class TestHinfAgainstGrid:
    def test_bracketed_by_dense_grid(self):
        # grid <= ||H||_inf <= grid (1 + 1e-9) on 180 functions whose maximum
        # lies at w = 0, inside the band, or in the w -> inf limit; two
        # evaluations of one point may differ by rounding, which a sharp
        # resonance amplifies (2e-13 relative at |H| = 403 here)
        where = {"zero": 0, "band": 0, "infinity": 0}
        for tf in random_hurwitz_tfs(np.random.default_rng(10)):
            norm, grid = hinf_norm(tf), grid_peak(tf)
            assert grid * (1 - 1e-12) <= norm <= grid * (1 + 1e-9)
            if norm <= abs(tf.dc_gain()) * (1 + 1e-12):
                where["zero"] += 1
            elif norm <= tf.hf_gain() * (1 + 1e-12):
                where["infinity"] += 1
            else:
                where["band"] += 1
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
        t1, t2 = build_cacc_plus_tfs(Gains(0.2, 0.5, 1.0), 0.4, 1.0, 0.467)
        ok, margin = string_stable_sum([hinf_norm(t1), hinf_norm(t2)])
        assert ok
        assert margin == pytest.approx(0.0, abs=1e-6)

    def test_paper_config_sums_above_one(self):
        # frozen truth: at the paper gain set the sum condition is violated
        # even at the stable-verdict headway (the closed-form minimum is not
        # the sum-condition threshold for these gains)
        t1, t2 = build_cacc_plus_tfs(Gains(0.2, 2.5, 1.0), 0.4, 0.6, 0.467)
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
        tf = RationalTF((1.0, 2.0), (1.0, 2.0, 2.0))
        coarse = impulse_l1_norm(tf, dt=1e-3)
        fine = impulse_l1_norm(tf, dt=1e-4)
        assert coarse == pytest.approx(fine, abs=1e-5)

    def test_biproper_includes_feedthrough(self):
        # s/(s+1) = 1 - 1/(s+1): |delta| + integral of e^-t = 2
        assert impulse_l1_norm(RationalTF((1.0, 0.0), (1.0, 1.0))) == pytest.approx(2.0, abs=1e-4)

    def test_unstable_rejected(self):
        with pytest.raises(UnstableTransferFunctionError):
            impulse_l1_norm(RationalTF((1.0,), (1.0, -2.0, 1.0)))

    def test_inequality_chain_on_constructed_tfs(self):
        # H(0) <= ||H||_inf <= ||h||_1 for every platoon propagation function
        for gains, tau in PAPER_GAIN_SETS:
            for g in (0.3, 1.0):
                tf = build_cacc_tf(gains, tau, 0.8, g)
                dc, ninf = abs(tf.dc_gain()), hinf_norm(tf)
                l1 = impulse_l1_norm(tf)
                assert dc <= ninf + 1e-3
                assert ninf <= l1 + 1e-3
                t1, t2 = build_cacc_plus_tfs(gains, tau, 0.8, g)
                assert hinf_norm(t1) <= impulse_l1_norm(t1) + 1e-3


class TestResponseSampler:
    # the blocked sampler against the per-sample loop it replaced, on a chain
    # long enough for three 4096-row blocks and on one short of a single block
    CASES = (build_error_system(Gains(0.2, 2.5, 1.0), 0.4, 0.45, 0.467, Scheme.CACC_PLUS),
             build_error_system(Gains(0.8, 1.5, 2.0), 0.37, 0.45, 0.467, Scheme.CACC),
             StateSpace(a=np.array([[-5.0]]), b=np.array([[1.0]]), c=np.array([[1.0]]),
                        lead_tf=RationalTF((1.0,), (1.0, 5.0))))

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
        for tf in build_cacc_plus_tfs(Gains(0.2, 2.5, 1.0), 0.4, 0.45, 0.467):
            a, b, c, _ = tf_to_ss(tf)
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
                ss = build_error_system(gains, tau, 0.8, 0.467, scheme)
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

    def test_unstable_rejected(self):
        with pytest.raises(UnstableTransferFunctionError):
            lyapunov_gramian(np.array([[1.0]]), np.array([[1.0]]))


class TestTfToSs:
    def test_roundtrip_frequency_response(self):
        tf = RationalTF((0.3, 1.2, 0.7), (0.4, 1.0, 2.3, 0.9))
        a, b, c, d = tf_to_ss(tf)
        for w in (0.0, 0.5, 2.0, 17.0):
            s = 1j * w
            h_tf = tf(s)
            h_ss = (c @ np.linalg.solve(s * np.eye(3) - a, b))[0, 0] + d
            assert h_ss == pytest.approx(h_tf, abs=1e-12)


class TestPeakOutputBound:
    def test_zero_output_matrix(self):
        ss = StateSpace(a=np.array([[-1.0]]), b=np.array([[1.0]]),
                        c=np.array([[0.0]]), lead_tf=RationalTF((0.0,), (1.0, 1.0)))
        bound = peak_output_bound(ss, alpha_star=2.0, w0_l2=1.0)
        assert bound.j_value == pytest.approx(0.0, abs=1e-15)
        assert bound.m2 == 0.0
        assert bound.m1 == pytest.approx(bound.eta * 2.0, abs=1e-12)

    def test_scalar_l2_to_linf_gain_with_achiever_oracle(self):
        # for a = -1, b = c = 1: J = C P C^T = 0.5 and the L2->Linf gain
        # sqrt(J) is attained by the time-reversed impulse response input
        ss = StateSpace(a=np.array([[-1.0]]), b=np.array([[1.0]]),
                        c=np.array([[1.0]]), lead_tf=RationalTF((1.0,), (1.0, 1.0)))
        bound = peak_output_bound(ss, alpha_star=0.0, w0_l2=1.0)
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
                        lead_tf=RationalTF((1.0,), (1.0, -1.0)))
        with pytest.raises(UnstableTransferFunctionError):
            peak_output_bound(ss, 0.0, 1.0)

    def test_cacc_lead_tf_consistent_with_embedded_column(self):
        # for CACC the lead map shares the chain's denominator, so it is also
        # realized by the column (0, n1, n0) / tau of its numerator
        # n1 s + n0 in the chain's (a, c)
        gains, tau = Gains(0.8, 1.5, 2.0), 0.37
        ss = build_error_system(gains, tau, 0.6, 0.467, Scheme.CACC)
        column = np.array([[0.0], [ss.lead_tf.num[0]], [ss.lead_tf.num[1]]]) / tau
        num, den = ss2tf(ss.a, column, ss.c, np.zeros((1, 1)))
        embedded = RationalTF(tuple(num[0]), tuple(den))
        assert hinf_norm(embedded) == pytest.approx(hinf_norm(ss.lead_tf), rel=1e-6)

    def test_theorem_two_doubles_constants(self):
        gains, tau = Gains(0.2, 0.5, 1.0), 0.4
        sp = build_error_system(gains, tau, 1.0, 0.467, Scheme.CACC_PLUS)
        bound = peak_output_bound(sp, alpha_star=0.5, w0_l2=9.0)
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
            grid=TimeGrid(0.01, 80.0), channel=pl.GilbertParams(0.2, 0.1, 0.2))
        man = Maneuver(((0.0, 0.0), (5.0, -2.0), (6.0, 0.0)), 25.0)
        out = pl.simulate_deterministic(cfg, man, g)
        ss = build_error_system(gains, tau, hw, g, Scheme.CACC)
        w0 = out.a[0]        # achieved lead acceleration
        e1 = out.errors[0]
        freqs = np.fft.rfftfreq(len(w0), 0.01) * 2 * np.pi
        resp = ss.lead_tf(1j * freqs)
        pred = np.fft.irfft(np.fft.rfft(w0) * resp, n=len(w0))
        sel = slice(0, int(60 / 0.01))
        err = np.max(np.abs(pred[sel] - e1[sel])) / np.max(np.abs(e1))
        assert err < 5e-3
