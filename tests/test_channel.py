import numpy as np
import pytest

from platoon_lab.channel import ChannelMode, GilbertParams, gamma_of, link_streams
from reference_engine import ChannelState, channel_step


def run_chain(params, seed, steps, start=None):
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(0,)))
    if start is None:
        state = ChannelState.stationary(params, rng)
    else:
        state = ChannelState.in_mode(start, rng)
    samples = []
    for _ in range(steps):
        state, s = channel_step(state, params)
        samples.append(s)
    return samples


class TestGammaOf:
    def test_paper_value(self):
        assert gamma_of(GilbertParams(0.2, 0.1, 0.2)) == pytest.approx(0.4667, abs=1e-4)

    def test_lossless_bad_state(self):
        assert gamma_of(GilbertParams(0.3, 0.05, 1.0)) == 1.0

    def test_iid_special_case(self):
        # stuck in Bad: reception is i.i.d. with probability r
        for r in (0.0, 0.25, 0.9):
            assert gamma_of(GilbertParams(1.0, 0.0, r)) == pytest.approx(r, abs=1e-15)

    def test_undefined_rate(self):
        with pytest.raises(ValueError):
            gamma_of(GilbertParams(0.0, 0.0, 0.5))

    def test_param_range_validation(self):
        with pytest.raises(ValueError):
            GilbertParams(-0.1, 0.5, 0.5)
        with pytest.raises(ValueError):
            GilbertParams(0.1, 1.5, 0.5)


class TestChannelStep:
    def test_absorbing_good(self):
        samples = run_chain(GilbertParams(0.0, 0.5, 0.0), 1, 200, start=ChannelMode.GOOD)
        assert all(s.received for s in samples)

    def test_absorbing_bad_no_reception(self):
        samples = run_chain(GilbertParams(1.0, 0.0, 0.0), 2, 200, start=ChannelMode.GOOD)
        assert not any(s.received for s in samples)

    def test_empirical_rate_matches_gamma(self):
        params = GilbertParams(0.2, 0.1, 0.2)
        n = 10 ** 6
        samples = run_chain(params, 3, n)
        frac = sum(s.received for s in samples) / n
        assert frac == pytest.approx(gamma_of(params), abs=3e-3)

    def test_reproducible(self):
        params = GilbertParams(0.2, 0.1, 0.2)
        a = [s.received for s in run_chain(params, 11, 500)]
        b = [s.received for s in run_chain(params, 11, 500)]
        assert a == b

    def test_distinct_links_are_independent_streams(self):
        params = GilbertParams(0.5, 0.5, 0.5)
        streams = link_streams(99, 2)
        seqs = []
        for rng in streams:
            state = ChannelState.stationary(params, rng)
            seqs.append([channel_step(state, params)[1].received for _ in range(200)])
        assert seqs[0] != seqs[1]

    def test_stationary_bad_fraction(self):
        params = GilbertParams(0.2, 0.1, 0.2)
        rng = np.random.default_rng(5)
        state = ChannelState.stationary(params, rng)
        bad = 0
        n = 200000
        for _ in range(n):
            channel_step(state, params)
            bad += state.mode is ChannelMode.BAD
        assert bad / n == pytest.approx(params.p_gb / (params.p_gb + params.q_bg), abs=5e-3)

    def test_rate_property_over_random_params(self):
        # gamma_of matches the empirical rate for arbitrary valid parameters
        rng = np.random.default_rng(123)
        for _ in range(8):
            params = GilbertParams(rng.uniform(0.05, 0.95), rng.uniform(0.05, 0.95),
                                   rng.uniform(0.0, 1.0))
            n = 10 ** 5
            seed = int(rng.integers(1 << 30))
            samples = run_chain(params, seed, n)
            frac = sum(s.received for s in samples) / n
            g = gamma_of(params)
            sigma = np.sqrt(max(g * (1 - g), 1e-4) / n)
            # bursty correlation inflates the variance; allow a generous factor
            assert abs(frac - g) < 10 * sigma

