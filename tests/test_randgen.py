import math

import numpy as np
import pytest

from conftest import assert_outcome, renyi_exponential_order_stats
from spectralab.errors import BadProbability, SizeMismatch
from spectralab.measures import ks_two_sample, wasserstein1_1d
from spectralab.randgen import (
    RngStream,
    _gen,
    bernoulli_entries,
    sample_complex_gaussian,
    sample_exponential,
    two_sequence_pick,
)

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def uniform_grid(n):
    return (np.arange(n) + 0.5) / n


class TestComplexGaussian:
    def test_second_moment(self):
        z = sample_complex_gaussian(RngStream(1), 10 ** 5, 1.0)
        assert np.mean(np.abs(z) ** 2) == pytest.approx(1.0, abs=0.02)

    def test_scaled_variance(self):
        z = sample_complex_gaussian(RngStream(2), 10 ** 5, 1.0 / 100.0)
        assert np.mean(np.abs(z) ** 2) == pytest.approx(0.01, abs=3e-4)

    def test_bitwise_replay(self):
        a = sample_complex_gaussian(RngStream(3, 9), 64, 1.0)
        b = sample_complex_gaussian(RngStream(3, 9), 64, 1.0)
        assert np.array_equal(a, b)

    def test_streams_decorrelated(self):
        draws = [RngStream(7, s).generator().random(10 ** 4) for s in range(10)]
        for i in range(10):
            for j in range(i + 1, 10):
                rho = np.corrcoef(draws[i], draws[j])[0, 1]
                assert abs(rho) < 0.05


class TestTwoSequencePick:
    def test_identical_sequences_warn(self):
        a = np.arange(5.0)
        with pytest.warns(UserWarning):
            out = two_sequence_pick(a, a.copy(), 0.5, RngStream(1))
        np.testing.assert_array_equal(out, a)

    def test_mean_fraction(self):
        a = np.zeros(10 ** 4)
        b = np.ones(10 ** 4)
        out = two_sequence_pick(a, b, 0.5, RngStream(5))
        assert np.mean(out) == pytest.approx(0.5, abs=0.02)

    def test_probability_validated(self):
        with pytest.raises(BadProbability):
            two_sequence_pick([1.0], [2.0], 1.0, RngStream(1))
        with pytest.raises(SizeMismatch):
            two_sequence_pick([1.0], [2.0, 3.0], 0.5, RngStream(1))

    def test_limit_is_the_mixture(self):
        # u uniform on [0,1], v uniform on [2,3]; picks converge to the
        # p / (1-p) mixture, checked in W1 against a fine mixture grid
        n = 20000
        p = 0.3
        u = np.mod(np.arange(1, n + 1) * GOLDEN, 1.0)
        v = u + 2.0
        xi = two_sequence_pick(u, v, p, RngStream(8))
        ref = np.concatenate([uniform_grid(3000), uniform_grid(7000) + 2.0])
        assert wasserstein1_1d(xi, ref) < 0.02

    def test_w1_shrinks_as_n_quadruples(self):
        # averaged over a few picks: quadrupling n should roughly halve W1
        u_all = np.mod(np.arange(1, 6401) * GOLDEN, 1.0)
        v_all = np.mod(u_all + 0.5, 1.0)
        vals = {}
        for n in (400, 6400):
            picks = [two_sequence_pick(u_all[:n], v_all[:n], 0.5, RngStream(s, n))
                     for s in range(5)]
            vals[n] = np.mean([wasserstein1_1d(x, uniform_grid(4096)) for x in picks])
        assert vals[6400] < 0.5 * vals[400]


class TestScalarSamplers:
    def test_exponential_mean(self):
        x = sample_exponential(RngStream(41), 10 ** 5, 1.0)
        assert np.mean(x) == pytest.approx(1.0, abs=0.02)

    def test_exponential_rate(self):
        x = sample_exponential(RngStream(42), 10 ** 5, 4.0)
        assert np.mean(x) == pytest.approx(0.25, abs=0.01)


class TestRenyiCrossCheck:
    def test_transform_matches_direct_order_stats(self):
        n, trials = 50, 2000
        g1 = RngStream(51).generator()
        g2 = RngStream(52).generator()
        via_renyi = np.concatenate([
            renyi_exponential_order_stats(sample_exponential(g1, n))
            for _ in range(trials)])
        direct = np.concatenate([
            np.sort(sample_exponential(g2, n)) for _ in range(trials)])
        assert ks_two_sample(via_renyi, direct) < 0.03


@pytest.mark.parametrize("call, expected", [
    (lambda: _gen("x"), TypeError),
    (lambda: sample_complex_gaussian(RngStream(1), 3, variance=0.0), ValueError),
    (lambda: sample_exponential(RngStream(1), 3, rate=0.0), ValueError),
    (lambda: bernoulli_entries(1.0), BadProbability),
], ids=["not-a-generator", "variance-0", "rate-0", "bernoulli-q-1"])
def test_refusals(call, expected):
    assert_outcome(call, expected)
