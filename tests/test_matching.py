import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import assert_outcome, renyi_exponential_order_stats
from spectralab.errors import (
    AlphaNotLeft,
    ComplexRoots,
    DuplicateValues,
    SignDegenerate,
    SizeMismatch,
    TooLarge,
)
from spectralab.matching import (
    brute_force_l1,
    extremal_gap_statistic,
    extremal_gap_surrogate,
    interlace_shift_check,
    mixed_sign_bound,
    sorted_l1,
    zero_critical_distance,
)
from spectralab.polycore import RootPoly
from spectralab.rootsolve import real_interlaced_critical_points

reals = st.floats(min_value=-50, max_value=50, allow_nan=False, allow_infinity=False)


class TestSortedL1:
    def test_identical(self):
        r = sorted_l1([3, 1, 2], [2, 3, 1])
        assert r.distance == 0.0

    def test_hand_instance(self):
        assert sorted_l1([0, 5, 6], [1, 2, 7]).distance == pytest.approx(5.0)
        assert brute_force_l1([0, 5, 6], [1, 2, 7]).distance == pytest.approx(5.0)

    def test_two_points(self):
        assert sorted_l1([1, 3], [2, 4]).distance == pytest.approx(2.0)

    def test_pairing_is_consistent(self):
        r = sorted_l1([3, 1], [0, 5])
        assert r.check([3, 1], [0, 5])

    def test_size_mismatch(self):
        with pytest.raises(SizeMismatch):
            sorted_l1([1], [1, 2])

    @given(st.lists(reals, min_size=1, max_size=6),
           st.lists(reals, min_size=1, max_size=6))
    @settings(max_examples=80, deadline=None)
    def test_matches_brute_force(self, x, y):
        n = min(len(x), len(y))
        x, y = x[:n], y[:n]
        assert sorted_l1(x, y).distance == pytest.approx(
            brute_force_l1(x, y).distance, abs=1e-9)


class TestBruteForce:
    def test_single_pair(self):
        assert brute_force_l1([0], [3]).distance == 3.0

    def test_multiset_equality(self):
        assert brute_force_l1([0, 1], [1, 0]).distance == 0.0

    def test_too_large(self):
        with pytest.raises(TooLarge):
            brute_force_l1(list(range(10)), list(range(10)))


class TestZeroCriticalDistance:
    def test_two_roots_equals_mean(self):
        assert zero_critical_distance(RootPoly([1.0, 3.0])) == pytest.approx(2.0, abs=1e-10)

    def test_repeated_root(self):
        a = 1.7
        assert zero_critical_distance(RootPoly([a] * 5)) == pytest.approx(a, abs=1e-12)

    def test_three_roots_equals_mean(self):
        assert zero_critical_distance(RootPoly([1.0, 2.0, 3.0])) == pytest.approx(
            2.0, abs=1e-10)

    def test_complex_roots_refused(self):
        with pytest.raises(ComplexRoots):
            zero_critical_distance(RootPoly([1j, -1j]))

    def test_equals_sorted_matching_exactly(self, rng):
        for n in (2, 7, 200):
            x = np.sort(rng.normal(size=n) * 2)
            eta = real_interlaced_critical_points(x)
            d = zero_critical_distance(RootPoly(x))
            assert d == sorted_l1(x, np.concatenate([eta, [0.0]])).distance

    def test_mean_law_random(self, rng):
        for _ in range(60):
            n = int(rng.integers(2, 61))
            roots = np.abs(rng.normal(size=n)) * rng.uniform(0.5, 3.0)
            d = zero_critical_distance(RootPoly(np.sort(roots)))
            assert d == pytest.approx(float(np.mean(roots)), abs=1e-8)

    def test_running_mean_approaches_first_moment(self, rng):
        # half-normal roots: the matching distance concentrates at E|X| = sqrt(2/pi)
        n, trials = 200, 200
        d1s = [zero_critical_distance(RootPoly(np.sort(np.abs(rng.normal(size=n)))))
               for _ in range(trials)]
        target = math.sqrt(2.0 / math.pi)
        assert abs(float(np.mean(d1s)) - target) <= 0.05 * target


class TestMixedSign:
    def test_symmetric_pair(self):
        r = mixed_sign_bound(RootPoly([-1.0, 1.0]))
        assert r.distance == pytest.approx(2.0, abs=1e-10)
        assert r.bound == pytest.approx(2.0)

    def test_four_roots(self):
        r = mixed_sign_bound(RootPoly([-2.0, -1.0, 1.0, 2.0]))
        assert r.bound == pytest.approx(3.0)
        # criticals of z^4-5z^2+4 are 0 and +/- sqrt(5/2)
        expected = 6.0 - 2.0 * math.sqrt(2.5)
        assert r.distance == pytest.approx(expected, abs=1e-9)
        assert r.distance <= r.bound + 1e-9

    def test_single_sign_refused(self):
        with pytest.raises(SignDegenerate):
            mixed_sign_bound(RootPoly([1.0, 2.0]))

    def test_bound_holds_random(self, rng):
        for _ in range(40):
            n = int(rng.integers(4, 40))
            roots = rng.normal(size=n) * 2
            if np.all(roots >= 0) or np.all(roots < 0):
                continue
            r = mixed_sign_bound(RootPoly(roots))
            assert r.distance <= r.bound + 1e-9


class TestInterlaceShift:
    def test_cubic(self):
        assert interlace_shift_check([1.0, 2.0, 3.0], 0.0)

    def test_pair(self):
        assert interlace_shift_check([0.0, 1.0], -1.0)

    def test_repeated_root_pinned(self):
        assert interlace_shift_check([0.5, 0.5], -1.0)

    def test_alpha_position_checked(self):
        with pytest.raises(AlphaNotLeft):
            interlace_shift_check([0.0, 1.0], 0.5)

    def test_random_instances(self, rng):
        for _ in range(500):
            n = int(rng.integers(2, 31))
            roots = rng.normal(size=n) * 2
            alpha = roots.min() - abs(rng.normal())
            if alpha == roots.min():
                continue
            assert interlace_shift_check(roots, alpha)


class TestExtremalGaps:
    def test_three_point_sample(self):
        g = extremal_gap_statistic([0.0, 1.0, 2.0])
        expected = 3.0 * math.log(3.0) * (1.0 - 1.0 / math.sqrt(3.0))
        assert g.left == pytest.approx(expected, abs=1e-9)
        assert g.right == pytest.approx(expected, abs=1e-9)

    def test_symmetric_sample(self):
        g = extremal_gap_statistic([-1.0, 0.0, 1.0])
        assert g.left == pytest.approx(g.right, abs=1e-12)

    def test_duplicates_refused(self):
        with pytest.raises(DuplicateValues):
            extremal_gap_statistic([0.0, 0.0, 1.0])

    def test_surrogate_bounds_exact(self, rng):
        for _ in range(25):
            x = rng.exponential(size=50)
            exact = extremal_gap_statistic(x)
            sur = extremal_gap_surrogate(x)
            assert exact.left <= sur.left + 1e-12
            assert exact.right <= sur.right + 1e-12


class TestRenyi:
    def test_hand_example(self):
        np.testing.assert_allclose(renyi_exponential_order_stats([0.3, 0.6, 0.9]),
                                   [0.3, 0.6, 0.9], atol=1e-15)

    def test_single(self):
        np.testing.assert_allclose(renyi_exponential_order_stats([1.0]), [1.0])

    def test_nonpositive_refused(self):
        with pytest.raises(ValueError):
            renyi_exponential_order_stats([1.0, 0.0])

    @given(st.lists(st.floats(min_value=1e-3, max_value=100), min_size=1, max_size=30))
    @settings(max_examples=60, deadline=None)
    def test_output_sorted(self, e):
        out = renyi_exponential_order_stats(e)
        assert np.all(np.diff(out) >= 0)


@pytest.mark.parametrize("call, expected", [
    (lambda: sorted_l1([], []), SizeMismatch),
    (lambda: interlace_shift_check([1.0], 0.0), SizeMismatch),
    (lambda: extremal_gap_statistic([1.0, 2.0]), SizeMismatch),
], ids=["empty-sets", "one-root", "two-values"])
def test_refusals(call, expected):
    assert_outcome(call, expected)
