import math

import numpy as np
import pytest

from conftest import assert_outcome, log_abs_log_deriv_scalar
from spectralab.errors import NearPole, SizeMismatch, ZeroDegree
from spectralab.polycore import (
    RootPoly,
    WeightedLogDeriv,
    canonical_order,
    derivative_coefficients,
    exclusion_radius,
    expand_coefficients,
    log_abs_log_deriv,
)


def direct(p, z):
    # reference value of P(z) = leading * prod(z - roots)
    return p.leading * np.prod(z - p.root_array())


def horner(coeffs, z):
    out = 0.0 + 0.0j
    for c in coeffs[::-1]:
        out = out * z + c
    return out


def horner_magnitude(coeffs, z):
    # the natural error scale of Horner evaluation: sum |c_k| |z|^k
    out = 0.0
    for c in coeffs[::-1]:
        out = out * abs(z) + abs(c)
    return out


class TestStorage:
    def test_input_mutation_does_not_reach_the_polynomial(self):
        roots = np.array([1.0, 2.0, 3.0])
        weights = np.array([1.0, 2.0, 3.0])
        p = RootPoly(roots)
        w = WeightedLogDeriv(roots, weights)
        roots[0] = 99.0
        weights[0] = 99.0
        np.testing.assert_array_equal(p.root_array(), [1.0, 2.0, 3.0])
        np.testing.assert_array_equal(w.root_array(), [1.0, 2.0, 3.0])
        np.testing.assert_array_equal(w.weight_array(), [1.0, 2.0, 3.0])
        assert direct(p, 0.0) == pytest.approx(-6.0)

    def test_arrays_are_read_only_complex(self):
        p = RootPoly([1, 2])
        w = WeightedLogDeriv([1, 2])
        for arr in (p.root_array(), w.root_array(), w.weight_array()):
            assert arr.dtype == complex
            with pytest.raises(ValueError):
                arr[0] = 5.0
        assert p.degree == 2
        np.testing.assert_array_equal(w.weight_array(), [1.0, 1.0])

    def test_equality_is_identity(self):
        p = RootPoly([1, 2])
        assert p == p
        assert p != RootPoly([1, 2])
        assert len({p, RootPoly([1, 2])}) == 2


class TestExpand:
    def test_difference_of_squares(self):
        np.testing.assert_allclose(expand_coefficients(RootPoly([1, -1])), [-1, 0, 1])

    def test_empty_product(self):
        np.testing.assert_allclose(expand_coefficients(RootPoly([])), [1])

    def test_cubic_hand_expansion(self):
        np.testing.assert_allclose(expand_coefficients(RootPoly([1, 2, 3])),
                                   [-6, 11, -6, 1])

    def test_leading_scales_all(self):
        np.testing.assert_allclose(expand_coefficients(RootPoly([1, -1], leading=3.0)),
                                   [-3, 0, 3])


class TestDerivativeCoefficients:
    def test_cubic(self):
        np.testing.assert_allclose(derivative_coefficients(RootPoly([1, 2, 3])),
                                   [11, -12, 3])

    def test_double_root(self):
        a = 0.7
        np.testing.assert_allclose(derivative_coefficients(RootPoly([a, a])),
                                   [-2 * a, 2])

    def test_symmetric_pair(self):
        np.testing.assert_allclose(derivative_coefficients(RootPoly([1, -1])), [0, 2])

    def test_degree_zero_refused(self):
        with pytest.raises(ZeroDegree):
            derivative_coefficients(RootPoly([]))


class TestLogDeriv:
    def test_two_poles(self):
        # weighted: 2/(2-1) + 1/(2+1) = 7/3
        w = WeightedLogDeriv([1, -1], [2.0, 1.0])
        assert log_abs_log_deriv(w, 2.0) == pytest.approx(math.log(7.0 / 3.0), rel=1e-14)

    def test_single_pole(self):
        # a complex weight: |1j / 2| = 0.5
        w = WeightedLogDeriv([0], [1j])
        assert log_abs_log_deriv(w, 2.0) == pytest.approx(math.log(0.5), rel=1e-14)

    def test_matches_coefficient_ratio(self):
        p = RootPoly([1, 2, 3])
        val = log_abs_log_deriv(WeightedLogDeriv(p.root_array()), 0.0)
        assert val == pytest.approx(math.log(11.0 / 6.0), rel=1e-14)
        ratio = horner(derivative_coefficients(p), 0.0) / horner(expand_coefficients(p), 0.0)
        assert val == pytest.approx(math.log(abs(ratio)), rel=1e-12)

    def test_near_pole_refused(self):
        with pytest.raises(NearPole):
            log_abs_log_deriv(WeightedLogDeriv([1.0]), 1.0 + 1e-14)

    def test_exclusion_radius_per_point(self, rng):
        zs = rng.normal(size=50) * 10.0 ** rng.integers(-5, 5, 50) + 1j * rng.normal(size=50)
        radii = exclusion_radius(zs)
        assert radii.shape == zs.shape
        assert radii.tolist() == [1e-12 * (1.0 + abs(complex(z))) for z in zs]
        assert exclusion_radius(3.0 + 4.0j) == 6e-12

    def test_weight_length_checked(self):
        with pytest.raises(SizeMismatch):
            WeightedLogDeriv([1, 2], [1.0])


class TestLogAbsLogDeriv:
    def test_single_pole_at_e(self):
        assert log_abs_log_deriv(WeightedLogDeriv([0]), math.e) == pytest.approx(-1.0)

    def test_matches_plain_eval(self):
        w = WeightedLogDeriv([1, -1])
        assert log_abs_log_deriv(w, 2.0) == pytest.approx(math.log(4.0 / 3.0))

    def test_symmetric_pair_on_axis(self):
        # 1/(z-i) + 1/(z+i) = 2z/(z^2+1); at z=1 this is 1, so the log is 0
        w = WeightedLogDeriv([1j, -1j])
        assert log_abs_log_deriv(w, 1.0) == pytest.approx(0.0, abs=1e-14)

    def test_exact_cancellation_flags_neg_infinity(self):
        w = WeightedLogDeriv([1j, -1j])
        assert log_abs_log_deriv(w, 0.0) == float("-inf")

    @pytest.mark.parametrize("weighted", [False, True])
    def test_matches_scalar_formula_exactly(self, weighted, rng):
        for n in (1, 7, 100, 300):
            roots = rng.normal(size=n) + 1j * rng.normal(size=n)
            weights = (rng.normal(size=n) + 1j * rng.normal(size=n)) if weighted else None
            w = WeightedLogDeriv(roots, weights)
            for z in rng.normal(size=10) + 1j * rng.normal(size=10):
                assert log_abs_log_deriv(w, z) == log_abs_log_deriv_scalar(w, complex(z))

    def test_no_poles_flags_neg_infinity(self):
        assert log_abs_log_deriv(WeightedLogDeriv([]), 1.0) == float("-inf")

    def test_large_n_no_overflow(self):
        n = 10 ** 6
        roots = np.linspace(1.0, 2.0, n)
        w = WeightedLogDeriv(roots)
        val = log_abs_log_deriv(w, 0.0)
        # sum of n terms each in [-1, -1/2]: log of about 0.69n
        assert math.isfinite(val)
        assert val == pytest.approx(math.log(np.abs(np.sum(1.0 / (0.0 - roots)))), rel=1e-9)


class TestInvariants:
    def test_coefficient_eval_consistency(self, rng):
        for _ in range(20):
            deg = int(rng.integers(1, 51))
            roots = (rng.uniform(-10, 10, deg) + 1j * rng.uniform(-10, 10, deg))
            p = RootPoly(roots, leading=complex(rng.normal(), rng.normal()))
            coeffs = expand_coefficients(p)
            for z in rng.uniform(-20, 20, 5) + 1j * rng.uniform(-20, 20, 5):
                via_coeffs = horner(coeffs, z)
                assert abs(direct(p, z) - via_coeffs) <= 1e-9 * horner_magnitude(coeffs, z)

    def test_derivative_identity_central_difference(self, rng):
        for _ in range(20):
            deg = int(rng.integers(1, 15))
            roots = rng.normal(size=deg) + 1j * rng.normal(size=deg)
            p = RootPoly(roots)
            dc = derivative_coefficients(p)
            z = complex(rng.normal() + 3.0, rng.normal() + 3.0)
            h = 1e-6 * max(1.0, abs(z))
            fd = (direct(p, z + h) - direct(p, z - h)) / (2 * h)
            assert horner(dc, z) == pytest.approx(fd, rel=1e-4)

    def test_log_deriv_identity_away_from_roots(self, rng):
        for _ in range(20):
            deg = int(rng.integers(2, 30))
            roots = rng.normal(size=deg) + 1j * rng.normal(size=deg)
            p = RootPoly(roots)
            w = WeightedLogDeriv(roots)
            z = complex(5.0 + rng.uniform(0, 2), 5.0 + rng.uniform(0, 2))
            if np.min(np.abs(z - np.asarray(roots))) < 0.1:
                continue
            lhs = log_abs_log_deriv(w, z)
            rhs = horner(derivative_coefficients(p), z) / horner(expand_coefficients(p), z)
            assert lhs == pytest.approx(math.log(abs(rhs)), rel=1e-9, abs=1e-12)

    def test_conjugation_symmetry(self, rng):
        # real poles: the sum at conj(z) is the conjugate of the sum at z
        for _ in range(20):
            w = WeightedLogDeriv(rng.normal(size=8))
            z = complex(rng.normal() * 3 + 10, rng.normal() * 3)
            assert log_abs_log_deriv(w, z.conjugate()) == pytest.approx(
                log_abs_log_deriv(w, z), rel=1e-12, abs=1e-12)


class TestSerialization:
    def test_canonical_order_is_lexicographic(self):
        pts = [1 + 1j, -1 + 0j, 1 - 1j, 0 + 0j]
        ordered = canonical_order(pts)
        np.testing.assert_allclose(ordered, [-1, 0, 1 - 1j, 1 + 1j])


@pytest.mark.parametrize("call, expected", [
    (lambda: log_abs_log_deriv(WeightedLogDeriv([1.0, 1j], [0.0, 0.0]), 2.0), -math.inf),
    # inf / (2 - 1) has a nan imaginary part, which numpy flags as invalid
    (lambda: np.errstate(invalid="ignore")(log_abs_log_deriv)(
        WeightedLogDeriv([1.0, 1j], [math.inf, 1.0]), 2.0), math.inf),
    (lambda: expand_coefficients(RootPoly([], 2.5 - 1j)), np.array([2.5 - 1j])),
    (lambda: canonical_order([]), np.array([], dtype=complex)),
], ids=["zero-weights", "infinite-weight", "no-roots", "empty-order"])
def test_edge_values(call, expected):
    assert_outcome(call, expected)
