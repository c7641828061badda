import math
import os
import signal
import subprocess
import sys
import textwrap
import threading
import warnings
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    assert_multiset_close,
    assert_outcome,
    clongdouble_polish,
    needs_long_double,
)
import spectralab.compute as compute
import spectralab.rootsolve as rootsolve
from spectralab.errors import DegenerateInput, NoConvergence
from spectralab.labcli.experiments import _thm1_roots, _walsh_roots, stream_id_for
from spectralab.measures import convex_hull_contains
from spectralab.polycore import RootPoly, derivative_coefficients, expand_coefficients
from spectralab.randgen import RngStream
from spectralab.rootsolve import (
    NEWTON_TOL,
    TOL_ROOT,
    companion_roots,
    critical_points,
    interlaced_extremes,
    real_interlaced_critical_points,
    solve_all,
)


class TestSolveAll:
    def test_difference_of_squares(self):
        rep = solve_all([-1, 0, 1])
        assert_multiset_close(rep.roots, [-1, 1], 1e-12)

    def test_quadratic_formula(self):
        rep = solve_all([11, -12, 3])
        expected = [2 - 1 / math.sqrt(3), 2 + 1 / math.sqrt(3)]
        assert_multiset_close(rep.roots, expected, 1e-10)

    def test_wilkinson8_derivative_interlaces(self):
        p = RootPoly(np.arange(1.0, 9.0))
        rep = solve_all(derivative_coefficients(p))
        got = np.sort(rep.roots.real)
        assert np.max(np.abs(rep.roots.imag)) < 1e-8
        # independent oracle: LAPACK eigenvalues of the numpy companion matrix
        oracle = np.sort(np.roots(derivative_coefficients(p)[::-1]).real)
        np.testing.assert_allclose(got, oracle, atol=1e-8)
        assert np.all(got > np.arange(1.0, 8.0)) and np.all(got < np.arange(2.0, 9.0))

    def test_degenerate_inputs(self):
        with pytest.raises(DegenerateInput):
            solve_all([1.0])
        with pytest.raises(DegenerateInput):
            solve_all([1.0, 0.0])

    @pytest.mark.parametrize("coeffs", [[3.0, 2.0], [1 - 2j, 0.5j], [0.0, 7.0], [1e-300, 1e300]])
    def test_degree_one_companion_is_the_quotient(self, coeffs):
        c = np.asarray(coeffs, dtype=complex)
        np.testing.assert_array_equal(companion_roots(c), [-c[0] / c[1]])

    @pytest.mark.parametrize("coeffs, roots", [
        ([0, 1, 1], [0, -1]), ([0, 0, 1], [0, 0]),
        ([0, -2, 0, 1], [0, -math.sqrt(2), math.sqrt(2)]), ([0, 0, 0, 2], [0, 0, 0])])
    def test_exact_zero_roots(self, coeffs, roots):
        # at z = 0 both |P(z)| and sum|c_k||z|^k are 0: an exact root, residual 0
        rep = solve_all(coeffs)
        assert_multiset_close(rep.roots, roots, 1e-15)
        assert np.all(rep.residuals[rep.roots == 0] == 0)
        assert np.count_nonzero(rep.roots == 0) == roots.count(0)
        assert rep.residuals.max() <= TOL_ROOT

    @pytest.mark.parametrize("coeffs", [[np.nan, 1.0], [1.0, np.nan, 1.0],
                                        [1.0, 2.0, np.inf], [-np.inf, 1.0]])
    @pytest.mark.parametrize("solve", [solve_all, companion_roots])
    def test_non_finite_refused(self, solve, coeffs):
        with pytest.raises(DegenerateInput):
            solve(coeffs)

    @pytest.mark.parametrize("n", [128, 256, 512])
    def test_spread_coefficients_give_no_false_roots(self, n):
        # 1 + 2z + ... + n z^(n-1) has every root in the unit disk
        rep = solve_all(np.arange(1.0, n + 1.0))
        assert rep.residuals.max() <= TOL_ROOT
        assert np.abs(rep.roots).max() <= 1.0 + 1e-9

    def test_badly_scaled_coefficients_certify(self):
        # companion eigenvalues alone certify 93 of these draws; the polish
        # step is what brings the rest under TOL_ROOT
        certified = []
        for i, coeffs in enumerate(scaled_coefficient_family()):
            try:
                rep = solve_all(coeffs)
            except NoConvergence:
                continue
            assert rep.residuals.max() <= TOL_ROOT
            certified.append(i)
        assert not set(SCALED_CERTIFIED_BEFORE) - set(certified)


def scaled_coefficient_family():
    """200 real coefficient vectors of degree 1..38 whose entries span 16 decades."""
    rng = np.random.default_rng(2024)
    for _ in range(200):
        n = int(rng.integers(2, 40))
        yield rng.normal(size=n + 1) * 10.0 ** rng.uniform(-8, 8, n + 1)


# draws of scaled_coefficient_family that the Aberth iteration with its
# companion fallback certified
SCALED_CERTIFIED_BEFORE = (
    1, 3, 4, 7, 9, 10, 12, 13, 14, 19, 20, 22, 23, 24, 26, 27, 30, 33, 34, 35,
    36, 37, 38, 39, 41, 42, 44, 47, 48, 52, 53, 59, 63, 64, 65, 66, 67, 68, 69,
    73, 74, 75, 77, 78, 79, 80, 81, 82, 85, 86, 89, 91, 92, 94, 95, 98, 102,
    103, 104, 107, 109, 110, 117, 120, 125, 126, 129, 133, 136, 137, 138, 139,
    140, 141, 143, 148, 150, 153, 155, 161, 162, 164, 168, 170, 172, 173, 174,
    175, 177, 178, 179, 180, 182, 183, 184, 185, 188, 189, 190, 191, 195, 199,
)


class TestCriticalPoints:
    def test_cubic(self):
        rep = critical_points(RootPoly([1, 2, 3]))
        expected = [2 - 1 / math.sqrt(3), 2 + 1 / math.sqrt(3)]
        assert_multiset_close(rep.roots, expected, 1e-10)

    def test_triple_root_multiplicity_rule(self):
        a = 0.5 + 0.25j
        rep = critical_points(RootPoly([a, a, a]))
        assert_multiset_close(rep.roots, [a, a], 1e-3)

    def test_fourth_roots_of_unity(self):
        rep = critical_points(RootPoly([1, 1j, -1, -1j]))
        assert_multiset_close(rep.roots, [0, 0, 0], 1e-3)

    def test_degree_below_two_refused(self):
        with pytest.raises(DegenerateInput):
            critical_points(RootPoly([1.0]))

    def test_multiple_root_copies_come_first_exactly(self):
        # np.unique orders the values by real part, then imaginary part
        roots = [0.5, -1.0, 2j, 0.5, 1.5, 2j, 0.5]
        rep = critical_points(RootPoly(roots))
        np.testing.assert_array_equal(rep.roots[:3], [2j, 0.5, 0.5])
        np.testing.assert_array_equal(rep.residuals[:3], 0.0)
        assert rep.residuals.max() <= NEWTON_TOL
        assert rep.roots.size == len(roots) - 1

    @pytest.mark.parametrize("roots", [[0.0, 1.0, np.nan], [0.0, 1j, np.inf],
                                       [-np.inf, 0.0, 1.0]])
    def test_non_finite_refused(self, roots):
        with pytest.raises(DegenerateInput):
            critical_points(RootPoly(roots))

    def test_large_degree_root_based_path(self, rng):
        n = 300
        roots = np.exp(2j * np.pi * rng.random(n))
        rep = critical_points(RootPoly(roots))
        s1 = np.abs((1.0 / (rep.roots[:, None] - roots[None, :])).sum(axis=1))
        assert s1.max() < 1e-6
        # all inside the closed unit disk, as the hull demands
        assert np.abs(rep.roots).max() <= 1.0 + 1e-9


def thm1_roots(n):
    """The roots of thm1-convergence trial 0 at seed 42 (n_large = 1600), cut to the first n."""
    return _thm1_roots(RngStream(42, stream_id_for("thm1-convergence", 0)), 1600)[:n]


# correctly rounded roots of z^4 - 1.5 z^2 + z + 1, whose derivative
# 4z^3 - 3z + 1 = (2z - 1)^2 (z + 1) has a double zero at 1/2
DOUBLE_CRIT_ROOTS = [-1.2945061959490187, -0.5946377110072718,
                     0.9445719534781454 - 0.6378764180064217j,
                     0.9445719534781454 + 0.6378764180064217j]


class TestDeflation:
    # rows of the log-derivative sums when every sweep evaluated all 1599 points
    FULL_SWEEP_ROWS = 25_584

    def test_sweep_budget(self, monkeypatch):
        # count the rows of the log-derivative sums by route: at degree 1600
        # every one must be a row reduction, so the counter cannot pass idle
        rows = {"weighted": [], "row": []}
        sums = rootsolve._log_deriv_sums

        def counted(w, poles, weights=None):
            rows["row" if weights is None else "weighted"].append(w.size)
            return sums(w, poles, weights)

        monkeypatch.setattr(rootsolve, "_log_deriv_sums", counted)
        rep = critical_points(RootPoly(thm1_roots(1600)))
        assert rep.roots.size == 1599
        assert rows["weighted"] == [] and rows["row"]
        assert sum(rows["row"]) <= self.FULL_SWEEP_ROWS // 2
        # each point froze only after one more correction, so its certificate
        # sits at the rounding floor rather than just under NEWTON_TOL
        assert rep.residuals.max() <= 1e-2 * NEWTON_TOL

    def test_isolation_pass_skips_sweeps_with_nothing_converged(self, monkeypatch):
        # the first sweeps of a solve have no converged active point, and
        # _isolated must not run its row kernel on zero rows
        sizes = []
        isolated = rootsolve._isolated

        def spied(w, cand, *args):
            sizes.append(cand.size)
            return isolated(w, cand, *args)

        monkeypatch.setattr(rootsolve, "_isolated", spied)
        walsh = _walsh_roots(RngStream(42, stream_id_for("walsh-clusters", 0)),
                             {"k": 2, **WALSH})[1]
        for roots in (thm1_roots(1600), walsh):
            critical_points(RootPoly(roots))
        assert sizes and min(sizes) > 0

    @pytest.mark.parametrize("n", [40, 400], ids=["weighted", "row"])
    def test_certification_sweep_reactivates_a_failing_point(self, n, monkeypatch):
        # the last Newton evaluation of a solve is its passing certification
        # sweep; inflating one of its steps must send that point back to the
        # active set for one more sweep and a second certification
        steps = rootsolve._newton_steps
        calls = []

        def counted(w, sums):
            calls.append(w.size)
            return steps(w, sums)

        monkeypatch.setattr(rootsolve, "_newton_steps", counted)
        base = critical_points(RootPoly(thm1_roots(n)))
        cert, seen = len(calls) - 1, []
        assert calls[cert] == n - 1

        def inflated(w, sums):
            newton, s1, den = steps(w, sums)
            if len(seen) == cert:
                newton = newton.copy()
                newton[3] = 1e-6 * (1.0 + abs(w[3]))
            seen.append(w.size)
            return newton, s1, den

        monkeypatch.setattr(rootsolve, "_newton_steps", inflated)
        rep = critical_points(RootPoly(thm1_roots(n)))
        assert rep.residuals.max() <= NEWTON_TOL
        assert rep.iterations >= base.iterations + 2
        assert seen[cert + 1] == 1 and seen[-1] == n - 1
        assert np.all(np.abs(rep.roots - base.roots) <= 1e-15 * np.abs(base.roots))

    def test_max_iter_three_raises(self):
        with pytest.raises(NoConvergence):
            critical_points(RootPoly(thm1_roots(1600)), max_iter=3)

    @pytest.mark.parametrize("roots, expected, tol", [
        ([1, 1j, -1, -1j], [0, 0, 0], 1e-3),
        (DOUBLE_CRIT_ROOTS, [0.5, 0.5, -1], 1e-6),
    ], ids=["triple-at-0", "double-at-half"])
    def test_multiple_critical_points_converge(self, roots, expected, tol):
        rep = critical_points(RootPoly(roots))
        assert rep.residuals.max() <= NEWTON_TOL
        assert_multiset_close(rep.roots, expected, tol)

    @pytest.mark.parametrize("roots", [
        thm1_roots(400),
        _walsh_roots(RngStream(42, stream_id_for("walsh-clusters", 3)),
                     {"k": 3, "radius": 0.5, "n_per_cluster": 20})[1],
    ], ids=["thm1-400", "walsh-k3"])
    def test_residuals_are_steps_at_returned_points(self, roots):
        rep = critical_points(RootPoly(roots))
        w = rep.roots
        assert rep.residuals.max() <= NEWTON_TOL
        # the same evaluation as the solver's, at the returned positions:
        # weighted over the distinct roots below the row-kernel degree
        values, counts = np.unique(roots, return_counts=True)
        if roots.size >= rootsolve._ROW_KERNEL_DEGREE:
            s1, s2 = rootsolve._log_deriv_sums(w, np.repeat(values, counts))
        else:
            s1, s2 = rootsolve._log_deriv_sums(w, values, counts.astype(float))
        # the solver steps on the roots times 2^-e, max|root| in [1, 2), so
        # its step test 1 + |w| reads 2^e + |w| here (2^e = 1 for thm1)
        scale = 2.0 ** (math.frexp(np.abs(roots).max())[1] - 1)
        np.testing.assert_array_equal(rep.residuals,
                                      np.abs(s1 / (s1 * s1 - s2)) / (scale + np.abs(w)))
        # and an independent one, summed directly
        inv = 1.0 / (w[:, None] - roots[None, :])
        s1, s2 = inv.sum(axis=1), (inv * inv).sum(axis=1)
        assert np.max(np.abs(s1 / (s1 * s1 - s2)) / (scale + np.abs(w))) <= NEWTON_TOL

    @pytest.mark.parametrize("n, weighted", [(79, True), (80, False)])
    def test_degree_picks_the_log_deriv_route(self, n, weighted, monkeypatch):
        routes = []
        sums = rootsolve._log_deriv_sums

        def spied(w, poles, weights=None):
            routes.append(weights is not None)
            return sums(w, poles, weights)

        monkeypatch.setattr(rootsolve, "_log_deriv_sums", spied)
        assert critical_points(RootPoly(thm1_roots(n))).roots.size == n - 1
        assert routes and set(routes) == {weighted}


def derivative_roots_mp(roots):
    """Roots of P' for P = prod(z - r) over integer roots r, by 40-digit mpmath.polyroots."""
    c = [1]
    for r in roots:
        c = [a - r * b for a, b in zip(c + [0], [0] + c)]
    n = len(c) - 1
    with mpmath.workdps(40):
        return [complex(z) for z in mpmath.polyroots([a * (n - k) for k, a in enumerate(c[:-1])],
                                                     maxsteps=200, extraprec=200)]


@pytest.mark.parametrize("roots", [[-20, -19, -3], [-20, -18, 14], [-19, -18, -2]])
def test_start_point_on_a_pole_certifies(roots):
    # a start point lands exactly on a root of P, where the Newton step is
    # not finite and its fallback 1e-3 (1 + |w|) moves the point off; the
    # root nearest the centroid, roots[1], has no start point
    start = np.delete(np.array(roots, float), 1)
    assert np.isin(start + (np.mean(roots) - start) * (0.5 / 3), roots).any()
    rep = critical_points(RootPoly(np.array(roots, dtype=complex)))
    assert rep.residuals.max() <= NEWTON_TOL
    # measured: equal to the reference converted to doubles
    ref = derivative_roots_mp(roots)
    for w, z in zip(sorted(rep.roots.tolist(), key=lambda z: z.real),
                    sorted(ref, key=lambda z: z.real)):
        assert abs(w - z) <= 1e-15 * abs(z)


@pytest.mark.xfail(strict=True, raises=(NoConvergence, RuntimeWarning),
                   reason="ROADMAP item 3: one global power-of-two scale cannot serve "
                          "roots whose gaps differ by 1e160 or more")
@pytest.mark.parametrize("roots", [[0, 1e-160, 1], [1e-300, 1e300, 2e300]],
                         ids=["0-1e-160-1", "1e-300-1e300-2e300"])
def test_mixed_scale_roots_certify(roots):
    # the first overflows in the s2 sums, the second stalls at step 1e-3
    rep = critical_points(RootPoly(np.array(roots, dtype=complex)))
    assert rep.residuals.max() <= NEWTON_TOL
    # P' = 3z^2 - 2 e1 z + e2 for the elementary symmetric sums e1, e2
    with mpmath.workdps(60):
        a, b, c = map(mpmath.mpf, roots)
        e1, e2 = a + b + c, a * b + a * c + b * c
        big = (e1 + mpmath.sqrt(e1 * e1 - 3 * e2)) / 3
        ref = [e2 / (3 * big), big]
    for w, z in zip(sorted(rep.roots.tolist(), key=abs), ref):
        assert abs(w - z) <= 1e-15 * abs(z)


SCALE_PROBE = np.array([1, 2, 3, 1j, 2 + 1j, -1.5 + 0.5j])


class TestScaling:
    @pytest.mark.parametrize("k", [-531, -332, 332, 531])
    def test_power_of_two_scaling_is_exact(self, k):
        walsh = _walsh_roots(RngStream(42, stream_id_for("walsh-clusters", 3)),
                             {"k": 3, **WALSH})[1]
        for roots in (SCALE_PROBE, walsh):
            ref = critical_points(RootPoly(roots))
            rep = critical_points(RootPoly(roots * 2.0 ** k))
            np.testing.assert_array_equal(rep.roots, ref.roots * 2.0 ** k)
            np.testing.assert_array_equal(rep.residuals, ref.residuals)
            assert rep.iterations == ref.iterations

    @pytest.mark.parametrize("scale", [1e-200, 1e-160, 1e-100, 1e160, 1e200])
    def test_decimal_scaling_keeps_the_points(self, scale):
        # unscaled, these returned points 1.1e-1 off at 1e-100 and 5e6 off at
        # 1e-160 with passing residuals, and raised at the other three with
        # overflow warnings; measured worst now 1.5e-16
        ref = np.sort_complex(critical_points(RootPoly(SCALE_PROBE)).roots)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rep = critical_points(RootPoly(SCALE_PROBE * scale))
        assert rep.residuals.max() <= NEWTON_TOL
        got = np.sort_complex(rep.roots / scale)
        assert np.max(np.abs(got - ref) / np.abs(ref)) <= 1e-15


def newton_polish_mp(w, roots):
    """Newton on P'/P'' from w at 60 digits, with the sums taken over the roots."""
    with mpmath.workdps(60):
        r = [mpmath.mpc(x) for x in roots]
        z = mpmath.mpc(w)
        for _ in range(100):
            s1 = mpmath.fsum(1 / (z - x) for x in r)
            s2 = mpmath.fsum(1 / (z - x) ** 2 for x in r)
            step = s1 / (s1 * s1 - s2)
            z -= step
            if abs(step) <= mpmath.mpf(10) ** -55 * abs(z):
                return z
    raise AssertionError(f"60-digit Newton polish from {w} did not settle")


def tight_pairs():
    """Four shapes, each with a root pair d apart, for d = 1e-2 ... 1e-14."""
    for k in range(2, 15):
        d = 10.0 ** -k
        shapes = {"real": [0, d, 1, 2], "real-pairs": [0, d, 1, 1 + d],
                  "imag-pairs": [0, d, 1j, 1j + d],
                  "three-pairs": [0, d, 1, 1 + d, 2, 2 + d]}
        for name, roots in shapes.items():
            yield pytest.param(np.array(roots, dtype=complex), id=f"{name}-1e-{k:02d}")


@pytest.mark.parametrize("roots", tight_pairs())
def test_tight_root_pair_certifies(roots):
    # the repulsion pushes the two start points beside a tight pair apart by
    # about x3 a sweep, a growing move, before they converge: up to 67 sweeps.
    # Unturned, the start points beside the pair at 0 of imag-pairs-1e-09
    # mirrored each other about Re z = 5e-10 and never converged.
    rep = critical_points(RootPoly(roots))
    assert rep.residuals.max() <= NEWTON_TOL
    ref = [newton_polish_mp(w, roots) for w in rep.roots.tolist()]
    # measured worst 1.2e-16
    for w, z in zip(rep.roots.tolist(), ref):
        assert abs(w - z) <= 1e-15 * abs(z)
    with mpmath.workdps(60):
        gaps = [abs(a - b) for i, a in enumerate(ref) for b in ref[i + 1:]]
        assert min(gaps) > 1e-30 * max(abs(z) for z in ref)


@pytest.mark.parametrize("degree, on_axis, imag_bound", [
    (21, 2, 2e-18), (101, 6, 2.2e-17), (401, 6, 3e-18)])
def test_conjugate_symmetric_input_keeps_symmetry_to_roundoff(degree, on_axis, imag_bound):
    # roots z, conj z and 0.3: the critical points come in conjugate pairs or
    # lie on the real axis, but the solve keeps that only to roundoff, since
    # np.unique's row order, the dropped root and the repulsion's summation
    # order are not conjugation-symmetric. The bounds pin the measurement:
    # every point 1.1e-16 from its nearest conjugate, and the points on the
    # axis off it by 1.7e-18, 2.2e-17 and 2.6e-18
    z = [1, 1j] @ np.random.default_rng(5).normal(size=(2, degree // 2))
    w = critical_points(RootPoly(np.concatenate([z, z.conj(), [0.3]]))).roots
    assert np.abs(w.conj()[:, None] - w).min(axis=1).max() <= 1.2e-16
    axis = np.abs(w.imag) < 1e-8
    assert axis.sum() == on_axis and np.abs(w.imag[~axis]).min() > 1e-2
    assert np.abs(w.imag[axis]).max() <= imag_bound


HALF_GRID = st.integers(-4, 4).map(lambda m: m / 2)


@st.composite
def grid_with_near_copy(draw):
    """2-6 distinct points of the half-integer grid of [-2, 2]^2, plus a copy
    of one of them offset by 10^-k u, k in 2..14, u in {1, i, e^(i pi/4)}."""
    base = draw(st.lists(st.builds(complex, HALF_GRID, HALF_GRID),
                         min_size=2, max_size=6, unique=True))
    k = draw(st.integers(2, 14))
    u = draw(st.sampled_from([1, 1j, complex(math.sqrt(0.5), math.sqrt(0.5))]))
    return np.array(base + [draw(st.sampled_from(base)) + 10.0 ** -k * u])


@given(grid_with_near_copy())
@settings(max_examples=200, deadline=None, derandomize=True, database=None)
def test_near_coincident_roots_certify(roots):
    rep = critical_points(RootPoly(roots))
    assert rep.residuals.max() <= NEWTON_TOL
    n = roots.size
    vieta = abs(rep.roots.sum() - (n - 1) / n * roots.sum())
    assert vieta <= 1e-9 * (1 + np.abs(roots).sum())


def small_degree_inputs():
    """Walsh k=2 and k=3 draws 0-39, thm1 draws 0-39 at n = 40, and one
    complex Gaussian draw at each degree 3-79: all below the row-kernel degree
    of the P'/P sums."""
    for k in (2, 3):
        for t in range(40):
            yield _walsh_roots(RngStream(42, stream_id_for("walsh-clusters", t)),
                               {"k": k, "radius": 0.5, "n_per_cluster": 20})[1]
    for t in range(40):
        yield _thm1_roots(RngStream(42, stream_id_for("thm1-convergence", t)), 40)
    rng = np.random.default_rng(80)
    for d in range(3, 80):
        yield rng.normal(size=d) + 1j * rng.normal(size=d)


def extended_newton_distance(roots):
    """max |w - z| / (1 + |z|) over the critical points w of the roots, where z
    is w polished in clongdouble."""
    w = critical_points(RootPoly(roots)).roots
    z = clongdouble_polish(w, roots)
    return float(np.max(np.abs(w - z) / (1.0 + np.abs(z))))


@needs_long_double
def test_small_degree_points_match_extended_newton():
    # measured worst 6.8e-16, at a thm1 point of modulus 0.19
    assert max(map(extended_newton_distance, small_degree_inputs())) <= 1e-15


@needs_long_double
def test_pinned_thm1_points_match_extended_newton():
    # the solves behind the two pinned thm1 runs (tests/test_labcli.py): seed
    # 7, trials 0-2, each draw cut to n_small and n_large of each pin; measured
    # worst 6.6e-16, and 9.7e-16 before the start-point turn
    worst = 0.0
    for t in range(3):
        xi = _thm1_roots(RngStream(7, stream_id_for("thm1-convergence", t)), 400)
        worst = max(worst, *(extended_newton_distance(xi[:n]) for n in (12, 40, 100, 400)))
    assert worst <= 1e-15


class ThreadPoolStarted(Exception):
    pass


class RaisingPool:
    """Stands in for ThreadPoolExecutor: raises if a row kernel asks for a pool."""

    def __init__(self, *args, **kwargs):
        raise ThreadPoolStarted


def repulsion_terms(w, fixed):
    """The terms 1/(w_i - p) of each row of the repulsion sum, own pole at inf (term 0)."""
    diff = w[:, None] - np.concatenate([w, fixed])[None, :]
    np.fill_diagonal(diff, np.inf)
    return np.reciprocal(diff)


class TestRepulsion:
    @pytest.mark.parametrize("m, f", [(400, 0), (300, 157), (130, 1000)])
    def test_tiles_match_a_direct_row_sum(self, m, f, monkeypatch):
        # sizes that are not multiples of the tile, above the tile threshold
        assert m % rootsolve._TILE and m * (m + f) >= rootsolve._THREAD_GRID
        rng = np.random.default_rng(m + f)
        pts = rng.normal(size=m + f) + 1j * rng.normal(size=m + f)
        w, fixed = pts[:m], pts[m:]
        got = {}
        for count in (1, 2):
            monkeypatch.setattr(compute._THREADS, "count", count)
            got[count] = rootsolve._row_repulsion(w, fixed)
        np.testing.assert_array_equal(got[1], got[2])
        terms = repulsion_terms(w, fixed)
        exact = np.array([complex(math.fsum(row.real), math.fsum(row.imag)) for row in terms])
        bound = 4 * np.finfo(float).eps * np.abs(terms).sum(axis=1)
        assert np.all(np.abs(got[1] - exact) <= bound)

    def test_split_slots_are_not_shared_under_fast_switching(self, monkeypatch):
        # the tiles and row blocks index their work arrays by run_two's slot:
        # each running index writes its index into its slot and finds it there
        # after a run of bytecodes during which the other thread may run. The
        # pool thread runs in slot 1; a split nested in an index finds the
        # pool thread lent and runs serially, in slot 0 of its own caller.
        monkeypatch.setattr(compute._THREADS, "count", 2)
        bufs = np.empty((2, 4, 64))

        def nested(j, slot):
            return threading.current_thread().name, slot

        def fill(i, slot):
            bufs[slot] = i
            for _ in range(50):
                pass
            inner = compute.run_two(nested, 2) if i % 100 == 0 else []
            name = threading.current_thread().name
            return bool((bufs[slot] == i).all()), name, slot, inner

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            got = compute.run_two(fill, 2000)
        finally:
            sys.setswitchinterval(interval)
        assert all(ok for ok, _, _, _ in got)
        assert all(slot == int(name.startswith("spectralab-compute"))
                   for _, name, slot, _ in got)
        assert {slot for _, _, slot, _ in got} == {0, 1}
        assert all(inner == [(name, 0)] * 2 for _, name, _, inner in got[::100])

    @pytest.mark.parametrize("m, f", [(59, 0), (40, 19), (79, 0), (300, 100)])
    def test_row_kernel_below_the_tile_threshold(self, m, f):
        # walsh and small thm1 sizes keep the one row kernel's bits
        assert m * (m + f) < rootsolve._THREAD_GRID
        rng = np.random.default_rng(m)
        pts = rng.normal(size=m + f) + 1j * rng.normal(size=m + f)
        w, fixed = pts[:m], pts[m:]
        np.testing.assert_array_equal(rootsolve._row_repulsion(w, fixed),
                                      np.add.reduce(repulsion_terms(w, fixed), axis=1))


class TestRowThreads:
    @pytest.fixture
    def threads(self, monkeypatch):
        def force(count):
            monkeypatch.setattr(compute._THREADS, "count", count)
        return force

    def test_thread_count_does_not_change_results(self, threads):
        p = RootPoly(thm1_roots(1600))
        reps = []
        for count in (1, 2):
            threads(count)
            reps.append(critical_points(p))
        np.testing.assert_array_equal(reps[0].roots, reps[1].roots)
        np.testing.assert_array_equal(reps[0].residuals, reps[1].residuals)
        assert reps[0].iterations == reps[1].iterations

    def test_thread_count_does_not_change_real_gap_zeros(self, threads, monkeypatch):
        names = set()

        def recorded(fn, n):
            def named(i, slot):
                names.add(threading.current_thread().name)
                return fn(i, slot)
            return compute.run_two(named, n)

        monkeypatch.setattr(rootsolve, "run_two", recorded)
        x = np.sort(np.random.default_rng(4).exponential(size=2000))
        etas = []
        for count in (1, 2):
            threads(count)
            names.clear()
            etas.append(real_interlaced_critical_points(x))
        np.testing.assert_array_equal(etas[0], etas[1])
        assert any(name.startswith("spectralab-compute") for name in names)

    @pytest.mark.parametrize("state", ["raise", "ignore"])
    def test_pool_half_runs_under_the_callers_error_state(self, threads, state):
        # numpy's error state is per thread: the pool thread must take the
        # caller's. Every row divides by zero, at its first pole. The first
        # two blocks wait for each other, so the thread holding the first can
        # only be met by the other taking the second: each runs on its own
        # thread.
        threads(2)
        nrows, height, names, raised = 256, rootsolve._BLOCK_ROWS, set(), set()
        meet = threading.Barrier(2, timeout=30)

        def block(lo, hi, diff):
            name = threading.current_thread().name
            if lo < 2 * height:
                meet.wait()
            try:
                np.reciprocal(diff, out=diff)
            except FloatingPointError:
                raised.add(name)
                raise
            names.add(name)

        def run():
            rootsolve._over_rows(block, np.zeros(nrows),
                                 np.arange(rootsolve._THREAD_GRID // 128, dtype=float))

        with warnings.catch_warnings(), np.errstate(divide=state):
            warnings.simplefilter("error")
            if state == "raise":
                with pytest.raises(FloatingPointError):
                    run()
            else:
                run()
        ran = raised if state == "raise" else names
        assert any(name.startswith("spectralab-compute") for name in ran)

    @pytest.mark.parametrize("dtype", [float, complex])
    @pytest.mark.parametrize("nrows", [100, 200], ids=["one-block", "split"])
    def test_blocks_get_the_broadcast_differences(self, threads, dtype, nrows):
        # 100 x 1000 is below _THREAD_GRID and 200 x 1000 is not
        threads(2)
        rng = np.random.default_rng(nrows)

        def draw(size):
            x, y = rng.normal(size=(2, size))
            return x + 1j * y if dtype is complex else x

        at, poles = draw(nrows), draw(1000)
        got = []

        def block(lo, hi, diff):
            got.append((lo, hi, diff.dtype, diff.tobytes()))

        rootsolve._over_rows(block, at, poles)
        got.sort()
        if nrows * poles.size < rootsolve._THREAD_GRID:
            assert [(lo, hi) for lo, hi, *_ in got] == [(0, nrows)]
        else:
            bounds = list(range(0, nrows, rootsolve._BLOCK_ROWS)) + [nrows]
            assert [(lo, hi) for lo, hi, *_ in got] == list(zip(bounds, bounds[1:]))
        for lo, hi, kind, bits in got:
            assert kind == dtype and bits == (at[lo:hi, None] - poles).tobytes()

    @pytest.mark.parametrize("m, count", [(60, 20), (1000, 100)], ids=["one-block", "split"])
    def test_isolated_matches_two_passes(self, threads, monkeypatch, m, count):
        # m points, the first count of them candidates, and m + 1 roots;
        # candidate 0 sits at 0 and the last point on the edge of its disk,
        # where candidate 0 is not isolated
        rng = np.random.default_rng(m)
        roots, w, den = ([1, 1j] @ rng.normal(size=(2, n)) for n in (m + 1, m, count))
        cand = np.arange(count)
        s1 = 10.0 ** rng.uniform(-14, -2, count) * np.exp(2j * np.pi * rng.random(count))
        s1[0], den[0], w[0] = 0, 1, 0
        bound = np.add.reduce(1 / np.abs(w[cand, None] - roots), axis=1)
        radius = m * (np.abs(s1) + 4 * np.finfo(float).eps * bound) / np.abs(den)

        def two_passes(w):
            # the rounding bound and the nearest distances in passes of their own
            dist = np.abs(w[cand, None] - w)
            dist[cand, cand] = np.inf
            return radius < 0.5 * dist.min(axis=1)

        passes = []
        over_rows = rootsolve._over_rows
        monkeypatch.setattr(rootsolve, "_over_rows", lambda *a: passes.append(over_rows(*a)))
        assert (count * (2 * m + 1) >= rootsolve._THREAD_GRID) == (m == 1000)
        for threads_used in (1, 2):
            threads(threads_used)
            for edge in (2 * radius[0], np.nextafter(2 * radius[0], 1)):
                w[-1] = edge
                want = two_passes(w)
                np.testing.assert_array_equal(rootsolve._isolated(w, cand, s1, den, roots), want)
                assert want[0] == (edge != 2 * radius[0]) and not want.all() and want.any()
        assert len(passes) == 4

    def test_proof_step_matches_two_passes(self, threads, monkeypatch):
        # 1000 points in [0.1, 1]^2, the first 100 of them candidates, and
        # 1001 roots 10 above them: a grid above _THREAD_GRID, where the proof
        # step clears every plain candidate and leaves the cases below to the
        # exact pass
        m, count = 1000, 100
        rng = np.random.default_rng(29)
        w = [1, 1j] @ rng.uniform(0.1, 1, size=(2, m))
        roots = [1, 1j] @ rng.uniform(0, 1, size=(2, m + 1)) + 10j
        cand = np.arange(count)
        s1 = 10.0 ** rng.uniform(-14, -10, count) * np.exp(2j * np.pi * rng.random(count))
        den = np.exp(2j * np.pi * rng.random(count))
        w[500:510], w[12] = w[1:11].conj(), w[11].conj()  # conjugates share a real part
        w[600:608], w[22] = -w[13:21].conj(), -w[21].conj()  # mirror images an imaginary part
        roots[:2] = w[30].real + 10j, 5 + 1j * w[30].imag  # d = 0 at candidate 30
        w[41], w[700] = w[40], w[42]  # duplicate points
        s1[50:52], den[52:54] = (np.inf, np.nan), (0, np.nan)  # rho not finite
        s1[55], den[55] = np.inf, np.inf
        den[54] = np.inf  # rho = 0: cleared
        s1[0], den[0], w[0] = 0, 1, 0  # the exact-edge neighbour of the test above
        s1[60:62] = 1e-9
        roots[2] = w[70] - 1e-9 * (1 + 1j)  # a root just below candidate 70 in both parts
        exact = [0, 30, 40, 41, 42, 50, 51, 52, 53, 55, 60, 61, 70]
        with np.errstate(divide="ignore", invalid="ignore"):
            bound = np.add.reduce(1 / np.abs(w[cand, None] - roots), axis=1)
            radius = m * (np.abs(s1) + 4 * np.finfo(float).eps * bound) / np.abs(den)
        # neighbours inside the clearance but outside the disk: above candidate
        # 60 in real part, below 61 and 70 in both parts
        w[800:803] = w[[60, 61, 70]] + radius[[60, 61, 70]] * np.array([1.5, -1 - 1j, -1 - 1j])

        def two_passes(w):
            dist = np.abs(w[cand, None] - w)
            dist[cand, cand] = np.inf
            return radius < 0.5 * dist.min(axis=1)

        rows = []
        over_rows = rootsolve._over_rows
        monkeypatch.setattr(rootsolve, "_over_rows",
                            lambda block, at, *a: (rows.append(at), over_rows(block, at, *a))[1])
        assert count * (2 * m + 1) >= rootsolve._THREAD_GRID
        for threads_used in (1, 2):
            threads(threads_used)
            for edge in (2 * radius[0], np.nextafter(2 * radius[0], 1)):
                w[-1] = edge
                want = two_passes(w)
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    got = rootsolve._isolated(w, cand, s1, den, roots)
                np.testing.assert_array_equal(got, want)
                np.testing.assert_array_equal(rows.pop(), w[exact])
                assert not rows and want[0] == (edge != 2 * radius[0])
                assert want[[30, 54]].all() and not want[exact[2:]].any()

    def test_freeze_test_traffic(self, monkeypatch):
        # per _isolated call: its candidates, whether its grid is at least
        # _THREAD_GRID (where the proof step runs) and the rows of its exact
        # passes; thm1 n = 1600 and walsh k = 2 (degree 40)
        calls = []
        isolated, over_rows = rootsolve._isolated, rootsolve._over_rows

        def spied(w, cand, s1, den, roots):
            large = cand.size * (roots.size + w.size) >= rootsolve._THREAD_GRID
            calls.append((cand.size, large, []))
            monkeypatch.setattr(rootsolve, "_over_rows", counted)
            try:
                return isolated(w, cand, s1, den, roots)
            finally:
                monkeypatch.setattr(rootsolve, "_over_rows", over_rows)

        def counted(block, at, *args):
            calls[-1][2].append(at.size)
            return over_rows(block, at, *args)

        monkeypatch.setattr(rootsolve, "_isolated", spied)
        for t in range(3):
            critical_points(RootPoly(_thm1_roots(
                RngStream(42, stream_id_for("thm1-convergence", t)), 1600)))
        proved = [(size, sum(rows)) for size, large, rows in calls if large]
        assert sum(size for size, _ in proved) >= 1000
        assert sum(rows for _, rows in proved) <= 0.01 * sum(size for size, _ in proved)
        thm1_calls = len(calls)
        for t in range(5):
            critical_points(RootPoly(_walsh_roots(
                RngStream(42, stream_id_for("walsh-clusters", t)), {"k": 2, **WALSH})[1]))
        walsh = calls[thm1_calls:]
        assert walsh and not any(large for _, large, _ in walsh)
        # the exact pass takes every candidate of a small grid and never runs on zero rows
        assert all(rows == [size] for size, large, rows in calls if not large)
        assert all(len(rows) <= 1 and 0 not in rows for _, _, rows in calls)

    def test_small_degrees_start_no_pool(self, threads, monkeypatch):
        threads(2)
        monkeypatch.setattr(compute._THREADS, "executor", None)
        monkeypatch.setattr(compute, "ThreadPoolExecutor", RaisingPool)
        for k in (2, 3):
            for t in range(5):
                stream = RngStream(42, stream_id_for("walsh-clusters", t))
                roots = _walsh_roots(stream, {"k": k, **WALSH})[1]
                critical_points(RootPoly(roots))
        critical_points(RootPoly(DOUBLE_CRIT_ROOTS))
        # the stub does catch a solve that wants the pool
        with pytest.raises(ThreadPoolStarted):
            critical_points(RootPoly(thm1_roots(1600)))

    def test_forked_workers_drop_the_inherited_pool(self):
        # a child forked after the pool exists must not wait on the parent's
        # threads, which it does not have; without the fork hook it hangs
        script = textwrap.dedent("""
            import multiprocessing
            import sys
            import numpy as np
            import spectralab.compute as compute
            import spectralab.rootsolve as rootsolve
            from spectralab.labcli.experiments import _thm1_roots, stream_id_for
            from spectralab.polycore import RootPoly
            from spectralab.randgen import RngStream

            compute._THREADS.count = 2
            roots = _thm1_roots(RngStream(42, stream_id_for("thm1-convergence", 0)), 1600)
            parent = rootsolve.critical_points(RootPoly(roots))
            assert compute._THREADS.executor is not None

            def solve_again():
                child = rootsolve.critical_points(RootPoly(roots))
                sys.exit(0 if np.array_equal(child.roots, parent.roots) else 1)

            proc = multiprocessing.get_context("fork").Process(target=solve_again)
            proc.start()
            proc.join()
            assert proc.exitcode == 0, proc.exitcode
        """)
        src = str(Path(rootsolve.__file__).parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [src] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])))
        # its own session, so that a hang can be ended with the child it forked
        proc = subprocess.Popen([sys.executable, "-c", script], env=env, text=True,
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                start_new_session=True)
        try:
            _, err = proc.communicate(timeout=120)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            pytest.fail("a forked child hung on the inherited thread pool")
        assert proc.returncode == 0, err


class TestRealInterlaced:
    def test_cubic(self):
        got = real_interlaced_critical_points([1.0, 2.0, 3.0])
        np.testing.assert_allclose(got, [2 - 1 / math.sqrt(3), 2 + 1 / math.sqrt(3)],
                                   atol=1e-12)

    def test_double_root_at_zero(self):
        got = real_interlaced_critical_points([0.0, 0.0, 1.0])
        np.testing.assert_allclose(got, [0.0, 2.0 / 3.0], atol=1e-12)

    def test_symmetric_pair(self):
        np.testing.assert_allclose(real_interlaced_critical_points([-1.0, 1.0]), [0.0],
                                   atol=1e-15)

    def test_requires_sorted(self):
        with pytest.raises(DegenerateInput):
            real_interlaced_critical_points([2.0, 1.0])

    @pytest.mark.parametrize("roots", [[0.0, 1.0, np.nan], [0.0, 1.0, np.inf],
                                       [-np.inf, 0.0, 1.0], [np.nan, np.nan]])
    @pytest.mark.parametrize("solve", [real_interlaced_critical_points, interlaced_extremes])
    def test_non_finite_refused(self, solve, roots):
        with pytest.raises(DegenerateInput):
            solve(roots)

    def test_agrees_with_general_solver(self, rng):
        for _ in range(25):
            n = int(rng.integers(3, 25))
            x = np.sort(rng.normal(size=n) * 2)
            fast = real_interlaced_critical_points(x)
            general = np.sort(critical_points(RootPoly(x)).roots.real)
            np.testing.assert_allclose(fast, general, atol=1e-10)

    def test_extremes_match_full_computation(self, rng):
        x = np.sort(rng.exponential(size=40))
        full = real_interlaced_critical_points(x)
        lo, hi = interlaced_extremes(x)
        assert lo == pytest.approx(full[0], abs=1e-13)
        assert hi == pytest.approx(full[-1], abs=1e-13)


@pytest.mark.parametrize("call, expected", [
    (lambda: real_interlaced_critical_points([1.0]), DegenerateInput),
    (lambda: interlaced_extremes([2.0, 2.0, 2.0]), (2.0, 2.0)),
], ids=["one-root", "extremes-of-one-value"])
def test_edge_inputs(call, expected):
    assert_outcome(call, expected)


def bisect_gaps(values, counts, gaps):
    """Fixed bisection on the sign of sum(counts/(x - values)) down to 4 eps; the oracle."""
    lo = values[gaps].astype(float)
    hi = values[gaps + 1].astype(float)
    eps = np.finfo(float).eps
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        g = (counts / (mid[:, None] - values[None, :])).sum(axis=1)
        lo, hi = np.where(g > 0, mid, lo), np.where(g > 0, hi, mid)
        if np.all(hi - lo <= 4.0 * eps * np.maximum(1.0, np.maximum(np.abs(lo), np.abs(hi)))):
            break
    return 0.5 * (lo + hi)


def gap_inputs():
    rng = np.random.default_rng(4)
    return {
        "exp1-2000": rng.exponential(size=2000),
        "halfnormal-200": np.abs(rng.normal(size=200)),
        "clusters-1e-12": np.concatenate([c + 1e-12 * np.arange(8)
                                          for c in rng.normal(size=6)]),
        "repeated": np.repeat(rng.normal(size=12), rng.integers(1, 4, size=12)),
        "mixed-sign-1e-8-1e8": rng.choice([-1.0, 1.0], 60) * 10.0 ** rng.uniform(-8, 8, 60),
    }


class TestGapZeros:
    @pytest.mark.parametrize("name", list(gap_inputs()))
    def test_matches_bisection_and_interlaces_strictly(self, name):
        values, counts = np.unique(gap_inputs()[name], return_counts=True)
        gaps = np.arange(values.size - 1)
        eta = rootsolve._gap_zeros(values, counts, gaps)
        oracle = bisect_gaps(values, counts.astype(float), gaps)
        eps = np.finfo(float).eps
        assert np.all(np.abs(eta - oracle) <= 16 * eps * np.maximum(1.0, np.abs(oracle)))
        assert np.all((values[:-1] < eta) & (eta < values[1:]))

    def test_narrow_gap_near_a_small_root_is_solved_to_ulps(self):
        # the stop tolerance is relative to the bracket, so the zero just
        # above a small root is found within ulps and eta - x_min keeps its digits
        rng = np.random.default_rng(4)
        x = np.sort(np.concatenate([[3.7e-4, 3.7e-4 + 1e-8],
                                    3.7e-4 + rng.exponential(size=200)]))
        for eta in (real_interlaced_critical_points(x)[0], interlaced_extremes(x)[0]):
            step = 2 * np.spacing(eta)
            assert math.fsum(1.0 / (eta - step - x)) > 0 > math.fsum(1.0 / (eta + step - x))

    def test_sweep_budget(self, monkeypatch):
        calls = []
        sums = rootsolve._log_deriv_sums

        def counted(*args):
            calls.append(1)
            return sums(*args)

        monkeypatch.setattr(rootsolve, "_log_deriv_sums", counted)
        x = np.sort(np.random.default_rng(4).exponential(size=2000))
        assert real_interlaced_critical_points(x).size == 1999
        assert 1 <= len(calls) <= 10

    @pytest.mark.parametrize("k", [-60, -40, -20, 20, 60, -1000, -700, 900])
    def test_power_of_two_scaling_is_exact(self, k):
        # every stop rule is relative and the solve runs at max|root| in
        # [0.5, 1), so scaling the roots by 2^k scales the results exactly,
        # down to gaps far narrower than 1e-15 and where s2 would overflow
        x = np.sort(np.random.default_rng(4).exponential(size=200))
        np.testing.assert_array_equal(real_interlaced_critical_points(np.ldexp(x, k)),
                                      np.ldexp(real_interlaced_critical_points(x), k))

    def test_roots_spanning_beyond_the_normal_range_stay_inside_their_gaps(self):
        # putting max|root| in [0.5, 1) would make 1e-300 subnormal and land
        # the first critical point on a root; the scale stops short of that
        got = real_interlaced_critical_points(np.array([1e-300, 2e-300, 1e10]))
        assert 1e-300 < got[0] < 2e-300
        assert got[0] == pytest.approx(1.5e-300, rel=1e-15, abs=0.0)

    def test_unconverged_gap_raises(self, monkeypatch):
        monkeypatch.setattr(rootsolve, "MAX_ITER", 3)
        with pytest.raises(NoConvergence):
            real_interlaced_critical_points(np.sort(np.random.default_rng(4).exponential(size=50)))


class TestInvariants:
    def test_gauss_lucas_sample(self, rng):
        for _ in range(50):
            n = int(rng.integers(3, 41))
            roots = rng.normal(size=n) + 1j * rng.normal(size=n)
            crit = critical_points(RootPoly(roots)).roots
            inside = convex_hull_contains(roots, crit, 1e-9)
            assert np.all(inside)

    def test_interlacing_is_exact(self, rng):
        for _ in range(50):
            n = int(rng.integers(2, 40))
            x = np.sort(rng.normal(size=n) * 3)
            eta = real_interlaced_critical_points(x)
            assert np.all(x[:-1] <= eta) and np.all(eta <= x[1:])

    def test_vieta_mean_identity(self, rng):
        for _ in range(50):
            n = int(rng.integers(2, 41))
            roots = rng.normal(size=n) + 1j * rng.normal(size=n)
            crit = critical_points(RootPoly(roots)).roots
            lhs = crit.sum()
            rhs = (n - 1) / n * roots.sum()
            assert abs(lhs - rhs) <= 1e-8 * max(1.0, abs(rhs))

    def test_solve_all_recovers_generating_roots(self, rng):
        for _ in range(25):
            n = int(rng.integers(1, 31))
            roots = rng.normal(size=n) + 1j * rng.normal(size=n)
            rep = solve_all(expand_coefficients(RootPoly(roots)))
            assert rep.residuals.max() <= TOL_ROOT
            assert_multiset_close(rep.roots, roots, 1e-6)


WALSH = {"radius": 0.5, "n_per_cluster": 20}
# k=3 draws under seed 42 whose root-based iteration had converged but which
# were then sent on to a coefficient fallback that raised NoConvergence
WALSH_K3_HARD_TRIALS = (62, 99, 131, 178, 196)


def differentiator_eigenvalues(roots) -> np.ndarray:
    """Eigenvalues of Q^H diag(roots) Q, Q an orthonormal basis of the ones vector's complement.

    The characteristic polynomial of this compression is P'/(n * lead), so its
    eigenvalues are the critical points, computed without any iteration.
    """
    roots = np.asarray(roots, dtype=complex)
    q, _ = np.linalg.qr(np.ones((roots.size, 1)), mode="complete")
    basis = q[:, 1:]
    return np.linalg.eigvals(basis.conj().T @ (roots[:, None] * basis))


class TestAgainstDifferentiator:
    @staticmethod
    def check(roots):
        rep = critical_points(RootPoly(roots))
        assert rep.residuals.max() <= NEWTON_TOL
        assert_multiset_close(rep.roots, differentiator_eigenvalues(roots), 1e-8)
        assert np.all(convex_hull_contains(roots, rep.roots, 1e-9))
        n = roots.size
        rhs = (n - 1) / n * roots.sum()
        assert abs(rep.roots.sum() - rhs) <= 1e-8 * max(1.0, abs(rhs))

    @pytest.mark.parametrize("k, trials", [(2, range(20)), (3, range(10)),
                                           (3, WALSH_K3_HARD_TRIALS)])
    def test_walsh_draws(self, k, trials):
        for t in trials:
            stream = RngStream(42, stream_id_for("walsh-clusters", t))
            self.check(_walsh_roots(stream, {"k": k, **WALSH})[1])

    def test_unit_circle(self, rng):
        for n in range(10, 81, 5):
            self.check(np.exp(2j * np.pi * rng.random(n)))
