import math

import numpy as np
import pytest

from conftest import (
    angular_discrepancy_pairs,
    hull_contains_loop,
    log_abs_log_deriv_scalar,
    potential_diagnostics_loop,
    sliced_wasserstein_loop,
    traced_peak_mib,
)
import spectralab.measures as measures
from spectralab.errors import (
    EmptyMeasure,
    HypothesisViolated,
    SingularOnContour,
    VanishingEndCoefficient,
    ZeroPoint,
)
from spectralab.measures import (
    ClusterSpec,
    EmpiricalMeasure,
    angular_discrepancy,
    cluster_deficiency,
    concentration_estimate,
    convex_hull_contains,
    erdos_turan_rhs,
    ks_two_sample,
    levy_distance,
    poisson_jensen_residual,
    potential_diagnostics,
    sliced_wasserstein2d,
    walsh_constant,
    wasserstein1_1d,
)
from spectralab.polycore import RootPoly, WeightedLogDeriv, _log_abs_sums
from spectralab.randgen import RngStream
from spectralab.rootsolve import critical_points, real_interlaced_critical_points


class TestWasserstein1d:
    def test_equal_measures(self):
        assert wasserstein1_1d([0, 1], [0, 1]) == 0.0

    def test_two_atoms(self):
        assert wasserstein1_1d([0], [1]) == 1.0

    def test_sorted_pairing(self):
        assert wasserstein1_1d([0, 2], [1, 3]) == pytest.approx(1.0)

    def test_unequal_sizes_quantile_coupling(self):
        # F_b^{-1} is 0 on (0,1/2) and 1 on (1/2,1); the atom at 0 costs 1/2
        assert wasserstein1_1d([0.0], [0.0, 1.0]) == pytest.approx(0.5)
        # brute-force refinement oracle on a common grid of 6 = lcm(2,3)
        a = np.array([0.0, 1.0])
        b = np.array([0.2, 0.5, 0.9])
        fine_a = np.repeat(np.sort(a), 3)
        fine_b = np.repeat(np.sort(b), 2)
        oracle = np.mean(np.abs(fine_a - fine_b))
        assert wasserstein1_1d(a, b) == pytest.approx(oracle, rel=1e-12)

    def test_empty_refused(self):
        with pytest.raises(EmptyMeasure):
            wasserstein1_1d([], [1.0])

    def test_metric_properties(self, rng):
        for _ in range(30):
            x = rng.normal(size=7)
            y = rng.normal(size=7)
            z = rng.normal(size=7)
            dxy = wasserstein1_1d(x, y)
            assert dxy == pytest.approx(wasserstein1_1d(y, x), abs=1e-14)
            assert dxy <= wasserstein1_1d(x, z) + wasserstein1_1d(z, y) + 1e-12
        assert wasserstein1_1d(x, x) == 0.0


class TestSlicedWasserstein:
    def test_identical_clouds(self, rng):
        pts = rng.normal(size=10) + 1j * rng.normal(size=10)
        assert sliced_wasserstein2d(pts, pts, 16, seed=1) == 0.0

    def test_unit_vertical_shift(self):
        # projections of the shift i have mean E|sin theta| = 2/pi
        val = sliced_wasserstein2d([0.0], [1j], 512, seed=7)
        assert val == pytest.approx(2.0 / math.pi, rel=0.10)

    def test_rigid_shift_recovered_after_correction(self, rng):
        # the direction average carries MC noise sd(|cos|)/sqrt(n_proj), about
        # 6% at 64 projections; 768 projections bring the 5% check in reach
        pts = rng.normal(size=40) + 1j * rng.normal(size=40)
        t = 0.8 - 0.6j
        val = sliced_wasserstein2d(pts, pts + t, 768, seed=3)
        assert val * math.pi / 2.0 == pytest.approx(abs(t), rel=0.05)

    def test_deterministic_given_seed(self, rng):
        a = rng.normal(size=9) + 1j * rng.normal(size=9)
        b = rng.normal(size=9) + 1j * rng.normal(size=9)
        assert sliced_wasserstein2d(a, b, 32, 11) == sliced_wasserstein2d(a, b, 32, 11)

    @pytest.mark.parametrize("n,m", [(1, 1), (1, 300), (250, 1), (64, 64), (200, 200),
                                     (100, 2048), (37, 41), (300, 7)])
    @pytest.mark.parametrize("n_proj", [1, 3, 64, 150])
    def test_matches_direction_loop_exactly(self, n, m, n_proj, rng):
        a = rng.normal(size=n) + 1j * rng.normal(size=n)
        b = rng.normal(size=m) + 1j * rng.normal(size=m)
        seed = int(rng.integers(2**63))
        assert sliced_wasserstein2d(a, b, n_proj, seed) == sliced_wasserstein_loop(
            a, b, n_proj, seed)

    def test_matches_direction_loop_on_thm1_sizes(self, rng):
        # critical points of a degree-1600 draw against the 2048-point circle
        crit = np.exp(2j * np.pi * rng.random(1599)) * (1.0 - 0.01 * rng.random(1599))
        ref = np.exp(2j * np.pi * (np.arange(2048) + 0.5) / 2048)
        for seed in range(3):
            assert sliced_wasserstein2d(crit, ref, 64, seed) == sliced_wasserstein_loop(
                crit, ref, 64, seed)

    def test_zero_projections_refused(self):
        with pytest.raises(ValueError):
            sliced_wasserstein2d([0.0], [1.0], 0, seed=1)


class TestLevy:
    def test_equal_measures(self):
        assert levy_distance([0.5, 1.5], [0.5, 1.5]) == 0.0

    def test_interlaced_bound(self, rng):
        # zeros vs critical points of a real-rooted polynomial: at most 1/n
        for _ in range(10):
            n = int(rng.integers(3, 30))
            x = np.sort(rng.normal(size=n) * 2)
            eta = real_interlaced_critical_points(x)
            assert levy_distance(x, eta) <= 1.0 / n + 1e-9

    def test_separated_atoms(self):
        # brute-force oracle: feasibility of the two CDF envelopes on a grid
        def feasible(eps):
            xs = np.linspace(-1, 2, 4001)
            fa = (xs >= 0.0).astype(float)
            fb = (xs >= 1.0).astype(float)
            fa_left = ((xs - eps) >= 0.0).astype(float)
            fa_right = ((xs + eps) >= 0.0).astype(float)
            return np.all(fb <= fa_right + eps + 1e-12) and np.all(fa_left - eps <= fb + 1e-12)

        grid = np.linspace(0.01, 1.5, 300)
        oracle = grid[np.argmax([feasible(e) for e in grid])]
        assert oracle == pytest.approx(1.0, abs=0.01)
        assert levy_distance([0.0], [1.0]) == pytest.approx(1.0, abs=1e-9)


class TestAngularDiscrepancy:
    def test_fourth_roots(self):
        assert angular_discrepancy([1, 1j, -1, -1j]) == pytest.approx(0.25)

    def test_equally_spaced(self):
        for n in (3, 8, 17):
            pts = np.exp(2j * np.pi * np.arange(n) / n)
            assert angular_discrepancy(pts) == pytest.approx(1.0 / n, abs=1e-12)

    def test_single_point_convention(self):
        assert angular_discrepancy([2.0 + 0j]) == pytest.approx(1.0)

    def test_zero_point_refused(self):
        with pytest.raises(ZeroPoint):
            angular_discrepancy([0.0, 1.0])

    def test_matches_random_arc_sampling(self, rng):
        pts = rng.normal(size=24) + 1j * rng.normal(size=24)
        exact = angular_discrepancy(pts)
        theta = np.mod(np.angle(pts), 2 * np.pi)
        worst = 0.0
        for _ in range(4000):
            a, b = rng.uniform(0, 2 * np.pi, 2)
            length = (b - a) % (2 * np.pi)
            inside = ((theta - a) % (2 * np.pi)) < length
            worst = max(worst, abs(inside.mean() - length / (2 * np.pi)))
        assert worst <= exact + 1e-12

    def test_matches_pair_enumeration(self, rng):
        for _ in range(40):
            m = int(rng.integers(1, 201))
            pts = rng.normal(size=m) + 1j * rng.normal(size=m)
            assert angular_discrepancy(pts) == pytest.approx(
                angular_discrepancy_pairs(pts), abs=1e-14)

    def test_ties_match_pair_enumeration(self, rng):
        for _ in range(40):
            m = int(rng.integers(2, 121))
            # few distinct angles, each hit several times, at varying radii
            angles = 2 * np.pi * rng.integers(0, 12, size=m) / 12
            pts = rng.uniform(0.5, 2.0, size=m) * np.exp(1j * angles)
            assert angular_discrepancy(pts) == pytest.approx(
                angular_discrepancy_pairs(pts), abs=1e-14)

    @pytest.mark.parametrize("pts", [[1.0], [-2j], [1.0, 1.0], [3.0, -1.0], [1.0, 1j],
                                     [1j, 0.5 + 0.5j], [-1.0, -2.0, 1j]])
    def test_one_and_two_point_clouds(self, pts):
        assert angular_discrepancy(pts) == pytest.approx(
            angular_discrepancy_pairs(pts), abs=1e-15)

    def test_two_points_by_hand(self):
        # angles 0 and pi/2: the closed arc [0, pi/2] holds everything in a quarter
        assert angular_discrepancy([1.0, 1j]) == pytest.approx(0.75)
        assert angular_discrepancy([1.0, 1.0]) == pytest.approx(1.0)


class TestErdosTuran:
    def test_cyclotomic_like(self):
        coeffs = [-1] + [0] * 7 + [1]
        assert erdos_turan_rhs(coeffs, 1.0) == pytest.approx(math.log(2) / 8)

    def test_derivative_family_form(self):
        n = 12
        coeffs = np.zeros(n + 2)
        coeffs[0] = 1.0
        coeffs[n] = -(n + 1.0)
        coeffs[n + 1] = n
        expected = (1.0 / (n + 1)) * math.log((2 * n + 2) / math.sqrt(n))
        assert erdos_turan_rhs(coeffs, 1.0) == pytest.approx(expected, rel=1e-12)

    def test_all_ones(self):
        n = 9
        assert erdos_turan_rhs(np.ones(n + 1), 2.0) == pytest.approx(
            (2.0 / n) * math.log(n + 1))

    def test_vanishing_end_coefficient(self):
        with pytest.raises(VanishingEndCoefficient):
            erdos_turan_rhs([0, 1, 1], 1.0)


class TestConvexHull:
    def test_triangle_inside(self):
        assert convex_hull_contains([0, 1, 1j], [0.25 + 0.25j], 1e-9)[0]

    def test_triangle_outside(self):
        assert not convex_hull_contains([0, 1, 1j], [2.0], 1e-9)[0]

    def test_segment_with_tolerance_band(self):
        got = convex_hull_contains([0, 1], [0.5, 0.5 + 1e-12j, 0.5 + 1e-3j], 1e-9)
        assert got.tolist() == [True, True, False]

    def test_single_point_cloud(self):
        got = convex_hull_contains([1 + 1j], [1 + 1j, 1.5], 1e-9)
        assert got.tolist() == [True, False]

    def test_matches_edge_loop_on_criterion_14_inputs(self):
        # the draws of tests/test_acceptance.py::test_criterion_14_hull_and_interlacing_suites
        g = RngStream(42, 14).generator()
        for _ in range(500):
            n = int(g.integers(3, 41))
            roots = g.normal(size=n) + 1j * g.normal(size=n)
            crit = critical_points(RootPoly(roots)).roots
            # the critical points, plus points pushed just across the boundary
            queries = np.concatenate([crit, 1.5 * crit - 0.5 * roots.mean(),
                                      roots + 1e-9, roots * (1 + 1e-12)])
            np.testing.assert_array_equal(convex_hull_contains(roots, queries, 1e-9),
                                          hull_contains_loop(roots, queries, 1e-9))

    def test_matches_edge_loop_on_unit_circle(self, rng):
        roots = np.exp(2j * np.pi * rng.random(1600))
        crit = critical_points(RootPoly(roots)).roots[:40]
        radii = np.array([1 - 1e-9, 1 - 1e-12, 1.0, 1 + 1e-12, 1 + 1e-9, 1 + 1e-6])
        queries = np.concatenate([crit, (radii[:, None] * roots[None, :20]).ravel()])
        got = convex_hull_contains(roots, queries, 1e-9)
        np.testing.assert_array_equal(got, hull_contains_loop(roots, queries, 1e-9))
        assert got[:40].all() and not got[-20:].any()


class TestWalshConstant:
    def test_single_cluster(self):
        assert walsh_constant(1, 0.5, 123.0) == pytest.approx(18.0, rel=1e-12)

    def test_two_clusters(self):
        # (1+2e)/(2e^2) * k / (e/(1+e)^2 - 1/(d-e)) at e=1/2, d=10: exactly 68.4
        assert walsh_constant(2, 0.5, 10.0) == pytest.approx(68.4, rel=1e-12)

    def test_hypothesis_violated(self):
        with pytest.raises(HypothesisViolated):
            walsh_constant(2, 0.1, 1.0)


class TestClusterDeficiency:
    def test_all_roots_at_two_centers(self):
        # (z-c1)^n (z-c2)^n: criticals are each center (n-1 times) plus the
        # midpoint, which lies outside both balls; deficiency 1 per cluster
        n = 6
        c1, c2 = 0.0, 12.0
        crit = critical_points(RootPoly([c1] * n + [c2] * n)).roots
        spec = ClusterSpec([c1, c2], radius=0.5, separation=11.0)
        defs = cluster_deficiency(spec, crit, eps=0.5, n_per_cluster=n)
        assert sorted(defs) == [1, 1]
        # the escaped critical point is the equal-weight midpoint
        mid = crit[np.argmax(np.minimum(np.abs(crit - c1), np.abs(crit - c2)))]
        assert mid == pytest.approx((c1 + c2) / 2, abs=1e-6)

    def test_single_cluster_deficiency_is_the_missing_point(self, rng):
        # a degree-n polynomial has n-1 critical points, and for one cluster
        # all of them stay inside (the hull is contained in the ball), so the
        # deficiency is exactly 1
        roots = rng.normal(size=12) * 0.3 + 5.0
        crit = critical_points(RootPoly(roots)).roots
        spec = ClusterSpec([5.0], radius=1.5, separation=1.0)
        assert cluster_deficiency(spec, crit, eps=0.5, n_per_cluster=12) == [1]

    def test_separated_disks_within_walsh_bound(self, rng):
        k, n_per, radius, eps = 2, 12, 0.5, 0.45
        centers = [0.0, 5.0 * k + 2 * radius + 0.3]
        roots = np.concatenate([
            c + radius * np.sqrt(rng.random(n_per)) * np.exp(2j * np.pi * rng.random(n_per))
            for c in centers])
        crit = critical_points(RootPoly(roots)).roots
        spec = ClusterSpec(centers, radius, 5.0 * k)
        defs = cluster_deficiency(spec, crit, eps, n_per)
        assert max(defs) <= walsh_constant(k, eps, 5.0 * k)


class TestConcentration:
    def test_small_sample(self):
        assert concentration_estimate([0.0, 0.0, 1.0], 0.1) == pytest.approx(2.0 / 3.0)

    def test_all_equal(self):
        assert concentration_estimate([2.0, 2.0, 2.0], 0.5) == 1.0

    def test_uniform_sample_matches_brute_force(self, rng):
        x = rng.random(400)
        delta = 0.05
        got = concentration_estimate(x, delta)
        brute = max(np.sum(np.abs(x - a) <= delta) for a in x) / x.size
        assert got == pytest.approx(brute, abs=1e-12)
        assert got == pytest.approx(0.1, abs=0.05)


class TestPotentialDiagnostics:
    def test_rates_use_strict_comparisons(self):
        w = WeightedLogDeriv([0.0])
        diag = potential_diagnostics(w, [2.0], eps=1.0, r=0.25, grid_size=64)
        # (1/1) log|1/2| = -0.693: neither above 1 nor below -1
        assert diag.a1_rate == 0.0 and diag.a2_rate == 0.0
        assert diag.evaluated_points == 1

    def test_symmetric_cancellation_is_skipped(self):
        # exactly representable symmetric roots cancel to an exact zero sum
        w = WeightedLogDeriv([2.0, 2.0j, -2.0, -2.0j])
        diag = potential_diagnostics(w, [0.0], eps=0.5, r=0.5, grid_size=64)
        assert diag.skipped_points == 1
        assert diag.evaluated_points == 0

    def test_disk_integral_single_log(self):
        # n=1, root at 0: integral over the unit disk of log^2|1/z| is pi/2
        w = WeightedLogDeriv([0.0])
        diag = potential_diagnostics(w, [], eps=1.0, r=1.0, grid_size=128)
        assert diag.a3_integral == pytest.approx(math.pi / 2.0, rel=0.02)

    @pytest.mark.parametrize("n", [1, 12, 100, 257])
    @pytest.mark.parametrize("weighted", [False, True])
    def test_matches_cell_loop_exactly(self, n, weighted, rng):
        roots = rng.normal(size=n) + 1j * rng.normal(size=n)
        weights = (rng.uniform(0.1, 3.0, n) * np.exp(2j * np.pi * rng.random(n))
                   if weighted else None)
        w = WeightedLogDeriv(roots, weights)
        probes = 1.5 * np.exp(2j * np.pi * (np.arange(64) + 0.5) / 64)
        grid = int(rng.integers(64, 100))
        got = potential_diagnostics(w, probes, eps=0.05, r=1.25, grid_size=grid)
        assert got == potential_diagnostics_loop(w, probes, 0.05, 1.25, grid)

    def test_root_on_cell_centre_skips_the_cell(self):
        r, grid = 1.0, 64
        # cell centres of rings 5 and 40, computed as the grid computes them
        rho = (np.arange(grid) + 0.5) * (r / grid)
        ring = np.exp(1j * (np.arange(grid) + 0.5) * (2.0 * np.pi / grid))
        on_centre = (rho[5] * ring)[17]
        # 1e-10 off a centre: beyond one exclusion radius, inside the cells' 1000
        near_centre = (rho[40] * ring)[3] + 1e-10
        w = WeightedLogDeriv([on_centre, near_centre, 3.0 + 1.0j])
        got = potential_diagnostics(w, [], eps=1.0, r=r, grid_size=grid)
        assert got.skipped_cells == 2
        assert got == potential_diagnostics_loop(w, [], 1.0, r, grid)

    def test_probe_skip_radius_is_one_exclusion_radius(self):
        # probes use 1 exclusion radius (2e-12 here), cells use 1000
        w = WeightedLogDeriv([1.0, -1.0])
        probes = [1.0 + 1e-12, 1.0 + 1e-10, -1.0 - 1e-13j, 0.5]
        got = potential_diagnostics(w, probes, eps=1.0, r=0.5, grid_size=64)
        assert (got.skipped_points, got.evaluated_points) == (2, 2)
        assert got == potential_diagnostics_loop(w, probes, 1.0, 0.5, 64)

    def test_ring_logs_match_scalar_formula_exactly(self, rng):
        # one pole at 0 with unit weight: the value at z is log|1/z|, taken over
        # 20 decades, where a vectorised log can differ from math.log in the last bit
        zs = np.exp(rng.uniform(-23.0, 23.0, 20000) + 2j * np.pi * rng.random(20000))
        w = WeightedLogDeriv([0.0])
        got = _log_abs_sums(w, zs, 1.0).tolist()
        assert got == [log_abs_log_deriv_scalar(w, complex(z)) for z in zs]

    def test_symmetric_cancellation_matches_cell_loop(self):
        w = WeightedLogDeriv([2.0, 2.0j, -2.0, -2.0j], [1.0, 1.0j, 1.0, 1.0j])
        probes = [0.0, 0.5, 1j]
        got = potential_diagnostics(w, probes, eps=0.5, r=0.5, grid_size=64)
        assert got.skipped_points == 1
        assert got == potential_diagnostics_loop(w, probes, 0.5, 0.5, 64)

    @pytest.mark.parametrize("r", [float("nan"), float("inf"), 0.0, -1.0])
    def test_radius_must_be_finite_and_positive(self, r):
        with pytest.raises(ValueError):
            potential_diagnostics(WeightedLogDeriv([0.0]), [1.0], eps=1.0, r=r, grid_size=64)

    @pytest.mark.parametrize("eps", [float("nan"), -1.0])
    def test_eps_must_be_non_negative(self, eps):
        with pytest.raises(ValueError):
            potential_diagnostics(WeightedLogDeriv([0.0]), [1.0], eps=eps, r=1.0, grid_size=64)


class TestPoissonJensen:
    def test_mean_value_for_outside_zero(self):
        assert poisson_jensen_residual([3.0], [], 0.0, 2.0, 4096) <= 1e-10

    def test_inside_zero_blaschke_correction(self):
        assert poisson_jensen_residual([0.0], [], 1.0, 2.0, 4096) <= 1e-10

    def test_matched_zero_pole_cancel(self):
        assert poisson_jensen_residual([0.4 + 0.1j], [0.4 + 0.1j], 0.9, 2.0, 256) <= 1e-12

    def test_singular_contour_refused(self):
        with pytest.raises(SingularOnContour):
            poisson_jensen_residual([2.0], [], 0.0, 2.0, 64)

    def test_random_rational_functions(self, rng):
        for _ in range(20):
            R = 2.0
            nz = int(rng.integers(1, 21))
            npl = int(rng.integers(0, 21))
            # keep a safe ring around the contour so 4096 nodes resolve it
            def draw(count):
                inside = 0.8 * R * np.sqrt(rng.random(count)) * np.exp(
                    2j * np.pi * rng.random(count))
                outside = R * rng.uniform(1.25, 2.5, count) * np.exp(
                    2j * np.pi * rng.random(count))
                return np.where(rng.random(count) < 0.5, inside, outside)

            zeros = draw(nz)
            poles = draw(npl)
            z = 0.3 * R * np.exp(2j * np.pi * rng.random())
            if min([abs(z - w) for w in np.concatenate([zeros, poles])] or [1.0]) < 0.05:
                continue
            assert poisson_jensen_residual(zeros, poles, z, R, 4096) <= 1e-8


class TestBlockedTemporaries:
    """The direction x point and node x zero temporaries go in fixed blocks.

    The peaks are tracemalloc's at the thm1-convergence benchmark sizes, taken
    with the blocks of 8 directions and 256 nodes: 0.98 MiB for the sliced
    distance (7.26 MiB in one block of 64 directions) and 0.83 MiB for the
    boundary residual (9.56 MiB in one block of all nodes). A block must not
    change a bit of the result.
    """

    @pytest.fixture
    def thm1_clouds(self, rng):
        crit = np.exp(2j * np.pi * rng.random(1599)) * (1.0 - 0.01 * rng.random(1599))
        ref = np.exp(2j * np.pi * (np.arange(2048) + 0.5) / 2048)
        return EmpiricalMeasure(crit), EmpiricalMeasure(ref)

    @pytest.fixture
    def rational(self, rng):
        zeros = rng.normal(size=99) + 1j * rng.normal(size=99)
        poles = rng.normal(size=100) + 1j * rng.normal(size=100)
        return zeros, poles

    def test_sliced_wasserstein_peak(self, thm1_clouds):
        a, b = thm1_clouds
        assert traced_peak_mib(lambda: sliced_wasserstein2d(a, b, 64, 5)) <= 1.25

    def test_poisson_jensen_peak(self, rational):
        zeros, poles = rational
        peak = traced_peak_mib(
            lambda: poisson_jensen_residual(zeros, poles, 0.29 + 0.07j, 2.0, 4096))
        assert peak <= 1.0

    @pytest.mark.parametrize("n_proj", [9, 64, 150])
    def test_sliced_wasserstein_equals_one_block(self, thm1_clouds, n_proj, monkeypatch):
        a, b = thm1_clouds
        got = sliced_wasserstein2d(a, b, n_proj, 11)
        monkeypatch.setattr(measures, "_DIRECTION_BLOCK", n_proj)
        assert got == sliced_wasserstein2d(a, b, n_proj, 11)

    @pytest.mark.parametrize("nodes", [257, 4096, 5000])
    def test_poisson_jensen_equals_one_block(self, rational, nodes, monkeypatch):
        zeros, poles = rational
        for zs, ps in ((zeros, poles), (zeros, []), ([], poles)):
            got = poisson_jensen_residual(zs, ps, 0.29 + 0.07j, 4.0, nodes)
            with monkeypatch.context() as patch:
                patch.setattr(measures, "_QUAD_BLOCK", nodes)
                assert got == poisson_jensen_residual(zs, ps, 0.29 + 0.07j, 4.0, nodes)


class TestKsTwoSample:
    def test_identical_samples(self, rng):
        x = rng.normal(size=50)
        assert ks_two_sample(x, x) == 0.0

    def test_disjoint_samples(self):
        assert ks_two_sample([0.0, 0.1], [5.0, 6.0]) == 1.0


class TestEmpiricalMeasure:
    def test_empty_refused(self):
        with pytest.raises(EmptyMeasure):
            EmpiricalMeasure([])

    def test_support_is_canonical(self):
        m = EmpiricalMeasure([2.0, -1.0, 1j])
        np.testing.assert_allclose(m.support, [-1.0, 1j, 2.0])

    def test_cluster_spec_validates(self):
        with pytest.raises(ValueError):
            ClusterSpec([0.0, 0.5], radius=0.5, separation=5.0)
