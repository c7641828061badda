import math
import os
import signal
import subprocess
import sys
import textwrap
import threading
import warnings
from pathlib import Path

import numpy as np
import pytest

from conftest import assert_multiset_close
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
        assert rep.converged
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
        assert rep.converged
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
            assert rep.converged
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

    @pytest.mark.parametrize("roots", [[0.0, 1.0, np.nan], [0.0, 1j, np.inf],
                                       [-np.inf, 0.0, 1.0]])
    def test_non_finite_refused(self, roots):
        with pytest.raises(DegenerateInput):
            critical_points(RootPoly(roots))

    def test_large_degree_root_based_path(self, rng):
        n = 300
        roots = np.exp(2j * np.pi * rng.random(n))
        rep = critical_points(RootPoly(roots))
        assert rep.converged
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
        # count the rows of both log-derivative kernels: at degree 1600 every
        # one must come from the row kernel, so the counter cannot pass idle
        rows = {"_log_deriv_sums": [], "_row_log_deriv_sums": []}

        def counting(name):
            sums = getattr(rootsolve, name)

            def counted(w, *args, **kwargs):
                rows[name].append(w.size)
                return sums(w, *args, **kwargs)
            return counted

        for name in rows:
            monkeypatch.setattr(rootsolve, name, counting(name))
        rep = critical_points(RootPoly(thm1_roots(1600)))
        assert rep.converged and rep.roots.size == 1599
        assert rows["_log_deriv_sums"] == [] and rows["_row_log_deriv_sums"]
        assert sum(rows["_row_log_deriv_sums"]) <= self.FULL_SWEEP_ROWS // 2
        # each point froze only after one more correction, so its certificate
        # sits at the rounding floor rather than just under NEWTON_TOL
        assert rep.residuals.max() <= 1e-2 * NEWTON_TOL

    def test_isolation_pass_skips_sweeps_with_nothing_converged(self, monkeypatch):
        # the first sweeps of a solve have no converged active point, and
        # _isolated must not run its two row kernels on zero rows
        sizes = []
        isolated = rootsolve._isolated

        def spied(w, cand, *args):
            sizes.append(cand.size)
            return isolated(w, cand, *args)

        monkeypatch.setattr(rootsolve, "_isolated", spied)
        walsh = _walsh_roots(RngStream(42, stream_id_for("walsh-clusters", 0)),
                             {"k": 2, **WALSH})[1]
        for roots in (thm1_roots(1600), walsh):
            assert critical_points(RootPoly(roots)).converged
        assert sizes and min(sizes) > 0

    def test_max_iter_three_raises(self):
        with pytest.raises(NoConvergence):
            critical_points(RootPoly(thm1_roots(1600)), max_iter=3)

    @pytest.mark.parametrize("roots, expected, tol", [
        ([1, 1j, -1, -1j], [0, 0, 0], 1e-3),
        (DOUBLE_CRIT_ROOTS, [0.5, 0.5, -1], 1e-6),
    ], ids=["triple-at-0", "double-at-half"])
    def test_multiple_critical_points_converge(self, roots, expected, tol):
        rep = critical_points(RootPoly(roots))
        assert rep.converged
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
        # the same evaluation as the solver's, at the returned positions
        values, counts = np.unique(roots, return_counts=True)
        sums = rootsolve._sums_kernel(values, counts)
        s1, s2 = sums(w)
        np.testing.assert_array_equal(rep.residuals,
                                      np.abs(s1 / (s1 * s1 - s2)) / (1.0 + np.abs(w)))
        # and an independent one, summed directly
        inv = 1.0 / (w[:, None] - roots[None, :])
        s1, s2 = inv.sum(axis=1), (inv * inv).sum(axis=1)
        assert np.max(np.abs(s1 / (s1 * s1 - s2)) / (1.0 + np.abs(w))) <= NEWTON_TOL


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


@pytest.mark.skipif(np.finfo(np.longdouble).eps > 1e-18,
                    reason="needs an extended-precision long double")
def test_small_degree_points_match_extended_newton():
    # two Newton steps on P'/P'' in clongdouble from each returned point;
    # measured worst 6.8e-16, at a thm1 point of modulus 0.19
    worst = 0.0
    for roots in small_degree_inputs():
        w = critical_points(RootPoly(roots)).roots
        z, r = w.astype(np.clongdouble), roots.astype(np.clongdouble)
        for _ in range(2):
            inv = 1.0 / (z[:, None] - r[None, :])
            s1, s2 = inv.sum(axis=1), (inv * inv).sum(axis=1)
            z = z - s1 / (s1 * s1 - s2)
        worst = max(worst, float(np.max(np.abs(w - z) / (1.0 + np.abs(z)))))
    assert worst <= 1e-15


class ThreadPoolStarted(Exception):
    pass


class RaisingPool:
    """Stands in for ThreadPoolExecutor: raises if a row kernel asks for a pool."""

    def __init__(self, *args, **kwargs):
        raise ThreadPoolStarted


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
        blocks = rootsolve._row_blocks

        def recorded(*args):
            names.add(threading.current_thread().name)
            return blocks(*args)

        monkeypatch.setattr(rootsolve, "_row_blocks", recorded)
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
        # caller's. Only rows of the pool's upper half divide by zero.
        threads(2)
        nrows, names = 256, set()

        def block(lo, hi, buf):
            names.add(threading.current_thread().name)
            buf[:] = 1.0
            if lo >= nrows // 2:
                buf[:, 0] = 0.0
            np.reciprocal(buf, out=buf)

        def run():
            rootsolve._over_rows(block, nrows, rootsolve._THREAD_GRID // 128, float)

        with warnings.catch_warnings(), np.errstate(divide=state):
            warnings.simplefilter("error")
            if state == "raise":
                with pytest.raises(FloatingPointError):
                    run()
            else:
                run()
        assert any(name.startswith("spectralab-compute") for name in names)

    def test_small_degrees_start_no_pool(self, threads, monkeypatch):
        threads(2)
        monkeypatch.setattr(compute._THREADS, "executor", None)
        monkeypatch.setattr(compute, "ThreadPoolExecutor", RaisingPool)
        for k in (2, 3):
            for t in range(5):
                stream = RngStream(42, stream_id_for("walsh-clusters", t))
                roots = _walsh_roots(stream, {"k": k, **WALSH})[1]
                assert critical_points(RootPoly(roots)).converged
        assert critical_points(RootPoly(DOUBLE_CRIT_ROOTS)).converged
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
            assert parent.converged
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
        sums = rootsolve._row_log_deriv_sums

        def counted(*args):
            calls.append(1)
            return sums(*args)

        monkeypatch.setattr(rootsolve, "_row_log_deriv_sums", counted)
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
            assert rep.converged
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
        assert rep.converged
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
