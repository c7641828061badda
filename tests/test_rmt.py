import math

import mpmath
import numpy as np
import pytest
from scipy.integrate import quad

from conftest import (
    assert_multiset_close,
    assert_outcome,
    expected_count_mp,
    poisson_cdf_mp,
    traced_peak_mib,
    worst_relative_error,
)
import spectralab.compute as compute
import spectralab.rmt as rmt
from spectralab.errors import DegenerateSpectrum, NumericalBreakdown, WrongSize, ZeroPoint
from spectralab.polycore import canonical_order
from spectralab.randgen import RngStream, bernoulli_entries, gaussian_entries
from spectralab.rmt import (
    _expected_counts,
    cross_term,
    eigenvalues,
    generalized_schur,
    ginibre_intensity,
    ginibre_kernel,
    power_intensity,
    power_spectrum_sample,
    real_eig_probability,
    sample_ginibre,
    sample_product_ensemble,
    spherical_intensity,
    spherical_weight,
)
from spectralab.rootsolve import solve_all


class TestEigenvalues:
    def test_diagonal(self):
        s = eigenvalues(np.diag([1.0, 2.0j]))
        assert_multiset_close(s.eigenvalues, [1.0, 2.0j], 1e-14)
        assert s.residual <= 1e-12

    def test_swap_matrix(self):
        s = eigenvalues(np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert_multiset_close(s.eigenvalues, [-1.0, 1.0], 1e-14)

    def test_companion_matches_rootsolve(self):
        coeffs = np.array([-6.0, 11.0, -6.0, 1.0])
        comp = np.zeros((3, 3), dtype=complex)
        comp[1:, :-1] = np.eye(2)
        comp[:, -1] = -coeffs[:-1]
        got = eigenvalues(comp).eigenvalues
        assert_multiset_close(got, [1.0, 2.0, 3.0], 1e-8)
        assert_multiset_close(solve_all(coeffs).roots, [1.0, 2.0, 3.0], 1e-8)

    def test_similarity_invariance(self, rng):
        for _ in range(10):
            n = int(rng.integers(2, 33))
            a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
            q, _ = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
            s1 = eigenvalues(a).eigenvalues
            s2 = eigenvalues(q @ a @ q.conj().T).eigenvalues
            assert_multiset_close(s1, s2, 1e-8)

    def test_rejects_non_square(self):
        with pytest.raises(WrongSize):
            eigenvalues(np.ones((2, 3)))


class TestGinibreSampling:
    def test_spectral_radius_scaling(self):
        g = RngStream(101).generator()
        radii = []
        n = 64
        for _ in range(50):
            radii.append(np.abs(eigenvalues(sample_ginibre(g, n, 1.0)).eigenvalues).max())
        med = np.median(radii)
        assert 0.9 * math.sqrt(n) <= med <= 1.15 * math.sqrt(n)

    def test_unit_disk_fill_at_scaled_variance(self):
        g = RngStream(102).generator()
        n = 128
        fracs = []
        for _ in range(20):
            lam = eigenvalues(sample_ginibre(g, n, 1.0 / n)).eigenvalues
            fracs.append(np.mean(np.abs(lam) <= 1.05))
        assert np.mean(fracs) >= 0.98

    def test_deterministic_under_fixed_seed(self):
        a = sample_ginibre(RngStream(7, 3), 5, 1.0)
        b = sample_ginibre(RngStream(7, 3), 5, 1.0)
        assert np.array_equal(a, b)


class TestKernelIntensity:
    def test_kernel_at_origin(self):
        for n in (1, 5, 50):
            assert ginibre_kernel(n, 0.0, 0.0) == 1.0

    def test_intensity_at_origin(self):
        assert ginibre_intensity(10, 0.0) == pytest.approx(1.0 / math.pi, rel=1e-14)

    def test_intensity_matches_reference_density_n1(self, rng):
        for _ in range(10):
            z = complex(rng.normal(), rng.normal())
            assert ginibre_intensity(1, z) == pytest.approx(
                math.exp(-abs(z) ** 2) / math.pi, rel=1e-12)

    def test_interior_limit(self):
        assert ginibre_intensity(64, 2.0) == pytest.approx(1.0 / math.pi, abs=1e-6)

    def test_kernel_consistency_with_intensity(self, rng):
        for _ in range(10):
            n = int(rng.integers(1, 40))
            z = complex(rng.normal(), rng.normal())
            via_kernel = ginibre_kernel(n, z, z).real * math.exp(-abs(z) ** 2) / math.pi
            assert ginibre_intensity(n, z) == pytest.approx(via_kernel, rel=1e-10)

    def test_nonnegative_everywhere_sampled(self, rng):
        for _ in range(200):
            z = complex(rng.normal() * 3, rng.normal() * 3)
            assert ginibre_intensity(int(rng.integers(1, 64)), z) >= 0.0

    def test_far_points_underflow_to_zero(self):
        # rates past the cap build no Poisson row; the intensity underflows there
        assert ginibre_intensity(10, 1e5) == 0.0
        assert ginibre_intensity(10, [3.0, 1e5])[1] == 0.0
        assert power_intensity(2, 1e300) == 0.0

    def test_overflowing_modulus_reads_zero(self):
        # |z|^2 overflows to inf past |z| = 1.3e154, where the intensity is 0
        assert ginibre_intensity(10, 1e200) == 0.0
        assert ginibre_intensity(10, -1e200j) == 0.0
        got = ginibre_intensity(10, np.array([1e200, 0.5, 1e155 + 1e155j]))
        assert got.tolist() == [0.0, ginibre_intensity(10, 0.5), 0.0]

    def test_expected_counts_integrate_to_n(self):
        # the edge past the rate cap is cut to it, and the plane holds n eigenvalues
        assert _expected_counts(64, [0.0, 1e12]) == [64.0]

    @pytest.mark.parametrize("n", [1, 10, 64, 400])
    def test_array_matches_scalar_bitwise(self, n):
        zs = np.concatenate([[0.0], np.linspace(0.01, 1.25, 125) * math.sqrt(n),
                             np.linspace(0.1, 30.0, 40) * np.exp(0.7j)])
        got = ginibre_intensity(n, zs)
        assert isinstance(got, np.ndarray) and got.shape == zs.shape
        assert got.tolist() == [ginibre_intensity(n, z) for z in zs]
        assert type(ginibre_intensity(n, zs[1])) is float


class TestPowerIntensity:
    def test_single_matrix(self):
        assert power_intensity(1, 1.0) == pytest.approx(math.exp(-1) / math.pi, rel=1e-12)

    def test_median_limit(self):
        assert power_intensity(400, 1.0) == pytest.approx(1.0 / (2 * math.pi), rel=0.03)

    def test_limit_profile(self):
        worst = max(abs(power_intensity(1000, r) * 2 * math.pi * r * r - 1.0)
                    for r in (0.5, 1.0, 2.0))
        assert worst <= 0.10

    def test_origin_refused(self):
        with pytest.raises(ZeroPoint):
            power_intensity(5, 0.0)

    @pytest.mark.parametrize("n", [1, 10, 64, 400])
    def test_array_matches_scalar_bitwise(self, n):
        zs = np.concatenate([np.linspace(0.5, 2.0 * math.e, 121), [1e-3, 50.0, 3j - 4]])
        got = power_intensity(n, zs)
        assert isinstance(got, np.ndarray) and got.shape == zs.shape
        assert got.tolist() == [power_intensity(n, z) for z in zs]
        assert type(power_intensity(n, zs[0])) is float

    def test_origin_in_array_refused(self):
        with pytest.raises(ZeroPoint):
            power_intensity(5, np.array([1.0, 0.0, 2.0]))


class TestPoissonOracles:
    """The experiments' intensity tables and expected counts against 40-digit mpmath.

    Each bound is the measured worst relative error, rounded up.
    """

    @pytest.fixture(autouse=True)
    def forty_digits(self):
        with mpmath.workdps(40):
            yield

    @pytest.mark.parametrize("n, bound", [(12, 4e-16), (64, 1e-15)])
    def test_ginibre_table(self, n, bound):
        z = math.sqrt(n) * np.linspace(0.01, 1.25, 125)  # ginibre-intensity's intensity.csv
        refs = [n * poisson_cdf_mp(n - 1, abs(v) ** 2) / mpmath.pi for v in z.tolist()]
        assert worst_relative_error(n * ginibre_intensity(n, z), refs) <= bound

    @pytest.mark.parametrize("n, bound", [(10, 8e-16), (64, 1e-15)])
    def test_power_table(self, n, bound):
        r = np.linspace(0.5, 2.0 * math.e, 121)  # poisson-limit's intensity.csv
        refs = [poisson_cdf_mp(n - 1, n * v ** (2.0 / n))
                / (mpmath.pi * mpmath.mpf(v) ** (2 - mpmath.mpf(2) / n)) for v in r.tolist()]
        assert worst_relative_error(power_intensity(n, r), refs) <= bound

    @pytest.mark.parametrize("n, u, bound", [
        # ginibre-intensity's bins, and poisson-limit's annulus
        (12, [12 * e * e for e in np.linspace(0.2, 0.9, 8).tolist()], 1.2e-16),
        (64, [64 * e * e for e in np.linspace(0.2, 0.9, 8).tolist()], 1e-16),
        (10, [10 * r ** (2.0 / 10) for r in (1.0, math.e)], 1.5e-16),
        (64, [64 * r ** (2.0 / 64) for r in (1.0, math.e)], 1e-16),
    ], ids=["bins-12", "bins-64", "annulus-10", "annulus-64"])
    def test_expected_counts(self, n, u, bound):
        refs = [expected_count_mp(n, lo, hi) for lo, hi in zip(u[:-1], u[1:])]
        assert worst_relative_error(_expected_counts(n, u), refs) <= bound


def spectra_on_two_threads(g, n: int, trials: int, variance: float) -> list:
    """Spectra of `trials` draws of sample_ginibre(g, n, variance).

    Every matrix is drawn first, in order, from g; the eigensolves then run on
    the two compute threads.
    """
    mats = [sample_ginibre(g, n, variance) for _ in range(trials)]
    return compute.map_two(lambda i: eigenvalues(mats[i]).eigenvalues, trials)


def power_spectra(seed: int, n: int, trials: int) -> list:
    """`trials` draws of power_spectrum_sample from one generator, eigensolves on two threads."""
    base = spectra_on_two_threads(RngStream(seed).generator(), n, trials, 1.0 / n)
    spectra = [canonical_order(ev ** n) for ev in base]
    assert np.array_equal(spectra[0],
                          power_spectrum_sample(RngStream(seed).generator(), n).eigenvalues)
    return spectra


class TestPowerSpectrum:
    def test_annulus_count_against_exact_intensity(self):
        # expected count in 1 <= |mu| <= e is the integral of the exact
        # finite-n intensity; the MC mean must agree within sampling error
        n, trials = 64, 400
        counts = []
        for mu in power_spectra(103, n, trials):
            counts.append(np.sum((np.abs(mu) >= 1.0) & (np.abs(mu) <= math.e)))
        from scipy.special import gammaincc
        expected, _ = quad(lambda w: gammaincc(n, w), n, n * math.exp(2.0 / n))
        mean = float(np.mean(counts))
        stderr = float(np.std(counts, ddof=1) / math.sqrt(trials))
        assert abs(mean - expected) <= 4.0 * stderr

    def test_disjoint_annuli_nearly_uncorrelated(self):
        n, trials = 64, 800
        c1, c2 = [], []
        for mu in power_spectra(104, n, trials):
            r = np.abs(mu)
            c1.append(np.sum((r >= 1.0) & (r <= math.e)))
            c2.append(np.sum((r > math.e) & (r <= math.e ** 2)))
        rho = np.corrcoef(c1, c2)[0, 1]
        assert abs(rho) <= 0.1


class TestCrossTerm:
    def test_single_term(self):
        assert cross_term(1, 1.0, 1.0) == pytest.approx(
            math.exp(-2) / math.pi ** 2, rel=1e-12)

    def test_monotone_decay(self):
        vals = [cross_term(n, 1.0, 1.0) for n in (1, 4, 16, 64, 256)]
        assert all(b < a for a, b in zip(vals, vals[1:]))

    def test_small_against_intensity_product(self):
        # the ratio decays like n^{-1/2}: direct evaluation gives 7.6% at
        # n=64 and 3.7% at n=256
        prod64 = power_intensity(64, 1.0) * power_intensity(64, 2.0)
        assert cross_term(64, 1.0, 2.0) <= 0.10 * prod64
        prod256 = power_intensity(256, 1.0) * power_intensity(256, 2.0)
        assert cross_term(256, 1.0, 2.0) <= 0.05 * prod256

    def test_origin_refused(self):
        with pytest.raises(ZeroPoint):
            cross_term(4, 0.0, 1.0)


class TestGeneralizedSchur:
    def test_k1_is_plain_schur(self, rng):
        a = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
        ch = generalized_schur([a])
        assert ch.k == 1
        assert np.linalg.norm(np.tril(ch.uppers[0], 0)) == 0.0
        assert_multiset_close(ch.diagonals[0], eigenvalues(a).eigenvalues, 1e-8)
        rec = ch.reconstruct(0)
        assert np.linalg.norm(rec - a) <= 1e-9 * np.linalg.norm(a)

    def test_diagonal_chain(self):
        d1 = np.diag([1.0 + 0j, 2.0, 3.0])
        d2 = np.diag([5.0 + 0j, 7.0, 11.0])
        ch = generalized_schur([d1, d2])
        for ell in range(2):
            assert np.linalg.norm(ch.uppers[ell]) <= 1e-12
            rec = ch.reconstruct(ell)
            assert np.linalg.norm(rec - [d1, d2][ell]) <= 1e-10
        assert_multiset_close(ch.product_eigenvalues(), [5.0, 14.0, 33.0], 1e-10)

    def test_two_ginibre_factors(self):
        g = RngStream(105).generator()
        mats = [sample_ginibre(g, 6, 1.0) for _ in range(2)]
        ch = generalized_schur(mats)
        for ell in range(2):
            err = np.linalg.norm(ch.reconstruct(ell) - mats[ell])
            assert err <= 1e-9 * np.linalg.norm(mats[ell])
        prod_eig = eigenvalues(mats[0] @ mats[1]).eigenvalues
        assert_multiset_close(ch.product_eigenvalues(), prod_eig, 1e-8)

    def test_chain_invariants_random(self):
        g = RngStream(106).generator()
        for _ in range(30):
            k = int(g.integers(1, 5))
            n = int(g.integers(2, 11))
            mats = [sample_ginibre(g, n, 1.0) for _ in range(k)]
            ch = generalized_schur(mats)
            for ell in range(k):
                u = ch.unitaries[ell]
                assert np.linalg.norm(u.conj().T @ u - np.eye(n)) <= 1e-10 * n
                assert np.linalg.norm(np.tril(ch.uppers[ell], 0)) == 0.0
                err = np.linalg.norm(ch.reconstruct(ell) - mats[ell])
                assert err <= 1e-9 * np.linalg.norm(mats[ell])
            prod = mats[0]
            for m in mats[1:]:
                prod = prod @ m
            assert_multiset_close(ch.product_eigenvalues(),
                                  eigenvalues(prod).eigenvalues, 1e-8)

    def test_one_by_one_chains(self):
        g = RngStream(107).generator()
        for k in (1, 2, 3):
            mats = [sample_ginibre(g, 1, 1.0) for _ in range(k)]
            ch = generalized_schur(mats)
            for ell in range(k):
                assert abs(ch.unitaries[ell][0, 0]) == pytest.approx(1.0, abs=1e-15)
                err = abs(ch.reconstruct(ell)[0, 0] - mats[ell][0, 0])
                assert err <= 1e-15 * abs(mats[ell][0, 0])
            prod = math.prod(m[0, 0] for m in mats)
            assert_multiset_close(ch.product_eigenvalues(), [prod], 1e-15 * abs(prod))

    def test_degenerate_spectrum_refused(self):
        with pytest.raises(DegenerateSpectrum):
            generalized_schur([np.diag([1.0 + 0j, 1.0, 2.0])])

    def test_singular_factor_breaks_down(self):
        with pytest.raises(NumericalBreakdown, match="vanishing diagonal pivot"):
            generalized_schur([np.diag([1.0 + 0j, 0.0]), np.array([[2.0 + 0j, 1.0],
                                                                  [1.0, 3.0]])])


class TestProductEnsemble:
    def test_plain_ginibre_moduli_second_moment(self):
        # E sum |lambda|^2 = n(n+1)/2 for standard entries; quadrature oracle
        n = 16
        g = RngStream(107).generator()
        vals = [np.sum(np.abs(sample_product_ensemble(g, n, (1,)).eigenvalues) ** 2)
                for _ in range(300)]
        target, _ = quad(
            lambda r: ginibre_intensity(n, r) * r ** 2 * 2 * math.pi * r, 0, 3 * math.sqrt(n))
        assert target == pytest.approx(n * (n + 1) / 2, rel=1e-6)
        stderr = np.std(vals, ddof=1) / math.sqrt(len(vals))
        assert abs(np.mean(vals) - target) <= 4 * stderr

    def test_spherical_unit_disk_count(self):
        n = 32
        g = RngStream(108).generator()
        counts = [np.sum(np.abs(sample_product_ensemble(g, n, (-1, 1)).eigenvalues) <= 1.0)
                  for _ in range(100)]
        assert np.mean(counts) == pytest.approx(n / 2, abs=0.6)

    def test_pattern_only_matters_through_sum(self):
        from spectralab.measures import ks_two_sample
        n, trials = 16, 120
        g = RngStream(109).generator()
        ra, rb = [], []
        for _ in range(trials):
            ra.append(np.abs(sample_product_ensemble(g, n, (-1, 1, 1)).eigenvalues))
            rb.append(np.abs(sample_product_ensemble(g, n, (1, 1, -1)).eigenvalues))
        assert ks_two_sample(np.concatenate(ra), np.concatenate(rb)) < 0.08

    def test_bad_pattern_refused(self):
        with pytest.raises(WrongSize):
            sample_product_ensemble(RngStream(1), 4, (2,))


class TestSpherical:
    def test_intensity_at_origin(self):
        assert spherical_intensity(0.0, 9) == pytest.approx(9 / math.pi, rel=1e-14)

    def test_intensity_integrates_to_n(self):
        n = 13
        val, _ = quad(lambda r: spherical_intensity(r, n) * 2 * math.pi * r, 0, np.inf)
        assert val == pytest.approx(n, rel=1e-6)

    def test_weight_ratio(self):
        n = 7
        assert spherical_weight(0.0, n) / spherical_weight(1.0, n) == pytest.approx(2 ** (n + 1))

    @pytest.mark.parametrize("z", [1.4e154, 1e78, 1e200, -1e200j])
    def test_far_points_underflow_to_zero(self, z):
        assert spherical_weight(z, 3) == 0.0
        assert spherical_intensity(z, 3) == 0.0

    @pytest.mark.parametrize("n", [3, 9])
    @pytest.mark.parametrize("z", [0.5, 7.0, 3 + 4j, 1e3, 1e10])
    def test_within_one_ulp_of_mpmath(self, z, n):
        # |z| is exact in double here, so only the functions' own roundings count
        with mpmath.workdps(40):
            d = 1 + mpmath.mpf(abs(z)) ** 2
            refs = [d ** -(n + 1), n / mpmath.pi / d ** 2]
            for got, ref in zip((spherical_weight(z, n), spherical_intensity(z, n)), refs):
                assert abs(got - ref) <= math.ulp(float(ref))


class TestRealEigenvalues:
    def test_single_gaussian_matrix(self):
        est = real_eig_probability(RngStream(110), 2, 1, gaussian_entries, 10 ** 4)
        assert 0.69 <= est.p_hat <= 0.72

    def test_exchangeable_half_bound(self):
        for nf in (1, 3):
            est = real_eig_probability(RngStream(111 + nf), 2, nf, gaussian_entries, 4000)
            assert est.p_hat >= 0.5 - 3.0 * est.stderr

    def test_atomic_entries_rank_one_bound(self):
        q = 0.5
        nf = 6
        est = real_eig_probability(RngStream(115), 2, nf, bernoulli_entries(q), 4000)
        bound = 1.0 - (1.0 - q ** 4) ** nf
        assert est.p_hat >= bound - 3.0 * est.stderr


class TestRealEigChunks:
    """Monte Carlo trials go in chunks of _TRIAL_BLOCK, drawn in turn from one generator.

    At the ginibre-mix benchmark's largest point (k = 2, 8 factors, 10^4
    trials) tracemalloc's peak is 0.56 MiB (3.51 MiB in one chunk).
    """

    def test_peak(self):
        peak = traced_peak_mib(
            lambda: real_eig_probability(RngStream(1), 2, 8, gaussian_entries, 10 ** 4))
        assert peak <= 0.75

    @pytest.mark.parametrize("k, n_factors, sampler, trials", [
        (2, 8, gaussian_entries, 10 ** 4),
        (2, 3, gaussian_entries, 1025),
        (3, 4, bernoulli_entries(0.5), 3000),
        (4, 2, bernoulli_entries(0.3, (-1.0, 1.0)), 2049),
    ], ids=["gauss-k2-8", "gauss-one-over", "bern-k3", "bern-pm1"])
    def test_chunks_equal_one_draw(self, k, n_factors, sampler, trials, monkeypatch):
        got = real_eig_probability(RngStream(9), k, n_factors, sampler, trials)
        monkeypatch.setattr(rmt, "_TRIAL_BLOCK", trials)
        assert got == real_eig_probability(RngStream(9), k, n_factors, sampler, trials)


class TestRepulsion:
    def test_nearest_neighbour_spacings_avoid_zero(self):
        n, trials = 128, 200
        close_fraction = []
        for lam in spectra_on_two_threads(RngStream(116).generator(), n, trials, 1.0 / n):
            d = np.abs(lam[:, None] - lam[None, :])
            np.fill_diagonal(d, np.inf)
            nn = d.min(axis=1)
            close_fraction.append(np.mean(nn < 0.1 * nn.mean()))
        assert np.mean(close_fraction) <= 0.02


@pytest.mark.parametrize("call, expected", [
    (lambda: eigenvalues(np.array([[1.0, np.nan], [0.0, 1.0]])), WrongSize),
    (lambda: eigenvalues(np.zeros((3, 3))).residual, 0.0),
    (lambda: generalized_schur([]), WrongSize),
    (lambda: generalized_schur([np.eye(2), np.eye(3)]), WrongSize),
    (lambda: real_eig_probability(RngStream(1), 2, 1, gaussian_entries, 0), ValueError),
    # n r^(2/n) = 2500 is past rmt._rate_cap(0) = 1679.8
    (lambda: cross_term(1, 50.0, 50.0), 0.0),
], ids=["non-finite-matrix", "zero-matrix-residual", "empty-chain", "mixed-sizes",
        "zero-trials", "past-rate-cap"])
def test_edge_inputs(call, expected):
    assert_outcome(call, expected)
