"""Random-matrix ensembles, determinantal kernels, and product spectra.

Matrices are plain numpy arrays (square, finite entries). The eigensolver
contract is delegated to LAPACK (balance, Hessenberg reduction, shifted QR
with deflation) and every returned spectrum carries a verified eigenpair
residual. Intensities are Poisson tail probabilities. Each is summed over
a window of counts about the Poisson mode, built from the mode outward by
term ratios and normalised by the window's mass, so it stays finite far
beyond the range where the raw series would overflow, with no scipy. The
expected eigenvalue count in an annulus is the intensity's integral in
closed form, from the same windows.

scipy.linalg is imported on first call of ``generalized_schur``, not with
this module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .errors import (
    DegenerateSpectrum,
    NoConvergence,
    NumericalBreakdown,
    ResampleLimit,
    WrongSize,
    ZeroPoint,
)
from .polycore import canonical_order
from .randgen import _gen, sample_complex_gaussian

__all__ = [
    "RealEigEstimate",
    "SchurChain",
    "SpectrumSample",
    "cross_term",
    "eigenvalues",
    "generalized_schur",
    "ginibre_intensity",
    "ginibre_kernel",
    "power_intensity",
    "power_spectrum_sample",
    "real_eig_probability",
    "sample_ginibre",
    "sample_product_ensemble",
    "spherical_intensity",
    "spherical_weight",
]

TOL_EIG = 1e-8
_COND_LIMIT = 1e12
_MAX_RESAMPLES = 10
_TRIAL_BLOCK = 1024


@dataclass(frozen=True)
class SpectrumSample:
    """Eigenvalues of one matrix draw, with residual evidence and provenance."""

    eigenvalues: np.ndarray
    residual: float
    ensemble: str
    params: dict

    @property
    def n(self) -> int:
        return int(self.eigenvalues.size)


def _require_square(a) -> np.ndarray:
    m = np.asarray(a, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] < 1:
        raise WrongSize(f"square matrix required, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise WrongSize("matrix entries must be finite")
    return m


def eigenvalues(a, ensemble: str = "generic", params: dict | None = None) -> SpectrumSample:
    """All eigenvalues with a verified residual max_i ||A v_i - w_i v_i|| / ||A||_F.

    Raises NoConvergence when the QR iteration fails or the residual misses
    the eigensolver tolerance.
    """
    m = _require_square(a)
    try:
        w, v = np.linalg.eig(m)
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(f"eigensolver did not converge: {exc}") from exc
    norm = float(np.linalg.norm(m))
    if norm == 0.0:
        residual = 0.0
    else:
        residual = float(np.max(np.linalg.norm(m @ v - v * w[None, :], axis=0)) / norm)
    if residual > TOL_EIG:
        raise NoConvergence(f"eigenpair residual {residual:.3e} exceeds {TOL_EIG:.1e}")
    return SpectrumSample(canonical_order(w), residual, ensemble, dict(params or {}))


def sample_ginibre(rng, n: int, variance: float = 1.0) -> np.ndarray:
    """n x n matrix of i.i.d. complex Gaussian entries with E|entry|^2 = variance."""
    return sample_complex_gaussian(rng, n * n, variance).reshape(n, n)


def ginibre_kernel(n: int, z: complex, w: complex) -> complex:
    """Truncated exponential kernel sum_{k<n} (z conj(w))^k / k!.

    Incremental term recurrence; safe for |z conj(w)| up to about 700.
    """
    zw = complex(z) * np.conj(complex(w))
    term = 1.0 + 0.0j
    total = term
    for k in range(1, n):
        term = term * zw / k
        total += term
    return complex(total)


def _reach(lam: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """How many counts a ``_poisson_sides`` row of rate lam reaches below and above its mode."""
    root = np.sqrt(lam)
    return np.ceil(40.0 * root) + 40.0, np.ceil(10.0 * root) + 10.0


def _poisson_sides(lams) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Poisson(lam) probabilities on each side of the mode m = floor(lam), for rates lam >= 0.

    Returns (m, down, up) with down[r, i] = q_{m-1-i} and up[r, i] = q_{m+1+i},
    where q_j = P(X = j) / P(X = m), so q_m = 1. Each side is built from q_m by
    the ratios q_{j+1} / q_j = lam / (j + 1), multiplied outward; the
    log-space form -lam + j log lam - log j! would carry a rounding error near
    eps lam log lam. Below the mode a row reaches ceil(40 sqrt(lam)) + 40
    counts, so a lower tail keeps its relative accuracy until it underflows.
    Above it a row reaches ceil(10 sqrt(lam)) + 10 counts: every caller
    weighs the upper side against the whole mass, and what it leaves out is
    below 1e-20 of that. Entries past a row's reach, or below j = 0, read 0,
    so a row does not depend on the others; each side ends in a column of 0.
    """
    lam = np.array(lams, dtype=float)[:, None]
    m = np.floor(lam)
    reach_down, reach_up = (r.astype(np.int64) for r in _reach(lam[:, 0]))
    rows = np.arange(m.size)

    def outward(ratio, reach):
        ratio[rows, np.minimum(reach, ratio.shape[1] - 1)] = 0.0
        return np.cumprod(ratio, axis=1, out=ratio)

    up = m + np.arange(1.0, reach_up.max() + 2.0)
    down = np.maximum(m - np.arange(min(m.max(), reach_down.max()) + 1.0), 0.0)  # j + 1
    np.divide(lam, up, out=up)
    np.divide(down, lam, out=down, where=down > 0)
    return m[:, 0].astype(np.int64), outward(down, reach_down), outward(up, reach_up)


def _tail_sums(side: np.ndarray) -> np.ndarray:
    """side[r, i:].sum() for every i, in place: added from the far end, small terms first.

    The adds run in sequence, so the zeros that pad a row do not change its sums.
    """
    np.cumsum(side[:, ::-1], axis=1, out=side[:, ::-1])
    return side


def _rate_cap(top: int) -> float:
    """The rate at which count ``top`` lies 40 sqrt(lam) + 40 below the mean.

    Above it P(X <= top) < exp(-800) underflows, and ``_poisson_sides``'s rows
    do not reach ``top``; below it a row holds under 50 sqrt(top + 440) + 1060 counts.
    """
    return (20.0 + math.sqrt(top + 440.0)) ** 2


def _poisson_cdf(lams, k: int) -> np.ndarray:
    """P(Poisson(lam) <= k) for each rate lam >= 0, from the tail that leaves out the mode.

    Rates above ``_rate_cap(k)`` read 0 and rates whose row ends at or below
    k read 1, as their rows would give; only the rest are built.
    """
    lam = np.array(lams, dtype=float)
    out = (np.floor(lam) + _reach(lam)[1] <= k).astype(float)
    live = (lam <= _rate_cap(k)) & (out == 0.0)
    if not live.any():
        return out
    m, down, up = _poisson_sides(lam[live])
    below, above = _tail_sums(down), _tail_sums(up)
    rows = np.arange(m.size)
    # sum over j <= k for k < m, and over j > k for k >= m; past a row's end, its 0
    lower = below[rows, np.clip(m - 1 - k, 0, below.shape[1] - 1)]
    upper = above[rows, np.clip(k - m, 0, above.shape[1] - 1)]
    mass = below[:, 0] + (1.0 + above[:, 0])
    out[live] = np.where(k < m, lower / mass, 1.0 - upper / mass)
    return out


def _poisson_pmf(lams) -> tuple[np.ndarray, np.ndarray]:
    """(j, p) with P(Poisson(lam) = j[r, c]) = p[r, c]: a ``_poisson_sides`` row per rate."""
    m, down, up = _poisson_sides(lams)
    q = np.concatenate([down[:, ::-1], np.ones((m.size, 1)), up], axis=1)
    mass = _tail_sums(down)[:, 0] + (1.0 + _tail_sums(up)[:, 0])
    return m[:, None] + np.arange(-down.shape[1], up.shape[1] + 1), q / mass[:, None]


def _x_minus_log1p(x: float) -> float:
    """x - log1p(x) for x > 0, from the atanh series where the difference would cancel."""
    if x > 1.0:
        return x - math.log1p(x)
    # log1p(x) = 2 atanh(t), t = x / (2 + x): x - log1p(x) = x t - 2 sum_{odd k>=3} t^k / k
    t = x / (2.0 + x)
    total, term, k = 0.0, t ** 3, 3
    while total + term / k != total:
        total += term / k
        term *= t * t
        k += 2
    return x * t - 2.0 * total


def _expected_counts(n: int, u_edges) -> list:
    """Expected eigenvalue counts of a variance-1/n Ginibre draw in annuli u_lo <= n|z|^2 <= u_hi.

    The annuli lie between consecutive u_edges. The radial intensity
    integrates to int Q(n, u) du, Q(n, u) = P(X_u <= n-1) for
    X_u ~ Poisson(u). With U(x) = E[(X_x - n)+] and L(x) = E[(n - X_x)+] that
    is (u_hi - u_lo) + U(u_lo) - U(u_hi), taken when the annulus's middle is
    below n, or else L(u_lo) - L(u_hi); no quadrature. On an annulus no wider
    than sqrt(u_lo) each p_j(u_lo) - p_j(u_hi) is formed as
    p_j(u_hi) expm1(d - j log1p(d/u_lo)), d = u_hi - u_lo, which avoids the
    cancellation; the exponent is taken as u_lo (d/u_lo - log1p(d/u_lo)) -
    (j - u_lo) log1p(d/u_lo), whose parts do not cancel near j = u_lo. The
    u_hi row is the one whose counts reach past both rates' mass.
    Radius r of the n-th-power spectrum maps to u = n r^(2/n).
    """
    # Q(n, u) underflows past the cap, so the edges stop there
    u_edges = np.minimum(u_edges, _rate_cap(n - 1)).tolist()
    j, p = _poisson_pmf(u_edges)
    counts = []
    for lo, (u_lo, u_hi) in enumerate(zip(u_edges[:-1], u_edges[1:])):
        u_form = (u_lo + u_hi) / 2.0 < n
        w = np.maximum(j[lo:lo + 2] - n, 0) if u_form else np.maximum(n - j[lo:lo + 2], 0)
        d = u_hi - u_lo
        if d <= math.sqrt(u_lo):
            x = d / u_lo
            log_ratio = u_lo * _x_minus_log1p(x) - (j[lo + 1] - u_lo) * math.log1p(x)
            terms = w[1] * p[lo + 1] * np.expm1(log_ratio)
        else:
            terms = np.concatenate([w[0] * p[lo], -w[1] * p[lo + 1]])
        counts.append(math.fsum([u_hi, -u_lo, *terms.tolist()] if u_form else terms.tolist()))
    return counts


def ginibre_intensity(n: int, z):
    """1-point eigenvalue intensity (1/pi) e^{-|z|^2} sum_{k<n} |z|^{2k}/k!.

    Equals (1/pi) P(Poisson(|z|^2) <= n-1); tends to 1/pi inside the bulk.
    For an array z the result is an array shaped like z, from one pass over
    the points, each value bit-identical to the scalar call's float.
    """
    r = [abs(complex(v)) for v in np.ravel(z).tolist()]
    # v * v, not v ** 2: past |z| = 1.3e154 it is inf (intensity 0), not OverflowError
    rho = (_poisson_cdf([v * v for v in r], n - 1) / math.pi).tolist()
    return rho[0] if np.ndim(z) == 0 else np.array(rho).reshape(np.shape(z))


def power_intensity(n: int, z):
    """Intensity of the n-th-power spectrum at z.

    (1/(pi |z|^{2-2/n})) P(Poisson(n |z|^{2/n}) <= n-1); as n grows this
    approaches 1/(2 pi |z|^2) away from the origin. z is a point or an array
    of points, as in ``ginibre_intensity``; ZeroPoint if any point is 0.
    """
    r = [abs(complex(v)) for v in np.ravel(z).tolist()]
    if 0.0 in r:
        raise ZeroPoint("intensity is not defined at the origin")
    cdf = _poisson_cdf([n * v ** (2.0 / n) for v in r], n - 1).tolist()
    rho = [c * math.exp(-(2.0 - 2.0 / n) * math.log(v)) / math.pi for c, v in zip(cdf, r)]
    return rho[0] if np.ndim(z) == 0 else np.array(rho).reshape(np.shape(z))


def power_spectrum_sample(rng, n: int) -> SpectrumSample:
    """Spectrum of the n-th power of a variance-1/n Ginibre draw.

    The powers are taken eigenvalue-wise (never by forming the matrix power,
    which is the same spectrum but numerically far worse conditioned).
    """
    a = sample_ginibre(rng, n, 1.0 / n)
    base = eigenvalues(a, ensemble="ginibre", params={"variance": 1.0 / n})
    powered = base.eigenvalues ** n
    return SpectrumSample(canonical_order(powered), base.residual,
                          "ginibre-power", {"n": n})


def cross_term(n: int, z1: complex, z2: complex) -> float:
    """Two-point correction term of the powered-spectrum intensity product.

    (1/(pi^2 (r1 r2)^{2-2/n})) sum_{l<n} pmf(n r1^{2/n}, l) pmf(n r2^{2/n}, l),
    the sum taken over the counts both Poisson windows hold; its decay in n is
    what makes the limiting counts independent.
    """
    r1 = abs(complex(z1))
    r2 = abs(complex(z2))
    if r1 == 0 or r2 == 0:
        raise ZeroPoint("cross term is not defined at the origin")
    lams = [n * r1 ** (2.0 / n), n * r2 ** (2.0 / n)]
    if max(lams) > _rate_cap(n - 1):
        return 0.0  # no count below n has a probability above the underflow
    j, p = _poisson_pmf(lams)
    lo = max(int(j[0, 0]), int(j[1, 0]), 0)
    hi = max(min(int(j[0, -1]), int(j[1, -1]), n - 1) + 1, lo)
    a, b = (p[r, lo - int(j[r, 0]):hi - int(j[r, 0])] for r in (0, 1))
    log_pref = -(2.0 - 2.0 / n) * (math.log(r1) + math.log(r2))
    return math.exp(log_pref) * math.fsum((a * b).tolist()) / (math.pi ** 2)


@dataclass(frozen=True)
class SchurChain:
    """Simultaneous triangularization A_l = U_l (Z_l + T_l) U_{l+1}^*, U_{k+1} = U_1."""

    unitaries: tuple
    diagonals: tuple
    uppers: tuple

    @property
    def k(self) -> int:
        return len(self.unitaries)

    def factor(self, ell: int) -> np.ndarray:
        return np.diag(self.diagonals[ell]) + self.uppers[ell]

    def reconstruct(self, ell: int) -> np.ndarray:
        u_next = self.unitaries[(ell + 1) % self.k]
        return self.unitaries[ell] @ self.factor(ell) @ u_next.conj().T

    def product_eigenvalues(self) -> np.ndarray:
        prod = np.ones_like(self.diagonals[0])
        for d in self.diagonals:
            prod = prod * d
        return canonical_order(prod)


def generalized_schur(chain: Sequence[np.ndarray]) -> SchurChain:
    """Generalized Schur decomposition of a matrix chain.

    Schur-decompose the full product to fix U_1, then peel off one factor at
    a time: U_l^* A_l is written as (upper triangular) x (unitary)^*, an RQ
    factorization, with phases absorbed so each triangular factor has a
    non-negative real diagonal. The last factor closes the cycle with U_1 and
    is upper triangular automatically (up to roundoff, which is checked).
    """
    import scipy.linalg

    mats = [_require_square(a) for a in chain]
    if len(mats) < 1:
        raise WrongSize("need at least one matrix")
    n = mats[0].shape[0]
    if any(m.shape[0] != n for m in mats):
        raise WrongSize("all matrices in the chain must share one size")

    product = mats[0]
    for m in mats[1:]:
        product = product @ m
    t_full, u1 = scipy.linalg.schur(product, output="complex")
    eig = np.diag(t_full)
    gaps = np.abs(eig[:, None] - eig[None, :])
    np.fill_diagonal(gaps, np.inf)
    if float(gaps.min()) <= 1e-8:
        raise DegenerateSpectrum(
            f"product eigenvalues too close (min gap {gaps.min():.3e})")

    unitaries = [u1]
    factors = []
    for ell in range(len(mats) - 1):
        m = unitaries[ell].conj().T @ mats[ell]
        r, q = scipy.linalg.rq(m)
        diag = np.diag(r)
        small = np.abs(diag) < 1e-13 * max(1.0, float(np.linalg.norm(m)))
        if np.any(small):
            raise NumericalBreakdown("vanishing diagonal pivot in RQ step")
        phases = diag / np.abs(diag)
        r = r * np.conj(phases)[None, :]
        q = phases[:, None] * q
        factors.append(r)
        unitaries.append(q.conj().T)

    last = unitaries[-1].conj().T @ mats[-1] @ u1
    lower_norm = float(np.linalg.norm(np.tril(last, -1)))
    if lower_norm > 1e-8 * max(1.0, float(np.linalg.norm(last))):
        raise NumericalBreakdown(
            f"chain closure is not triangular (lower norm {lower_norm:.3e})")
    factors.append(np.triu(last))

    diagonals = tuple(np.diag(f).copy() for f in factors)
    uppers = tuple(np.triu(f, 1) for f in factors)
    return SchurChain(tuple(unitaries), diagonals, uppers)


def sample_product_ensemble(rng, n: int, epsilons: Sequence[int]) -> SpectrumSample:
    """Spectrum of A_1^{e_1} ... A_k^{e_k} for i.i.d. standard complex Ginibre A_i.

    Inverted factors are applied by linear solves, never explicit inverses;
    a factor whose condition estimate exceeds 1e12 is redrawn (the count is
    reported in params), with a hard cap of 10 redraws.
    """
    eps = [int(e) for e in epsilons]
    if any(e not in (-1, 1) for e in eps):
        raise WrongSize("epsilons must be +1 or -1")
    g = _gen(rng)
    resamples = 0
    prod = np.eye(n, dtype=complex)
    for e in eps:
        a = sample_ginibre(g, n, 1.0)
        if e == -1:
            while np.linalg.cond(a) >= _COND_LIMIT:
                resamples += 1
                if resamples > _MAX_RESAMPLES:
                    raise ResampleLimit("too many ill-conditioned factors")
                a = sample_ginibre(g, n, 1.0)
            # right-multiply by a^{-1}: solve X a = prod
            prod = np.linalg.solve(a.T, prod.T).T
        else:
            prod = prod @ a
    spec = eigenvalues(prod, ensemble="ginibre-product",
                       params={"epsilons": tuple(eps), "resamples": resamples})
    return spec


def spherical_weight(z: complex, n: int) -> float:
    """Unnormalized eigenvalue weight (1+|z|^2)^{-(n+1)} of the inverse-pair ensemble."""
    r = abs(complex(z))
    return float((1.0 + r * r) ** (-(n + 1)))


def spherical_intensity(z: complex, n: int) -> float:
    """1-point intensity (n/pi) (1+|z|^2)^{-2}; integrates to n over the plane."""
    r = abs(complex(z))
    d = 1.0 + r * r
    return float(n / math.pi / (d * d))


class RealEigEstimate(NamedTuple):
    p_hat: float
    stderr: float
    trials: int


def real_eig_probability(rng, k: int, n_factors: int, entry_sampler: Callable,
                         trials: int) -> RealEigEstimate:
    """Monte Carlo estimate of P(product of n_factors k x k matrices has a real spectrum).

    An eigenvalue counts as real when |Im| <= 1e-8 (1 + |eigenvalue|); the
    threshold stands in for the almost-sure dichotomy that exact arithmetic
    would give. Trials go in chunks of _TRIAL_BLOCK, each drawn by
    entry_sampler(g, (chunk, n_factors, k, k)) from one generator in turn.
    A sampler must draw its entries from g one by one in C order, so that the
    chunks' draws equal one draw of shape (trials, n_factors, k, k);
    ``gaussian_entries`` and ``bernoulli_entries`` do.
    """
    if trials < 1:
        raise ValueError("trials >= 1 required")
    g = _gen(rng)
    hits = 0
    for lo in range(0, trials, _TRIAL_BLOCK):
        shape = (min(_TRIAL_BLOCK, trials - lo), n_factors, k, k)
        entries = np.asarray(entry_sampler(g, shape), dtype=float)
        prod = entries[:, 0]
        for i in range(1, n_factors):
            prod = prod @ entries[:, i]
        lam = np.linalg.eigvals(prod)
        hits += int(np.count_nonzero(
            np.all(np.abs(lam.imag) <= 1e-8 * (1.0 + np.abs(lam)), axis=1)))
    p_hat = hits / trials
    stderr = math.sqrt(p_hat * (1.0 - p_hat) / trials)
    return RealEigEstimate(p_hat, stderr, trials)
