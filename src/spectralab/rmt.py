"""Random-matrix ensembles, determinantal kernels, and product spectra.

Matrices are plain numpy arrays (square, finite entries). The eigensolver
contract is delegated to LAPACK (balance, Hessenberg reduction, shifted QR
with deflation) and every returned spectrum carries a verified eigenpair
residual. Kernel and intensity evaluations are organized around Poisson
probabilities computed in log space, so they stay finite far beyond the
range where the raw series would overflow.

scipy is imported on first call, not with this module: scipy.special by
the Poisson helpers, scipy.linalg by ``generalized_schur``.
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


def _poisson_log_pmf(lams, k: np.ndarray) -> np.ndarray:
    """log P(Poisson(lam) = k), one row per rate lam > 0 in ``lams``."""
    from scipy.special import gammaln

    lam = np.array(lams, dtype=float)[:, None]
    return -lam + k * np.array([[math.log(v)] for v in lam[:, 0].tolist()]) - gammaln(k + 1)


def _poisson_log_cdf(lams, kmax: int) -> np.ndarray:
    """log P(Poisson(lam) <= kmax) for each rate lam >= 0, from one row-wise logsumexp."""
    from scipy.special import logsumexp

    lam = np.array(lams, dtype=float)
    out = np.full(lam.size, 0.0 if kmax >= 0 else -math.inf)
    if kmax >= 0 and np.any(lam > 0):
        out[lam > 0] = logsumexp(_poisson_log_pmf(lam[lam > 0], np.arange(kmax + 1)), axis=1)
    return out


def ginibre_intensity(n: int, z):
    """1-point eigenvalue intensity (1/pi) e^{-|z|^2} sum_{k<n} |z|^{2k}/k!.

    Equals (1/pi) P(Poisson(|z|^2) <= n-1); tends to 1/pi inside the bulk.
    For an array z the result is an array shaped like z, from one logsumexp
    call, each value bit-identical to the scalar call's float.
    """
    s = [abs(complex(v)) ** 2 for v in np.ravel(z).tolist()]
    rho = [math.exp(c) / math.pi for c in _poisson_log_cdf(s, n - 1).tolist()]
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
    log_cdf = _poisson_log_cdf([n * v ** (2.0 / n) for v in r], n - 1).tolist()
    rho = [math.exp(c - (2.0 - 2.0 / n) * math.log(v)) / math.pi for c, v in zip(log_cdf, r)]
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

    (1/(pi^2 (r1 r2)^{2-2/n})) sum_{l<n} pmf(n r1^{2/n}, l) pmf(n r2^{2/n}, l);
    its decay in n is what makes the limiting counts independent.
    """
    from scipy.special import logsumexp

    r1 = abs(complex(z1))
    r2 = abs(complex(z2))
    if r1 == 0 or r2 == 0:
        raise ZeroPoint("cross term is not defined at the origin")
    lam1 = n * r1 ** (2.0 / n)
    lam2 = n * r2 ** (2.0 / n)
    log_sum = float(logsumexp(_poisson_log_pmf([lam1, lam2], np.arange(n)).sum(axis=0)))
    log_pref = -(2.0 - 2.0 / n) * (math.log(r1) + math.log(r2))
    return math.exp(log_sum + log_pref) / (math.pi ** 2)


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
    if n > 1:
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
    return float((1.0 + abs(complex(z)) ** 2) ** (-(n + 1)))


def spherical_intensity(z: complex, n: int) -> float:
    """1-point intensity (n/pi) (1+|z|^2)^{-2}; integrates to n over the plane."""
    return float(n / math.pi / (1.0 + abs(complex(z)) ** 2) ** 2)


class RealEigEstimate(NamedTuple):
    p_hat: float
    stderr: float
    trials: int


def real_eig_probability(rng, k: int, n_factors: int, entry_sampler: Callable,
                         trials: int) -> RealEigEstimate:
    """Monte Carlo estimate of P(product of n_factors k x k matrices has a real spectrum).

    An eigenvalue counts as real when |Im| <= 1e-8 (1 + |eigenvalue|); the
    threshold stands in for the almost-sure dichotomy that exact arithmetic
    would give.
    """
    if trials < 1:
        raise ValueError("trials >= 1 required")
    g = _gen(rng)
    entries = np.asarray(entry_sampler(g, (trials, n_factors, k, k)), dtype=float)
    prod = entries[:, 0]
    for i in range(1, n_factors):
        prod = prod @ entries[:, i]
    lam = np.linalg.eigvals(prod)
    real_mask = np.all(np.abs(lam.imag) <= 1e-8 * (1.0 + np.abs(lam)), axis=1)
    p_hat = float(np.mean(real_mask))
    stderr = math.sqrt(p_hat * (1.0 - p_hat) / trials)
    return RealEigEstimate(p_hat, stderr, trials)

