"""Root-based polynomials and numerically stable evaluation.

A polynomial is carried as its multiset of roots plus a leading coefficient,
so P(z) = leading * prod_k (z - r_k). Degrees are the number of stored roots;
a root repeated m times simply appears m times. Coefficient expansion is only
a derived view, never the primary form.

The weighted logarithmic derivative sum(a_k / (z - z_k)) is the workhorse for
everything about critical points: with unit weights it equals P'(z)/P(z).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import NearPole, SizeMismatch, ZeroDegree

__all__ = [
    "RootPoly",
    "WeightedLogDeriv",
    "canonical_order",
    "derivative_coefficients",
    "exclusion_radius",
    "expand_coefficients",
    "log_abs_log_deriv",
]


def exclusion_radius(z):
    """Pole-exclusion radius around an evaluation point: 1e-12 * (1 + |z|).

    z may also be an array of points, giving one radius per point.
    """
    z = np.asarray(z, dtype=complex)
    # hypot, as abs() of one complex point takes it
    return 1e-12 * (1.0 + np.hypot(z.real, z.imag))


def canonical_order(points: Iterable[complex]) -> np.ndarray:
    """Sort complex points lexicographically by (real, imag).

    This is the canonical ordering used for every serialized point cloud, so
    that repeated runs produce identical files.
    """
    arr = np.asarray(list(points) if not isinstance(points, np.ndarray) else points,
                     dtype=complex).ravel()
    idx = np.lexsort((arr.imag, arr.real))
    return arr[idx]


def _frozen_array(values) -> np.ndarray:
    """A read-only complex copy of values."""
    arr = np.array(values, dtype=complex)
    arr.flags.writeable = False
    return arr


# eq=False: the generated __eq__ would compare arrays element-wise, so
# equality and hashing stay by identity
@dataclass(frozen=True, eq=False)
class RootPoly:
    """Polynomial stored as roots (multiplicity by repetition) and a leading scalar.

    ``roots`` is a read-only complex array copied from the input, so later
    changes to the input cannot reach the polynomial.
    """

    roots: np.ndarray
    leading: complex = 1.0 + 0.0j

    def __init__(self, roots: Sequence[complex] = (), leading: complex = 1.0):
        object.__setattr__(self, "roots", _frozen_array(roots))
        object.__setattr__(self, "leading", complex(leading))

    @property
    def degree(self) -> int:
        return self.roots.size

    def root_array(self) -> np.ndarray:
        return self.roots


@dataclass(frozen=True, eq=False)
class WeightedLogDeriv:
    """Weighted sum of simple poles, sum(a_k / (z - z_k)).

    With all weights equal to one this is P'(z)/P(z) for the RootPoly with the
    same roots. No constraint is imposed on the weights; callers that need
    positivity or a fixed total must validate themselves. ``roots`` and
    ``weights`` are read-only complex arrays copied from the input.
    """

    roots: np.ndarray
    weights: np.ndarray

    def __init__(self, roots: Sequence[complex], weights: Sequence[complex] | None = None):
        roots = _frozen_array(roots)
        weights = _frozen_array(np.ones(roots.size) if weights is None else weights)
        if weights.size != roots.size:
            raise SizeMismatch(
                f"{roots.size} roots but {weights.size} weights")
        object.__setattr__(self, "roots", roots)
        object.__setattr__(self, "weights", weights)

    def root_array(self) -> np.ndarray:
        return self.roots

    def weight_array(self) -> np.ndarray:
        return self.weights


def expand_coefficients(p: RootPoly) -> np.ndarray:
    """Coefficients of P in ascending powers, length degree+1.

    Expansion is by iterated convolution with the factors (z - r), taking the
    roots in descending-magnitude order; this keeps intermediate coefficient
    growth bounded and makes the output deterministic.
    """
    roots = p.root_array()
    coeffs = np.array([p.leading], dtype=complex)
    order = np.argsort(-np.abs(roots), kind="stable")
    for r in roots[order]:
        nxt = np.zeros(coeffs.size + 1, dtype=complex)
        nxt[1:] = coeffs          # z * old
        nxt[:-1] -= r * coeffs    # -r * old
        coeffs = nxt
    return coeffs


def derivative_coefficients(p: RootPoly) -> np.ndarray:
    """Ascending coefficients of P', length degree.

    Raises ZeroDegree for constant polynomials.
    """
    if p.degree == 0:
        raise ZeroDegree("derivative of a degree-0 polynomial")
    c = expand_coefficients(p)
    k = np.arange(1, c.size)
    return c[1:] * k


def _scaled_log(m: float, s: float) -> float:
    """log(m * s) as log m + log s: -inf for a zero product, inf for an infinite scale."""
    if m == 0.0:
        return float("-inf")
    if not math.isfinite(m):
        return float("inf")
    if s == 0.0:
        return float("-inf")
    return math.log(m) + math.log(s)


def _log_abs_sums(w: WeightedLogDeriv, zs: np.ndarray, guard: float) -> np.ndarray:
    """log|sum(a_k / (z - z_k))| at every point z of the 1-D array zs, in one pass.

    Each point's terms are scaled by their largest modulus m, and the value is
    log m + log|sum(terms / m)|, so no point can overflow. A point closer than
    guard exclusion radii to a pole gets nan, and no other point does; a sum
    that cancels to zero gets -inf. The modulus and the logs are taken per
    point with hypot and math.log, so a point's value does not depend on the
    other points in the pass.
    """
    d = zs[:, None] - w.root_array()[None, :]
    near = np.min(np.abs(d), axis=1) < guard * exclusion_radius(zs)
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = w.weight_array() / d[~near]
        m = np.max(np.abs(terms), axis=1)
        s = np.sum(terms / m[:, None], axis=1)
    out = np.full(zs.size, np.nan)
    out[~near] = [_scaled_log(mk, sk)
                  for mk, sk in zip(m.tolist(), np.hypot(s.real, s.imag).tolist())]
    return out


def log_abs_log_deriv(w: WeightedLogDeriv, z: complex) -> float:
    """log|sum(a_k / (z - z_k))|, rescaled term-wise so it cannot overflow.

    Returns -inf when the sum underflows to zero (exact cancellation); callers
    treat that as the NegInfinity flag rather than an error. Raises NearPole
    within exclusion_radius(z) of a pole.
    """
    if w.root_array().size == 0:
        return float("-inf")
    val = float(_log_abs_sums(w, np.array([z], dtype=complex), 1.0)[0])
    if math.isnan(val):
        raise NearPole(f"evaluation point within {exclusion_radius(z):.3e} of a pole")
    return val
