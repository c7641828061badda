"""l1 matching distances between zeros and critical points, and spacing laws.

On the real line the optimal l1 matching between equal-size sets is the
order-statistic pairing; a permutation brute force over small instances keeps
that fact honest. The zero/critical-point matching augments the critical set
with {0}. Extremal spacing statistics scale the gap between the outermost
zero and critical point by n*log(n).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import (
    AlphaNotLeft,
    ComplexRoots,
    DuplicateValues,
    SignDegenerate,
    SizeMismatch,
    TooLarge,
)
from .polycore import RootPoly
from .rootsolve import interlaced_extremes, real_interlaced_critical_points

__all__ = [
    "GapStatistic",
    "MatchResult",
    "MixedSignBound",
    "brute_force_l1",
    "extremal_gap_statistic",
    "extremal_gap_surrogate",
    "interlace_shift_check",
    "mixed_sign_bound",
    "sorted_l1",
    "zero_critical_distance",
]

_BRUTE_FORCE_MAX = 9
_perm_cache: dict = {}


@dataclass(frozen=True)
class MatchResult:
    """Minimal l1 matching cost and the bijection (index pairs) realizing it."""

    distance: float
    pairing: tuple

    def check(self, x, y) -> bool:
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        total = sum(abs(x[i] - y[j]) for i, j in self.pairing)
        return math.isclose(total, self.distance, rel_tol=1e-12, abs_tol=1e-12)


def _as_real_arrays(x, y):
    xs = np.asarray(x, dtype=float).ravel()
    ys = np.asarray(y, dtype=float).ravel()
    if xs.size != ys.size:
        raise SizeMismatch(f"sizes differ: {xs.size} vs {ys.size}")
    if xs.size == 0:
        raise SizeMismatch("empty sets")
    return xs, ys


def sorted_l1(x, y) -> MatchResult:
    """Optimal l1 matching of equal-size real sets: pair i-th smallest with i-th smallest."""
    xs, ys = _as_real_arrays(x, y)
    ix = np.argsort(xs, kind="stable")
    iy = np.argsort(ys, kind="stable")
    dist = float(np.sum(np.abs(xs[ix] - ys[iy])))
    return MatchResult(dist, tuple(zip(ix.tolist(), iy.tolist())))


def brute_force_l1(x, y) -> MatchResult:
    """Exact minimum over all permutations; the oracle for sorted_l1."""
    xs, ys = _as_real_arrays(x, y)
    n = xs.size
    if n > _BRUTE_FORCE_MAX:
        raise TooLarge(f"brute force capped at {_BRUTE_FORCE_MAX} points")
    if n not in _perm_cache:
        _perm_cache[n] = np.array(list(itertools.permutations(range(n))), dtype=np.intp)
    perms = _perm_cache[n]
    costs = np.abs(xs[:, None] - ys[None, :])
    totals = costs[np.arange(n)[None, :], perms].sum(axis=1)
    best = int(np.argmin(totals))
    pairing = tuple((i, int(perms[best, i])) for i in range(n))
    return MatchResult(float(totals[best]), pairing)


def _real_roots(p: RootPoly) -> np.ndarray:
    roots = p.root_array()
    if roots.size and np.max(np.abs(roots.imag)) != 0.0:
        raise ComplexRoots("operation requires real roots")
    return np.sort(roots.real)


def zero_critical_distance(p: RootPoly) -> float:
    """l1 matching distance between the zeros and the 0-augmented critical points.

    For all-non-negative roots, interlacing plus the coefficient identity for
    root sums collapses this to the mean of the roots.
    """
    x = _real_roots(p)
    eta = real_interlaced_critical_points(x)
    # sorted_l1's order-statistic pairing, without building its index pairs
    return float(np.sum(np.abs(x - np.sort(np.append(eta, 0.0)))))


class MixedSignBound(NamedTuple):
    distance: float
    bound: float


def mixed_sign_bound(p: RootPoly) -> MixedSignBound:
    """Matching distance for mixed-sign roots with its mean-of-magnitudes bound.

    The bound is mean|negative roots| + mean|non-negative roots|; inputs of a
    single sign are refused (the exact mean law applies there instead).
    """
    x = _real_roots(p)
    neg = x[x < 0]
    pos = x[x >= 0]
    if neg.size == 0 or pos.size == 0:
        raise SignDegenerate("need at least one negative and one non-negative root")
    dist = zero_critical_distance(p)
    bound = float(np.mean(np.abs(neg)) + np.mean(np.abs(pos)))
    return MixedSignBound(dist, bound)


def interlace_shift_check(roots, alpha: float) -> bool:
    """Do the critical points move right when a zero is appended on the left?

    Compares the critical points of prod(z-roots) with those of the degree+1
    polynomial that also vanishes at alpha < min(roots); the new leftmost
    critical point is skipped in the comparison.
    """
    x = np.sort(np.asarray(roots, dtype=float).ravel())
    if x.size < 2:
        raise SizeMismatch("need at least two roots")
    if alpha >= x[0]:
        raise AlphaNotLeft("alpha must lie strictly left of all roots")
    eta = real_interlaced_critical_points(x)
    eta_shift = real_interlaced_critical_points(np.concatenate([[alpha], x]))
    return bool(np.all(eta_shift[1:] >= eta - 1e-10))


class GapStatistic(NamedTuple):
    left: float
    right: float


def _distinct_sorted_sample(sample) -> np.ndarray:
    """The sample sorted ascending; raises unless it has n >= 3 distinct values."""
    xs = np.sort(np.asarray(sample, dtype=float).ravel())
    if xs.size < 3:
        raise SizeMismatch("need n >= 3")
    if np.any(np.diff(xs) == 0.0):
        raise DuplicateValues("sample values must be distinct")
    return xs


def extremal_gap_statistic(sample) -> GapStatistic:
    """Scaled extremal zero/critical gaps: n*log(n)*(eta_min - x_min) and
    n*log(n)*(x_max - eta_max).

    Both ends use the n*log(n) scale, but for Exp(1) samples only the left
    value converges at it: it tends to 1, with an O(1/log n) bias. At the
    right end the top order statistic sits near log n and most of the sample
    is O(1) from 0, so x_max - eta_max is about log(n)/n and the right value
    grows like log(n)**2. Dividing it by log(n)**2 gives the (n/log n) scale,
    (n/log n)*(x_max - eta_max), which tends to 1.
    """
    xs = _distinct_sorted_sample(sample)
    lo, hi = interlaced_extremes(xs)
    scale = xs.size * math.log(xs.size)
    return GapStatistic(scale * (lo - xs[0]), scale * (xs[-1] - hi))


def extremal_gap_surrogate(sample) -> GapStatistic:
    """Reciprocal-spacing-sum upper bounds for the same scaled gaps.

    (sum_{i>=2} 1/(x_(i)-x_(1)))^{-1} bounds eta_min - x_min from above, and
    symmetrically at the right end; exposed for cross-checks against the
    exact statistic. Both ends use the n*log(n) scale of
    `extremal_gap_statistic`, so for exponential samples the right value
    likewise grows like log(n)**2; divide it by log(n)**2 for the (n/log n)
    scale.
    """
    xs = _distinct_sorted_sample(sample)
    scale = xs.size * math.log(xs.size)
    left = scale / float(np.sum(1.0 / (xs[1:] - xs[0])))
    right = scale / float(np.sum(1.0 / (xs[-1] - xs[:-1])))
    return GapStatistic(left, right)

