"""Distances between empirical measures and logarithmic-potential diagnostics.

Weak convergence statements are made computable here: exact Wasserstein-1 on
the line via quantile coupling, a sliced (random-projection) variant for
planar point clouds, the Levy metric, circular discrepancy with the
coefficient-side bound it is compared against, convex-hull membership,
cluster deficiency counts, and the potential-theoretic quantities (normalized
log of the log-derivative, its square integral on disks, Poisson-Jensen
consistency, concentration functions).
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import Sequence

import numpy as np

from .errors import (
    EmptyMeasure,
    HypothesisViolated,
    SingularOnContour,
    VanishingEndCoefficient,
    ZeroPoint,
)
from .polycore import WeightedLogDeriv, _log_abs_sums, canonical_order

__all__ = [
    "ClusterSpec",
    "EmpiricalMeasure",
    "PotentialDiagnostics",
    "angular_discrepancy",
    "cluster_deficiency",
    "concentration_estimate",
    "convex_hull_contains",
    "erdos_turan_rhs",
    "ks_two_sample",
    "levy_distance",
    "poisson_jensen_residual",
    "potential_diagnostics",
    "sliced_wasserstein2d",
    "walsh_constant",
    "wasserstein1_1d",
]

_HULL_EDGE_BLOCK = 64
_DIRECTION_BLOCK = 8
_QUAD_BLOCK = 256


@dataclass(frozen=True)
class EmpiricalMeasure:
    """Uniform probability measure on a finite multiset of complex points."""

    support: np.ndarray

    def __init__(self, points):
        arr = canonical_order(points)
        if arr.size == 0:
            raise EmptyMeasure("empirical measure needs at least one point")
        object.__setattr__(self, "support", arr)

    @property
    def n(self) -> int:
        return int(self.support.size)

    def real_support(self) -> np.ndarray:
        if np.max(np.abs(self.support.imag)) > 1e-12 * (1.0 + np.max(np.abs(self.support))):
            raise ValueError("measure support is not real")
        return np.sort(self.support.real)


def _as_measure(m) -> EmpiricalMeasure:
    return m if isinstance(m, EmpiricalMeasure) else EmpiricalMeasure(m)


def _quantile_grid(n: int, m: int):
    """(widths, ia, ib): the merged quantile grid of an n-point and an m-point measure.

    Its breakpoints are those of both inverse CDFs, handled exactly in
    integer arithmetic on the common denominator n*m; on cell c the inverse
    CDFs read point ia[c] and point ib[c], and the cell is widths[c] / (n*m)
    wide. None when n == m, where the points pair off in order.
    """
    if n == m:
        return None
    cuts = np.union1d(np.arange(1, n + 1, dtype=np.int64) * m,
                      np.arange(1, m + 1, dtype=np.int64) * n)
    prev = np.concatenate([[0], cuts[:-1]])
    return cuts - prev, np.minimum(prev // m, n - 1), np.minimum(prev // n, m - 1)


def _quantile_w1(xs: np.ndarray, ys: np.ndarray, grid) -> list:
    """Exact W1 between row k of xs and row k of ys, both sorted along axis 1.

    The integral of |F_a^{-1} - F_b^{-1}| is taken over ``grid``, the
    ``_quantile_grid`` of the row lengths, which the caller builds once for
    all rows.
    """
    if grid is None:
        return [float(np.mean(row)) for row in np.abs(xs - ys)]
    widths, ia, ib = grid
    n, m = xs.shape[1], ys.shape[1]
    weighted = widths * np.abs(xs[:, ia] - ys[:, ib])
    # one 1-D sum per row: a single axis=1 sum can round differently
    return [float(np.sum(row)) / (n * m) for row in weighted]


def wasserstein1_1d(a, b) -> float:
    """Exact W1 between two empirical measures on the real line.

    Equal sizes are not required: the integral of |F_a^{-1} - F_b^{-1}| is
    taken over the merged quantile grid, with breakpoints handled exactly in
    integer arithmetic (multiples of 1/(n*m)).
    """
    xs = _as_measure(a).real_support()
    ys = _as_measure(b).real_support()
    return _quantile_w1(xs[None, :], ys[None, :], _quantile_grid(xs.size, ys.size))[0]


def sliced_wasserstein2d(a, b, n_proj: int, seed: int) -> float:
    """Mean 1-D Wasserstein distance over seeded random projection directions.

    Directions are uniform angles in [0, pi); the value is the plain mean of
    the projected distances, with no direction-sampling correction: a rigid
    shift by t therefore averages to |t| * 2/pi. Directions go in blocks of
    _DIRECTION_BLOCK, one array pass each: each cloud is projected into a
    (directions, size) array, sorted along its rows, and every row pair is
    scored on the one quantile grid the call builds.
    """
    if n_proj < 1:
        raise ValueError("n_proj >= 1 required")
    am = _as_measure(a)
    bm = _as_measure(b)
    rng = np.random.Generator(np.random.Philox(key=[seed & (2**64 - 1), 0x51D]))
    thetas = rng.uniform(0.0, np.pi, n_proj)
    grid = _quantile_grid(am.n, bm.n)
    total = 0.0
    # directions go in blocks, so no direction x point temporary outgrows one block
    for lo in range(0, n_proj, _DIRECTION_BLOCK):
        block = thetas[lo:lo + _DIRECTION_BLOCK]
        cos = np.array([math.cos(t) for t in block])[:, None]
        sin = np.array([math.sin(t) for t in block])[:, None]
        pa = np.sort(am.support.real * cos + am.support.imag * sin, axis=1)
        pb = np.sort(bm.support.real * cos + bm.support.imag * sin, axis=1)
        # in direction order; the builtin sum() may compensate and round differently
        for dist in _quantile_w1(pa, pb, grid):
            total += dist
    return total / n_proj


def _ecdf(sorted_vals: np.ndarray, x) -> np.ndarray:
    return np.searchsorted(sorted_vals, x, side="right") / sorted_vals.size


def levy_distance(a, b) -> float:
    """Levy metric between two real empirical measures.

    inf over eps of: F_a(x-eps)-eps <= F_b(x) <= F_a(x+eps)+eps for all x.
    Feasibility only needs checking where a step function jumps, which gives
    a finite candidate grid; the inf is then located by bisection on eps.
    """
    xs = _as_measure(a).real_support()
    ys = _as_measure(b).real_support()

    def feasible(eps: float) -> bool:
        # F_b(x) <= F_a(x+eps)+eps is tightest right at jumps of F_b
        if np.any(_ecdf(ys, ys) > _ecdf(xs, ys + eps) + eps + 1e-15):
            return False
        if np.any(_ecdf(xs, xs) > _ecdf(ys, xs + eps) + eps + 1e-15):
            return False
        return True

    # feasible(1) always holds, since a CDF is at most 1
    lo, hi = 0.0, 1.0
    if feasible(lo):
        return 0.0
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if feasible(mid):
            hi = mid
        else:
            lo = mid
    return hi


def angular_discrepancy(points) -> float:
    """Sup over circular arcs of |empirical mass - normalized arc length|.

    This is Kuiper's statistic V = max_i(F_i - u_i) + max_i(u_i - F_{i-1})
    over the distinct sorted angles u_i (as fractions of a turn), F_i being
    the mass at angles <= u_i and F_0 = 0: the first term picks the best
    end of a closed arc maximizing mass minus length, the second its best
    start, and an open arc maximizing length minus mass reduces to the same
    pair. Tied angles are merged. A single-point cloud yields 1. O(m log m).
    """
    pts = np.asarray(points, dtype=complex).ravel()
    if pts.size == 0:
        raise EmptyMeasure("discrepancy of an empty cloud")
    if np.any(pts == 0):
        raise ZeroPoint("points must be nonzero to have an argument")
    vals, cnts = np.unique(np.mod(np.angle(pts), 2.0 * np.pi), return_counts=True)
    mass = np.cumsum(cnts) / pts.size
    u = vals / (2.0 * np.pi)
    return float(np.max(mass - u) + np.max(u - np.concatenate([[0.0], mass[:-1]])))


def erdos_turan_rhs(coeffs, C: float) -> float:
    """(C/N) * log(sum|a_k| / sqrt(|a_0 a_N|)) for ascending coefficients."""
    c = np.asarray(coeffs, dtype=complex).ravel()
    if c.size < 2:
        raise VanishingEndCoefficient("need degree >= 1")
    if c[0] == 0 or c[-1] == 0:
        raise VanishingEndCoefficient("a_0 and a_N must be nonzero")
    N = c.size - 1
    return (C / N) * math.log(float(np.sum(np.abs(c))) / math.sqrt(abs(c[0] * c[-1])))


def _hull_vertices(pts: np.ndarray) -> np.ndarray:
    """Monotone-chain convex hull, counter-clockwise, of distinct 2-D points."""
    order = np.lexsort((pts[:, 1], pts[:, 0]))
    p = pts[order]
    p = p[np.concatenate([[True], np.any(np.diff(p, axis=0) != 0, axis=1)])]
    if p.shape[0] <= 2:
        return p

    def half(points):
        chain = []
        for q in points:
            while len(chain) >= 2:
                u, v = chain[-2], chain[-1]
                if (v[0] - u[0]) * (q[1] - u[1]) - (v[1] - u[1]) * (q[0] - u[0]) <= 0:
                    chain.pop()
                else:
                    break
            chain.append(q)
        return chain

    lower = half(p)
    upper = half(p[::-1])
    return np.array(lower[:-1] + upper[:-1])


def convex_hull_contains(cloud, queries, tol: float):
    """For each query point: inside the hull of cloud, or within tol of it.

    Degenerate clouds collapse to a segment or a point and are tested by
    Euclidean distance.
    """
    cpts = np.asarray(cloud, dtype=complex).ravel()
    if cpts.size == 0:
        raise EmptyMeasure("hull of an empty cloud")
    qpts = np.asarray(queries, dtype=complex).ravel()
    pts = np.column_stack([cpts.real, cpts.imag])
    hull = _hull_vertices(pts)
    out = np.zeros(qpts.size, dtype=bool)
    if hull.shape[0] == 1:
        out[:] = np.abs(qpts - complex(hull[0, 0], hull[0, 1])) <= tol
        return out
    if hull.shape[0] == 2:
        a = complex(hull[0, 0], hull[0, 1])
        b = complex(hull[1, 0], hull[1, 1])
        ab = b - a
        t = np.clip(((qpts - a) * np.conj(ab)).real / abs(ab) ** 2, 0.0, 1.0)
        out[:] = np.abs(qpts - (a + t * ab)) <= tol
        return out
    # signed distance to every edge of the CCW polygon; inside means all >= -tol.
    # Edges go in blocks, so no edges x queries temporary outgrows one block.
    edge = np.roll(hull, -1, axis=0) - hull
    limit = np.array([-tol * math.hypot(ex, ey) for ex, ey in edge])
    out[:] = True
    for lo in range(0, hull.shape[0], _HULL_EDGE_BLOCK):
        blk = slice(lo, lo + _HULL_EDGE_BLOCK)
        cross = (edge[blk, 0, None] * (qpts.imag - hull[blk, 1, None])
                 - edge[blk, 1, None] * (qpts.real - hull[blk, 0, None]))
        out &= ~np.any(cross < limit[blk, None], axis=0)
    return out


def walsh_constant(k: int, eps: float, d_s: float) -> float:
    """Bound on how many critical points can escape a cluster neighbourhood.

    ((1+2*eps)/(2*eps^2)) * k / (eps/(1+eps)^2 - (k-1)/(d_s-eps)), valid only
    while the denominator is positive (well-separated clusters).
    """
    if k < 1:
        raise HypothesisViolated("k >= 1 required")
    if eps <= 0:
        raise HypothesisViolated("eps > 0 required")
    if k > 1 and d_s <= eps:
        raise HypothesisViolated("separation must exceed eps")
    denom = eps / (1.0 + eps) ** 2 - ((k - 1) / (d_s - eps) if k > 1 else 0.0)
    if denom <= 0:
        raise HypothesisViolated("separation/eps hypothesis violated: denominator <= 0")
    return ((1.0 + 2.0 * eps) / (2.0 * eps * eps)) * k / denom


@dataclass(frozen=True)
class ClusterSpec:
    """Pairwise-separated cluster regions: centers, common radius, separation."""

    centers: tuple
    radius: float
    separation: float

    def __init__(self, centers: Sequence[complex], radius: float, separation: float):
        centers = tuple(complex(c) for c in centers)
        if radius <= 0:
            raise ValueError("radius > 0 required")
        for i in range(len(centers)):
            for j in range(i + 1, len(centers)):
                if abs(centers[i] - centers[j]) < separation:
                    raise ValueError("cluster centers closer than the declared separation")
        object.__setattr__(self, "centers", centers)
        object.__setattr__(self, "radius", float(radius))
        object.__setattr__(self, "separation", float(separation))


def cluster_deficiency(spec: ClusterSpec, critical, eps: float, n_per_cluster: int):
    """Per cluster: n_per_cluster minus the critical points within radius+eps.

    Closed balls around each center; a negative entry means the neighbourhood
    holds more critical points than the cluster has roots.
    """
    if eps <= 0:
        raise ValueError("eps > 0 required")
    crit = np.asarray(critical, dtype=complex).ravel()
    out = []
    for c in spec.centers:
        count = int(np.sum(np.abs(crit - c) <= spec.radius + eps))
        out.append(n_per_cluster - count)
    return out


def concentration_estimate(samples, delta: float) -> float:
    """Empirical concentration: largest fraction of samples in a radius-delta ball.

    On the line every optimal closed ball may start at a sample, so a sliding
    window over the sorted values is exact.
    """
    if delta <= 0:
        raise ValueError("delta > 0 required")
    x = np.sort(np.asarray(samples, dtype=float).ravel())
    if x.size == 0:
        raise EmptyMeasure("no samples")
    hi = np.searchsorted(x, x + 2.0 * delta, side="right")
    counts = hi - np.arange(x.size)
    return float(counts.max() / x.size)


@dataclass(frozen=True)
class PotentialDiagnostics:
    a1_rate: float
    a2_rate: float
    a3_integral: float
    evaluated_points: int
    skipped_points: int
    skipped_cells: int
    total_cells: int

    def to_json_dict(self) -> dict:
        return asdict(self)


def potential_diagnostics(w: WeightedLogDeriv, z_list, eps: float, r: float,
                          grid_size: int) -> PotentialDiagnostics:
    """Growth/decay rates of (1/n) log|L_n| and the disk integral of its square.

    a1_rate / a2_rate: fraction of usable probe points where the normalized
    log exceeds eps / falls below -eps (strict comparisons). A probe closer
    than one pole-exclusion radius to a pole, or where the sum cancels to
    zero, is skipped and counted. a3_integral: midpoint polar-grid value of
    the integral of (1/n^2) log^2|L_n| over the radius-r disk; cells closer
    than 1000 pole-exclusion radii to a pole, or where the sum cancels to
    zero, are skipped and counted. The probes go in one array pass and the
    grid in one pass per ring (grid_size cells by n poles); cells are summed
    ring by ring in angle order.
    """
    if grid_size < 64:
        raise ValueError("grid_size >= 64 required")
    if not (math.isfinite(r) and r > 0):
        raise ValueError(f"finite radius r > 0 required, got {r!r}")
    if not eps >= 0:
        raise ValueError(f"eps >= 0 required, got {eps!r}")
    n = len(w.roots)
    if n == 0:
        raise EmptyMeasure("no poles in the log-derivative")

    vals = _log_abs_sums(w, np.asarray(z_list, dtype=complex).ravel(), 1.0)
    scaled = vals[np.isfinite(vals)] / n
    used = scaled.size
    above = int(np.count_nonzero(scaled > eps))
    below = int(np.count_nonzero(scaled < -eps))

    dr = r / grid_size
    dth = 2.0 * np.pi / grid_size
    radii = (np.arange(grid_size) + 0.5) * dr
    angles = (np.arange(grid_size) + 0.5) * dth
    unit_ring = np.exp(1j * angles)
    integral = 0.0
    skipped_cells = 0
    for rho in radii:
        cell_weight = rho * dr * dth
        for val in _log_abs_sums(w, rho * unit_ring, 1e3).tolist():
            if not math.isfinite(val):
                skipped_cells += 1
                continue
            integral += (val * val) / (n * n) * cell_weight
    return PotentialDiagnostics(
        a1_rate=above / used if used else 0.0,
        a2_rate=below / used if used else 0.0,
        a3_integral=integral,
        evaluated_points=used,
        skipped_points=vals.size - used,
        skipped_cells=skipped_cells,
        total_cells=grid_size * grid_size,
    )


def poisson_jensen_residual(zeros, poles, z: complex, R: float, quad_nodes: int) -> float:
    """Consistency defect of the boundary-integral representation of log|f|.

    f is the rational function with the given zeros and poles (unit leading
    constant). The boundary integral over |w| = R uses the trapezoid rule,
    which is spectrally accurate for this periodic integrand; zeros/poles
    inside the disk enter through their Blaschke corrections. log|f| is
    evaluated over blocks of _QUAD_BLOCK nodes.
    """
    zs = np.asarray(zeros, dtype=complex).ravel()
    ps = np.asarray(poles, dtype=complex).ravel()
    z = complex(z)
    if abs(z) >= R:
        raise ValueError("evaluation point must satisfy |z| < R")
    for w in np.concatenate([zs, ps]):
        if abs(abs(w) - R) < 1e-9:
            raise SingularOnContour(f"zero/pole at |w| = {abs(w):.12g} sits on the contour")

    def log_abs_f(points: np.ndarray) -> np.ndarray:
        # nodes go in blocks, so no node x zero temporary outgrows one block;
        # each node's row is summed on its own, zeros first, then poles
        t = np.zeros(points.shape, dtype=float)
        with np.errstate(divide="ignore"):
            for lo in range(0, points.size, _QUAD_BLOCK):
                blk = points[lo:lo + _QUAD_BLOCK, None]
                t[lo:lo + _QUAD_BLOCK] += np.sum(np.log(np.abs(blk - zs)), axis=1)
                t[lo:lo + _QUAD_BLOCK] -= np.sum(np.log(np.abs(blk - ps)), axis=1)
        return t

    theta = 2.0 * np.pi * np.arange(quad_nodes) / quad_nodes
    boundary_pts = R * np.exp(1j * theta)
    kernel = ((boundary_pts + z) / (boundary_pts - z)).real
    integral = float(np.mean(kernel * log_abs_f(boundary_pts)))

    correction = 0.0
    for alpha in zs[np.abs(zs) < R]:
        correction -= math.log(abs((R * R - np.conj(alpha) * z) / (R * (z - alpha))))
    for beta in ps[np.abs(ps) < R]:
        correction += math.log(abs((R * R - np.conj(beta) * z) / (R * (z - beta))))

    lhs = float(log_abs_f(np.array([z]))[0])
    return abs(lhs - (integral + correction))


def ks_two_sample(x, y) -> float:
    """Two-sample Kolmogorov-Smirnov statistic, sup |F_x - F_y|."""
    xs = np.sort(np.asarray(x, dtype=float).ravel())
    ys = np.sort(np.asarray(y, dtype=float).ravel())
    if xs.size == 0 or ys.size == 0:
        raise EmptyMeasure("empty sample")
    grid = np.concatenate([xs, ys])
    return float(np.max(np.abs(_ecdf(xs, grid) - _ecdf(ys, grid))))
