import math
import tracemalloc

import numpy as np
import pytest

from spectralab.measures import PotentialDiagnostics, _hull_vertices


def assert_multiset_close(a, b, tol=1e-8):
    """Greedy nearest-neighbour matching of two complex multisets."""
    a = np.asarray(a, dtype=complex).ravel().copy()
    b = np.asarray(b, dtype=complex).ravel().copy()
    assert a.size == b.size, f"sizes differ: {a.size} vs {b.size}"
    remaining = list(range(b.size))
    worst = 0.0
    for x in a:
        dists = [abs(x - b[j]) for j in remaining]
        k = int(np.argmin(dists))
        worst = max(worst, dists[k])
        remaining.pop(k)
    assert worst <= tol, f"multiset mismatch: worst pair distance {worst:.3e} > {tol:.1e}"


@pytest.fixture
def rng():
    return np.random.default_rng(20250808)


def poisson_cdf_mp(k: int, lam: float):
    """P(Poisson(lam) <= k) for a double rate lam >= 0, at mpmath's working precision.

    The regularized upper incomplete gamma Q(k + 1, lam); 0 for k < 0.
    """
    import mpmath

    if k < 0:
        return mpmath.mpf(0)
    if lam == 0:
        return mpmath.mpf(1)
    return mpmath.gammainc(k + 1, mpmath.mpf(lam), mpmath.inf, regularized=True)


def expected_count_mp(n: int, u_lo: float, u_hi: float):
    """The integral of Q(n, u) over u_lo <= u <= u_hi, at mpmath's working precision.

    It equals L(u_lo) - L(u_hi) with L(x) = E[(n - X)+] = n Q(n, x) - x Q(n - 1, x)
    for X ~ Poisson(x), since L'(x) = -Q(n, x).
    """
    def below_n(x):
        return n * poisson_cdf_mp(n - 1, x) - x * poisson_cdf_mp(n - 2, x)

    return below_n(u_lo) - below_n(u_hi)


def worst_relative_error(got, refs) -> float:
    """max |g - r| / |r| over doubles g and mpmath references r, at the working precision."""
    return float(max(abs(g - r) / abs(r) for g, r in zip(np.ravel(got).tolist(), refs)))


def renyi_exponential_order_stats(e) -> np.ndarray:
    """Order statistics of n exponentials built from n fresh exponentials.

    Y_(i) = E_n/n + E_{n-1}/(n-1) + ... down to i terms; the output is the
    cumulative sum of E reversed and divided by n, n-1, ..., 1.
    """
    arr = np.asarray(e, dtype=float).ravel()
    if arr.size == 0 or np.any(arr <= 0):
        raise ValueError("all inputs must be positive")
    n = arr.size
    return np.cumsum(arr[::-1] / np.arange(n, 0, -1))


def angular_discrepancy_pairs(points) -> float:
    """Circular discrepancy by enumerating every arc between two data angles, O(m^2).

    Closed arcs maximize mass minus length, open arcs length minus mass; a
    single-point cloud yields 1 by the open-arc convention.
    """
    pts = np.asarray(points, dtype=complex).ravel()
    vals, cnts = np.unique(np.mod(np.angle(pts), 2.0 * np.pi), return_counts=True)
    csum = np.cumsum(cnts)
    npts = pts.size
    m = vals.size
    two_pi = 2.0 * np.pi
    best = 0.0
    for s in range(m):
        below_s = csum[s - 1] if s else 0
        for e in range(m):
            if s <= e:
                closed_cnt = csum[e] - below_s
                arc = vals[e] - vals[s]
            else:
                closed_cnt = (npts - below_s) + csum[e]
                arc = two_pi - (vals[s] - vals[e])
            best = max(best, closed_cnt / npts - arc / two_pi)
            # open version of the same arc
            if s < e:
                open_cnt = csum[e - 1] - csum[s]
                best = max(best, (vals[e] - vals[s]) / two_pi - open_cnt / npts)
            else:
                open_cnt = (npts - csum[s]) + (csum[e - 1] if e else 0)
                arc_o = two_pi - (vals[s] - vals[e])
                best = max(best, arc_o / two_pi - open_cnt / npts)
    return best


def hull_contains_loop(cloud, queries, tol: float) -> np.ndarray:
    """Hull membership of each query, one query and one edge at a time.

    Only for clouds whose hull is a polygon (at least three vertices).
    """
    cpts = np.asarray(cloud, dtype=complex).ravel()
    hull = _hull_vertices(np.column_stack([cpts.real, cpts.imag]))
    assert hull.shape[0] >= 3
    out = []
    for q in np.asarray(queries, dtype=complex).ravel():
        ok = True
        for j in range(hull.shape[0]):
            ax, ay = hull[j]
            bx, by = hull[(j + 1) % hull.shape[0]]
            ex, ey = bx - ax, by - ay
            if ex * (q.imag - ay) - ey * (q.real - ax) < -tol * math.hypot(ex, ey):
                ok = False
                break
        out.append(ok)
    return np.array(out)


def log_abs_log_deriv_scalar(w, z: complex) -> float:
    """log|sum(a_k / (z - z_k))| at one point, terms scaled by their largest modulus.

    None when z is within 1e-12 * (1 + |z|) of a pole.
    """
    d = z - w.root_array()
    if np.min(np.abs(d)) < 1e-12 * (1.0 + abs(z)):
        return None
    terms = w.weight_array() / d
    m = float(np.max(np.abs(terms)))
    if m == 0.0 or not math.isfinite(m):
        return float("-inf") if m == 0.0 else float("inf")
    s = abs(np.sum(terms / m))
    if s == 0.0:
        return float("-inf")
    return math.log(m) + math.log(s)


def potential_diagnostics_loop(w, z_list, eps: float, r: float,
                               grid_size: int) -> PotentialDiagnostics:
    """potential_diagnostics one probe and one polar-grid cell at a time."""
    n = w.root_array().size
    above = below = used = skipped_pts = 0
    for z in z_list:
        val = log_abs_log_deriv_scalar(w, complex(z))
        if val is None or not math.isfinite(val):
            skipped_pts += 1
            continue
        used += 1
        scaled = val / n
        if scaled > eps:
            above += 1
        elif scaled < -eps:
            below += 1
    roots = w.root_array()
    dr = r / grid_size
    dth = 2.0 * np.pi / grid_size
    radii = (np.arange(grid_size) + 0.5) * dr
    angles = (np.arange(grid_size) + 0.5) * dth
    integral = 0.0
    skipped_cells = 0
    for rho in radii:
        zs = rho * np.exp(1j * angles)
        dist = np.min(np.abs(zs[:, None] - roots[None, :]), axis=1)
        cell_weight = rho * dr * dth
        for z, dmin in zip(zs, dist):
            if dmin < 1e3 * (1e-12 * (1.0 + abs(z))):
                skipped_cells += 1
                continue
            val = log_abs_log_deriv_scalar(w, complex(z))
            if not math.isfinite(val):
                skipped_cells += 1
                continue
            integral += (val * val) / (n * n) * cell_weight
    return PotentialDiagnostics(
        a1_rate=above / used if used else 0.0,
        a2_rate=below / used if used else 0.0,
        a3_integral=integral,
        evaluated_points=used,
        skipped_points=skipped_pts,
        skipped_cells=skipped_cells,
        total_cells=grid_size * grid_size,
    )


def wasserstein1_sorted(xs, ys) -> float:
    """W1 between two sorted real samples, on the merged quantile grid."""
    n, m = xs.size, ys.size
    if n == m:
        return float(np.mean(np.abs(xs - ys)))
    cuts = np.union1d(np.arange(1, n + 1, dtype=np.int64) * m,
                      np.arange(1, m + 1, dtype=np.int64) * n)
    prev = np.concatenate([[0], cuts[:-1]])
    ia = np.minimum(prev // m, n - 1)
    ib = np.minimum(prev // n, m - 1)
    return float(np.sum((cuts - prev) * np.abs(xs[ia] - ys[ib]))) / (n * m)


def sliced_wasserstein_loop(a, b, n_proj: int, seed: int) -> float:
    """sliced_wasserstein2d one projection direction at a time."""
    pa_pts = np.asarray(a, dtype=complex).ravel()
    pb_pts = np.asarray(b, dtype=complex).ravel()
    rng = np.random.Generator(np.random.Philox(key=[seed & (2**64 - 1), 0x51D]))
    total = 0.0
    for t in rng.uniform(0.0, np.pi, n_proj):
        pa = pa_pts.real * math.cos(t) + pa_pts.imag * math.sin(t)
        pb = pb_pts.real * math.cos(t) + pb_pts.imag * math.sin(t)
        total += wasserstein1_sorted(np.sort(pa), np.sort(pb))
    return total / n_proj


def traced_peak_mib(call) -> float:
    """Peak of the Python-heap allocations (numpy's included) during call(), in MiB.

    call() runs once untraced first, so lazy imports and caches are not counted.
    """
    call()
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()
