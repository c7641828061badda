import math

import numpy as np
import pytest

from spectralab.measures import _hull_vertices


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
