import numpy as np
import pytest


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


def uniform_order_stats_from_exponentials(e, n: int) -> np.ndarray:
    """Uniform order statistics as normalized partial sums of n+1 exponentials."""
    arr = np.asarray(e, dtype=float).ravel()
    if arr.size != n + 1:
        raise ValueError(f"need n+1 = {n + 1} exponentials, got {arr.size}")
    if np.any(arr <= 0):
        raise ValueError("all inputs must be positive")
    s = np.cumsum(arr)
    return s[:n] / s[n]
