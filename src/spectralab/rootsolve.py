"""Polynomial root finding for critical-point computations.

Critical points have one route, which needs only the roots of P: a
simultaneous Aberth iteration on P'/P. It never forms coefficients, so it
stays accurate at degrees where expanded coefficients would be useless in
double precision, and each result is certified by its undamped Newton step
P'/P'' rather than by a coefficient-side residual.

Polynomials given by coefficients have their own public entry points, with
one route between them: ``companion_roots`` (companion-matrix eigenvalues
through LAPACK) and ``solve_all`` (those eigenvalues after one Newton step on
the coefficients, certified by their backward errors). No critical-point
computation goes through them.

The sweeps' sums are row kernels over one driver, ``_over_rows``: it forms
each block of differences w - p, and the kernel reduces it. Each point's row
of terms is reduced by ``np.add.reduce``, BLAS-free. The repulsion sum, the
rounding bound of the inclusion test and the real gap solver use them at
every size, and the sums of P'/P and P''/P from degree _ROW_KERNEL_DEGREE
on. Below that degree those are BLAS matrix-vector products over the
distinct roots: row reductions of them stall at a double critical point,
where the simple-root certificate P'/P'' shrinks only linearly.

A sweep is Jacobi-style, every point's sums depending only on the previous
iterate, which is the independence MPSolve's parallel sweeps use (Bini &
Robol, JCAM 2014). So when a grid is large, its blocks of rows are the
indices of ``compute.run_two``, and the process's two compute threads each
take the next block until none is left; the caller takes them all when the
process may use only one core or the pool thread is already busy, as it is
while the experiment runner runs trials on it. A grid below degree
_ROW_KERNEL_DEGREE is never that large, so no BLAS call runs under these
threads: OpenBLAS's own workers spin after a call and take the second core.
``run_two`` holds OpenBLAS at one thread on every split all the same. On
the n = 1600 sums of P'/P and P''/P (medians of 21 runs, 2 vCPUs): gemv on
64-row blocks took 44 ms serial and 41 ms split over two threads;
``np.add.reduce`` rows took 31 ms serial and 18 ms on two threads; gemv on
two threads with OPENBLAS_NUM_THREADS=1 took 18 ms. Each row is reduced on
its own, so row-kernel results do not depend on the thread count or on the
block height. The repulsion sum is antisymmetric, so on a large grid it
forms the reciprocal of each pair of active points once, in square tiles
(``_row_repulsion``): its results depend on the tile size, but still not on
the thread count.

Real-rooted polynomials get a bracketed fast path: Rolle's theorem puts
exactly one critical point strictly between consecutive distinct roots, where
sum(1/(x - x_k)) falls strictly from +inf to -inf. That secular equation is
solved by the fixed-weight rational step of LAPACK's dlaed4 inside a bracket
kept from its sign, so it never leaves the gap and interlacing holds exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from .compute import run_two
from .errors import DegenerateInput, NoConvergence
from .polycore import RootPoly

__all__ = [
    "RootFindReport",
    "companion_roots",
    "critical_points",
    "interlaced_extremes",
    "real_interlaced_critical_points",
    "solve_all",
]

TOL_ROOT = 1e-12
NEWTON_TOL = 1e-11
MAX_ITER = 200
# rows of each block of a row-kernel grid that is split over two threads
_BLOCK_ROWS = 32
# degree from which critical_points sums P'/P and P''/P by row kernels: one
# thread of them ties gemv at degree 80 (2.10 vs 2.12 ms) and wins from there
_ROW_KERNEL_DEGREE = 80
# rows x columns from which a row kernel splits its rows over two threads
_THREAD_GRID = 1 << 17
# side of the square tiles of the active x active repulsion sum from _THREAD_GRID on
_TILE = 128


@dataclass(frozen=True)
class RootFindReport:
    """All roots of one polynomial plus the evidence they are roots."""

    roots: np.ndarray
    residuals: np.ndarray
    iterations: int


def _scale_exponent(top: float, parts: np.ndarray) -> int:
    """The e for which ldexp(top, -e) lies in [0.5, 1), or the nearest that keeps parts normal.

    ``parts`` are real values, not all zero, and every normal one
    stays normal in ldexp(parts, -e), so that scaling and its inverse are
    exact.
    """
    mags = np.abs(parts[parts != 0])
    return min(math.frexp(top)[1], max(math.frexp(mags.min())[1] + 1021, 0))


def _ldexp(z: np.ndarray, e: int) -> np.ndarray:
    """z times 2^e for a complex array, part by part."""
    return np.ldexp(np.ascontiguousarray(z).view(float), e).view(complex)


def _horner_pair(coeffs: np.ndarray, z: np.ndarray):
    """Evaluate P, P', and the magnitude sum H = sum|c_k||z|^k; coeffs ascending."""
    p = np.zeros_like(z)
    dp = np.zeros_like(z)
    az = np.abs(z)
    hmag = np.zeros(z.shape, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        for c in coeffs[::-1]:
            dp = dp * z + p
            p = p * z + c
            hmag = hmag * az + abs(c)
    return p, dp, hmag


def _backward_errors(pvals: np.ndarray, hmag: np.ndarray) -> np.ndarray:
    """Normwise relative backward error |P(z)| / sum|c_k||z|^k of each point.

    It is the smallest relative change of the coefficients that makes z an
    exact root, so it does not depend on where the other points sit. It is 0
    where P(z) is exactly 0 (so at z = 0 when c_0 = 0) and inf at any other nan.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        res = np.abs(pvals) / hmag
    return np.where(np.isnan(res), np.where(pvals == 0, 0.0, np.inf), res)


def companion_roots(coeffs) -> np.ndarray:
    """Eigenvalues of the companion matrix of the (monic-normalized) polynomial."""
    from .rmt import eigenvalues  # deferred: rmt builds on this module's siblings

    c = np.asarray(coeffs, dtype=complex).ravel()
    if c.size < 2:
        raise DegenerateInput("degree >= 1 required")
    if not np.all(np.isfinite(c)):
        raise DegenerateInput("coefficients must be finite")
    if c[-1] == 0:
        raise DegenerateInput("zero leading coefficient")
    n = c.size - 1
    comp = np.zeros((n, n), dtype=complex)
    comp[1:, :-1] = np.eye(n - 1)
    comp[:, -1] = -c[:-1] / c[-1]
    return eigenvalues(comp, ensemble="companion").eigenvalues


def solve_all(coeffs) -> RootFindReport:
    """All roots of a coefficient polynomial (ascending coefficients).

    Companion-matrix eigenvalues, which are backward stable on the companion
    matrix (Edelman & Murakami, Math. Comp. 1995), then one Newton step
    z - P/P' on the coefficients wherever that step is finite. The roots are
    accepted only when every normwise relative backward error
    |P(z)| / sum|c_k||z|^k (the ``residuals``) is at most TOL_ROOT; the
    polish step is what brings badly scaled coefficients under it.
    ``iterations`` counts the one polish step. Raises NoConvergence when a
    residual stays above TOL_ROOT, DegenerateInput for a zero leading
    coefficient, a coefficient that is not finite, or degree < 1.
    """
    z = companion_roots(coeffs)
    c = np.asarray(coeffs, dtype=complex).ravel()
    p, dp, _ = _horner_pair(c, z)
    with np.errstate(divide="ignore", invalid="ignore"):
        step = p / dp
    z = np.where(np.isfinite(step), z - step, z)
    p, _, hmag = _horner_pair(c, z)
    res = _backward_errors(p, hmag)
    if res.max() > TOL_ROOT:
        raise NoConvergence(
            f"polished companion residual {res.max():.3e} exceeds {TOL_ROOT:.1e}")
    return RootFindReport(z, res, 1)


def _differences(out: np.ndarray, at: np.ndarray, poles: np.ndarray) -> np.ndarray:
    """out = at[:, None] - poles by fill, then subtract: the broadcast's bits, but faster."""
    out[:] = at[:, None]
    return np.subtract(out, poles, out=out)


def _over_rows(block, at: np.ndarray, poles: np.ndarray, *dtypes) -> None:
    """Run block(lo, hi, diff, *bufs) over row blocks of at[:, None] - poles, two threads if large.

    ``diff`` is at[lo:hi, None] - poles in the dtype of ``at``, which the
    block reduces in place; ``bufs`` are work arrays of its shape, one per
    dtype. A grid of at.size x poles.size below _THREAD_GRID is one block. A
    larger one is cut into blocks of _BLOCK_ROWS rows, each a
    ``compute.run_two`` index, so both threads take the next block until none
    is left, each block in its thread's slot of the work arrays.
    """
    nrows, ncols = at.size, poles.size
    if nrows * ncols < _THREAD_GRID:
        diff = _differences(np.empty((nrows, ncols), at.dtype), at, poles)
        block(0, nrows, diff, *(np.empty(diff.shape, dt) for dt in dtypes))
        return
    slots = [np.empty((2, _BLOCK_ROWS, ncols), dt) for dt in (at.dtype, *dtypes)]

    def run(i, slot):
        lo = i * _BLOCK_ROWS
        hi = min(lo + _BLOCK_ROWS, nrows)
        diff, *bufs = (buf[slot, :hi - lo] for buf in slots)
        block(lo, hi, _differences(diff, at[lo:hi], poles), *bufs)

    run_two(run, -(-nrows // _BLOCK_ROWS))


def _log_deriv_sums(w: np.ndarray, poles: np.ndarray, weights: np.ndarray | None = None):
    """s1 = sum c/(w - p) and s2 = sum c/(w - p)^2 over ``poles`` at each w.

    Without ``weights``, c = 1 and ``poles`` repeats each root of P by its
    multiplicity: each row is reduced by ``np.add.reduce``. With them,
    ``poles`` are the distinct roots and c = ``weights`` their
    multiplicities: the sums are BLAS matrix-vector products. Either way
    s1 = P'/P. The work array has the dtype of ``w``, real for the real gap
    solver.
    """
    s1 = np.empty_like(w)
    s2 = np.empty_like(w)

    def block(lo, hi, inv):
        np.reciprocal(inv, out=inv)
        if weights is None:
            np.add.reduce(inv, axis=1, out=s1[lo:hi])
            np.square(inv, out=inv)
            np.add.reduce(inv, axis=1, out=s2[lo:hi])
        else:
            s1[lo:hi] = inv @ weights
            np.square(inv, out=inv)
            s2[lo:hi] = inv @ weights

    _over_rows(block, w, poles)
    return s1, s2


def _row_abs_sums(w: np.ndarray, poles: np.ndarray) -> np.ndarray:
    """sum 1/|w - p| over ``poles`` at each w, by row reductions."""
    out = np.empty(w.size)

    def block(lo, hi, diff, inv):
        np.abs(diff, out=inv)
        np.reciprocal(inv, out=inv)
        np.add.reduce(inv, axis=1, out=out[lo:hi])

    _over_rows(block, w, poles, float)
    return out


def _row_inverse_sums(w: np.ndarray, poles: np.ndarray, own: bool) -> np.ndarray:
    """sum 1/(w_i - p) over ``poles`` at each w_i, by row reductions.

    With ``own``, ``poles`` starts with w and each row skips its own pole.
    """
    out = np.empty_like(w)

    def block(lo, hi, inv):
        if own:
            rows = np.arange(hi - lo)
            inv[rows, lo + rows] = np.inf
        np.reciprocal(inv, out=inv)
        np.add.reduce(inv, axis=1, out=out[lo:hi])

    _over_rows(block, w, poles)
    return out


def _row_repulsion(w: np.ndarray, frozen: np.ndarray) -> np.ndarray:
    """Aberth term sum_{j != i} 1/(w_i - w_j) + sum_k 1/(w_i - frozen_k) at each w_i.

    Below _THREAD_GRID, w.size x (w.size + frozen.size), it is one row
    kernel. From there the w x w part, which is antisymmetric, is cut into
    square tiles (a, b), a <= b, of _TILE points a side, and each tile forms
    its reciprocals once: its row sums go to the rows of tile a and its
    negated column sums, the same terms to the bit, to the rows of tile b.
    The tiles are ``compute.run_two`` indices formed in their thread's slot,
    their sums stored by tile and added in tile order, so the result depends
    on _TILE but not on the thread count. The frozen columns stay a row kernel.
    """
    m = w.size
    if m * (m + frozen.size) < _THREAD_GRID:
        return _row_inverse_sums(w, np.concatenate([w, frozen]), own=True)
    nt = -(-m // _TILE)
    pairs = [(a, b) for a in range(nt) for b in range(a, nt)]
    # parts[a, b]: the sums over the points of tile b for the rows of tile a
    parts = np.zeros((nt, nt, _TILE), complex)
    slots = np.empty((2, _TILE * _TILE), complex)

    def tile(k, slot):
        a, b = pairs[k]
        wa, wb = w[a * _TILE:(a + 1) * _TILE], w[b * _TILE:(b + 1) * _TILE]
        inv = _differences(slots[slot, :wa.size * wb.size].reshape(wa.size, wb.size), wa, wb)
        if a == b:
            np.fill_diagonal(inv, np.inf)
        np.reciprocal(inv, out=inv)
        np.add.reduce(inv, axis=1, out=parts[a, b, :wa.size])
        if a != b:
            np.add.reduce(inv, axis=0, out=parts[b, a, :wb.size])
            np.negative(parts[b, a, :wb.size], out=parts[b, a, :wb.size])

    run_two(tile, len(pairs))
    del slots  # freed before the sums below allocate: kept, it cost 1 MB of peak RSS
    out = np.add.reduce(parts, axis=1).reshape(-1)[:m]
    if frozen.size:
        out += _row_inverse_sums(w, frozen, own=False)
    return out


def _newton_steps(w: np.ndarray, sums):
    """Newton step P'/P'' at each w, with s1 = P'/P and den = s1^2 - s2 = P''/P.

    ``sums`` is the call's log-derivative kernel. A step that is not finite
    (w on a pole, or P'' = 0) is replaced by 1e-3 (1 + |w|). Like the row
    kernels, it leaves numpy's error state to its caller.
    """
    s1, s2 = sums(w)
    den = s1 * s1 - s2
    newton = s1 / den
    return np.where(np.isfinite(newton), newton, 1e-3 * (1.0 + np.abs(w))), s1, den


def _row_nearest(w: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """min |w[r] - w[j]| over j != r, for each r in ``rows``."""
    out = np.empty(rows.size)

    def block(lo, hi, diff, dist):
        np.abs(diff, out=dist)
        dist[np.arange(hi - lo), rows[lo:hi]] = np.inf
        np.minimum.reduce(dist, axis=1, out=out[lo:hi])

    _over_rows(block, w[rows], w, float)
    return out


def _isolated(w: np.ndarray, cand: np.ndarray, s1: np.ndarray, den: np.ndarray,
              roots: np.ndarray) -> np.ndarray:
    """Whether the inclusion disk of each candidate w[cand] is clear of its neighbours.

    A disk of radius m |P'/P''| about w holds a root of P', m = deg P'. Here
    |P'/P| = |s1| is raised by its rounding bound 4 eps sum 1/|w - r| over
    ``roots``, the roots of P repeated by multiplicity, and den = s1^2 - s2 =
    P''/P. The disk is clear when its radius is below half the distance from
    w to the nearest other point of ``w``, frozen or not. At a multiple
    critical point s1 rounds to 0, and the rounding bound keeps the disk
    wide. The bound and the distances are row kernels, each row reduced on
    its own, so a large pass runs on two threads with unchanged bits.
    """
    eps = np.finfo(float).eps
    radius = w.size * (np.abs(s1) + 4.0 * eps * _row_abs_sums(w[cand], roots)) / np.abs(den)
    return radius < 0.5 * _row_nearest(w, cand)


def critical_points(p: RootPoly, *, max_iter: int = MAX_ITER) -> RootFindReport:
    """All degree-1 fewer roots of P', i.e. the critical points of P.

    Aberth iteration on P'/P, using only the roots of P: no coefficients are
    formed, so the accuracy does not depend on their size. A root of
    multiplicity m contributes m-1 critical points at itself: copies of it
    that are frozen from the start.

    The iteration is deflated, as in MPSolve (Bini & Robol, JCAM 2014): each
    sweep evaluates P'/P and the repulsion sum only at the active points. A
    point whose undamped Newton step |P'/P''| / (1 + |w|) is at most
    NEWTON_TOL still takes that sweep's correction, and then freezes if its
    inclusion disk is clear of every other point (``_isolated``); frozen
    points stay in the repulsion sum as poles. Points at a multiple
    critical point are never isolated, so they iterate together until all
    active points have converged. When none is left active, a certification
    sweep evaluates the Newton step of every point but the copies at its
    final position; any point above NEWTON_TOL goes back to the active set.
    ``residuals`` holds the certified steps (0 for the copies, which come
    first). Raises NoConvergence after ``max_iter`` sweeps without a passing
    certification sweep, which is the iteration's only stop, DegenerateInput
    when a root is not finite or the degree is below 2.

    The sweeps run on the roots times 2^-e, where e puts max|root| in
    [1, 2) (or is the nearest that keeps every normal part normal), and the
    points are scaled back. Both scalings are exact, so the results scale
    with the roots to the bit, the sums do not overflow on roots far from
    unit scale, and the step test and ``residuals`` read
    |P'/P''| / (2^e + |w|) at the returned w.
    """
    if p.degree < 2:
        raise DegenerateInput("degree >= 2 required")
    roots = p.root_array()
    if not np.all(np.isfinite(roots)):
        raise DegenerateInput("roots must be finite")
    n = roots.size
    values, counts = np.unique(roots, return_counts=True)
    if values.size == 1:
        return RootFindReport(np.repeat(values, counts - 1), np.zeros(n - 1), 0)
    # halved, so that no |value| overflows
    e = _scale_exponent(np.abs(values * 0.5).max(), values.view(float))
    roots, values = _ldexp(roots, -e), _ldexp(values, -e)

    centroid = roots.mean()
    drop = int(np.argmin(np.abs(values - centroid)))
    w = np.delete(values, drop)
    m = w.size
    # the m approximations, then the copies of the multiple roots, frozen throughout
    w = np.concatenate([w + (centroid - w) * (0.5 / n), np.repeat(values, counts - 1)])

    poles = np.repeat(values, counts)
    if n >= _ROW_KERNEL_DEGREE:
        sums = partial(_log_deriv_sums, poles=poles)
    else:
        sums = partial(_log_deriv_sums, poles=values, weights=counts.astype(float))
    active = np.arange(m)
    it, worst = 0, math.inf
    # one error state for every kernel of the sweeps: a point on a pole, or
    # P'' = 0, gives a step that the isfinite tests below replace
    with np.errstate(divide="ignore", invalid="ignore"):
        for it in range(1, max_iter + 1):
            if not active.size:
                # certification: every approximation's undamped step at its final position
                newton, _, _ = _newton_steps(w[:m], sums)
                steps = np.abs(newton) / (1.0 + np.abs(w[:m]))
                worst = float(steps.max())
                if worst <= NEWTON_TOL:
                    return RootFindReport(_ldexp(np.concatenate([w[m:], w[:m]]), e),
                                          np.concatenate([np.zeros(w.size - m), steps]), it)
                active = np.flatnonzero(steps > NEWTON_TOL)
                continue
            wa = w[active]
            newton, s1, den = _newton_steps(wa, sums)
            steps = np.abs(newton) / (1.0 + np.abs(wa))
            worst = float(steps.max())
            # a converged point freezes after this sweep's correction if it is
            # isolated; once every active point has converged, all of them do
            freeze = steps <= NEWTON_TOL
            cand = np.flatnonzero(freeze)
            if 0 < cand.size < active.size:
                freeze[cand] = _isolated(w, active[cand], s1[cand], den[cand], poles)
            frozen = np.ones(w.size, dtype=bool)
            frozen[active] = False
            corr = newton / (1.0 - newton * _row_repulsion(wa, w[frozen]))
            corr = np.where(np.isfinite(corr), corr, newton)
            w[active] = wa - corr
            active = active[~freeze]
    raise NoConvergence(f"critical-point iteration stopped after {it} sweeps "
                        f"at Newton step {worst:.3e}")


def _gap_zeros(values: np.ndarray, counts: np.ndarray, gaps: np.ndarray) -> np.ndarray:
    """Zero of g(x) = sum(counts_j/(x - values_j)) inside each requested gap.

    ``gaps`` holds indices k, meaning the open interval (values[k], values[k+1]),
    where g falls strictly from +inf to -inf. Each sweep takes g and s2 = -g'
    from the row kernel and steps by R.-C. Li's fixed-weight rational model
    (LAPACK Working Note 89, 1994; dlaed4's middle root): the nearer pole of
    the gap keeps its weight, and the farther pole's weight and a constant
    are fitted to g and g' at x. A step that is not finite or points away
    from the zero becomes the Newton step g/s2. Each gap keeps a bracket
    updated from the sign of g at every evaluated point and bisects when the
    step leaves it, so every result lies strictly inside its gap. A gap stops
    once its step or bracket width is at most 4 eps max(|lo|, |hi|), or no
    double lies inside the bracket, and leaves the sweep. The rules are
    relative, and the roots are scaled by the power of two that puts max|root|
    in [0.5, 1), or the nearest that keeps normal roots normal and all finite,
    so results scale exactly with the roots and s2 does not overflow on tiny
    roots. Raises NoConvergence if any gap is still open after MAX_ITER sweeps.
    """
    scale = _scale_exponent(np.abs(values).max(), values)
    values = np.ldexp(values, -scale)
    poles = np.repeat(values, counts)
    # the gap's own poles and their weights; lo and hi are its bracket
    d_lo = lo = values[gaps]
    d_hi = hi = values[gaps + 1]
    c_lo, c_hi = counts[gaps].astype(float), counts[gaps + 1].astype(float)
    out, pos, x = np.empty(gaps.size), np.arange(gaps.size), 0.5 * (lo + hi)
    # the model overflows only where its step gives way to Newton's
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for _ in range(MAX_ITER):
            g, s2 = _log_deriv_sums(x, poles)
            right = g > 0
            lo, hi = np.where(right, x, lo), np.where(right, hi, x)
            w, dl, dh = -g, d_lo - x, d_hi - x
            span, prod = dl + dh, dl * dh
            low = span > 0
            near, far = np.where(low, dl, dh), np.where(low, dh, dl)
            c = w - far * s2 - (near - far) * np.where(low, c_lo, c_hi) / (near * near)
            a = span * w - prod * s2
            b = prod * w
            root = np.sqrt(np.abs(a * a - 4.0 * b * c))
            eta = np.where(a <= 0, (a - root) / (2.0 * c), 2.0 * b / (a + root))
            eta = np.where(np.isfinite(eta) & (g * eta > 0), eta, g / s2)
            xn = x + eta
            inside = (lo < xn) & (xn < hi)
            # the step test comes before the bracket test, since a last step may
            # round onto the bracket's end; nextafter ends a zero at 0
            tol = 4.0 * np.finfo(float).eps * np.maximum(np.abs(lo), np.abs(hi))
            done = (np.abs(eta) <= tol) | (hi - lo <= tol) | (np.nextafter(lo, hi) >= hi)
            if done.any():
                out[pos[done]] = np.where(inside, xn, x)[done]
                if done.all():
                    return np.ldexp(out, scale)
                x, xn, inside, lo, hi, d_lo, d_hi, c_lo, c_hi, pos = (
                    v[~done] for v in (x, xn, inside, lo, hi, d_lo, d_hi, c_lo, c_hi, pos))
            x = np.where(inside, xn, 0.5 * (lo + hi))
    raise NoConvergence(f"{pos.size} interlacing gaps still open after {MAX_ITER} sweeps")


def _distinct_sorted(sorted_real_roots):
    """Distinct values and multiplicities of finite real roots given in ascending order."""
    x = np.asarray(sorted_real_roots, dtype=float).ravel()
    if x.size < 2:
        raise DegenerateInput("degree >= 2 required")
    if not np.all(np.isfinite(x)):
        raise DegenerateInput("roots must be finite")
    if np.any(np.diff(x) < 0):
        raise DegenerateInput("roots must be sorted ascending")
    return np.unique(x, return_counts=True)


def real_interlaced_critical_points(sorted_real_roots) -> np.ndarray:
    """Critical points of prod(z - x_k) for sorted real roots, by a bracketed secular solve.

    Repeated roots (exact equality) are emitted directly with multiplicity
    one less; one bracketed solve (``_gap_zeros``) runs per gap between
    consecutive distinct roots. Output is sorted and has length n-1.
    """
    values, counts = _distinct_sorted(sorted_real_roots)
    fixed = np.repeat(values, counts - 1)
    if values.size == 1:
        return fixed
    interior = _gap_zeros(values, counts, np.arange(values.size - 1))
    return np.sort(np.concatenate([fixed, interior]))


def interlaced_extremes(sorted_real_roots) -> tuple:
    """(smallest, largest) critical point of a sorted-real-rooted polynomial.

    Only the two outermost gaps are solved, which keeps extremal-gap
    statistics cheap at large n.
    """
    values, counts = _distinct_sorted(sorted_real_roots)
    if values.size == 1:
        return float(values[0]), float(values[0])
    eta = _gap_zeros(values, counts, np.array([0, values.size - 2]))
    low = values[0] if counts[0] > 1 else eta[0]
    high = values[-1] if counts[-1] > 1 else eta[-1]
    return float(low), float(high)
