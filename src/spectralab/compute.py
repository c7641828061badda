"""The process's compute threads: the caller plus at most one pool thread.

There are min(2, cores this process may run on) compute threads, and there
is no option. The pool thread is created on first use and, like BLAS's own
threads, belongs to the process. ``rootsolve``'s row kernels borrow it for
half of the rows of a large sweep, and the experiment runner for trials
(``map_two``). A borrow is not reentrant: a nested or concurrent borrow gets
None and its work runs on the calling thread. So a trial on the pool thread
that reaches a row kernel sums its rows itself instead of waiting on its own
busy pool.

While ``map_two`` runs, numpy's and scipy's bundled OpenBLAS copies are held
at one thread each, then set back: OpenBLAS's own workers spin after a call
and take the second core, so without the hold two trial threads are no
faster than one. The libraries are looked up on first use; if one or a
symbol is missing, the trials run serially. A child forked from the process
(by any caller) gets one compute thread and one BLAS thread per copy: it has
none of the parent's threads, so a row kernel there must not wait on them.
"""

from __future__ import annotations

import ctypes
import functools
import glob
import importlib
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager

__all__ = ["borrow", "map_two"]

# (package, library in <package>.libs, get symbol, set symbol) of each
# bundled OpenBLAS copy: numpy's 64-bit-integer build, then scipy's
_OPENBLAS = (
    ("numpy", "libscipy_openblas64_*.so",
     "scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("scipy", "libscipy_openblas-*.so",
     "scipy_openblas_get_num_threads", "scipy_openblas_set_num_threads"),
)


class _ComputeThreads:
    """The thread count, the lazily created pool thread, and the borrow lock."""

    def __init__(self):
        self.count = None  # resolved on first use
        self.executor = None
        self.lock = threading.Lock()

    @contextmanager
    def borrow(self):
        """The pool thread's executor, or None when there is one compute thread or it is lent."""
        if self.count is None:
            try:
                cores = len(os.sched_getaffinity(0))
            except AttributeError:  # a platform without CPU affinity
                cores = os.cpu_count() or 1
            self.count = min(2, cores)
        if self.count < 2 or not self.lock.acquire(blocking=False):
            yield None
            return
        try:
            if self.executor is None:
                self.executor = ThreadPoolExecutor(max_workers=1,
                                                   thread_name_prefix="spectralab-compute")
            yield self.executor
        finally:
            self.lock.release()


_THREADS = _ComputeThreads()
borrow = _THREADS.borrow


@functools.cache
def _openblas():
    """(get, set) thread-count functions of each bundled OpenBLAS copy; None if one is missing."""
    pairs = []
    for package, pattern, get_name, set_name in _OPENBLAS:
        site = os.path.dirname(os.path.dirname(importlib.import_module(package).__file__))
        paths = glob.glob(os.path.join(site, f"{package}.libs", pattern))
        if len(paths) != 1:
            return None
        try:
            lib = ctypes.CDLL(paths[0])
            get, set_ = getattr(lib, get_name), getattr(lib, set_name)
        except (OSError, AttributeError):
            return None
        get.argtypes, get.restype = [], ctypes.c_int
        set_.argtypes, set_.restype = [ctypes.c_int], None
        pairs.append((get, set_))
    return tuple(pairs)


def map_two(fn, n: int) -> list:
    """[fn(0), ..., fn(n - 1)] on the two compute threads, with BLAS held at one thread.

    For work that spends its time in LAPACK, which releases the GIL. Both
    threads take the next index from one counter and store each result at
    its index, so the list does not depend on which thread ran what. Runs
    serially for fewer than two indices, on one compute thread, when the
    pool thread is lent, or when a bundled OpenBLAS copy cannot be held.
    """
    libs = _openblas() if n > 1 else None
    if libs is not None:
        with borrow() as pool:
            if pool is not None:
                before = [get() for get, _ in libs]
                for _, set_ in libs:
                    set_(1)
                try:
                    return _on_two_threads(fn, n, pool)
                finally:
                    for (_, set_), count in zip(libs, before):
                        set_(count)
    return [fn(i) for i in range(n)]


def _on_two_threads(fn, n: int, pool) -> list:
    """``map_two``'s threaded loop; raises the exception a serial loop would raise.

    After a raise no thread takes a new index, each finishes the one it
    holds, and the exception of the lowest failing index is raised. Every
    lower index was taken before it and has completed.
    """
    results = [None] * n
    failed = {}
    indices = iter(range(n))
    take = threading.Lock()
    stop = threading.Event()

    def work():
        while not stop.is_set():
            with take:
                i = next(indices, n)
            if i == n:
                return
            try:
                results[i] = fn(i)
            except Exception as exc:  # raised below, lowest index first
                failed[i] = exc
                stop.set()

    other = pool.submit(work)
    try:
        work()
    finally:
        stop.set()  # an interrupt on the caller stops the pool thread too
        other.result()
    if failed:
        raise failed[min(failed)]
    return results


def _after_fork_in_child():
    # the child has none of the parent's threads: one compute thread, and
    # one BLAS thread per copy, so the child uses one core
    _THREADS.count, _THREADS.executor, _THREADS.lock = 1, None, threading.Lock()
    for _, set_ in _openblas() or ():
        set_(1)


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_after_fork_in_child)
