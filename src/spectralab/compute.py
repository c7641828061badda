"""The process's compute threads: the caller plus at most one pool thread.

There are min(2, cores this process may run on) compute threads, and there
is no option. The pool thread is created on first use and, like BLAS's own
threads, belongs to the process. This module alone hands it work:
``run_two`` splits indices over the two threads, for ``rootsolve``'s row
kernels (two halves of the rows of a large sweep), and ``map_two`` does the
same for the experiment runner's trials. The pool thread is not reentrant:
a nested or concurrent split finds it lent and runs on the calling thread.
So a trial on the pool thread that reaches a row kernel sums its rows
itself instead of waiting on its own busy pool. numpy's error state is per
thread, so the pool thread runs under the caller's.

While ``map_two`` runs, numpy's bundled OpenBLAS, the only BLAS the lab
calls, is held at one thread, then set back: OpenBLAS's own workers spin
after a call and take the second core, so without the hold two trial
threads are no faster than one. The library is looked up on first use; if
it or a symbol is missing, the trials run serially. A child forked from the
process (by any caller) gets one compute thread and one BLAS thread: it has
none of the parent's threads, so a row kernel there must not wait on them.
"""

from __future__ import annotations

import ctypes
import functools
import glob
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager

import numpy as np

__all__ = ["map_two", "run_two"]

# library in numpy.libs, get symbol, set symbol of numpy's bundled
# OpenBLAS, a 64-bit-integer build
_OPENBLAS = ("libscipy_openblas64_*.so",
             "scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_")


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
    """(get, set) thread-count functions of numpy's bundled OpenBLAS; None if it is missing."""
    pattern, get_name, set_name = _OPENBLAS
    site = os.path.dirname(os.path.dirname(np.__file__))
    paths = glob.glob(os.path.join(site, "numpy.libs", pattern))
    if len(paths) != 1:
        return None
    try:
        lib = ctypes.CDLL(paths[0])
        get, set_ = getattr(lib, get_name), getattr(lib, set_name)
    except (OSError, AttributeError):
        return None
    get.argtypes, get.restype = [], ctypes.c_int
    set_.argtypes, set_.restype = [ctypes.c_int], None
    return get, set_


def run_two(fn, n: int) -> list:
    """[fn(0), ..., fn(n - 1)] on the two compute threads.

    Both threads take the next index from one counter and store each result
    at its index, so the list does not depend on which thread ran what.
    Runs serially for fewer than two indices, on one compute thread, or when
    the pool thread is lent.
    """
    if n > 1:
        with borrow() as pool:
            if pool is not None:
                return _on_two_threads(fn, n, pool)
    return [fn(i) for i in range(n)]


def map_two(fn, n: int) -> list:
    """``run_two`` with numpy's OpenBLAS held at one thread, for LAPACK-bound work.

    LAPACK releases the GIL, so two such calls run at once. Only the holder
    of the pool thread holds BLAS, so a nested or concurrent call leaves the
    count alone. Runs serially as ``run_two`` does, and when the library
    cannot be held.
    """
    blas = _openblas() if n > 1 else None
    with borrow() as pool:
        if pool is None or blas is None:
            return [fn(i) for i in range(n)]
        get, set_ = blas
        before = get()
        set_(1)
        try:
            return _on_two_threads(fn, n, pool)
        finally:
            set_(before)


def _on_two_threads(fn, n: int, pool) -> list:
    """The threaded loop of ``run_two`` and ``map_two``; raises what a serial loop would raise.

    The pool thread runs under the caller's numpy error state. After a raise
    no thread takes a new index, each finishes the one it holds, and the
    exception of the lowest failing index is raised. Every lower index was
    taken before it and has completed.
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

    other = pool.submit(np.errstate(**np.geterr())(work))
    try:
        work()
    finally:
        stop.set()  # an interrupt on the caller stops the pool thread too
        other.result()
    if failed:
        raise failed[min(failed)]
    return results


def _after_fork_in_child():
    # the child has none of the parent's threads: one compute thread and one
    # BLAS thread, so the child uses one core
    _THREADS.count, _THREADS.executor, _THREADS.lock = 1, None, threading.Lock()
    blas = _openblas()
    if blas is not None:
        blas[1](1)


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_after_fork_in_child)
