"""The process's compute threads: the caller plus at most one pool thread.

There are min(2, cores this process may run on) compute threads, and there
is no option. The pool thread is created on first use and, like BLAS's own
threads, belongs to the process. Only ``run_two`` hands it work, splitting
indices over the two threads: the row blocks and repulsion tiles of a large
``rootsolve`` sweep, and through ``map_two`` the experiment runner's trials.
Each index gets its thread's slot, 0 on the caller and 1 on the pool thread,
to pick its work arrays. The pool thread is not reentrant: a nested or
concurrent split finds it lent and runs on the calling thread, in slot 0.
So a trial on the pool thread that reaches a row kernel sums its rows itself
instead of waiting on its own busy pool. numpy's error state is per thread,
so the pool thread runs under the caller's.

While ``run_two`` holds the pool thread it holds numpy's bundled OpenBLAS,
the only BLAS the lab calls, at one thread, then sets it back: OpenBLAS's
own workers spin after a call and take the second core, so unheld, two trial
threads are slower than one. The library is looked up on first use; if it
or a symbol is missing, ``run_two`` splits unheld and ``map_two`` runs
serially. A child forked from the process (by any caller) gets one compute
thread and one BLAS thread: it has none of the parent's threads, so a row
kernel there must not wait on them.
"""

from __future__ import annotations

import ctypes
import functools
import glob
import os
import threading
import types
from concurrent.futures import ThreadPoolExecutor

import numpy as np

__all__ = ["map_two", "run_two"]

# library in numpy.libs, get symbol, set symbol of numpy's bundled
# OpenBLAS, a 64-bit-integer build
_OPENBLAS = ("libscipy_openblas64_*.so",
             "scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_")

# count is resolved on first use, executor is the lazily created pool thread
_THREADS = types.SimpleNamespace(count=None, executor=None, lock=threading.Lock())


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
    """[fn(0, slot), ..., fn(n - 1, slot)] on the two compute threads; raises as a loop would.

    ``slot`` is 0 on the caller and 1 on the pool thread. Both threads take
    the next index from one counter and store each result at its index, so
    the list does not depend on which thread ran what. Runs serially, in
    slot 0, for fewer than two indices, on one compute thread, or when the
    pool thread is lent. While both threads run, numpy's OpenBLAS is held at
    one thread, if it is found. The pool thread runs under the caller's
    numpy error state. After a raise no thread takes a new index, each
    finishes the one it holds, and the exception of the lowest failing index
    is raised. Every lower index was taken before it and has completed.
    """
    if _THREADS.count is None:
        try:
            cores = len(os.sched_getaffinity(0))
        except AttributeError:  # a platform without CPU affinity
            cores = os.cpu_count() or 1
        _THREADS.count = min(2, cores)
    if n < 2 or _THREADS.count < 2 or not _THREADS.lock.acquire(blocking=False):
        return [fn(i, 0) for i in range(n)]
    results = [None] * n
    failed = {}
    indices = iter(range(n))
    take = threading.Lock()
    stop = threading.Event()

    def work(slot):
        # a pool thread that starts late finds the indices taken: the caller
        # steals them, so a late start costs no more than the serial loop
        while not stop.is_set():
            with take:
                i = next(indices, n)
            if i == n:
                return
            try:
                results[i] = fn(i, slot)
            except Exception as exc:  # raised below, lowest index first
                failed[i] = exc
                stop.set()

    blas = _openblas()
    before = blas[0]() if blas is not None else None
    try:
        if _THREADS.executor is None:
            _THREADS.executor = ThreadPoolExecutor(max_workers=1,
                                                   thread_name_prefix="spectralab-compute")
        if blas is not None:
            blas[1](1)
        other = _THREADS.executor.submit(np.errstate(**np.geterr())(work), 1)
        try:
            work(0)
        finally:
            stop.set()  # an interrupt on the caller stops the pool thread too
            other.result()
    finally:
        if blas is not None:
            blas[1](before)
        _THREADS.lock.release()
    if failed:
        raise failed[min(failed)]
    return results


def map_two(fn, n: int) -> list:
    """``run_two`` for LAPACK-bound work, or the serial loop when OpenBLAS cannot be held.

    LAPACK releases the GIL, so two such calls run at once, but only with
    OpenBLAS held at one thread: unheld, two threads were slower than one.
    """
    if n > 1 and _openblas() is not None:
        return run_two(lambda i, _: fn(i), n)
    return [fn(i) for i in range(n)]


def _after_fork_in_child():
    # the child has none of the parent's threads: one compute thread and one
    # BLAS thread, so the child uses one core
    _THREADS.count, _THREADS.executor, _THREADS.lock = 1, None, threading.Lock()
    blas = _openblas()
    if blas is not None:
        blas[1](1)


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_after_fork_in_child)
