import ast
import dataclasses
import json
import multiprocessing
import os
import signal
import subprocess
import sys
import textwrap
import threading
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np
import pytest

import spectralab.compute as compute
import spectralab.labcli.experiments as expmod
import spectralab.rootsolve as rootsolve
from spectralab.errors import NoConvergence
from spectralab.labcli import ExperimentConfig, run_experiment, stream_id_for


@pytest.fixture
def two_threads(monkeypatch):
    monkeypatch.setattr(compute._THREADS, "count", 2)


def blas_threads():
    """Thread count of numpy's bundled OpenBLAS."""
    get, _ = compute._openblas()
    return get()


@pytest.fixture
def blas():
    """numpy's bundled OpenBLAS at two threads for the test, then as it was."""
    lib = compute._openblas()
    if lib is None:
        pytest.skip("no bundled OpenBLAS to hold")
    _, set_ = lib
    before = blas_threads()
    set_(2)
    try:
        yield
    finally:
        set_(before)


def patch_trial(monkeypatch, name, wrap):
    """Replace experiment ``name``'s trial by wrap(t, original trial), t the trial index."""
    edef = expmod.EXPERIMENTS[name]
    tag = stream_id_for(name, 0)

    def trial(stream, params):
        return wrap(stream.stream_id ^ tag, lambda: edef.trial(stream, params))

    monkeypatch.setitem(expmod.EXPERIMENTS, name, dataclasses.replace(edef, trial=trial))


def csv_bytes(tmp_path, sub):
    return (tmp_path / sub / "trials.csv").read_bytes()


def thread_slot(i, slot):
    return threading.get_ident(), slot


def pool_names(n):
    """The thread names of a run_two split whose indices wait for each other."""
    meet = threading.Barrier(n, timeout=30)

    def name(i, slot):
        meet.wait()
        return threading.current_thread().name

    return compute.run_two(name, n)


class TestLentPoolThread:
    def test_nested_and_concurrent_splits_run_on_their_caller(self, two_threads):
        # while a split holds the pool thread, a split nested in it and one
        # from another thread find the pool thread lent and run in slot 0
        seen = []

        def split_here():
            seen.append((threading.get_ident(), compute.run_two(thread_slot, 3)))

        def outer(i, slot):
            if i == 0:
                split_here()
                other = threading.Thread(target=split_here)
                other.start()
                other.join(timeout=30)
                assert not other.is_alive()
            return i

        assert compute.run_two(outer, 2) == [0, 1]
        assert len(seen) == 2
        assert all(ran == [(caller, 0)] * 3 for caller, ran in seen)
        pool = compute._THREADS.executor
        assert any(name.startswith("spectralab-compute") for name in pool_names(2))
        assert compute._THREADS.executor is pool

    def test_one_compute_thread_lends_nothing(self, monkeypatch):
        monkeypatch.setattr(compute._THREADS, "count", 1)
        assert compute.run_two(thread_slot, 5) == [(threading.get_ident(), 0)] * 5

    def test_splits_without_the_library(self, two_threads, monkeypatch):
        # only map_two needs the hold; a row-kernel split runs unheld
        monkeypatch.setattr(compute, "_openblas", lambda: None)
        assert any(name.startswith("spectralab-compute") for name in pool_names(2))

    def test_threaded_trial_reaching_the_row_kernels_finishes(self, tmp_path):
        # both trial threads reach critical_points at degree 1600, whose row
        # kernels would wait on the busy pool thread if a nested split got it
        script = textwrap.dedent(f"""
            import dataclasses
            from pathlib import Path
            import spectralab.compute as compute
            import spectralab.labcli.experiments as expmod
            from spectralab.labcli import ExperimentConfig, run_experiment

            compute._THREADS.count = 2
            assert compute._openblas() is not None
            expmod.EXPERIMENTS["thm1-convergence"] = dataclasses.replace(
                expmod.EXPERIMENTS["thm1-convergence"], lapack_bound=True)
            params = {{"n_small": 40, "n_large": 1600, "n_proj": 8, "ref_points": 64}}
            for count in (2, 1):
                compute._THREADS.count = count
                run_experiment(ExperimentConfig("thm1-convergence", 7, 2, params,
                                                Path({str(tmp_path)!r}) / f"t{{count}}"))
        """)
        src = str(Path(compute.__file__).parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [src] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])))
        proc = subprocess.Popen([sys.executable, "-c", script], env=env, text=True,
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                start_new_session=True)
        try:
            _, err = proc.communicate(timeout=120)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            pytest.fail("a trial thread waited on its own busy pool")
        assert proc.returncode == 0, err
        assert csv_bytes(tmp_path, "t2") == csv_bytes(tmp_path, "t1")


class TestMapTwo:
    def test_every_index_runs_once_under_fast_switching(self, two_threads, blas):
        calls = []

        def square(i):
            calls.append(i)
            return i * i

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            results = compute.map_two(square, 20000)
        finally:
            sys.setswitchinterval(interval)
        assert sorted(calls) == list(range(20000))
        assert results == [i * i for i in range(20000)]

    @pytest.mark.parametrize("state", ["raise", "ignore"])
    def test_pool_thread_trial_runs_under_the_callers_error_state(self, two_threads, blas,
                                                                  state):
        # numpy's error state is per thread, "warn" by default; trials 0 and 1
        # wait for each other, so one of them runs on the pool thread
        meet = threading.Barrier(2, timeout=30)

        def trial(i):
            meet.wait()
            return threading.current_thread().name, np.geterr()["divide"]

        with np.errstate(divide=state):
            results = compute.map_two(trial, 2)
        assert any(name.startswith("spectralab-compute") for name, _ in results)
        assert [divide for _, divide in results] == [state, state]


class TestBlasHold:
    def test_held_at_one_during_trials_and_restored(self, two_threads, blas, monkeypatch,
                                                    tmp_path):
        # trials 0 and 1 wait for each other, so they run on two threads
        meet = threading.Barrier(2, timeout=30)
        seen = []

        def wrap(t, trial):
            if t < 2:
                meet.wait()
            seen.append((threading.get_ident(), blas_threads()))
            return trial()

        patch_trial(monkeypatch, "ginibre-intensity", wrap)
        run_experiment(ExperimentConfig("ginibre-intensity", 7, 6, {"n": 12}, tmp_path))
        assert len(seen) == 6
        assert len({ident for ident, _ in seen}) == 2
        assert all(count == 1 for _, count in seen)
        assert blas_threads() == 2

    def test_restored_after_a_trial_raises(self, two_threads, blas, monkeypatch, tmp_path):
        def wrap(t, trial):
            if t == 2:
                raise NoConvergence("forced")
            return trial()

        patch_trial(monkeypatch, "poisson-limit", wrap)
        with pytest.raises(NoConvergence):
            run_experiment(ExperimentConfig("poisson-limit", 7, 6, {"n": 10}, tmp_path))
        assert blas_threads() == 2

    def test_forked_worker_computes_on_one_blas_thread(self, blas):
        ctx = multiprocessing.get_context("fork")
        with ProcessPoolExecutor(max_workers=1, mp_context=ctx) as pool:
            child = pool.submit(blas_threads).result(timeout=60)
        assert child == 1
        assert blas_threads() == 2

    def test_row_kernel_split_holds_blas_on_both_threads(self, two_threads, blas):
        # the first two blocks wait for each other, so each runs on its own
        # thread: the thread holding the first is met only by the other
        nrows, height, seen = 256, rootsolve._BLOCK_ROWS, set()
        meet = threading.Barrier(2, timeout=30)

        def block(lo, hi, diff):
            if lo < 2 * height:
                meet.wait()
            seen.add((threading.current_thread().name, blas_threads()))

        rootsolve._over_rows(block, np.zeros(nrows), np.zeros(rootsolve._THREAD_GRID // 128))
        assert len({name for name, _ in seen}) == 2
        assert {count for _, count in seen} == {1}
        assert blas_threads() == 2

    def test_missing_library_runs_serially_with_equal_rows(self, two_threads, monkeypatch,
                                                           tmp_path):
        params = {"n": 16}
        run_experiment(ExperimentConfig("product-symmetry", 7, 6, params, tmp_path / "a"))
        monkeypatch.setattr(compute, "_openblas", lambda: None)
        threads = set()

        def wrap(t, trial):
            threads.add(threading.get_ident())
            return trial()

        patch_trial(monkeypatch, "product-symmetry", wrap)
        run_experiment(ExperimentConfig("product-symmetry", 7, 6, params, tmp_path / "b"))
        assert threads == {threading.get_ident()}
        assert csv_bytes(tmp_path, "a") == csv_bytes(tmp_path, "b")


class TestTrialFailure:
    def test_failure_names_the_lowest_failing_trial(self, monkeypatch, tmp_path):
        # trial 3 raises last: while it sleeps the other thread reaches trial 5
        def wrap(t, trial):
            if t == 3:
                threading.Event().wait(0.3)
            if t in (3, 5):
                raise NoConvergence(f"forced at {t}")
            return trial()

        patch_trial(monkeypatch, "spherical-count", wrap)
        records = []
        for count in (2, 1):
            monkeypatch.setattr(compute._THREADS, "count", count)
            out = tmp_path / f"t{count}"
            with pytest.raises(NoConvergence, match="forced at 3"):
                run_experiment(ExperimentConfig("spherical-count", 7, 8, {"n": 6}, out))
            records.append(json.loads((out / "failure.json").read_text()))
        assert records[0]["trial"] == 3
        assert records[0] == records[1]


THREAD_MODULES = {"threading", "concurrent", "ctypes", "multiprocessing"}


def test_only_compute_imports_thread_modules():
    # README: compute alone hands out the process's threads
    src = Path(compute.__file__).parent
    offenders = []
    for path in sorted(src.rglob("*.py")):
        if path == Path(compute.__file__):
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            offenders += [f"{path.relative_to(src)}: {name}" for name in names
                          if name.split(".")[0] in THREAD_MODULES]
    assert not offenders
