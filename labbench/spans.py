"""Span tracing around every public callable of spectralab's layers.

``Tracer.install`` wraps each ``__all__`` callable of the layer modules and
patches every spectralab namespace that holds the original, so calls made
between modules are traced too. Classes are traced through ``__init__`` and
their public methods. Spans stay in memory; ``uninstall`` puts every original
back. Invariant checks run on selected results with the span clock stopped,
so their time is in no span.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
import types
from collections import Counter, defaultdict
from typing import NamedTuple

import numpy as np

LAYERS = ("randgen", "polycore", "rootsolve", "measures", "matching", "rmt", "labcli")
HULL_TOL = 1e-9
VIETA_RTOL = 1e-8


class Span(NamedTuple):
    name: str
    start: float
    end: float
    parent: int
    request: int
    ok: bool


def self_times(spans) -> list:
    """Each span's duration minus the part of it that its children cover."""
    children = defaultdict(list)
    for i, s in enumerate(spans):
        if s.parent >= 0:
            children[s.parent].append((s.start, s.end))
    out = []
    for i, s in enumerate(spans):
        covered = 0.0
        lo_run = hi_run = None
        for lo, hi in sorted(children[i]):
            lo, hi = max(lo, s.start), min(hi, s.end)
            if hi <= lo:
                continue
            if hi_run is None or lo > hi_run:
                if hi_run is not None:
                    covered += hi_run - lo_run
                lo_run, hi_run = lo, hi
            else:
                hi_run = max(hi_run, hi)
        if hi_run is not None:
            covered += hi_run - lo_run
        out.append(s.end - s.start - covered)
    return out


def _layer_modules() -> dict:
    return {layer: importlib.import_module(f"spectralab.{layer}") for layer in LAYERS}


class Tracer:
    def __init__(self):
        self.spans = []
        self.request = -1
        self.names = {}
        self.counters = Counter()
        self.iterations = []
        self.residual_max = 0.0
        self._stack = []
        self._excluded = 0.0
        self._paused = False
        self._patches = []
        modules = _layer_modules()
        self._hull = modules["measures"].convex_hull_contains
        self._tol_eig = modules["rmt"].TOL_EIG
        self._checks = {
            "rootsolve.critical_points": self._check_critical_points,
            "rmt.eigenvalues": self._check_spectrum,
            "rmt.sample_product_ensemble": self._count_resamples,
        }

    def clock(self) -> float:
        """perf_counter with the time spent in invariant checks taken out."""
        return time.perf_counter() - self._excluded

    # --- wrapping ---------------------------------------------------------

    def install(self):
        if self._patches:
            raise RuntimeError("tracer already installed")
        self.names = {}
        namespaces = [m for name, m in sys.modules.items()
                      if name == "spectralab" or name.startswith("spectralab.")]
        for layer, module in _layer_modules().items():
            for attr in module.__all__:
                obj = getattr(module, attr)
                name = f"{layer}.{attr}"
                if isinstance(obj, type):
                    self._wrap_class(name, obj)
                elif isinstance(obj, types.FunctionType):
                    self.names[name] = "function"
                    wrapper = self._wrapper(name, obj)
                    for ns in namespaces:
                        for key, value in list(vars(ns).items()):
                            if value is obj:
                                self._patch(ns, key, wrapper)

    def uninstall(self):
        while self._patches:
            owner, key, original = self._patches.pop()
            setattr(owner, key, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def _patch(self, owner, key, new):
        self._patches.append((owner, key, vars(owner)[key]))
        setattr(owner, key, new)

    def _wrap_class(self, name, cls):
        for key, value in list(vars(cls).items()):
            if key != "__init__" and key.startswith("_"):
                continue
            label = name if key == "__init__" else f"{name}.{key}"
            if isinstance(value, types.FunctionType):
                new = self._wrapper(label, value)
            elif isinstance(value, classmethod):
                new = classmethod(self._wrapper(label, value.__func__))
            else:
                continue
            self.names[label] = "class"
            self._patch(cls, key, new)

    def _wrapper(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self._call(name, fn, args, kwargs)
        return traced

    def _call(self, name, fn, args, kwargs):
        if self._paused:
            return fn(*args, **kwargs)
        span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1,
                self.request, True]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[1] = self.clock()
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            span[5] = False
            raise
        finally:
            span[2] = self.clock()
            self._stack.pop()
        check = self._checks.get(name)
        if check is not None:
            self._paused = True
            t0 = time.perf_counter()
            try:
                check(args, result)
            finally:
                self._excluded += time.perf_counter() - t0
                self._paused = False
        return result

    # --- invariant checks -------------------------------------------------

    def _check_critical_points(self, args, report):
        roots = np.asarray(args[0].roots, dtype=complex)
        crit = np.asarray(report.roots, dtype=complex)
        self.iterations.append(int(report.iterations))
        if not np.all(self._hull(roots, crit, HULL_TOL)):
            self.counters["rootsolve.critical_points.hull_fail"] += 1
        n = roots.size
        rhs = (n - 1) / n * roots.sum()
        if abs(crit.sum() - rhs) > VIETA_RTOL * max(1.0, abs(rhs)):
            self.counters["rootsolve.critical_points.vieta_fail"] += 1

    def _check_spectrum(self, args, spec):
        self.residual_max = max(self.residual_max, float(spec.residual))
        if not spec.residual <= self._tol_eig:
            self.counters["rmt.eigenvalues.residual_fail"] += 1

    def _count_resamples(self, args, spec):
        self.counters["rmt.resamples"] += int(spec.params.get("resamples", 0))

    # --- results ----------------------------------------------------------

    def finished_spans(self) -> list:
        return [Span(*s) for s in self.spans]

    def metrics(self, rounds: int) -> dict:
        """Per-function and per-layer totals divided by the traced rounds."""
        spans = self.finished_spans()
        own = self_times(spans)
        calls, self_s, errors = Counter(), Counter(), Counter()
        for s, t in zip(spans, own):
            for key in (s.name, s.name.split(".")[0]):
                calls[key] += 1
                self_s[key] += t
                errors[key] += not s.ok
        out = {}
        for key in list(self.names) + list(LAYERS):
            out[f"{key}.calls"] = calls[key] / rounds
            out[f"{key}.self_s"] = self_s[key] / rounds
            out[f"{key}.errors"] = errors[key] / rounds
        for key in ("rootsolve.critical_points.hull_fail",
                    "rootsolve.critical_points.vieta_fail",
                    "rmt.eigenvalues.residual_fail", "rmt.resamples"):
            out[key] = self.counters[key] / rounds
        its = self.iterations
        out["rootsolve.critical_points.iterations_p50"] = float(np.median(its)) if its else 0.0
        out["rootsolve.critical_points.iterations_max"] = float(max(its, default=0))
        # solver calls made from outside rootsolve
        top_level = sum(1 for s in spans
                        if s.name.startswith("rootsolve.") and self.names[s.name] == "function"
                        and (s.parent < 0 or not spans[s.parent].name.startswith("rootsolve.")))
        out["rootsolve.companion_share"] = (
            calls["rootsolve.companion_roots"] / top_level if top_level else 0.0)
        out["rmt.eigenvalues.residual_max"] = self.residual_max
        return out
