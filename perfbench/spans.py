"""Span tracing from outside the library.

A :class:`Tracer` records one span per call into a layer: its name, its
parent span, start and end times and, when memory tracing is on, the peak
of traced allocations above the level at the span's start. Spans are kept
in memory and summarised once the traced phase ends.

Calls are intercepted only from the benchmark's side: :func:`instrument`
swaps module attributes the library resolves at call time (for example
``bsdelab.learning.solve_bsde_lsmc`` and ``numpy.linalg.lstsq``) and
restores them afterwards, and the tracer wraps the objects the benchmark
passes in (drivers, the regression basis, fluctuation coefficients).
Nothing in the library changes.

Span names starting with ``_`` mark the tracer's own bookkeeping (hashing
design matrices): their time is subtracted from the parent's self time and
left out of every layer.
"""

from __future__ import annotations

import dataclasses
import hashlib
import time
import tracemalloc
from collections import Counter, defaultdict

import numpy as np

from bsdelab import engine, learning, meanfield, merton, nets, stochastic

_NAME, _PARENT, _START, _END, _PEAK = range(5)


class NoTrace:
    """Stand-in for a tracer in untraced runs: passes objects through."""

    def driver(self, driver):
        return driver

    def basis(self, basis):
        return basis

    def coefficients(self, coeffs):
        return coeffs


class Tracer:
    """Records nested spans; see the module docstring."""

    def __init__(self, memory: bool = False):
        self.memory = memory
        self.spans: list = []          # [name, parent, start, end, peak_bytes]
        self.counters: Counter = Counter()
        self.design_keys: set = set()
        self._stack: list = []         # [span index, bytes at start, peak so far]

    # -- span recording -----------------------------------------------------

    def call(self, name, fn, *args, **kwargs):
        """Run fn(*args, **kwargs) inside a span called name."""
        index = self._begin(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self._end(index)

    def _begin(self, name) -> int:
        parent = self._stack[-1][0] if self._stack else -1
        index = len(self.spans)
        current = 0
        if self.memory:
            current, peak = tracemalloc.get_traced_memory()
            if self._stack:
                self._stack[-1][2] = max(self._stack[-1][2], peak)
            tracemalloc.reset_peak()
        self._stack.append([index, current, current])
        self.spans.append([name, parent, time.perf_counter(), 0.0, 0])
        return index

    def _end(self, index) -> None:
        end = time.perf_counter()
        frame = self._stack.pop()
        record = self.spans[index]
        record[_END] = end
        if self.memory:
            _, peak = tracemalloc.get_traced_memory()
            top = max(frame[2], peak)
            record[_PEAK] = top - frame[1]
            if self._stack:
                self._stack[-1][2] = max(self._stack[-1][2], top)
            tracemalloc.reset_peak()

    # -- wrapped objects ----------------------------------------------------

    def driver(self, driver):
        layer = "nets" if isinstance(driver, nets.DriverNet) else "drivers"
        return TracedDriver(driver, self, layer)

    def basis(self, basis):
        return TracedBasis(basis, self)

    def coefficients(self, coeffs):
        """Fluctuation coefficients whose Lions-derivative callbacks are timed."""
        names = ("dmu_b", "dmu_sigma", "dmu_f", "dmu_g")
        return dataclasses.replace(coeffs, **{n: self._lions(getattr(coeffs, n)) for n in names})

    def _lions(self, fn):
        def traced(*args):
            out = self.call("meanfield.lions", fn, *args)
            self.counters["meanfield.lions_cells"] += int(getattr(out, "size", 1))
            return out
        return traced


class TracedDriver:
    """Driver proxy timing value and full_gradients under one layer name."""

    def __init__(self, base, tracer: Tracer, layer: str):
        self._base = base
        self._tracer = tracer
        self._layer = layer

    def __getattr__(self, name):
        return getattr(self._base, name)

    def value(self, t, x, y, z):
        return self._tracer.call(self._layer + ".value", self._base.value, t, x, y, z)

    def full_gradients(self, t, x, y, z):
        return self._tracer.call(self._layer + ".grad", self._base.full_gradients, t, x, y, z)

    def with_params(self, params):
        return TracedDriver(self._base.with_params(params), self._tracer, self._layer)


class TracedBasis:
    """Regression-basis proxy counting design builds and distinct designs.

    Two builds share a design when their state slices are equal bit for
    bit, which is what a per-ensemble factorization cache would key on.
    """

    def __init__(self, base, tracer: Tracer):
        self._base = base
        self._tracer = tracer

    def __getattr__(self, name):
        return getattr(self._base, name)

    def fit_design(self, x):
        key = self._tracer.call("_trace.design_key", _array_key, x)
        self._tracer.design_keys.add(key)
        return self._tracer.call("engine.design", self._base.fit_design, x)


def _array_key(x) -> bytes:
    a = np.ascontiguousarray(x)
    h = hashlib.blake2b(digest_size=16)
    h.update(repr((a.shape, a.dtype.str)).encode())
    h.update(a.data)
    return h.digest()


def summarise(spans) -> dict:
    """Aggregate spans by name into self time, call count and peak bytes.

    A span's self time is its duration minus the part of that interval its
    direct children cover. Names starting with ``_`` are dropped after
    their time has been taken out of their parents.
    """
    children = defaultdict(list)
    for record in spans:
        if record[_PARENT] >= 0:
            children[record[_PARENT]].append((record[_START], record[_END]))

    out: dict = {}
    for index, record in enumerate(spans):
        name = record[_NAME]
        if name.startswith("_"):
            continue
        start, end = record[_START], record[_END]
        covered = _covered(children.get(index, ()), start, end)
        entry = out.setdefault(name, {"self_s": 0.0, "calls": 0, "peak_bytes": 0})
        entry["self_s"] += (end - start) - covered
        entry["calls"] += 1
        entry["peak_bytes"] = max(entry["peak_bytes"], record[_PEAK])
    return out


def _covered(intervals, start: float, end: float) -> float:
    """Length of the union of intervals, clipped to [start, end]."""
    total = 0.0
    reach = start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, reach), min(hi, end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


def instrument(tracer: Tracer):
    """Swap the library's module attributes for traced wrappers.

    Returns a function that restores every attribute it replaced.
    """
    saved = []

    def patch(modules, attr, make):
        original = getattr(modules[0], attr)
        wrapper = make(original)
        for module in modules:
            saved.append((module, attr, getattr(module, attr)))
            setattr(module, attr, wrapper)

    def span(name, after=None):
        def make(fn):
            def traced(*args, **kwargs):
                result = tracer.call(name, fn, *args, **kwargs)
                if after is not None:
                    after(result, *args, **kwargs)
                return result
            return traced
        return make

    def count_rhs(result, design, response, *args, **kwargs):
        tracer.counters["engine.lstsq_rhs_cols"] += 1 if np.ndim(response) == 1 else np.shape(response)[1]

    def count_iters(result, *args, **kwargs):
        tracer.counters["meanfield.mkv_iters"] += result.iterations

    def count_nodes(result, *args, **kwargs):
        tracer.counters["merton.hjb_node_steps"] += (result.times.size - 1) * result.ell.size

    patch([np.linalg], "lstsq", span("engine.lstsq", count_rhs))
    patch([stochastic, learning, meanfield], "sample_brownian", span("stochastic.sample"))
    patch([stochastic, engine, learning], "simulate_forward", span("stochastic.euler"))
    patch([engine, learning, meanfield], "solve_bsde_lsmc", span("engine.solve"))
    patch([learning], "solve_sensitivity_bsde", span("learning.sensitivity"))
    patch([learning], "loss_and_gradient", span("learning.loss_grad"))
    patch([meanfield], "compute_features", span("meanfield.features"))
    patch([meanfield], "solve_mckean_vlasov", span("meanfield.mkv", count_iters))
    patch([meanfield], "solve_fluctuation_system", span("meanfield.fluct"))
    patch([merton], "solve_hjb", span("merton.hjb", count_nodes))

    class TracedSurface(merton.PolicySurface):
        def __call__(self, t, x):
            return tracer.call("merton.policy_query", merton.PolicySurface.__call__, self, t, x)

    patch([merton], "extract_policy", lambda fn: lambda grid: TracedSurface(grid=fn(grid).grid))

    def restore():
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)

    return restore
