"""Span recorder for the traced benchmark run.

Layers are traced from outside the library: each layer function is rebound,
in every ``fermitherm`` module that holds its name, to a wrapper that records
a span (layer, start, end, thread, parent span) and optional counts taken
from the call's arguments and result.  Spans stay in memory until the run
ends.  ``uninstall`` restores the original bindings, so an untraced round in
the same process runs the library exactly as shipped.
"""

from __future__ import annotations

import functools
import itertools
import statistics
import sys
import threading
import time
from dataclasses import dataclass, field

import numpy as np


def _cache_counts(args, kwargs, cache):
    """Bytes held by the arrays of an OperatorCache, computed from their sizes."""
    total = 0
    for value in vars(cache).values():
        if isinstance(value, dict):
            value = list(value.values())
        arrays = value if isinstance(value, list) else [value]
        total += sum(a.nbytes for a in arrays if isinstance(a, np.ndarray))
    return {"mb": total / 1e6}


def _eigensolve_counts(args, kwargs, result):
    blocks = args[0] if args else kwargs["blocks"]
    levels, _ = result
    return {
        "dim": sum(b.shape[0] for b in blocks),
        "kept": sum(len(w) for w in levels),
    }


def _fill_counts(args, kwargs, result):
    return {"occupied": int(np.count_nonzero(result[1]))}


def _solve_counts(args, kwargs, result):
    return {"iterations": result.iterations}


# (layer, function name, counts) in the order they are reported.
LAYERS = (
    ("energy.operator_cache", "OperatorCache", _cache_counts),
    ("scf.solve", "scf_minimize", _solve_counts),
    ("scf.sweep", "charge_sweep", None),
    ("scf.eigensolve", "_diagonalize_blocks", _eigensolve_counts),
    ("scf.fill", "occupations_from_levels", _fill_counts),
    ("scf.minimizer_audit", "minimizer_audit", None),
    ("energy.entropy", "_entropy_of_blocks", None),
    ("energy.mean_field_hamiltonian", "mean_field_hamiltonian", None),
    ("energy.hf_terms", "_hf_terms", None),
    ("dynamics.trajectory", "stability_experiment", None),
    ("dynamics.midpoint_step", "_midpoint_unitary_step", None),
    ("dynamics.unitary_apply", "_cayley_apply", None),
    ("dynamics.materialize", "_materialize", None),
    ("dynamics.sample", "_sample", None),
    ("dynamics.hspace_distance", "hspace_distance", None),
    ("dynamics.lowdin", "_lowdin", None),
    ("dynamics.factor_blocks", "_factor_blocks", None),
)

ROUND = "bench.round"


@dataclass
class Span:
    span_id: int
    parent: int | None
    layer: str
    start: float
    end: float
    thread: int
    counts: dict = field(default_factory=dict)
    cost: float = 0.0  # time the recorder itself spent on this span

    @property
    def duration(self) -> float:
        return self.end - self.start


class Recorder:
    """Collects spans from wrapped layer functions, one parent stack per thread."""

    def __init__(self):
        self.spans: list[Span] = []
        self.missing: list[str] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._bindings: list[tuple] = []

    def _stack(self) -> list:
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def call(self, layer, fn, args, kwargs, counts=None):
        entered = time.perf_counter()
        stack = self._stack()
        span_id = next(self._ids)
        parent = stack[-1] if stack else None
        stack.append(span_id)
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
        extra = counts(args, kwargs, result) if counts else {}
        span = Span(span_id, parent, layer, start, end, threading.get_ident(), extra)
        self.spans.append(span)
        span.cost = (start - entered) + (time.perf_counter() - end)
        return result

    def wrap(self, layer, fn, counts=None):
        def traced(*args, **kwargs):
            return self.call(layer, fn, args, kwargs, counts)

        # updated=() keeps a wrapped class's namespace off the function
        return functools.update_wrapper(traced, fn, updated=())

    def install(self) -> None:
        """Rebind every layer name in each fermitherm module that holds it."""
        modules = [
            m for name, m in list(sys.modules.items())
            if m is not None and (name == "fermitherm" or name.startswith("fermitherm."))
        ]
        self.missing = []
        for layer, fname, counts in LAYERS:
            holders = [m for m in modules if hasattr(m, fname)]
            if not holders:
                self.missing.append(fname)
                continue
            for module in holders:
                original = getattr(module, fname)
                setattr(module, fname, self.wrap(layer, original, counts))
                self._bindings.append((module, fname, original))

    def uninstall(self) -> None:
        for module, fname, original in reversed(self._bindings):
            setattr(module, fname, original)
        self._bindings = []


def _self_times(spans):
    child_time: dict[int, float] = {}
    for s in spans:
        if s.parent is not None:
            child_time[s.parent] = child_time.get(s.parent, 0.0) + s.duration
    return {s.span_id: s.duration - child_time.get(s.span_id, 0.0) for s in spans}


def _parallel_efficiency(spans, outer: str, inner: str, workers: int) -> float:
    """Busy time of ``inner`` spans over (wall of ``outer`` spans x workers)."""
    busy = wall = 0.0
    inners = [s for s in spans if s.layer == inner]
    for o in (s for s in spans if s.layer == outer):
        wall += o.duration * workers
        busy += sum(s.duration for s in inners if o.start <= s.start and s.end <= o.end)
    return busy / wall if wall > 0.0 else 0.0


def layer_metrics(spans, workers: int) -> dict:
    """Per-layer calls and self time plus the layer-specific figures.

    A layer that was never called reports zero calls and zero time.
    """
    self_time = _self_times(spans)
    by_layer: dict[str, list[Span]] = {}
    for s in spans:
        by_layer.setdefault(s.layer, []).append(s)
    out = {}

    def put(name, value, unit):
        out[name] = {"value": value, "unit": unit}

    for layer, _, _ in LAYERS:
        if layer in ("scf.sweep", "dynamics.trajectory"):
            continue  # wall-only spans; reported through parallel efficiency
        group = by_layer.get(layer, [])
        put(f"{layer}.calls", len(group), "count")
        put(f"{layer}.self_s", sum(self_time[s.span_id] for s in group), "s")

    def total(layer, key):
        return sum(s.counts.get(key, 0) for s in by_layer.get(layer, []))

    caches = by_layer.get("energy.operator_cache", [])
    put(
        "energy.operator_cache.mb",
        max((s.counts["mb"] for s in caches), default=0.0),
        "MB-computed",
    )
    put("scf.eigensolve.dim", total("scf.eigensolve", "dim"), "count")
    put("scf.eigensolve.kept", total("scf.eigensolve", "kept"), "count")
    put("scf.eigensolve.occupied", total("scf.fill", "occupied"), "count")
    put("scf.iterations", total("scf.solve", "iterations"), "count")
    solves = [s.duration for s in by_layer.get("scf.solve", [])]
    put("scf.solve.p50_s", statistics.median(solves) if solves else 0.0, "s")
    put(
        "scf.sweep.parallel_efficiency",
        _parallel_efficiency(spans, "scf.sweep", "scf.solve", workers),
        "share",
    )
    put("trace.cost_s", sum(s.cost for s in spans), "s")
    put(
        "dynamics.parallel_efficiency",
        _parallel_efficiency(spans, ROUND, "dynamics.trajectory", workers),
        "share",
    )
    return out
