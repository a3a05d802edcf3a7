"""Spans around evolflow's public entry points, installed from outside.

`Tracer.install()` replaces each traced function with a wrapper wherever a
caller looks it up: every module global of the evolflow package that is
bound to it (``cli`` and ``evolution`` import functions by name), and the
class attribute for methods.  `uninstall()` puts the originals back, so
traced and untraced calls can alternate in one process.

Each thread keeps its own span stack and span list in memory: a span is
(name, start, end, parent index, counts).  A layer's self time is its
duration minus the time its child spans on the same thread cover.
"""

from __future__ import annotations

import functools
import sys
import threading
import time
from dataclasses import dataclass, field

import numpy as np

# Spans whose outermost occurrences are the solver's busy time.
SOLVE_SPANS = ("evolution.evolve", "evolution.rk4", "evolution.flow_point", "diff_group.distance")

_TIMEGRID_METHODS = ("__post_init__", "widths", "midpoints", "cell_of", "refine", "with_times", "uniform")


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None
    counts: dict = field(default_factory=dict)
    child_s: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.child_s


def _npoints(points) -> int:
    shape = np.shape(points)
    return 1 if len(shape) < 2 else int(shape[0])


class Tracer:
    """Per-thread span recorder plus the patches that feed it."""

    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._threads: list[list[Span]] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------
    def _spans(self) -> tuple[list[Span], list[int]]:
        loc = self._local
        if not hasattr(loc, "spans"):
            loc.spans, loc.stack = [], []
            with self._lock:
                self._threads.append(loc.spans)
        return loc.spans, loc.stack

    def _enter(self, name: str) -> Span:
        spans, stack = self._spans()
        span = Span(name, 0.0, parent=stack[-1] if stack else None)
        spans.append(span)
        stack.append(len(spans) - 1)
        span.start = time.perf_counter()
        return span

    def _exit(self, span: Span) -> None:
        span.end = time.perf_counter()
        spans, stack = self._spans()
        stack.pop()
        if span.parent is not None:
            spans[span.parent].child_s += span.duration

    def call(self, name: str, fn, *args, count=None, **kwargs):
        """Run fn inside a span; `count(span, args, kwargs, result)` adds counts."""
        span = self._enter(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            self._exit(span)
        if count is not None:
            count(span, args, kwargs, result)
        return result

    def reset(self) -> None:
        """Forget all spans; call only while no traced call is running."""
        with self._lock:
            self._local = threading.local()
            self._threads = []

    def spans(self) -> list[list[Span]]:
        with self._lock:
            return [list(s) for s in self._threads]

    # -- installation ------------------------------------------------------
    def _wrap(self, name: str, fn, count=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return tracer.call(name, fn, *args, count=count, **kwargs)

        return wrapper

    def _patch_function(self, fn, name: str, count=None) -> None:
        wrapper = self._wrap(name, fn, count)
        for modname, mod in list(sys.modules.items()):
            if modname != "evolflow" and not modname.startswith("evolflow."):
                continue
            for attr, val in list(vars(mod).items()):
                if val is fn:
                    self._patches.append((mod, attr, val))
                    setattr(mod, attr, wrapper)

    def _patch_method(self, cls, attr: str, name: str, count=None) -> None:
        raw = cls.__dict__[attr]
        if isinstance(raw, staticmethod):
            wrapped = staticmethod(self._wrap(name, raw.__func__, count))
        else:
            wrapped = self._wrap(name, raw, count)
        self._patches.append((cls, attr, raw))
        setattr(cls, attr, wrapped)

    def install(self) -> None:
        from evolflow import _parallel, cli, diff_group, evolution, instances, lp_space, vector_field

        if self._patches:
            raise RuntimeError("tracer already installed")
        points = lambda span, args, kw, res: span.counts.update(points=_npoints(args[1]))  # noqa: E731
        self._patch_method(vector_field._SplineField, "eval", "vector_field.eval", points)
        self._patch_method(vector_field._SplineField, "jacobian", "vector_field.jacobian", points)
        self._patch_method(vector_field._SplineField, "alpha", "vector_field.alpha")
        for cls in (vector_field.CompactField, vector_field.PeriodicField):
            self._patch_method(cls, "with_values", "vector_field.with_values")
        for attr in _TIMEGRID_METHODS:
            self._patch_method(lp_space.TimeGrid, attr, "lp_space.timegrid")

        def picard(span, args, kw, res):
            diag = res.segments[0]
            ratio = diag.residual_bound / diag.resample_estimate if diag.resample_estimate else 0.0
            span.counts.update(sweeps=diag.iterations, bound_over_resample=ratio)

        def rk4(span, args, kw, res):
            span.counts.update(steps=res.shape[0] - 1)

        self._patch_function(evolution.evolve, "evolution.evolve", lambda s, a, k, r: s.counts.update(n=r.n))
        self._patch_function(evolution.local_evolve, "evolution.picard", picard)
        self._patch_function(evolution.residual, "evolution.residual")
        self._patch_function(evolution.rk4_points, "evolution.rk4", rk4)
        self._patch_function(evolution.flow_point, "evolution.flow_point")
        self._patch_function(diff_group.star, "diff_group.star")
        self._patch_function(diff_group.d_rho, "diff_group.d_rho")
        self._patch_function(diff_group.group_path_distance, "diff_group.distance")
        self._patch_function(instances.resolve_velocity, "instances.resolve")
        self._patch_function(_parallel.ordered_thread_map, "parallel.map")
        self._patch_function(cli.main, "cli")

    def uninstall(self) -> None:
        for owner, attr, val in reversed(self._patches):
            setattr(owner, attr, val)
        self._patches.clear()


def layer_metrics(threads_spans: list[list[Span]], threads: int) -> dict[str, float]:
    """Per-layer figures of one traced CLI call, keyed by metric name."""
    calls: dict[str, int] = {}
    self_s: dict[str, float] = {}
    counts: dict[str, dict[str, list]] = {}
    busy = 0.0
    cli_s = 0.0
    for spans in threads_spans:
        for span in spans:
            calls[span.name] = calls.get(span.name, 0) + 1
            self_s[span.name] = self_s.get(span.name, 0.0) + span.self_s
            for key, val in span.counts.items():
                counts.setdefault(span.name, {}).setdefault(key, []).append(val)
            if span.name == "cli":
                cli_s += span.duration
            if span.name in SOLVE_SPANS and not _has_ancestor(spans, span, SOLVE_SPANS):
                busy += span.duration

    def total(name, key):
        return sum(counts.get(name, {}).get(key, []))

    eval_calls = calls.get("vector_field.eval", 0)
    eval_points = total("vector_field.eval", "points")
    ratios = counts.get("evolution.picard", {}).get("bound_over_resample", [])
    return {
        "vector_field.eval.calls": eval_calls,
        "vector_field.eval.points": eval_points,
        "vector_field.eval.points_per_call": eval_points / eval_calls if eval_calls else 0.0,
        "vector_field.eval.self_s": self_s.get("vector_field.eval", 0.0),
        "vector_field.jacobian.points": total("vector_field.jacobian", "points"),
        "vector_field.jacobian.self_s": self_s.get("vector_field.jacobian", 0.0),
        "vector_field.alpha.calls": calls.get("vector_field.alpha", 0),
        "vector_field.alpha.self_s": self_s.get("vector_field.alpha", 0.0),
        "vector_field.with_values.calls": calls.get("vector_field.with_values", 0),
        "vector_field.with_values.self_s": self_s.get("vector_field.with_values", 0.0),
        "evolution.picard.sweeps": total("evolution.picard", "sweeps"),
        "evolution.picard.segments": calls.get("evolution.picard", 0),
        "evolution.picard.self_s": self_s.get("evolution.picard", 0.0),
        "evolution.picard.bound_over_resample": float(np.median(ratios)) if ratios else 0.0,
        "evolution.subdivision.n": max(counts.get("evolution.evolve", {}).get("n", [0])),
        "evolution.residual.self_s": self_s.get("evolution.residual", 0.0),
        "evolution.rk4.steps": total("evolution.rk4", "steps"),
        "evolution.rk4.self_s": self_s.get("evolution.rk4", 0.0),
        "diff_group.star.calls": calls.get("diff_group.star", 0),
        "diff_group.star.self_s": self_s.get("diff_group.star", 0.0),
        "diff_group.d_rho.calls": calls.get("diff_group.d_rho", 0),
        "diff_group.d_rho.self_s": self_s.get("diff_group.d_rho", 0.0),
        "diff_group.distance.calls": calls.get("diff_group.distance", 0),
        "diff_group.distance.self_s": self_s.get("diff_group.distance", 0.0),
        "lp_space.timegrid.calls": calls.get("lp_space.timegrid", 0),
        "lp_space.timegrid.self_s": self_s.get("lp_space.timegrid", 0.0),
        "instances.resolve.self_s": self_s.get("instances.resolve", 0.0),
        "cli.self_s": self_s.get("cli", 0.0),
        "parallel.wait_s": self_s.get("parallel.map", 0.0),
        "cli.parallel_efficiency": busy / (threads * cli_s) if cli_s else 0.0,
    }


def _has_ancestor(spans: list[Span], span: Span, names) -> bool:
    i = span.parent
    while i is not None:
        if spans[i].name in names:
            return True
        i = spans[i].parent
    return False
