"""Layer tracing for the benchmark, installed from outside the program.

:class:`LayerTracer` wraps the public entry point of each analyzer layer
at every place the loaded ``repro`` modules refer to it, records one
span per call (name, start, end, parent, request id) in memory, and
removes the wrappers again.  Nothing under ``src/`` is edited: the
wrappers exist only while :meth:`LayerTracer.installed` is active.

Chain solves of a ``jobs > 1`` run happen in forked pool workers.  The
workers inherit the wrappers through the fork; :func:`traced_solve_task`
(the worker-side wrapper of :func:`repro.perf.pool.solve_task`) ships the
spans a task recorded back inside the result's otherwise unused
``metrics`` field, and the parent-side wrapper of
:meth:`repro.perf.pool.SolverFarm.run_batched` takes them off again
before the analyzer sees the result.

Self time is computed per process: a span's self time is its duration
minus the part of it that child spans of the same process cover.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import os
import sys
import time
from contextlib import contextmanager

#: (layer name, defining module, function) of every wrapped function.
FUNCTIONS = (
    ("analyzer", "repro.core.analyzer", "analyze"),
    ("to_static", "repro.core.to_static", "to_static"),
    ("worst_case", "repro.core.worst_case", "worst_case_probabilities"),
    ("classify", "repro.core.classify", "classification_report"),
    ("mocus", "repro.ft.mocus", "mocus"),
    ("incremental", "repro.service.incremental", "incremental_cutsets"),
    ("cache.encode", "repro.robust.checkpoint", "record_to_dict"),
    ("cache.decode", "repro.robust.checkpoint", "record_from_dict"),
    ("cutset_model", "repro.core.cutset_model", "build_cutset_model"),
    ("quantify", "repro.core.quantify", "quantify_model"),
    ("fingerprint", "repro.perf.fingerprint", "model_signature"),
    ("product", "repro.ctmc.product", "build_product"),
    ("transient", "repro.ctmc.transient", "reach_probability"),
)

#: (layer name, class path, method names) of every wrapped method.
METHODS = (
    ("cache.read", "repro.perf.cache", "SolveCache",
     ("get_solve", "get_mocus", "get_records", "get_bdd")),
    ("cache.write", "repro.perf.cache", "SolveCache",
     ("put_solve", "put_mocus", "put_records", "put_bdd")),
)

#: Key under which a worker ships its spans inside ``SolveResult.metrics``.
_SHIP_KEY = "perfbench.spans"

#: The tracer whose wrappers are installed (inherited by forked workers).
_ACTIVE: "LayerTracer | None" = None


@dataclasses.dataclass
class Span:
    """One recorded call.  Times are ``time.perf_counter()`` seconds;
    ``cpu`` is the calling process's CPU time spent inside the span."""

    name: str
    start: float
    end: float
    parent: int | None
    request: int
    pid: int
    attrs: dict
    cpu: float = 0.0


class LayerTracer:
    """In-memory span recorder plus the wrapper installation."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.request = -1
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []
        #: Offset from ``perf_counter`` to epoch seconds, for export.
        self.epoch_offset = time.time() - time.perf_counter()

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------

    def open(self, name: str, **attrs) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(
            Span(name, time.perf_counter(), 0.0, parent, self.request,
                 os.getpid(), attrs, time.process_time())
        )
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        span = self.spans[index]
        span.end = time.perf_counter()
        span.cpu = time.process_time() - span.cpu
        self._stack.pop()

    @contextmanager
    def span(self, name: str, **attrs):
        index = self.open(name, **attrs)
        try:
            yield self.spans[index]
        finally:
            self.close(index)

    def adopt(self, shipped: list[dict], parent: int | None) -> None:
        """Graft spans a worker shipped back under ``parent``."""
        base = len(self.spans)
        for raw in shipped:
            local_parent = raw["parent"]
            self.spans.append(
                Span(raw["name"], raw["start"], raw["end"],
                     parent if local_parent is None else base + local_parent,
                     self.request, raw["pid"], raw["attrs"], raw["cpu"])
            )

    # ------------------------------------------------------------------
    # Installation
    # ------------------------------------------------------------------

    @contextmanager
    def installed(self):
        """Wrap every layer entry point for the duration of the block."""
        global _ACTIVE
        if _ACTIVE is not None:
            raise RuntimeError("layer tracing is already installed")
        from repro.perf import pool

        _ACTIVE = self
        try:
            for name, module_name, attr in FUNCTIONS:
                original = getattr(importlib.import_module(module_name), attr)
                self._replace_everywhere(original, _wrap(self, name, original))
            for name, module_name, cls_name, methods in METHODS:
                cls = getattr(importlib.import_module(module_name), cls_name)
                for method in methods:
                    original = cls.__dict__[method]
                    self._set(cls, method, _wrap(self, name, original))
            self._replace_everywhere(pool.solve_task, traced_solve_task)
            self._set(
                pool.SolverFarm,
                "run_batched",
                _wrap_run_batched(self, pool.SolverFarm.run_batched),
            )
            yield self
        finally:
            while self._undo:
                owner, attr, original = self._undo.pop()
                setattr(owner, attr, original)
            _ACTIVE = None

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _replace_everywhere(self, original, wrapper) -> None:
        """Point every ``repro`` module global bound to ``original`` at
        ``wrapper`` (the defining module and every importer)."""
        for module_name, module in list(sys.modules.items()):
            if module is None or not module_name.startswith("repro"):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._set(module, attr, wrapper)


def _wrap(tracer: LayerTracer, name: str, original):
    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        index = tracer.open(name)
        try:
            result = original(*args, **kwargs)
        finally:
            tracer.close(index)
        _annotate(tracer.spans[index], name, result)
        return result

    return wrapper


def _annotate(span: Span, name: str, result) -> None:
    """Attach the counts a layer's return value carries to its span."""
    if name == "mocus":
        span.attrs.update(
            cutsets=len(result.cutsets),
            partials_expanded=result.stats.partials_expanded,
            minimal=result.stats.minimal,
        )
    elif name == "product":
        span.attrs["states"] = result.n_states
    elif name == "cache.read":
        span.attrs["hit"] = result is not None


def _wrap_run_batched(tracer: LayerTracer, original):
    """Time the parent's calls into the farm; adopt the workers' spans."""

    @functools.wraps(original)
    def run_batched(self, tasks):
        iterator = original(self, tasks)
        owner = tracer._stack[-1] if tracer._stack else None
        while True:
            index = tracer.open("pool")
            try:
                result = next(iterator)
            except StopIteration:
                tracer.close(index)
                return
            except BaseException:
                tracer.close(index)
                raise
            tracer.close(index)
            metrics = result.metrics
            if isinstance(metrics, dict) and _SHIP_KEY in metrics:
                tracer.adopt(metrics[_SHIP_KEY], owner)
                rest = {k: v for k, v in metrics.items() if k != _SHIP_KEY}
                result = dataclasses.replace(result, metrics=rest or None)
            yield result

    return run_batched


def traced_solve_task(task):
    """Worker-side wrapper of :func:`repro.perf.pool.solve_task`.

    Module-level so the pool can pickle it by reference; a forked worker
    finds the inherited tracer in :data:`_ACTIVE` and records the task's
    spans into a fresh worker-local list.
    """
    from repro.perf import pool

    tracer = _ACTIVE
    original = next(
        value for owner, attr, value in tracer._undo
        if owner is pool and attr == "solve_task"
    )
    inherited = tracer.spans, tracer._stack
    tracer.spans, tracer._stack = [], []
    try:
        with tracer.span("pool.task", task_id=task.task_id):
            result = original(task)
        shipped = [
            {"name": s.name, "start": s.start, "end": s.end,
             "parent": s.parent, "pid": s.pid, "attrs": s.attrs, "cpu": s.cpu}
            for s in tracer.spans
        ]
    finally:
        tracer.spans, tracer._stack = inherited
    metrics = dict(result.metrics or {})
    metrics[_SHIP_KEY] = shipped
    return dataclasses.replace(result, metrics=metrics)


# ----------------------------------------------------------------------
# Analysis of recorded spans
# ----------------------------------------------------------------------


def self_times(spans: list[Span]) -> list[float]:
    """Self time of every span (same-process children subtracted)."""
    children: dict[int, list[int]] = {}
    for index, span in enumerate(spans):
        if span.parent is not None and spans[span.parent].pid == span.pid:
            children.setdefault(span.parent, []).append(index)
    result = []
    for index, span in enumerate(spans):
        covered = 0.0
        reach = span.start
        intervals = sorted(
            (max(spans[c].start, span.start), min(spans[c].end, span.end))
            for c in children.get(index, ())
        )
        for start, end in intervals:
            start = max(start, reach)
            if end > start:
                covered += end - start
                reach = end
        result.append(max(0.0, (span.end - span.start) - covered))
    return result


def export(tracer: LayerTracer, path: str, attrs: dict) -> None:
    """Write the spans as a ``repro-trace/1`` JSONL file."""
    from repro.obs.export import write_trace
    from repro.obs.trace import SpanRecord

    records = [
        SpanRecord(
            name=span.name,
            t0=span.start + tracer.epoch_offset,
            wall_seconds=span.end - span.start,
            cpu_seconds=max(0.0, span.cpu),
            span_id=str(index),
            parent_id=None if span.parent is None else str(span.parent),
            depth=_depth(tracer.spans, index),
            attrs={"request": span.request, "pid": span.pid, **span.attrs},
        )
        for index, span in enumerate(tracer.spans)
    ]
    write_trace(path, records, None, attrs=attrs)


def _depth(spans: list[Span], index: int) -> int:
    depth = 0
    while spans[index].parent is not None:
        index = spans[index].parent
        depth += 1
    return depth
