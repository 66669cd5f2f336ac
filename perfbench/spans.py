"""Span tracing of the library's public entry points, from outside.

The benchmark measures each layer without touching the library: a
:class:`Tracer` replaces selected functions and methods with thin
wrappers that record one span per call, and puts the originals back on
:meth:`Tracer.uninstall`.  A span holds its name, start, end, the span
that caused it and the request it belongs to.  Spans stay in memory
until the run ends; :func:`layer_times` turns them into per-layer call
counts and self times, and :func:`chrome_trace_events` into the Chrome
trace-event format that :mod:`repro.gpu.tracing` also emits.
"""

from __future__ import annotations

import functools
import sys
import threading
import time
from dataclasses import dataclass

#: Name of the benchmark's own root span, one per timed operation.
ROOT = "bench.op"


@dataclass
class Span:
    id: int
    parent: int | None
    name: str
    request: str | None
    thread: int
    start: float
    end: float = 0.0


class Tracer:
    """Records spans; thread-safe; one instance per traced run."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []
        self._request_roots: dict[object, Span] = {}
        #: Cleared around work outside the timed operations (a stream
        #: pass registering its tenants), so no span lacks an operation.
        self.recording = True

    # -- recording ------------------------------------------------------

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str, request: str | None = None,
              parent: Span | None = None) -> Span:
        stack = self._stack()
        if parent is None and stack:
            parent = stack[-1]
        if request is None and parent is not None:
            request = parent.request
        with self._lock:
            span = Span(len(self.spans), None if parent is None else parent.id,
                        name, request, threading.get_ident(),
                        time.perf_counter())
            self.spans.append(span)
        stack.append(span)
        return span

    def end(self, span: Span) -> None:
        span.end = time.perf_counter()
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()

    def adopt(self, key, span: Span) -> None:
        """Remember ``span`` as the cause of work keyed by ``key`` that
        another thread will pick up (a queued service job)."""
        with self._lock:
            self._request_roots[key] = span

    def adopted(self, key) -> Span | None:
        with self._lock:
            return self._request_roots.get(key)

    # -- patching -------------------------------------------------------

    def _set(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def wrap_method(self, cls, attr: str, name: str, enter=None) -> None:
        """Wrap ``cls.attr`` (defined on ``cls`` itself) in a span.

        ``enter(args)`` may return ``(request, parent)`` to root the span
        in work started on another thread.
        """
        original = cls.__dict__[attr]
        self._set(cls, attr, self._wrapper(original, name, enter))

    def wrap_function(self, module, attr: str, name: str) -> None:
        """Wrap a module-level function in every ``repro`` module that
        bound it by name (``from .x import f`` copies the reference)."""
        original = getattr(module, attr)
        wrapper = self._wrapper(original, name, None)
        for mod_name, mod in list(sys.modules.items()):
            if (mod_name == "repro" or mod_name.startswith("repro.")) and (
                getattr(mod, "__dict__", {}).get(attr) is original
            ):
                self._set(mod, attr, wrapper)

    def _wrapper(self, original, name: str, enter):
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            if not tracer.recording:
                return original(*args, **kwargs)
            request = parent = None
            if enter is not None:
                request, parent = enter(args)
            span = tracer.begin(name, request, parent)
            try:
                return original(*args, **kwargs)
            finally:
                tracer.end(span)

        return traced

    def uninstall(self) -> None:
        """Restore every patched attribute, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


def install_layers(tracer: Tracer) -> None:
    """Wrap the public entry point of every layer the benchmark reports."""
    from repro.autotune.planner import AutoTuner
    from repro.cluster.dispatcher import ClusterDispatcher
    from repro.core import api, planner
    from repro.engine import dispatch
    from repro.engine.accumulate import ProfileAccumulator
    from repro.engine.backends import NumericBackend
    from repro.engine.checkpoint import RunJournal
    from repro.engine.plan import JobSpec
    from repro.engine.precalc_cache import PrecalcPlaneCache
    from repro.kernels.dist_calc import DistCalcKernel
    from repro.kernels.precalc import PrecalcKernel
    from repro.kernels.sort_scan import SortScanKernel
    from repro.kernels.sort_scan_batch import BatchSortScanKernel
    from repro.kernels.tc_gemm import TcGemmKernel
    from repro.kernels.update import UpdateKernel
    from repro.service.cache import ResultCache
    from repro.service.scheduler import TileScheduler
    from repro.service.service import MatrixProfileService
    from repro.streams.incremental import IncrementalMatrixProfile, StreamPlaneCache
    from repro.streams.ingest import StreamIngestService
    from repro.streams.sketch import SketchMonitor

    method = tracer.wrap_method
    method(DistCalcKernel, "run", "kernels.dist_calc")
    method(DistCalcKernel, "run_block", "kernels.dist_calc")
    method(TcGemmKernel, "run_block", "kernels.tc_gemm")
    method(SortScanKernel, "run", "kernels.sort_scan")
    method(BatchSortScanKernel, "run", "kernels.sort_scan")
    for attr in ("run", "run_block", "masked_run"):
        method(UpdateKernel, attr, "kernels.update")
    method(PrecalcKernel, "run", "kernels.precalc")
    method(PrecalcPlaneCache, "prepare", "engine.precalc_prepare")
    method(StreamPlaneCache, "prepare", "engine.precalc_prepare")
    method(JobSpec, "plan", "engine.plan")
    tracer.wrap_function(dispatch, "execute_plan", "engine.execute_plan")
    method(NumericBackend, "run", "engine.backend_run")
    method(ProfileAccumulator, "add", "engine.merge")
    method(RunJournal, "record", "engine.journal")
    method(ClusterDispatcher, "run", "cluster.run")
    method(AutoTuner, "tune", "autotune.tune")
    tracer.wrap_function(planner, "plan_tiles", "core.plan_tiles")
    tracer.wrap_function(api, "matrix_profile", "core.matrix_profile")
    method(ResultCache, "get", "service.result_cache")
    method(ResultCache, "put", "service.result_cache")
    method(TileScheduler, "execute", "service.scheduler_execute")
    method(StreamIngestService, "ingest", "streams.ingest")
    method(IncrementalMatrixProfile, "cover", "streams.cover")
    method(IncrementalMatrixProfile, "probe", "streams.probe")
    method(SketchMonitor, "score", "streams.sketch_score")

    # A service job is submitted on a client thread and executed on a
    # worker thread: the submit wrapper records the client's operation
    # span under the job id, and the worker-side span adopts it as parent.
    submit = MatrixProfileService.__dict__["submit"]

    @functools.wraps(submit)
    def traced_submit(self, request):
        span = tracer.begin("service.submit")
        try:
            job = submit(self, request)
        finally:
            tracer.end(span)
        if span.parent is not None:
            tracer.adopt(job.job_id, tracer.spans[span.parent])
        return job

    tracer._set(MatrixProfileService, "submit", traced_submit)

    def job_root(args):
        root = tracer.adopted(args[1].job_id)
        return (None, None) if root is None else (root.request, root)

    method(MatrixProfileService, "_process", "service.process", enter=job_root)


# -- analysis -------------------------------------------------------------


def _union_length(intervals: list[tuple[float, float]]) -> float:
    total, cur_start, cur_end = 0.0, None, None
    for start, stop in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, stop
        else:
            cur_end = max(cur_end, stop)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def clipped_intervals(spans: list[Span]) -> dict[int, tuple[float, float]]:
    """Each span's interval clipped to its parent's (clipped) interval.

    A worker-side span can outlive the client operation that caused it
    by the few microseconds the worker needs to return; clipping keeps
    every self time inside the operation it is charged to.
    """
    clipped: dict[int, tuple[float, float]] = {}
    for span in spans:  # parents are recorded before their children
        start, stop = span.start, span.end
        if span.parent is not None and span.parent in clipped:
            p_start, p_stop = clipped[span.parent]
            start, stop = max(start, p_start), min(stop, p_stop)
        clipped[span.id] = (start, max(start, stop))
    return clipped


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the union its child spans cover."""
    clipped = clipped_intervals(spans)
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(clipped[span.id])
    out = {}
    for span in spans:
        start, stop = clipped[span.id]
        out[span.id] = (stop - start) - _union_length(children.get(span.id, []))
    return out


def layer_times(spans: list[Span]) -> dict[str, dict[str, float]]:
    """Span name -> ``{"calls", "self_s"}`` over every recorded span."""
    selfs = self_times(spans)
    out: dict[str, dict[str, float]] = {}
    for span in spans:
        row = out.setdefault(span.name, {"calls": 0, "self_s": 0.0})
        row["calls"] += 1
        row["self_s"] += selfs[span.id]
    return out


def chrome_trace_events(spans: list[Span]) -> list[dict]:
    """Spans as Trace Event Format complete ("X") events, one trace
    thread per host thread, timestamps in microseconds from the first
    span."""
    if not spans:
        return []
    origin = min(span.start for span in spans)
    tids: dict[int, int] = {}
    events = [{"ph": "M", "name": "process_name", "pid": 0,
               "args": {"name": "host (measured)"}}]
    for span in spans:
        if span.thread not in tids:
            tids[span.thread] = len(tids)
            events.append({"ph": "M", "name": "thread_name", "pid": 0,
                           "tid": tids[span.thread],
                           "args": {"name": f"thread {tids[span.thread]}"}})
        events.append({
            "ph": "X", "name": span.name, "cat": span.name.split(".")[0],
            "pid": 0, "tid": tids[span.thread],
            "ts": (span.start - origin) * 1e6,
            "dur": (span.end - span.start) * 1e6,
            "args": {"id": span.id, "parent": span.parent,
                     "request": span.request},
        })
    return events
