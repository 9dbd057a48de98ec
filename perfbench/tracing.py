"""Outside-in span tracing for the serve-level benchmark.

The benchmark leaves ``src/`` untouched: :func:`install` wraps public
calls of each layer (listed in :data:`TRACED_CALLS`) in place, so every
call records a span ``(id, parent, name, start_ns, end_ns, pid, n, m)``
in memory.  ``n`` and ``m`` carry a per-call count where one exists
(addresses in a burst, rows of a scoring batch, ...).  The current
span lives in a :class:`contextvars.ContextVar`, so parents stay right
across the async executor's interleaved tasks.

Forked shard children inherit the wrappers.  A ``multiprocessing``
after-fork hook clears the inherited spans in the child and registers
an exit finalizer that writes the child's spans to ``out_dir``;
:meth:`SpanRecorder.collect` merges them after ``FleetService.run``
has joined its pool.  Start times are ``time.perf_counter_ns`` (the
system-wide monotonic clock on Linux), so spans from all processes
share one time axis.

:func:`layer_metrics` turns the spans of one run into the per-layer
metrics listed in README.md.  Self time is a span's duration minus
the union of its child spans.
"""

from __future__ import annotations

import contextvars
import functools
import importlib
import inspect
import json
import os
import time
from collections import defaultdict
from multiprocessing import util as mp_util
from pathlib import Path
from typing import Callable, Dict, List, Sequence, Tuple

FIELDS = ("id", "parent", "name", "start_ns", "end_ns", "pid", "n", "m")

_current_span = contextvars.ContextVar("perfbench_current_span", default=0)


def _burst_size(args, kwargs, result):
    return len(args[1].addresses), 0


def _batch_records(args, kwargs, result):
    return len(args[1]), 0


def _score_rows(args, kwargs, result):
    rows = len(args[1])
    pad_to = kwargs.get("pad_to")
    return rows, max(rows, pad_to or 0)


def _shard_index(args, kwargs, result):
    return getattr(args[0], "shard", 0), 0


def _put_bytes(args, kwargs, result):
    return os.path.getsize(result), 0


#: (module, class or None for a module function, attribute, span name,
#: per-call count extractor).  A module function is listed once per
#: module that binds it by name (``from x import f``); all get the same
#: wrapper.
TRACED_CALLS: Tuple[tuple, ...] = (
    ("repro.serve.service", "FleetService", "run", "serve.run", None),
    ("repro.sim.platform", "Platform", "__init__", "sim.platform_build", None),
    ("repro.sim.platform", "Platform", "run_intervals", "sim.run_intervals", None),
    ("repro.sim.kernel.footprint", "CompiledFootprint", "sample",
     "sim.footprint_sample", None),
    ("repro.hw.memometer", "Memometer", "observe_burst", "hw.memometer_burst",
     _burst_size),
    ("repro.kernels", "FleetScorer", "score", "kernels.fleet_score", _score_rows),
    ("repro.serve.worker", "ShardWorker", "__init__", "serve.shard_start",
     _shard_index),
    ("repro.serve.worker", "ShardWorker", "score_batch",
     "serve.worker_score_batch", _batch_records),
    ("repro.serve.worker", "ShardWorker", "device_report",
     "serve.device_report", _shard_index),
    ("repro.serve.bus", "EventBus", "publish", "serve.bus_publish", None),
    ("repro.serve.bus", "EventBus", "publish_sync", "serve.bus_publish", None),
    ("repro.serve.drift", "DriftMonitor", "observe", "serve.drift", None),
    ("repro.serve.drift", "DriftMonitor", "status", "serve.drift", None),
    ("repro.serve.recalibrate", "RecalibrationController", "on_scored",
     "serve.recalibrate", None),
    ("repro.serve.registry", "DetectorRegistry", "fleet_payload",
     "serve.registry", None),
    ("repro.serve.report", "FleetReport", "build", "serve.report_build", None),
    ("repro.pipeline.training", None, "collect_training_data",
     "pipeline.training_collect", None),
    ("repro.pipeline.stages", None, "collect_training_data",
     "pipeline.training_collect", None),
    ("repro.pipeline.cache", "ArtifactCache", "fetch", "pipeline.cache_fetch",
     None),
    ("repro.pipeline.cache", "ArtifactCache", "get", "pipeline.cache_get", None),
    ("repro.pipeline.cache", "ArtifactCache", "put", "pipeline.cache_put",
     _put_bytes),
    ("repro.learn.pca", "Eigenmemory", "fit", "learn.pca_fit", None),
    ("repro.learn.gmm", "GaussianMixtureModel", "fit", "learn.gmm_fit", None),
    ("repro.learn.contexts", "ContextDetector", "fit", "learn.contexts_fit",
     None),
)


class SpanRecorder:
    """In-memory span buffer of one process (see the module docstring)."""

    def __init__(self, out_dir: Path):
        self.out_dir = Path(out_dir)
        self.spans: List[tuple] = []
        self.pid = os.getpid()
        self._next_id = 0
        mp_util.register_after_fork(self, SpanRecorder._after_fork)

    def next_id(self) -> int:
        self._next_id += 1
        return self.pid * 1_000_000_000 + self._next_id

    def _after_fork(self) -> None:
        self.spans = []
        self.pid = os.getpid()
        self._next_id = 0
        mp_util.Finalize(self, self.dump, exitpriority=100)

    def dump(self) -> None:
        path = self.out_dir / f"spans-{self.pid}.json"
        path.write_text(json.dumps(self.spans))

    def collect(self) -> List[tuple]:
        """This process's spans plus those every exited child wrote."""
        spans = list(self.spans)
        for path in sorted(self.out_dir.glob("spans-*.json")):
            spans.extend(tuple(span) for span in json.loads(path.read_text()))
            path.unlink()
        return spans


def _wrap(recorder: SpanRecorder, function: Callable, name: str, counts):
    clock = time.perf_counter_ns

    if inspect.iscoroutinefunction(function):

        @functools.wraps(function)
        async def async_wrapper(*args, **kwargs):
            parent = _current_span.get()
            span_id = recorder.next_id()
            token = _current_span.set(span_id)
            start = clock()
            try:
                return await function(*args, **kwargs)
            finally:
                _current_span.reset(token)
                recorder.spans.append(
                    (span_id, parent, name, start, clock(), recorder.pid, 0, 0)
                )

        return async_wrapper

    @functools.wraps(function)
    def wrapper(*args, **kwargs):
        parent = _current_span.get()
        span_id = recorder.next_id()
        token = _current_span.set(span_id)
        start = clock()
        n = m = 0
        try:
            result = function(*args, **kwargs)
            if counts is not None:
                n, m = counts(args, kwargs, result)
            return result
        finally:
            _current_span.reset(token)
            recorder.spans.append(
                (span_id, parent, name, start, clock(), recorder.pid, n, m)
            )

    return wrapper


def install(recorder: SpanRecorder) -> None:
    """Wrap every call in :data:`TRACED_CALLS` (call once per process)."""
    wrapped_functions: Dict[tuple, Callable] = {}
    for module_name, class_name, attr, name, counts in TRACED_CALLS:
        module = importlib.import_module(module_name)
        if class_name is None:
            function = getattr(module, attr)
            key = (function.__module__, function.__qualname__)
            if key not in wrapped_functions:
                wrapped_functions[key] = _wrap(recorder, function, name, counts)
            setattr(module, attr, wrapped_functions[key])
            continue
        owner = getattr(module, class_name)
        raw = inspect.getattr_static(owner, attr)
        if isinstance(raw, classmethod):
            setattr(owner, attr, classmethod(_wrap(recorder, raw.__func__, name, counts)))
        elif isinstance(raw, staticmethod):
            setattr(owner, attr, staticmethod(_wrap(recorder, raw.__func__, name, counts)))
        else:
            setattr(owner, attr, _wrap(recorder, raw, name, counts))


# -- aggregation -----------------------------------------------------------


def _covered_ns(start: int, end: int, intervals: Sequence[Tuple[int, int]]) -> int:
    """Length of ``[start, end)`` covered by the union of ``intervals``."""
    covered = 0
    cursor = start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, cursor), min(hi, end)
        if hi > lo:
            covered += hi - lo
            cursor = hi
    return covered


class _Layer:
    __slots__ = ("calls", "total_ns", "self_ns", "n", "m")

    def __init__(self):
        self.calls = 0
        self.total_ns = 0
        self.self_ns = 0
        self.n = 0
        self.m = 0


def summarize(spans: Sequence[tuple]) -> Dict[str, _Layer]:
    """Per span name: calls, inclusive and self time, summed counts.

    A span nested inside a span of the same name adds to ``calls``,
    ``n`` and ``m`` but not to the inclusive time, so time is never
    counted twice.
    """
    by_id = {span[0]: span for span in spans}
    children: Dict[int, List[Tuple[int, int]]] = defaultdict(list)
    for span in spans:
        children[span[1]].append((span[3], span[4]))
    layers: Dict[str, _Layer] = defaultdict(_Layer)
    for span_id, parent, name, start, end, _pid, n, m in spans:
        layer = layers[name]
        layer.calls += 1
        layer.n += n
        layer.m += m
        duration = end - start
        layer.self_ns += duration - _covered_ns(start, end, children.get(span_id, ()))
        ancestor = by_id.get(parent)
        while ancestor is not None and ancestor[2] != name:
            ancestor = by_id.get(ancestor[1])
        if ancestor is None:
            layer.total_ns += duration
    return layers


def layer_metrics(spans: Sequence[tuple], shards: int) -> Dict[str, float]:
    """The benchmark's per-layer metrics for the spans of one run."""
    layers = summarize(spans)
    empty = _Layer()

    def get(name: str) -> _Layer:
        return layers.get(name, empty)

    def seconds(name: str) -> float:
        return get(name).total_ns / 1e9

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    run_s = seconds("serve.run")
    # Shard wall: from a ShardWorker's construction to its last device
    # report, per (process, shard).
    first: Dict[tuple, int] = {}
    last: Dict[tuple, int] = {}
    for _id, _parent, name, start, end, pid, n, _m in spans:
        key = (pid, n)
        if name == "serve.shard_start":
            first[key] = min(first.get(key, start), start)
        elif name == "serve.device_report":
            last[key] = max(last.get(key, end), end)
    walls = [(last[key] - first[key]) / 1e9 for key in first if key in last]
    bursts = get("hw.memometer_burst")
    batches = get("serve.worker_score_batch")
    scores = get("kernels.fleet_score")
    return {
        "serve.run_s": run_s,
        "sim.platform_build_s": seconds("sim.platform_build"),
        "sim.platform_builds": get("sim.platform_build").calls,
        "sim.interval_self_s": get("sim.run_intervals").self_ns / 1e9,
        "sim.interval_wall_share": ratio(seconds("sim.run_intervals"), run_s * shards),
        "sim.footprint_sample_s": seconds("sim.footprint_sample"),
        "sim.footprint_samples": get("sim.footprint_sample").calls,
        "hw.memometer_burst_s": seconds("hw.memometer_burst"),
        "hw.memometer_bursts": bursts.calls,
        "hw.memometer_addresses_per_burst": ratio(bursts.n, bursts.calls),
        "kernels.fleet_score_s": seconds("kernels.fleet_score"),
        "kernels.fleet_score_calls": scores.calls,
        "kernels.score_rows_filled": ratio(scores.n, scores.m),
        "serve.registry_s": seconds("serve.registry"),
        "serve.worker_score_batch_s": seconds("serve.worker_score_batch"),
        "serve.worker_records_per_batch": ratio(batches.n, batches.calls),
        "serve.bus_publish_s": seconds("serve.bus_publish"),
        "serve.bus_events": get("serve.bus_publish").calls,
        "serve.drift_s": seconds("serve.drift"),
        "serve.recalibrate_s": seconds("serve.recalibrate"),
        "serve.report_s": seconds("serve.report_build") + seconds("serve.device_report"),
        "serve.shard_wall_s": max(walls, default=0.0),
        "serve.shard_skew": ratio(max(walls, default=0.0), sum(walls) / len(walls)) if walls else 0.0,
        "pipeline.training_collect_s": seconds("pipeline.training_collect"),
        "pipeline.cache_fetch_s": seconds("pipeline.cache_get"),
        "pipeline.cache_put_s": seconds("pipeline.cache_put"),
        "pipeline.cache_put_bytes": get("pipeline.cache_put").n,
        "learn.pca_fit_s": seconds("learn.pca_fit"),
        "learn.gmm_fit_s": seconds("learn.gmm_fit"),
        "learn.contexts_fit_s": seconds("learn.contexts_fit"),
    }
