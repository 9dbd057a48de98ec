"""``repro.obs`` — metrics, logs, traces and run provenance.

The reproduction observes a running system (the Memometer snoops the
fetch stream; the secure core must finish each analysis inside the
monitoring interval), so the reproduction itself must be observable:
where does simulation time go, how many accesses did each component
process, how close is per-interval analysis to its budget?  This
package answers those questions without ever perturbing results —
instrumentation only *reads* wall-clock time and simulated state, and
the test suite asserts bit-identical outputs with observability on and
off.

Four pillars:

* **metrics** (:mod:`.registry`) — process-wide counters, gauges and
  fixed-bucket histograms (now with labelled families and
  reservoir-sampled quantile estimation), wall-clock ``span`` timers,
  OpenMetrics text exposition (:mod:`.openmetrics`) and periodic
  snapshot files (:mod:`.snapshots`) for the ``repro top`` dashboard;
* **structured logs** (:mod:`.log`) — schema-versioned JSON event
  lines with a registered-event vocabulary, ring-buffer and file
  sinks;
* **tracing** (:mod:`.tracer`) — simulator and fleet events with
  simulated-time timestamps, exported as Chrome trace-event JSON
  (open in ``chrome://tracing`` / Perfetto) or JSONL; cross-stage
  correlation via deterministic :class:`~repro.obs.context.TraceContext`
  ids;
* **provenance** (:mod:`.manifest`) — a run manifest recording
  config, seeds, versions, host and a metrics snapshot alongside any
  output artefact.

Usage contract
--------------
Observability is **disabled by default**: the globals below hand out
shared no-op instruments whose methods do nothing, so instrumented hot
loops pay one bound-method call.  Components cache their instruments
at construction, therefore :func:`enable` must run *before* the
instrumented objects (``Platform``, ``MhmDetector``...) are built:

    from repro import obs

    registry, tracer = obs.enable()
    platform = Platform(PlatformConfig(seed=7))   # now instrumented
    ...
    tracer.write_chrome("trace.json")
    print(registry.snapshot())
    obs.disable()

or, scoped (used throughout the tests)::

    with obs.observed() as (registry, tracer):
        ...

:func:`enable` keeps its historical ``(registry, tracer)`` return; the
structured logger installed alongside them is reached with
:func:`logger` (named so the :mod:`repro.obs.log` *module* attribute
is not shadowed).
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterable, Optional, Tuple, Union

from .context import TraceContext, trace_args
from .log import (
    EVENTS,
    LOG_SCHEMA_VERSION,
    NOOP_LOGGER,
    EventSpec,
    FileSink,
    NoopLogger,
    RingBufferSink,
    StructuredLogger,
    register_event,
)
from .manifest import RunInfo, host_info, to_jsonable
from .openmetrics import render_openmetrics, write_openmetrics
from .registry import (
    DEFAULT_RESERVOIR_SIZE,
    DEFAULT_TIME_BUCKETS_US,
    NOOP_METRICS,
    Counter,
    Gauge,
    Histogram,
    MetricFamily,
    MetricsRegistry,
    NoopMetricsRegistry,
    Span,
    labeled_name,
    log_buckets,
)
from .snapshots import SnapshotWriter, latest_snapshots, load_snapshots
from .timing import span
from .tracer import NOOP_TRACER, TRACE_CATEGORIES, EventTracer, NoopTracer

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricFamily",
    "Span",
    "span",
    "MetricsRegistry",
    "NoopMetricsRegistry",
    "EventTracer",
    "NoopTracer",
    "StructuredLogger",
    "NoopLogger",
    "RingBufferSink",
    "FileSink",
    "EventSpec",
    "EVENTS",
    "register_event",
    "TraceContext",
    "trace_args",
    "SnapshotWriter",
    "load_snapshots",
    "latest_snapshots",
    "render_openmetrics",
    "write_openmetrics",
    "RunInfo",
    "host_info",
    "to_jsonable",
    "DEFAULT_TIME_BUCKETS_US",
    "DEFAULT_RESERVOIR_SIZE",
    "TRACE_CATEGORIES",
    "LOG_SCHEMA_VERSION",
    "labeled_name",
    "log_buckets",
    "metrics",
    "tracer",
    "logger",
    "is_enabled",
    "enable",
    "disable",
    "observed",
]

_metrics: Union[MetricsRegistry, NoopMetricsRegistry] = NOOP_METRICS
_tracer: Union[EventTracer, NoopTracer] = NOOP_TRACER
_logger: Union[StructuredLogger, NoopLogger] = NOOP_LOGGER


def metrics() -> Union[MetricsRegistry, NoopMetricsRegistry]:
    """The current process-wide metrics registry (no-op when disabled)."""
    return _metrics


def tracer() -> Union[EventTracer, NoopTracer]:
    """The current process-wide event tracer (no-op when disabled)."""
    return _tracer


def logger() -> Union[StructuredLogger, NoopLogger]:
    """The current process-wide structured logger (no-op when disabled)."""
    return _logger


def is_enabled() -> bool:
    return _metrics.enabled or _tracer.enabled or _logger.enabled


def enable(
    with_metrics: bool = True,
    with_tracing: bool = True,
    with_logging: bool = True,
    trace_categories: Optional[Iterable[str]] = None,
) -> Tuple[Union[MetricsRegistry, NoopMetricsRegistry], Union[EventTracer, NoopTracer]]:
    """Install fresh live instruments; returns ``(registry, tracer)``.

    Must be called before constructing the objects to observe — they
    cache their instruments at ``__init__`` time.  The structured
    logger is installed too (reach it via :func:`logger`); pass
    ``with_logging=False`` to leave it disabled.  ``trace_categories``
    restricts the tracer to a category allow-list (the fleet service
    passes ``("serve", "alarm")`` to keep soak traces bounded).
    """
    global _metrics, _tracer, _logger
    if with_metrics:
        _metrics = MetricsRegistry()
    if with_tracing:
        _tracer = EventTracer(categories=trace_categories)
    if with_logging:
        _logger = StructuredLogger()
    return _metrics, _tracer


def disable() -> None:
    """Reset all globals to the shared no-op singletons."""
    global _metrics, _tracer, _logger
    _logger.close()
    _metrics = NOOP_METRICS
    _tracer = NOOP_TRACER
    _logger = NOOP_LOGGER


@contextmanager
def observed(
    with_metrics: bool = True,
    with_tracing: bool = True,
    with_logging: bool = True,
    trace_categories: Optional[Iterable[str]] = None,
):
    """Scoped :func:`enable`; restores the previous globals on exit."""
    global _metrics, _tracer, _logger
    previous = (_metrics, _tracer, _logger)
    try:
        yield enable(
            with_metrics=with_metrics,
            with_tracing=with_tracing,
            with_logging=with_logging,
            trace_categories=trace_categories,
        )
    finally:
        if _logger is not previous[2]:
            _logger.close()
        _metrics, _tracer, _logger = previous
