"""Deterministic trace contexts: one trace per device-interval.

A fleet run scores tens of thousands of device-intervals through four
stages (device stream → event bus → shard worker → report).  To debug
one of them end-to-end you need every stage's telemetry to carry the
same correlation id — and for the reproduction's determinism story,
that id must be a *pure function of the run*, not a random UUID.

:class:`TraceContext` derives everything from ``(seed, device_id,
interval_index)`` with sha256:

* ``trace_id`` — 32 hex chars identifying the device-interval's whole
  journey;
* ``span_id`` — 16 hex chars identifying one stage's span within the
  trace; children derive from ``(trace_id, parent span_id, name)``, so
  the span *tree* is reproducible too (the telemetry determinism suite
  runs the same serve twice in fresh interpreters and asserts identical
  trace ids and parent/child links).

Contexts ride on :class:`~repro.sim.fleet.IntervalRecord` (plain
frozen dataclass — picklable, crosses shard process boundaries) and
are flattened into trace-event ``args`` and structured-log records.
Span *status* records how the stage ended (``ok`` / ``anomalous`` /
``skipped`` / ``dropped``), with fault-site firings from
:mod:`repro.faults` surfacing as ``skipped`` + a reason.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Optional

__all__ = ["TraceContext", "trace_args"]

_ROOT_SPAN_NAME = "interval"


def _digest(payload: str, length: int) -> str:
    return hashlib.sha256(payload.encode()).hexdigest()[:length]


@dataclass(frozen=True)
class TraceContext:
    """One span's identity within a deterministic trace."""

    trace_id: str
    span_id: str
    parent_id: Optional[str] = None
    name: str = _ROOT_SPAN_NAME

    @classmethod
    def for_interval(
        cls, seed: int, device_id: str, interval_index: int
    ) -> "TraceContext":
        """The root span of one device-interval's journey.

        ``trace_id`` is sha256 over ``(seed, device_id, interval)`` —
        two runs of the same fleet seed assign every record the same
        trace, regardless of shard count or interleaving.
        """
        trace_id = _digest(f"{seed}:{device_id}:{interval_index}", 32)
        span_id = _digest(f"{trace_id}:{_ROOT_SPAN_NAME}", 16)
        return cls(trace_id=trace_id, span_id=span_id, parent_id=None)

    def child(self, name: str) -> "TraceContext":
        """A child span for stage ``name`` (deterministic id)."""
        span_id = _digest(f"{self.trace_id}:{self.span_id}:{name}", 16)
        return TraceContext(
            trace_id=self.trace_id,
            span_id=span_id,
            parent_id=self.span_id,
            name=name,
        )


def trace_args(
    context: Optional[TraceContext],
    status: Optional[str] = None,
    **extra,
) -> dict:
    """Trace-event ``args`` for a span: ids, status, extras.

    Shared by every stage so trace events stay uniform — a Perfetto
    query on ``args.trace_id`` reconstructs the full journey.
    """
    args = dict(extra)
    if context is not None:
        args["trace_id"] = context.trace_id
        args["span_id"] = context.span_id
        if context.parent_id is not None:
            args["parent_id"] = context.parent_id
    if status is not None:
        args["status"] = status
    return args
