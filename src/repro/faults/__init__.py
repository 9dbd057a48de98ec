"""``repro.faults`` — deterministic, seedable fault injection.

The paper's architecture is built around surviving misbehaviour: the
SecureCore monitor must keep producing verdicts while the monitored
core is compromised.  This package lets the reproduction hold its own
pipeline to that standard.  Named injection sites are threaded through
the hot paths (artifact-cache reads/writes, worker job execution, the
fit/replay stages, the online-verdict loop); a :class:`FaultPlan`
decides — purely, from a seed and a per-invocation token — which
invocations raise, stall, corrupt or truncate.

Usage::

    from repro import faults

    plan = faults.FaultPlan(
        sites={"cache.read": faults.FaultSpec(mode="corrupt", probability=0.2)},
        seed=7,
    )
    with faults.injected(plan):
        runner.run(jobs)          # ~20% of cache reads hand back rotten bytes

or process-wide with :func:`install` / :func:`uninstall`.  The
:class:`~repro.pipeline.runner.ExperimentRunner` accepts a plan
directly (``fault_plan=``) and ships it to its worker processes.

**Zero-overhead when idle**: with no plan installed, every site check
is one global read and a ``None`` comparison; pipeline outputs are
bit-identical with and without this package in the picture (asserted
by the fault-campaign test suite and the golden fixtures).
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Optional

from .. import obs
from .plan import (
    FAULT_MODES,
    KNOWN_SITES,
    FaultError,
    FaultPlan,
    FaultSpec,
    uniform_hash,
)

__all__ = [
    "FAULT_MODES",
    "KNOWN_SITES",
    "FaultError",
    "FaultPlan",
    "FaultSpec",
    "uniform_hash",
    "active",
    "install",
    "uninstall",
    "injected",
    "check",
    "mangle",
]

_active: Optional[FaultPlan] = None


def active() -> Optional[FaultPlan]:
    """The currently installed plan (``None`` = faults disabled)."""
    return _active


def install(plan: FaultPlan) -> FaultPlan:
    """Install a plan process-wide; subsequent site checks consult it."""
    global _active
    _active = plan
    return plan


def uninstall() -> None:
    global _active
    _active = None


@contextmanager
def injected(plan: Optional[FaultPlan]):
    """Scoped :func:`install`; restores the previous plan on exit.

    ``injected(None)`` is a no-op pass-through, so callers can thread
    an optional plan without branching.
    """
    global _active
    previous = _active
    if plan is not None:
        _active = plan
    try:
        yield plan
    finally:
        _active = previous


def check(site: str, token: str = "-") -> Optional[FaultSpec]:
    """Evaluate an injection site; the hot-path entry point.

    With no plan installed this returns ``None`` immediately.  When the
    plan fires a fault here:

    * ``raise`` mode raises :class:`FaultError` (callers do *not*
      catch it unless graceful degradation is their contract — the
      shard worker's ``serve.score`` does, the cache does not);
    * ``delay`` mode sleeps ``delay_seconds`` and returns the spec;
    * ``corrupt`` / ``truncate`` modes return the spec — the caller
      applies :func:`mangle` to the payload it owns;
    * ``crash`` mode terminates the process via ``os._exit`` (a hard
      worker death for crashed-worker-replacement drills).

    Every fired fault increments ``faults.injected.<site>`` in the live
    metrics registry and emits a ``fault.injected`` trace event.
    """
    plan = _active
    if plan is None:
        return None
    spec = plan.decide(site, str(token))
    if spec is None:
        return None
    registry = obs.metrics()
    registry.counter(f"faults.injected.{site}").inc()
    tracer = obs.tracer()
    if tracer.enabled:
        tracer.instant(
            "fault.injected",
            time.perf_counter_ns(),
            category="faults",
            args={"site": site, "token": str(token), "mode": spec.mode},
        )
    if spec.mode == "raise":
        raise FaultError(site, spec.message)
    if spec.mode == "delay":
        time.sleep(spec.delay_seconds)
        return spec
    if spec.mode == "crash":  # pragma: no cover - kills the process
        import os

        os._exit(70)
    return spec  # corrupt / truncate: caller mangles its payload


def mangle(spec: FaultSpec, data: bytes, site: str, token: str = "-") -> bytes:
    """Deterministically damage ``data`` according to a fired spec.

    ``corrupt`` flips one bit at a hash-derived offset (so checksums
    fail but lengths agree); ``truncate`` keeps the first half.  Both
    are pure in ``(site, token, data)`` — repeat invocations tear the
    payload identically, which keeps fault campaigns reproducible.
    """
    if not data:
        return data
    if spec.mode == "truncate":
        return data[: len(data) // 2]
    if spec.mode == "corrupt":
        offset = int(uniform_hash(0, site, f"{token}:offset") * len(data))
        flipped = data[offset] ^ 0x01
        return data[:offset] + bytes([flipped]) + data[offset + 1 :]
    return data
