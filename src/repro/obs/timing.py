"""Wall-clock timing over ``time.perf_counter_ns``.

:func:`span` times a block into the *current* global metrics registry
under a named timer histogram.  The registry is looked up at
``__enter__`` time, so a ``span`` written inside library code is a
no-op until observability is enabled and costs one method call
thereafter.

All durations are reported in microseconds, matching the metric
convention of :mod:`repro.obs.registry`.
"""

from __future__ import annotations

__all__ = ["span"]


def span(name: str):
    """Time a block into the current global registry's ``name`` timer.

    ``with span("train.pca"): ...`` records the block's wall-clock
    duration (µs) into the histogram ``name`` of whatever registry is
    active when the block is entered.
    """
    from . import metrics  # late import: resolves the live registry

    return metrics().span(name)
