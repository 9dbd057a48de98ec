"""The Memometer: on-chip memory-behaviour monitoring hardware.

Section 3 of the paper.  The Memometer snoops the address line between
the monitored core and its L1 cache, filters addresses against the
configured region, computes the target cell with a logical right shift,
and increments a 32-bit counter in one of two 8 KB on-chip MHM memories.
At each monitoring-interval boundary the two memories swap roles
(double buffering): the freshly completed MHM is handed to the secure
core for analysis while the other memory starts counting the next
interval.

This model is bit-exact at the level that matters:

* the filter/shift arithmetic is the hardware formula
  (via :class:`~repro.core.spec.HeatMapSpec`);
* counters saturate at 2**32 - 1 (every stored value fits int64, so
  the memories are int64 arrays);
* an MHM may have at most ``8 KB / 4 B = 2048`` cells — the paper's
  "at most about 2,000 cells";
* monitoring is uninterrupted across the swap: accesses observed while
  the secure core analyses buffer *i* land in buffer *1-i*.

A scalar :meth:`Memometer.observe` reproduces the per-address datapath.
Two batched paths sit on top of it:

* :meth:`Memometer.observe_footprint` is the simulator's cell-space
  path: a kernel-service invocation arrives as its per-step iteration
  counts, and the increments are ``iters @ C`` over the footprint's
  precompiled steps x cells count matrix
  (:meth:`~repro.sim.kernel.footprint.CompiledFootprint.cell_counts`);
* :meth:`Memometer.observe_burst` takes explicit addresses and routes
  through :func:`repro.kernels.count_cells`, so the ``REPRO_KERNELS``
  switch selects between the vectorised histogram (``np.bincount``
  over the shifted offsets) and the scalar reference oracle.  The
  simulator uses it for user-space slices and whenever an
  address-consuming probe (a cache model, a trace recorder) is attached.

Both batched paths leave the buffers, the snoop statistics and every
``memometer.*`` counter exactly equal for the same fetches; the
differential suite holds them (and both kernels backends) to that.

Saturation is rare, so each memory carries an upper bound on its
cells: the accesses accepted into it since its last reset.  While that
bound stays at or below ``COUNTER_MAX`` no cell can saturate, and
:meth:`Memometer.observe_footprint` adds its increments without the
clamp; past it, the saturating clamp applies as in the hardware.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Optional

import numpy as np

from .. import kernels, obs
from ..core.mhm import MemoryHeatMap
from ..core.spec import HeatMapSpec
from ..sim.trace import AccessBurst

if TYPE_CHECKING:  # pragma: no cover
    from ..sim.kernel.footprint import CellCounts, CompiledFootprint

__all__ = [
    "MHM_MEMORY_BYTES",
    "COUNTER_BYTES",
    "MAX_CELLS",
    "COUNTER_MAX",
    "MemometerConfigError",
    "ControlRegisters",
    "Memometer",
]

#: Each of the two on-chip MHM memories is 8 KB (Section 5.1).
MHM_MEMORY_BYTES = 8 * 1024
#: Each cell counts "up to 2**32" — a 32-bit counter.
COUNTER_BYTES = 4
#: Maximum number of cells an MHM can have (the paper's ~2,000).
MAX_CELLS = MHM_MEMORY_BYTES // COUNTER_BYTES
#: Saturation value of a cell counter.
COUNTER_MAX = 2**32 - 1


class MemometerConfigError(ValueError):
    """Raised when control-register values are unrepresentable."""


@dataclass(frozen=True)
class ControlRegisters:
    """The secure core's view of the Memometer configuration.

    Section 3.1: "(a) the base address of the target monitoring region;
    (b) the size of the region; (c) the granularity (a power of 2) and
    (d) the monitoring interval."
    """

    base_address: int
    region_size: int
    granularity: int
    interval_ns: int

    def __post_init__(self) -> None:
        if self.interval_ns <= 0:
            raise MemometerConfigError("monitoring interval must be positive")
        spec = self.spec  # validates base/size/granularity
        if spec.num_cells > MAX_CELLS:
            raise MemometerConfigError(
                f"{spec.num_cells} cells exceed the on-chip MHM memory "
                f"({MAX_CELLS} cells = {MHM_MEMORY_BYTES} bytes); "
                f"increase the granularity"
            )

    @property
    def spec(self) -> HeatMapSpec:
        return HeatMapSpec(
            base_address=self.base_address,
            region_size=self.region_size,
            granularity=self.granularity,
        )


class Memometer:
    """The snooping counter array with double-buffered MHM memories.

    Parameters
    ----------
    registers:
        Monitoring parameters (written by the secure core).
    on_heatmap:
        Callback invoked at each interval boundary with the completed
        :class:`MemoryHeatMap` — "the controller informs the secure
        core of the creation of an MHM".
    """

    def __init__(
        self,
        registers: ControlRegisters,
        on_heatmap: Optional[Callable[[MemoryHeatMap], None]] = None,
    ):
        self.registers = registers
        self.spec = registers.spec
        self.on_heatmap = on_heatmap
        self._reset_memories()
        # Observability instruments (no-op singletons when disabled;
        # the address path pays one bound-method call per burst and
        # never branches).  Cached here, so enable repro.obs *before*
        # constructing the Memometer.
        registry = obs.metrics()
        self._metric_snooped = registry.counter("memometer.snooped_accesses")
        self._metric_accepted = registry.counter("memometer.accepted_accesses")
        self._metric_filtered = registry.counter("memometer.filtered_accesses")
        self._metric_saturated = registry.counter("memometer.saturated")
        self._metric_bursts = registry.counter("memometer.bursts")
        self._metric_swaps = registry.counter("memometer.swaps")
        # observe_footprint runs once per kernel-service invocation and
        # is only a few microseconds long, so it checks this flag once
        # instead of making five no-op instrument calls.
        self._counting = registry.enabled
        self._tracer = obs.tracer()

    # ------------------------------------------------------------------
    # Snoop datapath
    # ------------------------------------------------------------------
    def observe(self, address: int, weight: int = 1) -> bool:
        """Scalar datapath: one snooped address.

        Implements the exact Section 3.1 steps: offset, bounds check,
        logical right shift, saturating increment.  Returns whether the
        address passed the filter.
        """
        self.snooped_accesses += weight
        self._metric_snooped.inc(weight)
        offset = address - self.registers.base_address
        if not 0 <= offset < self.registers.region_size:
            self._metric_filtered.inc(weight)
            return False
        idx = offset >> self.spec.shift
        buf = self._buffers[self._active]
        self._filled[self._active] += weight
        summed = int(buf[idx]) + weight
        if summed > COUNTER_MAX:
            self._metric_saturated.inc()
            summed = COUNTER_MAX
        buf[idx] = summed
        self.accepted_accesses += weight
        self._metric_accepted.inc(weight)
        return True

    def observe_burst(self, burst: AccessBurst) -> None:
        """Batched datapath: a burst of snooped addresses per kernel call."""
        total = int(burst.weights.sum())
        self.snooped_accesses += total
        self._metric_snooped.inc(total)
        self._metric_bursts.inc()
        addresses = burst.addresses
        base = self.registers.base_address
        if (
            not addresses.size
            or addresses.max() < base
            or addresses.min() >= base + self.registers.region_size
        ):
            # The whole burst misses the region (user slices, module
            # space): nothing to count.
            self._metric_filtered.inc(total)
            return
        increments, accepted = kernels.count_cells(
            addresses,
            burst.weights,
            base_address=self.registers.base_address,
            region_size=self.registers.region_size,
            shift=self.spec.shift,
            num_cells=self.spec.num_cells,
        )
        if accepted == 0:
            self._metric_filtered.inc(total)
            return
        buf = self._buffers[self._active]
        self._filled[self._active] += accepted
        summed = buf + increments
        if self._metric_saturated.enabled:
            over = summed > COUNTER_MAX
            if over.any():
                self._metric_saturated.inc(int(over.sum()))
        np.minimum(summed, COUNTER_MAX, out=buf)
        self.accepted_accesses += accepted
        self._metric_accepted.inc(accepted)
        self._metric_filtered.inc(total - accepted)

    def observe_footprint(
        self, footprint: "CompiledFootprint", iters: np.ndarray
    ) -> None:
        """Cell-space datapath: one invocation of a compiled footprint.

        ``iters`` holds the invocation's per-step iteration counts.  The
        result is exactly that of :meth:`observe_burst` on the expanded
        burst ``(footprint.addresses, np.repeat(iters,
        footprint.step_lengths))``, saturation included, but the cell
        arithmetic was done once when the footprint was first binned.

        While the active buffer's bound (accesses accepted since its
        reset, this invocation's included) is at most ``COUNTER_MAX``,
        no cell can exceed it, so the clamp is skipped.
        """
        binned = self._cell_counts.get(footprint)
        if binned is None:
            binned = self._cell_counts[footprint] = footprint.cell_counts(
                self.registers.base_address, self.registers.region_size, self.spec.shift
            )
        totals = iters @ binned.weights  # [snooped, accepted, per-cell...]
        total = int(totals[0])
        accepted = int(totals[1])
        self.snooped_accesses += total
        self.accepted_accesses += accepted
        saturated = 0
        if accepted:
            active = self._active
            buf = self._buffers[active]
            cells = binned.cells
            filled = self._filled[active] + accepted
            self._filled[active] = filled
            if filled <= COUNTER_MAX:
                buf[cells] += totals[2:]
            else:
                summed = buf[cells] + totals[2:]
                if self._counting:
                    saturated = int(np.count_nonzero(summed > COUNTER_MAX))
                buf[cells] = np.minimum(summed, COUNTER_MAX, out=summed)
        if self._counting:
            self._metric_snooped.inc(total)
            self._metric_bursts.inc()
            self._metric_accepted.inc(accepted)
            self._metric_filtered.inc(total - accepted)
            self._metric_saturated.inc(saturated)

    # ------------------------------------------------------------------
    # Double buffering
    # ------------------------------------------------------------------
    @property
    def active_buffer_index(self) -> int:
        return self._active

    def active_counts(self) -> np.ndarray:
        """A *copy* of the in-progress MHM (diagnostics)."""
        return self._buffers[self._active].copy()

    def interval_boundary(self, time_ns: int) -> MemoryHeatMap:
        """Swap buffers at a monitoring-interval boundary.

        The completed MHM (from the previously active memory) is
        returned — and pushed to ``on_heatmap`` — while the other
        memory, already reset by the previous analysis phase, starts
        counting the new interval immediately.
        """
        completed_index = self._active
        self._active = 1 - self._active
        completed = self._buffers[completed_index]
        heat_map = MemoryHeatMap(
            self.spec,
            completed.copy(),
            interval_index=self._interval_index,
            start_time_ns=self._interval_start_ns,
        )
        # "Once the secure core is done with the analysis, the old MHM
        # is reset."  Analysis is instantaneous from the monitored
        # core's perspective (it runs on the other core), so the reset
        # happens before this buffer is active again.
        completed[:] = 0
        self._filled[completed_index] = 0
        self._interval_index += 1
        self._interval_start_ns = time_ns
        self._metric_swaps.inc()
        self._tracer.instant(
            "memometer.buffer_swap",
            time_ns,
            category="hw",
            args={
                "interval_index": heat_map.interval_index,
                "completed_buffer": completed_index,
                "active_buffer": self._active,
                "total_accesses": int(heat_map.counts.sum()),
            },
        )
        if self.on_heatmap is not None:
            self.on_heatmap(heat_map)
        return heat_map

    @property
    def intervals_completed(self) -> int:
        return self._interval_index

    # ------------------------------------------------------------------
    # Runtime reconfiguration
    # ------------------------------------------------------------------
    def reconfigure(self, registers: ControlRegisters) -> None:
        """Rewrite the control registers (secure-core operation).

        Section 3.1: the monitoring parameters live in control
        registers the secure core writes — so the monitored region and
        granularity can be retargeted at run time (e.g. to sweep
        granularities, or to point a spare Memometer at module space
        after a load event).  Reconfiguration resets both MHM memories
        and the interval counter; monitoring restarts cleanly.
        """
        self.registers = registers
        self.spec = registers.spec
        self._reset_memories()

    def _reset_memories(self) -> None:
        # Two identical on-chip memories.  Counters saturate at
        # COUNTER_MAX, so every value fits int64 and cannot wrap.
        self._buffers = [
            np.zeros(self.spec.num_cells, dtype=np.int64),
            np.zeros(self.spec.num_cells, dtype=np.int64),
        ]
        # _filled[i]: accesses accepted into buffer i since its last
        # reset, an upper bound on every cell of that buffer.
        self._filled = [0, 0]
        # Footprint -> its CellCounts for this region (the spec is
        # fixed until the next reconfigure).
        self._cell_counts: dict["CompiledFootprint", "CellCounts"] = {}
        self._active = 0
        self._interval_index = 0
        self._interval_start_ns = 0
        # Snoop statistics (diagnostics only; not architectural).
        self.snooped_accesses = 0
        self.accepted_accesses = 0

    @property
    def drop_rate(self) -> float:
        """Fraction of snooped accesses filtered out (user space etc.)."""
        if self.snooped_accesses == 0:
            return 0.0
        return 1.0 - self.accepted_accesses / self.snooped_accesses
