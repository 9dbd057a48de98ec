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
Batched paths sit on top of it:

* :meth:`Memometer.defer_footprint` is the simulator's cell-space
  path.  A kernel-service invocation arrives as its footprint and the
  raw ``standard_normal`` draw for its per-step iteration counts; the
  Memometer only queues it.  :meth:`Memometer.flush_footprints` counts
  everything queued in one go: one element-wise chain turns all the
  draws of the interval into iteration counts, one ``bincount`` sums
  them per footprint step, and one integer add scatters the step totals
  into the cells through the footprints' precompiled steps x cells
  count matrices
  (:meth:`~repro.sim.kernel.footprint.CompiledFootprint.cell_counts`).
  The queue is flushed at the interval boundary and before anything
  reads or changes the Memometer's state, so no caller can see it;
* :meth:`Memometer.observe_footprint` counts one invocation from its
  iteration counts at once.  It is the oracle the deferred path is
  tested against, and the path a flush replays through when the
  saturating clamp may engage;
* :meth:`Memometer.observe_burst` takes explicit addresses and routes
  through :func:`repro.kernels.count_cells`, so the ``REPRO_KERNELS``
  switch selects between the vectorised histogram (``np.bincount``
  over the shifted offsets) and the scalar reference oracle.  The
  simulator uses it whenever an address-consuming probe (a cache
  model, a trace recorder) is attached;
* :meth:`Memometer.observe_miss` counts a burst known to miss the
  region (:meth:`Memometer.misses` of its address span) from its
  access total alone: exactly ``observe_burst``'s whole-burst miss
  branch.  The simulator's user-space slices take it.

All batched paths leave the buffers, the snoop statistics and every
``memometer.*`` counter exactly equal for the same fetches; the
differential suites hold them (and both kernels backends) to that.

Saturation is rare, so each memory carries an upper bound on its
cells: the accesses accepted into it since its last reset.  While that
bound stays at or below ``COUNTER_MAX`` no cell can saturate, so the
increments are plain integer sums and their order does not matter:
:meth:`Memometer.observe_footprint` adds without the clamp, and a flush
may sum a whole interval at once.  A flush that would take the bound
past ``COUNTER_MAX`` replays its queue in order through
:meth:`Memometer.observe_footprint`, whose saturating clamp applies as
in the hardware.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Optional

import numpy as np

from .. import kernels, obs
from ..core.mhm import MemoryHeatMap
from ..core.spec import HeatMapSpec
from ..sim.kernel.footprint import jitter_iterations
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
#: float64 represents every integer up to this bound exactly, so a
#: flush may sum iteration counts as floats while the sums stay below it.
_EXACT_FLOAT_SUM = 2**53


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
        if self._pending:
            self.flush_footprints()
        self._snooped += weight
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
        self._accepted += weight
        self._metric_accepted.inc(weight)
        return True

    def observe_burst(self, burst: AccessBurst) -> None:
        """Batched datapath: a burst of snooped addresses per kernel call."""
        total = int(burst.weights.sum())
        self._snooped += total
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
        if self._pending:
            self.flush_footprints()
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
        self._accepted += accepted
        self._metric_accepted.inc(accepted)
        self._metric_filtered.inc(total - accepted)

    def misses(self, low: int, high: int) -> bool:
        """Whether every address in ``[low, high]`` lies outside the region."""
        base = self.registers.base_address
        return high < base or low >= base + self.registers.region_size

    def observe_miss(self, accesses: int) -> None:
        """Count one burst of ``accesses`` fetches that misses the region.

        The caller guarantees the miss (:meth:`misses` over the burst's
        address span).  The snoop total and every ``memometer.*``
        counter move exactly as :meth:`observe_burst` moves them for
        such a burst; the buffers and the queue are untouched.
        """
        self._snooped += accesses
        self._metric_snooped.inc(accesses)
        self._metric_bursts.inc()
        self._metric_filtered.inc(accesses)

    def defer_footprint(
        self, footprint: "CompiledFootprint", z: np.ndarray, jitter_scale: float = 1.0
    ) -> None:
        """Cell-space datapath: queue one invocation of a footprint.

        ``z`` is the invocation's ``standard_normal(footprint.num_steps)``
        draw and ``jitter_scale`` the kernel's jitter scale; the
        iteration counts are those ``footprint.sample_iterations`` makes
        from the same draw.  ``z`` may be a view into the invocation's
        whole draw, is shared with other sinks and is never written.
        Nothing is counted until :meth:`flush_footprints`, which every
        reader of the Memometer's state calls first.
        """
        self._pending.append((footprint, z, jitter_scale))

    def flush_footprints(self) -> None:
        """Count every queued invocation, in queue order.

        The draws are concatenated and run through the element-wise
        chain of :func:`~repro.sim.kernel.footprint.jitter_iterations`
        once, against ``jitters * jitter_scale`` and ``mean_iterations``
        gathered per step from the step index space (each element the
        same product and factor as in ``sample_iterations``), so every
        iteration count equals the one ``sample_iterations`` gives for
        the same draw.  ``bincount`` sums them per footprint step (exact:
        the float sums are checked to stay below 2**53), the snoop
        totals are two integer dot products, and one unbuffered integer
        add over the (step, cell) pairs of every binned footprint adds
        the cell increments.  Below ``COUNTER_MAX`` these integer sums
        equal the per-invocation adds in any order.  If the flush would
        take the active buffer's bound past ``COUNTER_MAX`` the queue is
        replayed in order through :meth:`observe_footprint` instead, so
        saturation happens exactly where it would have.
        """
        pending = self._pending
        if not pending:
            return
        self._pending = []
        footprints, draws, scales = zip(*pending)
        steps_of = self._steps_of
        for footprint in dict.fromkeys(footprints):
            if footprint not in steps_of:
                self._bin(footprint)
        steps = np.concatenate(list(map(steps_of.__getitem__, footprints)))
        scaled = self._step_jitters[steps]
        if scales.count(scales[0]) == len(scales):
            scaled *= scales[0]
        else:
            scaled *= np.repeat(scales, [len(z) for z in draws])
        iters = jitter_iterations(
            np.concatenate(draws), scaled, self._step_means[steps]
        )
        step_sums = np.bincount(steps, weights=iters, minlength=len(self._step_lengths))
        if step_sums.max() < _EXACT_FLOAT_SUM:
            step_totals = step_sums.astype(np.int64)
            accepted = int(step_totals @ self._step_accepted)
            active = self._active
            filled = self._filled[active] + accepted
            if filled <= COUNTER_MAX:
                total = int(step_totals @ self._step_lengths)
                self._snooped += total
                self._accepted += accepted
                if accepted:
                    self._filled[active] = filled
                    np.add.at(
                        self._buffers[active],
                        self._pair_cells,
                        step_totals[self._pair_steps] * self._pair_counts,
                    )
                if self._counting:
                    self._metric_snooped.inc(total)
                    self._metric_bursts.inc(len(pending))
                    self._metric_accepted.inc(accepted)
                    self._metric_filtered.inc(total - accepted)
                return
        # The clamp may engage (or a float sum may not be exact): count
        # each invocation on its own, in order.
        counts = iters.astype(np.int64)
        offset = 0
        for footprint, z in zip(footprints, draws):
            end = offset + len(z)
            self.observe_footprint(footprint, counts[offset:end])
            offset = end

    def sync_metrics(self) -> None:
        """Emit the ``memometer.*`` counts of queued invocations now.

        A flush when metrics are on; nothing otherwise, since every
        read of the Memometer's own state flushes first anyway.
        """
        if self._counting:
            self.flush_footprints()

    def observe_footprint(
        self, footprint: "CompiledFootprint", iters: np.ndarray
    ) -> None:
        """Immediate cell-space datapath: one invocation of a footprint.

        ``iters`` holds the invocation's per-step iteration counts.  The
        result is exactly that of :meth:`observe_burst` on the expanded
        burst ``(footprint.addresses, np.repeat(iters,
        footprint.step_lengths))``, saturation included, but the cell
        arithmetic was done once when the footprint was first binned.
        The simulator queues invocations through :meth:`defer_footprint`
        instead; this is the oracle for that path and its replay when
        the clamp may engage.

        While the active buffer's bound (accesses accepted since its
        reset, this invocation's included) is at most ``COUNTER_MAX``,
        no cell can exceed it, so the clamp is skipped.
        """
        if self._pending:
            self.flush_footprints()
        binned = self._binned.get(footprint)
        if binned is None:
            binned = self._bin(footprint)
        totals = iters @ binned.weights  # [snooped, accepted, per-cell...]
        total = int(totals[0])
        accepted = int(totals[1])
        self._snooped += total
        self._accepted += accepted
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

    def _bin(self, footprint: "CompiledFootprint") -> "CellCounts":
        """Bin a footprint into this region and give its steps a slot in
        the step index space (both fixed until the next reconfigure)."""
        binned = footprint.cell_counts(
            self.registers.base_address, self.registers.region_size, self.spec.shift
        )
        start = len(self._step_lengths)
        self._binned[footprint] = binned
        self._steps_of[footprint] = np.arange(
            start, start + footprint.num_steps, dtype=np.intp
        )
        weights = binned.weights
        self._step_lengths = np.concatenate([self._step_lengths, weights[:, 0]])
        self._step_accepted = np.concatenate([self._step_accepted, weights[:, 1]])
        self._step_jitters = np.concatenate([self._step_jitters, footprint.jitters])
        self._step_means = np.concatenate(
            [self._step_means, footprint.mean_iterations]
        )
        steps, columns = np.nonzero(weights[:, 2:])
        self._pair_steps = np.concatenate([self._pair_steps, start + steps])
        self._pair_cells = np.concatenate([self._pair_cells, binned.cells[columns]])
        self._pair_counts = np.concatenate(
            [self._pair_counts, weights[steps, 2 + columns]]
        )
        return binned

    # ------------------------------------------------------------------
    # Double buffering
    # ------------------------------------------------------------------
    @property
    def active_buffer_index(self) -> int:
        return self._active

    def active_counts(self) -> np.ndarray:
        """A *copy* of the in-progress MHM (diagnostics)."""
        self.flush_footprints()
        return self._buffers[self._active].copy()

    @property
    def snooped_accesses(self) -> int:
        """Accesses snooped since the last reset (diagnostics)."""
        self.flush_footprints()
        return self._snooped

    @property
    def accepted_accesses(self) -> int:
        """Accesses that passed the region filter since the last reset."""
        self.flush_footprints()
        return self._accepted

    def interval_boundary(self, time_ns: int) -> MemoryHeatMap:
        """Swap buffers at a monitoring-interval boundary.

        The completed MHM (from the previously active memory) is
        returned — and pushed to ``on_heatmap`` — while the other
        memory, already reset by the previous analysis phase, starts
        counting the new interval immediately.
        """
        self.flush_footprints()
        completed_index = self._active
        self._active = 1 - self._active
        completed = self._buffers[completed_index]
        # The constructor copies the int64 buffer once (np.asarray does
        # not copy it), so the reset below leaves the heat map intact.
        heat_map = MemoryHeatMap(
            self.spec,
            completed,
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
        if self._tracer.enabled:
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
        Invocations queued before the write are counted first (in the
        ``memometer.*`` totals) and then cleared with the memories.
        """
        self.flush_footprints()
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
        # Footprint -> its CellCounts for this region, and the indices
        # of its steps in this Memometer's step index space (the spec
        # is fixed until the next reconfigure).
        self._binned: dict["CompiledFootprint", "CellCounts"] = {}
        self._steps_of: dict["CompiledFootprint", np.ndarray] = {}
        # Per step of that space: fetches and accepted fetches of one
        # iteration, jitter and mean iterations.
        self._step_lengths = np.zeros(0, dtype=np.int64)
        self._step_accepted = np.zeros(0, dtype=np.int64)
        self._step_jitters = np.zeros(0, dtype=np.float64)
        self._step_means = np.zeros(0, dtype=np.float64)
        # Every (step, cell) pair with fetches: one iteration of the
        # step adds the pair's count to the cell.
        self._pair_steps = np.zeros(0, dtype=np.intp)
        self._pair_cells = np.zeros(0, dtype=np.intp)
        self._pair_counts = np.zeros(0, dtype=np.int64)
        # Invocations queued by defer_footprint, in order:
        # (footprint, standard-normal draw, jitter scale).
        self._pending: list = []
        self._active = 0
        self._interval_index = 0
        self._interval_start_ns = 0
        # Snoop statistics (diagnostics only; not architectural).
        self._snooped = 0
        self._accepted = 0

    @property
    def drop_rate(self) -> float:
        """Fraction of snooped accesses filtered out (user space etc.)."""
        snooped = self.snooped_accesses
        if snooped == 0:
            return 0.0
        return 1.0 - self.accepted_accesses / snooped
