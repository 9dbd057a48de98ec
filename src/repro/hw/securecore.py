"""The secure core: trusted on-chip analysis engine.

In the SecureCore architecture [Yoon et al., RTAS 2013] one core of the
dual-core processor is reserved for monitoring.  Here the secure core
receives each completed MHM from the Memometer at interval boundaries
and archives it (a consumer that handles each MHM as it arrives may
take it out again; see
:meth:`repro.sim.platform.Platform.take_interval`), and
:class:`AnalysisTimingModel` models its per-MHM analysis time,
calibrated against the paper's three measurements (Section 5.4).

Scoring is not done here: ``repro monitor``/``repro attack`` score the
archived window with one fused kernel call and apply the
K-consecutive alarm rule (:func:`repro.learn.metrics.alarm_streaks`);
the fleet service scores record by record in
:class:`repro.serve.worker.ShardWorker`.

Timing model
------------
Section 5.4 reports mean per-MHM analysis times on the secure core:

=====================  =========
configuration          time
=====================  =========
L=1472, L'=9, J=5      358 µs
L=368,  L'=9, J=5      100 µs
L=1472, L'=5, J=5      216 µs
=====================  =========

The analysis is mean-shift (O(L)) + eigenmemory projection (O(L·L')) +
GMM density evaluation (O(J·L'²)).  Solving

    t(L, L', J) = c1·L + c2·L·L' + c3·J·L'²

against the three measurements gives c1 = 31.45 ns, c2 = 22.47 ns,
c3 = 34.58 ns — i.e. ~22–35 1 GHz cycles per inner-loop operation,
plausible for scalar in-order code.  The model reproduces the paper's
table exactly and extrapolates to other (L, L', J) points.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .. import obs
from ..core.mhm import MemoryHeatMap
from ..core.series import HeatMapSeries
from ..core.spec import HeatMapSpec

__all__ = ["AnalysisTimingModel", "SecureCore"]


@dataclass(frozen=True)
class AnalysisTimingModel:
    """Per-MHM analysis cost on the secure core (calibrated, Section 5.4)."""

    #: ns per mean-shift element (O(L) pass).
    c1_ns: float = 31.452
    #: ns per projection multiply-accumulate (O(L·L') pass).
    c2_ns: float = 22.472
    #: ns per GMM quadratic-form operation (O(J·L'²) pass).
    c3_ns: float = 34.580

    def analysis_time_us(self, num_cells: int, num_components: int, num_gaussians: int) -> float:
        """Modelled per-MHM analysis time in microseconds."""
        l, lp, j = num_cells, num_components, num_gaussians
        ns = self.c1_ns * l + self.c2_ns * l * lp + self.c3_ns * j * lp * lp
        return ns / 1_000.0


class SecureCore:
    """Receives and archives the MHMs of one monitored region (``spec``
    must match the Memometer's)."""

    def __init__(self, spec: HeatMapSpec):
        self.spec = spec
        self.heatmaps: list[MemoryHeatMap] = []
        self._received = 0
        self._metric_received = obs.metrics().counter("securecore.mhms_received")

    # ------------------------------------------------------------------
    # MHM reception (Memometer callback)
    # ------------------------------------------------------------------
    def receive(self, heat_map: MemoryHeatMap) -> None:
        """Interval-boundary delivery from the Memometer."""
        if heat_map.spec != self.spec:
            raise ValueError("received a heat map with a mismatched spec")
        self.heatmaps.append(heat_map)
        self._received += 1
        self._metric_received.inc()

    # ------------------------------------------------------------------
    # Retrieval
    # ------------------------------------------------------------------
    def series(self, start: int = 0, stop: Optional[int] = None) -> HeatMapSeries:
        """Archived MHMs as a series (optionally a slice)."""
        return HeatMapSeries(self.spec, self.heatmaps[start:stop])

    @property
    def intervals_received(self) -> int:
        """MHMs received so far, whether or not still archived."""
        return self._received
