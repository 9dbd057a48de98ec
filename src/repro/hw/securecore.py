"""The secure core: trusted on-chip analysis engine.

In the SecureCore architecture [Yoon et al., RTAS 2013] one core of the
dual-core processor is reserved for monitoring.  Here the secure core

* receives each completed MHM from the Memometer at interval
  boundaries and archives it (a consumer that handles each MHM as it
  arrives may take it out again; see
  :meth:`repro.sim.platform.Platform.take_interval`);
* optionally scores it online with a fitted detector (the run-time
  configuration of Figures 7, 8 and 10);
* accounts the *modelled* analysis time per MHM using a cost model
  calibrated against the paper's three measurements (Section 5.4).

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

from dataclasses import dataclass, field
from typing import Callable, Optional

from .. import obs
from ..core.mhm import MemoryHeatMap
from ..core.series import HeatMapSeries
from ..core.spec import HeatMapSpec

__all__ = ["AnalysisTimingModel", "OnlineResult", "SecureCore"]


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


@dataclass
class OnlineResult:
    """One interval's online-analysis outcome.

    ``skipped`` marks an interval whose MHM could not be scored (a
    corrupted or missing buffer): the verdict is recorded as SKIPPED —
    ``log_density`` is NaN, ``is_anomalous`` is False — and the stream
    continues, mirroring the double-buffered Memometer semantics where
    a lost interval never stalls the monitor.
    """

    interval_index: int
    log_density: float
    is_anomalous: bool
    analysis_time_us: float
    skipped: bool = False


class SecureCore:
    """Receives, archives and (optionally) scores MHMs.

    Parameters
    ----------
    spec:
        Monitored-region spec (must match the Memometer's).
    scorer:
        Optional online scorer: a callable ``(MemoryHeatMap) ->
        (log_density, is_anomalous)``, or returning ``None`` to record
        a SKIPPED verdict (unscorable interval) without breaking the
        stream.  Attach one with :meth:`attach_detector` once a
        detector has been trained.
    timing:
        The analysis-time cost model.
    """

    def __init__(
        self,
        spec: HeatMapSpec,
        timing: Optional[AnalysisTimingModel] = None,
        clock: Optional[Callable[[], int]] = None,
    ):
        self.spec = spec
        self.timing = timing or AnalysisTimingModel()
        #: Simulated-time source for trace timestamps (the platform
        #: passes the simulator clock); falls back to interval starts.
        self.clock = clock
        self.heatmaps: list[MemoryHeatMap] = []
        self._received = 0
        self.online_results: list[OnlineResult] = []
        self._scorer: Optional[Callable[[MemoryHeatMap], tuple[float, bool]]] = None
        self._scorer_dims: tuple[int, int] = (0, 0)  # (L', J) for timing
        registry = obs.metrics()
        self._metric_received = registry.counter("securecore.mhms_received")
        self._metric_scored = registry.counter("securecore.mhms_scored")
        self._metric_skipped = registry.counter("securecore.verdicts_skipped")
        self._metric_anomalous = registry.counter("securecore.anomalous_verdicts")
        self._metric_model_us = registry.histogram("securecore.analysis_model_us")
        self._tracer = obs.tracer()

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------
    def attach_detector(
        self,
        scorer: Callable[[MemoryHeatMap], tuple[float, bool]],
        num_components: int,
        num_gaussians: int,
    ) -> None:
        """Enable online scoring of every incoming MHM."""
        self._scorer = scorer
        self._scorer_dims = (num_components, num_gaussians)

    def detach_detector(self) -> None:
        self._scorer = None

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
        if self._scorer is not None:
            verdict = self._scorer(heat_map)
            num_components, num_gaussians = self._scorer_dims
            analysis_us = self.timing.analysis_time_us(
                self.spec.num_cells, num_components, num_gaussians
            )
            if verdict is None:
                self.online_results.append(
                    OnlineResult(
                        interval_index=heat_map.interval_index,
                        log_density=float("nan"),
                        is_anomalous=False,
                        analysis_time_us=analysis_us,
                        skipped=True,
                    )
                )
                self._metric_skipped.inc()
                return
            log_density, anomalous = verdict
            self.online_results.append(
                OnlineResult(
                    interval_index=heat_map.interval_index,
                    log_density=log_density,
                    is_anomalous=anomalous,
                    analysis_time_us=analysis_us,
                )
            )
            self._metric_scored.inc()
            self._metric_model_us.observe(analysis_us)
            if anomalous:
                self._metric_anomalous.inc()
            if self._tracer.enabled:
                now_ns = (
                    self.clock() if self.clock is not None else heat_map.start_time_ns
                )
                self._tracer.instant(
                    "detector.verdict",
                    now_ns,
                    category="detector",
                    args={
                        "interval_index": heat_map.interval_index,
                        "log_density": float(log_density),
                        "anomalous": bool(anomalous),
                        "analysis_model_us": analysis_us,
                    },
                )

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

    def anomalous_intervals(self) -> list[int]:
        return [r.interval_index for r in self.online_results if r.is_anomalous]
