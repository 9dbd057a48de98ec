"""The simulated dual-core platform.

This module assembles the full prototype of Section 5.1: a monitored
core running the synthetic embedded kernel and a periodic task set, a
Memometer snooping its fetch stream, and a secure core collecting the
resulting MHMs — one per monitoring interval.

The Memometer placement is configurable (the Limitation-section
ablation): ``pre-l1`` snoops the raw core-to-L1 address line as in the
paper; ``post-l1`` and ``post-l2`` interpose LRU cache models so the
Memometer only sees misses.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from .. import obs
from ..core.mhm import MemoryHeatMap
from ..core.series import HeatMapSeries
from ..core.spec import HeatMapSpec
from ..hw.cache import L1_CONFIG, L2_CONFIG, CacheFilter, SetAssociativeCache
from ..hw.memometer import ControlRegisters, Memometer
from ..hw.securecore import SecureCore
from .devices import NetworkDevice
from .engine import NS_PER_MS, Simulator
from .kernel.kernel import Kernel
from .kernel.syscalls import DEFAULT_SYSCALLS
from .kernel.layout import KERNEL_TEXT_BASE, KERNEL_TEXT_SIZE
from .kernel.process import ProcessManager
from .kernel.scheduler import RMScheduler
from .task import TaskDefinition
from .workloads.mibench import paper_taskset

__all__ = ["PLACEMENTS", "PlatformConfig", "Platform"]

PLACEMENTS = ("pre-l1", "post-l1", "post-l2")


@dataclass(frozen=True)
class PlatformConfig:
    """Everything needed to build a reproducible platform instance.

    The defaults are the paper's prototype: the Linux-3.4 kernel
    ``.text`` region at 2 KB granularity (1,472 cells), a 10 ms
    monitoring interval, a 1 ms timer tick and the four-task MiBench
    set at 78 % utilisation.
    """

    tasks: tuple[TaskDefinition, ...] = field(
        default_factory=lambda: tuple(paper_taskset())
    )
    base_address: int = KERNEL_TEXT_BASE
    region_size: int = KERNEL_TEXT_SIZE
    granularity: int = 2048
    interval_ns: int = 10 * NS_PER_MS
    tick_period_ns: int = 1 * NS_PER_MS
    kworker_period_ns: int = 4 * NS_PER_MS
    enable_kworker: bool = True
    placement: str = "pre-l1"
    seed: int = 2015
    #: Number of monitored cores (SMP; Section 5.5).  Tasks carry a
    #: ``core`` attribute selecting their partition.
    monitored_cores: int = 1
    #: Scales kernel footprint jitter (< 1 models an RTOS's more
    #: deterministic code paths; paper Section 7).
    kernel_jitter_scale: float = 1.0
    #: Interrupt-driven network interfaces (aperiodic legitimate load;
    #: the paper's Section 5.5 stressor).  Empty by default.
    network_devices: tuple = ()

    def __post_init__(self) -> None:
        if self.placement not in PLACEMENTS:
            raise ValueError(
                f"placement must be one of {PLACEMENTS}, got {self.placement!r}"
            )
        if self.interval_ns <= 0 or self.tick_period_ns <= 0:
            raise ValueError("interval and tick period must be positive")
        if self.monitored_cores < 1:
            raise ValueError("monitored_cores must be >= 1")
        if self.kernel_jitter_scale < 0:
            raise ValueError("kernel_jitter_scale must be non-negative")
        names = [t.name for t in self.tasks]
        if len(names) != len(set(names)):
            raise ValueError("task names must be unique")
        for task in self.tasks:
            if task.core >= self.monitored_cores:
                raise ValueError(
                    f"task {task.name!r} targets core {task.core}, but the "
                    f"platform has {self.monitored_cores} monitored core(s)"
                )
        for device in self.network_devices:
            if device.core >= self.monitored_cores:
                raise ValueError(
                    f"network device targets core {device.core}, but the "
                    f"platform has {self.monitored_cores} monitored core(s)"
                )

    @property
    def spec(self) -> HeatMapSpec:
        return HeatMapSpec(self.base_address, self.region_size, self.granularity)

    def with_granularity(self, granularity: int) -> "PlatformConfig":
        return replace(self, granularity=granularity)

    def with_placement(self, placement: str) -> "PlatformConfig":
        return replace(self, placement=placement)

    def with_seed(self, seed: int) -> "PlatformConfig":
        return replace(self, seed=seed)

    def with_tasks(self, tasks) -> "PlatformConfig":
        return replace(self, tasks=tuple(tasks))


class Platform:
    """A runnable instance of the monitored system.

    Typical use::

        platform = Platform(PlatformConfig(seed=7))
        series = platform.collect_intervals(300)   # 3 s of MHMs

    Attack scenarios reach in through :attr:`kernel` (syscall table,
    module loader, ASLR) and :attr:`processes` (launch/kill).
    """

    def __init__(self, config: Optional[PlatformConfig] = None):
        self.config = config or PlatformConfig()
        self.spec = self.config.spec
        self.sim = Simulator()
        self.rng = np.random.default_rng(self.config.seed)

        self.kernel = Kernel(
            self.sim, self.rng, jitter_scale=self.config.kernel_jitter_scale
        )
        self.schedulers = [
            RMScheduler(self.sim, self.kernel, self.rng, core_id=core)
            for core in range(self.config.monitored_cores)
        ]
        self.scheduler = self.schedulers[0]
        self.processes = ProcessManager(self.sim, self.kernel, self.schedulers)

        self.secure_core = SecureCore(self.spec)
        self.memometer = Memometer(
            ControlRegisters(
                base_address=self.config.base_address,
                region_size=self.config.region_size,
                granularity=self.config.granularity,
                interval_ns=self.config.interval_ns,
            ),
            on_heatmap=self.secure_core.receive,
        )
        self.caches: list[SetAssociativeCache] = []
        self.kernel.attach_probe(self._build_snoop_chain())

        for task in self.config.tasks:
            self.schedulers[task.core].add_task(task)

        self.devices = []
        for device_config in self.config.network_devices:
            device = NetworkDevice(self.sim, self.kernel, device_config, self.rng)
            device.start()
            self.devices.append(device)

        # Per-interval syscall-frequency capture (the second detection
        # modality of repro.learn.contexts): at every interval boundary
        # the cumulative kernel invocation counters are differenced into
        # one int64 histogram over the syscall vocabulary, aligned with
        # the secure core's MHM interval indices.  Hijacked syscalls
        # still dispatch under their own ``syscall.<name>`` burst kind,
        # so the histogram sees the call regardless of table patching.
        self.syscall_vocabulary: tuple[str, ...] = DEFAULT_SYSCALLS
        self._syscall_index = {
            name: i for i, name in enumerate(self.syscall_vocabulary)
        }
        self._syscall_prev: dict[str, int] = {}
        self._syscall_rows: list[np.ndarray] = []

        registry = obs.metrics()
        self._metric_ticks = registry.counter("platform.ticks")
        self._metric_intervals = registry.counter("platform.intervals")
        self._tracer = obs.tracer()

        self.sim.schedule_periodic(self.config.tick_period_ns, self._on_tick)
        if self.config.enable_kworker:
            self.sim.schedule_periodic(self.config.kworker_period_ns, self._on_kworker)
        self.sim.schedule_periodic(self.config.interval_ns, self._on_interval_boundary)

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------
    def _build_snoop_chain(self):
        """Memometer snoop point per the configured placement."""
        placement = self.config.placement
        if placement == "pre-l1":
            return self.memometer
        l1 = SetAssociativeCache(L1_CONFIG)
        self.caches.append(l1)
        if placement == "post-l1":
            return CacheFilter(l1, self.memometer)
        l2 = SetAssociativeCache(L2_CONFIG)
        self.caches.append(l2)
        return CacheFilter(l1, CacheFilter(l2, self.memometer))

    # ------------------------------------------------------------------
    # Periodic platform activity
    # ------------------------------------------------------------------
    def _on_tick(self) -> None:
        # Each monitored core takes its own timer interrupt (SMP).
        self._metric_ticks.inc()
        if self._tracer.enabled:
            self._tracer.instant("irq.timer_tick", self.sim.now, category="sim")
        for scheduler in self.schedulers:
            self.kernel.run_service("kernel.tick", core=scheduler.core_id)
            if scheduler.is_idle:
                self.kernel.run_service("kernel.idle", core=scheduler.core_id)

    def _on_kworker(self) -> None:
        self.kernel.run_service("kernel.kworker")

    def _on_interval_boundary(self) -> None:
        self._metric_intervals.inc()
        if self._tracer.enabled:
            index = self.memometer.intervals_completed
            self._tracer.complete(
                "monitoring.interval",
                self.sim.now - self.config.interval_ns,
                self.config.interval_ns,
                category="sim",
                args={"interval_index": index},
            )
            self._tracer.instant(
                "interval.boundary",
                self.sim.now,
                category="sim",
                args={"interval_index": index},
            )
        self.memometer.interval_boundary(self.sim.now)
        self._capture_syscall_interval()

    def _capture_syscall_interval(self) -> None:
        """Difference the cumulative syscall counters into this
        interval's histogram (the persisted ``prev`` dict makes the
        first interval exact rather than a diff against zero)."""
        row = np.zeros(len(self.syscall_vocabulary), dtype=np.int64)
        for name, total in self.kernel.invocation_counts.items():
            if not name.startswith("syscall."):
                continue
            index = self._syscall_index.get(name[len("syscall."):])
            previous = self._syscall_prev.get(name, 0)
            self._syscall_prev[name] = total
            if index is not None:
                row[index] = total - previous
        self._syscall_rows.append(row)

    # ------------------------------------------------------------------
    # Running
    # ------------------------------------------------------------------
    @property
    def now(self) -> int:
        return self.sim.now

    @property
    def all_task_names(self) -> list[str]:
        """Every admitted task across all monitored cores."""
        names: list[str] = []
        for scheduler in self.schedulers:
            names.extend(scheduler.task_names)
        return sorted(names)

    @property
    def intervals_completed(self) -> int:
        return self.secure_core.intervals_received

    def run_for(self, duration_ns: int) -> None:
        """Advance the simulation by ``duration_ns``.

        The Memometers count service invocations at their next flush;
        the run ends by settling their metrics, so the ``memometer.*``
        counters are up to date whenever control returns to the caller.
        """
        self.sim.run_for(duration_ns)
        self.kernel.sync_probe_metrics()

    def run_intervals(self, count: int) -> None:
        """Advance the simulation by ``count`` monitoring intervals."""
        if count < 0:
            raise ValueError("count must be non-negative")
        self.run_for(count * self.config.interval_ns)

    @property
    def archived_intervals(self) -> int:
        """Intervals still in the archive: not yet removed by
        :meth:`take_interval`.  Index into :meth:`syscall_matrix` and
        ``secure_core.series`` with this, not with
        :attr:`intervals_completed`."""
        return len(self.secure_core.heatmaps)

    def collect_intervals(self, count: int) -> HeatMapSeries:
        """Run ``count`` intervals and return *their* MHMs as a series."""
        start = self.archived_intervals
        self.run_intervals(count)
        return self.secure_core.series(start=start)

    def take_interval(self) -> tuple[MemoryHeatMap, np.ndarray]:
        """Remove and return the latest interval's MHM and syscall row.

        For a consumer that handles each interval as it completes (a
        fleet device stream): taking every interval keeps the secure
        core's archive and the syscall rows empty, so memory stays
        constant however long the platform runs.  The interval count
        (:attr:`intervals_completed`) is not affected.
        """
        if not self._syscall_rows:
            raise LookupError("no completed interval left to take")
        return self.secure_core.heatmaps.pop(), self._syscall_rows.pop()

    def heatmap_series(self) -> HeatMapSeries:
        """All MHMs collected since construction."""
        return self.secure_core.series()

    def syscall_matrix(self, start: int = 0) -> np.ndarray:
        """Per-interval syscall histograms from interval ``start`` on.

        Row *i* of the returned ``(intervals, len(syscall_vocabulary))``
        int64 matrix is the syscall-frequency vector of the interval
        whose MHM sits at ``secure_core.series()[start + i]`` — the two
        capture paths share the interval-boundary callback, so indices
        align by construction.
        """
        rows = self._syscall_rows[start:]
        if not rows:
            return np.zeros((0, len(self.syscall_vocabulary)), dtype=np.int64)
        return np.stack(rows)
