"""Fleet simulation: many monitored devices as interleaved MHM streams.

The paper's prototype monitors *one* core of *one* board; the serving
layer (:mod:`repro.serve`) scores a whole fleet of them concurrently.
This module supplies the fleet-side half of that story:

* a small registry of **device profiles** — named platform
  configurations modelling mixed workloads across the fleet (the
  paper's baseline MiBench set, a jitter-damped RTOS build, and a
  network-loaded box from the Section 5.5 limitation study);
* :class:`DeviceSpec` / :func:`build_fleet_specs` — a deterministic
  expansion of ``(devices, seed)`` into per-device specs, each with
  its own ``SeedSequence``-derived platform seed and an optional
  attack-injection schedule (:mod:`repro.attacks` scenarios cycled
  over a deterministically spread subset of devices);
* :class:`DeviceStream` — one device as a pullable stream of
  per-interval :class:`IntervalRecord` values, injecting (and, for
  reversible attacks, reverting) its scenario at the configured
  interval exactly the way the single-device
  :class:`~repro.pipeline.scenario.ScenarioRunner` does.  The serving
  layer's shard executor pulls every device stream once per fleet
  step, in device order.

Determinism contract: a device's records are a pure function of its
spec.  Interleaving order, shard assignment and worker count never
change what any single device emits — the property the serving layer's
serial ≡ sharded bit-identity tests are built on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from .. import obs
from ..obs.context import TraceContext, trace_args
from ..pipeline.stages import SCENARIOS, make_attack, scenario_reversible
from .devices import NetworkDeviceConfig
from .platform import Platform, PlatformConfig

__all__ = [
    "PROFILES",
    "profile_config",
    "DeviceSpec",
    "IntervalRecord",
    "build_fleet_specs",
    "DeviceStream",
]


# ----------------------------------------------------------------------
# Device profiles (mixed fleet workloads)
# ----------------------------------------------------------------------
#: Named platform-configuration factories.  A fleet mixes profiles;
#: each profile gets its own trained detector (the serving layer's
#: :class:`~repro.serve.registry.DetectorRegistry` keys on the name).
PROFILES: Dict[str, Callable[[], PlatformConfig]] = {
    # The paper's prototype: four MiBench tasks at 78 % utilisation.
    "baseline": PlatformConfig,
    # An RTOS-flavoured build: tighter kernel code paths (Section 7's
    # "more deterministic" remark), same task set.
    "rtos": lambda: PlatformConfig(kernel_jitter_scale=0.5),
    # The Section 5.5 stressor: aperiodic network receive interrupts
    # riding on top of the periodic task set.
    "netload": lambda: PlatformConfig(
        network_devices=(NetworkDeviceConfig(mean_rate_hz=150.0),)
    ),
}


def profile_config(name: str) -> PlatformConfig:
    """The platform configuration for a named profile."""
    try:
        factory = PROFILES[name]
    except KeyError:
        raise ValueError(
            f"unknown device profile {name!r}; choose from {sorted(PROFILES)}"
        ) from None
    return factory()


# ----------------------------------------------------------------------
# Device specs
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class DeviceSpec:
    """Everything that determines one device's stream.

    A spec is self-describing and picklable: a shard worker can rebuild
    the exact device stream from the spec alone, which is what makes
    shard placement irrelevant to the emitted records.
    """

    device_id: str
    index: int
    profile: str
    seed: int
    scenario: Optional[str] = None
    attack_params: tuple = ()
    inject_interval: Optional[int] = None
    revert_interval: Optional[int] = None
    inject_offset_fraction: float = 0.3

    def __post_init__(self) -> None:
        if self.scenario is not None and self.scenario not in SCENARIOS:
            raise ValueError(
                f"unknown scenario {self.scenario!r}; "
                f"choose from {sorted(SCENARIOS)}"
            )
        if self.scenario is not None and self.inject_interval is None:
            raise ValueError("an attacked device needs an inject_interval")
        if (
            self.revert_interval is not None
            and self.inject_interval is not None
            and self.revert_interval <= self.inject_interval
        ):
            raise ValueError("revert_interval must come after inject_interval")

    @property
    def attacked(self) -> bool:
        return self.scenario is not None


@dataclass(frozen=True)
class IntervalRecord:
    """One device's MHM for one monitoring interval.

    ``time_ns`` is the interval's simulated start time on the device's
    own clock; ``trace`` is the record's deterministic trace context
    (populated only while telemetry is enabled — scoring never reads
    either, so they cannot perturb results).
    """

    device_index: int
    device_id: str
    profile: str
    interval_index: int
    vector: np.ndarray  # float64 cell counts, ready for scoring
    truth: bool  # ground-truth anomaly label (attack active)
    time_ns: int = 0
    trace: Optional[TraceContext] = None
    #: int64 syscall-frequency vector for the same interval (the
    #: context modality's input); ``None`` only on legacy records.
    syscalls: Optional[np.ndarray] = None


def build_fleet_specs(
    devices: int,
    intervals: int,
    root_seed: int = 0,
    profiles: Sequence[str] = ("baseline", "rtos", "netload"),
    attacked_devices: int = 0,
    attack_scenarios: Optional[Sequence[str]] = None,
    inject_fraction: float = 0.5,
) -> List[DeviceSpec]:
    """Expand ``(devices, root_seed)`` into deterministic device specs.

    Per-device platform seeds derive from
    ``SeedSequence(root_seed).spawn`` — device *i*'s seed is a pure
    function of ``root_seed`` and *i*.  ``attacked_devices`` devices
    (spread evenly across the index range) are assigned scenarios from
    ``attack_scenarios`` round-robin, injected at
    ``int(intervals * inject_fraction)``; reversible attacks revert
    three quarters of the way through the remaining window.
    """
    if devices < 1:
        raise ValueError("devices must be >= 1")
    if intervals < 1:
        raise ValueError("intervals must be >= 1")
    if not 0 < inject_fraction < 1:
        raise ValueError("inject_fraction must be in (0, 1)")
    if not 0 <= attacked_devices <= devices:
        raise ValueError("attacked_devices must be in [0, devices]")
    profiles = tuple(profiles)
    if not profiles:
        raise ValueError("at least one profile is required")
    for name in profiles:
        if name not in PROFILES:
            raise ValueError(
                f"unknown device profile {name!r}; choose from {sorted(PROFILES)}"
            )
    scenarios = tuple(attack_scenarios or sorted(SCENARIOS))
    for name in scenarios:
        if name not in SCENARIOS:
            raise ValueError(
                f"unknown scenario {name!r}; choose from {sorted(SCENARIOS)}"
            )

    # Evenly spread attacked indices (deterministic, no RNG draw).
    attacked = {
        (i * devices) // attacked_devices for i in range(attacked_devices)
    }
    inject_at = max(1, int(intervals * inject_fraction))
    children = np.random.SeedSequence(root_seed).spawn(devices)

    specs: List[DeviceSpec] = []
    width = max(4, len(str(devices - 1)))
    attack_ordinal = 0
    for index, child in enumerate(children):
        seed = int(child.generate_state(1, np.uint32)[0])
        scenario = None
        inject = None
        revert = None
        if index in attacked:
            scenario = scenarios[attack_ordinal % len(scenarios)]
            attack_ordinal += 1
            inject = inject_at
            if scenario_reversible(scenario):
                candidate = inject + max(1, (3 * (intervals - inject)) // 4)
                if candidate < intervals - 1:
                    revert = candidate
        specs.append(
            DeviceSpec(
                device_id=f"dev-{index:0{width}d}",
                index=index,
                profile=profiles[index % len(profiles)],
                seed=seed,
                scenario=scenario,
                inject_interval=inject,
                revert_interval=revert,
            )
        )
    return specs


# ----------------------------------------------------------------------
# Streams
# ----------------------------------------------------------------------
class DeviceStream:
    """One simulated device as a pullable per-interval record stream."""

    def __init__(self, spec: DeviceSpec, config: Optional[PlatformConfig] = None):
        self.spec = spec
        base = config if config is not None else profile_config(spec.profile)
        self.platform = Platform(base.with_seed(spec.seed))
        self.attack = (
            make_attack(spec.scenario, dict(spec.attack_params))
            if spec.scenario is not None
            else None
        )
        self.emitted = 0
        # Instruments are cached at construction (the obs contract);
        # trace contexts are built only while the tracer is live so the
        # disabled path stays two attribute reads per record.
        self._tracer = obs.tracer()

    def _truth(self, interval_index: int) -> bool:
        spec = self.spec
        if spec.inject_interval is None or interval_index < spec.inject_interval:
            return False
        if spec.revert_interval is None:
            return True
        return interval_index <= spec.revert_interval

    def next_interval(self) -> IntervalRecord:
        """Run one monitoring interval and return its record.

        The attack is scheduled "some moments after" the interval
        boundary (``inject_offset_fraction`` inside the interval),
        matching :class:`~repro.pipeline.scenario.ScenarioRunner`.
        The interval is taken out of the platform as it is emitted, so
        a stream's memory does not grow with its length.
        """
        spec = self.spec
        platform = self.platform
        index = self.emitted
        if self.attack is not None:
            offset = int(
                spec.inject_offset_fraction * platform.config.interval_ns
            )
            if index == spec.inject_interval:
                platform.sim.schedule_at(
                    platform.now + offset, self.attack.inject, platform
                )
            if spec.revert_interval is not None and index == spec.revert_interval:
                platform.sim.schedule_at(
                    platform.now + offset, self.attack.revert, platform
                )
        platform.run_intervals(1)
        heat_map, syscalls = platform.take_interval()
        self.emitted += 1
        trace = None
        if self._tracer.enabled:
            trace = TraceContext.for_interval(spec.seed, spec.device_id, index)
            self._tracer.instant(
                "interval.emit",
                heat_map.start_time_ns,
                category="serve",
                args=trace_args(
                    trace, device_id=spec.device_id, interval=index
                ),
                track=spec.index,
            )
        return IntervalRecord(
            device_index=spec.index,
            device_id=spec.device_id,
            profile=spec.profile,
            interval_index=index,
            vector=heat_map.as_vector(),
            truth=self._truth(index),
            time_ns=heat_map.start_time_ns,
            trace=trace,
            syscalls=syscalls,
        )
