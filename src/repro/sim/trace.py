"""Memory access trace primitives.

The monitored core's activity reaches the hardware substrate as a stream
of :class:`AccessBurst` records: each kernel service invocation, timer
tick, context switch or user-space execution slice emits one burst of
instruction-fetch addresses.  Weights compress repetition — a loop body
fetched ``k`` times is one address with weight ``k`` — which is
observationally identical for the Memometer's per-cell counters and
keeps the simulation tractable.

Probes (:class:`TraceProbe`) subscribe to the stream; the Memometer's
snoop port, the cache models and the test recorder all implement the
same one-method interface.  A probe that only counts cells (the
Memometer) may also implement ``defer_footprint(footprint, z,
jitter_scale)`` and ``flush_footprints()``; while every attached probe
does, the simulated kernel skips building address bursts for its
service invocations (see :mod:`repro.sim.kernel.kernel`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Protocol

import numpy as np

__all__ = [
    "AccessBurst",
    "TraceProbe",
    "TraceRecorder",
    "BurstFanout",
    "synthetic_burst",
]


@dataclass(frozen=True)
class AccessBurst:
    """A batch of memory accesses emitted at one simulated instant.

    Attributes
    ----------
    time_ns:
        Simulated emission time.
    addresses:
        Integer array of fetched addresses (read-only).
    weights:
        Per-address access counts (read-only, same length).
    kind:
        Provenance label, e.g. ``"syscall.read"`` or ``"kernel.tick"``.
        Purely diagnostic — the hardware never sees it.
    core:
        Index of the emitting core (0 = monitored core).
    """

    time_ns: int
    addresses: np.ndarray
    weights: np.ndarray
    kind: str = ""
    core: int = 0

    def __post_init__(self) -> None:
        addresses = np.asarray(self.addresses, dtype=np.int64)
        weights = np.asarray(self.weights, dtype=np.int64)
        if addresses.shape != weights.shape or addresses.ndim != 1:
            raise ValueError("addresses and weights must be 1-D arrays of equal length")
        if weights.size and weights.min() < 0:
            raise ValueError("weights must be non-negative")
        addresses.setflags(write=False)
        weights.setflags(write=False)
        object.__setattr__(self, "addresses", addresses)
        object.__setattr__(self, "weights", weights)

    @property
    def total_accesses(self) -> int:
        return int(self.weights.sum())

    def __len__(self) -> int:
        return len(self.addresses)

    @classmethod
    def uniform(
        cls, time_ns: int, addresses: Iterable[int], kind: str = "", core: int = 0
    ) -> "AccessBurst":
        """Burst with weight 1 per address (convenience for tests)."""
        addresses = np.asarray(list(addresses), dtype=np.int64)
        return cls(
            time_ns=time_ns,
            addresses=addresses,
            weights=np.ones_like(addresses),
            kind=kind,
            core=core,
        )


def synthetic_burst(
    rng: np.random.Generator,
    n: int,
    *,
    base_address: int,
    region_size: int,
    in_region_fraction: float = 0.9,
    max_weight: int = 4,
    time_ns: int = 0,
    kind: str = "synthetic",
) -> AccessBurst:
    """A random instruction-fetch burst for benches and kernel tests.

    Draws ``n`` addresses of which roughly ``in_region_fraction`` land
    inside ``[base_address, base_address + region_size)`` and the rest
    straddle both sides of the region (the Memometer must filter
    them), with per-address weights in ``[1, max_weight]``.  Shaped
    like the bursts the simulated kernel emits, but sized freely — the
    bench harness uses it to reproduce EXPERIMENTS.md-scale traces
    without running the simulator.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    if not 0.0 <= in_region_fraction <= 1.0:
        raise ValueError("in_region_fraction must be in [0, 1]")
    inside = rng.random(n) < in_region_fraction
    addresses = np.empty(n, dtype=np.int64)
    addresses[inside] = base_address + rng.integers(
        0, region_size, size=int(inside.sum())
    )
    outside = ~inside
    # Out-of-region addresses surround the region on both sides.
    margin = max(region_size // 4, 1)
    low = rng.integers(
        max(base_address - margin, 0),
        base_address + region_size + margin,
        size=int(outside.sum()),
    )
    mask = (low >= base_address) & (low < base_address + region_size)
    low[mask] = np.maximum(base_address - 1 - (low[mask] - base_address), 0)
    addresses[outside] = low
    weights = rng.integers(1, max_weight + 1, size=n)
    return AccessBurst(
        time_ns=time_ns, addresses=addresses, weights=weights, kind=kind
    )


class TraceProbe(Protocol):
    """Anything that can observe the monitored core's access stream."""

    def observe_burst(self, burst: AccessBurst) -> None:  # pragma: no cover
        ...


@dataclass
class TraceRecorder:
    """A probe that stores every burst (tests and offline analysis)."""

    bursts: list[AccessBurst] = field(default_factory=list)

    def observe_burst(self, burst: AccessBurst) -> None:
        self.bursts.append(burst)

    def total_accesses(self) -> int:
        return sum(b.total_accesses for b in self.bursts)

    def kinds(self) -> set[str]:
        return {b.kind for b in self.bursts}

    def bursts_of_kind(self, kind: str) -> list[AccessBurst]:
        return [b for b in self.bursts if b.kind == kind]

    def clear(self) -> None:
        self.bursts.clear()

    # ------------------------------------------------------------------
    # Persistence — raw traces are the ground truth a heat map
    # summarises; saving them enables offline re-analysis at different
    # granularities/intervals without re-running the simulation.
    # ------------------------------------------------------------------
    def save(self, path) -> None:
        """Save the trace to a compressed ``.npz`` archive."""
        if self.bursts:
            lengths = np.array([len(b) for b in self.bursts], dtype=np.int64)
            addresses = np.concatenate([b.addresses for b in self.bursts])
            weights = np.concatenate([b.weights for b in self.bursts])
        else:
            lengths = np.empty(0, dtype=np.int64)
            addresses = np.empty(0, dtype=np.int64)
            weights = np.empty(0, dtype=np.int64)
        np.savez_compressed(
            path,
            lengths=lengths,
            addresses=addresses,
            weights=weights,
            times=np.array([b.time_ns for b in self.bursts], dtype=np.int64),
            cores=np.array([b.core for b in self.bursts], dtype=np.int64),
            kinds=np.array([b.kind for b in self.bursts], dtype="U64"),
        )

    @classmethod
    def load(cls, path) -> "TraceRecorder":
        recorder = cls()
        with np.load(path) as data:
            offsets = np.concatenate([[0], np.cumsum(data["lengths"])])
            for i, (time_ns, core, kind) in enumerate(
                zip(data["times"], data["cores"], data["kinds"])
            ):
                lo, hi = offsets[i], offsets[i + 1]
                recorder.bursts.append(
                    AccessBurst(
                        time_ns=int(time_ns),
                        addresses=data["addresses"][lo:hi],
                        weights=data["weights"][lo:hi],
                        kind=str(kind),
                        core=int(core),
                    )
                )
        return recorder

    def replay_into(self, probe: "TraceProbe") -> None:
        """Feed the stored trace to another probe (e.g. a Memometer
        configured with a different granularity)."""
        for burst in self.bursts:
            probe.observe_burst(burst)


class BurstFanout:
    """Delivers each burst to every attached probe, in attach order."""

    def __init__(self) -> None:
        self._probes: list[TraceProbe] = []

    def attach(self, probe: TraceProbe) -> None:
        self._probes.append(probe)

    def detach(self, probe: TraceProbe) -> None:
        self._probes.remove(probe)

    @property
    def probes(self) -> tuple:
        """The attached probes, in attach order."""
        return tuple(self._probes)

    def observe_burst(self, burst: AccessBurst) -> None:
        for probe in self._probes:
            probe.observe_burst(burst)

    def __len__(self) -> int:
        return len(self._probes)
