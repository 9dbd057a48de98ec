"""The Memory Heat Map data structure.

Section 2 of the paper: an MHM is "a concise data structure that
represents how many times a particular memory region was accessed
(regardless of which component accessed it) during a time interval".  It
is a vector ``M = [m_1, ..., m_L]`` of non-negative access counts, one
per cell of the monitored region.

This module holds the *software* representation used by the learning
pipeline.  The hardware counter array with its 32-bit saturation and
double buffering lives in :mod:`repro.hw.memometer`; it exports its
contents as a :class:`MemoryHeatMap`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

import numpy as np

from .. import kernels
from .spec import HeatMapSpec

__all__ = ["MemoryHeatMap"]


@dataclass
class MemoryHeatMap:
    """A vector of per-cell access counts for one monitoring interval.

    Parameters
    ----------
    spec:
        The region specification this map was recorded against.
    counts:
        Optional initial counts (length ``spec.num_cells``).  Copied.
    interval_index:
        Position of this map in the sequence of monitoring intervals
        (``-1`` when unknown, e.g. hand-built maps in tests).
    start_time_ns:
        Simulated start time of the monitoring interval.
    """

    spec: HeatMapSpec
    counts: np.ndarray = None  # type: ignore[assignment]
    interval_index: int = -1
    start_time_ns: int = 0

    def __post_init__(self) -> None:
        if self.counts is None:
            self.counts = np.zeros(self.spec.num_cells, dtype=np.int64)
        else:
            counts = np.asarray(self.counts, dtype=np.int64)
            if counts.shape != (self.spec.num_cells,):
                raise ValueError(
                    f"counts must have shape ({self.spec.num_cells},), "
                    f"got {counts.shape}"
                )
            if (counts < 0).any():
                raise ValueError("counts must be non-negative")
            self.counts = counts.copy()

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def record(self, address: int, count: int = 1) -> bool:
        """Record ``count`` accesses to ``address``.

        Returns ``True`` if the address was inside the monitored region
        (out-of-region addresses are silently dropped, mirroring the
        hardware's address filter).
        """
        if count < 0:
            raise ValueError("count must be non-negative")
        if not self.spec.contains(address):
            return False
        self.counts[self.spec.cell_index(address)] += count
        return True

    def record_many(
        self, addresses: np.ndarray, weights: Optional[np.ndarray] = None
    ) -> int:
        """Vectorised recording of a burst of addresses.

        Counts through :func:`repro.kernels.count_cells`, the Memometer's
        Section 3.1 filter/shift datapath.

        Parameters
        ----------
        addresses:
            Integer array of accessed addresses.
        weights:
            Optional per-address access counts (defaults to 1 each).

        Returns
        -------
        int
            Number of accepted (in-region) *accesses* (i.e. the sum of
            accepted weights).
        """
        addresses = np.asarray(addresses, dtype=np.int64)
        if weights is not None:
            weights = np.asarray(weights, dtype=np.int64)
            if weights.shape != addresses.shape:
                raise ValueError("weights must match addresses in shape")
            if (weights < 0).any():
                raise ValueError("weights must be non-negative")
        counts, accepted = kernels.count_cells(
            addresses,
            weights,
            base_address=self.spec.base_address,
            region_size=self.spec.region_size,
            shift=self.spec.shift,
            num_cells=self.spec.num_cells,
        )
        self.counts += counts
        return accepted

    def record_range(self, start_address: int, length: int, stride: int = 4) -> int:
        """Record a linear sweep of fetches over ``[start, start+length)``.

        Models straight-line execution through a code range: one access
        every ``stride`` bytes.  Returns the number of accepted accesses.
        """
        if length <= 0:
            return 0
        addresses = np.arange(start_address, start_address + length, stride, dtype=np.int64)
        return self.record_many(addresses)

    def reset(self) -> None:
        """Zero all counts (the Memometer does this after analysis)."""
        self.counts[:] = 0

    # ------------------------------------------------------------------
    # Inspection
    # ------------------------------------------------------------------
    @property
    def num_cells(self) -> int:
        return self.spec.num_cells

    @property
    def total_accesses(self) -> int:
        """Total traffic volume of the interval (Figure 9's y-axis)."""
        return int(self.counts.sum())

    @property
    def touched_cells(self) -> int:
        """Number of cells with at least one access."""
        return int((self.counts > 0).sum())

    def hottest_cells(self, k: int = 10) -> list[tuple[int, int]]:
        """The ``k`` most-accessed cells as ``(cell_index, count)`` pairs."""
        if k <= 0:
            return []
        k = min(k, self.num_cells)
        order = np.argsort(self.counts)[::-1][:k]
        return [(int(i), int(self.counts[i])) for i in order]

    def as_vector(self, dtype=np.float64) -> np.ndarray:
        """The count vector as a fresh array (the learning pipeline input)."""
        return self.counts.astype(dtype)

    # ------------------------------------------------------------------
    # Arithmetic (MHMs compose additively: Section 2's key idea)
    # ------------------------------------------------------------------
    def _check_compatible(self, other: "MemoryHeatMap") -> None:
        if self.spec != other.spec:
            raise ValueError("heat maps recorded against different specs")

    def __add__(self, other: "MemoryHeatMap") -> "MemoryHeatMap":
        self._check_compatible(other)
        return MemoryHeatMap(self.spec, self.counts + other.counts)

    def __iadd__(self, other: "MemoryHeatMap") -> "MemoryHeatMap":
        self._check_compatible(other)
        self.counts += other.counts
        return self

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MemoryHeatMap):
            return NotImplemented
        return self.spec == other.spec and bool(np.array_equal(self.counts, other.counts))

    def copy(self) -> "MemoryHeatMap":
        return MemoryHeatMap(
            self.spec,
            self.counts,
            interval_index=self.interval_index,
            start_time_ns=self.start_time_ns,
        )

    # ------------------------------------------------------------------
    # Serialisation
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        return {
            "spec": self.spec.to_dict(),
            "counts": self.counts.tolist(),
            "interval_index": self.interval_index,
            "start_time_ns": self.start_time_ns,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "MemoryHeatMap":
        return cls(
            spec=HeatMapSpec.from_dict(data["spec"]),
            counts=np.asarray(data["counts"], dtype=np.int64),
            interval_index=int(data.get("interval_index", -1)),
            start_time_ns=int(data.get("start_time_ns", 0)),
        )

    @classmethod
    def zeros(cls, spec: HeatMapSpec) -> "MemoryHeatMap":
        return cls(spec)

    @classmethod
    def stack(cls, maps: Iterable["MemoryHeatMap"]) -> np.ndarray:
        """Stack a sequence of MHMs into an ``(N, L)`` float matrix.

        This is the training-set matrix the learning pipeline consumes
        (Section 4.1's ``M = {M_1, ..., M_N}``).
        """
        maps = list(maps)
        if not maps:
            raise ValueError("cannot stack an empty sequence of heat maps")
        spec = maps[0].spec
        for m in maps[1:]:
            if m.spec != spec:
                raise ValueError("heat maps recorded against different specs")
        return np.stack([m.as_vector() for m in maps])

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"MemoryHeatMap(cells={self.num_cells}, total={self.total_accesses}, "
            f"interval={self.interval_index})"
        )
