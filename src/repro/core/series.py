"""Ordered collections of heat maps.

A :class:`HeatMapSeries` is what one monitoring run produces: the MHM of
every monitoring interval, in order.  It is the unit the pipeline passes
around — a training run yields a series, an attack scenario yields a
series, and the detector scores a series interval by interval
(Figures 7, 8 and 10 are plots over exactly such a series).
"""

from __future__ import annotations

from typing import Iterable, Iterator, Optional, Sequence, Union

import numpy as np

from .mhm import MemoryHeatMap
from .spec import HeatMapSpec

__all__ = ["HeatMapSeries", "as_matrix"]


class HeatMapSeries:
    """An ordered, spec-homogeneous sequence of :class:`MemoryHeatMap`.

    Supports list-style access, concatenation, slicing and conversion to
    the ``(N, L)`` training matrix used by :mod:`repro.learn`.
    """

    def __init__(self, spec: HeatMapSpec, maps: Optional[Iterable[MemoryHeatMap]] = None):
        self.spec = spec
        self._maps: list[MemoryHeatMap] = []
        if maps is not None:
            for m in maps:
                self.append(m)

    # ------------------------------------------------------------------
    # Collection protocol
    # ------------------------------------------------------------------
    def append(self, heat_map: MemoryHeatMap) -> None:
        if heat_map.spec != self.spec:
            raise ValueError("heat map spec does not match the series spec")
        self._maps.append(heat_map)

    def extend(self, maps: Iterable[MemoryHeatMap]) -> None:
        for m in maps:
            self.append(m)

    def __len__(self) -> int:
        return len(self._maps)

    def __iter__(self) -> Iterator[MemoryHeatMap]:
        return iter(self._maps)

    def __getitem__(self, item):
        if isinstance(item, slice):
            return HeatMapSeries(self.spec, self._maps[item])
        return self._maps[item]

    def __add__(self, other: "HeatMapSeries") -> "HeatMapSeries":
        if other.spec != self.spec:
            raise ValueError("cannot concatenate series with different specs")
        return HeatMapSeries(self.spec, list(self._maps) + list(other._maps))

    # ------------------------------------------------------------------
    # Views
    # ------------------------------------------------------------------
    def matrix(self, dtype=np.float64) -> np.ndarray:
        """Stack into the ``(N, L)`` matrix of Section 4.1."""
        if not self._maps:
            return np.empty((0, self.spec.num_cells), dtype=dtype)
        return np.stack([m.as_vector(dtype) for m in self._maps])

    def traffic_volumes(self) -> np.ndarray:
        """Per-interval total access counts (Figure 9's series)."""
        return np.array([m.total_accesses for m in self._maps], dtype=np.int64)

    def mean_map(self) -> MemoryHeatMap:
        """The empirical mean MHM ``Psi`` (rounded to integer counts)."""
        if not self._maps:
            raise ValueError("cannot take the mean of an empty series")
        mean = self.matrix().mean(axis=0)
        return MemoryHeatMap(self.spec, np.rint(mean).astype(np.int64))

    def split(self, fraction: float) -> tuple["HeatMapSeries", "HeatMapSeries"]:
        """Chronological split, e.g. train/validation for θ calibration."""
        if not 0.0 < fraction < 1.0:
            raise ValueError("fraction must be in (0, 1)")
        cut = int(round(len(self._maps) * fraction))
        cut = max(1, min(cut, len(self._maps) - 1)) if len(self._maps) >= 2 else cut
        return self[:cut], self[cut:]

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------
    def save(self, path) -> None:
        """Save to an ``.npz`` archive (counts matrix + spec + metadata)."""
        np.savez_compressed(
            path,
            counts=self.matrix(dtype=np.int64),
            base_address=self.spec.base_address,
            region_size=self.spec.region_size,
            granularity=self.spec.granularity,
            interval_index=np.array([m.interval_index for m in self._maps], dtype=np.int64),
            start_time_ns=np.array([m.start_time_ns for m in self._maps], dtype=np.int64),
        )

    @classmethod
    def load(cls, path) -> "HeatMapSeries":
        with np.load(path) as data:
            spec = HeatMapSpec(
                base_address=int(data["base_address"]),
                region_size=int(data["region_size"]),
                granularity=int(data["granularity"]),
            )
            counts = data["counts"]
            intervals = data["interval_index"]
            starts = data["start_time_ns"]
        series = cls(spec)
        for row, idx, start in zip(counts, intervals, starts):
            series.append(
                MemoryHeatMap(spec, row, interval_index=int(idx), start_time_ns=int(start))
            )
        return series

    @classmethod
    def from_matrix(
        cls, spec: HeatMapSpec, matrix: Sequence[Sequence[int]]
    ) -> "HeatMapSeries":
        """Build a series from a raw ``(N, L)`` count matrix (tests, docs)."""
        series = cls(spec)
        for i, row in enumerate(np.asarray(matrix, dtype=np.int64)):
            series.append(MemoryHeatMap(spec, row, interval_index=i))
        return series

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"HeatMapSeries(n={len(self)}, cells={self.spec.num_cells})"


def as_matrix(data: Union[HeatMapSeries, np.ndarray]) -> np.ndarray:
    """Heat maps as the ``(N, L)`` float64 matrix :mod:`repro.learn`
    fits and scores: a series' rows, or an array (a single 1-D map is
    one row).  Anything that is not 2-D after that is rejected."""
    if isinstance(data, HeatMapSeries):
        return data.matrix()
    matrix = np.asarray(data, dtype=np.float64)
    if matrix.ndim == 1:
        matrix = matrix[np.newaxis, :]
    if matrix.ndim != 2:
        raise ValueError(f"expected an (N, L) matrix, got shape {matrix.shape}")
    return matrix
