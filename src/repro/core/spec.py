"""Heat-map region specification.

A memory heat map (MHM) is defined in the paper (Section 2) by a triple:
the base address ``AddrBase``, the region size ``S`` and the granularity
``delta``.  These three parameters determine *where* and at *what detail*
the memory behaviour of the system is monitored.

The hardware (Section 3.1, "Address Filtering and Target Cell
Calculation") computes the target cell of a snooped address ``Addr*`` as::

    offset = Addr* - AddrBase          # (i)
    0 <= offset < S                    # (ii) otherwise drop
    idx = offset >> g,  g = log2(delta)  # (iii)

:class:`HeatMapSpec` is the single source of truth for that arithmetic's
parameters.  Both the software heat map (:mod:`repro.core.mhm`) and the
Memometer hardware model (:mod:`repro.hw.memometer`) count whole bursts
with them through :func:`repro.kernels.count_cells`, so the two can never
disagree.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["HeatMapSpec"]


def _is_power_of_two(value: int) -> bool:
    return value > 0 and (value & (value - 1)) == 0


@dataclass(frozen=True)
class HeatMapSpec:
    """Immutable description of a monitored memory region.

    Parameters
    ----------
    base_address:
        First byte of the monitored region (``AddrBase`` in the paper).
    region_size:
        Size ``S`` of the region in bytes.  Need not be a multiple of the
        granularity; the last cell simply covers a partial range.
    granularity:
        Cell size ``delta`` in bytes.  Must be a power of two because the
        hardware computes the cell index with a logical right shift.

    Examples
    --------
    The paper's running example (Figure 1) monitors the Linux kernel
    ``.text`` segment:

    >>> spec = HeatMapSpec(base_address=0xC0008000,
    ...                    region_size=3_013_284, granularity=2048)
    >>> spec.num_cells
    1472
    >>> spec.shift
    11
    """

    base_address: int
    region_size: int
    granularity: int

    def __post_init__(self) -> None:
        if self.base_address < 0:
            raise ValueError(f"base_address must be >= 0, got {self.base_address:#x}")
        if self.region_size <= 0:
            raise ValueError(f"region_size must be > 0, got {self.region_size}")
        if not _is_power_of_two(self.granularity):
            raise ValueError(
                f"granularity must be a positive power of two, got {self.granularity}"
            )

    # ------------------------------------------------------------------
    # Derived parameters
    # ------------------------------------------------------------------
    @property
    def shift(self) -> int:
        """The shift amount ``g = log2(granularity)`` used by the hardware."""
        return self.granularity.bit_length() - 1

    @property
    def num_cells(self) -> int:
        """Number of cells ``L`` (the last cell may cover a partial range)."""
        return -(-self.region_size // self.granularity)

    @property
    def end_address(self) -> int:
        """One past the last monitored byte, ``AddrBase + S``."""
        return self.base_address + self.region_size

    # ------------------------------------------------------------------
    # Address arithmetic (the hardware formula)
    # ------------------------------------------------------------------
    def contains(self, address: int) -> bool:
        """Whether ``address`` falls inside the monitored region."""
        offset = address - self.base_address
        return 0 <= offset < self.region_size

    def cell_index(self, address: int) -> int:
        """Target cell index for an in-region address.

        Raises
        ------
        ValueError
            If the address is outside the monitored region.  The hardware
            silently drops such addresses; callers that want that
            behaviour should test :meth:`contains` first (or count a
            whole burst with :func:`repro.kernels.count_cells`).
        """
        offset = address - self.base_address
        if not 0 <= offset < self.region_size:
            raise ValueError(
                f"address {address:#x} outside region "
                f"[{self.base_address:#x}, {self.end_address:#x})"
            )
        return offset >> self.shift

    def cell_start(self, index: int) -> int:
        """First address covered by cell ``index``."""
        self._check_index(index)
        return self.base_address + index * self.granularity

    def cell_range(self, index: int) -> tuple[int, int]:
        """Half-open address range ``[start, end)`` covered by a cell.

        The final cell is clipped to the region end when ``region_size``
        is not a multiple of the granularity.
        """
        start = self.cell_start(index)
        end = min(start + self.granularity, self.end_address)
        return start, end

    def _check_index(self, index: int) -> None:
        if not 0 <= index < self.num_cells:
            raise IndexError(f"cell index {index} out of range [0, {self.num_cells})")

    # ------------------------------------------------------------------
    # Serialisation
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        return {
            "base_address": self.base_address,
            "region_size": self.region_size,
            "granularity": self.granularity,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "HeatMapSpec":
        return cls(
            base_address=int(data["base_address"]),
            region_size=int(data["region_size"]),
            granularity=int(data["granularity"]),
        )

    def with_granularity(self, granularity: int) -> "HeatMapSpec":
        """Same region observed at a different cell size."""
        return HeatMapSpec(self.base_address, self.region_size, granularity)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"HeatMapSpec(base={self.base_address:#x}, size={self.region_size}, "
            f"delta={self.granularity}, cells={self.num_cells})"
        )
