"""Kernel-service memory footprints.

Section 2's key idea is that "an MHM is a composition of different
activities in a certain memory region" — each kernel service contributes
a characteristic *footprint*: the set of function ranges its call graph
fetches, and how often.  This module models footprints as a list of
:class:`FootprintStep` (function, mean iteration count, body coverage)
and compiles them against a :class:`~repro.sim.kernel.layout.KernelLayout`
into address/weight arrays that can be emitted as
:class:`~repro.sim.trace.AccessBurst` records.

A footprint's addresses are fixed and its weight is constant within a
step, so against a given Memometer region the fetches of one invocation
reduce to ``iters @ C``: per-step iteration counts times a precompiled
steps x cells count matrix (:meth:`CompiledFootprint.cell_counts`).
That is the paper's ``idx = (addr - base) >> log2 delta`` done once per
footprint instead of once per fetch.

Per-invocation variation (loop trip counts, data-dependent paths) is
modelled by jittering each step's iteration count, which is exactly the
"small variations from one or more of these patterns" the paper's GMM
absorbs (Section 4.3).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .layout import KernelLayout

__all__ = [
    "FETCH_STRIDE",
    "FootprintStep",
    "CellCounts",
    "CompiledFootprint",
    "FootprintCompiler",
]

#: Bytes between sampled fetch addresses inside a function body.  The
#: MHM granularity is >= 512 B in every experiment, so a 16-byte sample
#: stride loses nothing while keeping bursts small.
FETCH_STRIDE = 16


@dataclass(frozen=True)
class FootprintStep:
    """One function visited by a service's call graph.

    Parameters
    ----------
    function:
        Kernel symbol name, resolved against the layout.  ``None`` when
        the step is given by an explicit address range instead (used for
        module-space code, which has no kernel symbol).
    iterations:
        Mean number of times the function body executes per invocation.
    coverage:
        Fraction of the body fetched (data-dependent early exits).
    jitter:
        Relative standard deviation of the iteration count.
    address, size:
        Explicit range for symbol-less steps.
    """

    function: Optional[str]
    iterations: float = 1.0
    coverage: float = 1.0
    jitter: float = 0.10
    address: Optional[int] = None
    size: Optional[int] = None

    def __post_init__(self) -> None:
        if self.function is None and (self.address is None or self.size is None):
            raise ValueError("step needs either a function name or an explicit range")
        if self.iterations <= 0:
            raise ValueError("iterations must be positive")
        if not 0.0 < self.coverage <= 1.0:
            raise ValueError("coverage must be in (0, 1]")
        if self.jitter < 0:
            raise ValueError("jitter must be non-negative")
        if self.size is not None and self.size <= 0:
            raise ValueError("explicit step size must be positive")


@dataclass(frozen=True)
class CellCounts:
    """A footprint's fetches binned into one Memometer region's cells.

    Attributes
    ----------
    cells:
        Sorted, unique indices of the cells the footprint touches.
    weights:
        ``(num_steps, 2 + len(cells))`` int64 matrix.  Row *s* holds
        step *s*'s number of fetch addresses, then how many of them
        fall inside the region, then how many fall into each of
        ``cells``.  One invocation's ``iters @ weights`` is therefore
        ``[snooped, accepted, per-cell increments...]``.
    """

    cells: np.ndarray
    weights: np.ndarray


class CompiledFootprint:
    """A footprint resolved to concrete fetch addresses.

    ``sample_iterations(rng)`` draws one invocation's per-step jittered
    iteration counts; ``sample(rng)`` expands the same draw into the
    shared address vector plus a per-address weight vector.  ``mean()``
    returns the deterministic expected burst, used by tests and by
    analytical checks.  The footprint is immutable, so its per-region
    :meth:`cell_counts` are computed once and cached.
    """

    def __init__(
        self,
        addresses: np.ndarray,
        step_lengths: np.ndarray,
        mean_iterations: np.ndarray,
        jitters: np.ndarray,
    ):
        self.addresses = np.asarray(addresses, dtype=np.int64)
        self.addresses.setflags(write=False)
        self.step_lengths = np.asarray(step_lengths, dtype=np.int64)
        self.mean_iterations = np.asarray(mean_iterations, dtype=np.float64)
        self.jitters = np.asarray(jitters, dtype=np.float64)
        if self.step_lengths.sum() != len(self.addresses):
            raise ValueError("step lengths do not cover the address vector")
        if not (
            len(self.step_lengths) == len(self.mean_iterations) == len(self.jitters)
        ):
            raise ValueError("per-step arrays must have equal length")
        self._cell_counts: dict[tuple[int, int, int], CellCounts] = {}

    @property
    def num_steps(self) -> int:
        return len(self.step_lengths)

    @property
    def num_addresses(self) -> int:
        return len(self.addresses)

    @property
    def mean_total_accesses(self) -> float:
        return float((self.step_lengths * self.mean_iterations).sum())

    def sample_iterations(
        self, rng: np.random.Generator, jitter_scale: float = 1.0
    ) -> np.ndarray:
        """One invocation's per-step iteration counts (int64, >= 1).

        ``jitter_scale`` multiplies every step's jitter; an RTOS-like
        platform (deterministic loop bounds) uses a scale < 1.  One
        ``rng.normal`` draw per call, whichever path consumes it.
        """
        noise = rng.normal(loc=1.0, scale=self.jitters * jitter_scale)
        return np.maximum(1, np.rint(self.mean_iterations * noise)).astype(np.int64)

    def sample(
        self, rng: np.random.Generator, jitter_scale: float = 1.0
    ) -> tuple[np.ndarray, np.ndarray]:
        """One invocation: ``(addresses, weights)`` with jittered counts."""
        iters = self.sample_iterations(rng, jitter_scale)
        return self.addresses, np.repeat(iters, self.step_lengths)

    def cell_counts(
        self, base_address: int, region_size: int, shift: int
    ) -> CellCounts:
        """The footprint binned into the cells of one Memometer region.

        Cached per ``(base_address, region_size, shift)``.  For any
        iteration vector ``iters``, the per-cell part of ``iters @
        weights`` scattered into ``cells`` equals ``count_cells`` over
        ``sample``'s expanded burst, exactly, in int64.
        """
        key = (base_address, region_size, shift)
        cached = self._cell_counts.get(key)
        if cached is None:
            offsets = self.addresses - base_address
            inside = (offsets >= 0) & (offsets < region_size)
            steps = np.repeat(
                np.arange(self.num_steps, dtype=np.int64), self.step_lengths
            )[inside]
            cells, columns = np.unique(offsets[inside] >> shift, return_inverse=True)
            weights = np.zeros((self.num_steps, 2 + len(cells)), dtype=np.int64)
            weights[:, 0] = self.step_lengths
            weights[:, 1] = np.bincount(steps, minlength=self.num_steps)
            np.add.at(weights, (steps, 2 + columns), 1)
            cells.setflags(write=False)
            weights.setflags(write=False)
            cached = self._cell_counts[key] = CellCounts(cells=cells, weights=weights)
        return cached

    def mean(self) -> tuple[np.ndarray, np.ndarray]:
        """The expected (jitter-free) invocation."""
        iters = np.maximum(1, np.rint(self.mean_iterations)).astype(np.int64)
        return self.addresses, np.repeat(iters, self.step_lengths)


class FootprintCompiler:
    """Resolves :class:`FootprintStep` lists against a kernel layout."""

    def __init__(self, layout: KernelLayout, stride: int = FETCH_STRIDE):
        if stride <= 0:
            raise ValueError("stride must be positive")
        self.layout = layout
        self.stride = stride

    def _step_addresses(self, step: FootprintStep) -> np.ndarray:
        if step.function is not None:
            fn = self.layout.symbol(step.function)
            start, size = fn.address, fn.size
        else:
            start, size = step.address, step.size  # validated in __post_init__
        covered = max(self.stride, int(size * step.coverage))
        covered = min(covered, size)
        return np.arange(start, start + covered, self.stride, dtype=np.int64)

    def compile(self, steps: Sequence[FootprintStep]) -> CompiledFootprint:
        """Compile a step list into a reusable :class:`CompiledFootprint`."""
        if not steps:
            raise ValueError("footprint must have at least one step")
        chunks = [self._step_addresses(step) for step in steps]
        return CompiledFootprint(
            addresses=np.concatenate(chunks),
            step_lengths=np.array([len(c) for c in chunks], dtype=np.int64),
            mean_iterations=np.array([s.iterations for s in steps], dtype=np.float64),
            jitters=np.array([s.jitter for s in steps], dtype=np.float64),
        )
