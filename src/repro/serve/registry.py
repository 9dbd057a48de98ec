"""Detector registry: device profile → fitted detectors.

A fleet mixes device *profiles* (named platform configurations from
:mod:`repro.sim.fleet`); every device of a profile shares one
:class:`MhmDetector` and, for the context-bearing modalities, one
:class:`ContextDetector`, both trained on that profile's normal
behaviour.  A profile's training set is one
:class:`~repro.pipeline.stages.TrainSpec`: the :class:`FleetTrainSpec`
budget, seeded by a hash of ``(root_seed, profile)``.  The registry
fits both models lazily on it through the artifact cache
(:func:`~repro.pipeline.stages.fit_cached`, which collects the training
set only on a fit miss), so repeated serves of the same fleet
configuration load fitted parameters bit-identically from disk instead
of re-running EM.

Shard workers never train: the parent process resolves every needed
detector once, exports the fitted parameters with
:meth:`DetectorRegistry.fleet_payload`, and workers rebuild them via
:meth:`DetectorRegistry.from_fleet_payload` —
``from_arrays(to_arrays(d))`` is bit-exact, so every shard scores with
numerically identical detectors.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Dict, Iterable, Optional, Tuple

import numpy as np

from ..learn.contexts import ContextDetector
from ..learn.detector import MhmDetector
from ..pipeline.cache import ArtifactCache
from ..pipeline.stages import (
    CONTEXT_STAGE,
    DETECTOR_STAGE,
    TrainSpec,
    collect_training_data_cached,
    fit_cached,
)
from ..pipeline.training import TrainingData
from ..sim.fleet import profile_config

__all__ = ["FleetTrainSpec", "DetectorRegistry"]


@dataclass(frozen=True)
class FleetTrainSpec:
    """Training budget for each profile's detector."""

    runs: int = 2
    intervals_per_run: int = 80
    validation_intervals: int = 80
    num_gaussians: int = 5
    em_restarts: int = 3

    def __post_init__(self) -> None:
        if self.runs < 1 or self.intervals_per_run < 1:
            raise ValueError("training needs at least one run and interval")
        if self.validation_intervals < 1:
            raise ValueError("validation_intervals must be >= 1")


def _profile_seeds(root_seed: int, profile: str) -> tuple:
    """Deterministic (base_seed, detector_seed) for a profile.

    Mixing a hash of the profile name into the ``SeedSequence`` entropy
    gives every profile independent training streams while staying a
    pure function of ``(root_seed, profile)`` — the same property the
    runner relies on for worker-count independence.
    """
    tag = int.from_bytes(
        hashlib.sha256(profile.encode()).digest()[:8], "big"
    )
    state = np.random.SeedSequence([root_seed, tag]).generate_state(2, np.uint32)
    return int(state[0]), int(state[1])


class DetectorRegistry:
    """Lazily fits and memoises each profile's detectors."""

    def __init__(
        self,
        root_seed: int = 0,
        train: FleetTrainSpec = FleetTrainSpec(),
        cache: Optional[ArtifactCache] = None,
    ):
        self.root_seed = root_seed
        self.train = train
        self.cache = cache
        self._fitted: Dict[Tuple[str, str], object] = {}
        self._training: Dict[str, TrainingData] = {}
        self.cache_hits = 0

    def detector_for(self, profile: str) -> MhmDetector:
        return self._fit(DETECTOR_STAGE, profile)

    def context_detector_for(self, profile: str) -> ContextDetector:
        """The profile's second-modality model (fitted lazily, cached)."""
        return self._fit(CONTEXT_STAGE, profile)

    # -- shard worker hand-off -----------------------------------------
    def fleet_payload(
        self, profiles: Iterable[str], modality: str = "mhm"
    ) -> Dict[str, dict]:
        """Bundled per-profile hand-off for the fused scoring path.

        One picklable dict per profile: the MHM detector's fitted
        arrays plus (for the context-bearing modalities) the context
        model's — everything a shard needs to build its
        :class:`~repro.kernels.FleetScorer` bank, shipped in a single
        payload.
        """
        need_context = modality != "mhm"
        return {
            profile: {
                "detector": self.detector_for(profile).to_arrays(),
                "context": (
                    self.context_detector_for(profile).to_arrays()
                    if need_context
                    else None
                ),
            }
            for profile in sorted(set(profiles))
        }

    @staticmethod
    def from_fleet_payload(
        payload: Dict[str, dict]
    ) -> tuple:
        """Rebuild ``(detectors, context_detectors)`` inside a shard
        worker (bit-exact); ``context_detectors`` is ``None`` when the
        payload carries no context bundles."""
        detectors = {
            profile: MhmDetector.from_arrays(bundle["detector"])
            for profile, bundle in payload.items()
        }
        contexts = {
            profile: ContextDetector.from_arrays(bundle["context"])
            for profile, bundle in payload.items()
            if bundle.get("context") is not None
        }
        return detectors, (contexts or None)

    # -- training ------------------------------------------------------
    def _fit(self, stage: str, profile: str):
        """The profile's fitted detector of ``stage``, fitted once.

        The profile trains on one :class:`~repro.pipeline.stages.TrainSpec`
        (the :class:`FleetTrainSpec` budget at the profile's seeds);
        :func:`~repro.pipeline.stages.fit_cached` collects it only when
        the fit itself misses the cache.  Without a cache the registry
        collects it once and hands it to both fit stages.  Each cache
        hit (fit or training data) counts in :attr:`cache_hits`.
        """
        fitted = self._fitted.get((stage, profile))
        if fitted is not None:
            return fitted
        base_seed, detector_seed = _profile_seeds(self.root_seed, profile)
        spec = self.train
        config = profile_config(profile)
        train = TrainSpec(
            spec.runs, spec.intervals_per_run, spec.validation_intervals, base_seed
        )
        fit_kwargs = {"seed": detector_seed}
        if stage == DETECTOR_STAGE:
            fit_kwargs.update(
                num_gaussians=spec.num_gaussians, em_restarts=spec.em_restarts
            )
        data = None
        if self.cache is None:
            data = self._training.get(profile)
            if data is None:
                data, _ = collect_training_data_cached(config, train)
                self._training[profile] = data
        fitted, stages = fit_cached(
            stage,
            config,
            train,
            fit_kwargs,
            cache=self.cache,
            fault_token=f"serve:{profile}",
            data=data,
        )
        self.cache_hits += sum(hit for hit, _ in stages.values())
        self._fitted[(stage, profile)] = fitted
        return fitted
