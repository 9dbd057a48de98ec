"""Cache-aware pipeline stages: simulate, train, replay.

The expensive stages of the evaluation pipeline — collecting normal
MHM traces, fitting the eigenmemory/GMM detector, and simulating an
attack scenario — are pure functions of ``(configuration, seeds)``.
This module wraps each of them with optional memoisation in an
:class:`~repro.pipeline.cache.ArtifactCache`:

* :class:`TrainSpec` — one training set (the Section 5.2 protocol:
  seeded normal boots plus a held-out validation boot); its
  :meth:`~TrainSpec.material` is the training stage's cache key
  material and sits inside every fitted-detector key;
* :func:`collect_training_data_cached` — normal MHM traces (and the
  per-interval syscall matrices) of a :class:`TrainSpec`;
* :func:`fit_cached` — one fitted detector per modality: the PCA
  basis + GMM parameters + calibrated thresholds
  (``DETECTOR_STAGE``) or the syscall execution contexts
  (``CONTEXT_STAGE``), stored via the detector's ``to_arrays``.  On a
  fit miss it collects the training data itself, through the cache,
  unless the caller hands it the data;
* :func:`run_scenario_cached` — a full attack-scenario MHM series
  with its event timeline.

Every function returns ``(value, hit)`` (:func:`fit_cached` a
per-stage record in place of ``hit``) so callers can report cache
effectiveness.  When ``cache`` is ``None`` the plain uncached path
runs.  On a miss the output is round-tripped through the exact arrays
that were stored, so cached and freshly-computed results are
bit-identical by construction — the determinism test suite holds the
pipeline to that.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, Mapping, Optional, Tuple

import numpy as np

from .. import faults, kernels
from ..attacks import (
    AppLaunchAttack,
    InterruptStormAttack,
    MimicryShellcodeAttack,
    ShellcodeAttack,
    SlowDriftExfiltration,
    SmmShadowAttack,
    SyscallHijackRootkit,
)
from ..core.mhm import MemoryHeatMap
from ..core.series import HeatMapSeries
from ..core.spec import HeatMapSpec
from ..learn.contexts import ContextDetector
from ..learn.detector import MhmDetector
from ..sim.platform import Platform, PlatformConfig
from .cache import ArtifactCache
from .scenario import (
    INJECT_OFFSET_FRACTION,
    ScenarioEvent,
    ScenarioResult,
    ScenarioRunner,
)
from .training import (
    TrainingData,
    collect_training_data,
    train_context_detector,
    train_detector,
)

__all__ = [
    "SCENARIOS",
    "scenario_reversible",
    "TRAINING_STAGE",
    "DETECTOR_STAGE",
    "CONTEXT_STAGE",
    "SCENARIO_STAGE",
    "make_attack",
    "series_to_arrays",
    "series_from_arrays",
    "FIT_STAGES",
    "TrainSpec",
    "fit_material",
    "scenario_material",
    "collect_training_data_cached",
    "fit_cached",
    "run_scenario_cached",
]

#: Attack constructors by scenario name (the CLI, runner job model,
#: fleet simulator and conformance matrix all share this registry).
#: Registering a scenario here is what makes the conformance matrix
#: score it — and the matrix refuses to build unless the attack class
#: declares an expected outcome per detector column, so additions
#: cannot land undeclared (see docs/attacks.md).
SCENARIOS = {
    # The paper's Section 5.3 scenarios.
    "app-launch": AppLaunchAttack,
    "shellcode": ShellcodeAttack,
    "rootkit": SyscallHijackRootkit,
    # Adversarial corpus: designed blind-spot probes.
    "mimicry": MimicryShellcodeAttack,
    "slow-drift": SlowDriftExfiltration,
    "interrupt-storm": InterruptStormAttack,
    "smm-shadow": SmmShadowAttack,
}


def scenario_reversible(scenario: str) -> bool:
    """Whether a registered scenario's default attack can be reverted.

    Probes the class without touching a platform (construction is
    side-effect free by contract) — callers like the fleet-spec builder
    use this instead of constructing throwaway attacks.
    """
    return make_attack(scenario).reversible


TRAINING_STAGE = "training"
DETECTOR_STAGE = "detector"
CONTEXT_STAGE = "context"
SCENARIO_STAGE = "scenario"

#: The fitted-detector stages, one entry per modality: the fit function
#: over :class:`TrainingData` and the detector class whose
#: ``to_arrays``/``from_arrays`` pair stores it.  A new modality is one
#: entry here.
FIT_STAGES = {
    DETECTOR_STAGE: (train_detector, MhmDetector),
    CONTEXT_STAGE: (train_context_detector, ContextDetector),
}


def make_attack(scenario: str, params: Optional[Mapping] = None):
    """Instantiate a registered attack with constructor overrides."""
    try:
        factory = SCENARIOS[scenario]
    except KeyError:
        raise ValueError(
            f"unknown scenario {scenario!r}; choose from {sorted(SCENARIOS)}"
        ) from None
    return factory(**dict(params or {}))


# ----------------------------------------------------------------------
# Series <-> arrays
# ----------------------------------------------------------------------
def series_to_arrays(series: HeatMapSeries, prefix: str) -> Dict[str, np.ndarray]:
    """Flatten a series into cache-storable arrays (exact int64 counts)."""
    return {
        f"{prefix}_counts": series.matrix(dtype=np.int64),
        f"{prefix}_interval_index": np.array(
            [m.interval_index for m in series], dtype=np.int64
        ),
        f"{prefix}_start_time_ns": np.array(
            [m.start_time_ns for m in series], dtype=np.int64
        ),
    }


def series_from_arrays(
    arrays: Mapping[str, np.ndarray], prefix: str, spec: HeatMapSpec
) -> HeatMapSeries:
    series = HeatMapSeries(spec)
    for row, index, start in zip(
        arrays[f"{prefix}_counts"],
        arrays[f"{prefix}_interval_index"],
        arrays[f"{prefix}_start_time_ns"],
    ):
        series.append(
            MemoryHeatMap(
                spec, row, interval_index=int(index), start_time_ns=int(start)
            )
        )
    return series


# ----------------------------------------------------------------------
# Cache-key material
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class TrainSpec:
    """One training set: ``runs`` independently seeded normal boots of
    ``intervals_per_run`` MHMs plus a held-out validation boot of
    ``validation_intervals`` (the paper's Section 5.2 protocol), all
    seeded from ``base_seed``.  Both modalities train on it."""

    runs: int = 3
    intervals_per_run: int = 120
    validation_intervals: int = 120
    base_seed: int = 100

    def material(self, config: PlatformConfig) -> dict:
        """The training stage's cache-key material on ``config``."""
        return {
            "config": config,
            "runs": self.runs,
            "intervals_per_run": self.intervals_per_run,
            "validation_intervals": self.validation_intervals,
            "base_seed": self.base_seed,
            # Stored-array-set version: entries now carry the per-interval
            # syscall matrices alongside the MHM series, so pre-capture
            # cache entries (which lack those arrays) must not be reused.
            "capture": "syscalls-v1",
        }


def fit_material(stage: str, train_material: dict, fit_kwargs: Mapping) -> dict:
    """Cache-key material for a fitted detector of ``stage``.

    The kernels backend is a genuine input of both fitting stages:
    reference and vectorized scoring (the GMM densities, the
    nearest-context distances) agree only to rounding, EM amplifies
    last-ulp differences across iterations and quantile thresholds sit
    directly on those distances — so the two backends must not share
    fitted-detector cache entries.  The simulation stages stay
    backend-agnostic: MHM counts are integer and bit-identical under
    both backends by construction.  The fit kwargs sit under the stage
    name (``"detector"`` / ``"context"``).
    """
    return {
        "train": train_material,
        stage: dict(fit_kwargs),
        "kernels_backend": kernels.active_backend(),
    }


def scenario_material(
    config: PlatformConfig,
    scenario: str,
    attack_params: Mapping,
    pre_intervals: int,
    attack_intervals: int,
    post_intervals: int,
    scenario_seed: int,
) -> dict:
    return {
        "config": config,
        "scenario": scenario,
        "attack": dict(attack_params),
        "pre_intervals": pre_intervals,
        "attack_intervals": attack_intervals,
        "post_intervals": post_intervals,
        "scenario_seed": scenario_seed,
        "inject_offset_fraction": INJECT_OFFSET_FRACTION,
        "capture": "syscalls-v1",
    }


# ----------------------------------------------------------------------
# Stages
# ----------------------------------------------------------------------
def collect_training_data_cached(
    config: PlatformConfig,
    train: TrainSpec,
    cache: Optional[ArtifactCache] = None,
) -> Tuple[TrainingData, bool]:
    """Collect (or load) the normal training/validation MHM traces."""

    def collect() -> TrainingData:
        return collect_training_data(
            config,
            runs=train.runs,
            intervals_per_run=train.intervals_per_run,
            validation_intervals=train.validation_intervals,
            base_seed=train.base_seed,
        )

    if cache is None:
        return collect(), False

    def compute() -> Dict[str, np.ndarray]:
        data = collect()
        return {
            **series_to_arrays(data.training, "training"),
            **series_to_arrays(data.validation, "validation"),
            # Per-run matrices share one shape by construction, so they
            # stack into a single exact int64 (runs, T, V) array.
            "training_syscalls": np.stack(data.training_syscalls),
            "validation_syscalls": data.validation_syscalls,
        }

    arrays, hit = cache.fetch(TRAINING_STAGE, train.material(config), compute)
    spec = config.spec
    data = TrainingData(
        training=series_from_arrays(arrays, "training", spec),
        validation=series_from_arrays(arrays, "validation", spec),
        training_syscalls=[
            np.asarray(run, dtype=np.int64)
            for run in arrays["training_syscalls"]
        ],
        validation_syscalls=np.asarray(
            arrays["validation_syscalls"], dtype=np.int64
        ),
    )
    return data, hit


def fit_cached(
    stage: str,
    config: PlatformConfig,
    train: TrainSpec,
    fit_kwargs: Mapping,
    cache: Optional[ArtifactCache] = None,
    fault_token: str = "-",
    data: Optional[TrainingData] = None,
) -> tuple:
    """Fit (or load) the detector of ``stage`` (see :data:`FIT_STAGES`)
    on the training set ``train`` of ``config``.

    Returns ``(detector, stages)``: ``stages`` maps every stage this
    call entered to ``(hit, seconds)`` — ``stage`` itself first (its
    seconds cover the whole call), then :data:`TRAINING_STAGE` when a
    fit miss collected the training data (through ``cache`` when there
    is one).  A fit hit skips the training-data stage entirely;
    ``data``, when the caller already holds the training set, is used
    instead of collecting it.  The cache key is :func:`fit_material`
    over ``train.material``.

    Injection site ``stages.fit`` guards the training compute;
    ``fault_token`` should identify the invocation (the runner passes
    ``job-name@attempt`` so retried attempts roll fresh fault
    decisions).
    """
    started = time.perf_counter()
    fit, detector_class = FIT_STAGES[stage]
    kwargs = dict(fit_kwargs)
    collected: dict = {}

    def fitted():
        faults.check("stages.fit", token=fault_token)
        training = data
        if training is None:
            collect_started = time.perf_counter()
            training, hit = collect_training_data_cached(config, train, cache)
            collected[TRAINING_STAGE] = (
                hit, time.perf_counter() - collect_started
            )
        return fit(training, **kwargs)

    if cache is None:
        detector, hit = fitted(), False
    else:
        arrays, hit = cache.fetch(
            stage,
            fit_material(stage, train.material(config), kwargs),
            lambda: fitted().to_arrays(),
        )
        detector = detector_class.from_arrays(arrays)
    return detector, {stage: (hit, time.perf_counter() - started), **collected}


def run_scenario_cached(
    config: PlatformConfig,
    scenario: str,
    attack_params: Optional[Mapping] = None,
    pre_intervals: int = 40,
    attack_intervals: int = 40,
    post_intervals: int = 0,
    scenario_seed: int = 999,
    cache: Optional[ArtifactCache] = None,
    fault_token: str = "-",
) -> Tuple[ScenarioResult, bool]:
    """Simulate (or load) one attack scenario on a fresh platform.

    Injection site ``stages.replay`` guards the simulation compute
    (see :func:`fit_cached` for the ``fault_token`` convention).
    """
    attack_params = dict(attack_params or {})

    def simulate() -> ScenarioResult:
        faults.check("stages.replay", token=fault_token)
        platform = Platform(config.with_seed(scenario_seed))
        return ScenarioRunner(platform).run(
            make_attack(scenario, attack_params),
            pre_intervals=pre_intervals,
            attack_intervals=attack_intervals,
            post_intervals=post_intervals,
        )

    if cache is None:
        return simulate(), False

    def compute() -> Dict[str, np.ndarray]:
        result = simulate()
        return {
            **series_to_arrays(result.series, "series"),
            "series_syscalls": result.syscalls,
            "start_interval_index": np.array(
                result.start_interval_index, dtype=np.int64
            ),
            "name": np.array(result.name),
            "event_labels": np.array(
                [e.label for e in result.events], dtype=np.str_
            ),
            "event_times": np.array(
                [e.time_ns for e in result.events], dtype=np.int64
            ),
            "event_intervals": np.array(
                [e.interval_index for e in result.events], dtype=np.int64
            ),
        }

    material = scenario_material(
        config,
        scenario,
        attack_params,
        pre_intervals,
        attack_intervals,
        post_intervals,
        scenario_seed,
    )
    arrays, hit = cache.fetch(SCENARIO_STAGE, material, compute)
    result = ScenarioResult(
        name=str(arrays["name"]),
        series=series_from_arrays(arrays, "series", config.spec),
        syscalls=np.asarray(arrays["series_syscalls"], dtype=np.int64),
        start_interval_index=int(arrays["start_interval_index"]),
        events=[
            ScenarioEvent(label=str(label), time_ns=int(t), interval_index=int(i))
            for label, t, i in zip(
                arrays["event_labels"],
                arrays["event_times"],
                arrays["event_intervals"],
            )
        ],
    )
    return result, hit
