"""Cache-aware pipeline stages: simulate, train, replay.

The expensive stages of the evaluation pipeline — collecting normal
MHM traces, fitting the eigenmemory/GMM detector, and simulating an
attack scenario — are pure functions of ``(configuration, seeds)``.
This module wraps each of them with optional memoisation in an
:class:`~repro.pipeline.cache.ArtifactCache`:

* :func:`collect_training_data_cached` — normal MHM traces (and the
  per-interval syscall matrices);
* :func:`fit_cached` — one fitted detector per modality: the PCA
  basis + GMM parameters + calibrated thresholds
  (``DETECTOR_STAGE``) or the syscall execution contexts
  (``CONTEXT_STAGE``), stored via the detector's ``to_arrays``;
* :func:`run_scenario_cached` — a full attack-scenario MHM series
  with its event timeline.

Every function returns ``(value, hit)`` so callers can report cache
effectiveness.  When ``cache`` is ``None`` the plain uncached path
runs.  On a miss the output is round-tripped through the exact arrays
that were stored, so cached and freshly-computed results are
bit-identical by construction — the determinism test suite holds the
pipeline to that.
"""

from __future__ import annotations

from typing import Callable, Dict, Mapping, Optional, Tuple

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
from .scenario import ScenarioEvent, ScenarioResult, ScenarioRunner
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
    "training_material",
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
def training_material(
    config: PlatformConfig,
    runs: int,
    intervals_per_run: int,
    validation_intervals: int,
    base_seed: int,
) -> dict:
    return {
        "config": config,
        "runs": runs,
        "intervals_per_run": intervals_per_run,
        "validation_intervals": validation_intervals,
        "base_seed": base_seed,
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
    inject_offset_fraction: float,
) -> dict:
    return {
        "config": config,
        "scenario": scenario,
        "attack": dict(attack_params),
        "pre_intervals": pre_intervals,
        "attack_intervals": attack_intervals,
        "post_intervals": post_intervals,
        "scenario_seed": scenario_seed,
        "inject_offset_fraction": inject_offset_fraction,
        "capture": "syscalls-v1",
    }


# ----------------------------------------------------------------------
# Stages
# ----------------------------------------------------------------------
def collect_training_data_cached(
    config: PlatformConfig,
    runs: int,
    intervals_per_run: int,
    validation_intervals: int,
    base_seed: int,
    cache: Optional[ArtifactCache] = None,
) -> Tuple[TrainingData, bool]:
    """Collect (or load) the normal training/validation MHM traces."""

    def collect() -> TrainingData:
        return collect_training_data(
            config,
            runs=runs,
            intervals_per_run=intervals_per_run,
            validation_intervals=validation_intervals,
            base_seed=base_seed,
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

    material = training_material(
        config, runs, intervals_per_run, validation_intervals, base_seed
    )
    arrays, hit = cache.fetch(TRAINING_STAGE, material, compute)
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
    data_provider: Callable[[], TrainingData],
    train_material: dict,
    fit_kwargs: Mapping,
    cache: Optional[ArtifactCache] = None,
    fault_token: str = "-",
) -> tuple:
    """Fit (or load) the detector of ``stage`` (see :data:`FIT_STAGES`).

    Returns ``(detector, hit)``.  ``data_provider`` is only invoked on
    a cache miss, so a fitted-detector hit skips the training-data
    stage entirely.  ``train_material`` identifies the training data
    (the output of :func:`training_material`); the cache key is
    :func:`fit_material` over it.

    Injection site ``stages.fit`` guards the training compute;
    ``fault_token`` should identify the invocation (the runner passes
    ``job-name@attempt`` so retried attempts roll fresh fault
    decisions).
    """
    fit, detector_class = FIT_STAGES[stage]
    kwargs = dict(fit_kwargs)

    def train():
        faults.check("stages.fit", token=fault_token)
        return fit(data_provider(), **kwargs)

    if cache is None:
        return train(), False
    arrays, hit = cache.fetch(
        stage,
        fit_material(stage, train_material, kwargs),
        lambda: train().to_arrays(),
    )
    return detector_class.from_arrays(arrays), hit


def run_scenario_cached(
    config: PlatformConfig,
    scenario: str,
    attack_params: Optional[Mapping] = None,
    pre_intervals: int = 40,
    attack_intervals: int = 40,
    post_intervals: int = 0,
    scenario_seed: int = 999,
    inject_offset_fraction: float = 0.3,
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
            inject_offset_fraction=inject_offset_fraction,
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
        inject_offset_fraction,
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
