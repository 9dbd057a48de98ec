"""Experiment pipeline: training protocol, scenario execution, and the
parallel/cached experiment runner."""

from .cache import ArtifactCache, default_cache_root
from .experiments import (
    PAPER_SCALE,
    QUICK_SCALE,
    ExperimentScale,
    ReferenceArtifacts,
    ScenarioOutcome,
    clear_artifact_cache,
    get_reference_artifacts,
    run_app_launch_experiment,
    run_rootkit_experiment,
    run_scenario_experiment,
    run_shellcode_experiment,
    score_scenario,
)
from .runner import (
    ExperimentJob,
    ExperimentRunner,
    JobFailedError,
    JobFailure,
    JobResult,
    TrainSpec,
    build_grid_jobs,
    expand_grid,
    run_job,
)
from .scenario import ScenarioEvent, ScenarioResult, ScenarioRunner
from .training import TrainingData, collect_training_data, train_detector

__all__ = [
    "ArtifactCache",
    "default_cache_root",
    "ExperimentJob",
    "ExperimentRunner",
    "JobFailedError",
    "JobFailure",
    "JobResult",
    "TrainSpec",
    "build_grid_jobs",
    "expand_grid",
    "run_job",
    "TrainingData",
    "collect_training_data",
    "train_detector",
    "ScenarioRunner",
    "ScenarioResult",
    "ScenarioEvent",
    "ExperimentScale",
    "PAPER_SCALE",
    "QUICK_SCALE",
    "ReferenceArtifacts",
    "ScenarioOutcome",
    "score_scenario",
    "get_reference_artifacts",
    "clear_artifact_cache",
    "run_scenario_experiment",
    "run_app_launch_experiment",
    "run_shellcode_experiment",
    "run_rootkit_experiment",
]
