"""Parallel experiment runner with deterministic fan-out.

The paper's evaluation is a grid of *independent* runs — scenarios ×
attacks × ablation axes (granularity δ, L′, J, training-set size) —
but executing them serially and re-simulating from scratch every time
is the wall-clock bottleneck of the reproduction.  This module turns
the grid into explicit jobs and executes them:

* **in parallel** across worker processes
  (:class:`concurrent.futures.ProcessPoolExecutor`, ``--jobs N``), and
* **memoised** through the content-addressed artifact cache of
  :mod:`repro.pipeline.cache`, so warm reruns skip the simulation and
  training stages entirely.

Determinism contract
--------------------
Results are **bit-identical** regardless of worker count, scheduling
order, or cache temperature:

* every :class:`ExperimentJob` carries its *own* explicit seeds; jobs
  never touch shared RNG state;
* grid builders derive those seeds up front via
  ``numpy.random.SeedSequence.spawn`` — job *i*'s seeds are a pure
  function of the root seed and *i*, independent of how many workers
  later execute the grid or in which order jobs finish;
* cache entries round-trip through exact integer/float64 arrays, and
  the fresh-compute path reads back the same arrays it stored.

``tests/pipeline/test_runner_determinism.py`` asserts all of this.

Fault tolerance
---------------
The grid must not die with its weakest job.  Each job gets bounded
retries with seeded exponential backoff, an optional per-attempt
wall-clock timeout, and crashed workers are replaced (a hard worker
death breaks a :class:`~concurrent.futures.ProcessPoolExecutor`; the
runner builds a fresh pool and re-queues the interrupted attempts).  A
run returns every *completed* :class:`JobResult` plus a structured
failure manifest (:meth:`ExperimentRunner.failure_manifest`,
``failures.json`` via :meth:`ExperimentRunner.write_failure_manifest`)
instead of raising; ``fail_fast=True`` restores raise-on-first-failure
semantics.  Fault drills are driven by :mod:`repro.faults` plans
(``fault_plan=``), which travel to worker processes and make the whole
failure story deterministic — see ``docs/faults.md``.

Observability
-------------
With :mod:`repro.obs` enabled, a run records ``runner.jobs.launched``
/ ``completed`` / ``failed`` counters, ``runner.retries`` /
``runner.job_failures`` fault-handling counters, aggregate
``runner.cache.hit`` / ``miss`` counters, per-stage wall-clock
histograms (``runner.stage.<stage>``), one trace event per completed
job and one per retry / terminal failure.
"""

from __future__ import annotations

import heapq
import itertools
import json
import time
import traceback as _traceback
from concurrent.futures import FIRST_COMPLETED, BrokenExecutor
from concurrent.futures import wait as _futures_wait
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from .. import faults, obs
from ..faults import FaultPlan, uniform_hash
from ..kernels.blas_threads import capped_process_pool
from ..learn.detector import MhmDetector
from ..learn.metrics import detection_latency, roc_auc_from_scores
from ..sim.platform import Platform, PlatformConfig
from .cache import ArtifactCache
from .experiments import ExperimentScale
from .stages import (
    DETECTOR_STAGE,
    SCENARIO_STAGE,
    SCENARIOS,
    TRAINING_STAGE,
    collect_training_data_cached,
    detector_material,
    run_scenario_cached,
    train_detector_cached,
    training_material,
)

__all__ = [
    "TrainSpec",
    "ExperimentJob",
    "JobResult",
    "JobFailure",
    "JobFailedError",
    "ExperimentRunner",
    "expand_grid",
    "build_grid_jobs",
    "run_job",
]

LN10 = float(np.log(10.0))


# ----------------------------------------------------------------------
# Job model
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class TrainSpec:
    """The training protocol of one job (mirrors the paper's recipe)."""

    runs: int = 3
    intervals_per_run: int = 120
    validation_intervals: int = 120
    base_seed: int = 100

    @property
    def total(self) -> int:
        return self.runs * self.intervals_per_run


def _freeze(params: Optional[Mapping]) -> tuple:
    """A mapping as a sorted tuple of pairs (hashable + picklable)."""
    return tuple(sorted(dict(params or {}).items()))


@dataclass(frozen=True)
class ExperimentJob:
    """One independent unit of the evaluation grid.

    A job is entirely self-describing — configuration and every seed
    it uses are stored on the job itself, so executing it is a pure
    function and its result is independent of which worker runs it.
    """

    name: str
    config: PlatformConfig
    train: TrainSpec
    scenario: str = "app-launch"
    attack_params: tuple = ()
    detector_params: tuple = ()
    pre_intervals: int = 40
    attack_intervals: int = 40
    post_intervals: int = 0
    scenario_seed: int = 999
    inject_offset_fraction: float = 0.3

    def __post_init__(self) -> None:
        if self.scenario not in SCENARIOS:
            raise ValueError(
                f"unknown scenario {self.scenario!r}; "
                f"choose from {sorted(SCENARIOS)}"
            )

    @property
    def detector_kwargs(self) -> dict:
        return dict(self.detector_params)


@dataclass
class JobResult:
    """Everything one executed job produced.

    Detector parameters travel as the exact fitted arrays so the
    determinism suite can compare runs bit-for-bit and drivers can
    rebuild the detector (:meth:`detector`) without retraining.
    """

    job: ExperimentJob
    num_cells: int
    num_eigenmemories: int
    detector_arrays: Dict[str, np.ndarray]
    log10_densities: np.ndarray
    log10_thresholds: Dict[float, float]
    verdicts: Dict[float, np.ndarray]
    ground_truth: np.ndarray
    attack_interval: int
    revert_interval: Optional[int]
    summary: dict
    cache_hits: Dict[str, int] = field(default_factory=dict)
    cache_misses: Dict[str, int] = field(default_factory=dict)
    stage_seconds: Dict[str, float] = field(default_factory=dict)
    computed_stages: Tuple[str, ...] = ()

    def detector(self) -> MhmDetector:
        """Rebuild the job's fitted detector (no retraining)."""
        return MhmDetector.from_arrays(self.detector_arrays)

    def fingerprint(self) -> str:
        """SHA-256 over detector parameters, densities and verdicts —
        two runs are bit-identical iff their fingerprints match."""
        import hashlib

        digest = hashlib.sha256()
        for name in sorted(self.detector_arrays):
            digest.update(name.encode())
            digest.update(np.ascontiguousarray(self.detector_arrays[name]).tobytes())
        digest.update(np.ascontiguousarray(self.log10_densities).tobytes())
        for quantile in sorted(self.verdicts):
            digest.update(repr(quantile).encode())
            digest.update(np.ascontiguousarray(self.verdicts[quantile]).tobytes())
        return digest.hexdigest()


@dataclass(frozen=True)
class JobFailure:
    """Terminal failure of one grid job — a ``failures.json`` entry.

    Deliberately contains no wall-clock fields: a failure manifest is
    part of the runner's determinism contract (serial and parallel runs
    of the same seeded fault plan produce identical manifests).
    """

    job_index: int
    job_name: str
    scenario: str
    attempts: int
    error_type: str
    message: str
    site: Optional[str] = None
    traceback: str = ""

    def to_dict(self) -> dict:
        return asdict(self)


class JobFailedError(RuntimeError):
    """Raised in ``fail_fast`` mode when a job exhausts its retries."""

    def __init__(self, failure: JobFailure):
        super().__init__(
            f"job {failure.job_name!r} failed after {failure.attempts} "
            f"attempt(s): {failure.error_type}: {failure.message}"
        )
        self.failure = failure


# ----------------------------------------------------------------------
# Grid expansion and seed derivation
# ----------------------------------------------------------------------
def expand_grid(axes: Mapping[str, Sequence]) -> list:
    """Cartesian product of named axes, in deterministic order.

    ``expand_grid({"a": [1, 2], "b": ["x"]})`` →
    ``[{"a": 1, "b": "x"}, {"a": 2, "b": "x"}]``.  Axis order follows
    the mapping's insertion order; the last axis varies fastest.
    """
    if not axes:
        return [{}]
    names = list(axes)
    return [
        dict(zip(names, values))
        for values in itertools.product(*(axes[name] for name in names))
    ]


def build_grid_jobs(
    scenarios: Sequence[str],
    scale: ExperimentScale,
    root_seed: int = 0,
    replicas: int = 1,
    base_config: Optional[PlatformConfig] = None,
    config_axes: Optional[Mapping[str, Sequence]] = None,
    detector_params: Optional[Mapping] = None,
    train_overrides: Optional[Mapping] = None,
) -> list:
    """Expand a scenario/ablation grid into seeded jobs.

    Per-job seeds are derived with ``SeedSequence(root_seed).spawn``:
    each configuration point gets a spawned child (training base seed
    + detector seed), and each of its scenario × replica cells gets a
    grandchild (scenario seed).  Jobs that share a configuration point
    therefore share one detector — and one cache entry — while every
    replica sees a fresh, never-trained-on platform boot.
    """
    if replicas < 1:
        raise ValueError("replicas must be >= 1")
    base_config = base_config or PlatformConfig()
    config_points = expand_grid(config_axes or {})
    train_overrides = dict(train_overrides or {})
    detector_overrides = dict(detector_params or {})

    config_children = np.random.SeedSequence(root_seed).spawn(len(config_points))
    jobs = []
    for point, child in zip(config_points, config_children):
        config = replace(base_config, **point) if point else base_config
        base_seed, detector_seed = (
            int(word) for word in child.generate_state(2, np.uint32)
        )
        train = TrainSpec(
            runs=train_overrides.get("runs", scale.training_runs),
            intervals_per_run=train_overrides.get(
                "intervals_per_run", scale.intervals_per_run
            ),
            validation_intervals=train_overrides.get(
                "validation_intervals", scale.validation_intervals
            ),
            base_seed=base_seed,
        )
        det_params = {
            "em_restarts": scale.em_restarts,
            "seed": detector_seed,
            **detector_overrides,
        }
        cells = [
            (scenario, replica)
            for scenario in scenarios
            for replica in range(replicas)
        ]
        cell_children = child.spawn(len(cells))
        point_label = "".join(
            f",{axis}={value}" for axis, value in sorted(point.items())
        )
        for (scenario, replica), cell_child in zip(cells, cell_children):
            scenario_seed = int(cell_child.generate_state(1, np.uint32)[0])
            jobs.append(
                ExperimentJob(
                    name=f"{scenario}{point_label},r{replica}",
                    config=config,
                    train=train,
                    scenario=scenario,
                    detector_params=_freeze(det_params),
                    pre_intervals=scale.pre_attack_intervals,
                    attack_intervals=scale.attack_intervals,
                    post_intervals=(
                        scale.post_attack_intervals
                        if scenario == "app-launch"
                        else 0
                    ),
                    scenario_seed=scenario_seed,
                )
            )
    return jobs


# ----------------------------------------------------------------------
# Job execution
# ----------------------------------------------------------------------
def run_job(
    job: ExperimentJob,
    cache_dir: Optional[str] = None,
    use_cache: bool = True,
    attempt: int = 0,
) -> JobResult:
    """Execute one job: train (or load), simulate (or load), score.

    Safe to call from worker processes — it touches no global state
    beyond the on-disk cache, whose writes are atomic.

    ``attempt`` is the retry ordinal; it feeds the fault-injection
    token ``"<job name>@<attempt>"`` (sites ``runner.job``,
    ``stages.fit``, ``stages.replay``), so a probabilistic fault that
    kills attempt 0 rolls a fresh, independent decision for attempt 1.
    """
    fault_token = f"{job.name}@{attempt}"
    faults.check("runner.job", token=fault_token)
    cache = ArtifactCache(cache_dir) if use_cache else None
    stage_seconds: Dict[str, float] = {}
    computed: list = []
    hits: Dict[str, int] = {}
    misses: Dict[str, int] = {}

    def record(stage: str, hit: bool) -> None:
        (hits if hit else misses)[stage] = (hits if hit else misses).get(stage, 0) + 1
        if not hit:
            computed.append(stage)

    train = job.train
    train_mat = training_material(
        job.config,
        train.runs,
        train.intervals_per_run,
        train.validation_intervals,
        train.base_seed,
    )

    data_hit: Dict[str, bool] = {}

    def data_provider():
        started = time.perf_counter()
        data, hit = collect_training_data_cached(
            job.config,
            runs=train.runs,
            intervals_per_run=train.intervals_per_run,
            validation_intervals=train.validation_intervals,
            base_seed=train.base_seed,
            cache=cache,
        )
        stage_seconds[TRAINING_STAGE] = time.perf_counter() - started
        data_hit["hit"] = hit
        return data

    started = time.perf_counter()
    with obs.span(f"runner.stage.{DETECTOR_STAGE}"):
        detector, detector_hit = train_detector_cached(
            data_provider,
            detector_material(train_mat, job.detector_kwargs),
            job.detector_kwargs,
            cache=cache,
            fault_token=fault_token,
        )
    stage_seconds[DETECTOR_STAGE] = time.perf_counter() - started
    record(DETECTOR_STAGE, detector_hit)
    if "hit" in data_hit:
        record(TRAINING_STAGE, data_hit["hit"])

    started = time.perf_counter()
    with obs.span(f"runner.stage.{SCENARIO_STAGE}"):
        result, scenario_hit = run_scenario_cached(
            job.config,
            job.scenario,
            attack_params=dict(job.attack_params),
            pre_intervals=job.pre_intervals,
            attack_intervals=job.attack_intervals,
            post_intervals=job.post_intervals,
            scenario_seed=job.scenario_seed,
            inject_offset_fraction=job.inject_offset_fraction,
            cache=cache,
            fault_token=fault_token,
        )
    stage_seconds[SCENARIO_STAGE] = time.perf_counter() - started
    record(SCENARIO_STAGE, scenario_hit)

    started = time.perf_counter()
    with obs.span("runner.stage.score"):
        densities = detector.score_series(result.series)
        truth = result.ground_truth()
        attack_interval = result.attack_interval
        quantiles = tuple(detector.thresholds.quantiles)
        verdicts = {
            q: densities < detector.threshold(q) for q in quantiles
        }
        summary: dict = {
            "name": job.name,
            "scenario": job.scenario,
            "intervals": len(result.series),
            "attack_interval": attack_interval,
            "revert_interval": result.revert_interval,
            "num_cells": job.config.spec.num_cells,
            "num_eigenmemories": detector.num_eigenmemories_,
            "auc": roc_auc_from_scores(-densities, truth),
        }
        for q in quantiles:
            flags = verdicts[q]
            tag = f"theta_{q:g}"
            summary[f"pre_fpr_{tag}"] = (
                float(flags[:attack_interval].mean()) if attack_interval else 0.0
            )
            summary[f"detection_rate_{tag}"] = (
                float(flags[truth].mean()) if truth.any() else 0.0
            )
            summary[f"latency_{tag}"] = detection_latency(flags, attack_interval)
    stage_seconds["score"] = time.perf_counter() - started

    return JobResult(
        job=job,
        num_cells=job.config.spec.num_cells,
        num_eigenmemories=detector.num_eigenmemories_,
        detector_arrays=detector.to_arrays(),
        log10_densities=densities / LN10,
        log10_thresholds={q: detector.log10_threshold(q) for q in quantiles},
        verdicts=verdicts,
        ground_truth=truth,
        attack_interval=attack_interval,
        revert_interval=result.revert_interval,
        summary=summary,
        cache_hits=hits,
        cache_misses=misses,
        stage_seconds=stage_seconds,
        computed_stages=tuple(computed),
    )


# ----------------------------------------------------------------------
# Guarded execution (shared by the serial path and worker processes)
# ----------------------------------------------------------------------
def _execute_job(
    job: ExperimentJob,
    cache_dir: Optional[str],
    use_cache: bool,
    attempt: int,
    fault_plan: Optional[FaultPlan],
) -> tuple:
    """Run one attempt, never letting an exception cross the boundary.

    Returns ``("ok", JobResult)`` or ``("err", payload)`` where
    ``payload`` is a plain dict with the fields of a manifest entry.
    Catching — and formatting the traceback — *at the raise site* keeps
    error payloads byte-identical between in-process execution and
    worker processes, which is what makes serial and parallel failure
    manifests comparable.
    """
    try:
        with faults.injected(fault_plan):
            return "ok", run_job(job, cache_dir, use_cache, attempt=attempt)
    except Exception as exc:
        return "err", {
            "error_type": type(exc).__name__,
            "message": str(exc),
            "site": getattr(exc, "site", None),
            "traceback": "".join(
                _traceback.format_exception(type(exc), exc, exc.__traceback__)
            ),
        }


def _timeout_payload(timeout: float) -> dict:
    return {
        "error_type": "JobTimeout",
        "message": f"job exceeded the per-job wall-clock timeout ({timeout:g}s)",
        "site": None,
        "traceback": "",
    }


def _crash_payload() -> dict:
    return {
        "error_type": "WorkerCrash",
        "message": "worker process died mid-job; pool replaced",
        "site": None,
        "traceback": "",
    }


# ----------------------------------------------------------------------
# The runner
# ----------------------------------------------------------------------
class ExperimentRunner:
    """Executes a list of jobs, serially or across worker processes.

    Parameters
    ----------
    jobs:
        Worker-process count.  ``1`` (default) runs in-process — exact
        same results, and live :mod:`repro.obs` spans cover the inner
        stages too.
    cache_dir:
        Artifact-cache root (default ``~/.cache/repro`` /
        ``$REPRO_CACHE_DIR``).
    use_cache:
        ``False`` disables the on-disk cache entirely.
    max_retries:
        Re-attempts per job after its first failure (so a job runs at
        most ``max_retries + 1`` times).
    job_timeout:
        Per-attempt wall-clock budget in seconds.  In worker processes
        the attempt is abandoned at the deadline (the stuck worker is
        retired with its pool); in-process (``jobs=1``) the budget is
        enforced after the attempt returns — a degenerate but
        deterministic equivalent, since the attempt cannot be
        preempted.
    fail_fast:
        Raise :class:`JobFailedError` on the first terminal failure
        instead of degrading to the failure manifest.
    backoff_base / backoff_cap:
        Retry backoff: attempt *k* waits
        ``min(base · 2^k · (0.5 + jitter), cap)`` seconds, with jitter
        drawn purely from ``(retry_seed, job name, k)`` — reruns wait
        identically.
    retry_seed:
        Seed of the backoff jitter stream.
    fault_plan:
        Optional :class:`repro.faults.FaultPlan` installed around every
        attempt (including inside worker processes) for fault drills.

    A run **returns completed results only** (in job order); terminal
    failures are collected on :attr:`job_failures` and in
    :meth:`failure_manifest` rather than raised.  A grid is therefore
    never aborted by its weakest job unless ``fail_fast`` asks for
    exactly that.
    """

    def __init__(
        self,
        jobs: int = 1,
        cache_dir: Optional[str] = None,
        use_cache: bool = True,
        max_retries: int = 2,
        job_timeout: Optional[float] = None,
        fail_fast: bool = False,
        backoff_base: float = 0.05,
        backoff_cap: float = 2.0,
        retry_seed: int = 0,
        fault_plan: Optional[FaultPlan] = None,
    ):
        if jobs < 1:
            raise ValueError("jobs must be >= 1")
        if max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if job_timeout is not None and job_timeout <= 0:
            raise ValueError("job_timeout must be > 0")
        self.jobs = jobs
        self.cache_dir = str(cache_dir) if cache_dir is not None else None
        self.use_cache = use_cache
        self.max_retries = max_retries
        self.job_timeout = job_timeout
        self.fail_fast = fail_fast
        self.backoff_base = backoff_base
        self.backoff_cap = backoff_cap
        self.retry_seed = retry_seed
        self.fault_plan = fault_plan
        #: Terminal failures of the last :meth:`run` (job order).
        self.job_failures: List[JobFailure] = []
        #: Retries performed during the last :meth:`run`.
        self.retries: int = 0
        self._job_retries: Dict[str, int] = {}
        self._total_jobs: int = 0

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def run(self, experiment_jobs: Sequence[ExperimentJob]) -> list:
        experiment_jobs = list(experiment_jobs)
        registry = obs.metrics()
        tracer = obs.tracer()
        log = obs.logger()
        start_ns = time.perf_counter_ns()
        registry.counter("runner.jobs.launched").inc(len(experiment_jobs))
        if log.enabled:
            log.event(
                "runner.grid.start",
                jobs=len(experiment_jobs),
                workers=self.jobs,
            )
        self.job_failures = []
        self.retries = 0
        self._job_retries: Dict[str, int] = {}
        self._total_jobs = len(experiment_jobs)

        completed: Dict[int, JobResult] = {}
        with registry.span("runner.run"):
            if self.jobs == 1 or len(experiment_jobs) <= 1:
                self._run_serial(experiment_jobs, completed, registry, tracer)
            else:
                self._run_parallel(experiment_jobs, completed, registry, tracer)

        self.job_failures.sort(key=lambda failure: failure.job_index)
        results = [completed[index] for index in sorted(completed)]
        if log.enabled:
            log.event(
                "runner.grid.done",
                completed=len(results),
                failed=len(self.job_failures),
                retries=self.retries,
            )
        for result in results:
            if log.enabled:
                log.event(
                    "runner.job.completed",
                    job=result.job.name,
                    attempts=self._job_retries.get(result.job.name, 0) + 1,
                )
            registry.counter("runner.jobs.completed").inc()
            registry.counter("runner.cache.hit").inc(sum(result.cache_hits.values()))
            registry.counter("runner.cache.miss").inc(
                sum(result.cache_misses.values())
            )
            for stage, seconds in result.stage_seconds.items():
                registry.timer(f"runner.stage.{stage}").observe(seconds * 1e6)
            tracer.instant(
                f"runner.job:{result.job.name}",
                time_ns=time.perf_counter_ns() - start_ns,
                category="runner",
                args={
                    "scenario": result.job.scenario,
                    "computed": list(result.computed_stages),
                    "auc": result.summary.get("auc"),
                },
            )
        return results

    def failure_manifest(self) -> dict:
        """Structured summary of the last run's failures.

        Deterministic for a given grid + fault plan: no wall-clock
        fields, failures in job order.
        """
        return {
            "schema": 1,
            "total_jobs": self._total_jobs,
            "completed": self._total_jobs - len(self.job_failures),
            "failed": len(self.job_failures),
            "retries": self.retries,
            "max_retries": self.max_retries,
            "job_timeout": self.job_timeout,
            "failures": [failure.to_dict() for failure in self.job_failures],
        }

    def write_failure_manifest(self, path) -> Path:
        """Write :meth:`failure_manifest` as JSON (``failures.json``)."""
        path = Path(path)
        path.write_text(
            json.dumps(self.failure_manifest(), indent=2, sort_keys=True) + "\n"
        )
        return path

    # ------------------------------------------------------------------
    # Serial execution
    # ------------------------------------------------------------------
    def _run_serial(self, jobs_list, completed, registry, tracer) -> None:
        for index, job in enumerate(jobs_list):
            attempt = 0
            while True:
                started = time.monotonic()
                status, payload = _execute_job(
                    job, self.cache_dir, self.use_cache, attempt, self.fault_plan
                )
                elapsed = time.monotonic() - started
                if status == "ok" and (
                    self.job_timeout is None or elapsed <= self.job_timeout
                ):
                    completed[index] = payload
                    break
                if status == "ok":
                    payload = _timeout_payload(self.job_timeout)
                if attempt >= self.max_retries:
                    self._record_failure(
                        registry, tracer, index, job, attempt + 1, payload
                    )
                    break
                self._record_retry(registry, tracer, job, attempt, payload)
                time.sleep(self._backoff_seconds(job.name, attempt))
                attempt += 1

    # ------------------------------------------------------------------
    # Parallel execution
    # ------------------------------------------------------------------
    def _run_parallel(self, jobs_list, completed, registry, tracer) -> None:
        workers = min(self.jobs, len(jobs_list))
        # Min-heap of (ready_time, job_index, attempt): jobs waiting to
        # be (re)submitted; retries carry a backoff-delayed ready time.
        ready: list = [(0.0, index, 0) for index in range(len(jobs_list))]
        heapq.heapify(ready)
        inflight: Dict = {}  # future -> (job_index, attempt, deadline)
        pool = capped_process_pool(workers)
        retired = []  # replaced pools, shut down without waiting
        try:
            while ready or inflight:
                now = time.monotonic()
                # Submit whatever is due.  At most ``workers`` attempts
                # are in flight, so submission time ≈ start time and a
                # deadline measures actual execution, not queueing.
                while ready and ready[0][0] <= now and len(inflight) < workers:
                    _, index, attempt = heapq.heappop(ready)
                    future = pool.submit(
                        _execute_job,
                        jobs_list[index],
                        self.cache_dir,
                        self.use_cache,
                        attempt,
                        self.fault_plan,
                    )
                    deadline = (
                        None if self.job_timeout is None else now + self.job_timeout
                    )
                    inflight[future] = (index, attempt, deadline)
                if not inflight:
                    # Everything is waiting out a retry backoff.
                    time.sleep(max(0.0, ready[0][0] - now))
                    continue

                done, _ = _futures_wait(
                    set(inflight),
                    timeout=self._wait_budget(inflight, ready, now),
                    return_when=FIRST_COMPLETED,
                )
                pool_broken = False
                for future in done:
                    index, attempt, _ = inflight.pop(future)
                    try:
                        status, payload = future.result()
                    except BrokenExecutor:
                        # A worker died hard (SIGKILL, os._exit, ...):
                        # the pool is unusable and every in-flight
                        # future fails with it.  Charge an attempt and
                        # let the retry machinery re-run on the
                        # replacement pool.
                        pool_broken = True
                        status, payload = "err", _crash_payload()
                    except Exception as exc:  # e.g. result unpickling
                        status, payload = "err", {
                            "error_type": type(exc).__name__,
                            "message": str(exc),
                            "site": getattr(exc, "site", None),
                            "traceback": "",
                        }
                    self._settle(
                        jobs_list, index, attempt, status, payload,
                        completed, ready, registry, tracer,
                    )

                # Enforce deadlines on attempts still running.  A stuck
                # worker cannot be interrupted, so its attempt is
                # abandoned and its pool retired below.
                now = time.monotonic()
                overdue = [
                    future
                    for future, (_, _, deadline) in inflight.items()
                    if deadline is not None and now >= deadline
                ]
                for future in overdue:
                    index, attempt, _ = inflight.pop(future)
                    future.cancel()
                    self._settle(
                        jobs_list, index, attempt, "err",
                        _timeout_payload(self.job_timeout),
                        completed, ready, registry, tracer,
                    )

                if pool_broken or overdue:
                    # Replace the pool.  Healthy in-flight futures keep
                    # their old workers (shutdown(wait=False) lets
                    # running attempts finish); new submissions go to
                    # the fresh pool, so stuck/dead workers never
                    # starve the grid.
                    registry.counter("runner.pool_replacements").inc()
                    retired.append(pool)
                    pool.shutdown(wait=False, cancel_futures=True)
                    pool = capped_process_pool(workers)
        finally:
            pool.shutdown(wait=False, cancel_futures=True)
            for old in retired:
                old.shutdown(wait=False, cancel_futures=True)

    @staticmethod
    def _wait_budget(inflight, ready, now) -> Optional[float]:
        """How long the event loop may block: until the next deadline
        or the next backoff expiry, whichever comes first."""
        horizon = None
        deadlines = [d for (_, _, d) in inflight.values() if d is not None]
        if deadlines:
            horizon = min(deadlines)
        if ready:
            horizon = ready[0][0] if horizon is None else min(horizon, ready[0][0])
        if horizon is None:
            return None
        return max(horizon - now, 0.005)

    # ------------------------------------------------------------------
    # Attempt bookkeeping
    # ------------------------------------------------------------------
    def _settle(
        self, jobs_list, index, attempt, status, payload,
        completed, ready, registry, tracer,
    ) -> None:
        if status == "ok":
            completed[index] = payload
            return
        job = jobs_list[index]
        if attempt >= self.max_retries:
            self._record_failure(registry, tracer, index, job, attempt + 1, payload)
            return
        self._record_retry(registry, tracer, job, attempt, payload)
        heapq.heappush(
            ready,
            (
                time.monotonic() + self._backoff_seconds(job.name, attempt),
                index,
                attempt + 1,
            ),
        )

    def _backoff_seconds(self, job_name: str, attempt: int) -> float:
        jitter = uniform_hash(self.retry_seed, "runner.backoff", f"{job_name}@{attempt}")
        return min(self.backoff_base * (2**attempt) * (0.5 + jitter), self.backoff_cap)

    def _record_retry(self, registry, tracer, job, attempt, payload) -> None:
        self.retries += 1
        self._job_retries[job.name] = self._job_retries.get(job.name, 0) + 1
        registry.counter("runner.retries").inc()
        log = obs.logger()
        if log.enabled:
            log.event(
                "runner.job.retry",
                level="warn",
                job=job.name,
                attempt=attempt,
                error=payload["error_type"],
            )
        tracer.instant(
            "runner.retry",
            time.perf_counter_ns(),
            category="runner",
            args={
                "job": job.name,
                "attempt": attempt,
                "error_type": payload["error_type"],
                "site": payload.get("site"),
            },
        )

    def _record_failure(
        self, registry, tracer, index, job, attempts, payload
    ) -> None:
        failure = JobFailure(
            job_index=index,
            job_name=job.name,
            scenario=job.scenario,
            attempts=attempts,
            error_type=payload["error_type"],
            message=payload["message"],
            site=payload.get("site"),
            traceback=payload.get("traceback", ""),
        )
        self.job_failures.append(failure)
        registry.counter("runner.job_failures").inc()
        registry.counter("runner.jobs.failed").inc()
        log = obs.logger()
        if log.enabled:
            log.event(
                "runner.job.failed",
                level="error",
                job=job.name,
                attempts=attempts,
                error=failure.error_type,
            )
        tracer.instant(
            "runner.job_failed",
            time.perf_counter_ns(),
            category="runner",
            args={
                "job": job.name,
                "attempts": attempts,
                "error_type": failure.error_type,
                "site": failure.site,
            },
        )
        if self.fail_fast:
            raise JobFailedError(failure)
