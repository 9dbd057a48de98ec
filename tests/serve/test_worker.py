"""ShardWorker: fixed-shape batch scoring and per-record degradation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import faults, kernels
from repro.learn.metrics import alarm_streaks
from repro.serve.registry import DetectorRegistry
from repro.serve.worker import ShardWorker
from repro.sim.fleet import DeviceSpec, DeviceStream, IntervalRecord, build_fleet_specs
from tests.serve.conftest import TINY_TRAIN


@pytest.fixture(scope="module")
def detector(serve_cache):
    registry = DetectorRegistry(root_seed=3, train=TINY_TRAIN, cache=serve_cache)
    return registry.detector_for("baseline")


@pytest.fixture(scope="module")
def records():
    """Nine real MHM records from one benign baseline device."""
    spec = build_fleet_specs(1, 9, root_seed=21, profiles=("baseline",))[0]
    stream = DeviceStream(spec)
    return [stream.next_interval() for _ in range(9)]


def make_worker(detector, specs, **kwargs):
    return ShardWorker({"baseline": detector}, specs, **kwargs)


def padded_log_densities(detector, matrix, pad_to=4):
    """The worker's fused scoring path at a fixed ``pad_to`` batch shape."""
    scorer = kernels.FleetScorer.from_detectors(detector)
    return scorer.score(matrix, pad_to=pad_to).log_densities


class TestFixedShapeBatching:
    def test_score_independent_of_batch_composition(self, detector, records):
        """The serial ≡ sharded keystone: a record's log-density is
        bitwise identical whether scored alone, in a partial batch, or
        in a full batch with arbitrary companions."""
        matrix = np.stack([r.vector for r in records])
        together = padded_log_densities(detector, matrix)
        for i, row in enumerate(matrix):
            alone = padded_log_densities(detector, row[None, :])
            assert alone[0] == together[i]

    def test_row_order_irrelevant(self, detector, records):
        matrix = np.stack([r.vector for r in records])
        forward = padded_log_densities(detector, matrix)
        backward = padded_log_densities(detector, matrix[::-1])
        np.testing.assert_array_equal(forward, backward[::-1])

    def test_matches_unbatched_scoring_closely(self, detector, records):
        # Different batch shapes, and the scalar reference backend as
        # the oracle: equal to rounding.
        matrix = np.stack([r.vector for r in records])
        batched = padded_log_densities(detector, matrix)
        with kernels.use_backend("reference"):
            reference = padded_log_densities(detector, matrix, pad_to=None)
        np.testing.assert_allclose(batched, reference, rtol=1e-9, atol=1e-9)
        np.testing.assert_allclose(
            batched, detector.score_series(matrix), rtol=1e-9, atol=1e-9
        )

    def test_rejects_non_matrix(self, detector):
        with pytest.raises(ValueError, match="2-D"):
            padded_log_densities(detector, np.zeros(8))


class TestWorkerScoring:
    def test_verdicts_and_accounting(self, detector, records):
        spec = records[0].device_index
        specs = build_fleet_specs(1, 9, root_seed=21, profiles=("baseline",))
        worker = make_worker(detector, specs, batch_pad=4)
        worker.score_batch(records[:5])
        worker.score_batch(records[5:])
        report = worker.device_report(specs[0], shard=0)
        assert report.emitted == 9
        assert report.scored + report.skipped == 9
        assert report.dropped == 0
        assert spec == report.device_index

    def test_alarm_streak_semantics(self):
        """Alarm fires at exactly N consecutive anomalous intervals."""

        class FakeDetector:
            def threshold(self, p_percent):
                return -5.0

        spec = DeviceSpec(device_id="d", index=0, profile="baseline", seed=1)
        worker = ShardWorker(
            {"baseline": FakeDetector()}, [spec], consecutive_for_alarm=3
        )
        state = worker.states["d"]
        theta = -5.0
        # 3 anomalous in a row (alarm), recovery, then only 2 (no alarm).
        pattern = [-10, -10, -10, -1, -10, -10, -1]
        for i, score in enumerate(pattern):
            record = IntervalRecord(
                device_index=0, device_id="d", profile="baseline",
                interval_index=i, vector=None, truth=False,
            )
            worker._record(state, record, float(score), theta)
        assert state.alarms == [2]  # fired once, at the third consecutive
        report = worker.device_report(spec, shard=0)
        assert report.alarms == 1
        assert report.first_alarm_interval == 2
        assert report.flagged == 5

    def test_fault_plan_degrades_to_skipped(self, detector, records):
        specs = build_fleet_specs(1, 9, root_seed=21, profiles=("baseline",))
        plan = faults.FaultPlan(
            seed=1,
            sites={
                "serve.score": faults.FaultSpec(probability=1.0, mode="corrupt")
            },
        )
        with faults.injected(plan):
            worker = make_worker(detector, specs, batch_pad=4)
            worker.score_batch(records)
        report = worker.device_report(specs[0], shard=0)
        assert report.skipped == 9
        assert report.scored == 0

    def test_skip_resets_alarm_streak(self, detector, records):
        specs = build_fleet_specs(1, 9, root_seed=21, profiles=("baseline",))
        worker = make_worker(detector, specs, batch_pad=4)
        state = worker.states[specs[0].device_id]
        state.streak = 2
        worker._skip(state, records[0])
        assert state.streak == 0
        assert state.flags[-1] == "skipped"


class _FixedTheta:
    """A stand-in detector: θ = -5 for every p."""

    def threshold(self, p_percent):
        return -5.0


#: Log densities that the worker judges anomalous / OK at θ = -5.
_DENSITY = {"flag": -10.0, "ok": -1.0}


def stream_through_worker(verdicts, consecutive):
    """Feed a flag/ok/skip sequence through one device's streaming
    rule; return its ``(alarms, final streak)``."""
    spec = DeviceSpec(device_id="d", index=0, profile="baseline", seed=1)
    worker = ShardWorker(
        {"baseline": _FixedTheta()}, [spec], consecutive_for_alarm=consecutive
    )
    state = worker.states["d"]
    for index, verdict in enumerate(verdicts):
        record = IntervalRecord(
            device_index=0, device_id="d", profile="baseline",
            interval_index=index, vector=None, truth=False,
        )
        if verdict == "skip":
            worker._skip(state, record)
        else:
            worker._record(state, record, _DENSITY[verdict], -5.0)
    return state.alarms, state.streak


def batch_rule(verdicts, consecutive):
    """The same sequence through :func:`alarm_streaks`."""
    flags = np.array([v == "flag" for v in verdicts], dtype=bool)
    skipped = np.array([v == "skip" for v in verdicts], dtype=bool)
    streaks = alarm_streaks(flags, skipped)
    final = int(streaks[-1]) if len(streaks) else 0
    return np.flatnonzero(streaks == consecutive).tolist(), final


class TestOneAlarmRule:
    """``ShardWorker._record``/``_skip`` are the streaming form of the
    batch K-consecutive rule the CLI and the conformance matrix use."""

    @given(
        verdicts=st.lists(st.sampled_from(["flag", "ok", "skip"]), max_size=40),
        consecutive=st.sampled_from([1, 2, 3, 5]),
    )
    @settings(max_examples=200, deadline=None)
    def test_worker_streak_equals_batch_rule(self, verdicts, consecutive):
        assert stream_through_worker(verdicts, consecutive) == batch_rule(
            verdicts, consecutive
        )

    def test_skip_breaks_a_streak(self):
        # flag, SKIP, flag, flag at K = 3: the skip resets the streak,
        # so the two flags after it do not complete an alarm.
        verdicts = ["flag", "skip", "flag", "flag"]
        assert stream_through_worker(verdicts, 3) == ([], 2)
        assert batch_rule(verdicts, 3) == ([], 2)


def test_serve_import_loads_the_scoring_backend():
    """``import repro.serve`` loads the default (vectorized) scoring
    backend, so the first scored batch does not pay for that import;
    the reference backend stays lazy."""
    import os
    import pathlib
    import subprocess
    import sys

    root = pathlib.Path(__file__).resolve().parents[2]
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_KERNELS")}
    env["PYTHONPATH"] = str(root / "src")
    script = (
        "import sys, repro.serve; "
        "print('repro.kernels.vectorized' in sys.modules, "
        "'repro.kernels.reference' in sys.modules)"
    )
    result = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        env=env,
        check=True,
    )
    assert result.stdout.split() == ["True", "False"]
