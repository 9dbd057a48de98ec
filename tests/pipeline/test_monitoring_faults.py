"""Graceful degradation of the online verdict path.

The paper's Memometer is double-buffered precisely so that losing one
interval's buffer never stalls monitoring.  This file pins the
software analogue on both scoring surfaces:

* ``repro monitor``/``repro attack`` judge a window in one batch: an
  interval whose density comes back non-finite is a logged SKIPPED
  verdict, and every *other* interval's verdict is untouched;
* the fleet's :class:`~repro.serve.worker.ShardWorker` degrades a
  record hit by the ``serve.score`` fault site the same way.

Either way a SKIPPED verdict never flags and resets the alarm streak.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro import faults, kernels
from repro.cli import EXIT_OK, main
from repro.faults import FaultPlan, FaultSpec
from repro.serve.worker import SKIPPED, ShardWorker
from repro.sim.fleet import DeviceStream, build_fleet_specs

WINDOW = 30
#: Rows whose density the faulty scorer turns into NaN (~30%).
UNSCORABLE = [1, 4, 5, 9, 12, 13, 17, 20, 24, 28]


@pytest.fixture()
def unscorable(monkeypatch):
    """Make the fused scorer return NaN densities at the given rows."""

    def install(rows):
        score = kernels.FleetScorer.score

        def faulty(self, matrix, **kwargs):
            scores = score(self, matrix, **kwargs)
            scores.log_densities[list(rows)] = np.nan
            return scores

        monkeypatch.setattr(kernels.FleetScorer, "score", faulty)

    return install


@pytest.fixture()
def run(quick_detector_path, capsys):
    """Run a monitor/attack command; return (exit code, JSON report)."""

    def invoke(command, *extra):
        code = main(
            [command, "--detector", str(quick_detector_path), "--json", *extra]
        )
        return code, json.loads(capsys.readouterr().out)

    return invoke


def monitor_window(run, *extra):
    return run("monitor", "--intervals", str(WINDOW), "--seed", "4242", *extra)


def densities(report) -> np.ndarray:
    return np.array([float(d) for d in report["log10_densities"]])


@pytest.fixture(scope="module")
def records():
    spec = build_fleet_specs(1, 12, root_seed=21, profiles=("baseline",))[0]
    stream = DeviceStream(spec)
    return spec, [stream.next_interval() for _ in range(12)]


def worker_skips(quick_artifacts, records, plan) -> list[int]:
    spec, batch = records
    worker = ShardWorker({"baseline": quick_artifacts.detector}, [spec])
    with faults.injected(plan):
        worker.score_batch(batch)
    state = worker.states[spec.device_id]
    return [
        index
        for index, flag in zip(state.interval_indices, state.flags)
        if flag == SKIPPED
    ]


class TestSkippedVerdicts:
    def test_faulted_intervals_degrade_to_skipped(self, run, unscorable):
        unscorable(UNSCORABLE)
        _, report = monitor_window(run)
        assert report["intervals"] == WINDOW
        assert report["skipped"] == len(UNSCORABLE)
        assert report["skipped_intervals"] == UNSCORABLE
        # SKIPPED verdicts carry NaN densities and never flag.
        assert np.flatnonzero(np.isnan(densities(report))).tolist() == UNSCORABLE
        scored = WINDOW - len(UNSCORABLE)
        assert report["flag_rate"] == report["flagged"] / scored

    def test_non_skipped_verdicts_are_bit_identical_to_clean_run(
        self, run, unscorable
    ):
        _, clean = monitor_window(run)
        unscorable(UNSCORABLE)
        _, degraded = monitor_window(run)
        kept = np.setdiff1d(np.arange(WINDOW), UNSCORABLE)
        np.testing.assert_array_equal(
            densities(degraded)[kept], densities(clean)[kept]
        )

    def test_skip_decisions_are_seed_deterministic(
        self, quick_artifacts, records
    ):
        plan_dict = {
            "seed": 3,
            "sites": {"serve.score": {"mode": "corrupt", "probability": 0.3}},
        }
        skipped = [
            worker_skips(
                quick_artifacts, records, FaultPlan.from_dict(plan_dict)
            )
            for _ in range(2)
        ]
        assert skipped[0]
        assert skipped[0] == skipped[1]

    def test_raise_mode_also_degrades_not_propagates(
        self, quick_artifacts, records
    ):
        """Even a fault whose contract elsewhere is 'raise' must not
        escape the verdict loop: the worker catches and skips."""
        plan = FaultPlan(
            sites={"serve.score": FaultSpec(mode="raise", probability=0.2)},
            seed=1,
        )
        assert worker_skips(quick_artifacts, records, plan)  # must not raise

    def test_every_interval_faulted_still_survives(self, run, unscorable):
        unscorable(range(WINDOW))
        code, report = monitor_window(run, "--alarm-consecutive", "1")
        assert code == EXIT_OK
        assert report["skipped"] == WINDOW
        assert report["flagged"] == 0
        assert report["flag_rate"] == 0.0  # no scored intervals, no division
        assert report["alarms"] == []


class TestAlarmPolicyUnderSkips:
    def test_skips_do_not_feed_the_alarm_streak(self, run, unscorable):
        """A skipped interval is not evidence of an attack: it must
        neither extend a consecutive-abnormal streak nor let the flags
        on either side of it join up."""
        argv = ["--scenario", "interrupt-storm", "--pre", "10", "--during", "20"]
        code, clean = run("attack", *argv, "--alarm-consecutive", "2")
        assert clean["alarms"]
        # Skip every other interval: no two scored intervals are adjacent.
        unscorable(range(0, 30, 2))
        code, report = run("attack", *argv, "--alarm-consecutive", "2")
        assert code == EXIT_OK
        assert sum(report["flags"]) > 0
        assert report["alarms"] == []


class TestSkipAccounting:
    def test_skip_counters_and_trace(self, run, unscorable, tmp_path):
        unscorable(UNSCORABLE)
        manifest, trace = tmp_path / "m.json", tmp_path / "t.json"
        _, report = monitor_window(
            run, "--metrics-out", str(manifest), "--trace", str(trace)
        )
        metrics = json.loads(manifest.read_text())["metrics"]
        assert metrics["monitor.intervals_skipped"]["value"] == len(UNSCORABLE)
        assert (
            metrics["monitor.intervals_scored"]["value"]
            == WINDOW - len(UNSCORABLE)
        )
        events = json.loads(trace.read_text())["traceEvents"]
        skip_events = [e for e in events if e.get("name") == "monitor.skipped"]
        assert [e["args"]["interval_index"] for e in skip_events] == UNSCORABLE
        assert all("reason" in e["args"] for e in skip_events)
        verdicts = [e for e in events if e.get("name") == "detector.verdict"]
        assert len(verdicts) == WINDOW - len(UNSCORABLE)
