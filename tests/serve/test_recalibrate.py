"""Recalibration: the proposal → canary → commit state machine.

Unit half: the controller against a stub worker — proposal cadence,
shadow-trial accounting, commit/reject verdicts, cooldown and the
per-device commit cap, plus the control-plane bus events.

Applied half: a slow-drift fleet run where the attacked devices' score
distributions slide far enough that the drift monitor proposes new
thresholds, the canary trials pass, and the committed θ′ *flips the
attacked devices back under the false-positive budget* — the
recalibration-evasion scenario the adversarial corpus worries about,
executed end to end.  The conformance edge: devices the controller
never touched must keep digests bit-identical to the same fleet run
without recalibration, and the whole recalibrated run must stay
shard-invariant.
"""

import dataclasses
import math

import pytest

from repro.serve import (
    DriftPolicy,
    DriftStatus,
    FleetService,
    RecalibrationController,
    RecalibrationPolicy,
    ScoredInterval,
)
from repro.serve.bus import EventBus
from repro.serve.drift import DriftMonitor
from repro.serve.worker import ShardWorker

pytestmark = pytest.mark.bus


# ----------------------------------------------------------------------
# Stubs
# ----------------------------------------------------------------------
class StubDrift:
    def __init__(self):
        self.verdicts = {}
        self.resets = []

    def flag(self, device_id, suggested):
        self.verdicts[device_id] = DriftStatus(
            device_id=device_id, samples=99, observed_rate=0.5,
            expected_rate=0.01, drifted=True,
            suggested_threshold=suggested,
        )

    def status(self, device_id, theta, p_percent):
        return self.verdicts.get(
            device_id,
            DriftStatus(
                device_id=device_id, samples=99, observed_rate=0.0,
                expected_rate=0.01, drifted=False,
                suggested_threshold=None,
            ),
        )

    def reset(self, device_id):
        self.resets.append(device_id)
        self.verdicts.pop(device_id, None)


class StubWorker:
    p_percent = 1.0

    def __init__(self):
        self.drift = StubDrift()
        self.applied = []

    def apply_threshold(self, device_id, theta, interval_index=None):
        self.applied.append((device_id, theta, interval_index))

    def drift_status(self, device_id):
        return self.drift.status(device_id, None, self.p_percent)


def scored(device_id, interval, density, theta=-100.0):
    return ScoredInterval(
        device_id=device_id, profile="baseline", interval_index=interval,
        log_density=density, theta=theta, flag="ok", alarm=False,
        truth=False,
    )


POLICY = RecalibrationPolicy(
    enabled=True, check_every=4, canary_intervals=3, max_canary_flags=1,
    cooldown=6,
)


class TestStateMachine:
    def test_proposal_waits_for_check_cadence(self):
        worker = StubWorker()
        controller = RecalibrationController(POLICY, worker)
        worker.drift.flag("dev", suggested=-200.0)
        for i in range(3):
            controller.on_scored(scored("dev", i, -50.0))
        assert controller.proposed == 0  # sample 4 is the first check
        controller.on_scored(scored("dev", 3, -50.0))
        assert controller.proposed == 1

    def test_clean_canary_commits_and_resets_drift(self):
        worker = StubWorker()
        controller = RecalibrationController(POLICY, worker)
        worker.drift.flag("dev", suggested=-200.0)
        for i in range(4):
            controller.on_scored(scored("dev", i, -50.0))
        # Trial: three shadow records, all above θ′=-200 → no flags.
        for i in range(4, 7):
            controller.on_scored(scored("dev", i, -50.0))
        assert controller.committed == 1
        assert worker.applied == [("dev", -200.0, 6)]
        assert worker.drift.resets == ["dev"]
        assert controller.stats() == {
            "proposed": 1, "committed": 1, "rejected": 0,
        }

    def test_overflagging_canary_rejects_with_cooldown(self):
        worker = StubWorker()
        controller = RecalibrationController(POLICY, worker)
        worker.drift.flag("dev", suggested=-40.0)
        for i in range(4):
            controller.on_scored(scored("dev", i, -50.0))
        # All three shadow records fall below θ′=-40 → 3 flags > 1.
        for i in range(4, 7):
            controller.on_scored(scored("dev", i, -50.0))
        assert controller.rejected == 1
        assert worker.applied == []
        assert worker.drift.resets == []
        # Cooldown: the next check at sample 8 is suppressed (cooldown
        # runs to sample 7 + 6 = 13), sample 16 is the next live check.
        for i in range(7, 15):
            controller.on_scored(scored("dev", i, -50.0))
        assert controller.proposed == 1
        controller.on_scored(scored("dev", 15, -50.0))
        assert controller.proposed == 2

    def test_commit_cap_stops_reproposals(self):
        worker = StubWorker()
        controller = RecalibrationController(POLICY, worker)
        worker.drift.flag("dev", suggested=-200.0)
        for i in range(7):
            controller.on_scored(scored("dev", i, -50.0))
        assert controller.committed == 1
        worker.drift.flag("dev", suggested=-300.0)  # drifts again
        for i in range(7, 30):
            controller.on_scored(scored("dev", i, -50.0))
        assert controller.proposed == 1  # max_commits_per_device=1

    def test_devices_have_independent_lanes(self):
        worker = StubWorker()
        controller = RecalibrationController(POLICY, worker)
        worker.drift.flag("a", suggested=-200.0)
        for i in range(7):
            controller.on_scored(scored("a", i, -50.0))
            controller.on_scored(scored("b", i, -50.0))
        assert controller.committed == 1
        assert [entry[0] for entry in worker.applied] == ["a"]

    def test_lifecycle_events_reach_the_bus(self):
        worker = StubWorker()
        bus = EventBus()
        topics = []
        bus.subscribe(
            "audit",
            ("recalibrate.proposed", "recalibrate.committed",
             "recalibrate.rejected"),
            mode="direct",
            handler=lambda event: topics.append(
                (event.topic, event.payload["device_id"])
            ),
        )
        controller = RecalibrationController(POLICY, worker, bus=bus)
        worker.drift.flag("dev", suggested=-200.0)
        for i in range(7):
            controller.on_scored(scored("dev", i, -50.0))
        assert topics == [
            ("recalibrate.proposed", "dev"),
            ("recalibrate.committed", "dev"),
        ]

    def test_policy_validation(self):
        with pytest.raises(ValueError):
            RecalibrationPolicy(check_every=0)
        with pytest.raises(ValueError):
            RecalibrationPolicy(canary_intervals=0)
        with pytest.raises(ValueError):
            RecalibrationPolicy(max_canary_flags=-1)
        with pytest.raises(ValueError):
            RecalibrationPolicy(max_commits_per_device=0)


# ----------------------------------------------------------------------
# Applied: the slow-drift fleet
# ----------------------------------------------------------------------
RECAL = RecalibrationPolicy(
    enabled=True, check_every=8, canary_intervals=8, max_canary_flags=2,
    cooldown=8,
)


@pytest.fixture(scope="module")
def drift_config(base_config):
    """A fleet whose attacked devices drift past the policy trip while
    the benign ones stay inside it (min_excess tuned so a stray benign
    flag cannot trip a 32-sample window)."""
    return dataclasses.replace(
        base_config,
        intervals=64,
        keep_densities=True,
        drift=DriftPolicy(window=32, min_samples=16, min_excess=0.1),
    )


@pytest.fixture(scope="module")
def lockstep_reference(drift_config):
    """The same fleet without recalibration."""
    return FleetService(drift_config).run()


@pytest.fixture(scope="module")
def recalibrated_report(drift_config):
    return FleetService(
        dataclasses.replace(
            drift_config, recalibration=RECAL
        )
    ).run()


class TestAppliedRecalibration:
    def test_attacked_devices_commit_benign_do_not(
        self, recalibrated_report
    ):
        recalibrated = {
            d.device_id
            for d in recalibrated_report.device_reports
            if d.recalibrated
        }
        attacked = {
            d.device_id
            for d in recalibrated_report.device_reports
            if d.scenario is not None
        }
        assert recalibrated == attacked
        assert recalibrated_report.devices_recalibrated == len(attacked)
        stats = recalibrated_report.bus["recalibration"]
        assert stats["committed"] == len(attacked)
        assert stats["proposed"] >= stats["committed"]

    def test_poisoned_window_commit_flips_device_under_budget(
        self, recalibrated_report
    ):
        """The evasion endpoint: when the attack's scores have seeped
        into the drift window *before* the proposal, the recalibrated
        θ′ sits below the attack's score floor — post-commit the device
        flags at a rate back inside the canary budget.  A device whose
        trial ran on clean data instead keeps θ′ above the attack
        floor and still flags it (recalibration must not blind a
        clean-window device)."""
        poisoned_commits = 0
        for entry in recalibrated_report.device_reports:
            if not entry.recalibrated:
                continue
            assert entry.recalibrated_threshold is not None
            commit_at = entry.recalibrated_at_interval
            post = [
                density
                for i, density in enumerate(entry.log_densities)
                if i > commit_at and not math.isnan(density)
            ]
            post_flags = sum(
                density < entry.recalibrated_threshold for density in post
            )
            assert len(post) > 0
            if commit_at >= entry.inject_interval:
                poisoned_commits += 1
                assert post_flags <= RECAL.max_canary_flags
            else:
                assert post_flags > 0  # the later attack still flags
        assert poisoned_commits > 0  # the evasion case is exercised

    def test_recalibration_reduces_flagging(
        self, recalibrated_report, lockstep_reference
    ):
        """θ′ is a low quantile of a drifted window, so it always sits
        below the deployed θ — every recalibrated device flags at most
        as often as its un-recalibrated twin, and the fleet strictly
        less overall."""
        reference = {
            d.device_id: d for d in lockstep_reference.device_reports
        }
        recalibrated = [
            d for d in recalibrated_report.device_reports if d.recalibrated
        ]
        for entry in recalibrated:
            assert entry.flagged <= reference[entry.device_id].flagged
        assert sum(d.flagged for d in recalibrated) < sum(
            reference[d.device_id].flagged for d in recalibrated
        )

    def test_untouched_devices_keep_lockstep_digests(
        self, recalibrated_report, lockstep_reference
    ):
        reference = {
            d.device_id: d for d in lockstep_reference.device_reports
        }
        untouched = [
            d
            for d in recalibrated_report.device_reports
            if not d.recalibrated
        ]
        assert untouched  # the fleet has benign devices
        for entry in untouched:
            assert entry.digest == reference[entry.device_id].digest

    def test_recalibrated_run_is_shard_invariant(
        self, recalibrated_report, drift_config
    ):
        sharded = FleetService(
            dataclasses.replace(
                drift_config, recalibration=RECAL,
                shards=2,
            )
        ).run()
        assert (
            sharded.canonical_dict() == recalibrated_report.canonical_dict()
        )

    def test_report_carries_recalibration_provenance(
        self, recalibrated_report
    ):
        entry = next(
            d for d in recalibrated_report.device_reports if d.recalibrated
        )
        payload = recalibrated_report.to_dict()["device_reports"]
        row = next(
            r for r in payload if r["device_id"] == entry.device_id
        )
        assert row["recalibrated"] is True
        assert row["recalibrated_threshold"] == entry.recalibrated_threshold
        assert row["recalibrated_at_interval"] == (
            entry.recalibrated_at_interval
        )


class TestOneDriftVerdict:
    def test_report_and_controller_read_drift_status(
        self, drift_config, monkeypatch
    ):
        """Every drift verdict of a serving run is
        ``ShardWorker.drift_status``: on a device with a committed
        override, the controller and ``device_report`` read the same
        status, judged at the override."""
        reads = []  # (worker, device_id, deployed θ, status)
        judged = []  # DriftMonitor.status arguments
        drift_status = ShardWorker.drift_status
        monitor_status = DriftMonitor.status

        def spy_drift_status(worker, device_id):
            status = drift_status(worker, device_id)
            profile = worker.states[device_id].spec.profile
            reads.append(
                (worker, device_id, worker.deployed_theta(device_id, profile),
                 status)
            )
            return status

        def spy_monitor_status(monitor, device_id, theta, p_percent):
            judged.append((device_id, theta, p_percent))
            return monitor_status(monitor, device_id, theta, p_percent)

        monkeypatch.setattr(ShardWorker, "drift_status", spy_drift_status)
        monkeypatch.setattr(DriftMonitor, "status", spy_monitor_status)
        report = FleetService(
            dataclasses.replace(drift_config, recalibration=RECAL)
        ).run()
        # The monitor judged nothing that did not come through
        # drift_status, and always at the fleet's one budget.
        assert judged == [
            (device_id, theta, drift_config.p_percent)
            for _, device_id, theta, _ in reads
        ]
        committed = [d for d in report.device_reports if d.recalibrated]
        assert committed
        for device in committed:
            worker, _, theta, status = [
                read for read in reads if read[1] == device.device_id
            ][-1]
            # The report's read comes last, at the committed override.
            assert theta == device.recalibrated_threshold
            assert (
                status.drifted, status.observed_rate, status.expected_rate,
                status.suggested_threshold,
            ) == (
                device.drifted, device.drift_observed_rate,
                device.drift_expected_rate, device.suggested_threshold,
            )
            # A controller check on the same device now reads the very
            # status the report shows.
            controller = RecalibrationController(
                dataclasses.replace(RECAL, check_every=1), worker
            )
            before = len(reads)
            controller.on_scored(
                scored(device.device_id, drift_config.intervals, 0.0,
                       theta=theta)
            )
            assert [read[2:] for read in reads[before:]] == [(theta, status)]
