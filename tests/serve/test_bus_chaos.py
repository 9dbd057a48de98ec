"""Chaos suite: the fleet under injected bus faults.

Each campaign runs the async executor with a seeded
:class:`~repro.faults.FaultPlan` naming the bus's injection sites
(``bus.publish``, ``bus.deliver``, ``subscriber.handle``) and asserts
the degradation contract:

* fault decisions are pure in ``(seed, site, token)`` and the tokens
  are shard-invariant (``device@interval``), so a faulted fleet is
  still **bit-identical across shard counts**;
* every record the simulator emits still lands in exactly one of
  scored / skipped / dropped — losses are accounted, never silent;
* a poisoned subscriber produces a failures-manifest record and a
  degraded (not deadlocked, not crashed) run.
"""

import pytest

from repro import faults
from repro.serve import FleetService, health_summary


pytestmark = pytest.mark.bus


def _plan(**sites):
    return faults.FaultPlan(
        seed=5,
        sites={
            site: faults.FaultSpec(**spec) for site, spec in sites.items()
        },
    )


def _assert_ledger(report):
    assert report.emitted == report.scored + report.skipped + report.dropped
    per_device = sum(d.dropped for d in report.device_reports)
    assert per_device == report.dropped


class TestBusFaultCampaign:
    @pytest.mark.parametrize(
        "plan",
        [
            _plan(**{"bus.publish": dict(probability=0.4, mode="raise")}),
            _plan(**{"bus.deliver": dict(probability=0.4, mode="raise",
                                         match="scoring")}),
            _plan(**{
                "bus.publish": dict(probability=0.2, mode="raise"),
                "bus.deliver": dict(probability=0.2, mode="raise",
                                    match="scoring"),
                "serve.score": dict(probability=0.2, mode="corrupt"),
            }),
        ],
        ids=["publish-loss", "deliver-loss", "combined"],
    )
    def test_faulted_fleet_is_shard_invariant(self, config_factory, plan):
        reference = FleetService(
            config_factory(), fault_plan=plan
        ).run()
        _assert_ledger(reference)
        sharded = FleetService(
            config_factory(shards=2), fault_plan=plan
        ).run()
        _assert_ledger(sharded)
        assert sharded.canonical_dict() == reference.canonical_dict()

    def test_publish_loss_is_charged_as_dropped(self, config_factory):
        plan = _plan(**{"bus.publish": dict(probability=0.4, mode="raise")})
        report = FleetService(
            config_factory(), fault_plan=plan
        ).run()
        assert report.dropped > 0  # the campaign actually fired
        # publish_lost counts every topic (a lost interval.scored copy
        # is a telemetry casualty, not a data-plane one); only lost
        # interval.observed records are charged to the device ledger.
        assert report.bus["publish_lost"] >= report.dropped
        _assert_ledger(report)

    def test_deliver_loss_routes_to_on_drop(self, config_factory):
        plan = _plan(**{
            "bus.deliver": dict(probability=0.4, mode="raise",
                                match="scoring"),
        })
        report = FleetService(
            config_factory(), fault_plan=plan
        ).run()
        assert report.bus["deliver_faults"] > 0
        assert report.dropped == report.bus["deliver_faults"]
        _assert_ledger(report)

    def test_retry_absorbs_low_probability_faults(self, config_factory):
        # Every bus gate retries once under an attempt-suffixed token:
        # with firing probability p, loss needs both attempts to fire
        # (~p²).  At p=0.05 over a 32-record run the double-fire is
        # vanishingly unlikely — the retry absorbs every single fault.
        plan = _plan(**{"bus.publish": dict(probability=0.05, mode="raise")})
        report = FleetService(
            config_factory(), fault_plan=plan
        ).run()
        assert report.dropped == 0
        assert report.bus["publish_lost"] == 0
        _assert_ledger(report)


class TestPoisonedSubscriber:
    def test_poisoned_reporting_lands_in_failures_manifest(
        self, config_factory
    ):
        plan = _plan(**{
            "subscriber.handle": dict(probability=1.0, mode="raise",
                                      match="reporting"),
        })
        report = FleetService(
            config_factory(), fault_plan=plan
        ).run()
        # The data plane survived: everything still scored.
        assert report.scored == report.emitted
        failures = report.bus["failures"]
        assert len(failures) == 1
        assert failures[0]["subscriber"] == "reporting"
        assert "FaultError" in failures[0]["error"]
        assert report.bus["subscribers_poisoned"] == 1

    def test_poisoned_subscriber_degrades_health(self, config_factory):
        plan = _plan(**{
            "subscriber.handle": dict(probability=1.0, mode="raise",
                                      match="reporting"),
        })
        report = FleetService(
            config_factory(), fault_plan=plan
        ).run()
        summary = health_summary(report)
        assert summary["ready"] is False
        assert summary["status"] == "degraded"
        bus_check = next(
            c for c in summary["checks"] if c["name"] == "bus"
        )
        assert bus_check["ok"] is False

    def test_poisoned_scoring_still_produces_a_report(self, config_factory):
        # The scoring subscriber itself dies mid-run: the harshest
        # case.  Unscored records are not silently lost — they simply
        # never reach the worker — and the run ends degraded, with the
        # crash attributed on the manifest, instead of deadlocking the
        # ingestion loop on a dead queue.
        plan = _plan(**{
            "subscriber.handle": dict(probability=1.0, mode="raise",
                                      match="scoring"),
        })
        report = FleetService(
            config_factory(), fault_plan=plan
        ).run()
        assert report.scored == 0
        failures = report.bus["failures"]
        assert len(failures) == 1
        assert failures[0]["subscriber"] == "scoring"
        assert health_summary(report)["ready"] is False

    def test_healthy_run_has_empty_manifest(self, config_factory):
        report = FleetService(config_factory()).run()
        assert report.bus["failures"] == []
        assert report.bus["subscribers_poisoned"] == 0
        assert health_summary(report)["ready"] is True
