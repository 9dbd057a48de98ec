"""Health / readiness summaries for fleet serving runs.

The CI soak job (and any operator pointing a probe at a long-running
serve) needs a single yes/no answer — *is this fleet healthy?* — plus
enough per-check detail to debug a "no".  :func:`health_summary`
derives that answer from a finished (or in-flight) fleet report:

* ``complete`` — every device emitted every configured interval;
* ``no_loss`` — nothing was dropped by backpressure **and** nothing
  was skipped by scoring faults (under the default ``block`` policy a
  healthy run loses nothing; the soak asserts exactly this);
* ``no_drift`` — no device's benign score distribution slid past the
  drift policy budget (advisory: drift degrades, it does not unready);
* ``detectors`` — a detector scored at least one interval per device.

``status`` is ``"ready"`` when every *readiness* check passes,
``"degraded"`` otherwise; advisory checks (drift) mark the status
degraded but are reported alongside so the probe output says why.
``repro serve --health-out health.json`` writes the summary next to
the fleet report, and the serve-soak CI job asserts ``ready`` is
true.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import List

from .. import obs
from .async_exec import emitted_for_cadence
from .report import FleetReport

__all__ = ["HEALTH_SCHEMA_VERSION", "health_summary", "write_health"]

HEALTH_SCHEMA_VERSION = 1


def _check(name: str, ok: bool, detail: str, critical: bool = True) -> dict:
    return {"name": name, "ok": ok, "critical": critical, "detail": detail}


def health_summary(report: FleetReport) -> dict:
    """A readiness summary derived from a fleet report."""
    # Cadence-aware expectation: a device ticking every c fleet steps
    # emits ⌈intervals / c⌉ records (always intervals when c == 1).
    expected = sum(
        emitted_for_cadence(report.intervals, entry.cadence)
        for entry in report.device_reports
    )
    checks: List[dict] = [
        _check(
            "complete",
            report.emitted == expected,
            f"emitted {report.emitted}/{expected} device-intervals",
        ),
        _check(
            "no_loss",
            report.dropped == 0 and report.skipped == 0,
            f"dropped={report.dropped} skipped={report.skipped}",
        ),
        _check(
            "detectors",
            report.scored > 0,
            f"scored {report.scored} intervals across "
            f"{report.devices} devices",
        ),
        _check(
            "no_drift",
            report.devices_drifted == 0,
            f"devices_drifted={report.devices_drifted}",
            critical=False,
        ),
    ]
    if report.bus is not None:
        poisoned = report.bus.get("subscribers_poisoned", 0)
        lost = report.bus.get("publish_lost", 0) + report.bus.get(
            "deliver_faults", 0
        )
        checks.append(
            _check(
                "bus",
                poisoned == 0 and lost == 0,
                f"subscribers_poisoned={poisoned} events_lost={lost}",
            )
        )
    ready = all(c["ok"] for c in checks if c["critical"])
    degraded = any(not c["ok"] for c in checks)
    status = "degraded" if degraded else "ready"
    summary = {
        "schema": HEALTH_SCHEMA_VERSION,
        "status": status,
        "ready": ready,
        "checks": checks,
        "devices": report.devices,
        "intervals": report.intervals,
        "alarms": report.alarms,
        "fleet_digest": report.fleet_digest,
    }
    log = obs.logger()
    if log.enabled:
        log.event(
            "serve.health",
            level="info" if ready else "warn",
            status=status,
            ready=ready,
            phase="report",
        )
    return summary


def write_health(path, report: FleetReport) -> dict:
    """Write :func:`health_summary` to ``path``; returns the summary."""
    summary = health_summary(report)
    Path(path).write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")
    return summary
