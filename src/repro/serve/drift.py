"""Per-device score-drift monitoring.

θ_p is calibrated once, on held-out validation data from training
time.  A deployed device whose workload shifts (firmware update, new
traffic mix — the paper's Section 5.5 network-load study is exactly
this failure mode) will see its benign log-densities slide, and a
fixed θ_p then flags benign intervals far above the calibrated
p-percent budget.

:class:`DriftMonitor` keeps a bounded window of recent log-densities
per device and compares the *observed* sub-θ rate against the
*expected* rate (``p_percent / 100``).  A device is flagged as
drifted when the observed rate exceeds the expected one by both a
multiplicative factor and an absolute margin — single spikes don't
trip it, a sustained shift does.  For flagged devices it also
proposes a recalibrated threshold: the empirical p-quantile of the
current window, i.e. exactly the paper's θ_p calibration re-run on
fresh field data.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, Iterable, Optional

import numpy as np

from .. import obs
from ..learn.threshold import quantile_threshold

__all__ = ["DriftPolicy", "DriftStatus", "DriftMonitor", "evaluate_drift"]


@dataclass(frozen=True)
class DriftPolicy:
    """When is a device's score distribution considered drifted?"""

    window: int = 256  # recent log-densities kept per device
    min_samples: int = 40  # no verdict before this many observations
    rate_factor: float = 3.0  # observed rate must exceed factor·expected
    min_excess: float = 0.02  # ...and expected + this absolute margin

    def __post_init__(self) -> None:
        if self.window < 1:
            raise ValueError("window must be >= 1")
        if self.min_samples < 1:
            raise ValueError("min_samples must be >= 1")
        if self.rate_factor < 1.0:
            raise ValueError("rate_factor must be >= 1")
        if not 0 <= self.min_excess < 1:
            raise ValueError("min_excess must be in [0, 1)")


@dataclass(frozen=True)
class DriftStatus:
    """Drift verdict for one device at reporting time."""

    device_id: str
    samples: int
    observed_rate: Optional[float]
    expected_rate: float
    drifted: bool
    suggested_threshold: Optional[float]


class DriftMonitor:
    """Tracks per-device score quantiles over a sliding window."""

    def __init__(self, policy: DriftPolicy = DriftPolicy(), shard: int = 0):
        self.policy = policy
        self.shard = shard
        self._windows: Dict[str, Deque[float]] = {}
        self._metric_flagged = obs.metrics().counter("serve.drift.flagged")
        self._log = obs.logger()

    def observe(self, device_id: str, log_density: float) -> None:
        window = self._windows.get(device_id)
        if window is None:
            window = deque(maxlen=self.policy.window)
            self._windows[device_id] = window
        window.append(float(log_density))

    def observe_series(
        self, device_id: str, log_densities: Iterable[float]
    ) -> None:
        """Feed a whole score series (oldest first) for one device."""
        for value in log_densities:
            self.observe(device_id, value)

    def samples(self, device_id: str) -> int:
        window = self._windows.get(device_id)
        return 0 if window is None else len(window)

    def reset(self, device_id: str) -> None:
        """Forget a device's window (recalibration commit): the next
        drift verdict is earned entirely on post-commit scores."""
        self._windows.pop(device_id, None)

    def status(
        self, device_id: str, theta: float, p_percent: float
    ) -> DriftStatus:
        """Drift verdict for ``device_id`` against threshold ``theta``."""
        expected = p_percent / 100.0
        window = self._windows.get(device_id)
        samples = 0 if window is None else len(window)
        if samples < self.policy.min_samples:
            return DriftStatus(
                device_id=device_id,
                samples=samples,
                observed_rate=None,
                expected_rate=expected,
                drifted=False,
                suggested_threshold=None,
            )
        values = np.asarray(window, dtype=np.float64)
        observed = float(np.mean(values < theta))
        trip = max(
            self.policy.rate_factor * expected,
            expected + self.policy.min_excess,
        )
        drifted = observed >= trip
        suggested = None
        if drifted:
            # The paper's θ_p calibration, re-run on the field window.
            suggested = quantile_threshold(values, p_percent)
            self._metric_flagged.inc()
            if self._log.enabled:
                self._log.event(
                    "serve.drift.flag",
                    level="warn",
                    device_id=device_id,
                    shard=self.shard,
                    observed_rate=observed,
                    expected_rate=expected,
                    suggested_threshold=suggested,
                    samples=samples,
                )
        return DriftStatus(
            device_id=device_id,
            samples=samples,
            observed_rate=observed,
            expected_rate=expected,
            drifted=drifted,
            suggested_threshold=suggested,
        )


def evaluate_drift(
    log_densities: Iterable[float],
    theta: float,
    p_percent: float,
    policy: DriftPolicy = DriftPolicy(),
    device_id: str = "offline",
) -> DriftStatus:
    """One-shot drift verdict over a finished score series.

    Convenience wrapper for offline consumers (the conformance matrix
    above all): streams ``log_densities`` through a throwaway
    :class:`DriftMonitor` and returns the final verdict — exactly what
    a serving shard would report after seeing the same scores.  ``theta``
    and the scores must be in the same (log) units.
    """
    monitor = DriftMonitor(policy=policy)
    monitor.observe_series(device_id, log_densities)
    return monitor.status(device_id, theta, p_percent)
