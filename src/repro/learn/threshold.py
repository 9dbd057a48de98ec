"""Detection-threshold calibration.

Section 5.2 of the paper: after training, *another* set of normal MHMs
is collected, their densities ``P`` are computed under the fitted GMM,
and the threshold θ is set to the p-quantile of P — so the expected
false-positive rate is p.  The paper's figures draw θ_0.5 and θ_1
(p = 0.5 % and 1 %).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping

import numpy as np

__all__ = ["DEFAULT_QUANTILES", "quantile_threshold", "ThresholdBank"]

#: The p values (in percent) the paper's evaluation uses.
DEFAULT_QUANTILES = (0.5, 1.0)


def quantile_threshold(log_densities: np.ndarray, p_percent: float) -> float:
    """θ_p: the p-percent quantile of normal-set log densities.

    ``p_percent`` follows the paper's notation: θ_0.5 means p = 0.5 %.
    Thresholds live in the same (natural-log) space as the densities
    passed in.
    """
    log_densities = np.asarray(log_densities, dtype=np.float64)
    if log_densities.size == 0:
        raise ValueError("cannot calibrate a threshold on an empty set")
    if not 0.0 < p_percent < 100.0:
        raise ValueError("p_percent must be in (0, 100)")
    return float(np.quantile(log_densities, p_percent / 100.0))


@dataclass
class ThresholdBank:
    """A set of θ_p thresholds calibrated on one validation set.

    Keys are p values in percent (0.5 → θ_0.5).  All thresholds are in
    natural-log density space.
    """

    thresholds: dict[float, float] = field(default_factory=dict)

    @classmethod
    def calibrate(
        cls,
        log_densities: np.ndarray,
        quantiles: Iterable[float] = DEFAULT_QUANTILES,
    ) -> "ThresholdBank":
        return cls(
            thresholds={
                float(p): quantile_threshold(log_densities, p) for p in quantiles
            }
        )

    def threshold(self, p_percent: float) -> float:
        try:
            return self.thresholds[float(p_percent)]
        except KeyError:
            available = sorted(self.thresholds)
            raise KeyError(
                f"no θ_{p_percent} calibrated (available: {available})"
            ) from None

    def is_anomalous(self, log_density: float, p_percent: float) -> bool:
        """The paper's legitimacy test: density below θ_p ⇒ anomalous."""
        return log_density < self.threshold(p_percent)

    def flag_series(self, log_densities: np.ndarray, p_percent: float) -> np.ndarray:
        """Vectorised legitimacy test over a series of densities."""
        theta = self.threshold(p_percent)
        return np.asarray(log_densities, dtype=np.float64) < theta

    @property
    def quantiles(self) -> list[float]:
        return sorted(self.thresholds)

    def to_mapping(self) -> Mapping[float, float]:
        return dict(self.thresholds)
