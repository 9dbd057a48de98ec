"""Two-modality ensemble: MHM densities x syscall execution contexts.

Each modality is calibrated to its own false-positive budget and the
budgets must *sum to no more than the combined budget*: with the MHM
channel flagging at θ_{p_mhm} and the context channel at θ_{p_ctx},
the OR-rule's clean-stream false-positive rate is union-bounded by
``p_mhm + p_ctx``.  :class:`EnsembleConfig` therefore derives the two
per-modality budgets from one ``p_percent`` and a share — computing
``p_ctx = p - p_mhm`` so the sum is *exactly* the combined budget, not
a rounding hair above it.

Fusion rules:

``or``
    Flag when either modality flags — maximum coverage, the default
    (each attack family is caught by the modality that sees it).
``and``
    Flag only when both modalities agree — minimum false positives,
    for fleets where an alarm pages a human.

(A weighted vote over the two boolean flags always reduces to one of
these, to one modality, or to a constant.)  Per scoring modality in
:data:`MODALITIES`, :meth:`EnsembleConfig.budgets` and
:meth:`EnsembleConfig.verdict` decide each channel's budget and the
verdict, for the serving worker and ``repro detect`` alike.

The combiner never retrains anything: it reads per-interval MHM log
densities and context scores that the two fitted detectors produced,
so serial and sharded serving paths fuse bit-identically.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .contexts import ContextDetector
from .detector import MhmDetector

__all__ = [
    "ENSEMBLE_RULES",
    "MODALITIES",
    "EnsembleConfig",
    "EnsembleDetector",
    "allowed_false_positive_rate",
    "check_modality",
]

ENSEMBLE_RULES = ("or", "and")

#: Scoring modes: MHM densities only, syscall contexts only, or both
#: fused under an :class:`EnsembleConfig` rule.
MODALITIES = ("mhm", "contexts", "ensemble")


def check_modality(modality: str) -> None:
    if modality not in MODALITIES:
        raise ValueError(
            f"unknown modality {modality!r}; choose from {MODALITIES}"
        )


def allowed_false_positive_rate(p_percent: float, samples: int) -> float:
    """Binomial slack for an FPR-budget check over ``samples`` intervals.

    Expected rate plus two standard deviations plus one interval of
    granularity — the same allowance the conformance matrix's
    ``fpr-budget`` column grants, so short clean windows don't fail on
    a single flag.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    expected = p_percent / 100.0
    return (
        expected
        + 2.0 * math.sqrt(expected * (1.0 - expected) / samples)
        + 1.0 / samples
    )


@dataclass(frozen=True)
class EnsembleConfig:
    """How the combined false-positive budget splits across modalities.

    ``p_percent`` is the ensemble's total budget (percent).  The MHM
    modality gets ``p_percent * mhm_share``; the context modality gets
    the subtraction complement ``p_percent - p_mhm`` — not an
    independently rounded ``p_percent * (1 - mhm_share)`` — so the
    recombined budgets sit within one ulp of the declared total and
    the OR-rule union bound holds with no slack lost to rounding.
    """

    p_percent: float = 1.0
    mhm_share: float = 0.5
    rule: str = "or"

    def __post_init__(self) -> None:
        if not 0.0 < self.p_percent < 100.0:
            raise ValueError("p_percent must be in (0, 100)")
        if not 0.0 < self.mhm_share < 1.0:
            raise ValueError("mhm_share must be in (0, 1)")
        if self.rule not in ENSEMBLE_RULES:
            raise ValueError(
                f"unknown ensemble rule {self.rule!r}; choose from "
                f"{ENSEMBLE_RULES} (the 'weighted' rule was removed: "
                "'or' gives the verdicts its reachable setting gave)"
            )

    @property
    def p_mhm(self) -> float:
        return self.p_percent * self.mhm_share

    @property
    def p_context(self) -> float:
        # Exact complement: the two budgets sum to exactly p_percent.
        return self.p_percent - self.p_mhm

    def fuse(self, mhm_flags, context_flags):
        """The fused verdict of the two modalities' flags under the rule.

        Works elementwise on boolean arrays and on single bools alike,
        so the batch path (:meth:`EnsembleDetector.classify`) and the
        per-record serving path fuse with the same operations.
        """
        if self.rule == "or":
            return mhm_flags | context_flags
        return mhm_flags & context_flags

    def budgets(self, modality: str, p_percent: float) -> tuple[float, float]:
        """``(p_mhm, p_context)`` under ``modality``: this config's exact
        split for ``ensemble``, all of ``p_percent`` for one modality."""
        check_modality(modality)
        if modality == "ensemble":
            return self.p_mhm, self.p_context
        return p_percent, p_percent

    def verdict(self, modality: str, mhm_flags, context_flags):
        """The verdict under ``modality``, on bools or arrays like
        :meth:`fuse`; a channel the modality does not read may be None."""
        check_modality(modality)
        if modality == "ensemble":
            return self.fuse(mhm_flags, context_flags)
        return mhm_flags if modality == "mhm" else context_flags

class EnsembleDetector:
    """Fuses per-interval verdicts from the two fitted modalities.

    The per-modality thresholds are resolved at construction from each
    detector's calibrated bank (``MhmDetector`` flags *below* its θ,
    ``ContextDetector`` flags *above* its θ).  When a budget split
    lands between calibrated quantiles, use :meth:`calibrate` with the
    held-out validation scores to recalibrate the thresholds at exactly
    ``p_mhm`` / ``p_context``.
    """

    def __init__(
        self,
        mhm: MhmDetector,
        context: ContextDetector,
        config: Optional[EnsembleConfig] = None,
        *,
        theta_mhm: Optional[float] = None,
        theta_context: Optional[float] = None,
    ):
        self.config = config if config is not None else EnsembleConfig()
        self.mhm = mhm
        self.context = context
        self.theta_mhm = (
            float(theta_mhm)
            if theta_mhm is not None
            else mhm.threshold(self.config.p_mhm)
        )
        self.theta_context = (
            float(theta_context)
            if theta_context is not None
            else context.threshold(self.config.p_context)
        )

    @classmethod
    def calibrate(
        cls,
        mhm: MhmDetector,
        context: ContextDetector,
        mhm_validation_densities: np.ndarray,
        context_validation_scores: np.ndarray,
        config: Optional[EnsembleConfig] = None,
    ) -> "EnsembleDetector":
        """Recalibrate both thresholds to the split budgets.

        ``mhm_validation_densities`` / ``context_validation_scores``
        are each modality's scores of the *same* held-out clean stream;
        the thresholds become the ``p_mhm``-quantile (densities, flag
        below) and ``(100 - p_context)``-quantile (scores, flag above).
        """
        config = config if config is not None else EnsembleConfig()
        densities = np.asarray(mhm_validation_densities, dtype=np.float64)
        scores = np.asarray(context_validation_scores, dtype=np.float64)
        if densities.size == 0 or scores.size == 0:
            raise ValueError("cannot calibrate on empty validation scores")
        return cls(
            mhm,
            context,
            config,
            theta_mhm=float(np.quantile(densities, config.p_mhm / 100.0)),
            theta_context=float(
                np.quantile(scores, 1.0 - config.p_context / 100.0)
            ),
        )

    # ------------------------------------------------------------------
    # Fusion
    # ------------------------------------------------------------------
    def modality_flags(
        self, log_densities: np.ndarray, context_scores: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Per-modality boolean flags for aligned interval series."""
        densities = np.asarray(log_densities, dtype=np.float64)
        scores = np.asarray(context_scores, dtype=np.float64)
        if densities.shape != scores.shape:
            raise ValueError(
                "log_densities and context_scores must align per interval"
            )
        return densities < self.theta_mhm, scores > self.theta_context

    def classify(
        self, log_densities: np.ndarray, context_scores: np.ndarray
    ) -> np.ndarray:
        """Fused boolean anomaly flags under the configured rule."""
        return self.config.fuse(
            *self.modality_flags(log_densities, context_scores)
        )

    # ------------------------------------------------------------------
    # Identity
    # ------------------------------------------------------------------
    def fingerprint(self) -> str:
        """sha256 over both fitted models, the thresholds and the rule."""
        digest = hashlib.sha256()
        for group, arrays in (
            ("mhm", self.mhm.to_arrays()),
            ("context", self.context.to_arrays()),
        ):
            for name in sorted(arrays):
                array = np.ascontiguousarray(arrays[name])
                digest.update(f"{group}.{name}".encode())
                digest.update(str(array.dtype).encode())
                digest.update(str(array.shape).encode())
                digest.update(array.tobytes())
        digest.update(
            (
                f"rule={self.config.rule};p={self.config.p_percent!r};"
                f"share={self.config.mhm_share!r};"
                f"theta_mhm={self.theta_mhm.hex()};"
                f"theta_context={self.theta_context.hex()}"
            ).encode()
        )
        return digest.hexdigest()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"EnsembleDetector(rule={self.config.rule!r}, "
            f"p_mhm={self.config.p_mhm}, p_context={self.config.p_context})"
        )
