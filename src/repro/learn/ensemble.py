"""Two-modality ensemble: MHM densities x syscall execution contexts.

The ensemble spends the caller's one false-positive budget ``p`` (the
paper's θ_p quantile, ``--quantile`` on the CLI) across both
modalities, and the per-modality budgets must *sum to no more than
p*: with the MHM channel flagging at its budget ``p_m`` and the
context channel at ``p_c``, the OR-rule's clean-stream false-positive
rate is union-bounded by ``p_m + p_c``.  :meth:`EnsembleConfig.budgets`
splits ``p`` by a share — computing ``p_c = p - p_m`` so the sum is
*exactly* the combined budget, not a rounding hair above it.

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
verdict, for the serving worker, ``repro detect`` and the conformance
matrix alike.  Each channel's θ comes from its detector's calibrated
threshold bank at that budget.

The combiner never retrains anything: it reads per-interval MHM log
densities and context scores that the two fitted detectors produced,
so serial and sharded serving paths fuse bit-identically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = [
    "ENSEMBLE_RULES",
    "MODALITIES",
    "EnsembleConfig",
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
    """How one false-positive budget splits across the modalities, and
    how their verdicts fuse.

    The budget itself is the caller's ``p_percent``: :meth:`budgets`
    gives the MHM modality ``p * mhm_share`` and the context modality
    the subtraction complement ``p - p * mhm_share`` — not an
    independently rounded ``p * (1 - mhm_share)`` — so the recombined
    budgets sit within one ulp of ``p`` and the OR-rule union bound
    holds with no slack lost to rounding.
    """

    mhm_share: float = 0.5
    rule: str = "or"

    def __post_init__(self) -> None:
        if not 0.0 < self.mhm_share < 1.0:
            raise ValueError("mhm_share must be in (0, 1)")
        if self.rule not in ENSEMBLE_RULES:
            raise ValueError(
                f"unknown ensemble rule {self.rule!r}; choose from "
                f"{ENSEMBLE_RULES} (the 'weighted' rule was removed: "
                "'or' gives the verdicts its reachable setting gave)"
            )

    def fuse(self, mhm_flags, context_flags):
        """The fused verdict of the two modalities' flags under the rule.

        Works elementwise on boolean arrays and on single bools alike,
        so the batch paths (``repro detect``) and the per-record serving
        path fuse with the same operations.
        """
        if self.rule == "or":
            return mhm_flags | context_flags
        return mhm_flags & context_flags

    def budgets(self, modality: str, p_percent: float) -> tuple[float, float]:
        """``(mhm_p, context_p)`` under ``modality``: the exact split of
        ``p_percent`` for ``ensemble``, all of it for one modality."""
        check_modality(modality)
        if not 0.0 < p_percent < 100.0:
            raise ValueError("p_percent must be in (0, 100)")
        if modality == "ensemble":
            mhm_p = p_percent * self.mhm_share
            # Exact complement: the two budgets sum to exactly p_percent.
            return mhm_p, p_percent - mhm_p
        return p_percent, p_percent

    def verdict(self, modality: str, mhm_flags, context_flags):
        """The verdict under ``modality``, on bools or arrays like
        :meth:`fuse`; a channel the modality does not read may be None."""
        check_modality(modality)
        if modality == "ensemble":
            return self.fuse(mhm_flags, context_flags)
        return mhm_flags if modality == "mhm" else context_flags
