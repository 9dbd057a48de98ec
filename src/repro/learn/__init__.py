"""Learning pipeline: eigenmemory (PCA), GMM-EM, thresholds, detector."""

from .baselines import (
    HotCellSetDetector,
    NearestNeighborDetector,
    TrafficVolumeDetector,
)
from .contexts import ContextDetector, cluster_contexts, sort_rows
from .detector import MhmDetector
from .ensemble import (
    ENSEMBLE_RULES,
    EnsembleConfig,
    allowed_false_positive_rate,
)
from .fj import FigueiredoJainGmm
from .gmm import GaussianMixtureModel, GmmParameters
from .kmeans import KMeansResult, kmeans, kmeans_plus_plus_init
from .localfeatures import LocalFeatureDetector, PatchCodebook, PatchExtractor
from .metrics import (
    ConfusionCounts,
    alarm_streaks,
    auc,
    confusion_from_flags,
    detection_latency,
    false_positive_rate,
    roc_auc_from_scores,
    roc_curve,
    true_positive_rate,
)
from .pca import Eigenmemory
from .temporal import ComponentTransitionModel, TemporalDetector
from .threshold import DEFAULT_QUANTILES, ThresholdBank, quantile_threshold

__all__ = [
    "Eigenmemory",
    "GaussianMixtureModel",
    "GmmParameters",
    "FigueiredoJainGmm",
    "kmeans",
    "kmeans_plus_plus_init",
    "KMeansResult",
    "MhmDetector",
    "ContextDetector",
    "cluster_contexts",
    "sort_rows",
    "EnsembleConfig",
    "ENSEMBLE_RULES",
    "allowed_false_positive_rate",
    "LocalFeatureDetector",
    "PatchExtractor",
    "PatchCodebook",
    "TemporalDetector",
    "ComponentTransitionModel",
    "ThresholdBank",
    "quantile_threshold",
    "DEFAULT_QUANTILES",
    "TrafficVolumeDetector",
    "HotCellSetDetector",
    "NearestNeighborDetector",
    "ConfusionCounts",
    "confusion_from_flags",
    "false_positive_rate",
    "true_positive_rate",
    "roc_curve",
    "auc",
    "roc_auc_from_scores",
    "detection_latency",
    "alarm_streaks",
]
