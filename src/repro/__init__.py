"""repro — Memory Heat Map anomaly detection (DAC 2015 reproduction).

A complete, self-contained reproduction of *Memory Heat Map: Anomaly
Detection in Real-Time Embedded Systems Using Memory Behavior*
(Yoon, Mohan, Choi, Sha — DAC 2015), including:

* the MHM data structure and the Memometer/SecureCore hardware model;
* a discrete-event simulator of the monitored embedded platform
  (kernel, RM scheduler, MiBench-like periodic tasks);
* the eigenmemory (PCA) + GMM learning pipeline, written from scratch;
* the paper's three attack scenarios and the baseline detectors.

Quick start::

    from repro import Platform, PlatformConfig, MhmDetector

    platform = Platform(PlatformConfig(seed=7))
    training = platform.collect_intervals(300)
    detector = MhmDetector().fit(training)
    verdict = detector.is_anomalous(platform.collect_intervals(1)[0])
"""

from .core import HeatMapSeries, HeatMapSpec, MemoryHeatMap
from .sim import Platform, PlatformConfig, SyscallUse, TaskDefinition

__version__ = "1.0.0"

__all__ = [
    "HeatMapSpec",
    "MemoryHeatMap",
    "HeatMapSeries",
    "Platform",
    "PlatformConfig",
    "TaskDefinition",
    "SyscallUse",
    "MhmDetector",
    "__version__",
]


def __getattr__(name):
    # Lazy import: keeps `import repro` light and avoids a hard cycle
    # while still exposing the detector at the top level.
    if name == "MhmDetector":
        from .learn.detector import MhmDetector

        return MhmDetector
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
