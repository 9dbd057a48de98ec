"""Hardware substrate: Memometer, caches and the secure core."""

from .cache import L1_CONFIG, L2_CONFIG, CacheConfig, CacheFilter, SetAssociativeCache
from .memometer import (
    COUNTER_MAX,
    MAX_CELLS,
    MHM_MEMORY_BYTES,
    ControlRegisters,
    Memometer,
    MemometerConfigError,
)
from .securecore import AnalysisTimingModel, SecureCore

__all__ = [
    "Memometer",
    "ControlRegisters",
    "MemometerConfigError",
    "MHM_MEMORY_BYTES",
    "MAX_CELLS",
    "COUNTER_MAX",
    "CacheConfig",
    "SetAssociativeCache",
    "CacheFilter",
    "L1_CONFIG",
    "L2_CONFIG",
    "SecureCore",
    "AnalysisTimingModel",
]
