"""BLAS thread caps for worker processes.

A forked worker inherits its parent's OpenBLAS thread pool size, by
default one thread per core.  With ``W`` workers on ``C`` cores that is
``W * C`` busy BLAS threads, and on a small host they slow each other
down far more than the extra threads help (two shards on two cores ran
slower than one).  :func:`cap_blas_threads` gives each worker ``C // W``
threads, at least 1.  :func:`capped_process_pool` builds a process pool
that runs it in every child right after the fork and never in the
parent; the shard pool and the experiment runner's pools use it.

OpenBLAS is reached through its ``*openblas_set_num_threads*`` symbol
with :mod:`ctypes`, in every OpenBLAS library the process has loaded:
numpy and scipy wheels each bundle their own, under prefixed names, and
scipy's triangular solves in the scorer run on scipy's.  Without a
loaded OpenBLAS the cap does nothing.
"""

from __future__ import annotations

import ctypes
import os
from concurrent.futures import ProcessPoolExecutor
from typing import Optional

__all__ = [
    "worker_blas_threads",
    "cap_blas_threads",
    "capped_process_pool",
]

#: Prefixes of the setter/getter symbols, most specific first: numpy's
#: bundled ``scipy_openblas`` (64-bit interface, suffixed ``64_``), then
#: a system OpenBLAS.
_PREFIXES = ("scipy_openblas_", "openblas_")
_SUFFIXES = ("64_", "")


def _cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except (AttributeError, OSError):  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def worker_blas_threads(workers: int) -> int:
    """BLAS threads per worker: usable cores // ``workers``, at least 1."""
    if workers < 1:
        raise ValueError("workers must be >= 1")
    return max(1, _cores() // workers)


def _openblas_functions(name: str) -> dict:
    """``<prefix>openblas_<name><suffix>`` of every loaded OpenBLAS, by
    library file name (numpy and scipy wheels each bundle their own)."""
    try:
        with open("/proc/self/maps") as maps:
            paths = {
                line.split()[-1]
                for line in maps
                if "openblas" in line.rsplit("/", 1)[-1]
            }
    except OSError:  # pragma: no cover - no procfs
        return {}
    functions = {}
    for path in sorted(paths):
        try:
            library = ctypes.CDLL(path)
        except OSError:  # pragma: no cover - unreadable mapping
            continue
        for symbol in (f"{p}{name}{s}" for p in _PREFIXES for s in _SUFFIXES):
            function = getattr(library, symbol, None)
            if function is not None:
                functions[os.path.basename(path)] = function
                break
    return functions


def cap_blas_threads(workers: int) -> Optional[int]:
    """Set every loaded OpenBLAS to :func:`worker_blas_threads` threads.

    A process pool's ``initializer`` (see :func:`capped_process_pool`);
    an OpenBLAS first loaded after it runs keeps its default.  Returns
    the thread count set, or None when no OpenBLAS is loaded.
    """
    threads = worker_blas_threads(workers)
    setters = _openblas_functions("set_num_threads")
    for setter in setters.values():
        setter.argtypes = [ctypes.c_int]
        setter.restype = None
        setter(threads)
    return threads if setters else None


def capped_process_pool(workers: int) -> ProcessPoolExecutor:
    """A ``workers``-process pool whose children each run with
    :func:`worker_blas_threads` BLAS threads."""
    return ProcessPoolExecutor(
        max_workers=workers, initializer=cap_blas_threads, initargs=(workers,)
    )
