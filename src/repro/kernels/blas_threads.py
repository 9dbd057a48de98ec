"""BLAS thread counts for pool children and for fits and fused scores.

A forked worker inherits its parent's OpenBLAS thread pool size, by
default one thread per core.  With ``W`` workers on ``C`` cores that is
``W * C`` busy BLAS threads, and on a small host they slow each other
down far more than the extra threads help (two shards on two cores ran
slower than one).  :func:`cap_blas_threads` gives each worker ``C // W``
threads, at least 1.  :func:`capped_process_pool` builds a process pool
that runs it in every child right after the fork and never in the
parent; the shard pool and the experiment runner's pools use it.

Detector fits and fused fleet scores always run at one thread, in any
process, inside :func:`one_blas_thread`.  Their matrices are small (at
most a few thousand rows × 1,472 cells to fit, a padded 32-row batch
to score), and at that size waking and joining extra BLAS threads
costs more than the threads save: on a 2-vCPU host the eigenmemory
fit took 0.21 s at two threads and 0.10 s at one, and the GMM fit
0.23 s and 0.11 s.  The scope restores the caller's count on exit, so
code outside it keeps whatever the process had.

OpenBLAS is reached through its ``*openblas_{set,get}_num_threads*``
symbols with :mod:`ctypes`, in every OpenBLAS library the process has
loaded: numpy and scipy wheels each bundle their own, under prefixed
names, and scipy's triangular solves in the scorer run on scipy's.
The symbols are resolved once per process, after importing
:mod:`scipy.linalg` so that scipy's library is mapped; forked children
inherit them.  Without a loaded OpenBLAS both controls do nothing.
"""

from __future__ import annotations

import ctypes
import functools
import os
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from typing import Optional

__all__ = [
    "worker_blas_threads",
    "cap_blas_threads",
    "capped_process_pool",
    "one_blas_thread",
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


@functools.cache
def _openblas_functions(name: str) -> dict:
    """``<prefix>openblas_<name><suffix>`` of every loaded OpenBLAS, by
    library file name (numpy and scipy wheels each bundle their own)."""
    import scipy.linalg  # noqa: F401  (maps scipy's own OpenBLAS)

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


def _set_blas_threads(counts: dict) -> None:
    """Set each named OpenBLAS library to its thread count."""
    setters = _openblas_functions("set_num_threads")
    for library, threads in counts.items():
        setters[library](threads)


def cap_blas_threads(workers: int) -> Optional[int]:
    """Set every loaded OpenBLAS to :func:`worker_blas_threads` threads.

    A process pool's ``initializer`` (see :func:`capped_process_pool`);
    an OpenBLAS first loaded after the symbols were resolved keeps its
    default.  Returns the thread count set, or None when no OpenBLAS is
    loaded.
    """
    threads = worker_blas_threads(workers)
    setters = _openblas_functions("set_num_threads")
    for setter in setters.values():
        setter(threads)
    return threads if setters else None


def capped_process_pool(workers: int) -> ProcessPoolExecutor:
    """A ``workers``-process pool whose children each run with
    :func:`worker_blas_threads` BLAS threads."""
    return ProcessPoolExecutor(
        max_workers=workers, initializer=cap_blas_threads, initargs=(workers,)
    )


@contextmanager
def one_blas_thread():
    """Run the body with every loaded OpenBLAS at one thread.

    Restores each library's previous count on exit, also when the body
    raises; scopes nest.  Also a decorator: ``@one_blas_thread()``.
    """
    getters = _openblas_functions("get_num_threads")
    saved = {library: int(getter()) for library, getter in getters.items()}
    _set_blas_threads(dict.fromkeys(saved, 1))
    try:
        yield
    finally:
        _set_blas_threads(saved)
