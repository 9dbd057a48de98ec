"""BLAS thread caps in forked pool children."""

import ctypes

import pytest

from repro.kernels import blas_threads
from repro.kernels.blas_threads import (
    _openblas_functions,
    cap_blas_threads,
    capped_process_pool,
    worker_blas_threads,
)


def loaded_blas_threads() -> dict:
    """Thread count of every loaded OpenBLAS, by library file name."""
    counts = {}
    for library, getter in _openblas_functions("get_num_threads").items():
        getter.argtypes = []
        getter.restype = ctypes.c_int
        counts[library] = int(getter())
    return counts


@pytest.mark.parametrize(
    "cores, workers, threads",
    [(2, 1, 2), (2, 2, 1), (2, 4, 1), (8, 3, 2), (1, 1, 1)],
)
def test_cores_divided_among_workers(monkeypatch, cores, workers, threads):
    monkeypatch.setattr(blas_threads, "_cores", lambda: cores)
    assert worker_blas_threads(workers) == threads


def test_workers_must_be_positive():
    with pytest.raises(ValueError):
        worker_blas_threads(0)


def test_pool_children_are_capped_and_parent_is_not():
    """The pool the shard service and the experiment runner use: every
    loaded OpenBLAS (numpy's and scipy's) is capped in each child."""
    import scipy.linalg  # noqa: F401  (loads scipy's own OpenBLAS)

    before = loaded_blas_threads()
    if not before:
        pytest.skip("no OpenBLAS loaded in this process")
    with capped_process_pool(2) as pool:
        children = [pool.submit(loaded_blas_threads).result() for _ in range(4)]
    for child in children:
        assert child.keys() == before.keys()
        assert set(child.values()) == {worker_blas_threads(2)}
    assert loaded_blas_threads() == before


def test_cap_without_openblas_does_nothing(monkeypatch):
    monkeypatch.setattr(blas_threads, "_openblas_functions", lambda name: {})
    assert cap_blas_threads(2) is None
