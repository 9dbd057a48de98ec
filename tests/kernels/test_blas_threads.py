"""BLAS thread counts: caps in forked pool children, and the one-thread
scope around every detector fit and fused fleet score."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro import kernels
from repro.kernels import blas_threads, vectorized
from repro.kernels.blas_threads import (
    _openblas_functions,
    _set_blas_threads,
    cap_blas_threads,
    capped_process_pool,
    one_blas_thread,
    worker_blas_threads,
)
from repro.learn.contexts import ContextDetector
from repro.learn.detector import MhmDetector

REPO_ROOT = Path(__file__).resolve().parents[2]


def loaded_blas_threads() -> dict:
    """Thread count of every loaded OpenBLAS, by library file name."""
    return {
        library: int(getter())
        for library, getter in _openblas_functions("get_num_threads").items()
    }


@pytest.fixture()
def two_threads():
    """Every loaded OpenBLAS at 2 threads for the test, so a scope's
    1 differs from the caller's count on any host; restored after."""
    before = loaded_blas_threads()
    if not before:
        pytest.skip("no OpenBLAS loaded in this process")
    _set_blas_threads(dict.fromkeys(before, 2))
    yield loaded_blas_threads()
    _set_blas_threads(before)


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


def test_fresh_process_resolves_scipy_library_too():
    """A process that has not imported scipy yet still resolves every
    OpenBLAS this one has loaded (numpy's and scipy's): the resolver
    maps scipy's before it reads the loaded libraries."""
    if not loaded_blas_threads():
        pytest.skip("no OpenBLAS loaded in this process")
    snippet = (
        "import sys\n"
        "from repro.kernels import blas_threads\n"
        "assert 'scipy' not in sys.modules\n"
        "print(sorted(blas_threads._openblas_functions('set_num_threads')))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
    result = subprocess.run(
        [sys.executable, "-c", snippet],
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
        check=True,
    )
    assert result.stdout.strip() == str(sorted(loaded_blas_threads()))


def test_pool_children_are_capped_and_parent_is_not():
    """The pool the shard service and the experiment runner use: every
    loaded OpenBLAS (numpy's and scipy's) is capped in each child."""
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


# ----------------------------------------------------------------------
# one_blas_thread
# ----------------------------------------------------------------------
class TestOneBlasThread:
    def test_every_library_reads_one_inside(self, two_threads):
        with one_blas_thread():
            inside = loaded_blas_threads()
        assert inside == dict.fromkeys(two_threads, 1)
        assert loaded_blas_threads() == two_threads

    def test_restored_after_an_exception(self, two_threads):
        with pytest.raises(RuntimeError, match="boom"):
            with one_blas_thread():
                raise RuntimeError("boom")
        assert loaded_blas_threads() == two_threads

    def test_nested_scopes_restore_the_outer_count(self, two_threads):
        with one_blas_thread():
            with one_blas_thread():
                assert set(loaded_blas_threads().values()) == {1}
            assert set(loaded_blas_threads().values()) == {1}
        assert loaded_blas_threads() == two_threads

    def test_without_openblas_is_a_no_op(self, monkeypatch):
        monkeypatch.setattr(blas_threads, "_openblas_functions", lambda name: {})
        with one_blas_thread():
            ran = True
        assert ran


def _scope_in_child() -> tuple:
    with one_blas_thread():
        inside = loaded_blas_threads()
    return inside, loaded_blas_threads()


def test_pool_child_cap_survives_a_scope(monkeypatch):
    """A child capped at cores // workers threads runs a fit at 1 and
    is back at its cap afterwards."""
    if not loaded_blas_threads():
        pytest.skip("no OpenBLAS loaded in this process")
    monkeypatch.setattr(blas_threads, "_cores", lambda: 4)
    with capped_process_pool(2) as pool:
        inside, after = pool.submit(_scope_in_child).result()
    assert set(inside.values()) == {1}
    assert set(after.values()) == {2}


# ----------------------------------------------------------------------
# The call sites: both detector fits and the fused fleet score
# ----------------------------------------------------------------------
def _probe(monkeypatch, name: str) -> list:
    """Record ``loaded_blas_threads()`` on every call of the
    vectorized backend's ``name``."""
    seen = []
    original = getattr(vectorized, name)

    def probe(*args, **kwargs):
        seen.append(loaded_blas_threads())
        return original(*args, **kwargs)

    monkeypatch.setattr(vectorized, name, probe)
    return seen


def _assert_arrays_equal(left: dict, right: dict) -> None:
    assert left.keys() == right.keys()
    for name in left:
        np.testing.assert_array_equal(left[name], right[name], strict=True)


@pytest.fixture(scope="module")
def data(quick_artifacts):
    return quick_artifacts.data


def _fit_mhm(fit, data) -> MhmDetector:
    detector = MhmDetector(num_gaussians=3, em_restarts=2, seed=0)
    return fit(detector, data.training, data.validation)


def _fit_contexts(fit, data) -> ContextDetector:
    detector = ContextDetector(num_contexts=6, seed=0)
    return fit(detector, data.training_syscalls, data.validation_syscalls)


class TestCallSites:
    """Each probe wraps a vectorized-backend primitive, so every call
    site runs on that backend."""

    @pytest.fixture(autouse=True)
    def _vectorized(self):
        with kernels.use_backend("vectorized"):
            yield

    def test_mhm_fit_runs_at_one_thread(self, monkeypatch, two_threads, data):
        seen = _probe(monkeypatch, "project_batch")
        _fit_mhm(MhmDetector.fit, data)
        assert seen and all(set(s.values()) == {1} for s in seen)
        assert loaded_blas_threads() == two_threads

    def test_context_fit_runs_at_one_thread(self, monkeypatch, two_threads, data):
        seen = _probe(monkeypatch, "nearest_context_batch")
        _fit_contexts(ContextDetector.fit, data)
        assert seen and all(set(s.values()) == {1} for s in seen)
        assert loaded_blas_threads() == two_threads

    def test_fleet_score_runs_at_one_thread(
        self, monkeypatch, two_threads, quick_artifacts, data
    ):
        seen = _probe(monkeypatch, "project_batch")
        scorer = kernels.FleetScorer.from_detectors(quick_artifacts.detector)
        scorer.score(data.validation.matrix()[:40], pad_to=32)
        assert len(seen) == 2 and all(set(s.values()) == {1} for s in seen)
        assert loaded_blas_threads() == two_threads


class TestOneThreadIsBitIdentical:
    """The scope changes no bit: each call equals the same call made
    at the caller's thread count (``__wrapped__`` skips the scope)."""

    def test_mhm_fit(self, two_threads, data):
        scoped = _fit_mhm(MhmDetector.fit, data)
        unscoped = _fit_mhm(MhmDetector.fit.__wrapped__, data)
        _assert_arrays_equal(scoped.to_arrays(), unscoped.to_arrays())

    def test_context_fit(self, two_threads, data):
        scoped = _fit_contexts(ContextDetector.fit, data)
        unscoped = _fit_contexts(ContextDetector.fit.__wrapped__, data)
        _assert_arrays_equal(scoped.to_arrays(), unscoped.to_arrays())

    @pytest.mark.parametrize("pad_to", [None, 32])
    def test_fused_score(self, two_threads, quick_artifacts, data, pad_to):
        scorer = kernels.FleetScorer.from_detectors(
            quick_artifacts.detector, quick_artifacts.context_detector
        )
        matrix = data.validation.matrix()
        syscalls = data.validation_syscalls
        args = (
            matrix,
            scorer.pca_mean,
            scorer.pca_components,
            scorer.gmm_weights,
            scorer.gmm_means,
            scorer.gmm_cholesky_factors,
        )
        kwargs = dict(
            pad_to=pad_to,
            syscalls=syscalls,
            centers=scorer.context_centers,
            scales=scorer.context_scales,
            phase_means=scorer.context_phase_means,
            phases=np.arange(len(syscalls)) % scorer.context_hyperperiod,
        )
        scoped = kernels.fleet_score_batch(*args, **kwargs)
        unscoped = kernels.fleet_score_batch.__wrapped__(*args, **kwargs)
        for field in ("log_densities", "context_scores", "context_residuals"):
            np.testing.assert_array_equal(
                getattr(scoped, field), getattr(unscoped, field), strict=True
            )
