"""Backend selection: env vars, overrides, scoping."""

import numpy as np
import pytest

from repro import kernels


@pytest.fixture(autouse=True)
def _clean_backend(monkeypatch):
    """Every test starts with no override and no env var, and leaks neither."""
    monkeypatch.delenv(kernels.ENV_VAR, raising=False)
    monkeypatch.setattr(kernels, "_override", None)
    yield


class TestSelection:
    def test_default_is_vectorized(self):
        assert kernels.DEFAULT_BACKEND == "vectorized"
        assert kernels.active_backend() == "vectorized"

    def test_env_var_selects_reference(self, monkeypatch):
        monkeypatch.setenv(kernels.ENV_VAR, "reference")
        assert kernels.active_backend() == "reference"

    def test_env_var_is_normalised(self, monkeypatch):
        monkeypatch.setenv(kernels.ENV_VAR, "  Reference ")
        assert kernels.active_backend() == "reference"

    def test_empty_env_var_falls_back_to_default(self, monkeypatch):
        monkeypatch.setenv(kernels.ENV_VAR, "")
        assert kernels.active_backend() == kernels.DEFAULT_BACKEND

    def test_invalid_env_var_raises(self, monkeypatch):
        monkeypatch.setenv(kernels.ENV_VAR, "simd")
        with pytest.raises(kernels.KernelBackendError, match="simd"):
            kernels.active_backend()

    def test_set_backend_beats_env(self, monkeypatch):
        monkeypatch.setenv(kernels.ENV_VAR, "vectorized")
        kernels.set_backend("reference")
        assert kernels.active_backend() == "reference"
        kernels.set_backend(None)
        assert kernels.active_backend() == "vectorized"

    def test_set_backend_rejects_unknown(self):
        with pytest.raises(kernels.KernelBackendError):
            kernels.set_backend("turbo")

    def test_use_backend_restores_on_exit(self):
        assert kernels.active_backend() == "vectorized"
        with kernels.use_backend("reference"):
            assert kernels.active_backend() == "reference"
            with kernels.use_backend("vectorized"):
                assert kernels.active_backend() == "vectorized"
            assert kernels.active_backend() == "reference"
        assert kernels.active_backend() == "vectorized"

    def test_use_backend_restores_on_error(self):
        with pytest.raises(RuntimeError):
            with kernels.use_backend("reference"):
                raise RuntimeError("boom")
        assert kernels.active_backend() == "vectorized"

    def test_backend_module_resolution(self):
        from repro.kernels import reference, vectorized

        assert kernels.backend_module("reference") is reference
        assert kernels.backend_module("vectorized") is vectorized
        with kernels.use_backend("reference"):
            assert kernels.backend_module() is reference


class TestDispatch:
    def test_dispatch_follows_switch(self):
        """The same facade call hits whichever backend is active."""
        values = np.array([[0.0, -1.0]])
        with kernels.use_backend("reference"):
            ref = kernels.logsumexp(values, axis=1)
        with kernels.use_backend("vectorized"):
            vec = kernels.logsumexp(values, axis=1)
        np.testing.assert_allclose(ref, vec, rtol=1e-12)

    def test_safe_log_weights_shared_helper(self):
        out = kernels.safe_log_weights(np.array([0.5, 0.0, 0.5]))
        assert out[1] == -np.inf
        np.testing.assert_allclose(out[[0, 2]], np.log(0.5))
