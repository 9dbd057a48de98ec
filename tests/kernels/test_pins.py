"""Bit pins for the derived kernels on the vectorized backend.

``log_density_batch``, ``responsibilities_batch`` and
``context_scores`` feed EM, threshold calibration and every served
score, so the production path must keep their results bit for bit.
Each case hashes the float64 output (sha256, first 16 hex digits) on a
fixed seed.  A change to how these kernels are composed must leave
every digest as it is.
"""

import hashlib

import numpy as np
import pytest

from repro import kernels


def digest(*arrays) -> str:
    sha = hashlib.sha256()
    for array in arrays:
        sha.update(np.ascontiguousarray(array, dtype="<f8").tobytes())
    return sha.hexdigest()[:16]


def gmm_case(seed, n=50, dim=5, num_components=4, collapsed=False):
    rng = np.random.default_rng(seed)
    means = rng.standard_normal((num_components, dim)) * 3.0
    factors = rng.standard_normal((num_components, dim, dim)) * 0.4
    covariances = factors @ factors.transpose(0, 2, 1) + 0.5 * np.eye(dim)
    chols = np.linalg.cholesky(covariances)
    weights = rng.dirichlet(np.ones(num_components))
    if collapsed:
        weights[1] = 0.0
        weights /= weights.sum()
    data = rng.standard_normal((n, dim)) * 3.0
    return data, weights, means, chols


def context_case(seed, n=60, dim=6, num_contexts=5):
    """Two zero-scale contexts, and a third of the rows on a center."""
    rng = np.random.default_rng(seed)
    centers = rng.random((num_contexts, dim)) * 30.0
    scales = rng.random(num_contexts) * 2.0 + 0.25
    scales[:2] = 0.0
    data = rng.integers(0, 40, size=(n, dim)).astype(np.float64)
    on_center = np.arange(n) % 3 == 0
    data[on_center] = centers[np.arange(on_center.sum()) % num_contexts]
    return data, centers, scales


#: (seed, collapsed component) -> log_density_batch digest.
LOG_DENSITY_PINS = {
    (0, False): "f9c1b99d829fcbbe",
    (1, False): "16b47a71749ad6c1",
    (2, True): "2e017dc1df76d000",
}

#: (seed, collapsed component) -> (log_norm, responsibilities) digest.
RESPONSIBILITY_PINS = {
    (0, False): "4350154bf8a23833",
    (1, False): "788d472ac1a23115",
    (2, True): "3648b888aefe1d86",
}

#: seed -> context_scores digest.
CONTEXT_PINS = {
    0: "4ce38632573d8959",
    1: "2c1e215eebb34172",
}


@pytest.fixture(autouse=True)
def vectorized_backend():
    with kernels.use_backend("vectorized"):
        yield


class TestVectorizedPins:
    @pytest.mark.parametrize("case", sorted(LOG_DENSITY_PINS))
    def test_log_density_batch(self, case):
        seed, collapsed = case
        out = kernels.log_density_batch(*gmm_case(seed, collapsed=collapsed))
        assert digest(out) == LOG_DENSITY_PINS[case]

    @pytest.mark.parametrize("case", sorted(RESPONSIBILITY_PINS))
    def test_responsibilities_batch(self, case):
        seed, collapsed = case
        log_norm, responsibilities = kernels.responsibilities_batch(
            *gmm_case(seed, collapsed=collapsed)
        )
        assert digest(log_norm, responsibilities) == RESPONSIBILITY_PINS[case]

    @pytest.mark.parametrize("seed", sorted(CONTEXT_PINS))
    def test_context_scores(self, seed):
        data, centers, scales = context_case(seed)
        scores = kernels.context_scores(data, centers, scales)
        # The case reaches both arms of the zero-scale rule.
        assert (scores == 0.0).any() and np.isinf(scores).any()
        assert digest(scores) == CONTEXT_PINS[seed]
