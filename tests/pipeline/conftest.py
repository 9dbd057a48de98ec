import pytest


@pytest.fixture(scope="session")
def quick_detector_path(quick_artifacts, tmp_path_factory):
    """The quick-scale detector saved for ``repro monitor``/``attack``."""
    path = tmp_path_factory.mktemp("detector") / "quick.npz"
    quick_artifacts.detector.save(path)
    return path
