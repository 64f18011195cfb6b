import numpy as np
import pytest
import scipy.special  # noqa: F401  (loads scipy's own OpenBLAS before the pin below)

from avwiretap.cli import _one_blas_thread


@pytest.fixture(scope="session", autouse=True)
def one_blas_thread():
    """Run the whole session with every loaded OpenBLAS on one thread, as
    ``cli.main`` runs a command: library calls made from the tests then
    use the BLAS a command uses, and the wall-clock gates do not depend on
    a second BLAS thread finding a free core."""
    with _one_blas_thread():
        yield


class ZeroNoise:
    """rng stand-in whose Gaussian draws are all zero; its integer draws
    (message and within-bin labels) come from a seeded generator."""

    def __init__(self):
        self._labels = np.random.default_rng(0)

    def standard_normal(self, size=None):
        return np.zeros(size if size is not None else ())

    def integers(self, *args, **kwargs):
        return self._labels.integers(*args, **kwargs)


@pytest.fixture
def zero_noise():
    return ZeroNoise()


@pytest.fixture
def rng():
    return np.random.default_rng(20260808)
