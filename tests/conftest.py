import numpy as np
import pytest


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
