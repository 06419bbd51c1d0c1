import numpy as np
import pytest

from frechet_flow.spectral import FrequencyGrid


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


@pytest.fixture
def grid():
    """The default desk-scale grid: 1-D, balls up to 8, spacing 1/32."""
    return FrequencyGrid(1, 8, 32)


@pytest.fixture
def small_grid():
    return FrequencyGrid(1, 4, 8)
