import numpy as np
import pytest

from fhn_spectral.model import ModelParams, build_eigenbasis
from fhn_spectral.noise import NoiseSpec


@pytest.fixture(scope="session")
def params():
    return ModelParams()


@pytest.fixture(scope="session")
def basis(params):
    return build_eigenbasis(params)


@pytest.fixture(scope="session")
def spec(params):
    return NoiseSpec.power_law(params.n_modes)


@pytest.fixture(scope="session")
def zero_spec(params):
    n = params.n_modes
    return NoiseSpec.from_tables(np.zeros(n), np.zeros(n))


@pytest.fixture()
def rng():
    return np.random.default_rng(424242)
