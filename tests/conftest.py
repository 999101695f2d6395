import numpy as np
import pytest

from catalog import builtin_environments, builtin_laws


@pytest.fixture(scope="session")
def env_map():
    return builtin_environments()


@pytest.fixture(scope="session")
def law_map():
    return builtin_laws()


@pytest.fixture
def rng():
    return np.random.default_rng(20260810)
