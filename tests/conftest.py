import numpy as np
import pytest
from hypothesis import settings

from anyonpt import Grid, PoschlTeller

# CI runs with --hypothesis-profile=ci, so a failing example replays from the log.
settings.register_profile("ci", derandomize=True, deadline=None)


@pytest.fixture
def sym_grid():
    return Grid(-30.0, 30.0, 600)


@pytest.fixture
def fine_grid():
    return Grid(-25.0, 25.0, 1250)


@pytest.fixture
def pt_well():
    return PoschlTeller(nu=1.0, delta=0.2)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
