import numpy as np
import pytest
from hypothesis import settings

from eitsim import presets

# Property tests draw the same examples on every run, so a failure is
# reproducible and the suite's time does not vary from run to run.
settings.register_profile("deterministic", derandomize=True, deadline=None, max_examples=25)
settings.load_profile("deterministic")


@pytest.fixture
def lambda_spec():
    """Reference three-level Lambda system."""
    return presets.three_level_lambda()


@pytest.fixture
def rng():
    return np.random.default_rng(20260823)
