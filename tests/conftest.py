import numpy as np
import pytest
from hypothesis import settings

from unipulse import PulseParams, Waveform

# `pytest --hypothesis-profile=ci` draws the same examples on every run,
# so a failure in CI reruns to the same draw
settings.register_profile("ci", derandomize=True)


@pytest.fixture
def params():
    """Simplest regular family: c = tau = 1, zeta = 0, so b = 1."""
    return PulseParams(1.0, 1.0, 0.0)


@pytest.fixture
def rational(params):
    """Waveform reproducing the basic closed-form pulse (a = b - zeta)."""
    return Waveform(params.b - params.zeta)


@pytest.fixture
def rng():
    return np.random.default_rng(20260808)
