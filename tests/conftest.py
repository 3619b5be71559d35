import numpy as np
import pytest

from achronal.currents import CurrentSpec, build_fast
from achronal.grids import MomentumGrid
from achronal.kernels import CausalKernel, GFunction, TensorKernel
from achronal.wavepacket import make_packet

MASS = 1.0


@pytest.fixture(scope="session")
def grid16():
    return MomentumGrid(16, 3.0)


@pytest.fixture(scope="session")
def packet16(grid16):
    return make_packet(grid16, MASS, "mollified_gaussian",
                       sigma=1.0, core_radius=0.9, support_radius=1.8)


@pytest.fixture(scope="session")
def kern_basic():
    return CausalKernel(GFunction.basic(1.5, MASS), MASS)


@pytest.fixture(scope="session")
def kern_tensor():
    return TensorKernel(np.array([1.0, 0.0, 0.0, 0.0]), MASS)


@pytest.fixture(scope="session")
def spec16(kern_basic, packet16):
    return CurrentSpec(kern_basic, packet16)


@pytest.fixture(scope="session")
def tspec16(kern_tensor, packet16):
    return CurrentSpec(kern_tensor, packet16)


@pytest.fixture(scope="session")
def fast16(spec16):
    return build_fast(spec16, tol=1e-8, n_landmarks=480, seed=1)


@pytest.fixture(scope="session")
def fast16_loose(spec16):
    """fast16's factorization truncated at 1e-5 instead of 1e-8."""
    return build_fast(spec16, tol=1e-5, n_landmarks=480, seed=1)


@pytest.fixture(scope="session")
def tfast16(tspec16):
    return build_fast(tspec16)
