import numpy as np
import pytest

from achronal.currents import CurrentSpec, SupportData, build_fast
from achronal.grids import MomentumGrid
from achronal.kernels import CausalKernel, GFunction, TensorKernel, scalar_block
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


def _factorize(spec, tol, seed=0):
    """The whole support's factorization truncated at `tol`: every support
    node a landmark, and `rank` the number of g-matrix eigenvalues above
    `tol` of the top, the pairs that a build at `tol` keeps.  A build given
    `rank` never keeps the exact G."""
    sup = SupportData.from_packets([spec.packet])
    lam = np.abs(np.linalg.eigvalsh(scalar_block(spec.kernel, sup.points, sup.eps,
                                                 sup.points, sup.eps)))
    rank = int(np.count_nonzero(lam > tol * lam.max()))
    return build_fast(spec, rank=rank, n_landmarks=len(sup.eps), seed=seed)


@pytest.fixture(scope="session")
def factorize():
    """_factorize(spec, tol, seed=0), for builds inside a test."""
    return _factorize


@pytest.fixture(scope="session")
def fast16(spec16):
    """The CLI test config's build: the 480-node support is its own landmark
    set, so the backend keeps the exact G."""
    return build_fast(spec16, tol=1e-8, n_landmarks=480, seed=1)


@pytest.fixture(scope="session")
def fast16_factorized(spec16):
    """fast16's support factorized at its tolerance, 1e-8."""
    return _factorize(spec16, 1e-8, seed=1)


@pytest.fixture(scope="session")
def fast16_loose(spec16):
    """fast16_factorized truncated at 1e-5 instead of 1e-8."""
    return _factorize(spec16, 1e-5, seed=1)


@pytest.fixture(scope="session")
def tfast16(tspec16):
    return build_fast(tspec16)
