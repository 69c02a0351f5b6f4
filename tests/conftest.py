import os

# one BLAS thread, set before numpy loads: on small hosts OpenBLAS's thread
# pool makes the first dense solves of a process 100-300 times slower
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import pytest

from tubegap.types import DuctGeometry, GapProperties, MediumProperties


@pytest.fixture(scope="session")
def medium():
    return MediumProperties(rho0=1.21, c0=343.0)


@pytest.fixture(scope="session")
def sample1_geometry():
    return DuctGeometry(r1=0.040, r2=0.070, t=0.0052)


@pytest.fixture(scope="session")
def sample2_geometry():
    return DuctGeometry(r1=0.051, r2=0.070, t=0.008)


@pytest.fixture(scope="session")
def sample1_z2(sample1_geometry, medium):
    return GapProperties.from_geometry(sample1_geometry, medium).z2.real
