import numpy as np
import pytest

from h2vie import build, kernel
from h2vie.linalg import CompressionParams

K0 = 2.0 * np.pi  # lambda0 = 1 m throughout the suite


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


@pytest.fixture(scope="session")
def rod164():
    """Rod with N = 164 (16.4 wavelengths at 10 voxels per wavelength)."""
    geom = kernel.generate_geometry("rod", [16.4], 10, K0)
    kp = kernel.KernelParams(k0=K0)
    h2 = build.build_h2(geom, kp, CompressionParams(1e-4, 1e-4), n_min=16)
    dense = kernel.assemble_dense(geom, kp)
    return geom, kp, h2, dense


@pytest.fixture(scope="session")
def cube2():
    """2 x 2 x 2 array of 0.3-wavelength cubes, N = 216."""
    geom = kernel.generate_geometry("cube_array", [2, 2, 2], 10, K0)
    kp = kernel.KernelParams(k0=K0)
    h2 = build.build_h2(geom, kp, CompressionParams(1e-4, 1e-4), n_min=32)
    dense = kernel.assemble_dense(geom, kp)
    return geom, kp, h2, dense


@pytest.fixture(scope="session")
def slab22():
    """2 x 2 wavelength slab, N = 400, with 16-voxel leaves."""
    geom = kernel.generate_geometry("slab", [2.0, 2.0], 10, K0)
    kp = kernel.KernelParams(k0=K0)
    h2 = build.build_h2(geom, kp, CompressionParams(1e-4, 1e-4), n_min=16)
    dense = kernel.assemble_dense(geom, kp)
    return geom, kp, h2, dense
