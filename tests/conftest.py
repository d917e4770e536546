import numpy as np
import pytest

from h2vie import build, kernel
from h2vie.linalg import CompressionParams

K0 = 2.0 * np.pi  # lambda0 = 1 m throughout the suite

# An eps_acc >= 1e-4 operator stores its couplings and near field in
# complex64, so its apply rounds in single precision: the applies of the
# same payloads in complex64 and in complex128 were measured to differ by
# 1.8-2.5e-7, and this bound is at least 4x that.
SINGLE_APPLY_RTOL = 1e-6


def apply_rtol(h2, double):
    """Relative bound of an identity of h2's apply.

    `double` is the identity's bound with complex128 payloads, where the
    apply runs in double throughout; complex64 payloads take
    SINGLE_APPLY_RTOL.
    """
    return double if h2.params.payload_dtype == np.complex128 else SINGLE_APPLY_RTOL


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
