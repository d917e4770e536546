"""Scalar volume-integral-equation model on voxel lattices.

System matrix entries follow the discrete Lippmann-Schwinger form

    S[m, n] = delta_mn - k0^2 * chi_n * G[m, n]

with G[m, n] = V_n * exp(-1j*k0*r)/(4*pi*r) collocated at voxel centers for
m != n, and the diagonal regularized by integrating the kernel over the
equal-volume sphere. chi = eps_r - 1 is the material contrast. The entry
oracle is pure, so blocks can be sampled concurrently.

Blocks are assembled by one numpy kernel. `entry_oracle` binds it to a
geometry and material once (per-axis coordinates, contrast, coefficient
and diagonal coupling), and `assemble_block` goes through the same
closure. Every entry is computed elementwise, so its value does not depend
on the shape of the block it is sampled in: a block row equals its blocks
side by side, bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


def backend_name():
    """Name of the block-assembly implementation; there is one: numpy."""
    return "numpy"


class CoincidentCentersError(ValueError):
    """Two distinct voxels share a center: the kernel is singular there."""


class DenseCapExceeded(RuntimeError):
    pass


SHAPES = ("rod", "slab", "cube_array")


@dataclass
class KernelParams:
    """Wavenumber and per-voxel permittivity for the scalar VIE model."""

    k0: float
    eps_r: complex | np.ndarray = 2.54

    def __post_init__(self):
        if not np.isfinite(self.k0):
            raise ValueError(f"k0 must be finite, got {self.k0}")
        if self.k0 < 0:
            raise ValueError("k0 must be >= 0")
        eps = np.asarray(self.eps_r)
        bad = np.flatnonzero(~np.isfinite(eps))
        if bad.size:
            raise ValueError(f"eps_r must be finite; entry {bad[0]} is {eps.flat[bad[0]]}")
        if np.any(eps.imag > 1e-15):
            raise ValueError("passive media require Im(eps_r) <= 0")

    def chi(self, n_voxels):
        """Contrast eps_r - 1 broadcast to one value per voxel."""
        chi = np.asarray(self.eps_r, dtype=np.complex128) - 1.0
        if chi.ndim == 0:
            return np.full(n_voxels, chi, dtype=np.complex128)
        if chi.shape != (n_voxels,):
            raise ValueError("per-voxel eps_r has wrong length")
        return np.ascontiguousarray(chi)


@dataclass
class VoxelGeometry:
    """Uniform cubic-voxel discretization of one of the benchmark shapes."""

    centers: np.ndarray  # (N, 3), meters
    voxel_volume: float  # m^3, shared by all voxels
    shape_tag: str
    dims: tuple = ()

    def __post_init__(self):
        self.centers = np.ascontiguousarray(self.centers, dtype=np.float64)
        if self.centers.ndim != 2 or self.centers.shape[1] != 3:
            raise ValueError("centers must be (N, 3)")
        if self.voxel_volume <= 0:
            raise ValueError("voxel volume must be positive")
        if np.unique(self.centers, axis=0).shape[0] != self.centers.shape[0]:
            raise CoincidentCentersError("voxel centers must be pairwise distinct")

    @property
    def n(self):
        return self.centers.shape[0]


def lattice_centers(nx, ny, nz, h, origin=(0.0, 0.0, 0.0)):
    """Centers of an nx*ny*nz cubic-voxel lattice with edge h."""
    ox, oy, oz = origin
    xs = ox + (np.arange(nx) + 0.5) * h
    ys = oy + (np.arange(ny) + 0.5) * h
    zs = oz + (np.arange(nz) + 0.5) * h
    grid = np.stack(np.meshgrid(xs, ys, zs, indexing="ij"), axis=-1)
    return grid.reshape(-1, 3)


def generate_geometry(shape_tag, extent, voxels_per_wavelength, k0):
    """Voxelize one of the benchmark shapes.

    extent is interpreted per shape: rod -> (length,) in wavelengths with a
    fixed 0.1-wavelength square cross-section; slab -> (Lx, Ly) in
    wavelengths with fixed 0.1-wavelength thickness; cube_array -> (ax, ay,
    az) integer counts of 0.3-wavelength cubes separated by 0.3-wavelength
    gaps.
    """
    if shape_tag not in SHAPES:
        raise ValueError(f"unknown shape {shape_tag!r}; expected one of {SHAPES}")
    if k0 <= 0:
        raise ValueError("geometry generation needs k0 > 0")
    vpw = int(voxels_per_wavelength)
    if vpw < 8:
        raise ValueError("voxels_per_wavelength must be >= 8")
    extent = np.atleast_1d(np.asarray(extent, dtype=np.float64))
    if np.any(extent <= 0):
        raise ValueError("extents must be positive")
    lam = 2.0 * np.pi / k0
    h = lam / vpw

    if shape_tag == "rod":
        n_len = int(round(extent[0] * vpw))
        n_cross = max(1, int(round(vpw / 10.0)))
        if n_len < 1:
            raise ValueError("rod produced zero voxels")
        centers = lattice_centers(n_len, n_cross, n_cross, h)
        dims = (n_len, n_cross, n_cross)
    elif shape_tag == "slab":
        if extent.size < 2:
            raise ValueError("slab extent needs (Lx, Ly)")
        nx = int(round(extent[0] * vpw))
        ny = int(round(extent[1] * vpw))
        nz = max(1, int(round(vpw / 10.0)))
        if nx < 1 or ny < 1:
            raise ValueError("slab produced zero voxels")
        centers = lattice_centers(nx, ny, nz, h)
        dims = (nx, ny, nz)
    else:  # cube_array
        if extent.size < 3:
            raise ValueError("cube_array extent needs (ax, ay, az) cube counts")
        counts = extent.astype(int)
        if np.any(counts != extent):
            raise ValueError("cube_array counts must be integers")
        if np.any(counts < 1):
            raise ValueError("cube_array produced zero voxels")
        m = max(1, int(round(0.3 * vpw)))  # voxels per cube edge
        pitch = 2 * m  # cube plus equal-size gap, in voxels
        blocks = []
        for i in range(counts[0]):
            for j in range(counts[1]):
                for l in range(counts[2]):
                    origin = (i * pitch * h, j * pitch * h, l * pitch * h)
                    blocks.append(lattice_centers(m, m, m, h, origin))
        centers = np.concatenate(blocks, axis=0)
        dims = tuple(int(c) for c in counts) + (m,)

    return VoxelGeometry(centers, float(h**3), shape_tag, dims)


def self_term(volume, k0):
    """Kernel integral over the equal-volume sphere around a voxel center.

    Closed form (1/k0^2) * ((1 + 1j*k0*a) * exp(-1j*k0*a) - 1) with
    a = (3V / 4pi)^(1/3); the small-argument series avoids cancellation for
    k0*a < 1e-4 and covers k0 == 0.
    """
    if volume <= 0:
        raise ValueError("volume must be positive")
    a = (3.0 * volume / (4.0 * np.pi)) ** (1.0 / 3.0)
    x = k0 * a
    if x < 1e-4:
        return complex(0.5 * a * a, -k0 * a**3 / 3.0)
    return ((1.0 + 1j * x) * np.exp(-1j * x) - 1.0) / (k0 * k0)


def _diag_coupling(geom, params):
    # k0^2 * self-term; the diagonal entry is 1 - chi_n * this
    return params.k0**2 * self_term(geom.voxel_volume, params.k0)


def entry_oracle(geom, params):
    """(rows, cols) -> dense block sampler bound to one geometry/material.

    Everything that depends on the geometry and material only (coordinates
    per axis, contrast, k0^2 V / 4 pi, the diagonal coupling) is computed
    here once, so a call costs the block's arithmetic and little else.
    Raises CoincidentCentersError naming the first pair of distinct voxels
    that share a center.
    """
    xyz = np.ascontiguousarray(geom.centers.T)  # (3, N): one row per axis
    chi = params.chi(geom.n)
    k0 = float(params.k0)
    coef = k0 * k0 * float(geom.voxel_volume) / (4.0 * np.pi)
    diag = complex(_diag_coupling(geom, params))

    def oracle(rows, cols):
        rows = np.asarray(rows, dtype=np.intp)
        cols = np.asarray(cols, dtype=np.intp)
        r = np.subtract.outer(xyz[0, rows], xyz[0, cols])
        r *= r
        d = np.empty_like(r)
        for axis in (1, 2):
            np.subtract.outer(xyz[axis, rows], xyz[axis, cols], out=d)
            d *= d
            r += d
        np.sqrt(r, out=r)
        zero = r == 0.0
        hit = zero.any()
        if hit:
            bad = zero & (rows[:, None] != cols[None, :])
            if bad.any():
                i, j = divmod(int(np.flatnonzero(bad)[0]), cols.size)
                raise CoincidentCentersError(
                    f"voxels {rows[i]} and {cols[j]} share a center; kernel singular"
                )
            r[zero] = 1.0  # diagonal entries, overwritten below
        out = np.exp(r * (-1j * k0))
        np.divide(coef, r, out=r)
        out *= r
        chi_c = chi[cols]
        out *= -chi_c
        if hit:
            i, j = np.nonzero(zero)
            out[i, j] = 1.0 - chi_c[j] * diag
        return out

    return oracle


def assemble_block(geom, params, rows, cols):
    """Dense sub-block S[rows][:, cols], through a fresh entry_oracle."""
    return entry_oracle(geom, params)(rows, cols)


def matrix_entry(m, n, geom, params):
    """Single system-matrix entry S[m, n]."""
    return complex(
        assemble_block(geom, params, np.array([m]), np.array([n]))[0, 0]
    )


def assemble_dense(geom, params, cap=6000):
    """Full dense S for verification; refuses N beyond the dense cap."""
    if geom.n > cap:
        raise DenseCapExceeded(f"N = {geom.n} exceeds dense cap {cap}")
    idx = np.arange(geom.n)
    return assemble_block(geom, params, idx, idx)


def plane_wave_rhs(geom, k0, direction):
    """Plane-wave excitation exp(-1j * k0 * d.r) sampled at voxel centers."""
    d = np.asarray(direction, dtype=np.float64)
    if abs(np.linalg.norm(d) - 1.0) > 1e-12:
        raise ValueError("direction must be a unit vector")
    return np.exp(-1j * k0 * (geom.centers @ d))
