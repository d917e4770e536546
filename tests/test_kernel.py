import tracemalloc

import numpy as np
import pytest
import scipy.integrate

from h2vie import kernel

K0 = 2.0 * np.pi


class TestGeometry:
    def test_rod_voxel_count(self):
        geom = kernel.generate_geometry("rod", [1.0], 10, K0)
        assert geom.n == 10
        assert geom.dims == (10, 1, 1)

    def test_cube_array_voxel_count(self):
        geom = kernel.generate_geometry("cube_array", [2, 2, 2], 10, K0)
        assert geom.n == 8 * 27

    def test_slab_voxel_count(self):
        geom = kernel.generate_geometry("slab", [2.0, 2.0], 10, K0)
        assert geom.n == 20 * 20 * 1

    def test_cube_array_spacing_equals_edge(self):
        geom = kernel.generate_geometry("cube_array", [2, 1, 1], 10, K0)
        xs = np.unique(geom.centers[:, 0])
        # second cube starts one cube edge (0.3 lambda) past the first one
        gap = xs[3] - xs[2]  # between-cube step
        within = xs[1] - xs[0]
        assert gap / within == pytest.approx(4.0)

    def test_cube_counts_must_be_integers(self):
        with pytest.raises(ValueError, match="integers"):
            kernel.generate_geometry("cube_array", [2.5, 1, 1], 10, K0)
        geom = kernel.generate_geometry("cube_array", [2.0, 1.0, 1.0], 10, K0)
        assert geom.n == 2 * 27
        assert geom.dims == (2, 1, 1, 3)

    def test_zero_voxels_rejected(self):
        with pytest.raises(ValueError):
            kernel.generate_geometry("rod", [0.01], 10, K0)

    @pytest.mark.parametrize("shape, extent, message", [
        ("rod", [], "extents must be non-empty and finite"),
        ("rod", [np.inf], "extents must be non-empty and finite"),
        ("rod", [np.nan], "extents must be non-empty and finite"),
        ("rod", [2, 5], r"rod needs an extent of length 1, got \[2.0, 5.0\]"),
        ("slab", [1, 1, 7], r"slab needs an extent of length 2, got \[1.0, 1.0, 7.0\]"),
        ("slab", [2], r"slab needs an extent of length 2, got \[2.0\]"),
        ("cube_array", [1, 1, 1, 9], "cube_array needs an extent of length 3"),
        ("cube_array", [1, 1], "cube_array needs an extent of length 3"),
    ], ids=["empty", "inf", "nan", "rod-2", "slab-3", "slab-1", "cube-4", "cube-2"])
    def test_malformed_extent_rejected(self, shape, extent, message):
        with pytest.raises(ValueError, match=message):
            kernel.generate_geometry(shape, extent, 10, K0)

    def test_coarse_discretization_rejected(self):
        with pytest.raises(ValueError):
            kernel.generate_geometry("rod", [1.0], 6, K0)

    def test_unknown_shape_rejected(self):
        with pytest.raises(ValueError):
            kernel.generate_geometry("sphere", [1.0], 10, K0)

    def test_coincident_centers_rejected(self):
        with pytest.raises(kernel.CoincidentCentersError):
            kernel.VoxelGeometry(np.zeros((2, 3)), 1.0, "rod")


class TestMatrixEntry:
    def test_k0_zero_gives_identity(self):
        geom = kernel.generate_geometry("rod", [1.0], 10, K0)
        params = kernel.KernelParams(k0=0.0, eps_r=2.54)
        s = kernel.assemble_dense(geom, params)
        assert np.array_equal(s, np.eye(geom.n))

    def test_zero_contrast_gives_identity(self):
        geom = kernel.generate_geometry("rod", [1.0], 10, K0)
        params = kernel.KernelParams(k0=K0, eps_r=1.0)
        assert np.array_equal(kernel.assemble_dense(geom, params), np.eye(geom.n))

    def test_closed_form_entry(self):
        # k0 = pi, r = 1, chi = 1.54, V = 1e-3:
        # -pi^2 * 1.54e-3 * e^{-j pi} / (4 pi) = +pi * 1.54e-3 / 4
        geom = kernel.VoxelGeometry(
            np.array([[0.0, 0, 0], [1.0, 0, 0]]), 1e-3, "rod"
        )
        params = kernel.KernelParams(k0=np.pi, eps_r=2.54)
        entry = kernel.matrix_entry(0, 1, geom, params)
        expected = np.pi * 1.54e-3 / 4.0
        assert entry == pytest.approx(expected + 0j, rel=1e-12)
        assert entry.real == pytest.approx(1.2095e-3, rel=1e-4)
        assert abs(entry.imag) <= 1e-15

    def test_passive_media_enforced(self):
        with pytest.raises(ValueError):
            kernel.KernelParams(k0=K0, eps_r=2.0 + 0.5j)

    @pytest.mark.parametrize("k0", [np.nan, np.inf])
    def test_non_finite_k0_rejected(self, k0):
        with pytest.raises(ValueError, match="k0 must be finite"):
            kernel.KernelParams(k0=k0, eps_r=2.54)

    @pytest.mark.parametrize("eps_r", [np.nan, complex(2.54, np.nan), [2.54, np.inf]])
    def test_non_finite_eps_r_rejected(self, eps_r):
        with pytest.raises(ValueError, match="eps_r must be finite"):
            kernel.KernelParams(k0=K0, eps_r=eps_r)


class TestSelfTerm:
    def test_static_limit_is_half_a_squared(self):
        vol = 4.0 * np.pi / 3.0  # unit sphere -> a = 1
        v = kernel.self_term(vol, 0.0)
        assert v == pytest.approx(0.5 + 0j, abs=1e-15)

    def test_matches_radial_quadrature(self):
        # independent oracle: integral of r e^{-j k r} over [0, a]
        vol = 4.0 * np.pi / 3.0
        for k0 in (1.0, 2.0, 7.5):
            re, _ = scipy.integrate.quad(lambda r: r * np.cos(k0 * r), 0, 1.0)
            im, _ = scipy.integrate.quad(lambda r: -r * np.sin(k0 * r), 0, 1.0)
            assert kernel.self_term(vol, k0) == pytest.approx(
                complex(re, im), rel=1e-12
            )

    def test_static_limit_matches_quadrature(self):
        vol = 4.0 * np.pi / 3.0
        re, _ = scipy.integrate.quad(lambda r: r, 0, 1.0)
        assert kernel.self_term(vol, 0.0) == pytest.approx(re + 0j, abs=1e-14)

    def test_series_branch_matches_high_precision(self):
        import mpmath

        mpmath.mp.dps = 50
        vol = 4.0 * np.pi / 3.0  # a = 1
        k0 = 1e-6  # k0 * a = 1e-6, series branch
        ours = kernel.self_term(vol, k0)
        x = mpmath.mpf(k0)
        exact = ((1 + 1j * x) * mpmath.exp(-1j * x) - 1) / (x * x)
        assert abs(complex(exact) - ours) <= 1e-12 * abs(ours)

    def test_branches_agree_at_crossover(self):
        vol = 4.0 * np.pi / 3.0  # a = 1
        k0 = 0.99e-4  # just below the series switch
        series = kernel.self_term(vol, k0)
        closed = ((1.0 + 1j * k0) * np.exp(-1j * k0) - 1.0) / k0**2
        assert series == pytest.approx(closed, rel=1e-6)


class TestPlaneWave:
    def test_k0_zero_gives_ones(self):
        geom = kernel.generate_geometry("rod", [1.0], 10, K0)
        rhs = kernel.plane_wave_rhs(geom, 0.0, [0, -1, 0])
        assert np.array_equal(rhs, np.ones(geom.n))

    def test_origin_voxel_is_unity(self):
        geom = kernel.VoxelGeometry(
            np.array([[0.0, 0, 0], [1.0, 2.0, 3.0]]), 1.0, "rod"
        )
        rhs = kernel.plane_wave_rhs(geom, K0, [0, -1, 0])
        assert rhs[0] == pytest.approx(1.0 + 0j)

    def test_half_wavelength_phase(self):
        geom = kernel.VoxelGeometry(
            np.array([[0.0, 0.5, 0], [0.0, 0.25, 0]]), 1.0, "rod"
        )
        rhs = kernel.plane_wave_rhs(geom, K0, [0, -1, 0])
        assert rhs[0] == pytest.approx(-1.0 + 0j, abs=1e-12)

    def test_non_unit_direction_rejected(self):
        geom = kernel.generate_geometry("rod", [1.0], 10, K0)
        with pytest.raises(ValueError):
            kernel.plane_wave_rhs(geom, K0, [0, -2, 0])

    @pytest.mark.parametrize("direction", [
        [np.nan, 0.0, 0.0],  # the norm test is False for NaN
        [0.0, -1.0, 0.0, 0.0],
        [[0.0, -1.0, 0.0]],
    ], ids=["nan", "four-entries", "row-matrix"])
    def test_direction_not_a_finite_3_vector_rejected(self, direction):
        geom = kernel.generate_geometry("rod", [1.0], 10, K0)
        with pytest.raises(ValueError, match=r"direction must be a finite 3-vector, "
                                             r"got \["):
            kernel.plane_wave_rhs(geom, K0, direction)

    @pytest.mark.parametrize("k0", [float("nan"), float("inf"), float("-inf")],
                             ids=["nan", "inf", "-inf"])
    def test_non_finite_k0_rejected(self, k0):
        geom = kernel.generate_geometry("rod", [1.0], 10, K0)
        with pytest.raises(ValueError, match=rf"k0 must be finite, got {k0!r}"):
            kernel.plane_wave_rhs(geom, k0, [0, -1, 0])


class TestAssembleDense:
    def test_identity_for_zero_contrast(self):
        geom = kernel.generate_geometry("rod", [0.5], 10, K0)
        params = kernel.KernelParams(k0=K0, eps_r=1.0)
        assert np.array_equal(kernel.assemble_dense(geom, params), np.eye(5))

    def test_two_voxel_reciprocity(self):
        # S12 / (chi_2 V) == S21 / (chi_1 V) == -k0^2 g(r)
        geom = kernel.VoxelGeometry(
            np.array([[0.0, 0, 0], [0.7, 0, 0]]), 1e-3, "rod"
        )
        params = kernel.KernelParams(k0=K0, eps_r=np.array([2.0, 3.5]))
        s = kernel.assemble_dense(geom, params)
        chi1, chi2 = 1.0, 2.5
        assert s[0, 1] * chi1 == pytest.approx(s[1, 0] * chi2, rel=1e-13)

    def test_dense_cap_enforced(self):
        geom = kernel.generate_geometry("rod", [2.0], 10, K0)
        params = kernel.KernelParams(k0=K0)
        with pytest.raises(kernel.DenseCapExceeded):
            kernel.assemble_dense(geom, params, cap=10)

    def test_kernel_block_symmetry(self):
        # uniform volumes and contrast make the scattering part symmetric
        geom = kernel.generate_geometry("cube_array", [2, 1, 1], 10, K0)
        params = kernel.KernelParams(k0=K0)
        s = kernel.assemble_dense(geom, params)
        assert np.array_equal(s, s.T)

    def test_inverse_distance_decay(self):
        # |S[0, n]| ~ C / r for k0 r > 10: doubling the distance halves it
        geom = kernel.generate_geometry("rod", [100.0], 10, K0)
        params = kernel.KernelParams(k0=K0)
        rows = np.array([0])
        cols = np.array([200, 400, 800])  # r = 20, 40, 80 in voxel units of 0.1
        vals = np.abs(
            kernel.assemble_block(geom, params, rows, cols)
        ).ravel()
        for near, far in zip(vals, vals[1:]):
            assert far / near == pytest.approx(0.5, rel=0.2)

    def test_permutation_consistency(self, rng):
        geom = kernel.generate_geometry("slab", [1.0, 1.0], 10, K0)
        eps = 2.0 + rng.random(geom.n)
        params = kernel.KernelParams(k0=K0, eps_r=eps)
        s = kernel.assemble_dense(geom, params)
        perm = rng.permutation(geom.n)
        geom_p = kernel.VoxelGeometry(
            geom.centers[perm], geom.voxel_volume, geom.shape_tag
        )
        params_p = kernel.KernelParams(k0=K0, eps_r=eps[perm])
        s_p = kernel.assemble_dense(geom_p, params_p)
        assert np.array_equal(s_p, s[np.ix_(perm, perm)])


class TestEntryOracle:
    def test_oracle_and_assemble_block_agree_bitwise(self, rng):
        geom = kernel.generate_geometry("cube_array", [2, 2, 1], 10, K0)
        params = kernel.KernelParams(k0=K0, eps_r=2.54 - 0.05j)
        oracle = kernel.entry_oracle(geom, params)
        rows = rng.choice(geom.n, size=40, replace=False)
        cols = np.concatenate([rows[:10], rng.choice(geom.n, size=30, replace=False)])
        assert np.array_equal(oracle(rows, cols),
                              kernel.assemble_block(geom, params, rows, cols))
        full = np.arange(geom.n)
        assert np.array_equal(oracle(full, full), kernel.assemble_dense(geom, params))

    def test_ragged_samples_match_closed_form(self, rng):
        geom = kernel.generate_geometry("slab", [1.0, 0.8], 10, K0)
        eps = 2.0 + rng.random(geom.n) - 0.1j * rng.random(geom.n)
        params = kernel.KernelParams(k0=K0, eps_r=eps)
        # repeated indices, and rows that hit the diagonal more than once
        rows = np.array([3, 3, 17, 0, 79, 17, 42])
        cols = np.array([17, 3, 3, 79, 17, 0, 42, 42, 5])
        got = kernel.entry_oracle(geom, params)(rows, cols)
        assert got.shape == (rows.size, cols.size)
        vol = geom.voxel_volume
        diag = K0**2 * kernel.self_term(vol, K0)
        for i, m in enumerate(rows):
            for j, n in enumerate(cols):
                chi = eps[n] - 1.0
                if m == n:
                    want = 1.0 - chi * diag
                else:
                    r = np.linalg.norm(geom.centers[m] - geom.centers[n])
                    want = -K0**2 * chi * vol * np.exp(-1j * K0 * r) / (4 * np.pi * r)
                assert got[i, j] == pytest.approx(want, rel=1e-13, abs=0.0)

    def test_row_of_blocks_equals_the_blocks_bitwise(self, rng):
        geom = kernel.generate_geometry("slab", [1.0, 1.0], 10, K0)
        oracle = kernel.entry_oracle(geom, kernel.KernelParams(k0=K0))
        rows = rng.permutation(geom.n)[:13]
        parts = [rng.permutation(geom.n)[:w] for w in (1, 7, 32)]
        whole = oracle(rows, np.concatenate(parts))
        col = 0
        for cols in parts:
            assert np.array_equal(whole[:, col:col + cols.size], oracle(rows, cols))
            col += cols.size
        for i in range(rows.size):
            assert np.array_equal(whole[i:i + 1], oracle(rows[i:i + 1], np.concatenate(parts)))

    @pytest.mark.parametrize("shape, extent", [("rod", [3.2]), ("slab", [1.0, 1.0]),
                                               ("cube_array", [2, 1, 1])])
    def test_transposed_sample_is_bitwise_transpose(self, rng, shape, extent):
        # the build samples one side of S = S^T and writes the other as its
        # transpose, which a uniform contrast allows bit for bit
        geom = kernel.generate_geometry(shape, extent, 10, K0)
        oracle = kernel.entry_oracle(geom, kernel.KernelParams(k0=K0, eps_r=2.54 - 0.3j))
        rows = rng.permutation(geom.n)[:23]
        cols = np.concatenate([rows[:5], rng.permutation(geom.n)[:17]])
        assert np.any(rows[:, None] == cols[None, :])  # diagonal entries included
        assert np.array_equal(oracle(rows, cols), oracle(cols, rows).T)
        full = np.arange(geom.n)
        whole = oracle(full, full)
        assert np.array_equal(whole, whole.T)

    def test_chunked_block_equals_its_rows_bitwise(self, rng):
        # 160 x 1225 entries span three row chunks; each single row is one chunk
        geom = kernel.generate_geometry("slab", [3.5, 3.5], 10, K0)
        oracle = kernel.entry_oracle(geom, kernel.KernelParams(k0=K0, eps_r=2.54 - 0.3j))
        rows = rng.permutation(geom.n)[:160]
        cols = np.arange(geom.n)
        whole = oracle(rows, cols)
        assert whole.size > 2 * kernel._CHUNK_ENTRIES
        for i in range(rows.size):
            assert np.array_equal(whole[i:i + 1], oracle(rows[i:i + 1], cols))

    def test_block_temporaries_are_bounded(self):
        geom = kernel.generate_geometry("slab", [3.5, 3.5], 10, K0)
        oracle = kernel.entry_oracle(geom, kernel.KernelParams(k0=K0))
        rows = np.arange(512) * geom.n // 512
        tracemalloc.start()
        try:
            block = oracle(rows, np.arange(geom.n))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.5 * block.nbytes

    def test_coincident_pair_in_a_later_chunk(self):
        centers = np.zeros((300, 3))
        centers[:, 0] = np.arange(300.0)
        geom = kernel.VoxelGeometry(centers, 1e-3, "rod")
        geom.centers[260] = geom.centers[250]  # bypass the constructor's check
        oracle = kernel.entry_oracle(geom, kernel.KernelParams(k0=K0))
        full = np.arange(300)
        with pytest.raises(kernel.CoincidentCentersError, match="voxels 250 and 260 "):
            oracle(full, full)

    def test_coincident_pair_names_the_voxels(self):
        geom = kernel.VoxelGeometry(
            np.array([[0.0, 0, 0], [1.0, 0, 0], [2.0, 0, 0]]), 1e-3, "rod"
        )
        geom.centers[2] = geom.centers[1]  # bypass the constructor's check
        oracle = kernel.entry_oracle(geom, kernel.KernelParams(k0=K0))
        assert oracle([0, 1], [0, 1]).shape == (2, 2)  # diagonal hits are fine
        with pytest.raises(kernel.CoincidentCentersError, match="voxels 1 and 2 "):
            oracle([0, 1, 2], [2, 0])
        with pytest.raises(kernel.CoincidentCentersError, match="voxels 2 and 1 "):
            oracle([2], [0, 1])
