import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from h2vie import kernel
from h2vie.linalg import (
    AcaRankExceeded,
    CompressionParams,
    LowRankFactor,
    SingularMatrixError,
    aca_factorize,
    dense_oracle,
    dense_lu_invert,
    recompress_lowrank,
    truncated_svd,
)


def _random_complex(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _green_block(n_side, dist, k0):
    """Coupling block between two voxelized unit cubes a fixed distance apart."""
    h = 1.0 / n_side
    c1 = kernel.lattice_centers(n_side, n_side, n_side, h)
    c2 = kernel.lattice_centers(n_side, n_side, n_side, h, origin=(1.0 + dist, 0, 0))
    geom = kernel.VoxelGeometry(np.vstack([c1, c2]), h**3, "pair")
    params = kernel.KernelParams(k0=k0)
    nb = n_side**3
    rows = np.arange(nb)
    cols = np.arange(nb, 2 * nb)
    return geom, params, rows, cols


class TestAca:
    def test_rank_one_is_exact(self, rng):
        m = np.outer(_random_complex(rng, 12), _random_complex(rng, 9))
        f = aca_factorize(dense_oracle(m), m.shape, 1e-12)
        assert f.rank == 1
        assert np.linalg.norm(f.to_dense() - m) <= 1e-13 * np.linalg.norm(m)

    def test_zero_matrix_gives_empty_factor(self):
        f = aca_factorize(dense_oracle(np.zeros((7, 5), complex)), (7, 5), 1e-6)
        assert f.rank == 0
        assert f.a.shape == (7, 0) and f.b.shape == (5, 0)
        assert np.all(f.to_dense() == 0)

    def test_green_block_rank_close_to_svd_rank(self):
        # 64x64 kernel block between unit clusters at distance 2
        geom, params, rows, cols = _green_block(4, 2.0, 2 * np.pi)
        block = kernel.assemble_block(geom, params, rows, cols)
        sv = np.linalg.svd(block, compute_uv=False)
        svd_rank = int(np.sum(sv > 1e-5 * sv[0]))
        f = aca_factorize(
            lambda r, c: kernel.assemble_block(geom, params, rows[r], cols[c]),
            (64, 64),
            1e-5,
        )
        f = recompress_lowrank(f, 1e-5)
        assert f.rank <= svd_rank + 2

    def test_skips_zero_rows(self, rng):
        # first rows identically zero: pivot search must move on
        m = np.zeros((8, 6), dtype=complex)
        m[5] = _random_complex(rng, 6)
        f = aca_factorize(dense_oracle(m), m.shape, 1e-12)
        assert f.rank == 1
        assert np.linalg.norm(f.to_dense() - m) <= 1e-13 * np.linalg.norm(m)

    def test_max_rank_overflow_carries_partial(self, rng):
        m = _random_complex(rng, (32, 32))  # full rank, incompressible
        with pytest.raises(AcaRankExceeded) as exc_info:
            aca_factorize(dense_oracle(m), m.shape, 1e-12, max_rank=5)
        assert exc_info.value.partial.rank == 5
        # the partial factor owns its arrays, no view into the working buffers
        assert exc_info.value.partial.a.flags.owndata
        assert exc_info.value.partial.b.flags.owndata

    @pytest.mark.parametrize("cap", [0, -3])
    def test_non_positive_rank_cap_rejected(self, rng, cap):
        m = _random_complex(rng, (8, 6))
        with pytest.raises(ValueError, match="max_rank must be >= 1"):
            aca_factorize(dense_oracle(m), m.shape, 1e-12, max_rank=cap)

    def test_full_rank_small_block_terminates(self, rng):
        m = _random_complex(rng, (6, 6))
        f = aca_factorize(dense_oracle(m), m.shape, 1e-12)
        assert np.linalg.norm(f.to_dense() - m) <= 1e-10 * np.linalg.norm(m)

    @pytest.mark.parametrize("n_side", [4, 5])
    @pytest.mark.parametrize("eps", [1e-3, 1e-5, 1e-7])
    def test_combined_error_bound_on_kernel_blocks(self, eps, n_side):
        # admissible-regime blocks (separation 2, the canonical geometry):
        # ACA + recompression together stay within eps_aca + eps_acc
        geom, params, rows, cols = _green_block(n_side, 2.0, 2 * np.pi)
        block = kernel.assemble_block(geom, params, rows, cols)
        f = aca_factorize(
            lambda r, c: kernel.assemble_block(geom, params, rows[r], cols[c]),
            block.shape,
            eps,
        )
        f = recompress_lowrank(f, eps)
        err = np.linalg.norm(f.to_dense() - block) / np.linalg.norm(block)
        assert err <= 2 * eps


class TestRecompress:
    def test_duplicated_columns_collapse(self, rng):
        a = _random_complex(rng, (30, 3))
        b = _random_complex(rng, (20, 3))
        f7 = LowRankFactor(np.hstack([a, a, a[:, :1]]), np.hstack([b, b, b[:, :1]]))
        f3 = recompress_lowrank(f7, 1e-10)
        assert f3.rank == 3
        assert (
            np.linalg.norm(f3.to_dense() - f7.to_dense())
            <= 1e-12 * np.linalg.norm(f7.to_dense())
        )

    def test_rank_zero_unchanged(self):
        f = LowRankFactor(np.zeros((4, 0), complex), np.zeros((5, 0), complex))
        assert recompress_lowrank(f, 1e-6).rank == 0

    def test_noisy_rank20_recovers_rank(self, rng):
        a = _random_complex(rng, (100, 20))
        b = _random_complex(rng, (100, 20))
        m = a @ b.T + 1e-8 * _random_complex(rng, (100, 100))
        # the dense SVD oracle fixes the expected rank at this tolerance
        sv = np.linalg.svd(m, compute_uv=False)
        svd_rank = int(np.sum(sv > 1e-6 * sv[0]))
        f = recompress_lowrank(LowRankFactor(m, np.eye(100, dtype=complex)), 1e-6)
        assert abs(f.rank - 20) <= 1
        assert f.rank == svd_rank

    def test_idempotent_on_kernel_factor(self):
        geom, params, rows, cols = _green_block(4, 2.0, 2 * np.pi)
        f = aca_factorize(
            lambda r, c: kernel.assemble_block(geom, params, rows[r], cols[c]),
            (64, 64),
            1e-6,
        )
        once = recompress_lowrank(f, 1e-4)
        twice = recompress_lowrank(once, 1e-4)
        assert twice.rank == once.rank

    @settings(max_examples=25, deadline=None)
    @given(
        m=st.integers(2, 12),
        n=st.integers(2, 12),
        k=st.integers(1, 6),
        seed=st.integers(0, 2**31),
    )
    def test_idempotent_property(self, m, n, k, seed):
        rng = np.random.default_rng(seed)
        f = LowRankFactor(_random_complex(rng, (m, k)), _random_complex(rng, (n, k)))
        once = recompress_lowrank(f, 1e-3)
        assert recompress_lowrank(once, 1e-3).rank == once.rank


class TestTruncateViaGram:
    """truncated_svd on short, wide blocks, the shape of a Stage I leaf row.

    (The class name is kept so that the test ids stay stable.)
    """

    def test_low_rank_block_is_reproduced(self, rng):
        m = _random_complex(rng, (12, 3)) @ _random_complex(rng, (3, 90))
        u, s, vh = truncated_svd(m, 1e-6)
        assert s.size == 3
        assert np.allclose(u.conj().T @ u, np.eye(3), atol=1e-12)
        assert np.allclose(vh @ vh.conj().T, np.eye(3), atol=1e-12)
        assert np.linalg.norm((u * s) @ vh - m) <= 1e-12 * np.linalg.norm(m)

    def test_ratio_rule_matches_recompress(self):
        # singular values 1, 1e-2, 1e-4, 1e-6: eps 1e-3 keeps sigma > 7.5e-4
        u, _ = np.linalg.qr(np.eye(4) + 0.1j)
        v, _ = np.linalg.qr(np.arange(40.0).reshape(10, 4) ** 0.5 + 1.0)
        m = (u * np.array([1.0, 1e-2, 1e-4, 1e-6])) @ v.T
        _, s, _ = truncated_svd(m, 0.75e-3)
        g = recompress_lowrank(LowRankFactor(m, np.eye(10)), 1e-3)
        assert s.size == g.rank == 2

    def test_zero_block_gives_empty_factor(self):
        for shape in ((5, 7), (7, 5), (0, 3), (3, 0)):
            u, s, vh = truncated_svd(np.zeros(shape, dtype=complex), 1e-4)
            assert u.shape == (shape[0], 0) and s.shape == (0,)
            assert vh.shape == (0, shape[1])


class TestTruncEig:
    """truncated_svd's ratio rule on square and tall blocks.

    (The class name is kept so that the test ids stay stable.)
    """

    def test_identity_keeps_everything(self):
        u, s, vh = truncated_svd(np.eye(4, dtype=complex), 1e-6)
        assert s.size == 4
        assert np.linalg.norm(u.conj().T @ u - np.eye(4)) <= 1e-12 * 4

    def test_gram_of_rank2_block(self, rng):
        block = _random_complex(rng, (10, 2)) @ _random_complex(rng, (2, 30))
        for m in (block, block.T):
            u, s, vh = truncated_svd(m, 1e-6)
            assert u.shape == (m.shape[0], 2) and vh.shape == (2, m.shape[1])

    def test_zero_matrix(self):
        u, s, vh = truncated_svd(np.zeros((3, 3), complex), 1e-6)
        assert s.size == 0 and u.shape == (3, 0) and vh.shape == (0, 3)

    def test_reconstruction_bound(self, rng):
        # the ratio rule drops only s_i <= eps * s_1, so the spectral norm
        # of the remainder is at most eps * ||M||_2
        block = _random_complex(rng, (40, 24))
        block *= np.logspace(0, -8, 24)[None, :]
        eps = 1e-3
        u, s, vh = truncated_svd(block, eps)
        assert 0 < s.size < 24
        err = np.linalg.norm(block - (u * s) @ vh, 2)
        assert err <= eps * np.linalg.norm(block, 2)

    def test_resolves_singular_values_below_square_root_of_round_off(self):
        # singular values 1, 1e-1, ..., 1e-13: tol 5e-13 keeps the first 13
        # on both the wide (QR-reduced) and the tall path; squaring them in
        # a Gram matrix would lose everything below about 1e-8
        u, _ = np.linalg.qr(np.eye(14) + 0.1j)
        v, _ = np.linalg.qr(np.arange(14.0 * 40).reshape(40, 14) ** 0.5 + 1.0)
        m = (u * np.logspace(0, -13, 14)) @ v.T
        for mat in (m, m.T):
            _, s, _ = truncated_svd(mat, 5e-13)
            assert s.size == 13
            assert np.allclose(s, np.logspace(0, -12, 13), rtol=1e-3)


class TestDenseLuInvert:
    def test_identity(self):
        assert np.allclose(dense_lu_invert(np.eye(3, dtype=complex)), np.eye(3))

    def test_diagonal(self):
        inv = dense_lu_invert(np.diag([2.0 + 0j, 4.0]))
        assert np.allclose(inv, np.diag([0.5, 0.25]))

    def test_diagonally_dominant_residual(self, rng):
        m = np.diag(np.full(8, 8.0 + 0j)) + 0.3 * _random_complex(rng, (8, 8))
        inv = dense_lu_invert(m)
        assert np.linalg.norm(m @ inv - np.eye(8)) <= 1e-12

    def test_singular_names_pivot(self):
        with pytest.raises(SingularMatrixError) as exc_info:
            dense_lu_invert(np.array([[1.0, 1.0], [1.0, 1.0]], dtype=complex))
        assert exc_info.value.pivot_index == 1

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_entry_named(self, bad):
        # rejected before factoring: a NaN would pass the pivot floor, and an
        # inf would make the floor itself infinite and blame a healthy pivot
        m = np.eye(3, dtype=complex)
        m[1, 2] = bad
        with pytest.raises(SingularMatrixError, match=r"entry \(1, 2\)") as exc_info:
            dense_lu_invert(m)
        assert exc_info.value.pivot_index is None


class TestParams:
    def test_valid(self):
        p = CompressionParams(1e-4, 1e-5, 50)
        assert p.eps_aca == 1e-4

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(eps_aca=1e-6, eps_acc=1e-4),  # eps_acc > eps_aca
            dict(eps_aca=0.0, eps_acc=0.0),
            dict(eps_aca=1.5, eps_acc=0.5),
            dict(eps_aca=1e-4, eps_acc=1e-4, max_rank=0),
        ],
    )
    def test_invalid(self, kwargs):
        with pytest.raises(ValueError):
            CompressionParams(**kwargs)
