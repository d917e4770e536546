import numpy as np
import pytest

from h2vie import arith, build, clustering as cl, kernel
from h2vie.linalg import CompressionParams, aca_factorize, recompress_lowrank

K0 = 2.0 * np.pi


def _rod_setup(length, n_min=16, eps=1e-5):
    geom = kernel.generate_geometry("rod", [length], 10, K0)
    kp = kernel.KernelParams(k0=K0)
    oracle = kernel.entry_oracle(geom, kp)
    tree = cl.ClusterTree(geom.centers, n_min)
    btree = cl.build_block_tree(tree, 1.0)
    params = CompressionParams(eps, eps)
    return geom, kp, oracle, tree, btree, params


def _grouped_rows(tree, abs_map, cid):
    """[A_j|c B_j^T | ...] over cid and its ancestors j with a nonzero factor."""
    c = tree.cluster(cid)
    parts = [np.zeros((c.size, 0), dtype=np.complex128)]
    for j in [cid, *tree.ancestors(cid)]:
        ab, off = abs_map[j], c.start - tree.cluster(j).start
        if ab.rank:
            parts.append(ab.a[off:off + c.size] @ ab.b.T)
    return np.hstack(parts)


class TestStageOne:
    def test_cluster_without_partners_is_empty(self):
        geom, kp, oracle, tree, btree, params = _rod_setup(16.4)
        abs_map = build.build_all_cluster_ab(tree, btree, oracle, params)
        assert tree.root not in btree.partners
        assert abs_map[tree.root].rank == 0

    def test_grouped_factor_matches_dense_concatenation(self):
        geom, kp, oracle, tree, btree, params = _rod_setup(16.4)
        abs_map = build.build_all_cluster_ab(tree, btree, oracle, params)
        checked = 0
        for cid, partners in btree.partners.items():
            rows = tree.indices(cid)
            cols = np.concatenate([tree.indices(s) for s in partners])
            dense = oracle(rows, cols)
            ab = abs_map[cid]
            err = np.linalg.norm(ab.a @ ab.b.T - dense) / np.linalg.norm(dense)
            assert err <= 1e-4
            checked += 1
        assert checked > 0

    def test_grouped_rank_at_most_sum_of_block_ranks(self):
        geom, kp, oracle, tree, btree, params = _rod_setup(32.8)
        abs_map = build.build_all_cluster_ab(tree, btree, oracle, params)
        strictly_smaller = 0
        for cid, partners in btree.partners.items():
            if len(partners) < 2:
                continue
            rows = tree.indices(cid)
            per_block = 0
            for s in partners:
                cols = tree.indices(s)
                f = aca_factorize(
                    lambda r, c, rows=rows, cols=cols: oracle(rows[r], cols[c]),
                    (rows.size, cols.size),
                    params.eps_aca,
                )
                per_block += recompress_lowrank(f, params.eps_acc).rank
            assert abs_map[cid].rank <= per_block
            if abs_map[cid].rank < per_block:
                strictly_smaller += 1
        assert strictly_smaller >= 1

    def test_every_factor_has_orthonormal_b(self, rod164, cube2):
        # leaves (truncate_via_gram) and non-leaves (ACA + recompress_lowrank)
        checked = {True: 0, False: 0}
        for geom, kp, h2, _ in (rod164, cube2):
            tree = h2.tree
            abs_map = build.build_all_cluster_ab(
                tree, h2.btree, kernel.entry_oracle(geom, kp), h2.params)
            for cid, f in abs_map.items():
                if f.rank:
                    err = np.abs(f.b.conj().T @ f.b - np.eye(f.rank)).max()
                    assert err <= 1e-12
                    checked[tree.cluster(cid).is_leaf] += 1
        assert checked[True] and checked[False]


class TestStageOneLeaves:
    """Leaf clusters are sampled whole and truncated through their Gram matrix."""

    def test_one_oracle_call_per_leaf_with_partners(self):
        geom, kp, oracle, tree, btree, params = _rod_setup(32.8)
        calls = []

        def counting(rows, cols):
            calls.append((np.array(rows), np.array(cols)))
            return oracle(rows, cols)

        build.build_all_cluster_ab(tree, btree, counting, params)
        leaves = [cid for cid in tree.leaves() if cid in btree.partners]
        assert leaves
        for cid in leaves:
            rows = tree.indices(cid)
            cols = np.concatenate([tree.indices(s) for s in btree.partners[cid]])
            assert sum(np.array_equal(r, rows) and np.array_equal(c, cols)
                       for r, c in calls) == 1
        # every other call is one ACA row or column of a non-leaf cluster
        assert sum(r.size > 1 and c.size > 1 for r, c in calls) == len(leaves)

    def test_leaf_factor_within_eps_of_dense_concatenation(self):
        for length, eps in ((16.4, 1e-5), (32.8, 1e-3)):
            geom, kp, oracle, tree, btree, params = _rod_setup(length, eps=eps)
            abs_map = build.build_all_cluster_ab(tree, btree, oracle, params)
            checked = 0
            for cid in tree.leaves():
                if cid not in btree.partners:
                    continue
                rows = tree.indices(cid)
                cols = np.concatenate([tree.indices(s) for s in btree.partners[cid]])
                dense = oracle(rows, cols)
                ab = abs_map[cid]
                err = np.linalg.norm(ab.a @ ab.b.T - dense) / np.linalg.norm(dense)
                assert err <= params.eps_acc
                assert ab.rank < rows.size  # truncation did cut
                checked += 1
            assert checked > 0

    def test_leaf_rank_over_max_rank_names_the_cluster(self):
        geom, kp, oracle, tree, btree, params = _rod_setup(16.4)
        # keep the leaf partners only, so no non-leaf ACA can fail first
        leaf_only = cl.BlockClusterTree(btree.eta)
        leaf_only.partners = {t: ps for t, ps in btree.partners.items()
                              if tree.cluster(t).is_leaf}
        first = next(c.id for c in tree.clusters if c.id in leaf_only.partners)
        tight = CompressionParams(params.eps_aca, params.eps_acc, max_rank=1)
        with pytest.raises(build.ClusterCompressionError) as exc_info:
            build.build_all_cluster_ab(tree, leaf_only, oracle, tight)
        assert exc_info.value.cluster_id == first
        assert f"cluster {first}:" in str(exc_info.value)


class TestNearField:
    def test_dense_leaves_equal_per_block_calls(self, rod164, cube2):
        for geom, kp, h2, _ in (rod164, cube2):
            oracle = kernel.entry_oracle(geom, kp)
            tree = h2.tree
            assert list(h2.dense) == h2.btree.inadmissible
            for (t, s), d in h2.dense.items():
                assert np.array_equal(d, oracle(tree.indices(t), tree.indices(s)))
        # the rod's leaf rows hold several blocks, so the views are slices
        targets = [t for t, _ in rod164[2].btree.inadmissible]
        assert len(set(targets)) < len(targets)

    def test_sampled_rows_become_near_row_buffers(self, rod164):
        geom, kp, h2, _ = rod164
        dense = build._near_field(h2.tree, h2.btree, kernel.entry_oracle(geom, kp))
        m = build.H2Matrix(h2.tree, h2.btree, h2.basis, dict(h2.coupling), dense,
                           h2.params)
        clusters = h2.tree.clusters
        for start, stop, buf, _ in m.near_rows:
            views = [d for (t, _), d in dense.items()
                     if (clusters[t].start, clusters[t].stop) == (start, stop)]
            assert all(buf is view.base for view in views)

    def test_out_of_order_views_are_packed(self, rod164, rng):
        _, _, h2, _ = rod164
        dense = {}
        for t in dict.fromkeys(t for t, _ in h2.btree.inadmissible):
            keys = [k for k in h2.dense if k[0] == t]
            row = np.concatenate([h2.dense[k] for k in keys], axis=1)
            col = 0
            for k in keys:
                dense[k] = row[:, col:col + h2.dense[k].shape[1]]
                col += dense[k].shape[1]
        m = build.H2Matrix(h2.tree, h2.btree, h2.basis, dict(h2.coupling),
                           dict(reversed(dense.items())), h2.params)
        x = rng.standard_normal((h2.n, 2)) + 1j * rng.standard_normal((h2.n, 2))
        exact = build.materialize(h2) @ x
        err = np.linalg.norm(arith.matmat_apply(m, x) - exact)
        assert err <= 1e-12 * np.linalg.norm(exact)
        assert all(np.array_equal(m.dense[k], d) for k, d in h2.dense.items())


class TestBases:
    def test_empty_everywhere_gives_zero_rank(self):
        # single-leaf tree: no admissible blocks at all
        geom = kernel.generate_geometry("rod", [1.0], 10, K0)
        kp = kernel.KernelParams(k0=K0)
        h2 = build.build_h2(geom, kp, CompressionParams(1e-4, 1e-4), n_min=64)
        assert h2.max_rank() == 0
        assert not h2.coupling

    def test_leaf_basis_spans_factor_columns(self):
        # V must span the leaf's rows of its own and every ancestor's factor
        geom, kp, oracle, tree, btree, params = _rod_setup(16.4, n_min=16)
        abs_map = build.build_all_cluster_ab(tree, btree, oracle, params)
        basis = build.build_bases(tree, abs_map, params)
        checked = 0
        for cid in tree.leaves():
            m = _grouped_rows(tree, abs_map, cid)
            if m.size == 0:
                continue
            v = basis.materialize(cid)
            resid = m - v @ (v.conj().T @ m)
            assert np.linalg.norm(resid) <= 10 * params.eps_acc * np.linalg.norm(m)
            checked += 1
        assert checked > 0

    def test_leaf_gram_is_leaf_sized(self):
        for length in (16.4, 65.6):
            geom, kp, oracle, tree, btree, params = _rod_setup(length)
            abs_map = build.build_all_cluster_ab(tree, btree, oracle, params)
            basis = build.build_bases(tree, abs_map, params)
            for cid in tree.leaves():
                v = basis.leaf_v[cid]
                assert v.shape == (tree.cluster(cid).size, basis.rank(cid))
                assert tree.cluster(cid).size <= 16

    def test_transfer_reproduces_direct_parent_basis(self):
        # the nested (children-projected) basis must capture the directly
        # assembled parent Gram as well as a direct eigendecomposition would;
        # the comparison is Gram-weighted since directions near the truncation
        # threshold carry no energy and are free to rotate
        geom, kp, oracle, tree, btree, params = _rod_setup(16.4, eps=1e-6)
        abs_map = build.build_all_cluster_ab(tree, btree, oracle, params)
        basis = build.build_bases(tree, abs_map, params)

        checked = 0
        for c in tree.clusters:
            if c.is_leaf or basis.rank(c.id) == 0:
                continue
            m = _grouped_rows(tree, abs_map, c.id)
            g = m @ m.conj().T
            g = 0.5 * (g + g.conj().T)
            v = basis.materialize(c.id)
            resid = g - v @ (v.conj().T @ g)
            assert np.linalg.norm(resid, 2) <= 10 * params.eps_acc * np.linalg.norm(g, 2)
            checked += 1
        assert checked > 0

    def test_zero_rank_children_give_empty_transfers(self):
        geom = kernel.generate_geometry("rod", [3.2], 10, K0)
        kp = kernel.KernelParams(k0=K0, eps_r=1.0)  # chi = 0: all blocks zero
        h2 = build.build_h2(geom, kp, CompressionParams(1e-4, 1e-4), n_min=8)
        for cid, (t_lo, t_hi) in h2.basis.transfers.items():
            assert t_lo.shape[1] == 0 and t_hi.shape[1] == 0


class TestCoupling:
    def test_dimensions_match_basis_ranks(self, rod164):
        _, _, h2, _ = rod164
        for (t, s), smat in h2.coupling.items():
            assert smat.shape == (h2.basis.rank(t), h2.basis.rank(s))

    def test_coupling_rows_become_far_row_buffers(self):
        geom, kp, oracle, tree, btree, params = _rod_setup(16.4)
        abs_map = build.build_all_cluster_ab(tree, btree, oracle, params)
        basis = build.build_bases(tree, abs_map, params)
        coupling = build.build_coupling(btree, abs_map, basis, tree)
        assert list(coupling) == btree.admissible
        m = build.H2Matrix(tree, btree, basis, coupling, {}, params)
        spans = basis.schedule().spans
        assert m.far_rows
        for lo, hi, buf, _ in m.far_rows:
            views = [v for (t, _), v in coupling.items()
                     if spans[t] == (lo, hi) and v.size]
            assert views and all(buf is view.base for view in views)

    def test_reconstruction_matches_dense_slice(self, rod164):
        geom, kp, h2, dense = rod164
        tree = h2.tree
        eps = h2.params.eps_acc
        for (t, s), smat in h2.coupling.items():
            block = dense[np.ix_(tree.indices(t), tree.indices(s))]
            rec = h2.basis.materialize(t) @ smat @ h2.basis.materialize(s).T
            assert np.linalg.norm(rec - block) <= 10 * eps * np.linalg.norm(block)


class TestBuildH2:
    def test_zero_contrast_is_identity(self):
        geom = kernel.generate_geometry("rod", [6.4], 10, K0)
        kp = kernel.KernelParams(k0=K0, eps_r=1.0)
        h2 = build.build_h2(geom, kp, CompressionParams(1e-4, 1e-4), n_min=8)
        assert np.array_equal(build.materialize(h2), np.eye(geom.n))

    def test_rod_164_representation_error(self, rod164):
        geom, kp, h2, dense = rod164
        assert geom.n == 164
        assert build.rep_error(h2, dense) <= 5e-3

    def test_cube_array_representation_error(self, cube2):
        geom, kp, h2, dense = cube2
        assert build.rep_error(h2, dense) <= 8e-3

    def test_rep_error_lossless_when_truncation_disabled(self):
        # basis extraction goes through Gram matrices, which squares the
        # conditioning; the attainable floor with truncation disabled is
        # therefore ~1e-11, not machine precision
        geom = kernel.generate_geometry("rod", [6.4], 10, K0)
        kp = kernel.KernelParams(k0=K0)
        h2 = build.build_h2(geom, kp, CompressionParams(1e-13, 1e-13), n_min=8)
        dense = kernel.assemble_dense(geom, kp)
        assert build.rep_error(h2, dense) <= 1e-10

    def test_rep_error_zero_contrast(self):
        geom = kernel.generate_geometry("rod", [3.2], 10, K0)
        kp = kernel.KernelParams(k0=K0, eps_r=1.0)
        h2 = build.build_h2(geom, kp, CompressionParams(1e-4, 1e-4), n_min=8)
        assert build.rep_error(h2, np.eye(geom.n)) == 0.0

    def test_rod_loose_tolerance(self):
        geom = kernel.generate_geometry("rod", [1.0], 10, K0)
        kp = kernel.KernelParams(k0=K0)
        h2 = build.build_h2(geom, kp, CompressionParams(1e-3, 1e-3), n_min=4)
        dense = kernel.assemble_dense(geom, kp)
        assert build.rep_error(h2, dense) <= 1e-2

    def test_non_uniform_eps_r_is_refused(self):
        geom = kernel.generate_geometry("slab", [1.0, 1.0], 10, K0)
        eps = np.full(geom.n, 2.54 - 0.1j)
        eps[37] = 3.0
        eps[50] = 3.5
        with pytest.raises(ValueError, match="voxel 37 has"):
            build.build_h2(geom, kernel.KernelParams(k0=K0, eps_r=eps),
                           CompressionParams(1e-4, 1e-4), n_min=8)

    def test_uniform_eps_r_array_equals_scalar(self):
        geom = kernel.generate_geometry("rod", [3.2], 10, K0)
        params = CompressionParams(1e-4, 1e-4)
        h2 = build.build_h2(geom, kernel.KernelParams(k0=K0, eps_r=2.54 - 0.1j),
                            params, n_min=8)
        h2_arr = build.build_h2(
            geom, kernel.KernelParams(k0=K0, eps_r=np.full(geom.n, 2.54 - 0.1j)),
            params, n_min=8)
        assert np.array_equal(build.materialize(h2_arr), build.materialize(h2))

    def test_rep_error_shape_guard(self, rod164):
        _, _, h2, _ = rod164
        with pytest.raises(ValueError):
            build.rep_error(h2, np.eye(3))

    def test_error_monotone_in_tolerance(self):
        geom = kernel.generate_geometry("rod", [12.8], 10, K0)
        kp = kernel.KernelParams(k0=K0)
        dense = kernel.assemble_dense(geom, kp)
        errs = {}
        for eps in (1e-3, 1e-5):
            h2 = build.build_h2(geom, kp, CompressionParams(eps, eps), n_min=8)
            errs[eps] = build.rep_error(h2, dense)
        assert errs[1e-5] <= errs[1e-3]


class TestStructuralInvariants:
    def test_basis_orthonormality(self, rod164, cube2):
        for _, _, h2, _ in (rod164, cube2):
            for cid in range(len(h2.tree)):
                v = h2.basis.materialize(cid)
                k = v.shape[1]
                if k:
                    err = np.linalg.norm(v.conj().T @ v - np.eye(k))
                    assert err <= 1e-10 * k

    def test_nested_application_matches_materialized(self, cube2, rng):
        # transfer-chain application vs explicit basis product
        _, _, h2, _ = cube2
        for cid in range(len(h2.tree)):
            if h2.basis.rank(cid) == 0:
                continue
            n = h2.tree.cluster(cid).size
            x = rng.standard_normal((n, 2)) + 1j * rng.standard_normal((n, 2))
            via_chain = h2.basis.apply_vh(cid, x)
            via_mat = h2.basis.materialize(cid).conj().T @ x
            assert np.allclose(via_chain, via_mat, atol=1e-12)

    def test_rank_constant_along_rod_sweep(self):
        # 40 voxels per wavelength gives a 4x4 cross-section, matching the
        # unknown density where the 1-D rank plateau is reached at 1 wavelength
        ranks = []
        for length in (1, 2, 4):
            geom = kernel.generate_geometry("rod", [length], 40, K0)
            kp = kernel.KernelParams(k0=K0)
            h2 = build.build_h2(geom, kp, CompressionParams(1e-5, 1e-5), n_min=64)
            ranks.append(h2.max_rank())
        assert max(ranks) - min(ranks) <= 3

    def test_cube_rank_growth_at_most_linear(self):
        ranks = []
        for count in (2, 4):  # electrical size 0.9 -> 2.1 wavelengths
            geom = kernel.generate_geometry("cube_array", [count] * 3, 10, K0)
            kp = kernel.KernelParams(k0=K0)
            h2 = build.build_h2(geom, kp, CompressionParams(1e-5, 1e-5), n_min=32)
            ranks.append(h2.max_rank())
        assert ranks[1] <= 2.5 * ranks[0]
