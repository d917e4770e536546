import gc
import tracemalloc
import weakref

import numpy as np
import pytest

from h2vie import arith, build, clustering as cl, kernel
from h2vie.linalg import CompressionParams, aca_factorize, recompress_lowrank

from conftest import apply_rtol

K0 = 2.0 * np.pi


def _rod_setup(length, n_min=16, eps=1e-5):
    return _setup("rod", [length], n_min, eps)


def _setup(shape, extent, n_min=16, eps=1e-5):
    geom = kernel.generate_geometry(shape, extent, 10, K0)
    kp = kernel.KernelParams(k0=K0)
    oracle = kernel.entry_oracle(geom, kp)
    tree = cl.ClusterTree(geom.centers, n_min)
    btree = cl.build_block_tree(tree, 1.0)
    params = CompressionParams(eps, eps)
    return geom, kp, oracle, tree, btree, params


def _upper(btree, cid):
    """Admissible partners s > cid: the ones Stage I compresses cid's block with."""
    return [s for s in btree.partners.get(cid, []) if s > cid]


def _grouped_rows(tree, abs_map, cid):
    """cid's rows of the full grouped blocks of cid and of each ancestor j.

    The upper blocks of j are A_j B_j^T; each lower block S_{j,s} is the
    transpose of the upper S_{s,j} = A_s B_s|j^T.
    """
    c = tree.cluster(cid)
    parts = [np.zeros((c.size, 0), dtype=np.complex128)]
    for j in [cid, *tree.ancestors(cid)]:
        rows = slice(c.start - tree.cluster(j).start, c.stop - tree.cluster(j).start)
        parts.append(abs_map[j].a[rows] @ abs_map[j].b.T)
        parts += [f.parts[j][rows] @ f.a.T for f in abs_map.values() if j in f.parts]
    return np.hstack(parts)


class TestStageOne:
    def test_cluster_without_partners_is_empty(self):
        geom, kp, oracle, tree, btree, params = _rod_setup(16.4)
        abs_map = build.build_all_cluster_ab(tree, btree, oracle, params)
        assert tree.root not in btree.partners
        assert abs_map[tree.root].rank == 0

    def test_grouped_factor_matches_dense_concatenation(self):
        # each factor covers its upper partners only and names them in order
        geom, kp, oracle, tree, btree, params = _rod_setup(16.4)
        abs_map = build.build_all_cluster_ab(tree, btree, oracle, params)
        checked = 0
        for cid in range(len(tree)):
            partners = _upper(btree, cid)
            assert list(abs_map[cid].parts) == partners
            if not partners:
                continue
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
        for cid in btree.partners:
            partners = _upper(btree, cid)
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
        # leaves (truncated_svd) and non-leaves (ACA + recompress_lowrank)
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
    """Leaf clusters are sampled whole and truncated by one SVD."""

    def test_one_oracle_call_per_leaf_with_partners(self):
        geom, kp, oracle, tree, btree, params = _rod_setup(32.8)
        calls = []

        def counting(rows, cols):
            calls.append((np.array(rows), np.array(cols)))
            return oracle(rows, cols)

        build.build_all_cluster_ab(tree, btree, counting, params)
        leaves = [cid for cid in tree.leaves() if _upper(btree, cid)]
        assert leaves
        for cid in leaves:
            rows = tree.indices(cid)
            cols = np.concatenate([tree.indices(s) for s in _upper(btree, cid)])
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
                if not _upper(btree, cid):
                    continue
                rows = tree.indices(cid)
                cols = np.concatenate([tree.indices(s) for s in _upper(btree, cid)])
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
                sample = oracle(tree.indices(t), tree.indices(s))
                assert np.array_equal(d, sample.astype(h2.params.payload_dtype))
        # the rod's leaf rows hold several blocks, so the views are slices
        targets = [t for t, _ in rod164[2].btree.inadmissible]
        assert len(set(targets)) < len(targets)

    def test_sampled_rows_become_near_row_buffers(self, rod164):
        geom, kp, h2, _ = rod164
        dense = build._near_field(h2.tree, h2.btree, kernel.entry_oracle(geom, kp),
                                  h2.params.payload_dtype)
        m = build.H2Matrix(h2.tree, h2.btree, h2.basis, dict(h2.coupling), dense,
                           h2.params)
        cells = h2.basis.schedule.cells
        for start, stop, buf, _ in m.near_rows:
            views = [d for (t, _), d in dense.items() if cells[t] == (start, stop)]
            assert views and all(buf is view.base for view in views)

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
        assert err <= apply_rtol(h2, 1e-12) * np.linalg.norm(exact)
        assert all(np.array_equal(m.dense[k], d) for k, d in h2.dense.items())


class TestOneSidedSampling:
    """S = S^T: Stage I and the near field sample each block on one side only."""

    @pytest.mark.parametrize("shape, extent", [("rod", [16.4]), ("slab", [2.0, 2.0]),
                                               ("cube_array", [2, 2, 2])])
    def test_no_entry_of_a_lower_block_is_requested(self, shape, extent):
        geom, kp, oracle, tree, btree, params = _setup(shape, extent)
        upper = np.zeros((geom.n, geom.n), dtype=bool)  # entry lies in some (t, s <= t)
        for t, s in btree.admissible + btree.inadmissible:
            upper[np.ix_(tree.indices(t), tree.indices(s))] = t <= s
        assert not upper.all()
        calls = []

        def counting(rows, cols):
            calls.append(bool(upper[np.ix_(rows, cols)].all()))
            return oracle(rows, cols)

        build.build_all_cluster_ab(tree, btree, counting, params)
        build._near_field(tree, btree, counting)
        assert calls and all(calls)

    def test_near_field_samples_each_pair_once(self):
        geom, kp, oracle, tree, btree, params = _setup("slab", [2.0, 2.0])
        entries = []

        def counting(rows, cols):
            out = oracle(rows, cols)
            entries.append(out.size)
            return out

        dense = build._near_field(tree, btree, counting)
        size = [c.size for c in tree.clusters]
        assert sum(entries) == sum(size[t] * size[s] for t, s in btree.inadmissible if t <= s)
        assert len(entries) == len({t for t, _ in btree.inadmissible})  # one per block row
        for (t, s), d in dense.items():
            assert np.array_equal(d, dense[(s, t)].T)


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

    def test_stage_two_copies_no_stage_one_factor(self):
        # the mirrored rows B_t|j Sigma_t are formed per leaf as it stacks
        # them: a scaled copy of every B would double the traced peak
        geom, kp, oracle, tree, btree, params = _setup("slab", [3.5, 3.5], n_min=32,
                                                       eps=1e-4)
        abs_map = build.build_all_cluster_ab(tree, btree, oracle, params)
        before = {t: (f.a.copy(), f.b.copy()) for t, f in abs_map.items()}
        b_bytes = sum(f.b.nbytes for f in abs_map.values())
        tracemalloc.start()
        try:
            build.build_bases(tree, abs_map, params)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * b_bytes
        for t, f in abs_map.items():
            assert np.array_equal(f.a, before[t][0]) and np.array_equal(f.b, before[t][1])

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
        # threshold carry no energy and are free to rotate; 1-D, 2-D and 3-D
        # trees differ in how many ancestors' factors reach a cluster
        for shape, extent in [("rod", [16.4]), ("slab", [2, 2]), ("cube_array", [2, 2, 2])]:
            geom, kp, oracle, tree, btree, params = _setup(shape, extent, eps=1e-6)
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
            assert checked > 0, shape

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
        spans = basis.schedule.spans
        assert m.far_rows
        for lo, hi, buf, _ in m.far_rows:
            views = [v for (t, _), v in coupling.items()
                     if spans[t] == (lo, hi) and v.size]
            assert views and all(buf is view.base for view in views)

    def test_stacked_projection_matches_per_block(self):
        # each source's B_t|s are projected together; every upper coupling
        # must match projecting its block on its own, and every lower one
        # is its mirror's transpose
        geom, kp, oracle, tree, btree, params = _setup("slab", [3.5, 3.5], 32, 1e-4)
        abs_map = build.build_all_cluster_ab(tree, btree, oracle, params)
        basis = build.build_bases(tree, abs_map, params)
        coupling = build.build_coupling(btree, abs_map, basis, tree)
        single = {}
        for t, f in abs_map.items():
            for s, b_s in f.parts.items():
                single[(t, s)] = basis.apply_vh(t, f.a) @ basis.apply_vh(s, b_s).T
        assert set(coupling) == set(single) | {(s, t) for t, s in single}
        for (t, s), got in coupling.items():
            if t < s:
                ref = single[(t, s)]
                assert np.linalg.norm(got - ref) <= 1e-13 * np.linalg.norm(ref)
            assert np.array_equal(got, coupling[(s, t)].T)

    def test_reconstruction_matches_dense_slice(self, rod164, cube2, slab22):
        # every admissible block, lower ones included, lies in the span of
        # its two cluster bases, whichever side Stage I sampled
        for geom, kp, h2, dense in (rod164, cube2, slab22):
            tree = h2.tree
            eps = h2.params.eps_acc
            assert any(t > s for t, s in h2.coupling)
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
        # every rank comes from an SVD of the block itself (no Gram matrix
        # squares the conditioning), so the floor is near machine precision
        geom = kernel.generate_geometry("rod", [6.4], 10, K0)
        kp = kernel.KernelParams(k0=K0)
        h2 = build.build_h2(geom, kp, CompressionParams(1e-13, 1e-13), n_min=8)
        dense = kernel.assemble_dense(geom, kp)
        assert build.rep_error(h2, dense) <= 1e-12

    @pytest.mark.parametrize("shape, extent", [("rod", [16.4]), ("slab", [2.0, 2.0])])
    def test_rep_error_tracks_small_eps(self, shape, extent):
        # every rank decision must resolve singular values far below
        # 1e-8 * s_1, which a truncation of squared ones (Gram matrices)
        # cannot, for the error to keep falling with eps
        eps = 1e-12
        geom = kernel.generate_geometry(shape, extent, 10, K0)
        kp = kernel.KernelParams(k0=K0)
        h2 = build.build_h2(geom, kp, CompressionParams(eps, eps), n_min=16)
        dense = kernel.assemble_dense(geom, kp)
        assert build.rep_error(h2, dense) <= 10 * eps

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

    @pytest.mark.parametrize("size", [0, 3], ids=["empty", "short"])
    def test_per_voxel_eps_r_of_wrong_length_is_named(self, size):
        geom = kernel.generate_geometry("rod", [1.0], 10, K0)
        with pytest.raises(ValueError, match="per-voxel eps_r has wrong length"):
            build.build_h2(geom, kernel.KernelParams(k0=K0, eps_r=np.full(size, 2.54)),
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

    def test_stage_one_factors_freed_before_near_field(self, monkeypatch):
        # the near-field rows are allocated while nothing holds the Stage I
        # factors any more, which lowers the build's peak memory
        class Factors(dict):
            pass  # a plain dict takes no weak reference

        refs = []
        alive = []
        stage_one = build.build_all_cluster_ab
        near_field = build._near_field

        def tracked_stage_one(*args):
            out = Factors(stage_one(*args))
            refs.append(weakref.ref(out))
            return out

        def probed_near_field(*args):
            gc.collect()
            alive.append(refs[0]() is not None)
            return near_field(*args)

        monkeypatch.setattr(build, "build_all_cluster_ab", tracked_stage_one)
        monkeypatch.setattr(build, "_near_field", probed_near_field)
        geom = kernel.generate_geometry("rod", [6.4], 10, K0)
        build.build_h2(geom, kernel.KernelParams(k0=K0), CompressionParams(1e-4, 1e-4), n_min=8)
        assert alive == [False]

    def test_basis_holds_its_fields_only(self, slab22, rng):
        # NestedBasis is fixed after construction: applies, inverses,
        # products and copies derive what they need per call and leave the
        # shared basis with the same five objects and the same bytes
        _, _, h2, _ = slab22
        basis = h2.basis
        fields = dict(vars(basis))
        assert set(fields) == {"tree", "ranks", "leaf_v", "transfers", "schedule"}

        def stacks():
            return [stack.tobytes() for *_, stack in basis.schedule.steps]

        before = stacks(), dict(basis.ranks)
        x = rng.standard_normal((h2.n, 3)) + 1j * rng.standard_normal((h2.n, 3))
        arith.matvec(h2, x[:, 0])
        arith.matmat_apply(h2, x)
        inv = arith.h2_invert(h2)
        arith.h2_mul_formatted(h2, inv)
        h2.copy()
        assert vars(basis).keys() == fields.keys()
        assert all(vars(basis)[k] is v for k, v in fields.items())
        assert (stacks(), dict(basis.ranks)) == before

    @pytest.mark.parametrize("shape, extent, n_min", [
        ("rod", [409.6], 32), ("cube_array", [3, 2, 2], 16), ("slab", [3.5, 3.5], 32)])
    def test_arithmetic_leaves_no_memory_behind(self, shape, extent, n_min):
        # the explicit bases, their conjugates and the overlaps that the
        # inverse and the product form die with the call: once both return
        # and their results are deleted, the operator holds what it held.
        # numpy keeps freed buffers of up to 1024 bytes for reuse, a
        # process cache of a few kB that grows as new sizes come, so the
        # count covers the traced blocks above that size
        geom = kernel.generate_geometry(shape, extent, 10, K0)
        h2 = build.build_h2(geom, kernel.KernelParams(k0=K0), CompressionParams(1e-4, 1e-4),
                            n_min=n_min)
        arith.matvec(h2, np.ones(h2.n, dtype=complex))  # warm-up: keeps the q = 1 panel plan
        gc.collect()

        def held():
            return sum(t.size for t in tracemalloc.take_snapshot().traces if t.size > 1024)

        tracemalloc.start()
        try:
            before = held()
            inv = arith.h2_invert(h2)
            prod = arith.h2_mul_formatted(h2, inv)
            del inv, prod
            gc.collect()
            grown = held() - before
        finally:
            tracemalloc.stop()
        assert grown <= 0.02 * h2.storage_bytes(), grown

    def test_inverses_of_one_operator_are_bitwise_equal(self, slab22):
        _, _, h2, _ = slab22
        first = arith.h2_invert(h2)
        again = arith.h2_invert(h2)
        for blocks, ref in ((first.coupling, again.coupling), (first.dense, again.dense)):
            assert blocks.keys() == ref.keys()
            assert all(np.array_equal(p, ref[k]) for k, p in blocks.items())

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
