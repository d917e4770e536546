import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from h2vie import clustering as cl
from h2vie import kernel


def _line(n):
    pts = np.zeros((n, 3))
    pts[:, 0] = np.arange(n)
    return pts


def _box_cluster(lo, hi, cid=0):
    return cl.Cluster(cid, 0, 1, 0, np.asarray(lo, float), np.asarray(hi, float))


class TestClusterTree:
    def test_collinear_points_forced_shape(self):
        t = cl.ClusterTree(_line(8), n_min=2)
        assert t.depth == 3
        assert sorted(t.cluster(c).size for c in t.leaves()) == [2, 2, 2, 2]

    def test_small_set_is_single_leaf(self):
        t = cl.ClusterTree(_line(3), n_min=4)
        assert len(t) == 1 and t.cluster(t.root).is_leaf

    def test_odd_split_is_balanced(self):
        t = cl.ClusterTree(_line(7), n_min=2)
        root = t.cluster(t.root)
        sizes = {t.cluster(root.child_lo).size, t.cluster(root.child_hi).size}
        assert sizes == {4, 3}

    @pytest.mark.parametrize("n_min", [0, 1])
    def test_nmin_zero_rejected(self, n_min):
        with pytest.raises(ValueError, match="n_min must be >= 2"):
            cl.ClusterTree(_line(4), n_min=n_min)

    def test_one_leaf_level(self, rng):
        # rod130 and cube3 have level sizes that straddle n_min; stopping each
        # branch at n_min points would put their leaves on two levels
        k0 = 2 * np.pi
        cases = [
            (kernel.generate_geometry("rod", [13.0], 10, k0).centers, 32),  # N = 130
            (kernel.generate_geometry("cube_array", [3, 1, 1], 10, k0).centers, 20),  # N = 81
            (rng.normal(size=(137, 3)), 6),
            (rng.normal(size=(1000, 3)), 32),
            (_line(7), 2),
        ]
        for pts, n_min in cases:
            t = cl.ClusterTree(pts, n_min)
            leaves = [t.cluster(c) for c in t.leaves()]
            assert {c.level for c in leaves} == {t.depth - 1}
            assert max(c.size for c in leaves) <= n_min
            if t.depth > 1:
                assert max(t.cluster(c).size for c in t.levels[t.depth - 2]) > n_min
            bt = cl.build_block_tree(t, 1.0)
            assert all(t.cluster(a).level == t.cluster(b).level for a, b in bt.nodes)

    def test_duplicate_points_are_legal(self):
        pts = np.zeros((6, 3))
        pts[:3, 0] = 1.0  # two triplets of coincident points
        t = cl.ClusterTree(pts, n_min=2)
        assert sum(t.cluster(c).size for c in t.leaves()) == 6

    def test_balanced_split_invariant(self, rng):
        t = cl.ClusterTree(rng.normal(size=(137, 3)), n_min=6)
        for c in t.clusters:
            if not c.is_leaf:
                assert abs(t.cluster(c.child_lo).size - t.cluster(c.child_hi).size) <= 1

    def test_children_partition_parent(self, rng):
        t = cl.ClusterTree(rng.normal(size=(64, 3)), n_min=4)
        for c in t.clusters:
            if not c.is_leaf:
                lo, hi = t.cluster(c.child_lo), t.cluster(c.child_hi)
                assert (lo.start, hi.stop) == (c.start, c.stop)
                assert lo.stop == hi.start

    def test_permutation_is_a_bijection(self, rng):
        t = cl.ClusterTree(rng.normal(size=(50, 3)), n_min=4)
        assert sorted(t.perm) == list(range(50))


class TestAdmissibility:
    def test_unit_cubes_at_distance_two(self):
        a = _box_cluster([0, 0, 0], [1, 1, 1])
        b = _box_cluster([3, 0, 0], [4, 1, 1], cid=1)
        # max diam sqrt(3) ~ 1.732 <= eta * dist = 2
        assert cl.is_admissible(a, b, 1.0)

    def test_self_is_never_admissible(self):
        a = _box_cluster([0, 0, 0], [1, 1, 1])
        assert not cl.is_admissible(a, a, 1.0)

    def test_touching_boxes_never_admissible(self):
        a = _box_cluster([0, 0, 0], [1, 1, 1])
        b = _box_cluster([1, 0, 0], [2, 1, 1], cid=1)
        assert not cl.is_admissible(a, b, 1e6)

    def test_eta_must_be_positive(self):
        a = _box_cluster([0, 0, 0], [1, 1, 1])
        with pytest.raises(ValueError):
            cl.is_admissible(a, a, 0.0)

    @pytest.mark.parametrize("eta,n_min", [(np.nan, 16), (np.inf, 16), (np.nan, 400),
                                           (np.inf, 400)],
                             ids=["nan", "inf", "nan-one-leaf", "inf-one-leaf"])
    def test_eta_must_be_finite(self, eta, n_min):
        # a NaN eta admits no block, an infinite one multiplies 0 * inf; a
        # one-leaf tree (n_min >= N = 400) still checks its root pair
        geom = kernel.generate_geometry("slab", [2, 2], 10, 2 * np.pi)
        t = cl.ClusterTree(geom.centers, n_min)
        with pytest.raises(ValueError, match="eta must be positive and finite"):
            cl.build_block_tree(t, eta)

    @settings(max_examples=50, deadline=None)
    @given(data=st.lists(st.floats(-5, 5), min_size=12, max_size=12),
           eta=st.floats(0.1, 3))
    def test_symmetric_in_arguments(self, data, eta):
        v = np.asarray(data).reshape(4, 3)
        a = _box_cluster(np.minimum(v[0], v[1]), np.maximum(v[0], v[1]))
        b = _box_cluster(np.minimum(v[2], v[3]), np.maximum(v[2], v[3]), cid=1)
        assert cl.is_admissible(a, b, eta) == cl.is_admissible(b, a, eta)


class TestBlockTree:
    def test_single_leaf_tree(self):
        t = cl.ClusterTree(_line(3), n_min=4)
        bt = cl.build_block_tree(t, 1.0)
        assert bt.admissible == []
        assert bt.inadmissible == [(t.root, t.root)]

    def test_two_separated_leaf_clusters(self):
        pts = np.array([[0.0, 0, 0], [0.1, 0, 0], [10.0, 0, 0], [10.1, 0, 0]])
        t = cl.ClusterTree(pts, n_min=2)
        bt = cl.build_block_tree(t, 1.0)
        assert len(bt.admissible) == 2
        assert len(bt.inadmissible) == 2

    @pytest.mark.parametrize("n,n_min", [(1024, 32), (5, 2), (137, 6)])
    def test_leaves_tile_the_index_square(self, n, n_min, rng):
        if n == 1024:
            geom = kernel.generate_geometry("rod", [102.4], 10, 2 * np.pi)
            pts = geom.centers
        else:
            pts = rng.normal(size=(n, 3))
        t = cl.ClusterTree(pts, n_min)
        bt = cl.build_block_tree(t, 1.0)
        assert cl.tiling_checksum(bt, t) == n * n

    def test_admissible_never_within_own_ancestry(self):
        geom = kernel.generate_geometry("rod", [51.2], 10, 2 * np.pi)
        t = cl.ClusterTree(geom.centers, 16)
        bt = cl.build_block_tree(t, 1.0)
        for a, b in bt.admissible:
            assert a != b
            assert b not in t.ancestors(a)
            assert a not in t.ancestors(b)

    @pytest.mark.parametrize("geometry,eta", [
        (("slab", [3.5, 3.5]), 1.0), (("slab", [4.0, 4.0]), 1.0),
        (("cube_array", [5, 3, 3]), 1.0), ("cloud", 0.5), ("cloud", 2.0),
    ], ids=["slab3.5", "slab4", "cube533", "cloud-eta0.5", "cloud-eta2"])
    def test_every_node_agrees_with_the_predicate(self, geometry, eta, rng):
        # The slabs hold exact ties diam == eta * dist (slab 3.5 x 3.5 at 0.5,
        # slab 4 x 4 at 2.10237960416286...), which a row reduction that sums
        # in another order than np.linalg.norm flips. Every node, not only the
        # admissible leaves, is admissible exactly when is_admissible holds
        # for its pair, and so when the per-pair norm rule does.
        def norm_rule(t, s):
            gap = np.maximum(0.0, np.maximum(s.bbox_lo - t.bbox_hi, t.bbox_lo - s.bbox_hi))
            diam = max(np.linalg.norm(c.bbox_hi - c.bbox_lo) for c in (t, s))
            return np.linalg.norm(gap) > 0.0 and diam <= eta * np.linalg.norm(gap)

        if geometry == "cloud":
            pts, n_min = rng.normal(size=(2000, 3)), 16
        else:
            pts, n_min = kernel.generate_geometry(*geometry, 10, 2 * np.pi).centers, 32
        t = cl.ClusterTree(pts, n_min)
        bt = cl.build_block_tree(t, eta)
        for (a, b), kind in bt.nodes.items():
            ca, cb = t.cluster(a), t.cluster(b)
            assert (kind == cl.ADMISSIBLE) == cl.is_admissible(ca, cb, eta) == norm_rule(ca, cb)

    def test_inadmissible_only_between_leaves(self):
        geom = kernel.generate_geometry("slab", [2, 2], 10, 2 * np.pi)
        t = cl.ClusterTree(geom.centers, 16)
        bt = cl.build_block_tree(t, 1.0)
        for a, b in bt.inadmissible:
            assert t.cluster(a).is_leaf and t.cluster(b).is_leaf


class TestSparsityConstant:
    def test_single_leaf_gives_zero(self):
        t = cl.ClusterTree(_line(3), n_min=4)
        bt = cl.build_block_tree(t, 1.0)
        _, csp = cl.sparsity_constant(bt, t)
        assert csp == 0

    @pytest.mark.parametrize("length", [25.6, 51.2, 102.4])
    def test_rod_stays_small(self, length):
        geom = kernel.generate_geometry("rod", [length], 10, 2 * np.pi)
        t = cl.ClusterTree(geom.centers, 32)
        bt = cl.build_block_tree(t, 1.0)
        _, csp = cl.sparsity_constant(bt, t)
        assert 0 < csp <= 4

    def test_cube_array_grows_with_size(self):
        csps = []
        for count in (1, 2, 3):
            geom = kernel.generate_geometry("cube_array", [count] * 3, 10, 2 * np.pi)
            t = cl.ClusterTree(geom.centers, 32)
            bt = cl.build_block_tree(t, 1.0)
            csps.append(cl.sparsity_constant(bt, t)[1])
        assert csps == sorted(csps)
        assert csps[-1] > csps[0]
