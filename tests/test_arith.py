import tracemalloc
import warnings

import numpy as np
import pytest

from h2vie import arith, bench, build, kernel
from h2vie.arith import (
    SingularLeafError,
    _invert_rec,
    _mul_into,
    _mul_walk,
    _subtree_leaves,
    StructureMismatchError,
    apply_inverse_solve,
    bicgstab_solve,
    h2_add_formatted,
    h2_invert,
    h2_mul_formatted,
    h2_zeros_like,
    matmat_apply,
    matvec,
)
from h2vie.linalg import CompressionParams

from conftest import apply_rtol

K0 = 2.0 * np.pi


def _identity_h2(length=6.4, n_min=8):
    geom = kernel.generate_geometry("rod", [length], 10, K0)
    kp = kernel.KernelParams(k0=K0, eps_r=1.0)
    return geom, build.build_h2(geom, kp, CompressionParams(1e-4, 1e-4), n_min=n_min)


def _cvec(rng, n):
    return rng.standard_normal(n) + 1j * rng.standard_normal(n)


def _operator(kind, dims, n_min):
    """(geometry, kernel parameters, representation, dense matrix)."""
    geom = kernel.generate_geometry(kind, dims, 10, K0)
    kp = kernel.KernelParams(k0=K0)
    h2 = build.build_h2(geom, kp, CompressionParams(1e-4, 1e-4), n_min=n_min)
    return geom, kp, h2, kernel.assemble_dense(geom, kp)


# rod130 and cube3 are the trees whose level sizes straddle n_min: one
# level holds clusters of n_min and n_min + 1 points, so a tree that
# stopped each branch at n_min points would have leaves on two levels.
# Every branch is split down to one leaf level instead.


@pytest.fixture(scope="module")
def rod130():
    """13 wavelength rod, N = 130, leaves of 16 or 17 points at level 3."""
    return _operator("rod", [13.0], 32)


@pytest.fixture(scope="module")
def cube3():
    """3 x 1 x 1 cube array, N = 81, leaves of 10 or 11 points at level 3."""
    return _operator("cube_array", [3, 1, 1], 20)


@pytest.fixture(scope="module")
def slab35():
    """3.5 x 3.5 wavelength slab, N = 1225."""
    return _operator("slab", [3.5, 3.5], 32)


@pytest.fixture(scope="module")
def cube533():
    """5 x 3 x 3 cube array, N = 1215: the large near field of cube-direct."""
    return _operator("cube_array", [5, 3, 3], 32)


def _leaf_levels(h2):
    return {h2.tree.cluster(c).level for c in h2.tree.leaves()}


class TestMatvec:
    def test_zero_maps_to_zero(self, rod164):
        _, _, h2, _ = rod164
        assert np.array_equal(matvec(h2, np.zeros(h2.n)), np.zeros(h2.n))

    def test_identity_model_is_identity(self, rng):
        geom, h2 = _identity_h2()
        x = _cvec(rng, geom.n)
        assert np.linalg.norm(matvec(h2, x) - x) <= apply_rtol(h2, 0.0) * np.linalg.norm(x)

    def test_matches_dense_oracle(self, rod164, rng):
        _, _, h2, dense = rod164
        for _ in range(20):
            x = _cvec(rng, h2.n)
            ref = dense @ x
            err = np.linalg.norm(matvec(h2, x) - ref) / np.linalg.norm(ref)
            assert err <= 10 * h2.params.eps_acc

    def test_linearity(self, rod164, rng):
        _, _, h2, _ = rod164
        x1, x2 = _cvec(rng, h2.n), _cvec(rng, h2.n)
        double = _with_params(h2, 1e-5)
        for m in (h2, double):
            lin = bench.linearity_defect(lambda x: matvec(m, x), x1, x2)
            assert lin <= bench.linearity_bound(m)
        assert bench.linearity_bound(double) == 1e-12 < bench.linearity_bound(h2)

    def test_linearity_holds_on_the_large_near_field(self, cube533, rng):
        # cube_array 5x3x3 read 1.3e-6 on the old ||S x1|| scale, above
        # its bound; on the combined norms it reads about 1.5e-7
        h2 = cube533[2]
        for _ in range(3):
            lin = bench.linearity_defect(lambda x: matvec(h2, x), _cvec(rng, h2.n),
                                         _cvec(rng, h2.n))
            assert lin <= bench.linearity_bound(h2)

    def test_linearity_catches_a_reused_output_buffer(self, rod164, rng):
        _, _, h2, _ = rod164
        out = np.empty(h2.n, dtype=complex)

        def reusing(x):
            out[:] = matvec(h2, x)
            return out

        lin = bench.linearity_defect(reusing, _cvec(rng, h2.n), _cvec(rng, h2.n))
        assert lin > 0.1 > bench.linearity_bound(h2)

    def test_dimension_mismatch_rejected(self, rod164):
        _, _, h2, _ = rod164
        with pytest.raises(ValueError):
            matvec(h2, np.zeros(h2.n + 1))


class TestMatmat:
    def test_single_column_equals_matvec(self, rod164, rng):
        _, _, h2, _ = rod164
        x = _cvec(rng, h2.n)
        out = matmat_apply(h2, x[:, None])
        assert np.allclose(out[:, 0], matvec(h2, x), atol=1e-14)

    def test_identity_columns_reconstruct_dense(self, rod164):
        _, _, h2, dense = rod164
        rec = matmat_apply(h2, np.eye(h2.n, dtype=complex))
        err = np.linalg.norm(rec - dense) / np.linalg.norm(dense)
        assert err <= 10 * h2.params.eps_acc

    def test_zero_block(self, rod164):
        _, _, h2, _ = rod164
        out = matmat_apply(h2, np.zeros((h2.n, 3), dtype=complex))
        assert np.array_equal(out, np.zeros((h2.n, 3)))

    def test_chunking_is_invisible(self, rod164, rng):
        # a block far wider than any caller's (at most 64 columns)
        _, _, h2, _ = rod164
        x = rng.standard_normal((h2.n, 300)) + 1j * rng.standard_normal((h2.n, 300))
        exact = build.materialize(h2) @ x
        err = np.linalg.norm(matmat_apply(h2, x) - exact)
        assert err <= apply_rtol(h2, 1e-12) * np.linalg.norm(exact)


@pytest.fixture(scope="module")
def slab400():
    """2 x 2 wavelength slab, N = 400."""
    geom = kernel.generate_geometry("slab", [2.0, 2.0], 10, K0)
    kp = kernel.KernelParams(k0=K0)
    return build.build_h2(geom, kp, CompressionParams(1e-4, 1e-4), n_min=32)


def _row_pairs(blocks):
    """Pairs of distinct blocks that share a target cluster."""
    by_target = {}
    for (t, s), p in blocks.items():
        if p.size:
            by_target.setdefault(t, []).append(p)
    return [(row[0], row[1]) for row in by_target.values() if len(row) > 1]


class TestBlockRows:
    def test_apply_matches_materialized(self, slab400, cube2, rng):
        for h2 in (slab400, cube2[2]):
            x = rng.standard_normal((h2.n, 3)) + 1j * rng.standard_normal((h2.n, 3))
            exact = build.materialize(h2) @ x
            scale = apply_rtol(h2, 1e-12) * np.linalg.norm(exact)
            assert np.linalg.norm(matmat_apply(h2, x) - exact) <= scale
            assert np.linalg.norm(matvec(h2, x[:, 0]) - exact[:, 0]) <= scale

    def test_in_place_change_through_view_is_applied(self, rng):
        geom = kernel.generate_geometry("rod", [16.4], 10, K0)
        h2 = build.build_h2(geom, kernel.KernelParams(k0=K0),
                            CompressionParams(1e-4, 1e-4), n_min=16)
        x = _cvec(rng, h2.n)
        before = matvec(h2, x)
        h2.dense[(h2.tree.leaves()[0], h2.tree.leaves()[1])] *= 2.0
        h2.coupling[next(k for k, s in h2.coupling.items() if s.size)] *= -1.0
        ref = build.materialize(h2) @ x
        after = matvec(h2, x)
        assert np.linalg.norm(after - ref) <= apply_rtol(h2, 1e-12) * np.linalg.norm(ref)
        assert np.linalg.norm(after - before) > 1e-3 * np.linalg.norm(ref)

    def test_build_shares_one_buffer_per_row(self, slab400):
        _assert_one_buffer_per_row(slab400)

    def test_arithmetic_results_are_contiguous_per_block(self, slab400):
        # the arithmetic's results have the constructor's layout: each
        # block is a view of its row's one C-contiguous buffer, and the
        # buffers are their own
        h2 = slab400
        for m in (h2.copy(), h2_zeros_like(h2), h2_invert(h2), h2_mul_formatted(h2, h2)):
            _assert_one_buffer_per_row(m)
            for blocks, own in ((m.coupling, h2.coupling), (m.dense, h2.dense)):
                assert not any(np.may_share_memory(p, own[k]) for k, p in blocks.items())


def _assert_one_buffer_per_row(m):
    """Blocks with one target share one row buffer, the one the apply reads."""
    for blocks, rows in ((m.coupling, m.far_rows), (m.dense, m.near_rows)):
        pairs = _row_pairs(blocks)
        assert pairs
        assert all(a.base is not None and a.base is b.base for a, b in pairs)
        bufs = {id(p.base) for p in blocks.values() if p.size}
        assert bufs == {id(buf) for _, _, buf, _ in rows}
        assert all(buf.flags.c_contiguous for _, _, buf, _ in rows)
        assert len(rows) == len({t for (t, _), p in blocks.items() if p.size})


def _assert_applies_materialized(h2, x):
    exact = build.materialize(h2) @ x
    got = matmat_apply(h2, x)
    assert np.linalg.norm(got - exact) <= apply_rtol(h2, 1e-13) * np.linalg.norm(exact)


class TestSlotApply:
    """The apply in the padded slot layout of NestedBasis.schedule."""

    @pytest.mark.parametrize("q", [1, 3, 300])
    @pytest.mark.parametrize("name", ["rod130", "slab35", "cube533"])
    def test_matches_materialized(self, name, q, request, rng):
        # rod130's leaves hold 16 or 17 points, so its leaf slots are padded
        h2 = request.getfixturevalue(name)[2]
        x = rng.standard_normal((h2.n, q)) + 1j * rng.standard_normal((h2.n, q))
        _assert_applies_materialized(h2, x)
        # a copy: the same rows in new buffers
        _assert_applies_materialized(h2.copy(), x)

    @pytest.mark.parametrize("part", ["no_far", "no_near", "sweep_only"])
    def test_without_couplings_or_near_field(self, slab35, part, rng):
        _, _, h2, _ = slab35
        coupling = {} if part in ("no_far", "sweep_only") else h2.coupling
        dense = {} if part in ("no_near", "sweep_only") else h2.dense
        m = build.H2Matrix(h2.tree, h2.btree, h2.basis, coupling, dense, h2.params)
        x = rng.standard_normal((h2.n, 3)) + 1j * rng.standard_normal((h2.n, 3))
        if part == "sweep_only":
            assert np.array_equal(matmat_apply(m, x), np.zeros_like(x))
        else:
            _assert_applies_materialized(m, x)

    def test_one_leaf_tree(self, rng):
        geom = kernel.generate_geometry("rod", [1.6], 10, K0)
        h2 = build.build_h2(geom, kernel.KernelParams(k0=K0),
                            CompressionParams(1e-4, 1e-4), n_min=32)
        assert h2.tree.depth == 1 and not h2.coupling
        assert len(h2.basis.schedule.steps) == 1
        _assert_applies_materialized(h2, _cvec(rng, h2.n)[:, None])

    def test_rank_zero_levels(self, rng):
        # identity model: every basis has rank 0, so every level's slots are empty
        geom, h2 = _identity_h2()
        sched = h2.basis.schedule
        assert sched.size == 0 and len(sched.steps) == h2.tree.depth > 1
        x = rng.standard_normal((h2.n, 3)) + 1j * rng.standard_normal((h2.n, 3))
        assert np.linalg.norm(matmat_apply(h2, x) - x) <= apply_rtol(h2, 0.0) * np.linalg.norm(x)

    @pytest.mark.parametrize("name", ["rod130", "cube533"])
    def test_one_stacked_step_per_level(self, name, request):
        h2 = request.getfixturevalue(name)[2]
        tree, basis = h2.tree, h2.basis
        sched = basis.schedule
        assert len(sched.steps) == tree.depth
        for lvl, (lo, hi, c_lo, c_hi, stack) in zip(reversed(range(tree.depth)),
                                                    sched.steps):
            level = tree.levels[lvl]
            p, n_in, k = stack.shape
            assert p == len(level) == 2**lvl and hi - lo == p * k
            assert c_hi - c_lo == p * n_in
            for pos, cid in enumerate(level):
                assert sched.spans[cid] == (lo + pos * k, lo + pos * k + basis.rank(cid))
                if tree.cluster(cid).is_leaf:
                    assert sched.cells[cid][0] == pos * n_in
                    blocks = [(0, basis.leaf_v[cid])]
                else:
                    blocks = zip((0, n_in // 2), basis.transfers[cid])
                expect = np.zeros((n_in, k), dtype=complex)
                for row, b in blocks:
                    expect[row:row + b.shape[0], :b.shape[1]] = b
                    assert b.base is stack  # a view into its level's stack, no copy
                assert np.array_equal(stack[pos], expect)
        # the stacks are the bases' only store: nothing else lies behind the views
        views = [*basis.leaf_v.values(), *(t for pair in basis.transfers.values() for t in pair)]
        owners = {id(v.base): v.base for v in views}
        assert len(owners) == tree.depth
        assert (sum(a.nbytes for a in owners.values())
                == sum(stack.nbytes for *_, stack in sched.steps))

    @pytest.mark.parametrize("name", ["rod130", "slab35", "cube533"])
    def test_gather_equals_per_block_ranges(self, name, request):
        # one vectorized index from the spans, equal to the concatenated
        # per-block aranges of each stage's non-empty blocks in row order
        h2 = request.getfixturevalue(name)[2]
        sched = h2.basis.schedule
        for blocks, span, gather in ((h2.coupling, sched.spans, h2.far_src),
                                     (h2.dense, sched.cells, h2.near_src)):
            sources = {}
            for (t, s), p in blocks.items():
                if p.size:
                    sources.setdefault(t, []).append(s)
            ref = np.concatenate([np.arange(*span[s]) for row in sources.values()
                                  for s in row])
            assert gather.dtype == np.intp and np.array_equal(gather, ref)


def _stage_rows(m):
    """m's (rows, gather) per row stage, in the order the apply runs them."""
    return iter([(m.far_rows, m.far_src), (m.near_rows, m.near_src)])


def _rows_one_gather_each(m):
    """The row stages with one gather per row, from m's rows: the plan's reference."""
    stages = _stage_rows(m)

    def write_rows(y, x, plan):
        rows, gather = next(stages)
        for lo, hi, buf, src in rows:
            y[lo:hi] += buf @ x[gather[src]]

    return write_rows


class _GatherSpy(np.ndarray):
    """A stage input that records the index of every read from it."""

    def __getitem__(self, key):
        self.keys.append(key)
        return np.asarray(self)[key]


@pytest.fixture(scope="module")
def row_families():
    return {}


def _row_family(row_families, request, name, eps):
    """Every kind of H2Matrix the apply serves, built from fixture `name` at eps.

    At eps 1e-5 the operator's blocks are upcast exactly, so its payloads
    are complex128; the empty-stage operators are built as perfbench's
    per-layer timing builds them.
    """
    key = (name, eps)
    if key not in row_families:
        h2 = _with_params(request.getfixturevalue(name)[2], eps)
        tree, btree, basis, params = h2.tree, h2.btree, h2.basis, h2.params
        row_families[key] = {
            "operator": h2,
            "inverse": h2_invert(h2),
            "product": h2_mul_formatted(h2, h2),
            "copy": h2.copy(),
            "no_far": build.H2Matrix(tree, btree, basis, {}, h2.dense, params),
            "no_near": build.H2Matrix(tree, btree, basis, h2.coupling, {}, params),
            "sweep_only": build.H2Matrix(tree, btree, basis, {}, {}, params),
        }
    return row_families[key]


ROW_NAMES = ["rod130", "slab35", "cube533"]


class TestPanelApply:
    """Each row stage writes its rows in place, gathering inputs in panels of whole rows."""

    @pytest.mark.parametrize("q", [1, 3, 16, 64])
    @pytest.mark.parametrize("name", ROW_NAMES)
    def test_equals_one_gather_per_row(self, name, q, request, row_families, rng,
                                       monkeypatch):
        for eps, dtype in ((1e-4, np.complex64), (1e-5, np.complex128)):
            family = _row_family(row_families, request, name, eps)
            n = family["operator"].n
            x = rng.standard_normal((n, q)) + 1j * rng.standard_normal((n, q))
            for m in family.values():
                assert m.params.payload_dtype == dtype
                got = matmat_apply(m, x)
                with monkeypatch.context() as mp:
                    mp.setattr(arith, "_write_rows", _rows_one_gather_each(m))
                    ref = matmat_apply(m, x)
                assert np.array_equal(got, ref)

    @pytest.mark.parametrize("eps", [1e-4, 1e-5])
    @pytest.mark.parametrize("name", ROW_NAMES)
    def test_one_row_per_target_per_stage(self, name, eps, request, row_families):
        # the in-place write's precondition: no two rows of a stage share
        # an output row
        for m in _row_family(row_families, request, name, eps).values():
            sched = m.basis.schedule
            for rows, n_out in ((m.far_rows, sched.size), (m.near_rows, sched.n_rows)):
                spans = sorted((lo, hi) for lo, hi, _, _ in rows)
                assert all(0 <= lo < hi <= n_out for lo, hi in spans)
                assert all(hi <= lo for (_, hi), (lo, _) in zip(spans, spans[1:]))

    @staticmethod
    def _spied_stages(m, x, monkeypatch):
        """(input rows, rows, gather, recorded read indices) per stage of one apply."""
        stages = []
        write_rows = arith._write_rows
        stage_rows = _stage_rows(m)

        def spying(y, x_in, plan):
            spy = x_in.view(_GatherSpy)
            spy.keys = []
            stages.append((x_in.shape[0], *next(stage_rows), spy.keys, plan))
            write_rows(y, spy, plan)

        with monkeypatch.context() as mp:
            mp.setattr(arith, "_write_rows", spying)
            matmat_apply(m, x)
        assert [plan for *_, plan in stages] == list(m.panel_plans[x.shape[1]])
        return [stage[:4] for stage in stages]

    @pytest.mark.parametrize("q", [1, 3, 16, 64])
    @pytest.mark.parametrize("name", ROW_NAMES)
    def test_panels_are_whole_rows_within_one_column(self, name, q, request, row_families,
                                                     rng, monkeypatch):
        family = _row_family(row_families, request, name, 1e-4)
        n = family["operator"].n
        x = rng.standard_normal((n, q)) + 1j * rng.standard_normal((n, q))
        for m in family.values():
            for n_in, rows, gather, keys in self._spied_stages(m, x, monkeypatch):
                assert all(isinstance(k, np.ndarray) for k in keys)
                # every source gathered once, in row order
                assert np.array_equal(np.concatenate([gather[:0], *keys]), gather)
                size = {src.start: src.stop - src.start for *_, src in rows}
                edges = np.cumsum([0] + [k.size for k in keys])
                assert set(edges[:-1].tolist()) <= set(size)  # no panel splits a row
                for k, edge in zip(keys, edges):
                    assert 0 < k.size <= n_in  # never more than the stage's input
                    # at most one input column's entries, or a single row
                    assert k.size * q <= n_in or k.size == size[edge]
                # a panel ends only where the next row would overflow it, so
                # two neighbouring panels always hold more than one column
                for k, edge in zip(keys, edges[1:-1]):
                    assert (k.size + size[edge]) * q > n_in
                assert len(keys) < 2 * gather.size * q / n_in + 1

    def test_fewer_gathers_than_rows(self, slab35, monkeypatch):
        h2 = slab35[2]
        x = np.ones((h2.n, 1), dtype=complex)
        for _, rows, _, keys in self._spied_stages(h2, x, monkeypatch):
            assert 1 < len(keys) < len(rows)

    def test_plan_is_built_once_and_reads_the_payloads(self, slab35, rng, monkeypatch):
        h2 = slab35[2]
        m = h2.copy()
        assert not m.panel_plans and not h2_invert(m).panel_plans
        built = []
        stage_plan = arith._stage_plan
        monkeypatch.setattr(arith, "_stage_plan",
                            lambda *args: built.append(args) or stage_plan(*args))
        x = _cvec(rng, h2.n)[:, None]
        first = matmat_apply(m, x)
        assert len(built) == 2 and list(m.panel_plans) == [1]
        assert np.array_equal(matmat_apply(m, x), first) and len(built) == 2
        matmat_apply(m, np.hstack([x, x, x]))
        assert len(built) == 4 and not m.copy().panel_plans
        # the plan holds the row buffers themselves: changes through the
        # block views are applied without a new plan
        plan_bufs = [buf for plan in m.panel_plans[1] for _, part in plan
                     for _, buf, _ in part]
        assert all(b is buf for b, (*_, buf, _) in
                   zip(plan_bufs, [*m.far_rows, *m.near_rows], strict=True))
        m.dense[(h2.tree.leaves()[0], h2.tree.leaves()[1])] *= 2.0
        m.coupling[next(k for k, s in m.coupling.items() if s.size)] *= -1.0
        after = matmat_apply(m, x)
        assert len(built) == 4
        fresh = build.H2Matrix(m.tree, m.btree, m.basis, dict(m.coupling), dict(m.dense),
                               m.params)
        assert np.array_equal(after, matmat_apply(fresh, x))
        assert np.linalg.norm(after - first) > 1e-3 * np.linalg.norm(first)


def _payloads(m):
    return [*m.coupling.values(), *m.dense.values()]


def _with_params(h2, eps):
    """h2's blocks under another eps_acc, and so in its payload dtype."""
    return build.H2Matrix(h2.tree, h2.btree, h2.basis, h2.coupling, h2.dense,
                          CompressionParams(eps, eps))


class TestPayloadPrecision:
    """Couplings and near field are complex64 from eps_acc 1e-4, the rest complex128."""

    @pytest.mark.parametrize("eps, dtype", [(1e-4, np.complex64), (1e-5, np.complex128),
                                            (1e-12, np.complex128)])
    def test_payload_dtype_follows_eps(self, eps, dtype):
        geom = kernel.generate_geometry("rod", [16.4], 10, K0)
        h2 = build.build_h2(geom, kernel.KernelParams(k0=K0), CompressionParams(eps, eps),
                            n_min=16)
        assert h2.params.payload_dtype == dtype
        assert all(p.dtype == dtype for p in _payloads(h2))
        assert all(buf.dtype == dtype for _, _, buf, _ in [*h2.far_rows, *h2.near_rows])
        assert all(stack.dtype == np.complex128 for *_, stack in h2.basis.schedule.steps)

    @pytest.mark.parametrize("eps", [1e-4, 1e-5])
    def test_applies_return_complex128(self, rod164, eps, rng):
        h2 = _with_params(rod164[2], eps)
        x = _cvec(rng, h2.n)
        assert matvec(h2, x).dtype == np.complex128
        assert matmat_apply(h2, np.stack([x, x], axis=1)).dtype == np.complex128

    @pytest.mark.parametrize("eps", [1e-4, 1e-5])
    def test_arithmetic_keeps_payload_dtype(self, rod164, eps):
        h2 = _with_params(rod164[2], eps)
        dtype = h2.params.payload_dtype
        for m in (h2.copy(), h2_zeros_like(h2), h2_mul_formatted(h2, h2), h2_invert(h2)):
            assert all(p.dtype == dtype for p in _payloads(m))

    def test_inverse_of_built_operator_is_symmetric(self, slab35, monkeypatch):
        # rounding is entry by entry, so the complex64 operator is still
        # symmetric bit for bit and the inverse takes the symmetric recursion
        h2 = slab35[2]
        assert h2.params.payload_dtype == np.complex64
        seen = []
        rec = arith._invert_rec

        def spying(m, t, symmetric):
            seen.append(symmetric)
            rec(m, t, symmetric)

        monkeypatch.setattr(arith, "_invert_rec", spying)
        inv = h2_invert(h2)
        assert seen and all(seen)
        assert arith._is_symmetric(inv)

    @pytest.mark.parametrize("kind, dims", [("rod", [13.0]), ("slab", [3.5, 3.5]),
                                            ("cube_array", [5, 3, 3])])
    def test_single_apply_tracks_double_apply(self, kind, dims, rng):
        # the same payloads, built at eps 1e-5, applied in complex128 and
        # rounded to complex64 on the same tree and bases
        geom = kernel.generate_geometry(kind, dims, 10, K0)
        double = build.build_h2(geom, kernel.KernelParams(k0=K0),
                                CompressionParams(1e-5, 1e-5), n_min=32)
        single = _with_params(double, 1e-4)
        assert all(p.dtype == np.complex64 for p in _payloads(single))
        x = rng.standard_normal((double.n, 3)) + 1j * rng.standard_normal((double.n, 3))
        ref = matmat_apply(double, x)
        err = np.linalg.norm(matmat_apply(single, x) - ref) / np.linalg.norm(ref)
        assert err <= apply_rtol(single, 0.0)

    @pytest.mark.parametrize("name", ["slab35", "cube533"])
    def test_single_storage_is_about_half(self, name, request):
        # operators whose payloads outweigh their complex128 bases
        h2 = request.getfixturevalue(name)[2]
        assert h2.storage_bytes() <= 0.55 * _with_params(h2, 1e-5).storage_bytes()


class TestFormattedAdd:
    def test_adding_zero_changes_nothing(self, rod164):
        _, _, h2, _ = rod164
        target = h2.copy()
        h2_add_formatted(target, h2_zeros_like(h2))
        for key, s in target.coupling.items():
            assert np.array_equal(s, h2.coupling[key])
        for key, d in target.dense.items():
            assert np.array_equal(d, h2.dense[key])

    def test_self_cancellation(self, rod164):
        _, _, h2, _ = rod164
        target = h2.copy()
        h2_add_formatted(target, h2, sign=-1)
        for s in target.coupling.values():
            assert np.all(s == 0)
        for d in target.dense.values():
            assert np.all(d == 0)

    def test_leafwise_sum_is_exact(self, rod164):
        _, _, h2, _ = rod164
        b = h2.copy()
        for s in b.coupling.values():
            s *= 2.0
        for d in b.dense.values():
            d *= 2.0
        target = h2.copy()
        h2_add_formatted(target, b)
        for key, s in target.coupling.items():
            assert np.array_equal(s, 3.0 * h2.coupling[key])
        for key, d in target.dense.items():
            assert np.array_equal(d, 3.0 * h2.dense[key])

    def test_structure_mismatch_rejected(self, rod164):
        _, _, h2, _ = rod164
        _, other = _identity_h2(16.4, n_min=16)
        with pytest.raises(StructureMismatchError):
            h2_add_formatted(h2.copy(), other)


class TestFormattedMul:
    def test_multiply_by_structured_identity(self, rod164):
        _, _, h2, _ = rod164
        ident = h2_zeros_like(h2)
        for (t, s), d in ident.dense.items():
            rows = h2.tree.indices(t)
            cols = h2.tree.indices(s)
            d[:] = (rows[:, None] == cols[None, :]).astype(complex)
        prod = h2_mul_formatted(h2, ident)
        ref = build.materialize(h2)
        err = np.linalg.norm(build.materialize(prod) - ref) / np.linalg.norm(ref)
        assert err <= 1e-12

    def test_zero_times_zero(self, rod164):
        _, _, h2, _ = rod164
        z = h2_zeros_like(h2)
        prod = h2_mul_formatted(z, z)
        assert all(np.all(v == 0) for v in prod.coupling.values())
        assert all(np.all(v == 0) for v in prod.dense.values())

    def test_product_matches_dense_product(self, rod164, rod130):
        assert len(_leaf_levels(rod130[2])) == 1
        for _, _, h2, dense in (rod164, rod130):
            prod = h2_mul_formatted(h2, h2)
            ref = dense @ dense
            err = np.linalg.norm(build.materialize(prod) - ref) / np.linalg.norm(ref)
            assert err <= 20 * h2.params.eps_acc

    def test_product_action_matches_composition(self, rod164, rng):
        _, _, h2, _ = rod164
        prod = h2_mul_formatted(h2, h2)
        x = _cvec(rng, h2.n)
        ref = matvec(h2, matvec(h2, x))
        err = np.linalg.norm(matvec(prod, x) - ref) / np.linalg.norm(ref)
        assert err <= 20 * h2.params.eps_acc

    def test_product_of_two_operators(self, rod164, rod130, cube2, cube3):
        # A (x) B and B (x) A for B != A: every other product test squares
        # one operator, which would hide a mix-up of the two operands' blocks
        for (_, _, a, _), bound in ((rod164, 20 * rod164[2].params.eps_acc),
                                    (rod130, 20 * rod130[2].params.eps_acc),
                                    (cube2, 1e-2), (cube3, 1e-2)):
            b = a.copy()
            for d in b.dense.values():
                d *= 1.5
            for s in b.coupling.values():
                s *= 0.5
            dense_a, dense_b = build.materialize(a), build.materialize(b)
            for x, y, ref in ((a, b, dense_a @ dense_b), (b, a, dense_b @ dense_a)):
                prod = build.materialize(h2_mul_formatted(x, y))
                assert np.linalg.norm(prod - ref) / np.linalg.norm(ref) <= bound

    def test_packed_target_rejected(self, rod164):
        # a leaf target takes its sum by zgemm into the block's Fortran
        # view; the block views of a packed (constructor-built) matrix are
        # no contiguous arrays, so zgemm would add into a copy and lose it
        _, _, h2, _ = rod164
        packed = build.H2Matrix(
            h2.tree, h2.btree, h2.basis,
            {k: np.zeros_like(v) for k, v in h2.coupling.items()},
            {k: np.zeros_like(v) for k, v in h2.dense.items()},
            h2.params,
        )
        assert not any(d.flags.c_contiguous for d in packed.dense.values())
        root = h2.tree.root
        with pytest.raises(ValueError, match="C-contiguous complex blocks"):
            _mul_into(packed, h2, h2, root, root, root, 1)

    def test_product_on_cube_array(self, cube2, cube3):
        # 3-D products push more energy outside the fixed bases than 1-D
        # ones; the error stays at the percent level that the direct
        # inverse for this geometry is known to deliver
        assert len(_leaf_levels(cube3[2])) == 1
        for _, _, h2, dense in (cube2, cube3):
            prod = h2_mul_formatted(h2, h2)
            ref = dense @ dense
            err = np.linalg.norm(build.materialize(prod) - ref) / np.linalg.norm(ref)
            assert err <= 1e-2


class TestInverse:
    def test_identity_inverts_to_identity(self, rng):
        geom, h2 = _identity_h2()
        inv = h2_invert(h2)
        x = _cvec(rng, geom.n)
        assert np.allclose(matvec(inv, x), x, atol=1e-13)

    def test_rod_inverse_residual(self, rod164, rod130, cube3, slab35, cube533):
        for m in (rod130, cube3):
            assert len(_leaf_levels(m[2])) == 1
        for _, _, h2, dense in (rod164, rod130, cube3, slab35, cube533):
            inv = h2_invert(h2)
            resid = np.linalg.norm(
                np.eye(h2.n) - dense @ build.materialize(inv)
            ) / np.sqrt(h2.n)
            assert resid <= 5e-2

    def test_packing_keeps_every_block(self, rod164, cube3, slab35):
        # the returned blocks are the working copy's, moved bit for bit
        # after one rounding to the payload dtype
        for _, _, h2, _ in (rod164, cube3, slab35):
            work = arith._working_copy(h2)
            with arith._one_blas_thread():
                _invert_rec(work, h2.tree.root, arith._is_symmetric(h2))
            inv = h2_invert(h2)
            dtype = h2.params.payload_dtype
            for blocks, ref in ((inv.coupling, work.coupling), (inv.dense, work.dense)):
                assert blocks.keys() == ref.keys()
                assert all(p.dtype == dtype and np.array_equal(p, ref[k].astype(dtype))
                           for k, p in blocks.items())

    @pytest.mark.parametrize("name", ["cube533", "slab35"])
    def test_packing_adds_no_second_payload(self, name, request):
        # the recursion's own temporaries set the peak (about 1.4x the
        # result); a pack that kept the working blocks alive while it built
        # the rows would hold two payloads (about 2.1x, and 1.65-1.7x with
        # complex64 rows). The working blocks are complex128 whatever the
        # result is stored in, so the payload is counted at 16 B an entry,
        # and both payload dtypes are packed
        h2 = request.getfixturevalue(name)[2]
        for m in (h2, _with_params(h2, 1e-5)):
            h2_invert(m)  # fills the bases' caches first, which stay
            tracemalloc.start()
            try:
                inv = h2_invert(m)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            payload = sum(16 * p.size for blocks in (inv.coupling, inv.dense)
                          for p in blocks.values())
            assert peak < 1.6 * payload

    def test_input_is_untouched(self, rod164):
        _, _, h2, _ = rod164
        before = {k: v.copy() for k, v in h2.dense.items()}
        h2_invert(h2)
        for key, d in h2.dense.items():
            assert np.array_equal(d, before[key])

    def test_cube_inverse_stochastic_estimate(self, cube2, rng):
        geom, kp, h2, dense = cube2
        inv = h2_invert(h2)
        worst = 0.0
        for _ in range(20):
            v = _cvec(rng, h2.n)
            v /= np.linalg.norm(v)
            worst = max(worst, np.linalg.norm(v - dense @ matvec(inv, v)))
        # same order of magnitude as the reference value 9.03e-3 for this array
        assert worst <= 5e-2

    def test_singular_leaf_reports_cluster(self, rod164):
        # the leftmost leaf is inverted before any Schur update can repair
        # it, so zeroing it must surface as a singular-leaf error
        _, _, h2, _ = rod164
        broken = h2.copy()
        cid = broken.tree.root
        while not broken.tree.cluster(cid).is_leaf:
            cid = broken.tree.cluster(cid).child_lo
        broken.dense[(cid, cid)][:] = 0.0
        with pytest.raises(SingularLeafError) as exc_info:
            h2_invert(broken)
        assert exc_info.value.cluster_id == cid

    def test_non_finite_leaf_reports_cluster(self, rod164):
        # one NaN in the first diagonal leaf must not run through the LU
        # and the products into a non-finite inverse
        _, _, h2, _ = rod164
        broken = h2.copy()
        cid = broken.tree.root
        while not broken.tree.cluster(cid).is_leaf:
            cid = broken.tree.cluster(cid).child_lo
        broken.dense[(cid, cid)][2, 3] = np.nan
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(SingularLeafError, match="not finite") as exc_info:
                h2_invert(broken)
        assert exc_info.value.cluster_id == cid


class TestBlasThreads:
    """The formatted arithmetic runs its BLAS calls at one thread."""

    def _counts(self):
        return [get() for get, _ in arith._openblas_pools()]

    def test_inverse_and_product_run_at_one_thread(self, rod130, monkeypatch):
        if not arith._openblas_pools():
            pytest.skip("no OpenBLAS thread setters loaded")
        _, _, h2, _ = rod130
        seen = []
        for name in ("_invert_rec", "_mul_into"):
            inner = getattr(arith, name)

            def spy(*args, inner=inner, **kwargs):
                seen.append(self._counts())
                return inner(*args, **kwargs)

            monkeypatch.setattr(arith, name, spy)
        before = self._counts()
        h2_invert(h2)
        h2_mul_formatted(h2, h2)
        assert seen and all(counts == [1] * len(before) for counts in seen)
        assert self._counts() == before

    def test_counts_restored_after_an_error(self):
        before = self._counts()
        with pytest.raises(ZeroDivisionError):
            with arith._one_blas_thread():
                1 / 0
        assert self._counts() == before

    def test_missing_setters_are_a_no_op(self, monkeypatch):
        monkeypatch.setattr(arith, "_OPENBLAS_USERS",
                            (("math", ""), ("no_such_module_here", "")))
        assert arith._openblas_pools.__wrapped__() == ()


def _mirrored_pairs(m, t, s):
    """(block, mirror) for every leaf under (t, s) of m, mirror under (s, t)."""
    return [(payloads[(a, b)], payloads[(b, a)])
            for (a, b), payloads in _subtree_leaves(m, t, s)]


class TestSymmetry:
    def test_build_is_symmetric_bit_for_bit(self, rod164, slab35, cube3):
        # the fast path of h2_invert runs only on exactly symmetric input
        for _, _, h2, _ in (rod164, slab35, cube3):
            root = h2.tree.root
            pairs = _mirrored_pairs(h2, root, root)
            assert len(pairs) == len(h2.coupling) + len(h2.dense)
            assert any(p.size for p in h2.coupling.values())
            for p, q in pairs:
                assert np.array_equal(p, q.T)

    def test_symmetric_inverse_is_symmetric_bit_for_bit(self, rod164, cube3, slab35):
        # leaf inverses, Schur complements and S11 updates included, so the
        # inverse is itself a valid exactly symmetric input
        for _, _, h2, _ in (rod164, cube3, slab35):
            inv = h2_invert(h2)
            root = inv.tree.root
            for p, q in _mirrored_pairs(inv, root, root):
                assert np.array_equal(p, q.T)

    def test_upper_walk_keeps_the_upper_targets(self, rod164, cube3, slab35):
        # S22 -= X21 S12 at the root, walked on upper targets only, records
        # exactly the full walk's contributions with t <= r
        def contributions(work):
            return sorted((s, group, t, r) for s, groups in work.items()
                          for group, (ts, rs) in groups.items()
                          for t, r in zip(ts, rs))

        for _, _, h2, _ in (rod164, cube3, slab35):
            lo, hi = h2.tree.cluster(h2.tree.root).children()
            full = contributions(_mul_walk(h2, hi, lo, hi))
            upper = contributions(_mul_walk(h2, hi, lo, hi, upper=True))
            assert any(t > r for _, _, t, r in full)
            assert upper == [c for c in full if c[2] <= c[3]]

    def test_upper_product_leaves_its_block_symmetric(self, rod164, cube3):
        # S22 -= S21 S12 at the root, one product run with `upper`, leaves
        # its lower target leaves mirrored without help from its caller
        for _, _, h2, _ in (rod164, cube3):
            m = arith._working_copy(h2)
            lo, hi = m.tree.cluster(m.tree.root).children()
            _mul_into(m, h2, h2, hi, lo, hi, -1, upper=True)
            pairs = _mirrored_pairs(m, hi, hi)
            assert any(p is not q for p, q in pairs)
            for p, q in pairs:
                assert np.array_equal(p, q.T)

    def test_symmetric_inverse_as_accurate_as_general(self, rod164, cube3, slab35, cube533):
        for _, _, h2, _ in (rod164, cube3, slab35, cube533):
            general = arith._working_copy(h2)
            _invert_rec(general, h2.tree.root, False)
            est_sym = bench.inverse_residual_estimate(
                h2, h2_invert(h2), np.random.default_rng(0))
            est_gen = bench.inverse_residual_estimate(
                h2, arith._pack(general, h2.params), np.random.default_rng(0))
            assert est_sym <= 1.1 * est_gen

    def test_non_symmetric_input_takes_general_path(self, rod164):
        _, _, h2, _ = rod164
        m = h2.copy()
        lo, hi = m.tree.cluster(m.tree.root).children()
        key = max((key for key, payloads in _subtree_leaves(m, lo, hi)
                   if payloads is m.coupling), key=lambda k: m.coupling[k].size)
        m.coupling[key][0, 0] += 1e-2 * np.abs(m.coupling[key]).max()
        inv = h2_invert(m)
        # the general recursion forms S12 itself instead of mirroring S21
        assert not all(np.array_equal(p, q.T) for p, q in _mirrored_pairs(inv, lo, hi))
        resid = np.linalg.norm(
            np.eye(m.n) - build.materialize(m) @ build.materialize(inv)
        ) / np.sqrt(m.n)
        assert resid <= 5e-2


class TestBicgstab:
    def test_identity_converges_immediately(self, rng):
        b = _cvec(rng, 50)
        x, report = bicgstab_solve(lambda v: v, b, tol=1e-10)
        assert report.converged and report.iterations <= 1
        assert np.allclose(x, b)

    def test_zero_rhs(self):
        x, report = bicgstab_solve(lambda v: v, np.zeros(10), tol=1e-3)
        assert report.iterations == 0 and report.converged
        assert np.array_equal(x, np.zeros(10))

    def test_rod_iteration_count(self, rod164):
        geom, kp, h2, _ = rod164
        rhs = kernel.plane_wave_rhs(geom, K0, [0, -1, 0])
        x, report = bicgstab_solve(lambda v: matvec(h2, v), rhs, tol=1e-3)
        assert report.converged
        assert report.iterations <= 10
        assert report.residual_history[-1] <= 1e-3

    def test_residual_history_is_positive_decreasing_tail(self, rod164, rng):
        _, _, h2, _ = rod164
        rhs = _cvec(rng, h2.n)
        _, report = bicgstab_solve(lambda v: matvec(h2, v), rhs, tol=1e-6)
        assert all(r > 0 for r in report.residual_history)
        assert report.residual_history[-1] <= 1e-6

    def test_orthogonal_shadow_triggers_restart_and_recovers(self, rng):
        # shadow residual orthogonal to the rhs: rho == 0 on the first step
        n = 32
        a = np.diag(np.linspace(1, 2, n).astype(complex))
        b = np.ones(n, dtype=complex)
        b[1] = 0.0
        shadow = np.zeros(n, dtype=complex)
        shadow[1] = 1.0  # b^H shadow = 0
        x, report = bicgstab_solve(lambda v: a @ v, b, tol=1e-10, shadow=shadow)
        assert report.converged
        assert report.iterations > 1
        assert np.allclose(a @ x, b, atol=1e-9)
        # the restart takes the residual (here b) as its shadow, so it
        # continues exactly as a solve with the default shadow would
        x_ref, ref = bicgstab_solve(lambda v: a @ v, b, tol=1e-10)
        assert np.array_equal(x, x_ref)
        assert report.residual_history == ref.residual_history

    def test_scale_free(self, rng):
        # the breakdown floor is relative to ||b||, so scaling b scales every
        # iterate and leaves the relative residuals alone; at 1e-170 ||b||^2
        # underflows and at 1e160 it overflows unless the solve rescales b
        n = 50
        a = 2.0 * np.eye(n) + 0.5 * _cvec(rng, n * n).reshape(n, n) / np.sqrt(n)
        b = _cvec(rng, n)
        scales = (1.0, 1e-20, 1e20, 1e-170, 1e160)
        reports = {}
        for scale in scales:
            x, reports[scale] = bicgstab_solve(lambda v: a @ v, scale * b, tol=1e-8)
            assert reports[scale].converged
            # the residual of x / scale: at these scales ||a x - scale b||
            # itself under- or overflows
            assert np.linalg.norm(a @ (x / scale) - b) <= 1e-8 * np.linalg.norm(b)
        ref = reports[1.0]
        for scale in scales[1:]:
            assert reports[scale].iterations == ref.iterations
            np.testing.assert_allclose(reports[scale].residual_history,
                                       ref.residual_history, rtol=1e-10)

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            bicgstab_solve(lambda v: v, np.ones(4), tol=0.0)
        with pytest.raises(ValueError):
            bicgstab_solve(lambda v: v, np.ones(4), tol=1e-3, max_iter=0)

    @pytest.mark.parametrize("rhs,shadow,message", [
        (np.ones((4, 1)), None, r"rhs \(4, 1\), shadow None"),
        (np.ones((4, 2)), None, r"rhs \(4, 2\), shadow None"),
        (np.ones(4), np.ones(5), r"rhs \(4,\), shadow \(5,\)"),
    ], ids=["column-rhs", "two-column-rhs", "long-shadow"])
    def test_shapes_refused_before_any_apply(self, rhs, shadow, message):
        calls = []

        def apply(v):
            calls.append(v)
            return v

        with pytest.raises(ValueError, match=message):
            bicgstab_solve(apply, rhs, shadow=shadow)
        assert not calls

    def test_non_finite_rhs_named(self):
        calls = []

        def apply(v):
            calls.append(v)
            return v

        with pytest.raises(ValueError, match="rhs has a non-finite entry at index 1"):
            bicgstab_solve(apply, [1.0, np.nan, 2.0])
        assert not calls

    @pytest.mark.parametrize("apply,b,shadow", [
        (lambda v: np.zeros_like(v), [1.0, 2.0], None),  # denom == 0
        (lambda v: np.array([[0, 1], [-1, 0]]) @ v, [1.0, 0.0], [1.0, 1.0]),  # omega == 0
        (lambda v: v * np.inf, [1 + 1j, 2 + 1j], None),  # denom not finite
    ], ids=["zero-operator", "zero-omega", "infinite-operator"])
    def test_early_exit_keeps_finite_iterate(self, apply, b, shadow):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            x, report = bicgstab_solve(apply, b, tol=1e-6, shadow=shadow)
        assert report.iterations == 1 and not report.converged
        assert np.all(np.isfinite(x))

    def test_nonconvergence_reported(self, rod164):
        _, _, h2, _ = rod164
        rhs = np.ones(h2.n, dtype=complex)
        _, report = bicgstab_solve(
            lambda v: matvec(h2, v), rhs, tol=1e-14, max_iter=1
        )
        assert not report.converged
        assert report.iterations == 1


class TestInverseSolve:
    def test_identity_returns_excitation(self, rng):
        geom, h2 = _identity_h2()
        inv = h2_invert(h2)
        e = kernel.plane_wave_rhs(geom, K0, [0, -1, 0])
        assert np.allclose(apply_inverse_solve(inv, e), e, atol=1e-13)

    def test_matches_dense_lu_solve(self, rod164):
        geom, kp, h2, dense = rod164
        inv = h2_invert(h2)
        e = kernel.plane_wave_rhs(geom, K0, [0, -1, 0])
        ref = np.linalg.solve(dense, e)
        got = apply_inverse_solve(inv, e)
        assert np.linalg.norm(got - ref) / np.linalg.norm(ref) <= 1e-2

    def test_residual_correction_sharpens_slab_solve(self):
        # one correction sweep squares the effective inverse accuracy,
        # pulling the 2-D direct solve under the dense-LU agreement bound
        geom = kernel.generate_geometry("slab", [2.0, 2.0], 10, K0)
        kp = kernel.KernelParams(k0=K0)
        h2 = build.build_h2(geom, kp, CompressionParams(1e-3, 1e-3), n_min=32)
        dense = kernel.assemble_dense(geom, kp)
        inv = h2_invert(h2)
        e = kernel.plane_wave_rhs(geom, K0, [0, -1, 0])
        ref = np.linalg.solve(dense, e)
        bare = apply_inverse_solve(inv, e)
        refined = apply_inverse_solve(inv, e, operator=h2)
        err_bare = np.linalg.norm(bare - ref) / np.linalg.norm(ref)
        err_refined = np.linalg.norm(refined - ref) / np.linalg.norm(ref)
        assert err_refined <= 1e-2
        assert err_refined < err_bare

    def test_multiple_right_hand_sides(self, rod164, rng):
        _, _, h2, _ = rod164
        inv = h2_invert(h2)
        block = rng.standard_normal((h2.n, 3)) + 1j * rng.standard_normal((h2.n, 3))
        out = apply_inverse_solve(inv, block)
        for j in range(3):
            assert np.allclose(out[:, j], matvec(inv, block[:, j]), atol=1e-14)

    def test_operator_of_another_shape_refused_before_any_apply(self, rod164,
                                                                monkeypatch):
        _, _, h2, _ = rod164
        geom = kernel.generate_geometry("slab", [1.0, 1.0], 10, K0)
        other = build.build_h2(geom, kernel.KernelParams(k0=K0),
                               CompressionParams(1e-4, 1e-4), n_min=16)
        assert other.shape != h2.shape

        def no_apply(*args):
            raise AssertionError("applied before the shapes were checked")

        monkeypatch.setattr(arith, "matvec", no_apply)
        monkeypatch.setattr(arith, "matmat_apply", no_apply)
        e = np.ones(other.n, dtype=complex)
        with pytest.raises(ValueError, match=rf"operator shape \({h2.n}, {h2.n}\) differs "
                                             rf"from inverse's \({other.n}, {other.n}\)"):
            apply_inverse_solve(other, e, operator=h2)

    def test_non_finite_excitation_named(self, rod164):
        _, _, h2, _ = rod164
        e = np.ones(h2.n, dtype=complex)
        e[3] = np.nan
        with pytest.raises(ValueError, match="excitation has a non-finite entry at index 3"):
            apply_inverse_solve(h2, e, operator=h2)
        block = np.ones((h2.n, 2), dtype=complex)
        block[5, 1] = np.inf
        with pytest.raises(ValueError, match=r"at index \(5, 1\)"):
            apply_inverse_solve(h2, block)

    def test_direct_and_iterative_agree(self, rod164):
        geom, kp, h2, _ = rod164
        tol = 1e-3
        e = kernel.plane_wave_rhs(geom, K0, [0, -1, 0])
        x_it, report = bicgstab_solve(lambda v: matvec(h2, v), e, tol=tol)
        assert report.converged
        x_dir = apply_inverse_solve(h2_invert(h2), e)
        rel = np.linalg.norm(x_it - x_dir) / np.linalg.norm(x_dir)
        assert rel <= max(10 * tol, 10 * h2.params.eps_acc)
