import numpy as np
import pytest

from h2vie import arith, build, clustering, kernel
from h2vie.arith import (
    SingularLeafError,
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


# rod130 and cube3 have leaves at two or more tree levels. Uniform-depth
# trees never aim a payload with an identity side at a subdivided target,
# nor meet a dense target under a subdivided operand; these trees do.


@pytest.fixture(scope="module")
def rod130():
    """13 wavelength rod, N = 130, leaves at levels 2 and 3."""
    return _operator("rod", [13.0], 32)


@pytest.fixture(scope="module")
def cube3():
    """3 x 1 x 1 cube array, N = 81; its products run every split branch."""
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
        assert np.array_equal(matvec(h2, x), x)

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
        lhs = matvec(h2, 2.0 * x1 + 3j * x2)
        rhs = 2.0 * matvec(h2, x1) + 3j * matvec(h2, x2)
        assert np.linalg.norm(lhs - rhs) <= 1e-12 * np.linalg.norm(lhs)

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
        # 300 columns cross the fixed chunk width
        _, _, h2, _ = rod164
        x = rng.standard_normal((h2.n, 300)) + 1j * rng.standard_normal((h2.n, 300))
        exact = build.materialize(h2) @ x
        err = np.linalg.norm(matmat_apply(h2, x) - exact)
        assert err <= 1e-12 * np.linalg.norm(exact)


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
            scale = np.linalg.norm(exact)
            assert np.linalg.norm(matmat_apply(h2, x) - exact) <= 1e-12 * scale
            assert np.linalg.norm(matvec(h2, x[:, 0]) - exact[:, 0]) <= 1e-12 * scale

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
        assert np.linalg.norm(after - ref) <= 1e-12 * np.linalg.norm(ref)
        assert np.linalg.norm(after - before) > 1e-3 * np.linalg.norm(ref)

    def test_build_shares_one_buffer_per_row(self, slab400):
        for blocks in (slab400.coupling, slab400.dense):
            pairs = _row_pairs(blocks)
            assert pairs
            assert all(a.base is not None and a.base is b.base for a, b in pairs)

    def test_arithmetic_results_are_contiguous_per_block(self, rod164):
        _, _, h2, _ = rod164
        for m in (h2.copy(), h2_zeros_like(h2), h2_invert(h2)):
            for blocks in (m.coupling, m.dense):
                assert all(p.flags.c_contiguous for p in blocks.values())
                assert not any(np.may_share_memory(a, b) for a, b in _row_pairs(blocks))


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
        assert len(_leaf_levels(rod130[2])) >= 2
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

    def test_dense_target_contributions_are_exact(self, cube3):
        # a dense target takes A[t,s] B[s,r] whole when one operand is
        # subdivided and the other admissible; projecting the subdivided one
        # through a leaf basis would lose it (the basis at t = 5 has rank 0)
        _, _, h2, _ = cube3
        tree, kind = h2.tree, h2.btree.kind
        mixed = {clustering.SUBDIVIDED, clustering.ADMISSIBLE}
        triples = [(t, s, r) for t, r in h2.btree.inadmissible for s in range(len(tree))
                   if {kind((t, s)), kind((s, r))} == mixed]
        assert triples
        full = build.materialize(h2)
        for t, s, r in triples:
            c = h2_zeros_like(h2)
            arith._mul_into(c, h2, h2, t, s, r, 1)
            rows, inner, cols = (tree.indices(x) for x in (t, s, r))
            ref = full[np.ix_(rows, inner)] @ full[np.ix_(inner, cols)]
            got = build.materialize(c)[np.ix_(rows, cols)]
            assert np.linalg.norm(got - ref) <= 1e-12 * np.linalg.norm(ref)

    def test_product_on_cube_array(self, cube2, cube3):
        # 3-D products push more energy outside the fixed bases than 1-D
        # ones; the error stays at the percent level that the direct
        # inverse for this geometry is known to deliver
        assert len(_leaf_levels(cube3[2])) >= 2
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
            assert len(_leaf_levels(m[2])) >= 2
        for _, _, h2, dense in (rod164, rod130, cube3, slab35, cube533):
            inv = h2_invert(h2)
            resid = np.linalg.norm(
                np.eye(h2.n) - dense @ build.materialize(inv)
            ) / np.sqrt(h2.n)
            assert resid <= 5e-2

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
        b = np.zeros(n, dtype=complex)
        b[0] = 1.0
        shadow = np.zeros(n, dtype=complex)
        shadow[1] = 1.0  # b^H shadow = 0
        x, report = bicgstab_solve(
            lambda v: a @ v, b, tol=1e-10, shadow=shadow, seed=3
        )
        assert report.converged
        assert np.allclose(a @ x, b, atol=1e-9)

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            bicgstab_solve(lambda v: v, np.ones(4), tol=0.0)
        with pytest.raises(ValueError):
            bicgstab_solve(lambda v: v, np.ones(4), tol=1e-3, max_iter=0)

    def test_non_finite_rhs_named(self):
        calls = []

        def apply(v):
            calls.append(v)
            return v

        with pytest.raises(ValueError, match="rhs has a non-finite entry at index 1"):
            bicgstab_solve(apply, [1.0, np.nan, 2.0])
        assert not calls

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
