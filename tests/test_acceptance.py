"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the verdict lines.
Tolerances are pinned here and match the benchmark targets; geometry sizes
are desk-scale stand-ins for the reference million-unknown runs.
"""

import numpy as np
import pytest

from h2vie import arith, bench, build, clustering, kernel
from h2vie.config import ExperimentConfig
from h2vie.linalg import CompressionParams

K0 = 2.0 * np.pi

ACCEPTANCE_GEOMETRIES = [
    # (tag, shape, extent, n_min) -- all at 10 voxels per wavelength
    ("rod", "rod", [102.4], 32),  # N = 1024
    ("slab", "slab", [4.0, 4.0], 32),  # N = 1600
    ("cube_array", "cube_array", [4, 4, 4], 32),  # N = 1728
]


def _build(shape, extent, n_min, eps, vpw=10):
    geom = kernel.generate_geometry(shape, extent, vpw, K0)
    kp = kernel.KernelParams(k0=K0)
    h2 = build.build_h2(geom, kp, CompressionParams(eps, eps), n_min=n_min)
    return geom, kp, h2


def _verdict(name, ok, detail):
    print(f"\n[{'PASS' if ok else 'FAIL'}] {name}: {detail}")


def test_criterion_1_representation_accuracy():
    """Representation error <= 0.8% on all three geometries at eps_acc 1e-4."""
    details = []
    ok = True
    for tag, shape, extent, n_min in ACCEPTANCE_GEOMETRIES:
        geom, kp, h2 = _build(shape, extent, n_min, 1e-4)
        assert geom.n <= 2048
        err = build.rep_error(h2, kernel.assemble_dense(geom, kp))
        details.append(f"{tag} N={geom.n} err={err:.2e}")
        ok &= err <= 8e-3
    _verdict("criterion 1: representation accuracy <= 0.8%", ok, "; ".join(details))
    assert ok


def test_criterion_2_rod_rank_constancy():
    """Max basis rank varies by <= 3 across rods of 1 to 16 wavelengths."""
    ranks = []
    for length in (1, 2, 4, 8, 16):
        geom, kp, h2 = _build("rod", [length], 64, 1e-5, vpw=40)
        ranks.append(h2.max_rank())
    spread = max(ranks) - min(ranks)
    _verdict(
        "criterion 2: 1-D rank constancy (spread <= 3)",
        spread <= 3,
        f"ranks={ranks} spread={spread}",
    )
    assert spread <= 3


def test_criterion_3_two_cube_rank_growth():
    """Two-cube coupling rank grows at most linearly per electrical doubling."""
    ranks = []
    for esize in (0.5, 1.0, 2.0):
        geom, k0, rows, cols = bench.two_body_pair(3, esize, 8)
        kp = kernel.KernelParams(k0=k0)
        block = kernel.assemble_block(geom, kp, rows, cols)
        ranks.append(bench.svd_eps_rank(block, 1e-5))
    ratios = [b / a for a, b in zip(ranks, ranks[1:])]
    ok = all(r <= 2.5 for r in ratios)
    _verdict(
        "criterion 3: 3-D rank growth per doubling <= 2.5",
        ok,
        f"ranks={ranks} ratios={[round(r, 2) for r in ratios]}",
    )
    assert ok


def test_criterion_4_iteration_counts():
    """BiCGStab at tol 1e-3 converges in <= 10 iterations on every rod size."""
    counts = []
    for length in (1, 2, 4, 8, 16):
        geom, kp, h2 = _build("rod", [length], 16, 1e-4, vpw=20)
        rhs = kernel.plane_wave_rhs(geom, K0, [0, -1, 0])
        _, report = arith.bicgstab_solve(
            lambda v: arith.matvec(h2, v), rhs, tol=1e-3, max_iter=100
        )
        assert report.converged
        counts.append(report.iterations)
    ok = max(counts) <= 10
    _verdict("criterion 4: rod iteration counts <= 10", ok, f"iterations={counts}")
    assert ok


def test_criterion_5_inverse_accuracy(rng):
    """Stochastic ||I - S S^{-1}|| <= 5e-2 at eps_acc 1e-4 on all geometries."""
    cases = [
        ("rod", "rod", [16.4], 16),  # N = 164
        ("slab", "slab", [2.0, 2.0], 32),  # N = 400
        ("cube_array", "cube_array", [2, 2, 2], 32),  # N = 216
    ]
    details = []
    ok = True
    for tag, shape, extent, n_min in cases:
        geom, kp, h2 = _build(shape, extent, n_min, 1e-4)
        dense = kernel.assemble_dense(geom, kp)
        inv = arith.h2_invert(h2)
        worst = 0.0
        for _ in range(20):
            v = rng.standard_normal(geom.n) + 1j * rng.standard_normal(geom.n)
            v /= np.linalg.norm(v)
            worst = max(worst, np.linalg.norm(v - dense @ arith.matvec(inv, v)))
        details.append(f"{tag} N={geom.n} est={worst:.2e}")
        ok &= worst <= 5e-2
    _verdict("criterion 5: inverse residual estimate <= 5e-2", ok, "; ".join(details))
    assert ok


def test_criterion_6_oracle_equivalence(rng):
    """Matvec, formatted product, and direct solve against dense oracles.

    The relative bounds (10 eps, 20 eps) are asserted at eps_acc = 1e-3,
    where they dominate the basis-projection floor of formatted products on
    2-D/3-D geometries (that floor is epsilon-independent; see the decisions
    ledger). The rod is additionally held to the bounds at eps_acc = 1e-4.
    """
    eps = 1e-3
    cases = [
        ("rod", "rod", [102.4], 32),  # N = 1024
        ("slab", "slab", [3.2, 3.2], 32),  # N = 1024
        ("cube_array", "cube_array", [2, 2, 2], 32),  # N = 216
    ]
    details = []
    ok = True
    for tag, shape, extent, n_min in cases:
        geom, kp, h2 = _build(shape, extent, n_min, eps)
        assert geom.n <= 1024
        dense = kernel.assemble_dense(geom, kp)
        # (a) matvec vs dense
        wa = 0.0
        for _ in range(20):
            x = rng.standard_normal(geom.n) + 1j * rng.standard_normal(geom.n)
            ref = dense @ x
            wa = max(wa, np.linalg.norm(arith.matvec(h2, x) - ref) / np.linalg.norm(ref))
        # (b) formatted product action vs composed matvecs
        prod = arith.h2_mul_formatted(h2, h2)
        wb = 0.0
        for _ in range(5):
            x = rng.standard_normal(geom.n) + 1j * rng.standard_normal(geom.n)
            ref = arith.matvec(h2, arith.matvec(h2, x))
            wb = max(wb, np.linalg.norm(arith.matvec(prod, x) - ref) / np.linalg.norm(ref))
        # (c) direct solution vs dense LU
        inv = arith.h2_invert(h2)
        e = kernel.plane_wave_rhs(geom, K0, [0, -1, 0])
        x_dir = arith.apply_inverse_solve(inv, e, operator=h2)
        ref = np.linalg.solve(dense, e)
        wc = np.linalg.norm(x_dir - ref) / np.linalg.norm(ref)
        details.append(f"{tag} a={wa:.1e} b={wb:.1e} c={wc:.1e}")
        ok &= wa <= 10 * eps and wb <= 20 * eps and wc <= 1e-2

    # the 1-D family also meets the bounds at the tight tolerance
    geom, kp, h2 = _build("rod", [102.4], 32, 1e-4)
    dense = kernel.assemble_dense(geom, kp)
    x = rng.standard_normal(geom.n) + 1j * rng.standard_normal(geom.n)
    ref = dense @ x
    wa4 = np.linalg.norm(arith.matvec(h2, x) - ref) / np.linalg.norm(ref)
    prod = arith.h2_mul_formatted(h2, h2)
    ref2 = arith.matvec(h2, arith.matvec(h2, x))
    wb4 = np.linalg.norm(arith.matvec(prod, x) - ref2) / np.linalg.norm(ref2)
    e = kernel.plane_wave_rhs(geom, K0, [0, -1, 0])
    wc4 = np.linalg.norm(
        arith.apply_inverse_solve(arith.h2_invert(h2), e)
        - np.linalg.solve(dense, e)
    ) / np.linalg.norm(np.linalg.solve(dense, e))
    details.append(f"rod@1e-4 a={wa4:.1e} b={wb4:.1e} c={wc4:.1e}")
    ok &= wa4 <= 1e-3 and wb4 <= 2e-3 and wc4 <= 1e-2

    _verdict(
        "criterion 6: oracle equivalence (a <= 10eps, b <= 20eps, c <= 1e-2)",
        ok,
        "; ".join(details),
    )
    assert ok


def test_criterion_7_complexity_slopes(tmp_path):
    """Log-log slopes: matvec <= 1.3, inverse <= 1.35, memory <= 1.3.

    Nine sizes at sqrt(2) spacing span four doublings (N = 656 to 10496)
    and average out the depth-parity steps a coarse sweep would alias.
    """
    cfg = ExperimentConfig(
        shape="rod",
        sweep=[65.6 * 2 ** (i / 2) for i in range(9)],
        n_min=32,
        solver="both",
        dense_cap=0,  # slopes only; skip dense oracles
        out=str(tmp_path / "scaling.csv"),
    )
    records = bench.run_scaling_study(cfg)
    slopes = records[-1]
    ok = (
        slopes.matvec_s <= 1.3
        and slopes.inverse_s <= 1.35
        and slopes.peak_mem <= 1.3
    )
    _verdict(
        "criterion 7: complexity slopes (matvec <= 1.3, inverse <= 1.35, mem <= 1.3)",
        ok,
        f"matvec={slopes.matvec_s:.3f} inverse={slopes.inverse_s:.3f} "
        f"memory={slopes.peak_mem:.3f}",
    )
    assert ok


def test_criterion_8_structural_properties(rng):
    """Orthonormality, nestedness, tiling, admissibility, matvec linearity."""
    checks = []
    for tag, shape, extent, n_min in ACCEPTANCE_GEOMETRIES:
        geom, kp, h2 = _build(shape, extent, n_min, 1e-4)
        tree, btree, basis = h2.tree, h2.btree, h2.basis

        worst_orth = 0.0
        worst_nest = 0.0
        for cid in range(len(tree)):
            k = basis.rank(cid)
            if k == 0:
                continue
            v = basis.materialize(cid)
            worst_orth = max(
                worst_orth, np.linalg.norm(v.conj().T @ v - np.eye(k)) / k
            )
            c = tree.cluster(cid)
            x = rng.standard_normal((c.size, 2)) + 1j * rng.standard_normal((c.size, 2))
            worst_nest = max(
                worst_nest,
                np.abs(basis.apply_vh(cid, x) - v.conj().T @ x).max(),
            )
        checks.append((f"{tag} orthonormality", worst_orth <= 1e-10))
        checks.append((f"{tag} nestedness", worst_nest <= 1e-12))

        checks.append(
            (f"{tag} tiling", clustering.tiling_checksum(btree, tree) == geom.n**2)
        )
        all_adm = all(
            clustering.is_admissible(tree.cluster(t), tree.cluster(s), btree.eta)
            for t, s in btree.admissible
        )
        checks.append((f"{tag} admissibility", all_adm))

        x1 = rng.standard_normal(geom.n) + 1j * rng.standard_normal(geom.n)
        x2 = rng.standard_normal(geom.n) + 1j * rng.standard_normal(geom.n)
        lin = bench.linearity_defect(lambda x: arith.matvec(h2, x), x1, x2)
        checks.append((f"{tag} linearity", lin <= bench.linearity_bound(h2)))

    ok = all(passed for _, passed in checks)
    failed = [name for name, passed in checks if not passed]
    _verdict(
        "criterion 8: structural property suite",
        ok,
        "all checks passed" if ok else f"failed: {failed}",
    )
    assert ok
