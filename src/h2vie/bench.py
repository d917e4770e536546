"""Benchmark runners: rank studies, scaling studies, end-to-end solves, CSV.

Every runner returns the records it wrote so tests can assert on them
without re-parsing the CSV. Timing columns are wall-clock and therefore
not reproducible; everything else is deterministic for a fixed seed and
config. Reported memory is the representation's own storage footprint
(bases + transfers + couplings + dense leaves), not process RSS, so it is
exact and machine-independent.
"""

from __future__ import annotations

import csv
import time
from dataclasses import dataclass, fields, replace

import numpy as np
import scipy.linalg

from . import arith, build, clustering, kernel
from .linalg import CompressionParams

# Extents are in wavelengths, so the model has no length scale: k0 is fixed.
K0 = 2.0 * np.pi
_TIMING_REPEATS = 5  # batches that median_time times
_TIMING_BATCH_S = 1e-3  # median_time's shortest batch
_RESIDUAL_PROBES = 20  # unit vectors that inverse_residual_estimate applies


@dataclass
class BenchRecord:
    """One CSV row; the fields, in order, are the CSV columns."""

    experiment: str
    N: int | None = None
    lam: float | None = None
    level: int | None = None
    max_rank: int | None = None
    csp: int | None = None
    rep_error: float | None = None
    inv_residual: float | None = None
    iterations: int | None = None
    build_s: float | None = None
    matvec_s: float | None = None
    inverse_s: float | None = None
    solve_s: float | None = None
    peak_mem: int | float | None = None  # the `slopes` row stores a fitted slope

    def row(self):
        out = []
        for f in fields(self):
            v = getattr(self, f.name)
            if v is None:
                out.append("")
            elif isinstance(v, str):
                out.append(v)
            elif f.name in _INT_FIELDS and float(v) == int(v):
                out.append(str(int(v)))
            else:
                out.append(repr(float(v)))
        return out


CSV_COLUMNS = ["lambda" if f.name == "lam" else f.name for f in fields(BenchRecord)]
# annotations are strings under `from __future__ import annotations`
_INT_FIELDS = {f.name for f in fields(BenchRecord) if "int" in f.type.split(" | ")}


def emit_csv(records, path):
    """Write records with the fixed column schema; missing values are empty."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(CSV_COLUMNS)
        for rec in records:
            writer.writerow(rec.row())
    return path


def _cell(f, val):
    if val == "":
        return None
    if f.name == "experiment":
        return val
    if f.name in _INT_FIELDS and "." not in val and "e" not in val:
        return int(val)
    return float(val)


def parse_csv(path):
    """Read back a benchmark CSV into records (round-trip of emit_csv)."""
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        if next(reader) != CSV_COLUMNS:
            raise ValueError("unexpected CSV header")
        return [BenchRecord(*map(_cell, fields(BenchRecord), row)) for row in reader]


def median_time(fn):
    """Median wall time of one fn() call over 5 timed batches.

    Each batch runs fn() as often as it takes to fill 1 ms, so a fast call
    is not timed below the clock's resolution.
    """
    inner = 1
    while True:
        t0 = time.perf_counter()
        for _ in range(inner):
            fn()
        dt = time.perf_counter() - t0
        if dt >= _TIMING_BATCH_S or inner >= 1 << 16:
            break
        inner *= max(2, int(_TIMING_BATCH_S / max(dt, 1e-9)))
    times = []
    for _ in range(_TIMING_REPEATS):
        t0 = time.perf_counter()
        for _ in range(inner):
            fn()
        times.append((time.perf_counter() - t0) / inner)
    return float(np.median(times))


def _geometry_extent(cfg, size):
    """One sweep size as the shape's extent: each entry equal to size.

    An unknown shape gets one entry, so that generate_geometry names it.
    """
    return [size] * kernel.SHAPES.get(cfg.shape, 1)


def _build(cfg, extent):
    geom = kernel.generate_geometry(cfg.shape, extent, cfg.vpw, K0)
    kp = kernel.KernelParams(k0=K0, eps_r=cfg.eps_r)
    cp = CompressionParams(cfg.eps_acc, cfg.eps_acc)
    t0 = time.perf_counter()
    h2 = build.build_h2(geom, kp, cp, n_min=cfg.n_min, eta=cfg.eta)
    build_s = time.perf_counter() - t0
    return geom, kp, h2, build_s


def _record(experiment, cfg, geom, kp, h2, build_s, **columns):
    """A record with the structure columns of h2 filled in; `columns` adds the rest.

    rep_error is left empty when the dense oracle would exceed cfg.dense_cap.
    """
    rep_error = None
    if geom.n <= cfg.dense_cap:
        dense = kernel.assemble_dense(geom, kp, cap=cfg.dense_cap)
        rep_error = build.rep_error(h2, dense)
    _, csp = clustering.sparsity_constant(h2.btree, h2.tree)
    return BenchRecord(
        experiment, N=geom.n, level=h2.tree.depth - 1, max_rank=h2.max_rank(),
        csp=csp, rep_error=rep_error, build_s=build_s,
        peak_mem=h2.storage_bytes(), **columns,
    )


def _timed_solve(cfg, h2, rhs):
    """One BiCGStab solve on the H² matvec: (x, report, wall seconds)."""
    t0 = time.perf_counter()
    x, report = arith.bicgstab_solve(
        lambda v: arith.matvec(h2, v), rhs, tol=cfg.tol, max_iter=cfg.max_iter,
    )
    return x, report, time.perf_counter() - t0


def _timed_invert(h2):
    """(h2_invert(h2), wall seconds)."""
    t0 = time.perf_counter()
    inv = arith.h2_invert(h2)
    return inv, time.perf_counter() - t0


def inverse_residual_estimate(h2, inv, rng):
    """max over 20 random unit vectors v of || v - S (S^{-1} v) ||_2.

    The probes are drawn one after another and applied as one block.
    """
    probes = np.empty((h2.n, _RESIDUAL_PROBES), dtype=np.complex128)
    for j in range(_RESIDUAL_PROBES):
        v = rng.standard_normal(h2.n) + 1j * rng.standard_normal(h2.n)
        probes[:, j] = v / np.linalg.norm(v)
    w = arith.matmat_apply(h2, arith.matmat_apply(inv, probes))
    return float(np.linalg.norm(probes - w, axis=0).max(initial=0.0))


def two_body_pair(dim, esize, vpw):
    """Two unit bodies (1-D/2-D/3-D) separated by 2 m, voxelized for esize.

    The bodies measure 1 m, so esize wavelengths means k0 = 2 pi esize.
    Returns (geometry, row indices of body one, column indices of body two).
    """
    if dim not in (1, 2, 3):
        raise ValueError("dim must be 1, 2 or 3")
    k0 = 2.0 * np.pi * esize
    m = max(1, int(round(esize * vpw)))
    h = 1.0 / m  # m voxels tile the 1 m body edge
    dims = {1: (m, 1, 1), 2: (m, m, 1), 3: (m, m, m)}[dim]
    c1 = kernel.lattice_centers(*dims, h)
    c2 = kernel.lattice_centers(*dims, h, origin=(3.0, 0.0, 0.0))
    geom = kernel.VoxelGeometry(np.vstack([c1, c2]), h**3, "pair", dims)
    nb = c1.shape[0]
    return geom, k0, np.arange(nb), np.arange(nb, 2 * nb)


def svd_eps_rank(block, eps):
    """Number of singular values above eps * sigma_1."""
    sv = scipy.linalg.svdvals(block)
    if sv.size == 0 or sv[0] == 0.0:
        return 0
    return int(np.sum(sv > eps * sv[0]))


def run_rank_study(cfg):
    """Per-level basis ranks across a size sweep, plus the two-body SVD study."""
    if not cfg.sweep:
        raise ValueError("rank study needs a non-empty size sweep")
    records = []
    for size in cfg.sweep:
        built = _build(cfg, _geometry_extent(cfg, size))
        base = _record("rank_study", cfg, *built, lam=size)
        per_level = built[2].rank_per_level()
        records += [replace(base, level=level, max_rank=per_level[level])
                    for level in sorted(per_level)]
    if cfg.svd_dim:
        for esize in cfg.svd_sizes:
            geom, k0, rows, cols = two_body_pair(cfg.svd_dim, esize, cfg.vpw)
            if rows.size > cfg.dense_cap:
                records.append(
                    BenchRecord("svd_study_skipped", N=rows.size, lam=esize)
                )
                print(f"warning: svd study size {esize} needs {rows.size} voxels "
                      f"per body, over dense cap {cfg.dense_cap}; skipped")
                continue
            kp = kernel.KernelParams(k0=k0, eps_r=cfg.eps_r)
            blockmat = kernel.assemble_block(geom, kp, rows, cols)
            records.append(
                BenchRecord("svd_study", N=rows.size, lam=esize,
                            max_rank=svd_eps_rank(blockmat, cfg.svd_eps))
            )
    emit_csv(records, cfg.out)
    return records


def _fit_slope(ns, ys):
    ns = np.asarray(ns, float)
    ys = np.asarray(ys, float)
    good = ys > 0
    if np.unique(ns[good]).size < 2:  # no spread in N: no slope to fit
        return None
    return float(np.polyfit(np.log(ns[good]), np.log(ys[good]), 1)[0])


def run_scaling_study(cfg):
    """Build/matvec/solve/inverse timings across >= 3 sizes plus fitted slopes."""
    if len(set(cfg.sweep)) < 3:
        raise ValueError("scaling study needs at least 3 sizes to fit slopes")
    # one untimed build, matvec and inverse at the smallest size, so that
    # lazy set-up is not charged to the first timed size
    _, _, h2, _ = _build(cfg, _geometry_extent(cfg, min(cfg.sweep)))
    arith.matvec(h2, np.ones(h2.n, dtype=np.complex128))
    if cfg.solver in ("direct", "both"):
        arith.h2_invert(h2)
    rng = np.random.default_rng(cfg.seed)
    records = []
    for size in cfg.sweep:
        built = _build(cfg, _geometry_extent(cfg, size))
        geom, _, h2, _ = built
        x = rng.standard_normal(geom.n) + 1j * rng.standard_normal(geom.n)
        matvec_s = median_time(lambda: arith.matvec(h2, x))
        rhs = kernel.plane_wave_rhs(geom, K0, [0.0, -1.0, 0.0])
        _, report, solve_s = _timed_solve(cfg, h2, rhs)
        inverse_s = inv_residual = None
        if cfg.solver in ("direct", "both"):
            inv, inverse_s = _timed_invert(h2)
            if inverse_s < 1.0:  # sub-second phase: median of 5
                rest = [_timed_invert(h2)[1] for _ in range(4)]
                inverse_s = float(np.median([inverse_s] + rest))
            inv_residual = inverse_residual_estimate(h2, inv, rng)
        records.append(_record(
            "scaling", cfg, *built, lam=size, inv_residual=inv_residual,
            iterations=report.iterations, matvec_s=matvec_s,
            inverse_s=inverse_s, solve_s=solve_s,
        ))
    ns = [r.N for r in records]
    records.append(
        BenchRecord(
            "slopes",
            build_s=_fit_slope(ns, [r.build_s for r in records]),
            matvec_s=_fit_slope(ns, [r.matvec_s for r in records]),
            inverse_s=_fit_slope(ns, [r.inverse_s or 0 for r in records]),
            solve_s=_fit_slope(ns, [r.solve_s for r in records]),
            peak_mem=_fit_slope(ns, [r.peak_mem for r in records]),
        )
    )
    emit_csv(records, cfg.out)
    return records


def write_solution(path, x):
    """One unknown per line as `re,im` decimal text."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        for v in np.asarray(x):
            fh.write(f"{float(v.real)!r},{float(v.imag)!r}\n")
    return path


def read_solution(path):
    vals = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            re_s, im_s = line.strip().split(",")
            vals.append(complex(float(re_s), float(im_s)))
    return np.array(vals, dtype=np.complex128)


def run_solve(cfg):
    """End-to-end solve on one geometry; returns (record, summary dict).

    summary carries the convergence flag and, for solver=both, the relative
    discrepancy between the iterative and direct solutions.
    """
    built = _build(cfg, cfg.extent)
    geom, _, h2, _ = built
    rng = np.random.default_rng(cfg.seed)
    rhs = kernel.plane_wave_rhs(geom, K0, [0.0, -1.0, 0.0])
    summary = {"converged": True, "N": geom.n}
    columns = {}
    x_it = x_dir = None

    if cfg.solver in ("iterative", "both"):
        x_it, report, columns["solve_s"] = _timed_solve(cfg, h2, rhs)
        columns["iterations"] = report.iterations
        summary["converged"] = report.converged
    if cfg.solver in ("direct", "both"):
        inv, columns["inverse_s"] = _timed_invert(h2)
        x_dir = arith.apply_inverse_solve(inv, rhs, operator=h2)
        columns["inv_residual"] = inverse_residual_estimate(h2, inv, rng)

    solution = x_dir if x_dir is not None else x_it
    write_solution(cfg.solution_out, solution)
    if x_it is not None and x_dir is not None:
        summary["direct_vs_iterative"] = float(
            np.linalg.norm(x_it - x_dir) / np.linalg.norm(x_dir)
        )
    record = _record("solve", cfg, *built, lam=cfg.extent[0], **columns)
    emit_csv([record], cfg.out)
    return record, summary


def linearity_defect(apply, x1, x2):
    """||S(2 x1 + 3j x2) - 2 S x1 - 3j S x2|| over the sum of the norms it combines.

    The denominator is ||S(2 x1 + 3j x2)|| + 2 ||S x1|| + 3 ||S x2||, so
    the defect is a relative round-off figure at any operator size. The
    three applies are kept side by side: an apply that hands back one
    buffer reused across calls reads about 0.5.
    """
    y1, y2, y = apply(x1), apply(x2), apply(2.0 * x1 + 3j * x2)
    scale = np.linalg.norm(y) + 2.0 * np.linalg.norm(y1) + 3.0 * np.linalg.norm(y2)
    return float(np.linalg.norm(y - 2.0 * y1 - 3j * y2) / scale)


def linearity_bound(h2):
    """Bound on linearity_defect for h2's apply.

    In complex128 the apply is linear to round-off. complex64 payloads
    round its row stages in single precision: at eps 1e-4 the defect read
    at most 1.5e-7 over rod 16.4 and 102.4, slab 2x2 and 4x4 and
    cube_array 2x2x2, 5x3x3 and 4x4x4 (20 random pairs each; 2.0e-7 on
    cube_array 5x5x5), and ten complex64 unit roundoffs are 3.9x that.
    """
    if h2.params.payload_dtype == np.complex128:
        return 1e-12
    return 10 * float(np.finfo(np.complex64).eps) / 2


def verify_suite(cfg=None):
    """Dense-oracle property checks on three small geometries.

    Returns a list of (name, passed, detail) tuples; used by the `verify`
    CLI subcommand.
    """
    from .config import ExperimentConfig

    cfg = cfg or ExperimentConfig()
    rng = np.random.default_rng(cfg.seed)
    cases = [
        ("rod", [16.4]),
        ("slab", [2.0, 2.0]),
        ("cube_array", [2, 2, 2]),
    ]
    results = []
    for shape, extent in cases:
        geom, kp, h2, _ = _build(replace(cfg, shape=shape), extent)
        tree, btree = h2.tree, h2.btree
        n = geom.n

        tiling = clustering.tiling_checksum(btree, tree)
        results.append((f"{shape}: block leaves tile N^2",
                        tiling == n * n, f"{tiling} vs {n * n}"))

        bad_adm = [
            (t, s) for t, s in btree.admissible
            if not clustering.is_admissible(tree.cluster(t), tree.cluster(s), cfg.eta)
        ]
        results.append((f"{shape}: admissible leaves satisfy the condition",
                        not bad_adm, f"{len(bad_adm)} violations"))

        worst_orth = 0.0
        for cid in range(len(tree)):
            v = h2.basis.materialize(cid)
            k = v.shape[1]
            if k:
                err = np.linalg.norm(v.conj().T @ v - np.eye(k)) / k
                worst_orth = max(worst_orth, err)
        results.append((f"{shape}: basis orthonormality",
                        worst_orth <= 1e-10, f"{worst_orth:.2e}"))

        dense = kernel.assemble_dense(geom, kp, cap=cfg.dense_cap)
        worst_mv = 0.0
        for _ in range(20):
            x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            ref = dense @ x
            worst_mv = max(worst_mv, float(
                np.linalg.norm(arith.matvec(h2, x) - ref) / np.linalg.norm(ref)
            ))
        results.append((f"{shape}: matvec matches dense oracle",
                        worst_mv <= 10 * cfg.eps_acc, f"{worst_mv:.2e}"))

        x1 = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        x2 = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        lin = linearity_defect(lambda x: arith.matvec(h2, x), x1, x2)
        results.append((f"{shape}: matvec linearity", lin <= linearity_bound(h2),
                        f"{lin:.2e}"))

        err = build.rep_error(h2, dense)
        results.append((f"{shape}: representation error below 0.8%",
                        err <= 8e-3, f"{err:.2e}"))
    return results
