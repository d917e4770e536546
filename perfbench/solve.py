"""Untraced end-to-end run of one workload, its inputs and its correctness gate.

Imports numpy and h2vie, so the caller must pin BLAS threads and put the
checkout's ``src`` on ``sys.path`` first (see run.py).
"""

from __future__ import annotations

import gc
import itertools
import os
import resource
import statistics
import subprocess
import time
from dataclasses import dataclass, field

import numpy as np
import scipy

import h2vie
from h2vie import arith, build, kernel
from h2vie.linalg import AcaRankExceeded, CompressionParams

import workloads as wl

# exceptions the program raises to name a failed operation
NAMED_FAILURES = (build.ClusterCompressionError, arith.SingularLeafError, AcaRankExceeded)


@dataclass
class Inputs:
    geom: kernel.VoxelGeometry
    kparams: kernel.KernelParams
    rhs: np.ndarray  # (N, nrhs) plane waves at seeded directions
    probes: np.ndarray  # (N, N_PROBES) seeded complex Gaussian vectors
    rows: np.ndarray  # sampled check rows
    exact_rows: np.ndarray  # S_exact[rows, :] from kernel.assemble_block


@dataclass
class Ledger:
    """Operations attempted and the named failures among them."""

    attempted: int = 0
    failures: list = field(default_factory=list)

    def ok(self):
        self.attempted += 1

    def fail(self, op, reason):
        self.attempted += 1
        self.failures.append(f"{op}: {reason}")


def compression_params():
    return CompressionParams(wl.EPS_ACA, wl.EPS_ACC)


def incidence_directions(n, rng):
    """Seeded sweep of n unit directions over the sphere.

    cos(theta) about the x axis is split into n equal-area bands with one
    seeded draw per band, so every run covers the whole sphere; the two end
    bands are pinned to the poles, end-fire incidence along x, where the
    residual of elongated geometries peaks. The azimuths are seeded too.
    """
    c = (np.arange(n) + rng.random(n)) * (2.0 / n) - 1.0
    c[0], c[-1] = -1.0, 1.0
    phi = rng.uniform(0.0, 2.0 * np.pi, n)
    s = np.sqrt(1.0 - c * c)
    d = np.stack([c, s * np.cos(phi), s * np.sin(phi)], axis=1)
    return d / np.linalg.norm(d, axis=1, keepdims=True)


def make_inputs(w, seed):
    """Geometry plus everything the seed draws; the same seed gives the same arrays."""
    geom = kernel.generate_geometry(w.shape, list(w.extent), wl.VPW, wl.K0)
    kparams = kernel.KernelParams(k0=wl.K0, eps_r=wl.EPS_R)
    rng = np.random.default_rng(seed)
    rhs = np.stack([kernel.plane_wave_rhs(geom, wl.K0, d)
                    for d in incidence_directions(w.nrhs, rng)], axis=1)
    probes = (rng.standard_normal((geom.n, wl.N_PROBES))
              + 1j * rng.standard_normal((geom.n, wl.N_PROBES)))
    # one seeded row in each of CHECK_ROWS equal spans of the index range
    m = min(wl.CHECK_ROWS, geom.n)
    edges = np.arange(m + 1) * geom.n // m
    rows = edges[:-1] + (rng.random(m) * (edges[1:] - edges[:-1])).astype(np.int64)
    exact_rows = kernel.assemble_block(geom, kparams, rows, np.arange(geom.n))
    return Inputs(geom, kparams, rhs, probes, rows, exact_rows)


def build_operator(inp):
    return build.build_h2(inp.geom, inp.kparams, compression_params(),
                          n_min=wl.N_MIN, eta=wl.ETA)


def warm_up():
    """One small build, matvec and inverse so lazy set-up is paid before timing."""
    geom = kernel.generate_geometry("rod", [wl.WARMUP_ROD], wl.VPW, wl.K0)
    h2 = build.build_h2(geom, kernel.KernelParams(k0=wl.K0, eps_r=wl.EPS_R),
                        compression_params(), n_min=wl.N_MIN, eta=wl.ETA)
    x = np.ones(geom.n, dtype=np.complex128)
    arith.matvec(h2, x)
    arith.apply_inverse_solve(arith.h2_invert(h2), x[:, None], operator=h2)


def operator_rel_err(h2, inp):
    """Relative error of matvec on the probe vectors over the sampled rows."""
    exact = inp.exact_rows @ inp.probes
    approx = np.stack([arith.matvec(h2, p) for p in inp.probes.T], axis=1)[inp.rows]
    return float(np.linalg.norm(approx - exact) / np.linalg.norm(exact))


def gate(x, cols, inp, bound, ledger, op):
    """Check solutions x[:, j] for RHS cols[j] on the sampled exact rows.

    Each column is one operation: a non-finite column or a residual over
    the bound is a named failure. Returns the finite residuals.
    """
    b = inp.rhs[inp.rows][:, cols]
    res = np.linalg.norm(inp.exact_rows @ x - b, axis=0) / np.linalg.norm(b, axis=0)
    out = []
    for j, r in zip(cols, res):
        if not np.isfinite(r):
            ledger.fail(f"{op} rhs {j}", "non-finite solution")
            continue
        out.append(float(r))
        if r > bound:
            ledger.fail(f"{op} rhs {j}", f"residual {r:.3e} over bound {bound:.1e}")
        else:
            ledger.ok()
    return out


def solve_round(w, h2, inp, ledger, op):
    """Solve every RHS of the workload once; returns (wall seconds, residuals).

    The gate runs after the timed region. A named exception or BiCGStab
    non-convergence fails the RHS it hit and is never retried.
    """
    n = inp.rhs.shape[1]
    if w.solver == "iterative":
        x = np.zeros_like(inp.rhs)
        ok_cols = []
        t0 = time.perf_counter()
        for j in range(n):
            xj, rep = arith.bicgstab_solve(lambda v: arith.matvec(h2, v), inp.rhs[:, j],
                                           tol=wl.TOL, max_iter=wl.MAX_ITER)
            if rep.converged:
                x[:, j] = xj
                ok_cols.append(j)
            else:
                ledger.fail(f"{op} rhs {j}",
                            f"BiCGStab not converged after {rep.iterations} iterations")
        dt = time.perf_counter() - t0
        return dt, gate(x[:, ok_cols], ok_cols, inp, w.residual_bound, ledger, op)
    t0 = time.perf_counter()
    try:
        inv = arith.h2_invert(h2)
        x = arith.apply_inverse_solve(inv, inp.rhs, operator=h2)
    except NAMED_FAILURES as exc:
        for j in range(n):
            ledger.fail(f"{op} rhs {j}", f"{type(exc).__name__}: {exc}")
        return None, []
    dt = time.perf_counter() - t0
    return dt, gate(x, list(range(n)), inp, w.residual_bound, ledger, op)


def environment(seed, blas_threads, root):
    commit = "unknown"  # a checkout without .git (or inside another repository)
    if (root / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                                    capture_output=True, text=True,
                                    timeout=10).stdout.strip() or commit
        except (OSError, subprocess.SubprocessError):
            pass
    blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
    return {
        "backend": h2vie.backend_name(),
        "blas_threads": blas_threads,
        "nproc": len(os.sched_getaffinity(0)),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "seed": seed,
        "commit": commit,
    }


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def run_untraced(w, seed, seconds):
    """Alternate a timed build and a timed solve round on it.

    Stops after at least MIN_BUILDS builds at the iteration end nearest to
    `seconds`: another build-and-solve iteration starts only if half the
    last one's length still fits. Interleaving spreads set-up and solve
    samples over the whole run, so a slow spell on a shared machine hits
    both alike instead of biasing one of them. Returns (metrics, ledger);
    metrics maps name -> (value, unit, samples), samples being the timed
    samples or their count, or is None when no build succeeded.
    """
    inp = make_inputs(w, seed)
    ledger = Ledger()
    setup_times, round_times, residuals = [], [], []
    storage = rel_err = None
    t_end = time.perf_counter() + seconds
    for i in itertools.count(1):
        gc.collect()
        t0 = time.perf_counter()
        try:
            h2 = build_operator(inp)
        except NAMED_FAILURES as exc:
            ledger.fail(f"build {i}", f"{type(exc).__name__}: {exc}")
        else:
            setup_times.append(time.perf_counter() - t0)
            ledger.ok()
            if storage is None:
                storage, rel_err = h2.storage_bytes(), operator_rel_err(h2, inp)
            gc.collect()
            dt, res = solve_round(w, h2, inp, ledger, f"round {i}")
            if dt is not None:
                round_times.append(dt)
            residuals.extend(res)
            del h2
        now = time.perf_counter()
        if i >= wl.MIN_BUILDS and now + (now - t0) / 2 >= t_end:
            break
    if storage is None:
        return None, ledger

    setup_s = statistics.median(setup_times)
    solve_s = statistics.median(round_times) if round_times else float("nan")
    metrics = {
        "setup_s": (setup_s, "s", setup_times),
        "solve_s": (solve_s, "s", round_times),
        "time_to_solution_s": (setup_s + solve_s, "s", len(round_times)),
        "storage_bytes": (storage, "B", 1),
        "peak_rss_mb": (peak_rss_mb(), "MB", 1),
        "operator_rel_err": (rel_err, "ratio", wl.N_PROBES),
        "solution_residual": (max(residuals) if residuals else float("nan"), "ratio",
                              len(residuals)),
    }
    return metrics, ledger
