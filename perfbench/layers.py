"""Traced run: per-layer metrics from spans recorded around calls into h2vie.

The operator is rebuilt stage by stage through the public functions that
``build_h2`` composes (ClusterTree, build_block_tree, build_all_cluster_ab,
build_bases, build_coupling, dense leaves from entry_oracle). Before any
number is reported, that rebuild is checked against an untraced
``build_h2``: equal ``storage_bytes`` and a bitwise-equal matvec. Spans are
kept in memory and written out once at the end of the run.
"""

from __future__ import annotations

import json
import statistics
import time
from contextlib import contextmanager

import numpy as np

from h2vie import arith, bench, build, kernel
from h2vie import clustering as cl
from h2vie.linalg import dense_lu_invert

import solve
import workloads as wl

MAX_LEVELS = 10  # basis.rank_max.L0 .. L9; deeper trees than any workload's are not reported
TIMING_REPEATS = 15  # matvec-probe repeats; each probe reports the median
BICGSTAB_RHS = 16  # traced BiCGStab over the first RHS (all of slab-sweep's)


class FidelityError(RuntimeError):
    """The stage-by-stage rebuild does not reproduce build_h2."""


class Tracer:
    """In-memory spans: (name, start, end, parent span index) under one run id."""

    def __init__(self, run_id):
        self.run_id = run_id
        self.spans = []
        self._stack = []

    @contextmanager
    def span(self, name):
        sid = self.record(name, time.perf_counter(), None)
        self._stack.append(sid)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[sid][2] = time.perf_counter()

    def record(self, name, start, end):
        """Add a finished (or open, end=None) span under the current parent."""
        self.spans.append([name, start, end, self._stack[-1] if self._stack else -1])
        return len(self.spans) - 1

    def durations(self, name):
        return [e - s for n, s, e, _ in self.spans if n == name]

    def total(self, name):
        return sum(self.durations(name))

    def child_stats(self, name):
        """(count, seconds) of the direct children of all spans called `name`."""
        parents = {i for i, sp in enumerate(self.spans) if sp[0] == name}
        kids = [e - s for _, s, e, p in self.spans if p in parents]
        return len(kids), sum(kids)

    def dump(self, path):
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"run_id": self.run_id,
                       "fields": ["name", "start", "end", "parent"],
                       "spans": self.spans}, fh)


def _timed(tr, name, fn, repeats):
    for _ in range(repeats):
        with tr.span(name):
            fn()
    return statistics.median(tr.durations(name)[-repeats:])


def staged_build(tr, inp):
    """build_h2's stages, one span each, with the Stage I oracle wrapped."""
    cparams = solve.compression_params()
    oracle = kernel.entry_oracle(inp.geom, inp.kparams)
    counts = {"calls": 0, "column_calls": 0, "entries": 0}

    def traced_oracle(rows, cols):
        t0 = time.perf_counter()
        out = oracle(rows, cols)
        tr.record("kernel.oracle", t0, time.perf_counter())
        counts["calls"] += 1
        counts["column_calls"] += len(cols) == 1  # one column per ACA cross
        counts["entries"] += out.size
        return out

    with tr.span("build.staged"):
        with tr.span("clustering.ClusterTree"):
            tree = cl.ClusterTree(inp.geom.centers, wl.N_MIN)
        with tr.span("clustering.build_block_tree"):
            btree = cl.build_block_tree(tree, wl.ETA)
        with tr.span("build.build_all_cluster_ab"):
            abs_map = build.build_all_cluster_ab(tree, btree, traced_oracle, cparams)
        with tr.span("build.build_bases"):
            basis = build.build_bases(tree, abs_map, cparams)
        with tr.span("build.build_coupling"):
            coupling = build.build_coupling(btree, abs_map, basis, tree)
        with tr.span("kernel.dense_leaves"):
            dense = {(t, s): oracle(tree.indices(t), tree.indices(s))
                     for t, s in btree.inadmissible}
    h2 = build.H2Matrix(tree, btree, basis, coupling, dense, cparams)
    return h2, abs_map, counts


def check_fidelity(h2, ref, probe):
    if h2.storage_bytes() != ref.storage_bytes():
        raise FidelityError(f"storage_bytes {h2.storage_bytes()} != build_h2's "
                            f"{ref.storage_bytes()}")
    if not np.array_equal(arith.matvec(h2, probe), arith.matvec(ref, probe)):
        raise FidelityError("matvec on the seeded probe differs bitwise from build_h2's")


def matvec_cost(h2):
    """(blocks, flops, bytes) of one single-vector matvec, computed from array shapes.

    Counts 8 real flops per complex multiply-add and the bytes of every
    operand matrix read, in the order _apply_perm applies them: the forward
    transform over all clusters with a basis, couplings, the backward
    transform over clusters that receive a coupling contribution, dense leaves.
    """
    tree, basis = h2.tree, h2.basis
    mats = [v for v in basis.leaf_v.values() if v.shape[1]]
    for t_lo, t_hi in basis.transfers.values():
        if t_lo.shape[1]:
            mats += [t_lo, t_hi]
    receives = {t for (t, _), s in h2.coupling.items() if s.size}
    for level in range(tree.depth):
        for cid in tree.levels[level]:
            c = tree.cluster(cid)
            if cid not in receives:
                continue
            if c.is_leaf:
                mats.append(basis.leaf_v[cid])
            else:
                receives.update(c.children())
                mats += list(basis.transfers[cid])
    blocks = [s for s in h2.coupling.values() if s.size] + list(h2.dense.values())
    mats += blocks
    flops = sum(8 * m.size for m in mats)
    nbytes = sum(m.nbytes for m in mats)
    return len(blocks), flops, nbytes


def storage_parts(h2):
    b = h2.basis
    return {
        "storage.bases_bytes": sum(v.nbytes for v in b.leaf_v.values()),
        "storage.transfer_bytes": sum(lo.nbytes + hi.nbytes for lo, hi in b.transfers.values()),
        "storage.coupling_bytes": sum(s.nbytes for s in h2.coupling.values()),
        "storage.near_bytes": sum(d.nbytes for d in h2.dense.values()),
    }


def run_traced(w, seed, out_path):
    """Per-layer metrics for one workload; returns (metrics, ledger).

    Raises FidelityError when the staged rebuild differs from build_h2.
    """
    inp = solve.make_inputs(w, seed)
    tr = Tracer(f"{w.name}-seed{seed}")
    ledger = solve.Ledger()
    m = {}

    h2, abs_map, counts = staged_build(tr, inp)
    ledger.ok()
    with tr.span("build.build_h2"):
        ref = solve.build_operator(inp)
    ledger.ok()
    check_fidelity(h2, ref, inp.probes[:, 0])
    del ref

    # clustering
    tree, btree = h2.tree, h2.btree
    m["clustering.tree_s"] = (tr.total("clustering.ClusterTree"), "s")
    m["clustering.block_tree_s"] = (tr.total("clustering.build_block_tree"), "s")
    m["clustering.admissible_blocks"] = (len(btree.admissible), "count")
    m["clustering.inadmissible_blocks"] = (len(btree.inadmissible), "count")
    m["clustering.csp"] = (cl.sparsity_constant(btree, tree)[1], "count")
    m["clustering.depth"] = (tree.depth, "count")

    # kernel
    oracle_s = tr.total("kernel.oracle")
    near_entries = sum(d.size for d in h2.dense.values())
    m["kernel.oracle_calls"] = (counts["calls"], "count")
    m["kernel.oracle_entries"] = (counts["entries"], "count")
    m["kernel.oracle_s"] = (oracle_s, "s")
    m["kernel.entries_per_s"] = (counts["entries"] / oracle_s, "1/s")
    m["kernel.near_s"] = (tr.total("kernel.dense_leaves"), "s")
    m["kernel.near_entries"] = (near_entries, "count")

    # Stage I
    ranks = [ab.rank for ab in abs_map.values()]
    stage1_s = tr.total("build.build_all_cluster_ab")
    m["stage1.s"] = (stage1_s, "s")
    m["stage1.driver_s"] = (stage1_s - oracle_s, "s")
    m["stage1.rank_sum"] = (sum(ranks), "count")
    m["stage1.rank_max"] = (max(ranks), "count")
    m["stage1.kept_ratio"] = (sum(ranks) / max(counts["column_calls"], 1), "ratio")

    # Stage II
    m["stage2.bases_s"] = (tr.total("build.build_bases"), "s")
    m["stage2.coupling_s"] = (tr.total("build.build_coupling"), "s")
    per_level = h2.rank_per_level()
    for lvl in range(MAX_LEVELS):
        m[f"basis.rank_max.L{lvl}"] = (per_level.get(lvl, 0), "count")
    for name, val in storage_parts(h2).items():
        m[name] = (val, "B")

    # tracing overhead: staged (traced) set-up minus untraced build_h2
    m["trace.overhead_s"] = (tr.total("build.staged") - tr.total("build.build_h2"), "s")

    # matvec: full operator, then copies without couplings / dense leaves
    x = inp.probes[:, 0]
    no_far = build.H2Matrix(tree, btree, h2.basis, {}, h2.dense, h2.params)
    no_near = build.H2Matrix(tree, btree, h2.basis, h2.coupling, {}, h2.params)
    sweep_only = build.H2Matrix(tree, btree, h2.basis, {}, {}, h2.params)
    full_s = _timed(tr, "arith.matvec", lambda: arith.matvec(h2, x), TIMING_REPEATS)
    sweep_s = _timed(tr, "arith.matvec[sweep]", lambda: arith.matvec(sweep_only, x),
                     TIMING_REPEATS)
    near_s = _timed(tr, "arith.matvec[near]", lambda: arith.matvec(no_far, x),
                    TIMING_REPEATS) - sweep_s
    far_s = _timed(tr, "arith.matvec[far]", lambda: arith.matvec(no_near, x),
                   TIMING_REPEATS) - sweep_s
    blocks, flops, nbytes = matvec_cost(h2)
    m["matvec.s"] = (full_s, "s")
    m["matvec.near_s"] = (near_s, "s")
    m["matvec.far_s"] = (far_s, "s")
    m["matvec.sweep_s"] = (sweep_s, "s")
    m["matvec.blocks"] = (blocks, "count")
    m["matvec.flops_computed"] = (flops, "flop")
    m["matvec.bytes_computed"] = (nbytes, "B")
    m["matvec.flops_per_byte"] = (flops / nbytes, "flop/B")
    matmat_s = _timed(tr, "arith.matmat_apply", lambda: arith.matmat_apply(h2, inp.rhs), 3)
    m["matmat.s"] = (matmat_s, "s")
    m["matmat.cols_per_s"] = (inp.rhs.shape[1] / matmat_s, "1/s")

    # Both solvers run on every workload; only the workload's own solver is
    # held to its residual bound, the other is checked for finite output.
    bounds = {"iterative": np.inf, "direct": np.inf, w.solver: w.residual_bound}

    # BiCGStab over the first RHS, with the apply closure wrapped
    def apply(v):
        with tr.span("arith.matvec[bicgstab]"):
            return arith.matvec(h2, v)

    iterations = converged = 0
    n_iter_rhs = min(BICGSTAB_RHS, inp.rhs.shape[1])
    for j in range(n_iter_rhs):
        with tr.span("arith.bicgstab_solve"):
            xj, rep = arith.bicgstab_solve(apply, inp.rhs[:, j], tol=wl.TOL,
                                           max_iter=wl.MAX_ITER)
        iterations += rep.iterations
        if rep.converged:
            converged += 1
            solve.gate(xj[:, None], [j], inp, bounds["iterative"], ledger, "bicgstab")
        else:
            ledger.fail(f"bicgstab rhs {j}",
                        f"BiCGStab not converged after {rep.iterations} iterations")
    bicg_s = tr.total("arith.bicgstab_solve")
    apply_calls, apply_s = tr.child_stats("arith.bicgstab_solve")
    m["bicgstab.iterations"] = (iterations, "count")
    m["bicgstab.apply_calls"] = (apply_calls, "count")
    m["bicgstab.apply_s"] = (apply_s, "s")
    m["bicgstab.self_s"] = (bicg_s - apply_s, "s")
    m["bicgstab.converged_ratio"] = (converged / n_iter_rhs, "ratio")

    # inverse and direct solve over the whole RHS block
    try:
        with tr.span("arith.h2_invert"):
            inv = arith.h2_invert(h2)
        with tr.span("arith.apply_inverse_solve"):
            xs = arith.apply_inverse_solve(inv, inp.rhs, operator=h2)
    except solve.NAMED_FAILURES as exc:
        for j in range(inp.rhs.shape[1]):
            ledger.fail(f"direct rhs {j}", f"{type(exc).__name__}: {exc}")
        inv = None
    if inv is not None:
        solve.gate(xs, list(range(inp.rhs.shape[1])), inp, bounds["direct"], ledger,
                   "direct")
        with tr.span("bench.inverse_residual_estimate"):
            est = bench.inverse_residual_estimate(h2, inv, np.random.default_rng(seed))
        del inv, xs
        m["invert.s"] = (tr.total("arith.h2_invert"), "s")
        m["invert.apply_s"] = (tr.total("arith.apply_inverse_solve"), "s")
        m["invert.residual_est"] = (est, "ratio")
    for (t, s), d in h2.dense.items():
        if t == s:
            with tr.span("linalg.dense_lu_invert"):
                dense_lu_invert(d)
    m["invert.leaf_lu_s"] = (tr.total("linalg.dense_lu_invert"), "s")
    with tr.span("arith.h2_mul_formatted"):
        arith.h2_mul_formatted(h2, h2)
    m["invert.mul_formatted_s"] = (tr.total("arith.h2_mul_formatted"), "s")

    tr.dump(out_path)
    return m, ledger
