"""Arithmetic on the nested low-rank representation.

Matrix-vector products run on the block-row layout of H2Matrix: a forward
sweep up the tree fills one rank-space vector with every cluster's
coefficients, one product per block row applies the couplings, a backward
sweep pushes the result down to the leaves, and one product per block row
adds the near field.
Formatted addition and multiplication keep the block structure and cluster
bases of the operands fixed, projecting whatever falls outside them; the
recursive inverse is built from those two operations and dense leaf
inverses, and returns a matrix with the same structure as its input.
The product has one contribution rule: each operand block is taken once
into a left or right frame, a cluster basis or the identity, set by the
target block and the operand kinds, and the contribution is the product
of the two halves, added by one GEMM into a leaf target or split down
into the leaves of a subdivided one.

Because the bases are complex with V^H V = I while blocks are represented
as V_t S V_s^T (plain transpose), every product and projection rule below
carries an explicit conjugation; nothing relies on V^T V being identity.
"""

from __future__ import annotations

import time
from collections import defaultdict
from dataclasses import dataclass

import numpy as np
from scipy.linalg.blas import zgemm

from . import clustering as cl
from .build import H2Matrix
from .linalg import SingularMatrixError, dense_lu_invert


class StructureMismatchError(ValueError):
    pass


class SingularLeafError(RuntimeError):
    """A diagonal leaf could not be inverted; .cluster_id names the cluster."""

    def __init__(self, message, cluster_id):
        super().__init__(message)
        self.cluster_id = cluster_id


@dataclass
class SolveReport:
    iterations: int
    residual_history: list
    converged: bool
    wall_time: float


# ---------------------------------------------------------------------------
# matrix-vector / matrix-block application
# ---------------------------------------------------------------------------


def _apply_perm(h2, xp):
    """Apply the representation to a permuted (n, q) block, permuted result.

    All cluster coefficients live in one rank-space block laid out by
    NestedBasis.schedule(). The forward sweep fills it leaves first, then
    each parent from its two adjacent children through [T_lo; T_hi]; each
    block row of couplings adds one product into the output coefficients,
    the backward sweep pushes them down to the leaves, and each block row of
    the near field adds one product into the result.
    """
    sched = h2.basis.schedule()
    q = xp.shape[1]
    # forward transform: x^c = V_c^T x|_c, children first
    xr = np.empty((sched.size, q), dtype=np.complex128)
    for lo, hi, start, stop, v in sched.leaves:
        np.matmul(v.T, xp[start:stop], out=xr[lo:hi])
    for lo, hi, c_lo, c_hi, tr in sched.inner:
        np.matmul(tr.T, xr[c_lo:c_hi], out=xr[lo:hi])
    # coupling products: y^t += [S^{t,s1} | S^{t,s2} | ...] [x^s1; x^s2; ...]
    yr = np.zeros_like(xr)
    for lo, hi, buf, src in h2.far_rows:
        yr[lo:hi] += buf @ xr[src]
    # backward transform: parents before children, expand at the leaves
    for lo, hi, c_lo, c_hi, tr in reversed(sched.inner):
        yr[c_lo:c_hi] += tr @ yr[lo:hi]
    yp = np.zeros((h2.n, q), dtype=np.complex128)
    for lo, hi, start, stop, v in sched.leaves:
        np.matmul(v, yr[lo:hi], out=yp[start:stop])
    # near field, one block row per leaf cluster
    for start, stop, buf, src in h2.near_rows:
        yp[start:stop] += buf @ xp[src]
    return yp


def matvec(h2, x):
    """y = S x through the nested representation."""
    x = np.asarray(x, dtype=np.complex128)
    if x.shape != (h2.n,):
        raise ValueError(f"expected vector of length {h2.n}")
    perm = h2.tree.perm
    yp = _apply_perm(h2, x[perm][:, None])[:, 0]
    y = np.empty_like(yp)
    y[perm] = yp
    return y


_COL_BLOCK = 256


def matmat_apply(h2, rhs_block):
    """Apply to an (n, q) dense block, column-chunked for cache friendliness."""
    rhs_block = np.asarray(rhs_block, dtype=np.complex128)
    if rhs_block.ndim != 2 or rhs_block.shape[0] != h2.n:
        raise ValueError(f"expected ({h2.n}, q) block")
    perm = h2.tree.perm
    out = np.empty_like(rhs_block)
    for j0 in range(0, rhs_block.shape[1], _COL_BLOCK):
        chunk = rhs_block[perm, j0:j0 + _COL_BLOCK]
        out[perm, j0:j0 + _COL_BLOCK] = _apply_perm(h2, chunk)
    return out


# ---------------------------------------------------------------------------
# formatted addition
# ---------------------------------------------------------------------------


def _check_same_structure(a, b):
    if a.tree is not b.tree or a.btree is not b.btree or a.basis is not b.basis:
        raise StructureMismatchError(
            "operands must share cluster tree, block tree and bases"
        )


def h2_add_formatted(target, addend, sign=1):
    """target <- target + sign * addend, leafwise; bases and structure fixed."""
    _check_same_structure(target, addend)
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    for key, s in target.coupling.items():
        s += sign * addend.coupling[key]
    for key, d in target.dense.items():
        d += sign * addend.dense[key]
    return target


# ---------------------------------------------------------------------------
# formatted multiplication
# ---------------------------------------------------------------------------
#
# The product below walks the triples (t, s, r) with (t, s) a block of A and
# (s, r) a block of B, accumulating A[t,s] @ B[s,r] into C[t,r]. A triple of
# three subdivided nodes expands into its children; every other triple adds
# one contribution X @ Y, a product of two halves, X = A[t,s] in a left
# frame and Y = B[s,r] in a right frame.
#
# Frames. A left frame is V_t^H (a basis) or the identity, a right frame
# conj(V_r) or the identity. A leaf target sets both: its bases if it is a
# coupling, the identity if it is dense. A subdivided target takes each
# operand's outer side: a basis for an admissible operand, the identity
# for a dense one, and for a subdivided operand a basis exactly when the
# other operand meets it with a basis. That last projection is lossy like
# a coupling target's, but keeps such a pair at O(k^3) work.
#
# Halves. Per operand kind, basis / identity frame:
#   X = frame-left A[t,s]:   S or V_t S (admissible), V_t^H D or D (dense),
#                            V_t^H A[t,s] or A[t,s] (subdivided)
#   Y = B[s,r] frame-right:  S or S V_r^T, D conj(V_r) or D,
#                            B[s,r] conj(V_r) or B[s,r]
# An admissible half keeps its basis on the inner side (V_s^T after an
# A-half, V_s before a B-half), and the inner cluster s is contracted into
# the halves: overlap(s) = V_s^T V_s joins X when both keep a basis, V_s
# joins X when only Y keeps one, V_s^T joins Y when only X keeps one. No
# projector is applied at s, since near-field chains passing through s
# carry content outside span(V_s). A subdivided half in a basis frame
# facing a basis is thus its R/Q family (below); in the identity frame it
# is the block applied to the identity of its smaller side, which is a
# leaf of at most n_min points wherever that frame occurs. A half depends
# on its operand block, its frame and the other side's kind only.
#
# Delivery. The walk records the contributions as (t, r) lists per inner
# cluster s; _add_products then forms the halves of one s at a time, adds
# every X @ Y, and drops them before the next s. Every X(t, s) and Y(s, r)
# meets all its partners inside one group, so nothing is formed twice, and
# only one group's halves are alive at a time. A leaf target takes X @ Y by
# one zgemm. A subdivided target takes it as the payload L (X @ Y) R^T,
# with L = V_t for a basis frame and I for the identity (R likewise):
# _place projects a non-basis side onto a coupling target below, expands a
# basis side into a dense target below, and splits through the transfer
# matrices on the way down, exactly.


def _lifts(basis, tree, cid):
    """(child, transfer) pairs of cid, or [(cid, None)] for a leaf."""
    c = tree.cluster(cid)
    if c.is_leaf:
        return [(cid, None)]
    return list(zip(c.children(), basis.transfers[cid]))


def _block_apply(m, t, s, x, trans=False):
    """Sub-block product M[t,s] @ x for an (t, s) node of the block tree.

    With trans the product is M[t,s]^T @ x instead, x having #t rows; the
    formatted product uses it to form a left half as (M^T F)^T.
    """
    kind = m.btree.kind((t, s))
    tree = m.tree
    u, v = (s, t) if trans else (t, s)  # clusters of the output and input rows
    if kind == cl.INADMISSIBLE:
        d = m.dense[(t, s)]
        return (d.T if trans else d) @ x
    if kind == cl.ADMISSIBLE:
        smat = m.coupling[(t, s)]
        if smat.size == 0:
            return np.zeros((tree.cluster(u).size, x.shape[1]), dtype=np.complex128)
        smat = smat.T if trans else smat
        return m.basis.materialize(u) @ (smat @ (m.basis.materialize(v).T @ x))
    out = np.zeros((tree.cluster(u).size, x.shape[1]), dtype=np.complex128)
    u0 = tree.cluster(u).start
    v0 = tree.cluster(v).start
    for ti in cl.children_or_self(tree, t):
        for sj in cl.children_or_self(tree, s):
            cu = tree.cluster(sj if trans else ti)
            cv = tree.cluster(ti if trans else sj)
            out[cu.start - u0:cu.stop - u0] += _block_apply(
                m, ti, sj, x[cv.start - v0:cv.stop - v0], trans
            )
    return out


def _block_array(m, t, s):
    """M[t,s] as an array, applied to the identity of its smaller side."""
    n_t = m.tree.cluster(t).size
    n_s = m.tree.cluster(s).size
    if n_t < n_s:
        return _block_apply(m, t, s, np.eye(n_t, dtype=np.complex128), trans=True).T
    return _block_apply(m, t, s, np.eye(n_s, dtype=np.complex128))


# Basis-projected views of whole sub-blocks, each a small k x k matrix:
#   R[u,v] = V_u^H X[u,v] V_v        (left factor of products)
#   Q[u,v] = V_u^T X[u,v] conj(V_v)  (right factor against a V^T basis)
# Computed bottom-up through the transfers and memoized per product call,
# they keep coupling-level products at O(k^3) work.


def _family(op, u, v, mode, memo):
    key = (u, v)
    got = memo.get(key)
    if got is not None:
        return got
    basis = op.basis
    tree = op.tree
    kind = op.btree.kind(key)
    ku = basis.rank(u)
    kv = basis.rank(v)
    if ku == 0 or kv == 0:
        out = np.zeros((ku, kv), dtype=np.complex128)
    elif kind == cl.ADMISSIBLE:
        # V_u^H V_u = I and V_u^T conj(V_u) = I collapse one side each
        smat = op.coupling[key]
        if mode == "R":
            out = smat @ basis.overlap(v)
        else:  # Q
            out = basis.overlap(u) @ smat
    elif kind == cl.INADMISSIBLE:
        d = op.dense[key]
        vu = basis.materialize(u)
        vv = basis.materialize(v)
        if mode == "R":
            out = vu.conj().T @ d @ vv
        else:
            out = vu.T @ d @ vv.conj()
    else:
        # out = sum_i Lu_i (sum_j F_ij Rv_j): each child family lifted into
        # (u, v) by its transfers, T^H / T on the left and T / conj(T) on the
        # right for R / Q; a leaf side keeps its one cluster and no transfer
        rights = _lifts(basis, tree, v)
        out = None
        for ui, t_u in _lifts(basis, tree, u):
            row = None
            for vj, t_v in rights:
                f = _family(op, ui, vj, mode, memo)
                if t_v is not None:
                    f = f @ (t_v if mode == "R" else t_v.conj())
                row = f if row is None else row + f
            if t_u is not None:
                row = (t_u.T if mode == "Q" else t_u.conj().T) @ row
            out = row if out is None else out + row
    memo[key] = out
    return out


def _half_a(a, t, s, left, b_basis, memo):
    """X: A[t,s] in the left frame (V_t^H if left), contracted to meet Y."""
    basis = a.basis
    kind = a.btree.kind((t, s))
    if kind == cl.ADMISSIBLE:
        x = a.coupling[(t, s)]
        if not left:
            x = basis.materialize(t) @ x
        return x @ basis.overlap(s) if b_basis else x
    if kind == cl.INADMISSIBLE:
        x = a.dense[(t, s)]
        if left:
            x = basis.materialize(t).conj().T @ x
    elif left and b_basis:
        return _family(a, t, s, "R", memo)
    elif left:  # (A[t,s]^T conj(V_t))^T
        x = _block_apply(a, t, s, basis.materialize(t).conj(), trans=True).T
    else:
        x = _block_array(a, t, s)
    return x @ basis.materialize(s) if b_basis else x


def _half_b(b, s, r, right, a_basis, memo):
    """Y: B[s,r] in the right frame (conj(V_r) if right), contracted to meet X."""
    basis = b.basis
    kind = b.btree.kind((s, r))
    if kind == cl.ADMISSIBLE:  # overlap(s) joined X if X keeps a basis
        y = b.coupling[(s, r)]
        return y if right else y @ basis.materialize(r).T
    if kind == cl.INADMISSIBLE:
        y = b.dense[(s, r)]
        if right:
            y = y @ basis.materialize(r).conj()
    elif right and a_basis:
        return _family(b, s, r, "Q", memo)
    elif right:
        y = _block_apply(b, s, r, basis.materialize(r).conj())
    else:
        y = _block_array(b, s, r)
    return basis.materialize(s).T @ y if a_basis else y


def _add_products(c, a, b, work, sign, pending):
    """Add every recorded contribution sign * X @ Y into C.

    `work` maps the inner cluster s to {(kind_c, left, right, a_basis,
    b_basis): (ts, rs)}, one (t, r) pair per contribution. The halves of one
    s are formed on first use and dropped once its pairs are done. A leaf
    target takes one zgemm that accumulates out^T += sign * Y^T X^T into the
    Fortran view of the C-contiguous target block, so nothing is allocated;
    a block of another layout would be copied and the sum lost, hence the
    check. A subdivided target takes the payload through _place.
    """
    a_r, b_q = {}, {}  # R/Q family memos, shared by every s
    for s, groups in work.items():
        xs = {}  # (left, b_basis) -> {t: X}
        ys = {}  # (right, a_basis) -> {r: Y}
        for (kind_c, left, right, a_basis, b_basis), (ts, rs) in groups.items():
            x_of = xs.setdefault((left, b_basis), {})
            y_of = ys.setdefault((right, a_basis), {})
            leaf = kind_c != cl.SUBDIVIDED
            targets = c.coupling if kind_c == cl.ADMISSIBLE else c.dense
            for t, r in zip(ts, rs):
                if leaf:
                    out = targets[(t, r)]
                    if not out.size:  # a rank-0 coupling; zgemm refuses it
                        continue
                    if not out.flags.c_contiguous or out.dtype != np.complex128:
                        raise ValueError("product targets must be C-contiguous complex blocks")
                x = x_of.get(t)
                if x is None:
                    x = x_of[t] = _half_a(a, t, s, left, b_basis, a_r)
                y = y_of.get(r)
                if y is None:
                    y = y_of[r] = _half_b(b, s, r, right, a_basis, b_q)
                if leaf:
                    zgemm(sign, y.T, x.T, beta=1.0, c=out.T, overwrite_c=True)
                else:
                    _place(c, t, r, sign * (x @ y), left, right, pending)


def _split(tree, basis, t, r, core, left, right):
    """Yield (ti, rj, part): the payload over each child block of (t, r).

    A basis side passes its child's transfer matrix, an identity side its
    child's slice of rows or columns; the left side is done once per row
    of children. Exact.
    """
    t0 = tree.cluster(t).start
    r0 = tree.cluster(r).start
    rights = _lifts(basis, tree, r)
    for ti, tr_t in _lifts(basis, tree, t):
        if not left:
            ct = tree.cluster(ti)
            rows = core[ct.start - t0:ct.stop - t0]
        else:
            rows = core if tr_t is None else tr_t @ core
        for rj, tr_r in rights:
            if not right:
                cr = tree.cluster(rj)
                part = rows[:, cr.start - r0:cr.stop - r0]
            else:
                part = rows if tr_r is None else rows @ tr_r.T
            yield ti, rj, part


def _place(c, t, r, core, left, right, pending):
    """Accumulate the (t, r)-supported payload L core R^T into C's structure.

    A coupling target takes the payload projected onto its bases, a dense
    target takes it expanded, and a subdivided target splits it exactly
    among its children. Basis-by-basis payloads aimed at a subdivided node
    are deferred into `pending` instead, so overlapping contributions merge
    and the expensive downward splitting happens once per node (see
    _flush_pending).
    """
    if core.size == 0:
        return
    basis = c.basis
    kind = c.btree.kind((t, r))
    if kind == cl.ADMISSIBLE:
        if not left:
            core = basis.materialize(t).conj().T @ core
        if not right:
            core = core @ basis.materialize(r).conj()
        c.coupling[(t, r)] += core
    elif kind == cl.INADMISSIBLE:
        if left:
            core = basis.materialize(t) @ core
        if right:
            core = core @ basis.materialize(r).T
        c.dense[(t, r)] += core
    elif left and right:
        got = pending.get((t, r))
        pending[(t, r)] = core if got is None else got + core
    else:
        for ti, rj, part in _split(c.tree, basis, t, r, core, left, right):
            _place(c, ti, rj, part, left, right, pending)


def _flush_pending(c, pending):
    """Push merged basis-by-basis payloads down the structure, top level first.

    Each (t, r) node is visited once no matter how many contributions were
    aimed at it, which keeps one full product at O(nodes) placement work.
    """
    tree = c.tree
    by_depth = {}

    def push(key, payload):
        d = tree.cluster(key[0]).level + tree.cluster(key[1]).level
        bucket = by_depth.setdefault(d, {})
        got = bucket.get(key)
        bucket[key] = payload if got is None else got + payload

    for key, payload in pending.items():
        push(key, payload)
    for depth in range(2 * tree.depth + 1):
        bucket = by_depth.pop(depth, None)
        if not bucket:
            continue
        for (t, r), payload in bucket.items():
            if c.btree.kind((t, r)) != cl.SUBDIVIDED:
                _place(c, t, r, payload, True, True, None)
                continue
            for ti, rj, part in _split(tree, c.basis, t, r, payload, True, True):
                if part.size:
                    push((ti, rj), part)


def _mul_walk(c, t, s, r):
    """Record every contribution below (t, s, r) once, depth first.

    A triple of three subdivided nodes expands into its children. Every
    other one is recorded as {s: {(kind_c, left, right, a_basis, b_basis):
    (ts, rs)}}: the target's kind, each side's frame (True for a basis) and
    whether each operand keeps a basis at s.
    """
    # the operands share C's block tree; nodes.get is btree.kind without
    # its call frame, which counts at ~10^5 triples per product
    kind = c.btree.nodes.get
    tree = c.tree
    work = defaultdict(lambda: defaultdict(lambda: ([], [])))
    stack = [(t, s, r)]
    while stack:
        t, s, r = stack.pop()
        kind_c = kind((t, r))
        kind_a = kind((t, s))
        kind_b = kind((s, r))
        if kind_c == kind_a == kind_b == cl.SUBDIVIDED:
            tc, sc, rc = (cl.children_or_self(tree, x)[::-1] for x in (t, s, r))
            # pushed in reverse, so they pop in (ti, sj, rl) order
            stack.extend([(ti, sj, rl) for ti in tc for sj in sc for rl in rc])
            continue
        a_basis = kind_a == cl.ADMISSIBLE
        b_basis = kind_b == cl.ADMISSIBLE
        if kind_c == cl.SUBDIVIDED:
            left = a_basis or (b_basis and kind_a == cl.SUBDIVIDED)
            right = b_basis or (a_basis and kind_b == cl.SUBDIVIDED)
        else:
            left = right = kind_c == cl.ADMISSIBLE
        ts, rs = work[s][(kind_c, left, right, a_basis, b_basis)]
        ts.append(t)
        rs.append(r)
    return work


def _mul_into(c, a, b, t, s, r, sign):
    """One formatted product C[t,r] += sign * A[t,s] @ B[s,r], flushed.

    A and B are read-only for the whole call, and C's target blocks are
    disjoint from the blocks it reads (h2_mul_formatted writes a fresh C,
    every _invert_rec call writes a block other than its operands'), so
    contributions may be deferred and reordered freely. _mul_walk records
    every contribution with its frames under its inner cluster s;
    _add_products adds each as X @ Y, forming the halves of one s at a time
    (see the comment above _lifts); _flush_pending splits the merged
    basis-by-basis payloads aimed at subdivided nodes down the structure
    once per node.
    """
    pending = {}
    _add_products(c, a, b, _mul_walk(c, t, s, r), sign, pending)
    _flush_pending(c, pending)


def h2_zeros_like(m):
    """Same structure and bases as m, zero couplings and dense leaves."""
    return _fresh_block(m, m.tree.root, m.tree.root)


def h2_mul_formatted(a, b):
    """Formatted product A (x) B projected onto the shared structure and bases."""
    _check_same_structure(a, b)
    c = h2_zeros_like(a)
    root = a.tree.root
    _mul_into(c, a, b, root, root, root, 1)
    return c


# ---------------------------------------------------------------------------
# recursive inverse
# ---------------------------------------------------------------------------


def _subtree_leaves(m, t, s):
    """(key, kind) for every block-tree leaf under node (t, s)."""
    out = []
    stack = [(t, s)]
    while stack:
        key = stack.pop()
        kind = m.btree.kind(key)
        if kind == cl.SUBDIVIDED:
            stack.extend(cl.block_children(m.tree, *key))
        else:
            out.append((key, kind))
    return out


def _fresh_block(m, t, s):
    """Zero-initialized accumulator covering only the (t, s) subtree of m."""
    coupling = {}
    dense = {}
    for key, kind in _subtree_leaves(m, t, s):
        if kind == cl.ADMISSIBLE:
            coupling[key] = np.zeros_like(m.coupling[key])
        else:
            dense[key] = np.zeros_like(m.dense[key])
    return H2Matrix.blockwise(m.tree, m.btree, m.basis, coupling, dense, m.params)


def _zero_subtree(m, t, s):
    for key, kind in _subtree_leaves(m, t, s):
        if kind == cl.ADMISSIBLE:
            m.coupling[key][:] = 0
        else:
            m.dense[key][:] = 0


def _invert_rec(m, t):
    """In-place inverse of the diagonal block (t, t) per the 2x2 recursion."""
    kind = m.btree.kind((t, t))
    if kind == cl.INADMISSIBLE:
        try:
            m.dense[(t, t)][...] = dense_lu_invert(m.dense[(t, t)])
        except SingularMatrixError as exc:
            raise SingularLeafError(
                f"diagonal leaf of cluster {t} is singular: {exc}", t
            ) from exc
        return
    lo, hi = m.tree.cluster(t).children()
    _invert_rec(m, lo)  # S11 <- S11^{-1}
    x21 = _fresh_block(m, hi, lo)
    _mul_into(x21, m, m, hi, lo, lo, 1)  # X21 = S21 S11^{-1}
    x12 = _fresh_block(m, lo, hi)
    _mul_into(x12, m, m, lo, lo, hi, 1)  # X12 = S11^{-1} S12
    _mul_into(m, x21, m, hi, lo, hi, -1)  # S22 <- S22 - X21 S12
    _invert_rec(m, hi)  # S22 <- F^{-1}
    _zero_subtree(m, hi, lo)
    _mul_into(m, m, x21, hi, hi, lo, -1)  # S21 <- -F^{-1} X21
    _zero_subtree(m, lo, hi)
    _mul_into(m, x12, m, lo, hi, hi, -1)  # S12 <- -X12 F^{-1}
    _mul_into(m, m, x21, lo, hi, lo, -1)  # S11 <- S11^{-1} - S12 X21


def h2_invert(m):
    """Inverse with the same structure and bases as m (formatted recursion).

    The input is left untouched; a private copy is mutated in place.
    """
    inv = m.copy()
    _invert_rec(inv, m.tree.root)
    return inv


def _check_finite(name, x):
    """Raise ValueError naming the first non-finite entry of x, if any."""
    bad = np.argwhere(~np.isfinite(x))
    if bad.size:
        idx = tuple(int(i) for i in bad[0])
        raise ValueError(
            f"{name} has a non-finite entry at index {idx[0] if len(idx) == 1 else idx}"
        )


def apply_inverse_solve(inv, e, operator=None):
    """Solution by applying the inverted operator to one or more excitations.

    Passing the forward operator adds one residual-correction sweep
    (x += S^{-1}(e - S x)), which squares the effective inverse accuracy at
    the cost of two extra applications; standard practice when the direct
    inverse is itself an approximation.
    """
    e = np.asarray(e, dtype=np.complex128)
    _check_finite("excitation", e)
    apply_one = matvec if e.ndim == 1 else matmat_apply
    x = apply_one(inv, e)
    if operator is not None:
        x = x + apply_one(inv, e - apply_one(operator, x))
    return x


# ---------------------------------------------------------------------------
# iterative solver
# ---------------------------------------------------------------------------


def bicgstab_solve(apply, rhs, tol=1e-3, max_iter=200, seed=0, shadow=None):
    """Unpreconditioned BiCGStab on a matvec closure.

    Converges when ||r||/||rhs|| <= tol. A rho-breakdown triggers one restart
    with a randomly perturbed shadow residual before giving up. The shadow
    residual defaults to the initial residual; pass `shadow` to override.
    """
    if not (0.0 < tol < 1.0):
        raise ValueError("tol must be in (0, 1)")
    if max_iter < 1:
        raise ValueError("max_iter must be >= 1")
    t_start = time.perf_counter()
    b = np.asarray(rhs, dtype=np.complex128)
    _check_finite("rhs", b)
    n = b.size
    bnrm = np.linalg.norm(b)
    if bnrm == 0.0:
        return np.zeros(n, dtype=np.complex128), SolveReport(
            0, [], True, time.perf_counter() - t_start
        )
    x = np.zeros(n, dtype=np.complex128)
    r = b.copy()
    r_hat = r.copy() if shadow is None else np.asarray(shadow, dtype=np.complex128).copy()
    rho = alpha = omega = 1.0 + 0j
    v = np.zeros(n, dtype=np.complex128)
    p = np.zeros(n, dtype=np.complex128)
    history = []
    converged = False
    restarted = False
    it = 0
    breakdown = np.finfo(np.float64).eps**2

    while it < max_iter:
        it += 1
        rho_new = np.vdot(r_hat, r)
        if abs(rho_new) < breakdown * max(1.0, bnrm**2):
            if restarted:
                break
            # restart once: re-seed the shadow residual off the Krylov kernel
            rng = np.random.default_rng(seed)
            r_hat = r + bnrm * 1e-8 * (
                rng.standard_normal(n) + 1j * rng.standard_normal(n)
            )
            rho = alpha = omega = 1.0 + 0j
            v[:] = 0
            p[:] = 0
            restarted = True
            rho_new = np.vdot(r_hat, r)
            if abs(rho_new) < breakdown * max(1.0, bnrm**2):
                break
        if it == 1 or np.all(p == 0):
            p = r.copy()
        else:
            beta = (rho_new / rho) * (alpha / omega)
            p = r + beta * (p - omega * v)
        v = apply(p)
        denom = np.vdot(r_hat, v)
        if denom == 0:
            break
        alpha = rho_new / denom
        s = r - alpha * v
        s_nrm = np.linalg.norm(s)
        if s_nrm / bnrm <= tol:
            x += alpha * p
            history.append(float(s_nrm / bnrm))
            converged = True
            break
        t = apply(s)
        tt = np.vdot(t, t)
        if tt == 0:
            break
        omega = np.vdot(t, s) / tt
        if omega == 0:
            break
        x += alpha * p + omega * s
        r = s - omega * t
        rho = rho_new
        rel = float(np.linalg.norm(r) / bnrm)
        history.append(rel)
        if rel <= tol:
            converged = True
            break
        if not np.isfinite(rel):
            break

    return x, SolveReport(it, history, converged, time.perf_counter() - t_start)
