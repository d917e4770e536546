"""Arithmetic on the nested low-rank representation.

Matrix-vector products run on the block-row layout of H2Matrix in the
padded slot layout of NestedBasis.schedule: every cluster of tree level
l owns an equal slot of k_l rows (the level's largest rank) in one
rank-space vector, and every leaf an equal slot of n_max rows (the
largest leaf size) in a leaf-slot vector, with zeros in the padding. The
input is scattered once into the leaf slots. A forward sweep up the tree
fills the rank-space vector with one stacked product per level, each
with the level's basis stack (the one store of the bases), one product
per block row writes the couplings' result in place, a backward sweep
pushes it down with one stacked product per level, one product per block
row writes the near field into a zeroed block that is added once, and
the result is gathered back once. Each target cluster owns at most one
row per stage, so no two products write the same rows. The coupling and
near-field rows read their inputs from panels, each one gather of the
inputs of consecutive whole rows and no larger than one column of the
stage's own input block, or than one row; each operator splits its rows
into panels once per column count and keeps that plan.
Formatted addition and multiplication keep the block structure and cluster
bases of the operands fixed, projecting whatever falls outside them; the
recursive inverse is built from formatted products, subtree zeroing and
mirroring, and dense leaf inverses, and returns a matrix with the same
structure as its input.
Every H2Matrix, these results included, has the one block-row layout of
its constructor. The product and the inverse add into their target blocks
by zgemm, which needs blocks that own contiguous memory, so they work on a
private copy (_Blocks) with one array per block and no apply rows. _pack
then moves its blocks into the returned H2Matrix one block row at a time,
dropping each block as its row is built, so the result never holds two
copies of its payload.
The shared NestedBasis holds its level stacks only. The explicit bases
V_c, their conjugates, the conjugate transfers and the overlaps V_c^T V_c
that the product's frames need are the call's own data: each h2_invert or
h2_mul_formatted memoizes them in one _Explicit that its working copies
share, and drops it on return, so an operator holds the same memory
before and after any number of inverses and products.
If the input is complex symmetric bit for bit (every block equals its
mirror's transpose, as build_h2's operators are), the inverse runs a
symmetric recursion with one rule for every symmetric block it writes:
form the upper target leaves (t <= r), write each lower leaf as its
mirror's transpose and average each diagonal leaf with its own transpose.
The call that writes such a block applies the rule: the dense leaf
inverse, and each product that updates a diagonal block, run with
`upper`. The upper Schur blocks X12 = X21^T and S12 = S21^T are mirrored
instead of multiplied, so the inverse is complex symmetric bit for bit as
well. Any other input takes the general recursion with all six products
per level on every target.
The product has one contribution rule: each operand block is taken once
into a left or right frame, the identity for a dense target block and
the cluster bases for any other, and the contribution is the product of
the two halves, added by one GEMM into a leaf target or merged at a
subdivided one and split down into its leaves. One half rule serves both
operands: it puts a block of an operand, or of its transpose, into the
left frame, and the right half Y of B is the transpose of B^T's left half.

The formatted product and the inverse run their BLAS calls at one thread
(_one_blas_thread): their many small GEMMs run slower split across
threads.

Precision: the payloads of an H2Matrix are complex64 when its eps_acc is
at least 1e-4 and complex128 below (CompressionParams.payload_dtype).
Only the apply's two row stages run in that dtype; the sweeps, the
inputs and outputs of matvec and matmat_apply, BiCGStab and the formatted
arithmetic stay complex128. The product and the inverse read their
operands' payloads upcast, exactly, work on complex128 blocks, and round
once as _pack writes their result in its params' payload dtype.

Because the bases are complex with V^H V = I while blocks are represented
as V_t S V_s^T (plain transpose), every product and projection rule below
carries an explicit conjugation; nothing relies on V^T V being identity.
"""

from __future__ import annotations

import ctypes
import functools
import importlib
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np
from scipy.linalg.blas import zgemm

from . import clustering as cl
from .build import H2Matrix, _moved_rows
from .linalg import SingularMatrixError, dense_lu_invert


class StructureMismatchError(ValueError):
    pass


class SingularLeafError(RuntimeError):
    """A diagonal leaf could not be inverted; .cluster_id names the cluster."""

    def __init__(self, message, cluster_id):
        super().__init__(message)
        self.cluster_id = cluster_id


class _Explicit:
    """The explicit bases that one formatted product or inverse derives.

    v(c) is V_c (NestedBasis.materialize), v_conj(c) its conjugate,
    t_conj(c) the conjugate transfers (conj(T_lo), conj(T_hi)) and vtv(c)
    the overlap V_c^T V_c, each formed on first use and kept for the rest
    of the call. One call's working copies (_Blocks) share one, and it is
    dropped with them when the call returns.
    """

    def __init__(self, basis):
        self.basis = basis
        self.vs, self.v_conjs, self.t_conjs, self.vtvs = {}, {}, {}, {}

    def v(self, cid):
        return self.basis._explicit(cid, self.vs)

    def v_conj(self, cid):
        got = self.v_conjs.get(cid)
        if got is None:
            got = self.v_conjs[cid] = self.v(cid).conj()
        return got

    def t_conj(self, cid):
        got = self.t_conjs.get(cid)
        if got is None:
            got = self.t_conjs[cid] = tuple(t.conj() for t in self.basis.transfers[cid])
        return got

    def vtv(self, cid):
        """V_c^T V_c (not conjugated), through the transfers above the leaves."""
        got = self.vtvs.get(cid)
        if got is None:
            c = self.basis.tree.cluster(cid)
            if c.is_leaf:
                v = self.basis.leaf_v[cid]
                got = v.T @ v
            else:
                lo, hi = c.children()
                t_lo, t_hi = self.basis.transfers[cid]
                got = t_lo.T @ self.vtv(lo) @ t_lo + t_hi.T @ self.vtv(hi) @ t_hi
            self.vtvs[cid] = got
        return got


class _Blocks:
    """A private working copy: one C-contiguous array per block, no apply rows.

    It shares m's cluster tree, block tree and bases, and maps (t, s) to
    its own (k_t, k_s) coupling and (#t, #s) dense blocks, complex128
    whatever m's payload dtype. The formatted product adds into each leaf
    target block by one zgemm on its Fortran view, which needs a block
    that owns contiguous memory; an H2Matrix's blocks are column views of
    its row buffers. So the product and the inverse write into these, and
    _pack moves the result into an H2Matrix. explicit is the call's
    _Explicit: a new one for a copy of an H2Matrix, m's own for a copy of
    a _Blocks.
    """

    def __init__(self, m, coupling, dense):
        self.tree, self.btree, self.basis = m.tree, m.btree, m.basis
        self.coupling, self.dense = coupling, dense
        self.explicit = m.explicit if isinstance(m, _Blocks) else _Explicit(m.basis)


def _working_copy(m):
    """_Blocks holding a contiguous complex128 copy of every block of m."""
    return _Blocks(m, {k: v.astype(np.complex128) for k, v in m.coupling.items()},
                   {k: v.astype(np.complex128) for k, v in m.dense.items()})


def _pack(w, params):
    """Move the blocks of working copy w into an H2Matrix, one block row at a time.

    The rows take params.payload_dtype. w is emptied: each block is
    dropped as soon as its row is built, so packing costs one row beyond
    the payload as long as nothing else refers to w's blocks.
    """
    dtype = params.payload_dtype
    return H2Matrix(w.tree, w.btree, w.basis, _moved_rows(w.coupling, dtype),
                    _moved_rows(w.dense, dtype), params)


@dataclass
class SolveReport:
    iterations: int
    residual_history: list
    converged: bool


# ---------------------------------------------------------------------------
# matrix-vector / matrix-block application
# ---------------------------------------------------------------------------


def _apply_slots(h2, xs):
    """Apply the representation to an (n_rows, q) leaf-slot block.

    All cluster coefficients live in one rank-space block in the padded
    slot layout of NestedBasis.schedule, so each sweep step is one
    np.matmul with a whole tree level's basis stack. The forward sweep
    fills it leaves first, each level from the slots below it; each block
    row of couplings writes its product into the zeroed output
    coefficients, the backward sweep pushes them down level by level into
    the leaf slots, and each block row of the near field writes its
    product into a zeroed leaf-slot block, which is added once into the
    result. Each target owns at most one row per stage (H2Matrix), so the
    writes never overlap. Both row stages gather their inputs in panels
    (_panel_plan).

    The sweeps run in complex128 and the row stages in the payloads'
    dtype (H2Matrix): the rank-space block is cast once for the coupling
    rows and their result cast back before the backward sweep, and xs is
    cast once for the near-field rows, whose block is added into the
    complex128 result. With complex128 payloads no cast is made.
    """
    sched = h2.basis.schedule
    dtype = h2.params.payload_dtype
    q = xs.shape[1]
    far, near = _panel_plan(h2, q)
    # forward transform: x^c = V_c^T x|_c, children first
    xr = np.empty((sched.size, q), dtype=np.complex128)
    below = xs
    for lo, hi, c_lo, c_hi, stack in sched.steps:
        p, n_in, k = stack.shape
        np.matmul(stack.mT, below[c_lo:c_hi].reshape(p, n_in, q),
                  out=xr[lo:hi].reshape(p, k, q))
        below = xr
    # coupling products: y^t = [S^{t,s1} | S^{t,s2} | ...] [x^s1; x^s2; ...]
    yr = np.zeros_like(xr, dtype=dtype)
    _write_rows(yr, xr.astype(dtype, copy=False), far)
    yr = yr.astype(np.complex128, copy=False)
    # backward transform: parents before children, expand at the leaves
    leaf_step, *inner = sched.steps
    for lo, hi, c_lo, c_hi, stack in reversed(inner):
        p, n_in, k = stack.shape
        children = yr[c_lo:c_hi].reshape(p, n_in, q)
        children += stack @ yr[lo:hi].reshape(p, k, q)
    lo, hi, _, _, stack = leaf_step
    p, _, k = stack.shape
    ys = (stack @ yr[lo:hi].reshape(p, k, q)).reshape(sched.n_rows, q)
    # near field, one block row per leaf cluster
    near_ys = np.zeros_like(ys, dtype=dtype)
    _write_rows(near_ys, xs.astype(dtype, copy=False), near)
    ys += near_ys
    return ys


def _panel_plan(h2, q):
    """h2's (coupling, near-field) panel plans for q columns, built once per q.

    A stage's rows are split into panels of consecutive whole rows that
    gather at most as many entries as one column of the stage's input, or
    one row. A gather costs a call whatever its size, so at small q one
    gather serves many short rows; at large q each row's own gather is
    already large, and a panel the size of the input only moved the rows'
    inputs out of cache before their products (q = 64 applies ran about
    20% slower). One row reads at most the input's rows, as its sources
    are distinct clusters, so a panel never holds more than the input.

    A plan is [(idx, part)]: the panel gathers x[idx] once, and each row
    (tgt, buf, src) of part writes buf @ x[idx][src] to y[tgt]. It holds
    views of the row buffers and gather indices only, so payloads changed
    in place are applied. It is kept in h2.panel_plans.
    """
    plans = h2.panel_plans.get(q)
    if plans is None:
        sched = h2.basis.schedule
        plans = h2.panel_plans[q] = tuple(
            _stage_plan(rows, gather, n_in // max(q, 1))
            for rows, gather, n_in in ((h2.far_rows, h2.far_src, sched.size),
                                       (h2.near_rows, h2.near_src, sched.n_rows)))
    return plans


def _stage_plan(rows, gather, limit):
    """One stage's panels: whole rows, gathering at most `limit` entries or one row."""
    plan, part, start = [], [], 0
    for lo, hi, buf, src in rows:
        if src.stop - start > limit and part:
            plan.append((gather[start:src.start], part))
            part, start = [], src.start
        part.append((slice(lo, hi), buf, slice(src.start - start, src.stop - start)))
    if part:
        plan.append((gather[start:], part))
    return plan


def _write_rows(y, x, plan):
    """y[tgt] = buf @ x[idx][src] for every row of every panel of a stage's plan.

    The rows' targets are disjoint, so each product is written in place
    into y, which the caller zeroes.
    """
    for idx, part in plan:
        xg = x[idx]
        for tgt, buf, src in part:
            np.matmul(buf, xg[src], out=y[tgt])
        del xg  # freed before the next panel is gathered


def matvec(h2, x):
    """y = S x through the nested representation."""
    x = np.asarray(x, dtype=np.complex128)
    if x.shape != (h2.n,):
        raise ValueError(f"expected vector of length {h2.n}")
    return matmat_apply(h2, x[:, None])[:, 0]


def matmat_apply(h2, rhs_block):
    """Apply to an (n, q) dense block, all q columns in one sweep.

    The block is scattered once into the leaf slots of the padded layout
    (NestedBasis.schedule: each leaf's points in cluster order at the
    head of an equal slot, zeros in the padding), applied there, and the
    result is gathered back into the original ordering. Each row stage
    gathers its inputs in panels of whole rows (see _panel_plan), so the
    gathered inputs never take more memory than the stage's input, and
    writes each row's product in place. Every H2Matrix, an inverse or a
    formatted product too, is applied this way.
    """
    rhs_block = np.asarray(rhs_block, dtype=np.complex128)
    if rhs_block.ndim != 2 or rhs_block.shape[0] != h2.n:
        raise ValueError(f"expected ({h2.n}, q) block")
    sched = h2.basis.schedule
    xs = np.zeros((sched.n_rows, rhs_block.shape[1]), dtype=np.complex128)
    xs[sched.leaf_rows] = rhs_block
    return _apply_slots(h2, xs)[sched.leaf_rows]


# ---------------------------------------------------------------------------
# BLAS threads of the formatted arithmetic
# ---------------------------------------------------------------------------

# (extension module, suffix of the exported setter and getter) of each
# OpenBLAS that the formatted arithmetic calls into: numpy's matmul and
# scipy's zgemm and LAPACK load two separate libraries.
_OPENBLAS_USERS = (("numpy._core._multiarray_umath", "64_"), ("scipy.linalg._fblas", ""))


@functools.cache
def _openblas_pools():
    """(get, set) of the thread count of each loaded OpenBLAS that exports them."""
    pools = []
    for module, suffix in _OPENBLAS_USERS:
        try:
            lib = ctypes.CDLL(importlib.import_module(module).__file__)
            get = getattr(lib, f"scipy_openblas_get_num_threads{suffix}")
            set_ = getattr(lib, f"scipy_openblas_set_num_threads{suffix}")
        except (ImportError, OSError, AttributeError):
            continue
        get.argtypes, get.restype = [], ctypes.c_int
        set_.argtypes, set_.restype = [ctypes.c_int], None
        pools.append((get, set_))
    return tuple(pools)


@contextmanager
def _one_blas_thread():
    """Run the body with every OpenBLAS pool at one thread, then restore them.

    The formatted product is made of many small GEMMs, which run slower
    when a pool splits each of them across threads. A library without the
    setters is left as it is.
    """
    pools = _openblas_pools()
    saved = [get() for get, _ in pools]
    for _, set_ in pools:
        set_(1)
    try:
        yield
    finally:
        for (_, set_), n in zip(pools, saved):
            set_(n)


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
# (s, r) a block of B, accumulating A[t,s] @ B[s,r] into C[t,r]. Every block
# pairs two clusters of one level, so t, s and r share a level. A triple of
# three subdivided nodes expands into its children; every other triple adds
# one contribution X @ Y, a product of two halves, X = A[t,s] in a left
# frame and Y = B[s,r] in a right frame.
#
# Frames. The target alone sets them: the identity on both sides if C[t,r]
# is dense, the bases V_t^H on the left and conj(V_r) on the right if it is
# a coupling or subdivided. For a subdivided target that projection is
# lossy like a coupling target's, but keeps such a pair at O(k^3) work. A
# dense target lies on the leaf level, so its operands are leaves too.
#
# Halves. Per operand kind there is one rule, for both operands: _half(op,
# u, v, ...) is M[u,v] in the left frame, V_u^H or the identity, with
# M = op, or M = op^T when `trans` is set. A right frame is the left frame
# of the transpose, so the right operand's half is the same call on B^T:
#   X   = _half(A, t, s, trans=False) = frame-left A[t,s]
#   Y^T = _half(B, r, s, trans=True)  = frame-left B[s,r]^T
# and by kind of M[u,v], basis / identity frame:
#   admissible  S or V_u S, keeping V_v^T on the inner side
#   dense       V_u^H D or D
#   subdivided  V_u^H M[u,v] (u is no leaf, so the frame is V_u^H)
# With `contract` the half also takes the inner cluster v = s: the overlap
# V_s^T V_s after an admissible block, V_s after any other; a subdivided
# block so contracted is its family (below). s is contracted exactly once:
# into X when Y keeps a basis, into Y when only X keeps one. No projector is
# applied at s, since near-field chains passing through s carry content
# outside span(V_s). A half depends on its operand block, its frame and
# whether it is contracted only.
#
# Delivery. The walk records the contributions as (t, r) lists per inner
# cluster s; _add_products then forms the halves of one s at a time, adds
# every X @ Y, and drops them before the next s. Every X(t, s) and Y(s, r)
# meets all its partners inside one group, so nothing is formed twice, and
# only one group's halves are alive at a time. A leaf target takes X @ Y by
# one zgemm. A subdivided target takes it as the payload V_t (X @ Y) V_r^T,
# merged per node; _flush_pending lands the merged payloads top down,
# splitting them through the transfer matrices on the way, exactly.
#
# Explicit bases. The explicit V_c, their conjugates, the conjugate
# transfers and the overlaps V_c^T V_c that the frames and contractions
# need belong to the call: every _Blocks of one h2_invert or
# h2_mul_formatted carries the same _Explicit, and _add_products and
# _flush_pending take it from their target C and hand it to the helpers
# as `ex`. Each is formed once per call, since the product reuses them
# across inner clusters and recursion levels, and none outlives the call.
#
# Both helpers below take (op, u, v, ..., trans) with the meaning of _half.
# _block_apply slices the basis top-down; _family lifts bottom-up through
# the transfers and is memoized, which keeps coupling-level products at
# O(k^3) work.


def _block_apply(op, u, v, x, trans, ex):
    """M[u,v]^T @ x, M = op or op^T if trans; x holds #u rows."""
    key = (v, u) if trans else (u, v)
    kind = op.btree.kind(key)
    if kind == cl.INADMISSIBLE:
        d = op.dense[key]
        return (d if trans else d.T) @ x
    if kind == cl.ADMISSIBLE:  # M[u,v]^T = V_v S^T V_u^T, or V_v S V_u^T if trans
        smat = op.coupling[key]
        return ex.v(v) @ ((smat if trans else smat.T) @ (ex.v(u).T @ x))
    tree = op.tree
    out = np.zeros((tree.cluster(v).size, x.shape[1]), dtype=np.complex128)
    u0 = tree.cluster(u).start
    v0 = tree.cluster(v).start
    for ui in tree.cluster(u).children():
        cu = tree.cluster(ui)
        x_i = x[cu.start - u0:cu.stop - u0]
        for vj in tree.cluster(v).children():
            cv = tree.cluster(vj)
            out[cv.start - v0:cv.stop - v0] += _block_apply(op, ui, vj, x_i, trans, ex)
    return out


def _family(op, u, v, trans, memo, ex):
    """V_u^H M[u,v] V_v for a subdivided M[u,v], M = op or op^T if trans."""
    got = memo.get((u, v))
    if got is not None:
        return got
    basis = op.basis
    ku = basis.rank(u)
    kv = basis.rank(v)
    if ku == 0 or kv == 0:
        out = np.zeros((ku, kv), dtype=np.complex128)
    else:
        # out = sum_i T_ui^H (sum_j F_ij T_vj): each child's contracted
        # half F_ij = V_ui^H M[ui,vj] V_vj lifted into (u, v) by its transfers
        rights = list(zip(op.tree.cluster(v).children(), basis.transfers[v]))
        out = None
        for ui, t_u in zip(op.tree.cluster(u).children(), ex.t_conj(u)):
            row = None
            for vj, t_v in rights:
                f = _half(op, ui, vj, True, True, trans, memo, ex) @ t_v
                row = f if row is None else row + f
            row = t_u.T @ row
            out = row if out is None else out + row
    memo[(u, v)] = out
    return out


def _half(op, u, v, frame, contract, trans, memo, ex):
    """M[u,v] in the left frame (V_u^H if frame), M = op or op^T if trans.

    With contract the inner cluster v is joined: V_v^T V_v after an
    admissible block, V_v after any other. memo holds the families of one
    operand side, ex the call's explicit bases.
    """
    key = (v, u) if trans else (u, v)
    kind = op.btree.kind(key)
    if kind == cl.ADMISSIBLE:
        h = op.coupling[key].T if trans else op.coupling[key]
        if not frame:
            h = ex.v(u) @ h
        return h @ ex.vtv(v) if contract else h
    if kind == cl.INADMISSIBLE:
        h = op.dense[key].T if trans else op.dense[key]
        if frame:
            h = ex.v_conj(u).T @ h
        return h @ ex.v(v) if contract else h
    # subdivided, so u is no leaf and the frame is V_u^H
    if contract:
        return _family(op, u, v, trans, memo, ex)
    return _block_apply(op, u, v, ex.v_conj(u), trans, ex).T


def _merge(payloads, key, core):
    got = payloads.get(key)
    payloads[key] = core if got is None else got + core


def _add_products(c, a, b, work, sign):
    """Add every recorded contribution sign * X @ Y into C.

    `work` maps the inner cluster s to {(kind_c, a_basis, b_basis): (ts,
    rs)}, one (t, r) pair per contribution. The halves X and Y^T of one s
    are formed on first use and dropped once its pairs are done. A leaf
    target takes one zgemm that accumulates out^T += sign * Y^T X^T into
    the Fortran view of the C-contiguous target block, so nothing is
    allocated; a block of another layout would be copied and the sum lost,
    hence the check. A subdivided target's payload is merged into the
    returned pending[level] for _flush_pending.
    """
    tree = c.tree
    pending = [{} for _ in range(tree.depth)]  # level -> {(t, r): core}
    a_fam, b_fam = {}, {}  # family memos of the two sides, shared by every s
    for s, groups in work.items():
        xs = {}  # (frame, contract) -> {t: X}
        yts = {}  # (frame, contract) -> {r: Y^T}
        for (kind_c, a_basis, b_basis), (ts, rs) in groups.items():
            frame = kind_c != cl.INADMISSIBLE
            # s is contracted once: into X if Y keeps a basis, else into Y
            y_contract = a_basis and not b_basis
            x_of = xs.setdefault((frame, b_basis), {})
            yt_of = yts.setdefault((frame, y_contract), {})
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
                    x = x_of[t] = _half(a, t, s, frame, b_basis, False, a_fam, c.explicit)
                yt = yt_of.get(r)
                if yt is None:
                    yt = yt_of[r] = _half(b, r, s, frame, y_contract, True, b_fam, c.explicit)
                if leaf:
                    # Y^T and X go in by their own layouts, so f2py copies
                    # neither when it is contiguous
                    a_fort = yt.flags.f_contiguous
                    b_fort = x.flags.f_contiguous
                    zgemm(sign, yt if a_fort else yt.T, x if b_fort else x.T, beta=1.0,
                          c=out.T, overwrite_c=True, trans_a=0 if a_fort else 1,
                          trans_b=1 if b_fort else 0)
                else:
                    core = sign * (x @ yt.T)
                    if core.size:
                        _merge(pending[tree.cluster(t).level], (t, r), core)
    return pending


def _flush_pending(c, pending, upper):
    """Land the merged payloads V_t core V_r^T, top level first.

    A coupling adds its core, a dense leaf expands it, and a subdivided node
    splits it exactly through the transfer matrices of its children (the
    left one once per row of children) into pending one level down, where
    it merges with what was aimed there. Each (t, r) node is visited once no
    matter how many contributions were aimed at it, which keeps one full
    product at O(nodes) placement work. With `upper` a diagonal node is
    split into its upper children (ti <= rj) only.
    """
    tree = c.tree
    basis, ex = c.basis, c.explicit
    for level, payloads in enumerate(pending):
        for (t, r), core in payloads.items():
            kind = c.btree.kind((t, r))
            if kind == cl.ADMISSIBLE:
                c.coupling[(t, r)] += core
            elif kind == cl.INADMISSIBLE:
                c.dense[(t, r)] += ex.v(t) @ core @ ex.v(r).T
            else:
                rights = list(zip(tree.cluster(r).children(), basis.transfers[r]))
                for ti, tr_t in zip(tree.cluster(t).children(), basis.transfers[t]):
                    rows = tr_t @ core
                    for rj, tr_r in rights:
                        if upper and ti > rj:
                            continue
                        part = rows @ tr_r.T
                        if part.size:
                            _merge(pending[level + 1], (ti, rj), part)


def _mul_walk(c, t, s, r, upper=False):
    """Record every contribution below (t, s, r) once, depth first.

    A triple of three subdivided nodes expands into its children. Every
    other one is recorded as {s: {(kind_c, a_basis, b_basis): (ts, rs)}}:
    the target's kind and whether each operand keeps a basis at s. With
    `upper` every triple whose target lies below the diagonal (t > r) is
    skipped. Cluster ids grow left to right within a level, so the children
    of t < r all lie left of those of r and such a target's whole subtree
    stays in.
    """
    # the operands share C's block tree; nodes.get is btree.kind without
    # its call frame, which counts at ~10^5 triples per product
    kind = c.btree.nodes.get
    clusters = c.tree.clusters
    work = defaultdict(lambda: defaultdict(lambda: ([], [])))
    stack = [(t, s, r)]
    while stack:
        t, s, r = stack.pop()
        if upper and t > r:
            continue
        kind_c = kind((t, r))
        kind_a = kind((t, s))
        kind_b = kind((s, r))
        if kind_c == kind_a == kind_b == cl.SUBDIVIDED:
            tc, sc, rc = (clusters[x].children()[::-1] for x in (t, s, r))
            # pushed in reverse, so they pop in (ti, sj, rl) order
            stack.extend([(ti, sj, rl) for ti in tc for sj in sc for rl in rc])
            continue
        ts, rs = work[s][(kind_c, kind_a == cl.ADMISSIBLE, kind_b == cl.ADMISSIBLE)]
        ts.append(t)
        rs.append(r)
    return work


def _mul_into(c, a, b, t, s, r, sign, upper=False):
    """One formatted product C[t,r] += sign * A[t,s] @ B[s,r], flushed.

    A and B are read-only for the whole call, and C's target blocks are
    disjoint from the blocks it reads (h2_mul_formatted writes a fresh C,
    every _invert_rec call writes a block other than its operands'), so
    contributions may be deferred and reordered freely. _mul_walk records
    every contribution under its inner cluster s; _add_products adds each
    as X @ Y in the frames its target sets, forming the halves of one s at
    a time (see the comment above _block_apply); _flush_pending lands the
    payloads merged at subdivided nodes down the structure once per node.
    With `upper` the target is a diagonal block (t == r) whose result is
    symmetric: only its upper leaves (t' <= r') are formed, and
    _mirror_subtree then writes each lower leaf as its mirror's transpose
    and averages each diagonal leaf, so the block equals its transpose bit
    for bit on return.
    """
    work = _mul_walk(c, t, s, r, upper)
    _flush_pending(c, _add_products(c, a, b, work, sign), upper)
    if upper:
        _mirror_subtree(c, t, t)


def h2_zeros_like(m):
    """Same structure and bases as m, zero couplings and dense leaves."""
    return _pack(_fresh_block(m, m.tree.root, m.tree.root), m.params)


def h2_mul_formatted(a, b):
    """Formatted product A (x) B projected onto the shared structure and bases.

    The product accumulates into a private working copy (_Blocks), which
    is then packed. Runs its BLAS calls at one thread (_one_blas_thread).
    """
    _check_same_structure(a, b)
    root = a.tree.root
    c = _fresh_block(a, root, root)
    with _one_blas_thread():
        _mul_into(c, a, b, root, root, root, 1)
    return _pack(c, a.params)


# ---------------------------------------------------------------------------
# recursive inverse
# ---------------------------------------------------------------------------


def _subtree_leaves(m, t, s, upper=False):
    """(key, payloads) for every block-tree leaf under node (t, s).

    payloads is the dict of m that holds the key, m.coupling or m.dense.
    With `upper` only the leaves (a, b) with a <= b; the subtree of a node
    below the diagonal holds no other, so it is not walked.
    """
    out = []
    stack = [(t, s)]
    while stack:
        key = stack.pop()
        if upper and key[0] > key[1]:
            continue
        kind = m.btree.kind(key)
        if kind == cl.SUBDIVIDED:
            stack.extend(cl.block_children(m.tree, *key))
        else:
            out.append((key, m.coupling if kind == cl.ADMISSIBLE else m.dense))
    return out


def _fresh_block(m, t, s):
    """Zero-initialized _Blocks accumulator covering only the (t, s) subtree of m."""
    leaves = _subtree_leaves(m, t, s)
    return _Blocks(m, {k: np.zeros(p[k].shape, np.complex128) for k, p in leaves
                       if p is m.coupling},
                   {k: np.zeros(p[k].shape, np.complex128) for k, p in leaves
                    if p is m.dense})


def _zero_subtree(m, t, s):
    for key, payloads in _subtree_leaves(m, t, s):
        payloads[key][:] = 0


def _symmetrize(p):
    """p <- (p + p^T) / 2 in place; addition commutes, so p = p^T bit for bit."""
    p[...] = 0.5 * (p + p.T)


def _mirror_subtree(m, t, s):
    """Write each leaf under (t, s) of m into its mirror's place, transposed.

    Off the diagonal every leaf (a, b) under (t, s) sets (b, a) <- (a, b)^T.
    On a diagonal block (t == s) the upper leaves (a < b) are the sources,
    and each diagonal leaf is averaged with its own transpose, so the whole
    block equals its transpose bit for bit.
    """
    for (a, b), payloads in _subtree_leaves(m, t, s, upper=t == s):
        if a == b:
            _symmetrize(payloads[(a, b)])
        else:
            payloads[(b, a)][...] = payloads[(a, b)].T


def _is_symmetric(m):
    """Whether every coupling and dense block equals its mirror's transpose exactly."""
    return all(np.array_equal(p, blocks[(s, t)].T)
               for blocks in (m.coupling, m.dense)
               for (t, s), p in blocks.items() if t <= s)


def _invert_rec(m, t, symmetric):
    """In-place inverse of the diagonal block (t, t) per the 2x2 recursion.

    With `symmetric` the block is complex symmetric bit for bit, and so is
    the inverse left in its place. Each diagonal block it writes, a dense
    leaf inverse, F = S22 - X21 S12 or S11^{-1} - S12 X21, has a symmetric
    result and takes the symmetric rule: the leaf inverse is averaged with
    its transpose, and the two products run with `upper`, forming the upper
    target leaves only and mirroring the rest. X12 = S11^{-1} S12 = X21^T
    is not formed, and S12 = -X12 F^{-1} = S21^T is mirrored, not
    multiplied.
    """
    kind = m.btree.kind((t, t))
    if kind == cl.INADMISSIBLE:
        d = m.dense[(t, t)]
        try:
            d[...] = dense_lu_invert(d)
        except SingularMatrixError as exc:
            raise SingularLeafError(
                f"diagonal leaf of cluster {t} is singular: {exc}", t
            ) from exc
        if symmetric:
            _mirror_subtree(m, t, t)
        return
    lo, hi = m.tree.cluster(t).children()
    _invert_rec(m, lo, symmetric)  # S11 <- S11^{-1}
    x21 = _fresh_block(m, hi, lo)
    _mul_into(x21, m, m, hi, lo, lo, 1)  # X21 = S21 S11^{-1}
    if not symmetric:
        x12 = _fresh_block(m, lo, hi)
        _mul_into(x12, m, m, lo, lo, hi, 1)  # X12 = S11^{-1} S12
    _mul_into(m, x21, m, hi, lo, hi, -1, symmetric)  # S22 <- F = S22 - X21 S12
    _invert_rec(m, hi, symmetric)  # S22 <- F^{-1}
    _zero_subtree(m, hi, lo)
    _mul_into(m, m, x21, hi, hi, lo, -1)  # S21 <- -F^{-1} X21
    if symmetric:
        _mirror_subtree(m, hi, lo)  # S12 <- S21^T
    else:
        _zero_subtree(m, lo, hi)
        _mul_into(m, x12, m, lo, hi, hi, -1)  # S12 <- -X12 F^{-1}
    _mul_into(m, m, x21, lo, hi, lo, -1, symmetric)  # S11 <- S11^{-1} - S12 X21


def h2_invert(m):
    """Inverse with the same structure and bases as m (formatted recursion).

    The input is left untouched: a private working copy (_Blocks) is
    inverted in place and then packed into the returned H2Matrix. If
    every block of m equals the transpose of its mirror exactly (build_h2's
    operators do, see h2vie.build), the recursion runs its symmetric form:
    it forms four of the six products per level, the two that update
    diagonal blocks on their upper target leaves only, and returns an
    inverse whose every block equals its mirror's transpose bit for bit.
    Any other input, such as a formatted product, takes the general form.
    Runs its BLAS calls at one thread (_one_blas_thread).
    """
    inv = _working_copy(m)
    with _one_blas_thread():
        _invert_rec(inv, m.tree.root, _is_symmetric(m))
    return _pack(inv, m.params)


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
    inverse is itself an approximation. An operator of another shape than
    the inverse's is refused before any apply.
    """
    if operator is not None and operator.shape != inv.shape:
        raise ValueError(f"operator shape {operator.shape} differs from inverse's {inv.shape}")
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


def bicgstab_solve(apply, rhs, tol=1e-3, max_iter=200, shadow=None):
    """Unpreconditioned BiCGStab (van der Vorst 1992) on a matvec closure.

    Converges when ||r||/||rhs|| <= tol, at the half step (s) or the full
    step (r); `converged` says whether the last residual-history entry is
    within tol. The shadow residual defaults to the initial residual; pass
    `shadow` to override. rhs must be a vector and shadow, if given, of
    rhs's shape; anything else is refused before the first apply.

    Scale: the solve runs on rhs 2^-e (and shadow 2^-e), where 2^e is the
    power of two just above the largest magnitude of a real or imaginary
    part of rhs, and returns x 2^e. A power-of-two scaling is exact, so x
    and the history are those of the unscaled solve, but no norm or inner
    product under- or overflows at any rhs scale, subnormal included.

    Breakdown: rho = <r_hat, r> below eps^2 ||rhs||^2, a floor relative to
    the rhs so that the iterates do not depend on its scale. The first such
    breakdown restarts from the current iterate with the current residual
    as the new shadow, so rho = ||r||^2 and the next search direction is r;
    a second one ends the solve. A zero or non-finite <r_hat, v> or <t, t>,
    a zero omega or a non-finite residual ends it too.
    """
    if not (0.0 < tol < 1.0):
        raise ValueError("tol must be in (0, 1)")
    if max_iter < 1:
        raise ValueError("max_iter must be >= 1")
    b = np.asarray(rhs, dtype=np.complex128)
    if b.ndim != 1 or (shadow is not None and np.shape(shadow) != b.shape):
        raise ValueError(f"rhs must be a vector and shadow of its shape: rhs {b.shape}, "
                         f"shadow {None if shadow is None else np.shape(shadow)}")
    _check_finite("rhs", b)
    # the parts' largest magnitude, unlike |b|, cannot overflow
    e = int(np.frexp(np.abs(np.stack([b.real, b.imag])).max(initial=0.0))[1])
    b = _ldexp(b, -e)
    bnrm = np.linalg.norm(b)
    if bnrm == 0.0:
        return np.zeros(b.size, dtype=np.complex128), SolveReport(0, [], True)
    floor = np.finfo(np.float64).eps**2 * bnrm**2
    x = np.zeros(b.size, dtype=np.complex128)
    r = b.copy()
    r_hat = r.copy() if shadow is None else _ldexp(np.asarray(shadow, dtype=np.complex128), -e)
    p = None  # no search direction yet: the first one is r
    history = []
    restarted = False

    for it in range(1, max_iter + 1):
        rho_new = np.vdot(r_hat, r)
        if abs(rho_new) < floor:
            if restarted:
                break
            # restart: with r_hat = r, rho = ||r||^2, above the floor on the
            # first step (r = b) and, for tol >= eps, after any step that
            # went on (rel > tol); below eps the guards protect the divisions
            r_hat = r.copy()
            p = None
            restarted = True
            rho_new = np.vdot(r_hat, r)
        if p is None:
            p = r.copy()
        else:
            beta = (rho_new / rho) * (alpha / omega)
            p = r + beta * (p - omega * v)
        v = apply(p)
        denom = np.vdot(r_hat, v)
        if denom == 0 or not np.isfinite(denom):
            break
        alpha = rho_new / denom
        s = r - alpha * v
        s_nrm = np.linalg.norm(s)
        if s_nrm / bnrm <= tol:
            x += alpha * p
            history.append(float(s_nrm / bnrm))
            break
        t = apply(s)
        tt = np.vdot(t, t)
        if tt == 0 or not np.isfinite(tt):
            break
        omega = np.vdot(t, s) / tt
        if omega == 0:
            break
        x += alpha * p + omega * s
        r = s - omega * t
        rho = rho_new
        rel = float(np.linalg.norm(r) / bnrm)
        history.append(rel)
        if rel <= tol or not np.isfinite(rel):
            break

    return _ldexp(x, e), SolveReport(it, history, bool(history) and history[-1] <= tol)


def _ldexp(z, e):
    """z 2^e for a complex array z, exact in the normal and subnormal range."""
    out = np.empty_like(z)
    out.real = np.ldexp(z.real, e)
    out.imag = np.ldexp(z.imag, e)
    return out
