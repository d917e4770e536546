"""Two-stage construction of the nested low-rank matrix representation.

Stage I compresses, for every cluster t, the horizontal concatenation
M_t = [S_{t,s1} | S_{t,s2} | ...] of all admissible blocks it owns into one
plain low-rank factor A_t @ B_t.T whose B_t has orthonormal columns
(sampled whole and truncated through its Gram matrix on leaves, cross
approximation followed by an SVD trim above them). Stage II turns those
factors into one shared family of orthonormal cluster bases by one
bottom-up rule: each cluster's Gram matrix of its rows of its own and its
ancestors' grouped blocks (sum_j A_j|c A_j|c^H, as B_j is orthonormal;
projected onto the children's bases above the leaves) is truncated to the
prescribed accuracy, giving a leaf basis or two transfer matrices. Each
admissible block then reduces to a small coupling matrix between two bases;
inadmissible leaf blocks stay dense.

The shared form V_t S_{t,s} V_s^T needs the columns of S_{t,s}, that is
the rows of S_{s,t}^T = diag(chi_s) K_{s,t}, to lie in span(V_s). Only a
uniform contrast chi gives that, so build_h2 refuses a per-voxel eps_r
that is not uniform.

The resulting H2Matrix is immutable in spirit: arithmetic lives in
h2vie.arith and mutates explicit copies only. Its payloads are stored per
block row (see H2Matrix) so that one product serves a whole row.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import clustering as cl
from . import kernel as kn
from .linalg import (
    AcaRankExceeded,
    CompressionParams,
    aca_factorize,
    empty_factor,
    recompress_lowrank,
    trunc_eig_hermitian,
    truncate_via_gram,
)


class ClusterCompressionError(RuntimeError):
    """Stage I failed for one cluster; .cluster_id names it."""

    def __init__(self, message, cluster_id):
        super().__init__(message)
        self.cluster_id = cluster_id


@dataclass(frozen=True)
class SweepSchedule:
    """Plan of the apply sweeps over one stacked rank-space vector.

    Every cluster's coefficients occupy rows spans[cid] = (lo, hi) of that
    vector, level by level and left to right within a level, so the spans
    of two siblings are adjacent and their parent reaches both at once
    through rows c_lo:c_hi. `inner` lists children before parents.
    """

    size: int  # total rank over all clusters
    spans: list  # cid -> (lo, hi) rows in rank space
    leaves: list  # (lo, hi, start, stop, V) per leaf of nonzero rank
    inner: list  # (lo, hi, c_lo, c_hi, [T_lo; T_hi]) per non-leaf of nonzero rank


class NestedBasis:
    """One shared family of nested cluster bases (leaf V's plus transfers)."""

    def __init__(self, tree):
        self.tree = tree
        self.leaf_v = {}
        self.transfers = {}  # cid -> (T_child_lo, T_child_hi)
        self.ranks = {}
        self._mat = {}  # materialization cache
        self._overlap = {}  # V^T V cache (needed by formatted products)
        self._schedule = None  # apply-sweep cache

    def rank(self, cid):
        return self.ranks.get(cid, 0)

    def set_basis(self, cid, p):
        """Store p: a leaf's basis, or a non-leaf's stacked [T_lo; T_hi]."""
        c = self.tree.cluster(cid)
        if c.is_leaf:
            self.leaf_v[cid] = p
        else:
            k_lo = self.rank(c.child_lo)
            self.transfers[cid] = (p[:k_lo], p[k_lo:])
        self.ranks[cid] = p.shape[1]
        self._schedule = None

    def schedule(self):
        """Rank-space layout and sweep steps of the apply, cached."""
        if self._schedule is not None:
            return self._schedule
        tree = self.tree
        spans = [None] * len(tree)
        size = 0
        for level in tree.levels:
            for cid in level:
                spans[cid] = (size, size + self.rank(cid))
                size += self.rank(cid)
        leaves = []
        inner = []
        for level in reversed(tree.levels):
            for cid in level:
                if self.rank(cid) == 0:
                    continue
                c = tree.cluster(cid)
                if c.is_leaf:
                    leaves.append((*spans[cid], c.start, c.stop, self.leaf_v[cid]))
                    continue
                lo, hi = c.children()
                assert spans[lo][1] == spans[hi][0], "siblings must be adjacent"
                inner.append((*spans[cid], spans[lo][0], spans[hi][1],
                              np.vstack(self.transfers[cid])))
        self._schedule = SweepSchedule(size, spans, leaves, inner)
        return self._schedule

    def apply_vh(self, cid, x):
        """V_c^H @ x without materializing non-leaf bases."""
        c = self.tree.cluster(cid)
        if c.is_leaf:
            return self.leaf_v[cid].conj().T @ x
        lo, hi = c.children()
        t_lo, t_hi = self.transfers[cid]
        n_lo = self.tree.cluster(lo).size
        return t_lo.conj().T @ self.apply_vh(lo, x[:n_lo]) + t_hi.conj().T @ self.apply_vh(hi, x[n_lo:])

    def materialize(self, cid):
        """Explicit (#c, k_c) basis matrix, cached."""
        got = self._mat.get(cid)
        if got is not None:
            return got
        c = self.tree.cluster(cid)
        if c.is_leaf:
            v = self.leaf_v[cid]
        else:
            lo, hi = c.children()
            t_lo, t_hi = self.transfers[cid]
            v = np.vstack(
                [self.materialize(lo) @ t_lo, self.materialize(hi) @ t_hi]
            )
        self._mat[cid] = v
        return v

    def overlap(self, cid):
        """V_c^T V_c (not conjugated), cached; identity only for real bases."""
        got = self._overlap.get(cid)
        if got is not None:
            return got
        c = self.tree.cluster(cid)
        if c.is_leaf:
            v = self.leaf_v[cid]
            m = v.T @ v
        else:
            lo, hi = c.children()
            t_lo, t_hi = self.transfers[cid]
            m = t_lo.T @ self.overlap(lo) @ t_lo + t_hi.T @ self.overlap(hi) @ t_hi
        self._overlap[cid] = m
        return m


def _row_owner(parts):
    """The C-contiguous array that `parts` tile left to right, else None."""
    base = parts[0].base
    if base is None or base.ndim != 2 or not base.flags.c_contiguous:
        return None
    start = addr = base.ctypes.data
    for p in parts:
        if (p.base is not base or p.shape[0] != base.shape[0]
                or p.strides != base.strides or p.ctypes.data != addr):
            return None
        addr += p.shape[1] * base.itemsize
    return base if addr - start == base.shape[1] * base.itemsize else None


def _column_views(row, widths):
    """Views of the consecutive column blocks of `row` with these widths."""
    edges = np.cumsum([0, *widths])
    return [row[:, lo:hi] for lo, hi in zip(edges, edges[1:])]


def _block_rows(blocks, span, pack):
    """Group (t, s) -> payload blocks by target cluster into apply rows.

    Returns (rows, views). A row (lo, hi, buf, src) adds buf @ x[src] to
    y[lo:hi], where span(c) is cluster c's (lo, hi) range in x and y. With
    pack, the blocks of one row sit side by side in one buffer, src is the
    matching index array and views maps each block to its view into the
    buffer; blocks that already tile one array in row order (build_h2's
    couplings and near field) keep that array as the buffer, others are
    copied into a new one. Without pack every block is a row of its own,
    keeps its array and has a slice as src. Empty blocks join no row.
    """
    by_target = {}
    for (t, s), p in blocks.items():
        if p.size:
            by_target.setdefault(t, []).append(s)
    views = dict(blocks)
    rows = []
    for t, sources in by_target.items():
        if not pack:
            rows.extend((*span(t), blocks[(t, s)], slice(*span(s))) for s in sources)
            continue
        parts = [blocks[(t, s)] for s in sources]
        buf = _row_owner(parts)
        if buf is None:
            buf = np.concatenate(parts, axis=1)
        views.update(zip([(t, s) for s in sources],
                         _column_views(buf, [p.shape[1] for p in parts])))
        src = np.concatenate([np.arange(*span(s)) for s in sources])
        rows.append((*span(t), buf, src))
    return rows, views


@dataclass
class H2Matrix:
    """Nested-basis representation: couplings on admissible leaves, dense rest.

    The constructor stores the payloads as one buffer per block row (target
    cluster t): [S_{t,s1} | S_{t,s2} | ...] for the couplings and
    [D_{t,s1} | D_{t,s2} | ...] for the near field, so one product applies
    a whole row. `coupling` and `dense` then map each block to its view
    into that buffer. Payloads are mutated in place only: rebinding a dict
    entry would detach it from the buffer that the apply reads.
    """

    tree: cl.ClusterTree
    btree: cl.BlockClusterTree
    basis: NestedBasis
    coupling: dict  # (t, s) -> (k_t, k_s)
    dense: dict  # (t, s) -> (#t, #s)
    params: CompressionParams
    far_rows: list = field(init=False, repr=False, compare=False)  # rank space
    near_rows: list = field(init=False, repr=False, compare=False)  # permuted

    def __post_init__(self):
        self._index_rows(pack=True)

    @classmethod
    def blockwise(cls, tree, btree, basis, coupling, dense, params):
        """Like the constructor, but every payload stays its own array.

        Each block is then a row of its own. Formatted arithmetic adds into
        its targets block by block, which is fastest on contiguous arrays,
        so the copies and accumulators in h2vie.arith are made this way.
        """
        m = cls.__new__(cls)
        m.tree, m.btree, m.basis, m.params = tree, btree, basis, params
        m.coupling, m.dense = coupling, dense
        m._index_rows(pack=False)
        return m

    def _index_rows(self, pack):
        spans = self.basis.schedule().spans
        self.far_rows, self.coupling = _block_rows(
            self.coupling, spans.__getitem__, pack)
        clusters = self.tree.clusters
        self.near_rows, self.dense = _block_rows(
            self.dense, lambda c: (clusters[c].start, clusters[c].stop), pack)

    @property
    def n(self):
        return self.tree.n_points

    @property
    def shape(self):
        return (self.n, self.n)

    def copy(self):
        """Structure-sharing copy with private contiguous per-block payloads."""
        return H2Matrix.blockwise(
            self.tree,
            self.btree,
            self.basis,
            {k: v.copy() for k, v in self.coupling.items()},
            {k: v.copy() for k, v in self.dense.items()},
            self.params,
        )

    def rank_per_level(self):
        """level -> max basis rank over clusters at that level."""
        out = {lvl: 0 for lvl in range(self.tree.depth)}
        for cid, k in self.basis.ranks.items():
            lvl = self.tree.cluster(cid).level
            out[lvl] = max(out[lvl], k)
        return out

    def max_rank(self):
        return max(self.basis.ranks.values(), default=0)

    def storage_bytes(self):
        """Bytes held by bases, transfers, couplings and dense leaves."""
        total = self.tree.perm.nbytes
        for v in self.basis.leaf_v.values():
            total += v.nbytes
        for t_lo, t_hi in self.basis.transfers.values():
            total += t_lo.nbytes + t_hi.nbytes
        for s in self.coupling.values():
            total += s.nbytes
        for d in self.dense.values():
            total += d.nbytes
        return total


def build_all_cluster_ab(tree, btree, oracle, params):
    """Stage I: one LowRankFactor A_t @ B_t.T of M_t per cluster t.

    The grouped block of cluster t is M_t = [S_{t,s1} | S_{t,s2} | ...]
    over its admissible partners in btree.partners order, so B_t's rows
    come partner by partner, #s_j rows each. A leaf has at most n_min rows,
    so M_t is sampled whole in one oracle call and truncated through its
    small Gram matrix (linalg.truncate_via_gram). A non-leaf M_t is too
    large to sample: it is cross-approximated from single rows and columns
    (aca_factorize) and trimmed by recompress_lowrank. Both return a B_t
    with orthonormal columns. A cluster without partners gets a rank-0
    factor. A rank over params.max_rank raises ClusterCompressionError.
    """
    out = {}
    for c in tree.clusters:
        partners = btree.partners.get(c.id, [])
        rows = tree.indices(c.id)
        if not partners:
            out[c.id] = empty_factor(c.size, 0)
            continue
        cols = np.concatenate([tree.indices(s) for s in partners])

        if c.is_leaf:
            f = truncate_via_gram(oracle(rows, cols), params.eps_acc)
            if f.rank > params.max_rank:
                raise ClusterCompressionError(
                    f"cluster {c.id}: leaf rank {f.rank} exceeds max_rank "
                    f"{params.max_rank}", c.id
                )
        else:
            def block(ri, ci, rows=rows, cols=cols):
                return oracle(rows[ri], cols[ci])

            try:
                f = aca_factorize(block, (rows.size, cols.size), params.eps_aca,
                                  min(params.max_rank, rows.size, cols.size))
            except AcaRankExceeded as exc:
                raise ClusterCompressionError(
                    f"cluster {c.id}: {exc}", c.id
                ) from exc
            f = recompress_lowrank(f, params.eps_acc)
        out[c.id] = f
    return out


def build_bases(tree, abs_map, params):
    """Stage II: one bottom-up sweep with one Gram rule for every cluster.

    G_c = sum_j X_j X_j^H over j in {c} + ancestors(c) with rank_j > 0 is
    the Gram matrix of c's rows of every grouped block M_j = A_j B_j^T:
    B_j has orthonormal columns, so c's rows of M_j have the Gram matrix of
    X_j, which is A_j's rows of c on a leaf and those rows projected onto
    the children's bases (apply_vh) above it. The truncated eigenvectors
    p of G_c are the leaf basis or the stacked transfers [T_lo; T_hi]; a
    zero or 0 x 0 Gram gives an empty basis of the right shape. Every
    cluster gets a basis.
    """
    basis = NestedBasis(tree)
    for level in reversed(tree.levels):
        for cid in level:
            c = tree.cluster(cid)
            if c.is_leaf:
                width = c.size
            else:
                lo, hi = c.children()
                n_lo = tree.cluster(lo).size
                width = basis.rank(lo) + basis.rank(hi)
            g = np.zeros((width, width), dtype=np.complex128)
            for j in [cid, *tree.ancestors(cid)]:
                f = abs_map[j]
                if f.rank == 0:
                    continue
                off = c.start - tree.cluster(j).start
                x = f.a[off:off + c.size]
                if not c.is_leaf:
                    x = np.vstack([basis.apply_vh(lo, x[:n_lo]),
                                   basis.apply_vh(hi, x[n_lo:])])
                g += x @ x.conj().T
            g = 0.5 * (g + g.conj().T)  # kill accumulated round-off skew
            p, _ = trunc_eig_hermitian(g, params.eps_acc)
            basis.set_basis(cid, p)
    return basis


def build_coupling(btree, abs_map, basis, tree):
    """Coupling matrix of every admissible leaf from the Stage-I factors.

    S_{t,s} = (V_t^H A_t) (V_s^H B_t|s)^T, with V_t^H A_t computed once per
    target and B_t|s the #s rows of B_t that belong to partner s; the
    tree's cluster sizes give their spans. Each S_{t,s} is written into its
    view of one row [S_{t,s1} | ...] per target, which H2Matrix keeps as
    that block row's buffer. Keys come in btree.admissible order, which
    fixes the summation order of each row.
    """
    coupling = {}
    for t, partners in sorted(btree.partners.items()):
        f = abs_map[t]
        proj_a = basis.apply_vh(t, f.a)
        widths = [basis.rank(s) for s in partners]
        row = np.empty((basis.rank(t), sum(widths)), dtype=np.complex128)
        sizes = [tree.cluster(s).size for s in partners]
        b_rows = np.split(f.b, np.cumsum(sizes[:-1]))
        for s, b_s, out in zip(partners, b_rows, _column_views(row, widths)):
            coupling[(t, s)] = np.matmul(proj_a, basis.apply_vh(s, b_s).T, out=out)
    return coupling


def build_h2(geom, kparams, cparams=None, n_min=32, eta=1.0):
    """Assemble the full nested representation of the system matrix.

    Raises ValueError naming the first voxel whose eps_r differs from
    voxel 0's: the shared bases hold for a uniform contrast only.
    """
    eps_r = np.ravel(kparams.eps_r)
    odd = np.flatnonzero(eps_r != eps_r[0])
    if odd.size:
        raise ValueError(f"build_h2 needs a uniform eps_r: voxel {odd[0]} has "
                         f"{eps_r[odd[0]]}, voxel 0 has {eps_r[0]}")
    cparams = cparams or CompressionParams()
    oracle = kn.entry_oracle(geom, kparams)
    tree = cl.ClusterTree(geom.centers, n_min)
    btree = cl.build_block_tree(tree, eta)
    abs_map = build_all_cluster_ab(tree, btree, oracle, cparams)
    basis = build_bases(tree, abs_map, cparams)
    coupling = build_coupling(btree, abs_map, basis, tree)
    dense = _near_field(tree, btree, oracle)
    return H2Matrix(tree, btree, basis, coupling, dense, cparams)


def _near_field(tree, btree, oracle):
    """Dense inadmissible leaves, sampled one block row per oracle call.

    Returns (t, s) -> (#t, #s) views into the row [S_{t,s1} | S_{t,s2} | ...],
    keyed in btree.inadmissible order. The oracle computes every entry on
    its own, so each view equals oracle(indices(t), indices(s)) bit for bit.
    """
    by_target = {}
    for t, s in btree.inadmissible:
        by_target.setdefault(t, []).append(s)
    dense = {}
    for t, sources in by_target.items():
        col_blocks = [tree.indices(s) for s in sources]
        row = oracle(tree.indices(t), np.concatenate(col_blocks))
        dense.update(zip([(t, s) for s in sources],
                         _column_views(row, [idx.size for idx in col_blocks])))
    return dense


def materialize(h2):
    """Dense reconstruction in the original voxel ordering (verification only)."""
    n = h2.n
    out = np.zeros((n, n), dtype=np.complex128)
    tree = h2.tree
    for (t, s), d in h2.dense.items():
        out[np.ix_(tree.indices(t), tree.indices(s))] = d
    for (t, s), smat in h2.coupling.items():
        block = h2.basis.materialize(t) @ smat @ h2.basis.materialize(s).T
        out[np.ix_(tree.indices(t), tree.indices(s))] = block
    return out


def rep_error(h2, dense):
    """Relative Frobenius distance between the representation and a dense oracle."""
    dense = np.asarray(dense)
    if dense.shape != h2.shape:
        raise ValueError("shape mismatch")
    return float(
        np.linalg.norm(dense - materialize(h2)) / np.linalg.norm(dense)
    )
