"""Two-stage construction of the nested low-rank matrix representation.

With a uniform contrast the VIE matrix is complex symmetric, S = S^T
(reciprocity), so the build samples and compresses one side of it only.
Stage I compresses, for every cluster t, the horizontal concatenation
M_t = [S_{t,s1} | S_{t,s2} | ...] of the admissible blocks of its upper
partners (s > t) into one plain low-rank factor A_t @ B_t.T whose B_t has
orthonormal columns (sampled whole and truncated by one SVD on leaves,
cross approximation followed by an SVD trim above them). Each lower block
is the transpose of an upper one, S_{t,s} = S_{s,t}^T = B_s|t A_s^T, and
with A_s = W_s Sigma_s (W_s orthonormal) its rows are carried by the
mirrored column factor B_s|t Sigma_s. One map, _mirrors, lists for each
cluster t the views B_s|t into the Stage I factors of its lower partners;
Stage II and the couplings both read the factors through it and copy
none. Stage II turns those factors into one shared family of orthonormal
cluster bases by one bottom-up rule: the stacked rows of each cluster's
own and its ancestors' full grouped blocks, [A_j|c, B_s|j Sigma_s
restricted to c, ...], are truncated by the same SVD rule, giving a leaf
basis or two transfer matrices. A leaf forms the mirrored rows
B_s|j Sigma_s only for its own #c rows, as it stacks them. Above the
leaves those rows come projected onto the children's bases, as the
coefficients s_k Vh_k that each child's SVD hands to its parent. Each
admissible block then reduces to a small coupling matrix between two
bases; inadmissible leaf blocks stay dense. Every rank in the build is
chosen by linalg.truncated_svd. Stage II hands its leaf bases and
transfers to NestedBasis once, which writes each into its slot of the
zero-padded per-level stacks that the apply multiplies by: those stacks
are the only copy of the bases. NestedBasis holds the stacks, the ranks
and the slot layout and nothing else, and is never changed after
construction, so it is shared like the cluster trees. What is derived
from it, such as an explicit basis V_c, is formed per call by the code
that needs it and dropped when that call returns.

The shared form V_t S_{t,s} V_s^T needs the columns of S_{t,s}, that is
the rows of S_{s,t}^T = diag(chi_s) K_{s,t}, to lie in span(V_s). Only a
uniform contrast chi gives that, so build_h2 refuses a per-voxel eps_r
that is not uniform. build_coupling forms the upper couplings and writes
each lower one as its mirror's transpose, and the near field samples the
upper dense blocks and transposes them into the lower ones, so the whole
representation is symmetric bit for bit. The kernel is symmetric bit for
bit too, so each dense block still equals its own oracle sample.

The resulting H2Matrix is immutable in spirit: arithmetic lives in
h2vie.arith and mutates explicit copies only. Its payloads are stored per
block row (see H2Matrix) so that one product serves a whole row, in the
precision that CompressionParams.payload_dtype names: complex64 when
eps_acc >= 1e-4, complex128 below. The build itself runs in complex128,
and build_coupling and _near_field round each entry once, as they write
it into its row.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import clustering as cl
from . import kernel as kn
from .linalg import (
    TRUNC_SAFETY,
    AcaRankExceeded,
    CompressionParams,
    LowRankFactor,
    aca_factorize,
    empty_factor,
    recompress_lowrank,
    truncated_svd,
)


class ClusterCompressionError(RuntimeError):
    """Stage I failed for one cluster; .cluster_id names it."""

    def __init__(self, message, cluster_id):
        super().__init__(message)
        self.cluster_id = cluster_id


@dataclass(frozen=True)
class SweepSchedule:
    """Padded slot layout of the apply and its one stacked step per level.

    The cluster tree is perfect: level l holds 2^l clusters left to right,
    and the children of position p sit at 2p and 2p + 1 one level down.
    So every cluster of level l gets an equal slot of k_l rows in one
    rank-space vector, k_l being the largest rank on level l, with the
    levels stacked top down; spans[cid] = (lo, lo + k_cid) are the rows of
    its own coefficients, at the head of its slot. Each leaf likewise gets
    a slot of n_slot rows (the largest leaf size) in a leaf-slot vector of
    n_rows rows; cells[cid] are its #c rows there, and leaf_rows maps each
    original point index to its row. Rows outside a cluster's own block
    are padding.

    steps holds one (lo, hi, c_lo, c_hi, stack) per tree level, leaves
    first. Rows lo:hi of the rank-space vector are the level's slots, and
    c_lo:c_hi are the rows it reads: the whole leaf-slot vector for the
    leaf level, the slots of the level below for the others. stack is
    (2^l, rows per slot read, k_l) and holds per slot the leaf basis V_c,
    or [T_lo; T_hi] with each transfer at its child's slot, and zeros
    elsewhere, so one np.matmul over reshaped views of a whole level is
    the forward step (stack^T) or the backward step (stack), and padding
    stays zero. The stacks are the only store of the bases: NestedBasis
    hands out views into them.
    """

    size: int  # rank-space rows: sum over levels of 2^l k_l
    spans: list  # cid -> (lo, hi) rows in rank space
    n_rows: int  # leaf-slot rows: 2^L n_slot
    cells: dict  # leaf cid -> (lo, hi) rows in the leaf-slot vector
    leaf_rows: np.ndarray  # original point index -> leaf-slot row
    steps: list  # (lo, hi, c_lo, c_hi, stack) per level, leaves first


class NestedBasis:
    """One shared family of nested cluster bases (leaf V's plus transfers).

    Built once, from Stage II's factors: mats maps every cluster to its U,
    a leaf's basis V_c or a non-leaf's stacked [T_lo; T_hi]. Each U is
    written once into its slot of its level's stack in the padded layout
    of the apply, and `schedule` is that layout (SweepSchedule). The stacks
    are the only store of the bases: leaf_v[c] and both transfers[c] are
    views of their own rows and columns of a stack, so their nbytes are
    the logical sizes, without the padding.

    It holds tree, ranks, leaf_v, transfers and schedule, and nothing
    else. Like the cluster trees it is never changed after construction,
    so an operator, its copies, its inverse and its products share one.
    Whatever is derived from it, such as an explicit basis V_c, is formed
    per call and belongs to the caller: h2vie.arith memoizes its own for
    one product or inverse and drops them when the call returns.
    """

    def __init__(self, tree, mats):
        self.tree = tree
        self.ranks = {cid: u.shape[1] for cid, u in mats.items()}
        self.leaf_v = {}
        self.transfers = {}  # cid -> (T_child_lo, T_child_hi), views into a stack
        slot = [max(self.ranks[cid] for cid in level) for level in tree.levels]
        spans = [None] * len(tree)
        first = []  # first rank-space row of each level
        size = 0
        for level, k in zip(tree.levels, slot):
            first.append(size)
            for p, cid in enumerate(level):
                spans[cid] = (size + p * k, size + p * k + self.ranks[cid])
            size += len(level) * k
        leaves = tree.levels[-1]
        n_slot = max(tree.cluster(cid).size for cid in leaves)
        cells = {cid: (p * n_slot, p * n_slot + tree.cluster(cid).size)
                 for p, cid in enumerate(leaves)}
        leaf_rows = np.empty(tree.n_points, dtype=np.intp)
        leaf_rows[tree.perm] = _ranges([cells[cid] for cid in leaves])
        steps = []
        n_rows = len(leaves) * n_slot
        c_lo, c_hi, n_in = 0, n_rows, n_slot  # rows read, and rows per slot
        for lvl in reversed(range(tree.depth)):
            level, k = tree.levels[lvl], slot[lvl]
            stack = np.zeros((len(level), n_in, k), dtype=np.complex128)
            for p, cid in enumerate(level):
                c, u = tree.cluster(cid), mats[cid]
                cols = stack[p, :, :u.shape[1]]  # the cluster's own columns of its slot
                if c.is_leaf:
                    v = self.leaf_v[cid] = cols[:u.shape[0]]
                    v[...] = u
                    continue
                k_lo, at = self.ranks[c.child_lo], slot[lvl + 1]  # T_hi at its child's slot
                t_lo, t_hi = self.transfers[cid] = (cols[:k_lo], cols[at:at + u.shape[0] - k_lo])
                t_lo[...] = u[:k_lo]
                t_hi[...] = u[k_lo:]
            lo, hi = first[lvl], first[lvl] + len(level) * k
            steps.append((lo, hi, c_lo, c_hi, stack))
            c_lo, c_hi, n_in = lo, hi, 2 * k
        self.schedule = SweepSchedule(size, spans, n_rows, cells, leaf_rows, steps)

    def rank(self, cid):
        return self.ranks[cid]

    def apply_vh(self, cid, x):
        """V_c^H @ x without materializing non-leaf bases, conjugating as it goes."""
        c = self.tree.cluster(cid)
        if c.is_leaf:
            return self.leaf_v[cid].conj().T @ x
        lo, hi = c.children()
        t_lo, t_hi = self.transfers[cid]
        n_lo = self.tree.cluster(lo).size
        return (t_lo.conj().T @ self.apply_vh(lo, x[:n_lo])
                + t_hi.conj().T @ self.apply_vh(hi, x[n_lo:]))

    def materialize(self, cid):
        """Explicit (#c, k_c) basis matrix V_c, formed anew on each call."""
        return self._explicit(cid, {})

    def _explicit(self, cid, memo):
        """V_c = [V_lo T_lo; V_hi T_hi], taking and leaving each V of c's subtree in memo."""
        v = memo.get(cid)
        if v is None:
            c = self.tree.cluster(cid)
            if c.is_leaf:
                v = self.leaf_v[cid]
            else:
                lo, hi = c.children()
                t_lo, t_hi = self.transfers[cid]
                v = np.vstack([self._explicit(lo, memo) @ t_lo, self._explicit(hi, memo) @ t_hi])
            memo[cid] = v
        return v


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


def _by_target(keys):
    """t -> [s, ...] for the (t, s) keys, in the order they come."""
    out = {}
    for t, s in keys:
        out.setdefault(t, []).append(s)
    return out


def _ranges(spans):
    """np.concatenate([np.arange(lo, hi) for lo, hi in spans]) in one pass."""
    lo, hi = np.array(spans, dtype=np.intp).reshape(-1, 2).T
    sizes = hi - lo
    ends = np.cumsum(sizes)
    return np.arange(ends[-1] if ends.size else 0) + np.repeat(lo - ends + sizes, sizes)


def _block_rows(blocks, span, dtype):
    """Group (t, s) -> payload blocks by target cluster into apply rows of `dtype`.

    Returns (rows, views, gather). The blocks of one row sit side by side
    in one buffer, views maps each block to its view into the buffer, and
    gather is the stage's one index: the rows' source indices in x,
    concatenated in row order. A row (lo, hi, buf, src) writes
    buf @ x[gather][src] to y[lo:hi], where span(c) is cluster c's (lo, hi)
    rows in x and y and src is the row's slice of gather; grouping by
    target gives each target at most one row. Blocks that
    already tile one array of `dtype` in row order (build_h2's couplings and
    near field, _moved_rows' rows) keep that array as the buffer, others
    are copied into a new one, rounded to `dtype` entry by entry. Empty
    blocks join no row.
    """
    by_target = _by_target(key for key, p in blocks.items() if p.size)
    views = dict(blocks)
    rows = []
    spans = []
    end = 0
    for t, sources in by_target.items():
        parts = [blocks[(t, s)] for s in sources]
        buf = _row_owner(parts)
        if buf is None or buf.dtype != dtype:
            buf = np.concatenate(parts, axis=1, dtype=dtype)
        views.update(zip([(t, s) for s in sources],
                         _column_views(buf, [p.shape[1] for p in parts])))
        spans.extend(span(s) for s in sources)
        rows.append((*span(t), buf, slice(end, end + buf.shape[1])))
        end += buf.shape[1]
    return rows, views, _ranges(spans)


def _moved_rows(blocks, dtype):
    """Move the (t, s) -> payload blocks into one new `dtype` buffer per target row.

    Returns each block's view into its row, rows in the order their
    targets first come in `blocks`. It empties `blocks` one row at a time:
    when the caller holds no other reference to the blocks, each row's
    blocks are freed as soon as the row is built, so the move costs one
    row beyond the payload. The rows tile and have the dtype asked for, so
    H2Matrix keeps them as its row buffers without a copy.
    """
    moved = {}
    for t, sources in _by_target(blocks).items():
        parts = [blocks.pop((t, s)) for s in sources]
        row = np.concatenate(parts, axis=1, dtype=dtype)
        moved.update(zip([(t, s) for s in sources],
                         _column_views(row, [p.shape[1] for p in parts])))
    return moved


@dataclass
class H2Matrix:
    """Nested-basis representation: couplings on admissible leaves, dense rest.

    The constructor stores the payloads as one buffer per block row (target
    cluster t): [S_{t,s1} | S_{t,s2} | ...] for the couplings and
    [D_{t,s1} | D_{t,s2} | ...] for the near field, so one product applies
    a whole row. `coupling` and `dense` then map each block to its view
    into that buffer. Each row's target rows and source indices are in the
    slot coordinates of basis.schedule, the layout that the basis is
    stored in: rank-space slots for the couplings, leaf slots for the near
    field. Each stage has one gather index, far_src and near_src: its
    rows' source indices concatenated in row order, so a row (lo, hi,
    buf, src) holds src as a slice into it and writes buf @ x[gather][src]
    to y[lo:hi]; each target cluster owns at most one row per stage.
    Every H2Matrix has this layout, the results of h2vie.arith included.
    The apply splits each stage into panels once per column count q and
    keeps them in panel_plans, which holds views of the row buffers and
    gather indices only; a new H2Matrix, copy() included, starts with
    none. Payloads are mutated in place only: rebinding a dict entry would
    detach it from the buffer that the apply reads.

    The row buffers have params.payload_dtype: complex64 when eps_acc >=
    1e-4, complex128 below. The constructor is the one place that applies
    it, rounding any other payload entry by entry; copy() and the
    arithmetic's results keep it. Rounding each entry alone keeps a
    symmetric operator symmetric bit for bit. The bases stay complex128.
    """

    tree: cl.ClusterTree
    btree: cl.BlockClusterTree
    basis: NestedBasis
    coupling: dict  # (t, s) -> (k_t, k_s)
    dense: dict  # (t, s) -> (#t, #s)
    params: CompressionParams
    far_rows: list = field(init=False, repr=False, compare=False)  # rank slots
    near_rows: list = field(init=False, repr=False, compare=False)  # leaf slots
    far_src: np.ndarray = field(init=False, repr=False, compare=False)
    near_src: np.ndarray = field(init=False, repr=False, compare=False)
    # q -> the apply's (coupling, near-field) panel plans, filled by arith
    panel_plans: dict = field(init=False, repr=False, compare=False, default_factory=dict)

    def __post_init__(self):
        sched = self.basis.schedule
        dtype = self.params.payload_dtype
        self.far_rows, self.coupling, self.far_src = _block_rows(
            self.coupling, sched.spans.__getitem__, dtype)
        self.near_rows, self.dense, self.near_src = _block_rows(
            self.dense, sched.cells.__getitem__, dtype)

    @property
    def n(self):
        return self.tree.n_points

    @property
    def shape(self):
        return (self.n, self.n)

    def copy(self):
        """Structure-sharing copy with private payloads, one new buffer per row."""
        dtype = self.params.payload_dtype
        return H2Matrix(self.tree, self.btree, self.basis,
                        _moved_rows(dict(self.coupling), dtype),
                        _moved_rows(dict(self.dense), dtype), self.params)

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


@dataclass
class GroupedFactor(LowRankFactor):
    """Stage I factor A_t @ B_t.T of cluster t's upper grouped block.

    parts maps each upper partner s > t, in btree.partners order, to B_t|s:
    the view of the #s rows of b that belong to s.
    """

    parts: dict = field(default_factory=dict)


def _grouped(f, upper, tree):
    """f as a GroupedFactor whose b rows come partner by partner."""
    edges = np.cumsum([0, *(tree.cluster(s).size for s in upper)])
    return GroupedFactor(f.a, f.b, {s: f.b[lo:hi]
                                    for s, lo, hi in zip(upper, edges, edges[1:])})


def build_all_cluster_ab(tree, btree, oracle, params):
    """Stage I: one GroupedFactor A_t @ B_t.T of M_t per cluster t.

    The grouped block of cluster t is M_t = [S_{t,s1} | S_{t,s2} | ...]
    over its upper admissible partners s > t (a suffix of
    btree.partners[t]), so each admissible pair is compressed once, by its
    lower cluster id; the lower blocks are their transposes (S = S^T). A
    leaf has at most n_min rows, so M_t is sampled whole in one oracle
    call and truncated by linalg.truncated_svd at 0.75 * eps_acc
    (A_t = U_k Sigma_k, B_t = Vh_k^T). A non-leaf M_t is too large to
    sample: it is cross-approximated from single rows and columns
    (aca_factorize) and trimmed by recompress_lowrank. Both give a B_t with
    orthonormal columns and an A_t with orthogonal columns. A cluster
    without upper partners gets a rank-0 factor. A rank over
    params.max_rank raises ClusterCompressionError.
    """
    out = {}
    for c in tree.clusters:
        upper = [s for s in btree.partners.get(c.id, []) if s > c.id]
        rows = tree.indices(c.id)
        if not upper:
            out[c.id] = _grouped(empty_factor(c.size, 0), upper, tree)
            continue
        cols = np.concatenate([tree.indices(s) for s in upper])

        if c.is_leaf:
            u, s, vh = truncated_svd(oracle(rows, cols), TRUNC_SAFETY * params.eps_acc)
            f = LowRankFactor(u * s, vh.T)
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
                                  params.max_rank)
            except AcaRankExceeded as exc:
                raise ClusterCompressionError(
                    f"cluster {c.id}: {exc}", c.id
                ) from exc
            f = recompress_lowrank(f, params.eps_acc)
        out[c.id] = _grouped(f, upper, tree)
    return out


def _mirrors(abs_map):
    """j -> [(t, B_t|j), ...]: the Stage I factors that carry j's lower blocks.

    Each lower block of cluster j is S_{j,t} = B_t|j A_t^T over the
    clusters t < j that name j as an upper partner. Entries come in
    abs_map order, then each factor's parts order, and every B_t|j is
    Stage I's own view, not a copy.
    """
    out = {}
    for t, f in abs_map.items():
        for j, b in f.parts.items():
            out.setdefault(j, []).append((t, b))
    return out


def build_bases(tree, abs_map, params):
    """Stage II: one bottom-up sweep with one SVD rule for every cluster.

    X_c stacks, over j in {c} + ancestors(c), c's rows of the row factors
    of j's full grouped block: A_j|c for its upper blocks, then for each
    lower block S_{j,t} = B_t|j A_t^T (found through _mirrors) the
    mirrored rows B_t|j Sigma_t restricted to c, where A_t = W_t Sigma_t
    with W_t orthonormal and Sigma_t the column norms of A_t. These carry
    the left singular vectors and values of c's rows of that block. A leaf
    stacks them directly, scaling only the #c rows it takes, so no scaled
    copy of any B_t is held. The truncated_svd X_c ~= U_k s_k Vh_k at
    eps_acc gives the leaf basis or the stacked transfers [T_lo; T_hi] as
    U_k, and s_k Vh_k = U_k^H X_c is c's coefficient block. A non-leaf
    therefore stacks its two children's coefficient blocks less the
    columns of the children's own row factors: each ancestor's factor is
    projected once, by the SVDs on the way up, and never again from the
    leaves. A zero or empty X_c gives an empty basis of the right shape.
    Every cluster gets a basis, and the NestedBasis is built once from
    all of them. The Stage I factors are only read.
    """
    mirrors = _mirrors(abs_map)
    sigma = {t: np.linalg.norm(f.a, axis=0) for t, f in abs_map.items()}
    widths = {j: f.rank + sum(b.shape[1] for _, b in mirrors.get(j, []))
              for j, f in abs_map.items()}
    mats = {}  # cid -> U_k: a leaf's basis, a non-leaf's [T_lo; T_hi]
    coeffs = {}  # cid -> s_k Vh_k, until its parent takes it
    for level in reversed(tree.levels):
        for cid in level:
            c = tree.cluster(cid)
            if c.is_leaf:
                x = []
                for j in [cid, *tree.ancestors(cid)]:
                    lo = c.start - tree.cluster(j).start
                    rows = slice(lo, lo + c.size)
                    x.append(abs_map[j].a[rows])
                    x += [b[rows] * sigma[t] for t, b in mirrors.get(j, [])]
                x = np.hstack(x)
            else:
                x = np.vstack([coeffs.pop(k)[:, widths[k]:] for k in c.children()])
            u, s, vh = truncated_svd(x, params.eps_acc)
            mats[cid] = u
            coeffs[cid] = s[:, None] * vh
    return NestedBasis(tree, mats)


def build_coupling(btree, abs_map, basis, tree, dtype=np.complex128):
    """Coupling matrix of every admissible leaf from the Stage-I factors.

    For an upper pair (t, s > t), S_{t,s} = (V_t^H A_t) (V_s^H B_t|s)^T,
    with V_t^H A_t computed once per target and B_t|s the part of B_t that
    belongs to s. The B_t|s of every t below s, as _mirrors lists them,
    are stacked side by side and projected by one V_s^H per source
    cluster s. The mirror is written as S_{s,t} = S_{t,s}^T, so the
    couplings are symmetric bit for bit (which arith.h2_invert exploits).
    Each S_{t,s} is formed in complex128 and written, rounded to `dtype`,
    into its view of one row [S_{t,s1} | ...] of `dtype` per target, which
    H2Matrix keeps as that block row's buffer when `dtype` is its payload
    dtype. Keys come in btree.admissible order, which fixes the summation
    order of each row. tree goes unused: each factor names its own
    partners and their rows.
    """
    coupling = {}
    for t, partners in sorted(btree.partners.items()):
        widths = [basis.rank(s) for s in partners]
        row = np.empty((basis.rank(t), sum(widths)), dtype=dtype)
        coupling.update(zip([(t, s) for s in partners], _column_views(row, widths)))
    proj_a = {t: basis.apply_vh(t, f.a) for t, f in abs_map.items() if f.parts}
    for s, blocks in _mirrors(abs_map).items():
        vb = basis.apply_vh(s, np.hstack([b_s for _, b_s in blocks]))
        vb_ts = _column_views(vb, [b_s.shape[1] for _, b_s in blocks])
        for (t, _), vb_t in zip(blocks, vb_ts):
            s_ts = coupling[(t, s)]
            np.matmul(proj_a[t], vb_t.T, out=s_ts)
            coupling[(s, t)][...] = s_ts.T
    return coupling


def build_h2(geom, kparams, cparams, n_min=32, eta=1.0):
    """Assemble the full nested representation of the system matrix.

    cparams (CompressionParams) is required: its tolerances set every rank
    and its eps_acc the payload precision, so no accuracy is assumed.

    Raises ValueError naming the first voxel whose eps_r differs from
    voxel 0's: the shared bases hold for a uniform contrast only. A
    per-voxel eps_r of the wrong length is refused first, by the oracle.
    """
    oracle = kn.entry_oracle(geom, kparams)  # checks a per-voxel eps_r's length
    eps_r = np.ravel(kparams.eps_r)
    odd = np.flatnonzero(eps_r != eps_r[0])
    if odd.size:
        raise ValueError(f"build_h2 needs a uniform eps_r: voxel {odd[0]} has "
                         f"{eps_r[odd[0]]}, voxel 0 has {eps_r[0]}")
    tree = cl.ClusterTree(geom.centers, n_min)
    btree = cl.build_block_tree(tree, eta)
    abs_map = build_all_cluster_ab(tree, btree, oracle, cparams)
    basis = build_bases(tree, abs_map, cparams)
    coupling = build_coupling(btree, abs_map, basis, tree, cparams.payload_dtype)
    del abs_map  # freed before the near-field rows are allocated: a lower peak
    dense = _near_field(tree, btree, oracle, cparams.payload_dtype)
    return H2Matrix(tree, btree, basis, coupling, dense, cparams)


def _near_field(tree, btree, oracle, dtype):
    """Dense inadmissible leaves, one oracle call per block row's upper part.

    Returns (t, s) -> (#t, #s) views into the row [S_{t,s1} | S_{t,s2} | ...]
    of `dtype`, keyed in btree.inadmissible order. Row t samples its
    sources s >= t in one call and each (s, t) view is written as the
    transpose of (t, s). The oracle computes every entry on its own from a
    symmetric kernel, so each view equals oracle(indices(t), indices(s))
    rounded to `dtype` bit for bit.
    """
    by_target = _by_target(btree.inadmissible)
    size = [c.size for c in tree.clusters]
    dense = {}
    for t, sources in by_target.items():
        widths = [size[s] for s in sources]
        row = np.empty((size[t], sum(widths)), dtype=dtype)
        dense.update(zip([(t, s) for s in sources], _column_views(row, widths)))
    for t, sources in by_target.items():
        upper = [s for s in sources if s >= t]
        sampled = oracle(tree.indices(t), np.concatenate([tree.indices(s) for s in upper]))
        for s, d in zip(upper, _column_views(sampled, [size[s] for s in upper])):
            dense[(t, s)][...] = d
            if s != t:
                dense[(s, t)][...] = d.T
    return dense


def materialize(h2):
    """Dense reconstruction in the original voxel ordering (verification only)."""
    n = h2.n
    out = np.zeros((n, n), dtype=np.complex128)
    tree = h2.tree
    for (t, s), d in h2.dense.items():
        out[np.ix_(tree.indices(t), tree.indices(s))] = d
    mats = {}  # each cluster's explicit basis, formed once for this call
    for (t, s), smat in h2.coupling.items():
        block = h2.basis._explicit(t, mats) @ smat @ h2.basis._explicit(s, mats).T
        out[np.ix_(tree.indices(t), tree.indices(s))] = block
    return out


def rep_error(h2, dense):
    """Relative Frobenius distance between the representation and a dense oracle."""
    dense = np.asarray(dense)
    if dense.shape != h2.shape:
        raise ValueError("shape mismatch")
    diff = materialize(h2)
    diff -= dense  # in place: one N x N array besides dense, and |diff| is unchanged
    return float(np.linalg.norm(diff) / np.linalg.norm(dense))
