"""Geometric cluster tree and block cluster tree.

The cluster tree recursively bisects the point cloud along the longest
bounding-box edge at the median coordinate, keeping the sizes on one level
within one of each other. Every branch is split down to one leaf level,
the first at which every cluster holds at most n_min points, so all leaves
share a level. The block cluster tree partitions the N x N index square
into admissible (well separated) and inadmissible leaf blocks under the
strong admissibility condition max(diam) <= eta * dist, evaluated on
axis-aligned bounding boxes; each of its nodes pairs two clusters of the
same level.

Both structures are immutable after construction and safe to share.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

ADMISSIBLE = "admissible"
INADMISSIBLE = "inadmissible"
SUBDIVIDED = "subdivided"


@dataclass
class Cluster:
    id: int
    start: int  # span into the permuted index array
    stop: int
    level: int
    bbox_lo: np.ndarray
    bbox_hi: np.ndarray
    child_lo: int = -1
    child_hi: int = -1
    parent: int = -1

    @property
    def size(self):
        return self.stop - self.start

    @property
    def is_leaf(self):
        return self.child_lo < 0

    def children(self):
        return (self.child_lo, self.child_hi)


class ClusterTree:
    """Balanced binary spatial partition of a set of 3-D points.

    The leaves all sit on the smallest level l with N <= n_min * 2^l. Sizes
    on one level differ by at most one, so with n_min >= 2 every cluster
    above that level holds at least two points and splits into two
    non-empty halves.
    """

    def __init__(self, points, n_min):
        points = np.ascontiguousarray(points, dtype=np.float64)
        if points.ndim != 2 or points.shape[1] != 3:
            raise ValueError("points must be (N, 3)")
        if points.shape[0] == 0:
            raise ValueError("points must be non-empty")
        if not np.all(np.isfinite(points)):
            raise ValueError("points must be finite")
        if n_min < 2:
            raise ValueError("n_min must be >= 2")
        self.points = points
        self.n_min = int(n_min)
        self.perm = np.arange(points.shape[0])
        self.clusters: list[Cluster] = []
        leaf_level = 0
        while points.shape[0] > self.n_min * 2**leaf_level:
            leaf_level += 1
        self.depth = leaf_level + 1
        self._build(0, points.shape[0], 0, -1)
        self.root = 0
        self.levels = [[] for _ in range(self.depth)]
        for c in self.clusters:
            self.levels[c.level].append(c.id)

    def _build(self, start, stop, level, parent):
        idx = self.perm[start:stop]
        pts = self.points[idx]
        lo = pts.min(axis=0)
        hi = pts.max(axis=0)
        cid = len(self.clusters)
        node = Cluster(cid, start, stop, level, lo, hi, parent=parent)
        self.clusters.append(node)
        n = stop - start
        if level == self.depth - 1:
            return cid
        axis = int(np.argmax(hi - lo))
        # stable sort keeps tied coordinates in index order -> deterministic
        order = np.argsort(pts[:, axis], kind="stable")
        self.perm[start:stop] = idx[order]
        mid = start + (n + 1) // 2
        node.child_lo = self._build(start, mid, level + 1, cid)
        node.child_hi = self._build(mid, stop, level + 1, cid)
        return cid

    def __len__(self):
        return len(self.clusters)

    @property
    def n_points(self):
        return self.points.shape[0]

    def cluster(self, cid):
        return self.clusters[cid]

    def indices(self, cid):
        """Original point indices owned by a cluster."""
        c = self.clusters[cid]
        return self.perm[c.start:c.stop]

    def leaves(self):
        return [c.id for c in self.clusters if c.is_leaf]

    def ancestors(self, cid):
        """Cluster ids from cid's parent up to the root."""
        out = []
        p = self.clusters[cid].parent
        while p >= 0:
            out.append(p)
            p = self.clusters[p].parent
        return out


def _admissible(lo_t, hi_t, lo_s, hi_s, eta):
    """Strong admissibility on rows of (m, 3) bounding boxes: max(diam) <= eta * dist.

    Touching or overlapping boxes (dist == 0) are never admissible, which
    also covers the t == s case. Returns an (m,) bool array.
    """
    if eta <= 0:
        raise ValueError("eta must be positive")

    # np.vecdot sums a row in the order np.linalg.norm sums a 3-vector;
    # another order flips exact ties diam == eta * dist
    def norm(v):
        return np.sqrt(np.vecdot(v, v))

    dist = norm(np.maximum(0.0, np.maximum(lo_s - hi_t, lo_t - hi_s)))
    diam = np.maximum(norm(hi_t - lo_t), norm(hi_s - lo_s))
    return (dist > 0.0) & (diam <= eta * dist)


def is_admissible(t, s, eta):
    """Strong admissibility of one cluster pair; see _admissible."""
    return bool(_admissible(t.bbox_lo[None], t.bbox_hi[None],
                            s.bbox_lo[None], s.bbox_hi[None], eta)[0])


@dataclass
class BlockClusterTree:
    """Partition of the index square into admissible/inadmissible leaves."""

    eta: float
    nodes: dict = field(default_factory=dict)  # (t, s) -> kind
    admissible: list = field(default_factory=list)
    inadmissible: list = field(default_factory=list)
    partners: dict = field(default_factory=dict)  # t -> [s] admissible, in order

    def kind(self, key):
        """Block kind for a (t, s) node key, or None if not a node."""
        return self.nodes.get(key)


def build_block_tree(tree, eta=1.0):
    """Descend from (root, root), stopping at admissible pairs or leaf pairs.

    A node pairs two clusters of the same level, so it pairs two leaves or
    two parents; a non-admissible pair of parents subdivides into the four
    pairs of their children. The descent runs one tree level at a time, with
    one admissibility call per level.
    """
    lo = np.array([c.bbox_lo for c in tree.clusters])
    hi = np.array([c.bbox_hi for c in tree.clusters])
    children = np.array([c.children() for c in tree.clusters])
    bt = BlockClusterTree(eta=eta)
    t = s = np.array([tree.root])
    for level in range(tree.depth):
        adm = _admissible(lo[t], hi[t], lo[s], hi[s], eta)
        # every leaf sits on the last level, and only leaves do
        kinds = (SUBDIVIDED if level < tree.depth - 1 else INADMISSIBLE, ADMISSIBLE)
        bt.nodes.update(zip(zip(t.tolist(), s.tolist()), [kinds[a] for a in adm.tolist()]))
        # (t, s) -> (t0, s0), (t0, s1), (t1, s0), (t1, s1)
        t = children[t[~adm]].repeat(2, axis=1).ravel()
        s = np.tile(children[s[~adm]], 2).ravel()
    bt.admissible = sorted(k for k, kind in bt.nodes.items() if kind == ADMISSIBLE)
    bt.inadmissible = sorted(k for k, kind in bt.nodes.items() if kind == INADMISSIBLE)
    for t, s in bt.admissible:
        bt.partners.setdefault(t, []).append(s)
    return bt


def block_children(tree, tid, sid):
    """Child block pairs of a subdivided block node."""
    return [(ti, sj) for ti in tree.cluster(tid).children()
            for sj in tree.cluster(sid).children()]


def sparsity_constant(bt, tree):
    """Max number of admissible blocks any one row cluster owns.

    Returns (per_level, global_max); per_level maps tree level -> max count
    over clusters at that level. Levels with no admissible blocks map to 0.
    """
    per_level = {lvl: 0 for lvl in range(tree.depth)}
    for t, partners in bt.partners.items():
        lvl = tree.cluster(t).level
        per_level[lvl] = max(per_level[lvl], len(partners))
    global_max = max(per_level.values()) if per_level else 0
    return per_level, global_max


def tiling_checksum(bt, tree):
    """Sum of #t * #s over all leaves; equals N^2 iff the leaves tile."""
    total = 0
    for t, s in bt.admissible + bt.inadmissible:
        total += tree.cluster(t).size * tree.cluster(s).size
    return total
