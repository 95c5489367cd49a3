"""Hierarchical agglomerative clustering.

Three drivers make the same merges in the same order when no two
candidate merges tie (Muellner, arXiv:1109.2378, picks one per
criterion).  Their levels can differ in the last bits, since each runs
the Lance-Williams updates in its own order.

* mst_cluster -- single linkage only, O(n^2): Prim's minimum spanning
  tree, its edges joined in order of length; verify_ultrametric reads
  its tree as a certificate.
* nn_chain_cluster -- O(n^2): follow nearest-neighbor chains and merge
  reciprocal nearest neighbors; valid only for reducible criteria
  (single, complete, average, ward).
* naive_cluster -- repeatedly merge the globally closest pair, found
  from cached nearest neighbours, or lower bounds on them that are
  rescanned only when picked: O(n^2) typically, O(n^3) at worst; any
  criterion, and the only one for median.

The last two keep their L live clusters in slots 0..L-1 of one n x n
matrix: a merge writes the new cluster into the lower slot of its two
children and moves the cluster in slot L-1 into the higher one, so every
scan and every column write covers L entries, not n.  Cluster-update
arithmetic is the Lance-Williams recurrence.  Ward and median operate
on squared input distances and report merge levels as the square root
of the merge cost, so levels stay commensurate with the input
distances.  Median is not reducible and is rejected by the chain
driver.  One rule orders and levels every tree: a node's level is the
largest merge level in its subtree, so a median inversion or a rounding
inversion on tied data is repaired, and the raw levels are kept on the
dendrogram when any differs.

Determinism: ties break on cluster ids (terminals 0..n-1, then n, n+1,
... in the order the driver creates clusters), never on matrix slots.
naive_cluster merges the lexicographically smallest (min id, max id)
among equally close pairs.  nn_chain_cluster starts each chain at the
smallest live id and, among equally near neighbours, steps to the
smallest id; on tied data it can build a different tree from
naive_cluster.  mst_cluster grows the tree from terminal 0, adding the
smallest id among equally near terminals, and joins equal edges in the
order Prim added them; on tied data its tree can differ from the
others, but the partition at every level cannot.  Each merge lists the
smaller cluster id as the left child.
"""

from __future__ import annotations

import math
import warnings
from enum import Enum

import numpy as np

from .dendrogram import Dendrogram, _as_matrix, _overflow_named

__all__ = [
    "MergeCriterion",
    "lance_williams_update",
    "mst_cluster",
    "naive_cluster",
    "nn_chain_cluster",
]


class MergeCriterion(Enum):
    SINGLE = "single"
    COMPLETE = "complete"
    AVERAGE = "average"
    WARD = "ward"
    MEDIAN = "median"

    @property
    def reducible(self) -> bool:
        return self is not MergeCriterion.MEDIAN

    @property
    def squared(self) -> bool:
        """Whether the recurrence runs on squared input distances."""
        return self in (MergeCriterion.WARD, MergeCriterion.MEDIAN)


def _coerce(crit) -> MergeCriterion:
    if isinstance(crit, MergeCriterion):
        return crit
    return MergeCriterion(str(crit).lower())


def lance_williams_update(d_ki, d_kj, d_ij, sizes, crit) -> float:
    """Dissimilarity from cluster k to the merge of i and j.

    sizes = (n_i, n_j, n_k).  For ward and median the three inputs are
    squared distances and the result is a squared distance.  A median
    update can go negative on non-Euclidean input; it is clamped at 0
    with a warning (the drivers merge the closest pair, so theirs cannot).
    """
    n_i, n_j, n_k = sizes if sizes is not None else (1, 1, 1)
    crit = _coerce(crit)
    out = _lw_row(np.float64(d_ki), np.float64(d_kj), d_ij, n_k, n_i, n_j, crit,
                  np.empty(()), np.empty(())).item()
    if crit is MergeCriterion.MEDIAN and out < 0:
        warnings.warn("median update went negative (non-Euclidean input); clamped")
        return 0.0
    return out


def _lw_row(d_i, d_j, d_ij, sizes_all, n_i, n_j, crit, out, tmp):
    """Vectorized Lance-Williams update against all other clusters,
    written into out and returned; tmp is a scratch array of out's shape.
    out may be d_i itself: d_i is read before out is first written.
    """
    if crit is MergeCriterion.SINGLE:
        return np.minimum(d_i, d_j, out=out)
    if crit is MergeCriterion.COMPLETE:
        return np.maximum(d_i, d_j, out=out)
    if crit is MergeCriterion.AVERAGE:
        # (n_i * d_i + n_j * d_j) / (n_i + n_j)
        np.multiply(n_i, d_i, out=tmp)
        np.multiply(n_j, d_j, out=out)
        np.add(tmp, out, out=out)
        return np.divide(out, n_i + n_j, out=out)
    if crit is MergeCriterion.WARD:
        # ((n_i + n_k) * d_i + (n_j + n_k) * d_j - n_k * d_ij) / (n_i + n_j + n_k)
        np.add(n_i, sizes_all, out=tmp)
        np.multiply(tmp, d_i, out=tmp)
        np.add(n_j, sizes_all, out=out)
        np.multiply(out, d_j, out=out)
        np.add(tmp, out, out=tmp)
        np.multiply(sizes_all, d_ij, out=out)
        np.subtract(tmp, out, out=tmp)
        np.add(n_i + n_j, sizes_all, out=out)
        return np.divide(tmp, out, out=out)
    # median (Gower): midpoint of the two centroids, 0.5 d_i + 0.5 d_j -
    # 0.25 d_ij.  With (i, j) the closest pair, d_i, d_j >= d_ij, and
    # rounding is monotone, so the row is never negative
    np.multiply(0.5, d_i, out=tmp)
    np.multiply(0.5, d_j, out=out)
    np.add(tmp, out, out=out)
    return np.subtract(out, 0.25 * d_ij, out=out)


def _checked_n(d) -> int:
    if d.shape[0] < 2:
        raise ValueError("need at least 2 observations")
    return d.shape[0]


class _Clusters:
    """The live clusters of one run, as a shrinking block of an n x n matrix.

    While L clusters are live they fill slots 0..L-1 (self.live is L):
    slot s holds cluster ids[s] of sizes[s] terminals, and row and
    column s of d hold its distances to the other live clusters, with
    d[s, s] = inf.  Terminal t starts in slot t, and the k-th merge
    (k = 0, 1, ...) creates cluster n + k.  Nothing outside the block is
    read again, so scans read d[x, :L] and ids[:L] as they are:
    ids[:L].argmin() is the smallest live id.
    """

    def __init__(self, m, crit, overwrite_input):
        d = _as_matrix(m)  # exactly symmetric
        self.n = self.live = n = _checked_n(d)
        own = overwrite_input and d.flags.writeable
        with _overflow_named(f"{crit.value} linkage squares the distances, "
                             "and a distance above 1.34e154 overflows float64"):
            if crit.squared:
                self.d = np.square(d, out=d) if own else d**2
            else:
                self.d = d if own else d.copy()
        np.fill_diagonal(self.d, np.inf)
        self.crit = crit
        self.ids = np.arange(n)
        self.sizes = np.ones(n)
        self.tmp = np.empty(n)  # the Lance-Williams scratch row
        self.raw = []

    def merge(self, a, b):
        """Merge the clusters in slots a and b into slot lo = min(a, b),
        move slot L-1 into slot hi = max(a, b), and return hi.

        lo < hi <= L-1, so the new cluster never moves: only a reference
        to slot L-1 can go stale, and it now means slot hi (when hi is
        L-1 nothing moves, and slot hi just leaves the block).
        """
        d, ids, sizes = self.d, self.ids, self.sizes
        lo, hi = min(a, b), max(a, b)
        n_live = self.live
        cost = d.item(lo, hi)
        row = _lw_row(d[lo, :n_live], d[hi, :n_live], cost, sizes[:n_live],
                      sizes.item(lo), sizes.item(hi), self.crit,
                      d[lo, :n_live], self.tmp[:n_live])
        row[lo] = np.inf
        d[:n_live, lo] = row
        sizes[lo] += sizes[hi]
        self.raw.append((ids.item(lo), ids.item(hi), cost))
        ids[lo] = self.n + len(self.raw) - 1
        self.live = last = n_live - 1
        if hi != last:
            d[hi, :last] = d[:last, hi] = d[last, :last]  # the row reads faster
            d[hi, hi] = np.inf
            ids[hi] = ids[last]
            sizes[hi] = sizes[last]
        return hi


def _updates_named(crit):
    """Wraps a clustering loop: a float64 overflow of an update is named."""
    return _overflow_named(f"the {crit.value} Lance-Williams update overflows "
                           "float64 on these distances")


def _finish(n, raw_merges, crit, labels=None):
    """Number merges as dendrogram nodes and level them, by one rule.

    A merge's key is the largest raw cost in its subtree, read in one
    pass in creation order (children are created first).  Merges become
    nodes in (key, creation index) order, so every child precedes its
    parent, and a node's level is its key, square-rooted for ward and
    median.  The naive driver's keys never decrease in creation order,
    so its merges keep their order; NN-chain merges out of cost order.
    Raw levels are kept when any differs from its level: a median
    inversion, or a child one ulp above its parent on tied data.
    """
    keys = [0.0] * n
    for a, b, cost in raw_merges:
        keys.append(max(keys[a], keys[b], cost))
    order = sorted(range(n, len(keys)), key=lambda k: (keys[k], k))
    newid = list(range(len(keys)))
    for node, k in enumerate(order, start=n):
        newid[k] = node
    scale = math.sqrt if crit.squared else float
    merges = []
    raw_levels = []
    for k in order:
        a, b, cost = raw_merges[k - n]
        merges.append((*sorted((newid[a], newid[b])), scale(keys[k])))
        raw_levels.append(scale(cost))
    repaired = any(r != m[2] for r, m in zip(raw_levels, merges))
    return Dendrogram(
        n,
        tuple(merges),
        raw_levels=tuple(raw_levels) if repaired else None,
        labels=tuple(labels) if labels else None,
    )


def _smallest_id_at_min(v, ids, mask):
    """The slot of the smallest id among the minima of v (ids[:len(v)]
    holds the slots' ids; mask is a bool scratch array at least as long).

    Two argmins find the first and the last minimum; only when a third
    can lie between them are the tied slots gathered.
    """
    live = len(v)
    first = int(v.argmin())
    last = live - 1 - int(v[::-1].argmin())
    if first == last:
        return first
    low = v.item(first)
    between = v[first + 1:last]
    if not len(between) or between.item(between.argmin()) > low:  # two minima
        return first if ids.item(first) < ids.item(last) else last
    hits = np.flatnonzero(np.equal(v, low, out=mask[:live]))
    return int(hits[ids[hits].argmin()])


def naive_cluster(m, crit, labels=None, *, overwrite_input=False) -> Dendrogram:
    """Merge the globally closest pair, n-1 times, found from each row's
    cached nearest neighbour (Muellner's generic algorithm, without the
    heap): O(n^2) on typical data, O(n^3) at worst; any criterion.

    dmin[s] is a lower bound on every entry of live row s; unless
    stale[s], it is the row's minimum and nn[s] the id of the cluster
    there, the smallest id on ties.  Both move with their slot, and nn
    holds ids (slot[id] finds one), so moving a slot changes no nn.  The
    smallest-id row r at the least bound is rescanned if stale, and the
    pick made again; once r is exact, both members of every closest pair
    have their bound at the minimum, so r and nn[r] are the
    lexicographically smallest (min id, max id) closest pair.  After a
    merge the new row is scanned once, and a row that pointed at either
    child turns stale, keeping its old minimum as its bound.  A row k
    whose bound the new cluster is strictly below takes it as its exact
    neighbour, every other entry being at least the bound (this covers a
    median row dropping below k's minimum); otherwise k keeps its bound,
    and a fresh row its neighbour (the new id is the largest live id, so
    an older neighbour wins a tie).

    overwrite_input=True makes the matrix's own array the working matrix
    (squared in place for ward and median) where the default works in a
    copy, so a run holds one n x n matrix, not two.  The array's values
    are then undefined, also when the run raises; a read-only array is
    still copied.  By default the caller's array is never written.
    """
    crit = _coerce(crit)
    c = _Clusters(m, crit, overwrite_input)
    d, ids = c.d, c.ids
    nn = d.argmin(axis=1)  # slots equal ids, so the first minimum is the smallest id
    dmin = d[np.arange(c.n), nn]
    slot = np.arange(2 * c.n - 1)  # by id: the slot of a live cluster
    # numpy keeps freed blocks of up to 1 KB cached by size, so a new mask
    # of each length L would stay allocated: reuse one
    mask, stale = np.empty(c.n, bool), np.zeros(c.n, bool)
    with _updates_named(crit):
        while c.live > 1:
            live = c.live
            a = _smallest_id_at_min(dmin[:live], ids, mask)
            while stale.item(a):  # a bound at the minimum: rescan, then pick again
                s = _smallest_id_at_min(d[a, :live], ids, mask)
                dmin[a], nn[a], stale[a] = d.item(a, s), ids.item(s), False
                a = _smallest_id_at_min(dmin[:live], ids, mask)
            ia, ib = ids.item(a), nn.item(a)
            b = slot.item(ib)
            # rows that pointed at a child keep their minimum as a lower bound
            stale[:live] |= np.equal(nn[:live], ia, out=mask[:live])
            stale[:live] |= np.equal(nn[:live], ib, out=mask[:live])
            hi = c.merge(a, b)
            lo, last = min(a, b), c.live
            if hi != last:  # slot last moved into slot hi
                dmin[hi], nn[hi], stale[hi] = dmin[last], nn[last], stale[last]
                slot[ids.item(hi)] = hi
            new = ids.item(lo)
            slot[new] = lo
            col = d[lo, :last]  # column lo, read as the equal row
            closer = np.less(col, dmin[:last], out=mask[:last])  # exact at the new cluster
            np.copyto(nn[:last], new, where=closer)
            np.copyto(stale[:last], False, where=closer)
            np.minimum(dmin[:last], col, out=dmin[:last])
            s = _smallest_id_at_min(col, ids, mask)
            dmin[lo], nn[lo], stale[lo] = col.item(s), ids.item(s), False
    return _finish(c.n, c.raw, crit, labels)


def nn_chain_cluster(m, crit, labels=None, *, overwrite_input=False) -> Dendrogram:
    """O(n^2) reciprocal-nearest-neighbor chain clustering.

    overwrite_input is as for naive_cluster.
    """
    crit = _coerce(crit)
    if not crit.reducible:
        raise ValueError(
            f"criterion {crit.value!r} is not reducible; use naive_cluster"
        )
    c = _Clusters(m, crit, overwrite_input)
    d, ids = c.d, c.ids
    chain = []
    # numpy keeps freed blocks of up to 1 KB cached by size, so a new mask
    # of each length L would stay allocated: reuse one
    tie = np.empty(c.n, bool)
    with _updates_named(crit):
        while c.live > 1:
            live = c.live
            if not chain:
                chain.append(int(ids[:live].argmin()))  # the smallest live id
            x = chain[-1]
            y = _smallest_id_at_min(d[x, :live], ids, tie)
            if len(chain) >= 2 and y == chain[-2]:
                chain.pop()
                chain.pop()
                hi = c.merge(x, y)
                if c.live in chain:  # slot L-1 moved into slot hi
                    chain[chain.index(c.live)] = hi
            else:
                chain.append(y)
    return _finish(c.n, c.raw, crit, labels)


def mst_cluster(m, labels=None) -> Dendrogram:
    """O(n^2) single linkage from Prim's minimum spanning tree.

    Prim grows the tree from terminal 0 in n - 1 steps of one row update
    each; a joining terminal's edge runs to the earliest joined of its
    equally near tree terminals.  The single-link merges are the edges
    taken by length, ties in the order Prim added them, each joining the
    two clusters that hold its ends (found with union-find).  The
    cophenetic distances are the subdominant ultrametric of m, which
    verify_ultrametric uses as its certificate.
    """
    d = _as_matrix(m)
    n = _checked_n(d)
    near = np.zeros(n, dtype=int)  # the tree terminal nearest to each terminal
    dist = d[0].copy()  # its distance; inf once the terminal is in the tree
    dist[0] = np.inf
    outside = np.ones(n, dtype=bool)
    outside[0] = False
    closer = np.empty(n, dtype=bool)  # the terminals each step brings nearer
    edges = []  # (length, joining terminal, tree terminal) in Prim order
    for _ in range(n - 1):
        v = int(dist.argmin())  # the first minimum: the smallest id
        edges.append((dist.item(v), v, near.item(v)))
        dist[v] = np.inf
        outside[v] = False
        row = d[v]
        np.less(row, dist, out=closer)  # strict: an earlier parent keeps a tie
        closer &= outside
        np.copyto(dist, row, where=closer)
        np.copyto(near, v, where=closer)
    edges.sort(key=lambda edge: edge[0])  # stable: Prim order on ties

    root = list(range(n))  # union-find forest over terminals
    cluster = list(range(n))  # the cluster id held by each root terminal

    def find(t):
        while root[t] != t:
            root[t] = t = root[root[t]]
        return t

    raw = []
    for length, v, u in edges:
        a, b = find(v), find(u)
        raw.append((cluster[a], cluster[b], length))
        root[a] = b
        cluster[b] = n + len(raw) - 1
    return _finish(n, raw, MergeCriterion.SINGLE, labels)
