"""Hierarchical agglomerative clustering.

Two drivers produce identical dendrograms for reducible criteria when
no two candidate merges tie:

* naive_cluster -- repeatedly merge the globally closest pair, found
  from cached nearest neighbours: O(n^2) typically, O(n^3) at worst.
* nn_chain_cluster -- O(n^2): follow nearest-neighbor chains and merge
  reciprocal nearest neighbors; valid only for reducible criteria
  (single, complete, average, ward).

Both run one loop on an n x n matrix: a merge writes the new cluster
into the slot of one child and retires the other's.  Cluster-update
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
naive_cluster.  Each merge lists the smaller cluster id as the left
child.
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
    out = float(_lw_row(np.float64(d_ki), np.float64(d_kj), d_ij, n_k, n_i, n_j, crit))
    if crit is MergeCriterion.MEDIAN and out < 0:
        warnings.warn("median update went negative (non-Euclidean input); clamped")
        return 0.0
    return out


def _lw_row(d_i, d_j, d_ij, sizes_all, n_i, n_j, crit):
    """Vectorized Lance-Williams update against all other clusters."""
    if crit is MergeCriterion.SINGLE:
        return np.minimum(d_i, d_j)
    if crit is MergeCriterion.COMPLETE:
        return np.maximum(d_i, d_j)
    if crit is MergeCriterion.AVERAGE:
        return (n_i * d_i + n_j * d_j) / (n_i + n_j)
    if crit is MergeCriterion.WARD:
        tot = n_i + n_j + sizes_all
        return ((n_i + sizes_all) * d_i + (n_j + sizes_all) * d_j - sizes_all * d_ij) / tot
    # median (Gower): midpoint of the two centroids.  With (i, j) the
    # closest pair, d_i, d_j >= d_ij, and rounding is monotone, so the
    # row is never negative
    return 0.5 * d_i + 0.5 * d_j - 0.25 * d_ij


class _Clusters:
    """The live clusters of one run, held in n slots of an n x n matrix.

    Slot s holds cluster ids[s]: terminal t starts in slot t, and the
    k-th merge (k = 0, 1, ...) creates cluster n + k in the slot of its
    first child.  The diagonal and the rows and columns of retired slots
    hold inf, and a retired slot holds the id 2n, so scans read d and ids
    as they are: ids.argmin() is the smallest live id.
    """

    def __init__(self, m, crit):
        d = _as_matrix(m)  # exactly symmetric
        self.n = n = d.shape[0]
        if n < 2:
            raise ValueError("need at least 2 observations")
        with _overflow_named(f"{crit.value} linkage squares the distances, "
                             "and a distance above 1.34e154 overflows float64"):
            self.d = d**2 if crit.squared else d.copy()
        np.fill_diagonal(self.d, np.inf)
        self.crit = crit
        self.ids = np.arange(n)
        self.sizes = np.ones(n)
        self.raw = []

    def merge(self, a, b):
        """Merge the clusters in slots a and b into slot a; retire slot b."""
        d, sizes = self.d, self.sizes
        cost = float(d[a, b])
        # retired columns stay inf: each rule maps (inf, inf) to inf
        row = _lw_row(d[a], d[b], cost, sizes, sizes[a], sizes[b], self.crit)
        row[a] = row[b] = np.inf
        d[a] = d[:, a] = row
        d[b] = d[:, b] = np.inf
        sizes[a] += sizes[b]
        self.raw.append((int(self.ids[a]), int(self.ids[b]), cost))
        self.ids[a] = self.n + len(self.raw) - 1
        self.ids[b] = 2 * self.n


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


def naive_cluster(m, crit, labels=None) -> Dendrogram:
    """Merge the globally closest pair, n-1 times, found from each row's
    cached nearest neighbour (Muellner's generic algorithm, without the
    heap): O(n^2) on typical data, O(n^3) at worst; any criterion.

    dmin[s] and nn[s] are the smallest live entry of row s and its
    column, the smallest id on ties; retired slots hold dmin = inf.
    Both members of every closest pair have dmin at the minimum, so the
    smallest-id row r there and nn[r] are the lexicographically smallest
    (min id, max id) closest pair.  After a merge only the new row and
    the rows that pointed at either child are rescanned; any other row
    k keeps its neighbour unless the new cluster is strictly closer (the
    new id is the largest live id, so an older neighbour wins a tie),
    which also covers a median row that drops below k's minimum.
    """
    crit = _coerce(crit)
    c = _Clusters(m, crit)
    d, ids = c.d, c.ids
    nn = d.argmin(axis=1)  # slots equal ids, so the first minimum is the smallest id
    dmin = d[np.arange(c.n), nn]
    with _updates_named(crit):
        for _ in range(c.n - 1):
            hits = np.flatnonzero(dmin == dmin.min())
            a = int(hits[ids[hits].argmin()])
            b = int(nn[a])
            c.merge(a, b)
            dmin[b] = np.inf
            # live rows that pointed at a child; a itself, as nn[a] == b
            rows = np.flatnonzero((dmin < np.inf) & ((nn == a) | (nn == b)))
            col = d[a]  # column a, read as the equal row
            nn[col < dmin] = a
            np.minimum(dmin, col, out=dmin)
            sub = d[rows]
            dmin[rows] = low = sub.min(axis=1)
            nn[rows] = np.where(sub == low[:, None], ids, 2 * c.n).argmin(axis=1)
    return _finish(c.n, c.raw, crit, labels)


def nn_chain_cluster(m, crit, labels=None) -> Dendrogram:
    """O(n^2) reciprocal-nearest-neighbor chain clustering."""
    crit = _coerce(crit)
    if not crit.reducible:
        raise ValueError(
            f"criterion {crit.value!r} is not reducible; use naive_cluster"
        )
    c = _Clusters(m, crit)
    d, ids = c.d, c.ids
    chain = []
    with _updates_named(crit):
        while len(c.raw) < c.n - 1:
            if not chain:
                chain.append(int(ids.argmin()))  # the smallest live id
            x = chain[-1]
            row = d[x]
            hits = np.flatnonzero(row == row.min())
            y = int(hits[ids[hits].argmin()])  # the smallest id on ties
            if len(chain) >= 2 and y == chain[-2]:
                chain.pop()
                chain.pop()
                c.merge(x, y)
            else:
                chain.append(y)
    return _finish(c.n, c.raw, crit, labels)
