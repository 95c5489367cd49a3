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
driver; it can also invert levels, which is repaired by propagating the
running maximum (raw levels are kept on the dendrogram).

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

import warnings
from enum import Enum

import numpy as np

from .dendrogram import Dendrogram, DistanceMatrix

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


_CLAMPED = "median update went negative (non-Euclidean input); clamped"


def lance_williams_update(d_ki, d_kj, d_ij, sizes, crit) -> float:
    """Dissimilarity from cluster k to the merge of i and j.

    sizes = (n_i, n_j, n_k).  For ward and median the three inputs are
    squared distances and the result is a squared distance.
    """
    n_i, n_j, n_k = sizes if sizes is not None else (1, 1, 1)
    row, clamped = _lw_row(
        np.array([d_ki], float), np.array([d_kj], float), d_ij, n_k, n_i, n_j,
        _coerce(crit),
    )
    if clamped:
        warnings.warn(_CLAMPED)
    return float(row[0])


def _lw_row(d_i, d_j, d_ij, sizes_all, n_i, n_j, crit):
    """Vectorized Lance-Williams update against all other clusters.

    Returns the row and whether it was clamped: a median row can go
    negative on non-Euclidean input and is clamped at 0; the caller warns.
    """
    if crit is MergeCriterion.SINGLE:
        return np.minimum(d_i, d_j), False
    if crit is MergeCriterion.COMPLETE:
        return np.maximum(d_i, d_j), False
    if crit is MergeCriterion.AVERAGE:
        return (n_i * d_i + n_j * d_j) / (n_i + n_j), False
    if crit is MergeCriterion.WARD:
        tot = n_i + n_j + sizes_all
        return ((n_i + sizes_all) * d_i + (n_j + sizes_all) * d_j - sizes_all * d_ij) / tot, False
    # median (Gower): midpoint of the two centroids
    row = 0.5 * d_i + 0.5 * d_j - 0.25 * d_ij
    clamped = bool((row < 0).any())
    if clamped:
        np.maximum(row, 0.0, out=row)
    return row, clamped


class _Clusters:
    """The live clusters of one run, held in n slots of an n x n matrix.

    Slot s holds cluster ids[s]: terminal t starts in slot t, and the
    k-th merge (k = 0, 1, ...) creates cluster n + k in the slot of its
    first child.  The diagonal stays inf.  Rows and columns of retired
    slots keep stale values, so every scan masks them with live.  clamps
    counts the merges whose median row was clamped.
    """

    def __init__(self, m, crit):
        d = m.values if isinstance(m, DistanceMatrix) else DistanceMatrix(np.asarray(m, float)).values
        self.n = n = d.shape[0]
        if n < 2:
            raise ValueError("need at least 2 observations")
        # DistanceMatrix accepts symmetry within tolerance; the scans need it exact
        self.d = np.minimum(d, d.T)
        if crit.squared:
            self.d **= 2
        np.fill_diagonal(self.d, np.inf)
        self.crit = crit
        self.ids = np.arange(n)
        self.sizes = np.ones(n, dtype=int)
        self.live = np.ones(n, dtype=bool)
        self.raw = []
        self.clamps = 0

    def merge(self, a, b):
        """Merge the clusters in slots a and b into slot a; retire slot b."""
        d, live, sizes = self.d, self.live, self.sizes
        cost = float(d[a, b])
        live[a] = live[b] = False
        others = np.flatnonzero(live)
        live[a] = True
        row, clamped = _lw_row(
            d[a, others], d[b, others], cost, sizes[others], sizes[a], sizes[b], self.crit,
        )
        self.clamps += clamped
        d[a, others] = row
        d[others, a] = row
        sizes[a] += sizes[b]
        self.raw.append((int(self.ids[a]), int(self.ids[b]), cost))
        self.ids[a] = self.n + len(self.raw) - 1


def _finish(n, raw_merges, crit, labels=None, reorder=False):
    """Renumber cluster ids and repair level inversions.

    reorder sorts merges by cost first: needed for NN-chain output (it
    merges out of cost order) and safe there because reducibility keeps
    every child's cost at or below its parent's.  The naive driver
    already merges in cost order for reducible criteria, and for median
    the creation order is the dendrogram order (costs may invert).
    """
    if reorder:
        order = sorted(range(len(raw_merges)), key=lambda k: (raw_merges[k][2], k))
    else:
        order = list(range(len(raw_merges)))
    newid = {t: t for t in range(n)}
    for pos, k in enumerate(order):
        newid[n + k] = n + pos
    merges = []
    raw_levels = []
    prev = 0.0
    for k in order:
        a, b, cost = raw_merges[k]
        a, b = sorted((newid[a], newid[b]))
        level = float(np.sqrt(cost)) if crit.squared else float(cost)
        raw_levels.append(level)
        prev = max(prev, level)
        merges.append((a, b, prev))
    repaired = any(abs(r - m[2]) > 0 for r, m in zip(raw_levels, merges))
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
    d, ids, live = c.d, c.ids, c.live
    nn = d.argmin(axis=1)  # slots equal ids, so the first minimum is the smallest id
    dmin = d[np.arange(c.n), nn]
    for _ in range(c.n - 1):
        hits = np.flatnonzero(dmin == dmin.min())
        a = int(hits[ids[hits].argmin()])
        b = int(nn[a])
        c.merge(a, b)
        dmin[b] = np.inf
        rows = np.flatnonzero(live & ((nn == a) | (nn == b)))  # a itself, as nn[a] == b
        col = np.where(live, d[:, a], np.inf)
        nn[col < dmin] = a
        np.minimum(dmin, col, out=dmin)
        sub = np.where(live, d[rows], np.inf)
        dmin[rows] = low = sub.min(axis=1)
        nn[rows] = np.where(sub == low[:, None], ids, 2 * c.n).argmin(axis=1)
    if c.clamps:
        warnings.warn(f"{_CLAMPED} in {c.clamps} merges")
    return _finish(c.n, c.raw, crit, labels, reorder=False)


def nn_chain_cluster(m, crit, labels=None) -> Dendrogram:
    """O(n^2) reciprocal-nearest-neighbor chain clustering."""
    crit = _coerce(crit)
    if not crit.reducible:
        raise ValueError(
            f"criterion {crit.value!r} is not reducible; use naive_cluster"
        )
    c = _Clusters(m, crit)
    d, ids, live = c.d, c.ids, c.live
    chain = []
    while len(c.raw) < c.n - 1:
        if not chain:
            chain.append(int(np.where(live, ids, 2 * c.n).argmin()))  # smallest live id
        x = chain[-1]
        row = np.where(live, d[x], np.inf)
        hits = np.flatnonzero(row == row.min())
        y = int(hits[ids[hits].argmin()])  # the smallest id on ties
        if len(chain) >= 2 and y == chain[-2]:
            chain.pop()
            chain.pop()
            c.merge(x, y)
        else:
            chain.append(y)
    return _finish(c.n, c.raw, crit, labels, reorder=True)
