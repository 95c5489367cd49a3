"""Dendrogram data structure and ultrametric (cophenetic) distances.

A dendrogram over n terminals is a binary rooted tree with n-1 internal
nodes.  Node ids: terminals are 0..n-1, internal nodes are n..2n-2 in
merge order, so internal node ``n - 1 + r`` is the r-th merge (rank r).
The first-listed child of every merge is the "left" child and carries
branch label +1; the second carries -1.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import cached_property
from itertools import repeat
import json
import math
from numbers import Integral, Real
from typing import NamedTuple

import numpy as np

__all__ = [
    "Dendrogram",
    "DistanceMatrix",
    "cophenetic_distance",
    "cophenetic_matrix",
    "verify_metric",
    "verify_ultrametric",
]


_BLOCK = 1 << 16  # entries per block of rows in the matrix passes


def _row_blocks(n):
    """Slices of consecutive rows of an n x n matrix, _BLOCK entries or so each."""
    step = max(1, _BLOCK // max(n, 1))
    return [slice(r, r + step) for r in range(0, n, step)]


@contextmanager
def _overflow_named(message):
    """Raise a float64 overflow inside the block as ValueError(message)."""
    try:
        with np.errstate(over="raise"):
            yield
    except FloatingPointError:
        raise ValueError(message) from None


def _finite(x) -> bool:
    """math.isfinite, and False for an int too large for a float."""
    try:
        return math.isfinite(x)
    except OverflowError:
        return False


@dataclass(frozen=True)
class DistanceMatrix:
    """Symmetric nonnegative matrix with zero diagonal.  Input symmetric
    only within np.allclose is stored as np.minimum(v, v.T), a new array;
    exactly symmetric float input is kept as it is, without a copy."""

    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        square = v.ndim == 2 and v.shape[0] == v.shape[1]
        finite = square or bool(np.isfinite(v).all())  # square: checked below
        symmetric = nonneg = exact = True
        # one pass over blocks of rows, without n x n temporaries; symmetry
        # is np.allclose(v, v.T): |v_ij - v_ji| <= 1e-8 + 1e-5 |v_ji|
        for rows in _row_blocks(v.shape[0] if square else 0):
            x, y = v[rows], v[:, rows].T
            low, high = x.min(), x.max()
            finite = finite and bool(np.isfinite(low) and np.isfinite(high))
            nonneg = nonneg and low >= 0
            with np.errstate(invalid="ignore"):  # inf - inf, as in np.allclose
                diff = x - y
            if diff.any():  # rows equal to their columns need no tolerance
                exact = False
                np.abs(diff, out=diff)
                tol = np.abs(y)
                tol *= 1e-5
                tol += 1e-8
                symmetric = symmetric and bool((diff <= tol).all())
        if not finite:
            raise ValueError("distances must be finite")
        if not square:
            raise ValueError("distance matrix must be square")
        if not symmetric:
            raise ValueError("distance matrix must be symmetric")
        if not nonneg:
            raise ValueError("distances must be nonnegative")
        if np.abs(np.diag(v)).max(initial=0.0) != 0.0:
            raise ValueError("diagonal must be zero")
        object.__setattr__(self, "values", v if exact else np.minimum(v, v.T))

    @classmethod
    def _trusted(cls, v):
        """Wrap v without the checks: for the library's own results,
        finite, exactly symmetric, nonnegative and zero on the diagonal
        by construction."""
        self = object.__new__(cls)
        object.__setattr__(self, "values", v)
        return self

    @property
    def n(self) -> int:
        return self.values.shape[0]

    def __getitem__(self, ij):
        i, j = ij
        return float(self.values[i, j])


class TreeLayout(NamedTuple):
    """A dendrogram as flat arrays over node ids.

    order lists the terminals so that every node's members are the slice
    order[lo[node]:hi[node]], the left child's members first, so a
    terminal t sits at position lo[t].  parent is -1 at the root.  Parents
    have larger ids than their children, and a node's rank is node - n + 1.
    height is 0 at a terminal and one more than the higher child's at an
    internal node, so a node is higher than its children.
    """

    order: np.ndarray
    lo: np.ndarray
    hi: np.ndarray
    parent: np.ndarray
    height: np.ndarray


def _as_matrix(m) -> np.ndarray:
    if isinstance(m, DistanceMatrix):
        return m.values
    return DistanceMatrix(np.asarray(m, dtype=float)).values


@dataclass(frozen=True)
class Dendrogram:
    """Binary rooted node-ranked tree with agglomeration levels.

    merges[r - 1] = (left_child, right_child, level) for rank r in 1..n-1.
    Child ids are integers and levels are real numbers (numpy scalars kept
    as int and float; bools are neither).  Levels must be nonnegative and
    non-decreasing along containment; strictness can be checked separately
    (equal merge costs are common for tied input distances).  raw_levels
    optionally preserves levels prior to monotonicity repair (median
    linkage can invert, and so can rounding on tied data): n - 1 finite
    numbers, kept as float.  They are not compared and not written to
    JSON, so a repaired tree equals the tree read back from its JSON.
    """

    n_terminals: int
    merges: tuple
    raw_levels: tuple = field(default=None, compare=False)
    labels: tuple = None

    def __post_init__(self):
        n = self.n_terminals
        if not isinstance(n, Integral) or isinstance(n, bool):
            raise ValueError(f"n_terminals {n!r} is not an integer")
        if n < 1:
            raise ValueError("need at least one terminal")
        given = tuple(self.merges)
        if len(given) != n - 1:
            raise ValueError(f"expected {n - 1} merges, got {len(given)}")
        if self.labels is not None:
            if len(self.labels) != n:
                raise ValueError("labels must match n_terminals")
            first = {}
            for t, label in enumerate(self.labels):
                try:
                    seen_at = first.setdefault(label, t)
                except TypeError:
                    raise ValueError(f"label {label!r} is not hashable") from None
                if seen_at != t:
                    raise ValueError(f"label {label!r} repeated (terminals {seen_at} and {t})")
        merges = []
        level = [0.0] * n  # by node id: terminals, then each merge as it passes
        seen = set()
        for r, m in enumerate(given, start=1):
            try:
                a, b, lev = m
            except (TypeError, ValueError):
                raise ValueError(f"merge {r} is {m!r}, expected [a, b, level]") from None
            if not (type(a) is type(b) is int and type(lev) is float):  # else the isinstance test
                if bool in map(type, (a, b, lev)) or not (
                        isinstance(a, Integral) and isinstance(b, Integral) and isinstance(lev, Real)):
                    raise ValueError(f"merge {r} is {m!r}, expected [a, b, level]")
                a, b, lev = int(a), int(b), float(lev)
            for c in (a, b):
                if not 0 <= c < n - 1 + r:  # below its own node id
                    raise ValueError(f"merge {r}: child id {c} out of range")
                if c in seen:
                    raise ValueError(f"child {c} used twice")
                seen.add(c)
            if not 0 <= lev < np.inf:  # also NaN
                raise ValueError(f"merge {r}: level {lev} is not finite and nonnegative")
            if level[a] > lev or level[b] > lev:
                raise ValueError(f"merge {r}: level below child's (use monotone repair)")
            level.append(lev)
            merges.append((a, b, lev))
        if self.raw_levels is not None:
            try:
                raw = tuple(self.raw_levels)
            except TypeError:
                raise ValueError(f"raw_levels {self.raw_levels!r} is not a sequence") from None
            if len(raw) != n - 1:
                raise ValueError(f"expected {n - 1} raw levels, got {len(raw)}")
            for r, lev in enumerate(raw, start=1):
                if isinstance(lev, bool) or not isinstance(lev, Real) or not _finite(lev):
                    raise ValueError(f"raw level {r} is {lev!r}, expected a finite number")
            object.__setattr__(self, "raw_levels", tuple(map(float, raw)))
        object.__setattr__(self, "n_terminals", int(n))
        object.__setattr__(self, "merges", tuple(merges))

    # -- basic structure ---------------------------------------------------

    @property
    def n_nodes(self) -> int:
        return 2 * self.n_terminals - 1

    @property
    def root(self) -> int:
        return 2 * self.n_terminals - 2

    def is_terminal(self, node: int) -> bool:
        return 0 <= node < self.n_terminals

    def rank(self, node: int) -> int:
        """Agglomeration rank (1..n-1) of an internal node."""
        if self.is_terminal(node):
            raise ValueError(f"node {node} is a terminal")
        return node - self.n_terminals + 1

    def children(self, node: int):
        a, b, _ = self.merges[node - self.n_terminals]
        return a, b

    def level(self, node: int) -> float:
        """Agglomeration level; 0 for terminals."""
        if self.is_terminal(node):
            return 0.0
        return self.merges[node - self.n_terminals][2]

    def branch_label(self, node: int, child: int) -> int:
        """+1 for the left (first-listed) child, -1 for the right."""
        a, b, _ = self.merges[node - self.n_terminals]
        if child == a:
            return +1
        if child == b:
            return -1
        raise ValueError(f"{child} is not a child of {node}")

    @cached_property
    def layout(self) -> "TreeLayout":
        """The tree as flat per-node arrays, built in two O(n) passes."""
        n = self.n_terminals
        size = [1] * n
        height = [0] * n
        parent = [-1] * self.n_nodes
        for node, (a, b, _) in enumerate(self.merges, start=n):
            size.append(size[a] + size[b])
            height.append(1 + max(height[a], height[b]))
            parent[a] = parent[b] = node
        lo = [0] * self.n_nodes
        for node in range(self.root, n - 1, -1):  # parents before children
            a, b = self.children(node)
            lo[a] = lo[node]
            lo[b] = lo[node] + size[a]
        lo = np.array(lo)
        order = np.empty(n, dtype=int)
        order[lo[:n]] = np.arange(n)
        return TreeLayout(order, lo, lo + np.array(size), np.array(parent), np.array(height))

    def path_to_root(self, terminal: int):
        """Internal nodes met walking from a terminal up to the root."""
        if not self.is_terminal(terminal):
            raise IndexError(f"terminal {terminal} out of range")
        parent = self.layout.parent
        path = []
        node = parent.item(terminal)
        while node != -1:
            path.append(node)
            node = parent.item(node)
        return path

    def contains(self, node: int, terminal: int) -> bool:
        """Whether terminal descends from node (an interval test)."""
        lay = self.layout
        return self.is_terminal(terminal) and bool(lay.lo[node] <= lay.lo[terminal] < lay.hi[node])

    def members(self, node: int) -> frozenset:
        if not (0 <= node < self.n_nodes):
            raise IndexError(f"node {node} out of range")
        lay = self.layout
        return frozenset(lay.order[lay.lo[node]:lay.hi[node]].tolist())

    def check_strict_levels(self) -> bool:
        """True iff levels strictly increase along containment."""
        level = [0.0] * self.n_terminals + [lev for _, _, lev in self.merges]
        return all(level[a] < lev and level[b] < lev for a, b, lev in self.merges)

    # -- level re-assignment ----------------------------------------------

    def with_rank_levels(self) -> "Dendrogram":
        """Copy with level(rank-r node) = r (a ranked dendrogram)."""
        merges = tuple(
            (a, b, float(r)) for r, (a, b, _) in enumerate(self.merges, start=1)
        )
        return Dendrogram(self.n_terminals, merges, labels=self.labels)

    # -- serialization -----------------------------------------------------

    def to_dict(self) -> dict:
        """The object to_json writes."""
        return {
            "n_terminals": self.n_terminals,
            "merges": [[a, b, lev] for a, b, lev in self.merges],
            **({"labels": list(self.labels)} if self.labels else {}),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict())

    @classmethod
    def from_json(cls, text: str) -> "Dendrogram":
        obj = json.loads(text)
        for key in ("n_terminals", "merges"):
            if not isinstance(obj, dict) or key not in obj:
                raise ValueError(f"tree JSON has no {key!r} key")
        n, merges, labels = obj["n_terminals"], obj["merges"], obj.get("labels")
        if not isinstance(n, int) or isinstance(n, bool):
            raise ValueError(f"tree JSON 'n_terminals' is {n!r}, not an integer")
        for key, value in (("merges", merges), ("labels", [] if labels is None else labels)):
            if not isinstance(value, list):
                raise ValueError(f"tree JSON {key!r} is {value!r}, not a list")
        return cls(n_terminals=n, merges=tuple(merges), labels=tuple(labels) if labels else None)

    def to_newick(self) -> str:
        """Newick text with branch lengths = level differences, built
        bottom-up in one pass over the merges."""
        text = [f"{x}" for x in (self.labels or range(self.n_terminals))]
        level = [0.0] * self.n_terminals
        for a, b, lev in self.merges:
            text.append(f"({text[a]}:{lev - level[a]:g},{text[b]}:{lev - level[b]:g})")
            level.append(lev)
            text[a] = text[b] = None  # each child's text is used once
        return text[-1] + ";"


# -- cophenetic distances --------------------------------------------------


def cophenetic_distance(dend: Dendrogram, i: int, j: int) -> float:
    """Level of the lowest cluster containing both terminals."""
    for t in (i, j):
        if not dend.is_terminal(t):
            raise IndexError(f"terminal {t} out of range")
    node = i
    while not dend.contains(node, j):
        node = int(dend.layout.parent[node])
    return dend.level(node)


def cophenetic_matrix(dend: Dendrogram) -> DistanceMatrix:
    """All pairwise cophenetic distances: each merge fills the rows of
    one child's terminals over the other child's slice of columns in leaf
    order; the columns are then permuted to terminal order in place, a
    block of rows at a time, so the result is the only n x n matrix."""
    n = dend.n_terminals
    lay = dend.layout
    lo, hi = lay.lo.tolist(), lay.hi.tolist()
    order = lay.order
    d = np.zeros((n, n))
    for a, b, lev in dend.merges:
        d[order[lo[a]:hi[a]], lo[b]:hi[b]] = lev
        d[order[lo[b]:hi[b]], lo[a]:hi[a]] = lev
    pos = lay.lo[:n]
    for rows in _row_blocks(n):
        d[rows] = d[rows, pos]
    return DistanceMatrix._trusted(d)


# -- metric / ultrametric verification -------------------------------------


def _checked_tol(tol) -> float:
    tol = float(tol)
    if tol != tol:
        raise ValueError(f"tolerance {tol!r} is not a number")
    return tol


def _violations(d, tol: float, ultra: bool):
    """Triples i < j < k, in lexicographic order, whose slack exceeds tol.

    d is a validated distance matrix (see _as_matrix).  One numpy pass
    per pivot i over all pairs j < k above it.  The sides' min, median
    and max are picked with np.minimum/np.maximum, so the slack is the
    same float as from sorting the three sides.
    """
    n = d.shape[0]
    out = []
    for i in range(n - 2):
        x = d[i, i + 1:]  # d(i, j) down the rows, d(i, k) along the columns
        z = d[i + 1:, i + 1:]  # d(j, k)
        low = np.minimum.outer(x, x)
        high = np.maximum.outer(x, x)
        top = np.maximum(high, z)
        mid = np.maximum(low, np.minimum(high, z))
        if ultra:
            slack = top - mid
        else:
            slack = top - (np.minimum(low, z) + mid)
        j, k = np.nonzero(np.triu(slack > tol, 1))  # row-major: lexicographic
        out.extend(zip(repeat(i), (j + i + 1).tolist(), (k + i + 1).tolist(), slack[j, k].tolist()))
    return out


def verify_ultrametric(m, tol: float = 0.0):
    """Triples violating the strong triangle inequality, with slack.

    Returns (i, j, k, slack) for i < j < k in lexicographic order.  Empty
    iff d(x,z) <= max(d(x,y), d(y,z)) + tol for all triples,
    equivalently: the two largest sides of every triangle agree to tol.
    A NaN tol raises ValueError.

    Valid input is certified in O(n^2) by the subdominant ultrametric s,
    the largest ultrametric below d: the cophenetic matrix of
    mst_cluster(d), whose every entry is an entry of d.  If d - s <= tol
    everywhere, the list is empty, and the O(n^3) triple pass runs only
    otherwise.  The certificate is exact in floating point: for the
    longest side d(x,z) of a triangle, s(x,z) <= max(s(x,y), s(y,z)) <=
    the middle side, and rounding is monotone, so no slack can exceed
    the largest d - s.
    """
    tol = _checked_tol(tol)
    d = _as_matrix(m)
    n = d.shape[0]
    if tol >= 0 and n > 2:  # d - s is 0 on the diagonal: tol < 0 never passes
        from .linkage import mst_cluster  # not at the top: linkage imports this module

        s = cophenetic_matrix(mst_cluster(DistanceMatrix._trusted(d))).values
        if all((d[rows] - s[rows]).max() <= tol for rows in _row_blocks(n)):
            return []
    return _violations(d, tol, ultra=True)


def verify_metric(m, tol: float = 0.0):
    """Triples violating the plain triangle inequality, with slack.

    Returns (i, j, k, slack) for i < j < k in lexicographic order.  A
    NaN tol raises ValueError.
    """
    return _violations(_as_matrix(m), _checked_tol(tol), ultra=False)
