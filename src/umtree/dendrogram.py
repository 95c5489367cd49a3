"""Dendrogram data structure and ultrametric (cophenetic) distances.

A dendrogram over n terminals is a binary rooted tree with n-1 internal
nodes.  Node ids: terminals are 0..n-1, internal nodes are n..2n-2 in
merge order, so internal node ``n - 1 + r`` is the r-th merge (rank r).
The first-listed child of every merge is the "left" child and carries
branch label +1; the second carries -1.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import combinations
import json

import numpy as np

__all__ = [
    "Dendrogram",
    "DistanceMatrix",
    "cophenetic_distance",
    "cophenetic_matrix",
    "verify_metric",
    "verify_ultrametric",
    "cluster_members",
]


@dataclass(frozen=True)
class DistanceMatrix:
    """Symmetric nonnegative matrix with zero diagonal."""

    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", v)
        if not np.isfinite(v).all():
            raise ValueError("distances must be finite")
        if v.ndim != 2 or v.shape[0] != v.shape[1]:
            raise ValueError("distance matrix must be square")
        if not np.allclose(v, v.T):
            raise ValueError("distance matrix must be symmetric")
        if (v < 0).any():
            raise ValueError("distances must be nonnegative")
        if np.abs(np.diag(v)).max(initial=0.0) != 0.0:
            raise ValueError("diagonal must be zero")

    @property
    def n(self) -> int:
        return self.values.shape[0]

    def __getitem__(self, ij):
        i, j = ij
        return float(self.values[i, j])


def _as_matrix(m) -> np.ndarray:
    if isinstance(m, DistanceMatrix):
        return m.values
    return DistanceMatrix(np.asarray(m, dtype=float)).values


@dataclass(frozen=True)
class Dendrogram:
    """Binary rooted node-ranked tree with agglomeration levels.

    merges[r - 1] = (left_child, right_child, level) for rank r in 1..n-1.
    Levels must be nonnegative and non-decreasing along containment;
    strictness can be checked separately (equal merge costs are common
    for tied input distances).  raw_levels optionally preserves levels
    prior to monotonicity repair (median linkage can invert).
    """

    n_terminals: int
    merges: tuple
    raw_levels: tuple = None
    labels: tuple = None

    def __post_init__(self):
        n = self.n_terminals
        if n < 1:
            raise ValueError("need at least one terminal")
        merges = tuple(
            (int(a), int(b), float(lev)) for a, b, lev in self.merges
        )
        object.__setattr__(self, "merges", merges)
        if len(merges) != n - 1:
            raise ValueError(f"expected {n - 1} merges, got {len(merges)}")
        if self.labels is not None and len(self.labels) != n:
            raise ValueError("labels must match n_terminals")
        seen = set()
        for r, (a, b, lev) in enumerate(merges, start=1):
            node = n - 1 + r
            for c in (a, b):
                if not (0 <= c < node):
                    raise ValueError(f"merge {r}: child id {c} out of range")
                if c in seen:
                    raise ValueError(f"child {c} used twice")
                seen.add(c)
            if a == b:
                raise ValueError(f"merge {r}: children must differ")
            if lev < 0:
                raise ValueError(f"merge {r}: negative level")
            for c in (a, b):
                if c >= n and merges[c - n][2] > lev + 1e-12:
                    raise ValueError(
                        f"merge {r}: level below child's (use monotone repair)"
                    )
        if len(merges) and seen != set(range(2 * n - 2)):
            raise ValueError("every node except the root must be a child once")

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
    def parent(self) -> np.ndarray:
        p = np.full(self.n_nodes, -1, dtype=int)
        for r, (a, b, _) in enumerate(self.merges, start=1):
            p[a] = p[b] = self.n_terminals - 1 + r
        return p

    def path_to_root(self, terminal: int):
        """Internal nodes met walking from a terminal up to the root."""
        if not self.is_terminal(terminal):
            raise IndexError(f"terminal {terminal} out of range")
        path = []
        node = terminal
        while self.parent[node] != -1:
            node = int(self.parent[node])
            path.append(node)
        return path

    @cached_property
    def _members(self):
        mem = [frozenset([i]) for i in range(self.n_terminals)]
        for a, b, _ in self.merges:
            mem.append(mem[a] | mem[b])
        return mem

    def members(self, node: int) -> frozenset:
        if not (0 <= node < self.n_nodes):
            raise IndexError(f"node {node} out of range")
        return self._members[node]

    def check_strict_levels(self) -> bool:
        """True iff levels strictly increase along containment."""
        for node in range(self.n_terminals, self.n_nodes):
            for c in self.children(node):
                if c >= self.n_terminals and not self.level(c) < self.level(node):
                    return False
            if self.level(node) <= 0:
                return False
        return True

    # -- level re-assignment ----------------------------------------------

    def with_rank_levels(self) -> "Dendrogram":
        """Copy with level(rank-r node) = r (a ranked dendrogram)."""
        merges = tuple(
            (a, b, float(r)) for r, (a, b, _) in enumerate(self.merges, start=1)
        )
        return Dendrogram(self.n_terminals, merges, labels=self.labels)

    # -- serialization -----------------------------------------------------

    def to_json(self) -> str:
        return json.dumps(
            {
                "n_terminals": self.n_terminals,
                "merges": [[a, b, lev] for a, b, lev in self.merges],
                **({"labels": list(self.labels)} if self.labels else {}),
            }
        )

    @classmethod
    def from_json(cls, text: str) -> "Dendrogram":
        obj = json.loads(text)
        return cls(
            n_terminals=int(obj["n_terminals"]),
            merges=tuple(tuple(m) for m in obj["merges"]),
            labels=tuple(obj["labels"]) if obj.get("labels") else None,
        )

    def to_newick(self) -> str:
        """Newick text with branch lengths = level differences."""

        def render(node: int, parent_level: float) -> str:
            length = parent_level - self.level(node)
            if self.is_terminal(node):
                name = self.labels[node] if self.labels else str(node)
                return f"{name}:{length:g}"
            a, b = self.children(node)
            lev = self.level(node)
            return f"({render(a, lev)},{render(b, lev)}):{length:g}"

        root = self.root
        a, b = self.children(root)
        lev = self.level(root)
        return f"({render(a, lev)},{render(b, lev)});"


# -- cophenetic distances --------------------------------------------------


def cophenetic_distance(dend: Dendrogram, i: int, j: int) -> float:
    """Level of the lowest cluster containing both terminals."""
    for t in (i, j):
        if not dend.is_terminal(t):
            raise IndexError(f"terminal {t} out of range")
    if i == j:
        return 0.0
    anc_i = set(dend.path_to_root(i))
    node = j
    while True:
        node = int(dend.parent[node])
        if node in anc_i:
            return dend.level(node)


def cophenetic_matrix(dend: Dendrogram) -> DistanceMatrix:
    """All pairwise cophenetic distances, in one bottom-up pass."""
    n = dend.n_terminals
    d = np.zeros((n, n))
    for a, b, lev in dend.merges:
        left = list(dend.members(a))
        right = list(dend.members(b))
        d[np.ix_(left, right)] = lev
        d[np.ix_(right, left)] = lev
    return DistanceMatrix(d)


def cluster_members(dend: Dendrogram, node: int) -> frozenset:
    """Terminals descending from a node (the cluster at that node)."""
    return dend.members(node)


# -- metric / ultrametric verification -------------------------------------


def _violations(m, tol: float, ultra: bool):
    d = _as_matrix(m)
    n = d.shape[0]
    out = []
    for i, j, k in combinations(range(n), 3):
        sides = sorted((d[i, j], d[i, k], d[j, k]))
        if ultra:
            slack = sides[2] - sides[1]
        else:
            slack = sides[2] - (sides[0] + sides[1])
        if slack > tol:
            out.append((i, j, k, float(slack)))
    return out


def verify_ultrametric(m, tol: float = 0.0):
    """Triples violating the strong triangle inequality, with slack.

    Empty iff d(x,z) <= max(d(x,y), d(y,z)) + tol for all triples,
    equivalently: the two largest sides of every triangle agree to tol.
    """
    return _violations(m, tol, ultra=True)


def verify_metric(m, tol: float = 0.0):
    """Triples violating the plain triangle inequality, with slack."""
    return _violations(m, tol, ultra=False)
