"""Join semilattice of set-valued distances and its level clusters.

The distinct pair-distance sets, closed under union, form a join
semilattice ordered by inclusion and leveled by cardinality.  Level
clusters at level k are the maximal object sets whose internal pair
distances all fit inside a single maximal lattice node of level <= k.

Everything is read off the table's row masks w, objects i != j being at
distance ~(w_i & w_j):

- Vertices are the complements of meets of two or more rows: a union of
  distances ~(w_i & w_j) is ~ of the meet of every row involved, and any
  set of two or more objects is the union of its pairs.
- Level clusters are concept extents: pair (i, j) is linked within node
  v iff ~v <= w_i & w_j, so the pairs linked within v are all the pairs
  of the extent {i : w_i >= ~v}.
- The strong triangle inequality d(x,z) <= d(x,y) | d(y,z) of a
  generalized ultrametric holds on every table, as
  ~(w_x & w_y) | ~(w_y & w_z) = ~(w_x & w_y & w_z) >= ~(w_x & w_z).

Sets are handled as int bitmasks (see dissim.to_mask) and returned as
frozensets.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .dissim import SetValuedDistanceTable, from_mask, to_mask

__all__ = [
    "Semilattice",
    "build_lattice",
    "pairs_for_node",
    "clusters_at_level",
]


def _mask_key(mask: int):
    """Order of vertices and clusters: size, then sorted members."""
    return (mask.bit_count(), from_mask(mask))


@dataclass(frozen=True)
class Semilattice:
    """Union-closed family of attribute subsets, ordered by inclusion."""

    vertices: tuple  # frozensets, sorted by (level, members)
    edges: tuple  # covering pairs (lower, upper), both vertices

    @cached_property
    def _vertex_set(self) -> frozenset:
        return frozenset(self.vertices)

    def level(self, node: frozenset) -> int:
        return len(node)

    def __contains__(self, node) -> bool:
        return frozenset(node) in self._vertex_set


def _vertices(t: SetValuedDistanceTable) -> list:
    """Vertices in order: seen holds the meets of one or more distinct rows
    met so far, meets those of two or more objects (first, shared rows)."""
    count = Counter(t.rows)
    meets = {w for w, c in count.items() if c > 1}
    seen = set()
    for w in count:
        new = {s & w for s in seen}
        meets |= new
        seen |= new
        seen.add(w)
    full = (1 << t.n_attributes) - 1
    return sorted((full & ~v for v in meets), key=_mask_key)


def _cover_edges(order) -> list:
    """Covering pairs of the inclusion order on masks listed by size.

    The strict supersets of lo come after it, smaller ones first.  One
    of them is an upper cover of lo iff no cover found before it lies
    below it, since any set strictly between lies above such a cover.
    """
    edges = []
    for k, lo in enumerate(order):
        covers = []
        for hi in order[k + 1:]:
            if hi & lo == lo and not any(c & hi == c for c in covers):
                covers.append(hi)
        edges.extend((lo, hi) for hi in covers)
    return edges


def build_lattice(t: SetValuedDistanceTable) -> Semilattice:
    """The distances closed under union, read off as the complements of
    the row meets, with cover edges."""
    order = _vertices(t)
    sets = {v: frozenset(from_mask(v)) for v in order}
    edges = tuple((sets[lo], sets[hi]) for lo, hi in _cover_edges(order))
    return Semilattice(tuple(sets.values()), edges)


def pairs_for_node(t: SetValuedDistanceTable, node) -> list:
    """Pairs whose distance set equals the node exactly."""
    mask = to_mask(node)
    masks, codes, i, j = t._pair_codes
    inside = [m for m in masks if m & mask == m]
    union = 0
    for m in inside:
        union |= m
    # a vertex is exactly the union of the observed sets it contains
    if not inside or union != mask:
        raise KeyError(f"{sorted(node)} is not a lattice vertex")
    hit = np.array([m == mask for m in masks], dtype=bool)[codes]
    return list(zip(i[hit].tolist(), j[hit].tolist()))


def clusters_at_level(t: SetValuedDistanceTable, k: int) -> list:
    """Maximal object sets linked entirely within some maximal lattice
    node of level <= k; dominated sets (including singletons) removed.

    Each maximal node v gives one cluster, the extent {i : w_i >= ~v}.
    Extents grow with the node (v <= w gives ~w <= ~v), so the maximal
    extents of all nodes of level <= k are those of the maximal nodes."""
    if not 0 <= k <= t.n_attributes:
        raise ValueError(f"level {k} out of range 0..{t.n_attributes}")
    full = (1 << t.n_attributes) - 1
    clusters = {1 << x for x in range(t.n)}
    for node in _vertices(t):
        if node.bit_count() <= k:
            need = full & ~node
            clusters.add(to_mask(i for i, w in enumerate(t.rows) if w & need == need))
    keep = []
    for c in sorted(clusters, key=int.bit_count, reverse=True):
        if not any(c & d == c for d in keep):
            keep.append(c)
    return [frozenset(from_mask(c)) for c in sorted(keep, key=_mask_key)]
