"""Join semilattice of set-valued distances and its level clusters.

The distinct pair-distance sets, closed under union, form a join
semilattice ordered by inclusion and leveled by cardinality.  Level
clusters at level k are the maximal object sets whose internal pair
distances all fit inside a single maximal lattice node of level <= k.

Level clusters are concept extents: pair (i, j), at distance
~(w_i & w_j) for row masks w, is linked within node v iff ~v <= w_i & w_j,
so the pairs linked within v are all the pairs of the extent of ~v.

Sets are handled as int bitmasks (see dissim.to_mask) and returned as
frozensets.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import combinations

import numpy as np

from .dissim import SetValuedDistanceTable, from_mask, to_mask

__all__ = [
    "Semilattice",
    "build_lattice",
    "pairs_for_node",
    "clusters_at_level",
    "triangle_violations",
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

    def join(self, a, b) -> frozenset:
        u = frozenset(a) | frozenset(b)
        if u not in self:
            raise KeyError(f"{sorted(u)} not a lattice vertex")
        return u


def _union_closure(masks) -> list:
    """All unions of nonempty subfamilies, in vertex order: adding a
    generator g adds g and f | g for every f already there."""
    family = set()
    for g in masks:
        family |= {g} | {f | g for f in family}
    return sorted(family, key=_mask_key)


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
    """Union-closure of the observed distance sets, with cover edges."""
    order = _union_closure(t.masks)
    sets = {v: frozenset(from_mask(v)) for v in order}
    edges = tuple((sets[lo], sets[hi]) for lo, hi in _cover_edges(order))
    return Semilattice(tuple(sets.values()), edges)


def pairs_for_node(t: SetValuedDistanceTable, node) -> list:
    """Pairs whose distance set equals the node exactly."""
    mask = to_mask(node)
    inside = [m for m in t.masks if m & mask == m]
    union = 0
    for m in inside:
        union |= m
    # a vertex is exactly the union of the observed sets it contains
    if not inside or union != mask:
        raise KeyError(f"{sorted(node)} is not a lattice vertex")
    hit = np.array([m == mask for m in t.masks], dtype=bool)[t.codes]
    i, j = np.triu_indices(t.n, 1)
    return list(zip(i[hit].tolist(), j[hit].tolist()))


def clusters_at_level(t: SetValuedDistanceTable, k: int) -> list:
    """Maximal object sets linked entirely within some maximal lattice
    node of level <= k; dominated sets (including singletons) removed.

    Pair (i, j) is linked within v iff ~v <= w_i & w_j, so the linked
    pairs are all the pairs of the extent of ~v: each maximal node gives
    one cluster, the rows its linked pairs meet.  A per-pair table that
    links only some pairs of those rows raises ValueError."""
    if not 0 <= k <= t.n_attributes:
        raise ValueError(f"level {k} out of range 0..{t.n_attributes}")
    eligible = [v for v in _union_closure(t.masks) if v.bit_count() <= k]
    maximal = [v for v in eligible if not any(v != w and v & w == v for w in eligible)]
    i, j = np.triu_indices(t.n, 1)
    clusters = {1 << x for x in range(t.n)}
    for node in maximal:
        linked = np.array([m & node == m for m in t.masks], dtype=bool)[t.codes]
        met = np.zeros(t.n, dtype=bool)
        met[i[linked]] = met[j[linked]] = True
        r = met.sum()
        if linked.sum() != r * (r - 1) // 2:
            raise ValueError(
                f"level {k}: node {list(from_mask(node))} links only some pairs of its rows"
            )
        clusters.add(to_mask(np.flatnonzero(met).tolist()))
    keep = []
    for c in sorted(clusters, key=int.bit_count, reverse=True):
        if not any(c & d == c for d in keep):
            keep.append(c)
    return [frozenset(from_mask(c)) for c in sorted(keep, key=_mask_key)]


def triangle_violations(t: SetValuedDistanceTable) -> list:
    """Triples breaking the set-valued strong triangle inequality
    d(x,z) <= d(x,y) | d(y,z); empty for simple-matching tables, as
    ~(w_x & w_y) | ~(w_y & w_z) = ~(w_x & w_y & w_z) >= ~(w_x & w_z)."""
    d = [[0] * t.n for _ in range(t.n)]
    for (a, b), c in zip(t.pairs(), t.codes.tolist()):
        d[a][b] = d[b][a] = t.masks[c]
    out = []
    for x, y, z in combinations(range(t.n), 3):
        for a, b, c in ((x, z, y), (x, y, z), (y, z, x)):
            if d[a][b] & ~(d[a][c] | d[c][b]):
                out.append((a, c, b))
    return out
