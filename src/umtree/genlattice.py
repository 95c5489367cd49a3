"""Join semilattice of set-valued distances and its level clusters.

The distinct pair-distance sets, closed under union, form a join
semilattice ordered by inclusion and leveled by cardinality.  Level
clusters at level k are the maximal object sets whose internal pair
distances all fit inside a single maximal lattice node of level <= k.

Objects i != j are at distance ~(w_i & w_j) for row masks w, and all is
read off one closure operator on attribute sets B.  The extent of B,
the objects holding all of B, is the AND of the column masks t.cols
over B; c(B) is the intent of that extent (the attributes all of its
objects hold) when it has two or more objects, and every attribute
otherwise.  The table holds this operator, computes it once per set,
and lists its closed sets once (SetValuedDistanceTable._closure and
._closed_sets).

- Vertices are the complements of the closed sets with two or more
  objects in their extent, as a union of distances ~(w_i & w_j) is ~ of
  the meet of the rows involved.  NextClosure (Ganter) lists them.
- The lower covers of vertex v are the maximal sets among the vertices
  ~c(~v | {x}), x in v, each the largest vertex inside v - {x} (Lindig).
- Level clusters are extents: pair (i, j) is linked within node v iff
  ~v <= w_i & w_j, so those pairs are all the pairs of the extent of ~v.
- The strong triangle inequality d(x,z) <= d(x,y) | d(y,z) holds on
  every table: ~(w_x & w_y) | ~(w_y & w_z) = ~(w_x & w_y & w_z).

Sets are handled as int bitmasks (see dissim.to_mask) and returned as
frozensets.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

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


def build_lattice(t: SetValuedDistanceTable) -> Semilattice:
    """The distances closed under union, read off as the complements of
    the closed attribute sets, with cover edges."""
    full = (1 << t.n_attributes) - 1
    order = sorted((full & ~b for b in t._closed_sets), key=_mask_key)
    index = {v: k for k, v in enumerate(order)}
    edges = []
    for hi in order:
        # Lindig's neighbour test: the candidate for x drops r(x) = c & hi
        # from hi, and r(y) <= r(x) for each y in r(x), so the candidate is
        # a lower cover iff every y in r(x) has r(y) = r(x).  x leaves least
        # when r(x) holds another attribute still in it: one that drops a
        # smaller set, or the same set and comes later.  So one edge is
        # made per cover, at the last attribute of its r.
        least = hi
        for x in from_mask(hi):
            c, extent = t._closure(full & ~hi | 1 << x)
            if extent.bit_count() < 2:  # no vertex below hi avoids x
                continue
            if c & least & ~(1 << x):
                least &= ~(1 << x)
            else:
                edges.append((index[full & ~c], index[hi]))
    sets = [frozenset(from_mask(v)) for v in order]
    return Semilattice(tuple(sets), tuple((sets[lo], sets[hi]) for lo, hi in sorted(edges)))


def pairs_for_node(t: SetValuedDistanceTable, node) -> list:
    """Pairs whose distance set equals the node exactly."""
    mask = to_mask(node)
    full = (1 << t.n_attributes) - 1
    c, extent = t._closure(full & ~mask)
    if mask & ~full or c != full & ~mask or extent.bit_count() < 2:
        raise KeyError(f"{sorted(node)} is not a lattice vertex")
    pairs = t._pairs_by_distance.get(mask)
    return [] if pairs is None else list(zip(pairs[0].tolist(), pairs[1].tolist()))


def clusters_at_level(t: SetValuedDistanceTable, k: int) -> list:
    """Maximal object sets linked entirely within some maximal lattice
    node of level <= k; dominated sets (including singletons) removed.

    Each maximal node v gives one cluster, the extent of ~v.  Extents
    reverse inclusion between closed sets (b <= b' iff the extent of b'
    lies in that of b), so the maximal extents are those of the minimal
    closed sets of vertex level <= k, found on the m-bit closed sets.
    A singleton {x} is kept iff x is in none of those extents."""
    if not 0 <= k <= t.n_attributes:
        raise ValueError(f"level {k} out of range 0..{t.n_attributes}")
    full = (1 << t.n_attributes) - 1
    keep = []
    holders = [0] * t.n_attributes  # bit i of holders[x]: keep[i] holds attribute x
    # vertex ~b has level n_attributes - |b|; a subset of b has fewer bits
    for b in sorted((b for b in t._closed_sets if t.n_attributes - b.bit_count() <= k),
                    key=int.bit_count):
        outside = 0  # the kept sets holding an attribute outside b
        for x in from_mask(full & ~b):
            outside |= holders[x]
        if outside.bit_count() == len(keep):  # so none of them lies inside b
            for x in from_mask(b):
                holders[x] |= 1 << len(keep)
            keep.append(b)
    clusters = [t._closed_sets[b] for b in keep]
    covered = 0
    for e in clusters:
        covered |= e
    clusters += [1 << x for x in range(t.n) if not covered >> x & 1]
    return [frozenset(members) for _, members in sorted(map(_mask_key, clusters))]
