import tracemalloc
from collections import Counter
from itertools import combinations
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from umtree import (
    SetValuedDistanceTable,
    Table,
    build_lattice,
    clusters_at_level,
    pairs_for_node,
    setvalued_table,
)
from umtree.datasets import bool5
from umtree.dissim import from_mask, row_masks, to_mask
from umtree.genlattice import _mask_key

# object ids: a=0, b=1, c=2, e=3, f=4; attribute ids: v1=0, v2=1, v3=2


@pytest.fixture
def table():
    return setvalued_table(bool5())


class TestBuildLattice:
    def test_bool5_vertices(self, table):
        lattice = build_lattice(table)
        assert set(lattice.vertices) == {
            frozenset({1}),
            frozenset({0, 1}),
            frozenset({1, 2}),
            frozenset({0, 1, 2}),
        }

    def test_bool5_cover_edges(self, table):
        lattice = build_lattice(table)
        assert set(lattice.edges) == {
            (frozenset({1}), frozenset({0, 1})),
            (frozenset({1}), frozenset({1, 2})),
            (frozenset({0, 1}), frozenset({0, 1, 2})),
            (frozenset({1, 2}), frozenset({0, 1, 2})),
        }

    def test_single_empty_distance(self):
        t = setvalued_table(Table(np.array([[1.0, 1.0], [1.0, 1.0]])))
        lattice = build_lattice(t)
        assert lattice.vertices == (frozenset(),)

    def test_union_closure_adds_joins(self):
        # unions of observed two-element sets force the top into the family
        t = setvalued_table(
            Table(
                np.array(
                    [
                        [1.0, 1.0, 0.0],
                        [1.0, 0.0, 1.0],
                        [0.0, 1.0, 1.0],
                    ]
                )
            )
        )
        lattice = build_lattice(t)
        for a in lattice.vertices:
            for b in lattice.vertices:
                assert a | b in lattice

    def test_union_closed_random(self, rng):
        for _ in range(10):
            x = Table((rng.random((6, 4)) > 0.5).astype(float))
            lattice = build_lattice(setvalued_table(x))
            for a in lattice.vertices:
                for b in lattice.vertices:
                    assert a | b in lattice

    def test_levels_are_cardinalities(self, table):
        lattice = build_lattice(table)
        for v in lattice.vertices:
            assert lattice.level(v) == len(v)


class TestPairsForNode:
    def test_bool5_partition(self, table):
        assert pairs_for_node(table, {0, 1}) == [
            (0, 1), (0, 4), (1, 2), (1, 4), (2, 4),
        ]
        assert pairs_for_node(table, {1}) == [(0, 2)]
        assert pairs_for_node(table, {0, 1, 2}) == [(1, 3), (3, 4)]
        assert pairs_for_node(table, {1, 2}) == [(0, 3), (2, 3)]

    def test_unknown_node(self, table):
        # attributes outside the table's three make no vertex either
        for node in ({0}, {1, 7}, {0, 1, 2, 5}):
            with pytest.raises(KeyError):
                pairs_for_node(table, node)

    def test_returns_a_copy(self, table):
        pairs_for_node(table, {1}).append((3, 4))
        assert pairs_for_node(table, {1}) == [(0, 2)]

    def test_exact_partition_of_pairs(self, rng):
        x = Table((rng.random((7, 3)) > 0.4).astype(float))
        t = setvalued_table(x)
        lattice = build_lattice(t)
        seen = []
        for v in lattice.vertices:
            seen.extend(pairs_for_node(t, v))
        assert sorted(seen) == t.pairs()


class TestClustersAtLevel:
    def test_level_3_full_set(self, table):
        assert clusters_at_level(table, 3) == [frozenset({0, 1, 2, 3, 4})]

    def test_level_2(self, table):
        # computed {a,c,e} merges the pairwise-consistent listings {a,e}, {c,e}
        assert clusters_at_level(table, 2) == [
            frozenset({0, 2, 3}),
            frozenset({0, 1, 2, 4}),
        ]

    def test_level_0_singletons(self, table):
        assert clusters_at_level(table, 0) == [
            frozenset({i}) for i in range(5)
        ]

    def test_out_of_range(self, table):
        with pytest.raises(ValueError):
            clusters_at_level(table, 4)

    def test_monotone_in_level(self, rng):
        x = Table((rng.random((8, 4)) > 0.5).astype(float))
        t = setvalued_table(x)
        for k in range(4):
            lower = clusters_at_level(t, k)
            upper = clusters_at_level(t, k + 1)
            for c in lower:
                assert any(c <= d for d in upper)

    def test_top_level_everything(self, rng):
        x = Table((rng.random((6, 3)) > 0.5).astype(float))
        t = setvalued_table(x)
        assert clusters_at_level(t, 3) == [frozenset(range(6))]


class TestGeneralizedUltrametric:
    def test_bool5_triangle_property(self, table):
        assert oracle_violations(table) == []

    def test_random_boolean_tables(self, rng):
        for _ in range(20):
            x = Table((rng.random((6, 5)) > 0.5).astype(float))
            assert oracle_violations(setvalued_table(x)) == []


def test_consumers_build_no_dist(rng):
    # the lattice and the clusters read the row and column masks only;
    # listing the pairs of a node groups the pairs by distance, but builds
    # no dict of pairs
    t = setvalued_table(Table((rng.random((7, 3)) > 0.4).astype(float)))
    lattice = build_lattice(t)
    for k in range(t.n_attributes + 1):
        clusters_at_level(t, k)
    assert "_pairs_by_distance" not in vars(t)
    for v in lattice.vertices:
        pairs_for_node(t, v)
    assert "_pairs_by_distance" in vars(t)
    assert "dist" not in vars(t)


def test_closure_computed_once_per_mask(rng):
    # NextClosure, the cover test and pairs_for_node ask again for masks
    # already closed: each table computes a mask once and hands back the
    # same tuple, and a second table computes its own
    x = Table((rng.random((150, 6)) < 0.65).astype(float))
    tables = (setvalued_table(x), setvalued_table(x))
    asked, computed = [], []
    closure, close = SetValuedDistanceTable._closure, SetValuedDistanceTable._close

    def ask(self, b):
        asked.append(b)
        return closure(self, b)

    def compute(self, b):
        computed.append((id(self), b))
        return close(self, b)

    with mock.patch.object(SetValuedDistanceTable, "_closure", ask), \
            mock.patch.object(SetValuedDistanceTable, "_close", compute):
        for t in tables:
            for v in build_lattice(t).vertices:
                pairs_for_node(t, v)
            clusters_at_level(t, 3)
    assert len(computed) == len(set(computed))
    assert len(asked) > len(computed)
    first, second = ({b for i, b in computed if i == id(t)} for t in tables)
    assert first == second == set(asked)
    for t in tables:
        assert {b: close(t, b) for b in first} == t._closures


def test_pipeline_memory_is_linear_in_rows():
    # 4.5 million pairs but at most 256 distinct rows: the lattice and
    # the level-4 clusters come from the row and column masks, with no
    # pairs grouped by distance
    x = Table((np.random.default_rng(5).random((3000, 8)) < 0.6).astype(float))
    tracemalloc.start()
    try:
        t = setvalued_table(x)
        build_lattice(t)
        clusters_at_level(t, 4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16e6


# -- oracles on frozensets, by exhaustive search -----------------------------


def _order(s):
    return (len(s), sorted(s))


def oracle_lattice(t):
    """Union closure by repeated pairwise unions; covers by testing every
    vertex for lying strictly between."""
    family = set(t.dist.values())
    while True:
        new = {a | b for a in family for b in family} - family
        if not new:
            break
        family |= new
    vertices = sorted(family, key=_order)
    edges = [
        (lo, hi) for lo in vertices for hi in vertices
        if lo < hi and not any(lo < mid < hi for mid in vertices)
    ]
    return tuple(vertices), tuple(edges)


def oracle_distances(t) -> set:
    """The distinct pair distances, from the distinct rows."""
    full = (1 << t.n_attributes) - 1
    count = Counter(t.rows)
    found = {full & ~a for a, c in count.items() if c > 1}
    found.update(full & ~(a & b) for a, b in combinations(count, 2))
    return found


def oracle_union_closure(masks) -> list:
    """All unions of nonempty subfamilies, in vertex order: adding a
    generator g adds g and f | g for every f already there."""
    family = set()
    for g in masks:
        family |= {g} | {f | g for f in family}
    return sorted(family, key=_mask_key)


def oracle_meet_closure(t) -> list:
    """Vertices as the complements of the meets of two or more rows, in
    vertex order: seen holds the meets of one or more distinct rows met
    so far, meets those of two or more objects (first, shared rows)."""
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


def oracle_cover_edges(order) -> list:
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


def oracle_extent_clusters(t, order, k) -> list:
    """Level clusters from the extent {i : w_i >= ~v} of every vertex v of
    level <= k, one loop over the rows each, dominated sets removed."""
    full = (1 << t.n_attributes) - 1
    clusters = {1 << x for x in range(t.n)}
    for node in order:
        if node.bit_count() <= k:
            need = full & ~node
            clusters.add(to_mask(i for i, w in enumerate(t.rows) if w & need == need))
    keep = []
    for c in sorted(clusters, key=int.bit_count, reverse=True):
        if not any(c & d == c for d in keep):
            keep.append(c)
    return [frozenset(from_mask(c)) for c in sorted(keep, key=_mask_key)]


class OraclePairScan:
    """Pairs of a node by a scan over codes of all n(n-1)/2 pairs; a node
    is a vertex iff it is the union of the observed distances it holds."""

    def __init__(self, t):
        full = (1 << t.n_attributes) - 1
        index = {}  # distinct masks in first-seen order
        self.codes = np.array([index.setdefault(full & ~(a & b), len(index))
                               for a, b in combinations(t.rows, 2)], np.intp)
        self.masks = tuple(index)
        self.i, self.j = np.triu_indices(t.n, 1)  # the order of combinations

    def __call__(self, node) -> list:
        mask = to_mask(node)
        inside = [m for m in self.masks if m & mask == m]
        union = 0
        for m in inside:
            union |= m
        if not inside or union != mask:
            raise KeyError(f"{sorted(node)} is not a lattice vertex")
        hit = np.array([m == mask for m in self.masks], dtype=bool)[self.codes]
        return list(zip(self.i[hit].tolist(), self.j[hit].tolist()))


def oracle_clusters(t, vertices, k):
    """Maximal row sets whose pairs all fit in one vertex of level <= k,
    found among all row subsets."""
    nodes = [v for v in vertices if len(v) <= k]
    linked = set()
    for r in range(1, t.n + 1):
        for rows in combinations(range(t.n), r):
            spread = frozenset().union(*(t[a, b] for a, b in combinations(rows, 2)))
            if r == 1 or any(spread <= v for v in nodes):
                linked.add(frozenset(rows))
    # linked is closed under subsets, so a set is maximal iff no one-row
    # extension is linked
    maximal = [
        s for s in linked
        if not any(s | {x} in linked for x in range(t.n) if x not in s)
    ]
    return sorted(maximal, key=_order)


def _maximal_cliques(adj) -> list:
    """Maximal cliques, as bitmasks, of the graph whose vertex v has the
    neighbour bitmask adj[v]: Bron-Kerbosch with Tomita et al.'s (2006)
    pivot, on an explicit stack so that clique size is not limited by
    recursion depth."""
    cliques = []
    stack = [(0, (1 << len(adj)) - 1, 0)] if len(adj) else []  # (clique, candidates, excluded)
    while stack:
        r, p, x = stack.pop()
        if not p:
            if not x:
                cliques.append(r)
            continue
        pivot = max(from_mask(p | x), key=lambda u: (p & adj[u]).bit_count())
        for v in from_mask(p & ~adj[pivot]):
            stack.append((r | 1 << v, p & adj[v], x & adj[v]))
            p &= ~(1 << v)
            x |= 1 << v
    return cliques


def oracle_clique_clusters(t, vertices, k):
    """The maximal cliques of each maximal node's link graph, dominated
    ones removed: clusters_at_level as a general clique search on the
    pairs.  Also says whether every such graph is one clique plus
    isolated rows, the case in which clusters are extents."""
    eligible = [v for v in vertices if len(v) <= k]
    maximal = [v for v in eligible if not any(v < w for w in eligible)]
    cliques = {1 << x for x in range(t.n)}
    one_clique = True
    for node in maximal:
        adj = np.zeros((t.n, t.n), dtype=bool)
        for (a, b), s in t.dist.items():
            adj[a, b] = adj[b, a] = s <= node
        found = _maximal_cliques(row_masks(adj))
        one_clique &= sum(c.bit_count() > 1 for c in found) <= 1
        cliques.update(found)
    keep = []
    for c in sorted(cliques, key=int.bit_count, reverse=True):
        if not any(c & d == c for d in keep):
            keep.append(c)
    return [frozenset(from_mask(c)) for c in sorted(keep, key=_mask_key)], one_clique


def oracle_violations(t):
    """The triple loop on frozensets."""
    out = []
    for x, y, z in combinations(range(t.n), 3):
        for a, b, c in ((x, z, y), (x, y, z), (y, z, x)):
            if not t[a, b] <= (t[a, c] | t[c, b]):
                out.append((a, c, b))
    return out


def boolean_tables_up_to(n, m):
    return st.integers(1, n).flatmap(
        lambda n: st.integers(1, m).flatmap(
            lambda m: st.lists(
                st.lists(st.booleans(), min_size=m, max_size=m), min_size=n, max_size=n
            )
        )
    )


boolean_tables = boolean_tables_up_to(9, 5)


class TestAgainstOracles:
    @settings(max_examples=100, deadline=None)
    @given(boolean_tables)
    def test_lattice_pairs_clusters(self, rows):
        t = setvalued_table(Table(np.array(rows, dtype=float)))
        vertices, edges = oracle_lattice(t)
        lattice = build_lattice(t)
        assert lattice.vertices == vertices
        assert lattice.edges == edges
        for v in vertices:
            assert pairs_for_node(t, v) == sorted(p for p, s in t.dist.items() if s == v)
        for r in range(t.n_attributes + 1):
            for attrs in combinations(range(t.n_attributes), r):
                if frozenset(attrs) not in vertices:
                    with pytest.raises(KeyError):
                        pairs_for_node(t, attrs)
        for k in range(t.n_attributes + 1):
            assert clusters_at_level(t, k) == oracle_clusters(t, vertices, k)


def assert_union_closure(x):
    t = setvalued_table(Table(np.asarray(x, dtype=float)))
    vertices = [to_mask(v) for v in build_lattice(t).vertices]
    assert vertices == oracle_union_closure(oracle_distances(t))
    assert vertices == oracle_meet_closure(t)
    return vertices


# a duplicated row is the only way a lone row's complement is a vertex
tables_with_a_twice_drawn_row = st.integers(1, 8).flatmap(
    lambda m: st.lists(st.lists(st.booleans(), min_size=m, max_size=m),
                       min_size=1, max_size=39)
).flatmap(lambda rows: st.integers(0, len(rows) - 1).map(lambda k: rows + [rows[k]]))


@settings(max_examples=100, deadline=None)
@given(tables_with_a_twice_drawn_row)
def test_meet_closure_equals_union_closure(rows):
    assert_union_closure(rows)


@pytest.mark.parametrize("x, count", [
    (np.random.default_rng(1).random((400, 10)) < 0.6, 1013),
    (np.ones((1, 4)), 0),
    (np.array([[1, 0, 1], [0, 1, 1]]), 1),
    (np.ones((5, 4)), 1),
    (np.zeros((5, 4)), 1),
])
def test_meet_closure_pinned(x, count):
    assert len(assert_union_closure(x)) == count


def _with_row_twice(x):
    return np.vstack([x, x[:1]])


# tables too large for the exhaustive frozenset oracles
@pytest.mark.parametrize("x", [
    np.random.default_rng(3).random((300, 10)) < 0.3,
    np.random.default_rng(4).random((300, 10)) < 0.5,
    np.random.default_rng(5).random((300, 10)) < 0.7,
    _with_row_twice(np.random.default_rng(6).random((299, 10)) < 0.6),
    _with_row_twice(np.random.default_rng(7).random((40, 12)) < 0.5),
])
def test_closure_equals_mask_oracles(x):
    t = setvalued_table(Table(x.astype(float)))
    order = oracle_meet_closure(t)
    lattice = build_lattice(t)
    assert [to_mask(v) for v in lattice.vertices] == order
    assert [(to_mask(lo), to_mask(hi)) for lo, hi in lattice.edges] == oracle_cover_edges(order)
    for k in range(t.n_attributes + 1):
        assert clusters_at_level(t, k) == oracle_extent_clusters(t, order, k)
    scan = OraclePairScan(t)
    for v in lattice.vertices:
        assert pairs_for_node(t, v) == scan(v)
    # nodes that may be no vertex: the empty set, one attribute off a
    # vertex, and one with an attribute outside the table
    others = [frozenset()] + [node for v in lattice.vertices[::7]
                              for node in (v ^ {0}, v | {t.n_attributes})]
    for node in others:
        if node not in lattice:
            with pytest.raises(KeyError):
                scan(node)
            with pytest.raises(KeyError):
                pairs_for_node(t, node)


@settings(max_examples=100, deadline=None)
@given(boolean_tables_up_to(60, 7))
def test_clusters_equal_clique_search(rows):
    t = setvalued_table(Table(np.array(rows, dtype=float)))
    vertices, edges = oracle_lattice(t)
    lattice = build_lattice(t)
    assert lattice.vertices == vertices
    assert lattice.edges == edges
    for k in range(t.n_attributes + 1):
        want, one_clique = oracle_clique_clusters(t, vertices, k)
        assert one_clique
        assert clusters_at_level(t, k) == want


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 9).flatmap(
    lambda n: st.sets(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))).map(
        lambda edges: (n, edges))))
def test_maximal_cliques_exhaustive(graph):
    n, edges = graph
    adj = [0] * n
    for a, b in edges:
        if a != b:
            adj[a] |= 1 << b
            adj[b] |= 1 << a
    cliques = [
        c for c in range(1, 1 << n)
        if all(c & ~(adj[v] | 1 << v) == 0 for v in range(n) if c >> v & 1)
    ]
    maximal = [c for c in cliques if not any(c != d and c & d == c for d in cliques)]
    found = _maximal_cliques(adj)
    assert sorted(found) == sorted(maximal)


def test_clique_deeper_than_recursion_limit():
    t = setvalued_table(Table(np.ones((1100, 2))))
    assert clusters_at_level(t, 0) == [frozenset(range(1100))]
