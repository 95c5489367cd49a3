import tracemalloc
from collections import Counter
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from umtree import (
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
        with pytest.raises(KeyError):
            pairs_for_node(table, {0})

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
    # the lattice and the clusters read the row masks only; listing the
    # pairs of a node builds the pair codes, but no dict of pairs
    t = setvalued_table(Table((rng.random((7, 3)) > 0.4).astype(float)))
    lattice = build_lattice(t)
    for k in range(t.n_attributes + 1):
        clusters_at_level(t, k)
    assert "_pair_codes" not in vars(t)
    for v in lattice.vertices:
        pairs_for_node(t, v)
    assert "_pair_codes" in vars(t)
    assert "dist" not in vars(t)


def test_pipeline_memory_is_linear_in_rows():
    # 4.5 million pairs but at most 256 distinct rows: the lattice and
    # the level-4 clusters come from the row masks, with no per-pair codes
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
