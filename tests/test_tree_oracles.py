"""The tree layers against the per-terminal and triple-loop code they
replaced, kept here as oracles.

Every comparison is exact: the one-pass layers must give the same floats,
integers and lists as walking each terminal's root path or enumerating
every triple.
"""

from itertools import combinations

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from umtree import (
    Dendrogram,
    DistanceMatrix,
    approximation_chain,
    canonicalize,
    check_spherical_completeness,
    check_uniqueness,
    cophenetic_distance,
    cophenetic_matrix,
    decimal_values,
    encode,
    forward,
    inverse,
    reconstruct_one,
    threshold_regress,
    verify_metric,
    verify_ultrametric,
)
from umtree import padic
from umtree.dendrogram import _BLOCK
from umtree.haar import _node_rows
from umtree.padic import dilation_cluster_map

from conftest import caterpillar, random_dendrogram


# -- oracles: the previous implementations, on plain dicts and frozensets --


class OracleTree:
    """Parent map and member frozensets built straight from the merges."""

    def __init__(self, dend):
        self.n = n = dend.n_terminals
        self.merges = dend.merges
        self.parent = {}
        self.members = [frozenset([i]) for i in range(n)]
        for node, (a, b, _) in enumerate(dend.merges, start=n):
            self.parent[a] = self.parent[b] = node
            self.members.append(self.members[a] | self.members[b])

    def path_to_root(self, t):
        path = []
        while t in self.parent:
            t = self.parent[t]
            path.append(t)
        return path

    def sign(self, node, t):
        a, b, _ = self.merges[node - self.n]
        if t in self.members[a]:
            return +1
        if t in self.members[b]:
            return -1
        raise ValueError


def oracle_reconstruct_one(ht, tree, t):
    row = ht.smooth.copy()
    for node in reversed(tree.path_to_root(t)):
        row += tree.sign(node, t) * ht.details[node - tree.n]
    return row


def oracle_inverse(ht):
    tree = OracleTree(ht.dend)
    return np.vstack([oracle_reconstruct_one(ht, tree, t) for t in range(tree.n)])


def oracle_chain(ht, t):
    tree = OracleTree(ht.dend)
    target = oracle_reconstruct_one(ht, tree, t)
    partial = ht.smooth.copy()
    chain = [(partial.copy(), float(np.linalg.norm(partial - target)))]
    for node in reversed(tree.path_to_root(t)):
        partial = partial + tree.sign(node, t) * ht.details[node - tree.n]
        chain.append((partial.copy(), float(np.linalg.norm(partial - target))))
    return chain


def oracle_forward(dend, x):
    """Smooth and {rank: detail} from smooths kept in a dict by node."""
    smooths = {t: x[t] for t in range(dend.n_terminals)}
    details = {}
    for r, (a, b, _) in enumerate(dend.merges, start=1):
        s = 0.5 * (smooths[a] + smooths[b])
        details[r] = s - smooths[b]
        smooths[dend.n_terminals - 1 + r] = s
    return smooths[dend.root], details


def oracle_forward_per_merge(dend, x):
    """forward's smooth and details, the smooths made one merge at a time."""
    n = dend.n_terminals
    smooths = np.empty((dend.n_nodes, x.shape[1]))
    smooths[:n] = x
    for node, (a, b, _) in enumerate(dend.merges, start=n):
        smooths[node] = 0.5 * (smooths[a] + smooths[b])
    right = [b for _, b, _ in dend.merges]
    return smooths[dend.root].copy(), smooths[n:] - smooths[right]


def oracle_node_rows_per_merge(ht):
    """_node_rows one merge at a time, from the root down."""
    dend, n = ht.dend, ht.dend.n_terminals
    rows = np.empty((dend.n_nodes, ht.m))
    rows[dend.root] = ht.smooth
    for node in range(dend.root, n - 1, -1):
        a, b = dend.children(node)
        d = ht.details[node - n]
        rows[a] = rows[node] + d
        rows[b] = rows[node] - d
    return rows


def oracle_threshold_regress(ht, tau):
    rows = [np.zeros_like(d) if np.linalg.norm(d) < tau else d for d in ht.details]
    return np.array(rows).reshape(ht.details.shape)


def oracle_threshold_entries(ht, tau):
    return np.array([np.where(np.abs(d) < tau, 0.0, d) for d in ht.details]).reshape(ht.details.shape)


def oracle_code(tree, t):
    coeffs = {}
    node = t
    for parent in tree.path_to_root(t):
        a = tree.merges[parent - tree.n][0]
        coeffs[parent - tree.n + 1] = +1 if node == a else -1
        node = parent
    return coeffs


def oracle_decimals(dend, p):
    tree = OracleTree(dend)
    return [
        sum(c * p**j for j, c in oracle_code(tree, t).items()) for t in range(tree.n)
    ]


def oracle_spherical_completeness(dend):
    """Every root-to-terminal chain of member sets, walked top-down, is
    strictly descending and has a nonempty intersection."""
    tree = OracleTree(dend)
    for t in range(tree.n):
        chain = [tree.members[node] for node in reversed(tree.path_to_root(t))] + [frozenset([t])]
        common = chain[0]
        for q in chain[1:]:
            if not q < common:
                return False
            common = common & q
        if not common:
            return False
    return True


def oracle_violations(d, tol, ultra):
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


def oracle_cophenetic(dend):
    tree = OracleTree(dend)
    d = np.zeros((tree.n, tree.n))
    for a, b, lev in dend.merges:
        left, right = list(tree.members[a]), list(tree.members[b])
        d[np.ix_(left, right)] = lev
        d[np.ix_(right, left)] = lev
    return d


def oracle_canonical_swaps(dend):
    tree = OracleTree(dend)
    return {
        node: min(tree.members[a]) > min(tree.members[b])
        for node, (a, b, _) in enumerate(dend.merges, start=tree.n)
    }


def oracle_dilation_map(dend):
    tree = OracleTree(dend)
    codes = [oracle_code(tree, t) for t in range(tree.n)]
    out = []
    for cut in range(tree.n):
        groups = {}
        for t, code in enumerate(codes):
            key = tuple(sorted((j, c) for j, c in code.items() if j > cut))
            groups.setdefault(key, set()).add(t)
        out.append(sorted(map(frozenset, groups.values()), key=sorted))
    return out


def oracle_newick(dend):
    """The recursive renderer; needs n >= 2 and a stack as deep as the tree."""

    def render(node: int, parent_level: float) -> str:
        length = parent_level - dend.level(node)
        if dend.is_terminal(node):
            name = dend.labels[node] if dend.labels else str(node)
            return f"{name}:{length:g}"
        a, b = dend.children(node)
        lev = dend.level(node)
        return f"({render(a, lev)},{render(b, lev)}):{length:g}"

    root = dend.root
    a, b = dend.children(root)
    lev = dend.level(root)
    return f"({render(a, lev)},{render(b, lev)});"


def oracle_validate(n, merges, labels=None):
    """The earlier two-loop tree check: convert every merge with int() and
    float(), then check the converted copy.  Returns the copy."""
    if n < 1:
        raise ValueError("need at least one terminal")
    converted = []
    for r, m in enumerate(merges, start=1):
        try:
            a, b, lev = m
            converted.append((int(a), int(b), float(lev)))
        except (TypeError, ValueError):
            raise ValueError(f"merge {r} is {m!r}, expected [a, b, level]") from None
    if len(converted) != n - 1:
        raise ValueError(f"expected {n - 1} merges, got {len(converted)}")
    if labels is not None:
        if len(labels) != n:
            raise ValueError("labels must match n_terminals")
        first = {}
        for t, label in enumerate(labels):
            try:
                seen_at = first.setdefault(label, t)
            except TypeError:
                raise ValueError(f"label {label!r} is not hashable") from None
            if seen_at != t:
                raise ValueError(f"label {label!r} repeated (terminals {seen_at} and {t})")
    seen = set()
    for r, (a, b, lev) in enumerate(converted, start=1):
        node = n - 1 + r
        for c in (a, b):
            if not (0 <= c < node):
                raise ValueError(f"merge {r}: child id {c} out of range")
            if c in seen:
                raise ValueError(f"child {c} used twice")
            seen.add(c)
        if not 0 <= lev < np.inf:
            raise ValueError(f"merge {r}: level {lev} is not finite and nonnegative")
        for c in (a, b):
            if c >= n and converted[c - n][2] > lev:
                raise ValueError(f"merge {r}: level below child's (use monotone repair)")
    return tuple(converted)


def oracle_layout(dend):
    """The earlier Dendrogram.layout: max() for the height, and the
    top-down pass reading each node's children with dend.children."""
    n = dend.n_terminals
    size = [1] * n
    height = [0] * n
    parent = [-1] * dend.n_nodes
    for node, (a, b, _) in enumerate(dend.merges, start=n):
        size.append(size[a] + size[b])
        height.append(1 + max(height[a], height[b]))
        parent[a] = parent[b] = node
    lo = [0] * dend.n_nodes
    for node in range(dend.root, n - 1, -1):  # parents before children
        a, b = dend.children(node)
        lo[a] = lo[node]
        lo[b] = lo[node] + size[a]
    lo = np.array(lo)
    order = np.empty(n, dtype=int)
    order[lo[:n]] = np.arange(n)
    return order, lo, lo + np.array(size), np.array(parent), np.array(height)


def oracle_strict_levels(dend):
    """The earlier check_strict_levels: a rule for internal children, and
    a separate positive-level rule for every internal node."""
    for node in range(dend.n_terminals, dend.n_nodes):
        for c in dend.children(node):
            if c >= dend.n_terminals and not dend.level(c) < dend.level(node):
                return False
        if dend.level(node) <= 0:
            return False
    return True


# -- strategies -------------------------------------------------------------


@st.composite
def dendrograms(draw, max_n=24):
    """Random, caterpillar (fully chained) and balanced-ish trees; level
    steps of 0 give tied levels, and either child may be listed first."""
    n = draw(st.integers(1, max_n))
    shape = draw(st.sampled_from(["random", "caterpillar"]))
    terminals = draw(st.permutations(range(n)))
    roots = list(terminals)
    level = 0.0
    merges = []
    for node in range(n, 2 * n - 1):
        if shape == "caterpillar":
            i, j = 0, 1  # the growing chain is always roots[0]
        else:
            i = draw(st.integers(0, len(roots) - 1))
            j = draw(st.integers(0, len(roots) - 2))
            j += j >= i
        a, b = roots[i], roots[j]
        level += draw(st.sampled_from([0.0, 0.0, 0.5, 1.0, 2.75]))
        merges.append((a, b, level))
        roots = [node] + [x for x in roots if x not in (a, b)]
    return Dendrogram(n, tuple(merges))


@st.composite
def tree_data(draw):
    dend = draw(dendrograms())
    m = draw(st.integers(1, 4))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    kind = draw(st.sampled_from(["normal", "wide", "integer"]))
    if kind == "normal":
        x = rng.normal(size=(dend.n_terminals, m))
    elif kind == "wide":
        x = rng.normal(size=(dend.n_terminals, m)) * 10.0 ** rng.integers(-8, 9, size=m)
    else:
        x = rng.integers(-3, 4, size=(dend.n_terminals, m)).astype(float)
    return dend, x


@st.composite
def overflowing_tree_data(draw):
    """tree_data, or rows of +-1e308 (some or all) whose smooths overflow
    to +-inf and whose details and node rows then hold inf and NaN."""
    dend, x = draw(tree_data())
    kind = draw(st.sampled_from(["finite", "huge", "mixed"]))
    if kind != "finite":
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        huge = rng.choice([1e308, -1e308], size=x.shape)
        x = huge if kind == "huge" else np.where(rng.random(x.shape) < 0.5, huge, x)
    return dend, x


FAULTS = ["none", "shape", "count", "range", "reuse", "level", "monotone", "labels"]


@st.composite
def one_fault_trees(draw):
    """(fault, n, merges, labels): a tree from dendrograms() with at most
    one fault, none of them a wrong type.  Its levels never fall with
    rank, so a reused or out-of-range child breaks no level rule.  Ids
    may be numpy integers and integral levels ints."""
    dend = draw(dendrograms())
    n = dend.n_terminals
    merges = [list(m) for m in dend.merges]
    if draw(st.booleans()):
        for m in merges:
            m[0], m[1] = np.int64(m[0]), np.int32(m[1])
            m[2] = int(m[2]) if m[2] == int(m[2]) else np.float64(m[2])
    labels = None
    fault = draw(st.sampled_from(FAULTS))
    assume(merges or fault in ("none", "count", "labels"))
    r = draw(st.integers(0, len(merges) - 1)) if merges else 0
    if fault == "shape":
        merges[r] = draw(st.sampled_from([merges[r][:2], merges[r] + [0.0], 5, None, "ab"]))
    elif fault == "count":
        if n > 1 and draw(st.booleans()):
            merges.pop()
        else:
            merges.append([0, 1, 1.0])
    elif fault == "range":
        merges[r][draw(st.integers(0, 1))] = draw(st.sampled_from([-1, n + r, n + r + 1, 2 * n]))
    elif fault == "reuse":
        used = [c for m in merges[:r] for c in m[:2]]
        merges[r][1] = draw(st.sampled_from(used + [merges[r][0]]))
    elif fault == "level":
        merges[r][2] = draw(st.sampled_from([np.nan, np.inf, -np.inf, -1.0, -5e-324]))
    elif fault == "monotone":
        below = [k for k, m in enumerate(merges)
                 if any(c >= n and merges[c - n][2] > 0 for c in m[:2])]
        assume(below)
        r = draw(st.sampled_from(below))
        top = max(merges[c - n][2] for c in merges[r][:2] if c >= n)
        merges[r][2] = draw(st.sampled_from([0.0, top / 2, float(np.nextafter(top, 0))]))
    elif fault == "labels":
        labels = [f"x{t}" for t in range(n)]
        kind = draw(st.sampled_from(["short", "repeated", "unhashable"]))
        if kind == "short":
            labels.pop()
        elif kind == "repeated":
            assume(n > 1)
            labels[draw(st.integers(1, n - 1))] = labels[0]
        else:
            labels[draw(st.integers(0, n - 1))] = ["x"]
        labels = tuple(labels)
    return fault, n, merges, labels


SIDES = [0.0, 0.5, 1.0, 1.5, 2.0, 3.0, 7.25, 0.1, 0.2, 0.30000000000000004]


@st.composite
def matrices(draw):
    """Symmetric matrices with many tied sides and many violations; some
    lower triangles carry a tiny asymmetry the verifiers must not read."""
    n = draw(st.integers(0, 12))
    upper = draw(st.lists(
        st.one_of(st.sampled_from(SIDES), st.floats(0.0, 10.0)),
        min_size=n * (n - 1) // 2, max_size=n * (n - 1) // 2,
    ))
    d = np.zeros((n, n))
    d[np.triu_indices(n, 1)] = upper
    d = d + d.T
    if draw(st.booleans()):
        d[np.tril_indices(n, -1)] *= 1 + 1e-12
    return DistanceMatrix(d)


TOLS = st.sampled_from([0.0, 0.0, 1e-9, 0.3, 1.0, 2.5])


# -- tests ------------------------------------------------------------------


@settings(max_examples=150, deadline=None)
@given(tree_data())
def test_inverse_equals_per_terminal_sums(case):
    dend, x = case
    ht = forward(dend, x)
    np.testing.assert_array_equal(inverse(ht), oracle_inverse(ht))


def assert_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    assert a.shape == b.shape and a.tobytes() == b.tobytes()


SMALL_TREES = [
    (Dendrogram(1, ()), np.array([[1.5, -2.0]])),
    (Dendrogram(2, ((1, 0, 0.5),)), np.array([[1.0, 3.0, 0.1], [5.0, 1.0, 0.7]])),
]


@settings(max_examples=150, deadline=None)
@given(tree_data())
@example(SMALL_TREES[0])
@example(SMALL_TREES[1])
def test_forward_equals_dict_of_details(case):
    dend, x = case
    ht = forward(dend, x)
    smooth, details = oracle_forward(dend, x)
    assert_bits(ht.smooth, smooth)
    assert ht.details.shape == (dend.n_terminals - 1, x.shape[1])
    for r in details:
        assert_bits(ht.details[r - 1], details[r])


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # overflowed smooths
@settings(max_examples=150, deadline=None)
@given(overflowing_tree_data())
@example(SMALL_TREES[0])
@example(SMALL_TREES[1])
@example((caterpillar(200, True), np.random.default_rng(199).normal(size=(200, 3))))
@example((caterpillar(200, False), np.full((200, 2), 1e308)))
def test_passes_by_height_equal_per_merge_steps(case):
    """forward and _node_rows take one numpy step per height, the oracles
    one per merge; the arrays must hold the same bytes, NaN and inf too."""
    dend, x = case
    ht = forward(dend, x)
    smooth, details = oracle_forward_per_merge(dend, x)
    assert_bits(ht.smooth, smooth)
    assert_bits(ht.details, details)
    assert_bits(_node_rows(ht), oracle_node_rows_per_merge(ht))


@settings(max_examples=100, deadline=None)
@given(tree_data())
@example(SMALL_TREES[0])
@example(SMALL_TREES[1])
def test_reconstruct_one_is_chain_end_and_inverse_row(case):
    dend, x = case
    ht = forward(dend, x)
    rows = inverse(ht)
    for t in range(dend.n_terminals):
        row = reconstruct_one(ht, t)
        assert_bits(row, approximation_chain(ht, t)[-1][0])
        assert_bits(row, rows[t])


@settings(max_examples=100, deadline=None)
@given(dendrograms())
def test_layout_height_is_longest_path_down(dend):
    tree = OracleTree(dend)
    height = [0] * dend.n_nodes
    for t in range(dend.n_terminals):
        for up, node in enumerate(tree.path_to_root(t), start=1):
            height[node] = max(height[node], up)
    assert dend.layout.height.tolist() == height


@settings(max_examples=200, deadline=None)
@given(dendrograms())
@example(SMALL_TREES[0][0])
@example(SMALL_TREES[1][0])
@example(caterpillar(200, False))
@example(caterpillar(200, True))
def test_layout_equals_per_node_children_walk(dend):
    for got, want in zip(dend.layout, oracle_layout(dend), strict=True):
        assert got.dtype == want.dtype
        assert_bits(got, want)


@settings(max_examples=100, deadline=None)
@given(dendrograms())
def test_path_to_root_equals_parent_walk(dend):
    tree = OracleTree(dend)
    for t in range(dend.n_terminals):
        path = dend.path_to_root(t)
        assert path == tree.path_to_root(t)
        assert all(type(node) is int for node in path)


@settings(max_examples=60, deadline=None)
@given(tree_data())
@example(SMALL_TREES[0])
@example(SMALL_TREES[1])
def test_approximation_chain_equals_per_terminal_walk(case):
    dend, x = case
    ht = forward(dend, x)
    tree = OracleTree(dend)
    for t in range(dend.n_terminals):
        got, want = approximation_chain(ht, t), oracle_chain(ht, t)
        assert_bits([err for _, err in got], [err for _, err in want])
        for (a, _), (b, _) in zip(got, want, strict=True):
            assert_bits(a, b)
        assert_bits(reconstruct_one(ht, t), oracle_reconstruct_one(ht, tree, t))
    for node in (-1, dend.n_terminals, dend.root + 1):
        with pytest.raises(IndexError):
            approximation_chain(ht, node)
        with pytest.raises(IndexError):
            reconstruct_one(ht, node)


@settings(max_examples=60, deadline=None)
@given(tree_data())
def test_threshold_regress_equals_per_detail_norms(case):
    dend, x = case
    ht = forward(dend, x)
    # a tau at a detail's own norm keeps that detail: the test is norm < tau
    for tau in [0.0, np.inf, *(float(np.linalg.norm(d)) for d in ht.details)]:
        got, want = threshold_regress(ht, tau).details, oracle_threshold_regress(ht, tau)
        assert got.shape == want.shape
        for r in range(1, dend.n_terminals):
            np.testing.assert_array_equal(got[r - 1], want[r - 1])


@settings(max_examples=60, deadline=None)
@given(tree_data())
def test_per_coordinate_threshold_equals_per_detail_where(case):
    dend, x = case
    ht = forward(dend, x)
    # a tau at an entry's own magnitude keeps that entry
    for tau in [0.0, np.inf, *np.abs(ht.details).ravel().tolist()]:
        got = threshold_regress(ht, tau, per_coordinate=True).details
        assert_bits(got, oracle_threshold_entries(ht, tau))


@settings(max_examples=100, deadline=None)
@given(tree_data())
def test_sign_is_membership(case):
    dend, x = case
    ht = forward(dend, x)
    tree = OracleTree(dend)
    for node in range(dend.n_terminals, dend.n_nodes):
        for t in range(dend.n_terminals):
            if t in tree.members[node]:
                assert ht.sign(node, t) == tree.sign(node, t)
            else:
                with pytest.raises(ValueError):
                    ht.sign(node, t)


@settings(max_examples=150, deadline=None)
@given(dendrograms(), st.sampled_from([2, 3, 5]))
def test_decimals_codes_and_uniqueness(dend, p):
    want = oracle_decimals(dend, p)
    assert decimal_values(dend, p) == want
    assert check_uniqueness(dend, p) == (len(set(want)) == len(want))
    tree = OracleTree(dend)
    for t in range(dend.n_terminals):
        assert encode(dend, p, t).as_dict() == oracle_code(tree, t)


@settings(max_examples=150, deadline=None)
@given(dendrograms())
def test_cophenetic_matrix_and_distance(dend):
    want = oracle_cophenetic(dend)
    np.testing.assert_array_equal(cophenetic_matrix(dend).values, want)
    n = dend.n_terminals
    for i in range(n):
        for j in range(n):
            assert cophenetic_distance(dend, i, j) == want[i, j]


def _one_row_last_block():
    # a size at which the permutation's last block of rows is one row
    return next(n for n in range(300, 10000) if (n - 1) % (_BLOCK // n) == 0)


@pytest.mark.parametrize("n", [300, 1000, _one_row_last_block()])
def test_cophenetic_matrix_over_row_blocks(n):
    dend = random_dendrogram(np.random.default_rng(n), n)
    np.testing.assert_array_equal(cophenetic_matrix(dend).values, oracle_cophenetic(dend))


@settings(max_examples=150, deadline=None)
@given(dendrograms())
@example(SMALL_TREES[0][0])
@example(SMALL_TREES[1][0])
@example(caterpillar(100, False))
@example(caterpillar(100, True))
def test_spherical_completeness_equals_member_set_chains(dend):
    assert check_spherical_completeness(dend) == oracle_spherical_completeness(dend)


def test_spherical_completeness_reads_no_member_sets(monkeypatch):
    """The witness is one pass over the layout: on a 3000-terminal
    caterpillar, where the member-set chains are cubic, it builds no
    member set and no cluster chain."""
    def refuse(*args):
        raise AssertionError("member sets built")

    monkeypatch.setattr(Dendrogram, "members", refuse)
    monkeypatch.setattr(padic, "cluster_chain", refuse)
    assert check_spherical_completeness(caterpillar(3000, True))


@settings(max_examples=150, deadline=None)
@given(dendrograms())
def test_members_canonicalize_and_dilation_map(dend):
    tree = OracleTree(dend)
    for node in range(dend.n_nodes):
        assert dend.members(node) == tree.members[node]
    canon, perm = canonicalize(dend)
    assert perm == oracle_canonical_swaps(dend)
    assert dilation_cluster_map(dend) == oracle_dilation_map(dend)


@settings(max_examples=150, deadline=None)
@given(dendrograms(), st.booleans())
def test_newick_equals_recursive_renderer(dend, labelled):
    n = dend.n_terminals
    assume(n >= 2)
    if labelled:
        dend = Dendrogram(n, dend.merges, labels=tuple(f"x{t}" if t % 2 else t / 4 for t in range(n)))
    assert dend.to_newick() == oracle_newick(dend)


@settings(max_examples=300, deadline=None)
@given(matrices(), TOLS)
def test_verifiers_equal_triple_loop(m, tol):
    d = m.values
    assert verify_ultrametric(m, tol) == oracle_violations(d, tol, ultra=True)
    assert verify_metric(m, tol) == oracle_violations(d, tol, ultra=False)


@settings(max_examples=100, deadline=None)
@given(dendrograms(max_n=14), TOLS)
def test_verifiers_on_tree_distances(dend, tol):
    d = cophenetic_matrix(dend)
    assert verify_ultrametric(d, tol) == oracle_violations(d.values, tol, ultra=True) == []
    assert verify_metric(d, tol) == oracle_violations(d.values, tol, ultra=False)


@settings(max_examples=400, deadline=None)
@given(one_fault_trees())
def test_validation_equals_two_loop_check(case):
    fault, n, merges, labels = case
    try:
        want = oracle_validate(n, merges, labels)
    except ValueError as exc:
        assert fault != "none"
        with pytest.raises(ValueError) as got:
            Dendrogram(n, tuple(merges), labels=labels)
        assert str(got.value) == str(exc)
    else:
        assert fault == "none"
        dend = Dendrogram(n, tuple(merges), labels=labels)
        assert dend.merges == want
        assert all(type(a) is type(b) is int and type(lev) is float for a, b, lev in dend.merges)


@settings(max_examples=200, deadline=None)
@given(dendrograms())
def test_strict_levels_equal_per_node_rules(dend):
    assert dend.check_strict_levels() == oracle_strict_levels(dend)


@pytest.mark.parametrize("merges, message", [
    # each child is checked in full, range then reuse, before the next:
    # a reused first child is named ahead of an out-of-range second one
    (((0, 1, 1.0), (0, 9, 2.0)), "child 0 used twice"),
    (((0, 1, 1.0), (9, 0, 2.0)), "merge 2: child id 9 out of range"),
    (((0, 1, 1.0), (2, 2, 2.0)), "child 2 used twice"),
    (((0, 1, 1.0), (1, 3, -1.0)), "child 1 used twice"),
])
def test_validation_names_the_first_fault(merges, message):
    with pytest.raises(ValueError) as want:
        oracle_validate(3, merges)
    with pytest.raises(ValueError) as got:
        Dendrogram(3, merges)
    assert str(got.value) == str(want.value) == message
