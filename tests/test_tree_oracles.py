"""The tree layers against the per-terminal and triple-loop code they
replaced, kept here as oracles.

Every comparison is exact: the one-pass layers must give the same floats,
integers and lists as walking each terminal's root path or enumerating
every triple.
"""

from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from umtree import (
    Dendrogram,
    DistanceMatrix,
    approximation_chain,
    canonicalize,
    check_uniqueness,
    cophenetic_distance,
    cophenetic_matrix,
    decimal_values,
    encode,
    encode_all,
    forward,
    inverse,
    threshold_regress,
    verify_metric,
    verify_ultrametric,
)
from umtree.dendrogram import _BLOCK
from umtree.padic import dilation_cluster_map

from conftest import random_dendrogram


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
        row += tree.sign(node, t) * ht.details[node - tree.n + 1]
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
        partial = partial + tree.sign(node, t) * ht.details[node - tree.n + 1]
        chain.append((partial.copy(), float(np.linalg.norm(partial - target))))
    return chain


def oracle_threshold_regress(ht, tau):
    return {
        r: np.zeros_like(d) if np.linalg.norm(d) < tau else d for r, d in ht.details.items()
    }


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


@settings(max_examples=60, deadline=None)
@given(tree_data())
def test_approximation_chain_equals_per_terminal_walk(case):
    dend, x = case
    ht = forward(dend, x)
    for t in range(dend.n_terminals):
        got, want = approximation_chain(ht, t), oracle_chain(ht, t)
        assert [err for _, err in got] == [err for _, err in want]
        for (a, _), (b, _) in zip(got, want):
            np.testing.assert_array_equal(a, b)


@settings(max_examples=60, deadline=None)
@given(tree_data())
def test_threshold_regress_equals_per_detail_norms(case):
    dend, x = case
    ht = forward(dend, x)
    # a tau at a detail's own norm keeps that detail: the test is norm < tau
    for tau in [0.0, np.inf, *(float(np.linalg.norm(d)) for d in ht.details.values())]:
        got, want = threshold_regress(ht, tau).details, oracle_threshold_regress(ht, tau)
        assert got.keys() == want.keys()
        for r in want:
            np.testing.assert_array_equal(got[r], want[r])


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
    codes = encode_all(dend, p)
    for t in range(dend.n_terminals):
        assert codes[t].as_dict() == oracle_code(tree, t)
        assert encode(dend, p, t) == codes[t]


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
def test_members_canonicalize_and_dilation_map(dend):
    tree = OracleTree(dend)
    for node in range(dend.n_nodes):
        assert dend.members(node) == tree.members[node]
    canon, perm = canonicalize(dend)
    assert perm == oracle_canonical_swaps(dend)
    assert dilation_cluster_map(dend) == oracle_dilation_map(dend)


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
