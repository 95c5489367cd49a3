"""mst_cluster against the NN-chain driver, and the verify_ultrametric
certificate against the triple pass it skips.

On untied data single linkage has one tree, so mst_cluster must build
NN-chain's bit for bit.  On tied data the trees can differ, but the
partition at every level cannot.  verify_ultrametric must list exactly
what the untouched triple pass (_violations) lists, whether or not the
subdominant certificate lets it skip that pass.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from umtree import (
    DistanceMatrix,
    cophenetic_matrix,
    dendrogram,
    euclidean_matrix,
    linkage,
    mst_cluster,
    nn_chain_cluster,
    verify_ultrametric,
)
from umtree.cli import main
from umtree.dendrogram import _as_matrix, _violations

from conftest import random_dendrogram

GRID_SCALES = (1.0, 0.1, 0.3)
TOLS = (0.0, 1e-9, 0.5, -1e-9)


def partitions(dend):
    """{level: the partition of the terminals into clusters at that level}."""
    members = [frozenset([t]) for t in range(dend.n_terminals)]
    live = set(members)
    out = {}
    for a, b, level in dend.merges:  # levels never decrease
        live -= {members[a], members[b]}
        members.append(members[a] | members[b])
        live.add(members[-1])
        out[level] = frozenset(live)
    return out


@st.composite
def untied(draw):
    n, m = draw(st.integers(2, 60)), draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return rng.normal(size=(n, m)) * 10.0 ** draw(st.integers(-3, 3))


@st.composite
def grids(draw):
    """Values in {0, 1, 2} times a scale, where many distances tie."""
    n, m = draw(st.integers(2, 40)), draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return draw(st.sampled_from(GRID_SCALES)) * rng.integers(0, 3, size=(n, m))


# -- mst_cluster --------------------------------------------------------------


@settings(max_examples=200, deadline=None)
@given(untied())
def test_mst_equals_nn_chain_untied(x):
    m = euclidean_matrix(x)
    dend = mst_cluster(m)
    assert dend.to_json() == nn_chain_cluster(m, "single").to_json()
    assert dend.raw_levels is None


def assert_same_partitions(m):
    dend, chain = mst_cluster(m), nn_chain_cluster(m, "single")
    assert [lev for *_, lev in dend.merges] == [lev for *_, lev in chain.merges]
    assert partitions(dend) == partitions(chain)
    return dend


@settings(max_examples=200, deadline=None)
@given(grids())
def test_mst_partitions_equal_nn_chain_tied(x):
    assert_same_partitions(euclidean_matrix(x))


def test_all_rows_duplicate():
    dend = assert_same_partitions(euclidean_matrix(np.ones((9, 2))))
    assert all(level == 0.0 for *_, level in dend.merges)


def test_readme_five_points():
    x = np.array([[2, 0], [2, 1], [0, 2], [2, 2], [0, 2]], dtype=float)
    assert_same_partitions(euclidean_matrix(x))


def test_tie_rule_prim_order():
    # Prim adds 3 (at 0), then 1 (at 1, from 0) and 2 (at 1, from 1);
    # equal edges merge in Prim order, so 1 joins {0, 3} before 2 joins.
    # The chain from 1 steps to the smaller of its equally near
    # neighbours, 2, and merges that pair first.
    m = euclidean_matrix(np.array([[2.0], [1.0], [0.0], [2.0]]))
    assert mst_cluster(m).merges == ((0, 3, 0.0), (1, 4, 1.0), (2, 5, 1.0))
    assert nn_chain_cluster(m, "single").merges == ((0, 3, 0.0), (1, 2, 1.0), (4, 5, 1.0))


def test_two_points():
    assert mst_cluster(np.array([[0.0, 2.5], [2.5, 0.0]])).merges == ((0, 1, 2.5),)


def test_labels():
    m = euclidean_matrix(np.array([[0.0], [5.0], [1.0]]))
    dend = mst_cluster(m, labels=["a", "b", "c"])
    assert dend.labels == ("a", "b", "c")
    assert dend.merges == ((0, 2, 1.0), (1, 3, 4.0))


def test_rejects_one_point():
    with pytest.raises(ValueError, match="at least 2"):
        mst_cluster(np.zeros((1, 1)))


E = 1e-10
NEAR_SYMMETRIC = [
    np.array([[0, 1, 1 + E], [1 + 2 * E, 0, 1 - E], [1 - 2 * E, 1, 0]]),
    np.ones((4, 4)) - np.eye(4) + E * np.array(
        [[0, 1, -1, -2], [-2, 0, -2, 0], [2, 2, 0, -2], [0, 2, 1, 0]]
    ),
]


@pytest.mark.parametrize("d", NEAR_SYMMETRIC, ids=["cycle", "twice"])
def test_near_symmetric_as_symmetrised(d):
    sym = DistanceMatrix(np.minimum(d, d.T))
    assert mst_cluster(d).to_json() == mst_cluster(sym).to_json()
    assert partitions(mst_cluster(d)) == partitions(nn_chain_cluster(sym, "single"))


def test_cli_single_runs_mst(tmp_path):
    # single linkage needs no chain: the cluster command must not call it
    csv = tmp_path / "x.csv"
    csv.write_text("a,b\n0,0\n1,0\n0,3\n4,4\n")
    out = tmp_path / "tree.json"
    with mock.patch.object(linkage, "nn_chain_cluster", side_effect=AssertionError):
        assert main(["cluster", "--input", str(csv), "--criterion", "single",
                     "--out", str(out)]) == 0
    m = euclidean_matrix(np.array([[0, 0], [1, 0], [0, 3], [4, 4]], float))
    assert out.read_text().strip() == nn_chain_cluster(m, "single").to_json()


# -- the subdominant ultrametric and the certificate --------------------------


@settings(max_examples=100, deadline=None)
@given(st.one_of(untied(), grids()))
def test_single_link_cophenetic_is_below(x):
    # the certificate's premise: the subdominant ultrametric lies below d
    m = euclidean_matrix(x)
    assert (cophenetic_matrix(mst_cluster(m)).values <= m.values).all()


@st.composite
def tree_ultrametrics(draw):
    """The cophenetic matrix of a random tree, maybe with one entry moved."""
    n = draw(st.integers(1, 16))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    d = cophenetic_matrix(random_dendrogram(rng, n)).values.copy()
    if n >= 2 and draw(st.booleans()):
        i, j = rng.choice(n, size=2, replace=False)
        d[i, j] = d[j, i] = max(0.0, d[i, j] + draw(st.sampled_from([-1.0, -1e-12, 1e-12, 0.7])))
    return d


@settings(max_examples=300, deadline=None)
@given(tree_ultrametrics(), st.sampled_from(TOLS))
def test_verify_equals_triple_pass(d, tol):
    assert verify_ultrametric(d, tol) == _violations(d, tol, ultra=True)


@settings(max_examples=100, deadline=None)
@given(st.one_of(untied(), grids()), st.sampled_from(TOLS))
def test_verify_equals_triple_pass_on_points(x, tol):
    m = euclidean_matrix(x)
    assert verify_ultrametric(m, tol) == _violations(m.values, tol, ultra=True)


@pytest.mark.parametrize("tol", TOLS)
@pytest.mark.parametrize("d", NEAR_SYMMETRIC, ids=["cycle", "twice"])
def test_verify_near_symmetric(d, tol):
    assert verify_ultrametric(d, tol) == _violations(_as_matrix(d), tol, ultra=True)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_verify_small(n, rng):
    d = cophenetic_matrix(random_dendrogram(rng, n)).values
    for tol in TOLS:
        found = verify_ultrametric(d, tol)
        assert found == _violations(d, tol, ultra=True)
        assert len(found) == (n == 3 and tol < 0)  # a tie has slack 0 > tol


def test_certificate_skips_triple_pass(rng):
    d = cophenetic_matrix(random_dendrogram(rng, 30))
    with mock.patch.object(dendrogram, "_violations", side_effect=AssertionError):
        assert verify_ultrametric(d) == []
        assert verify_ultrametric(d, 1e-9) == []


def test_negative_tol_runs_triple_pass(rng):
    # d - s is 0 on a tree's own distances, so only the pass can answer tol < 0
    d = cophenetic_matrix(random_dendrogram(rng, 6))
    assert len(verify_ultrametric(d, -1.0)) == 20  # every triple of 6
