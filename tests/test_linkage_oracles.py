"""The linkage drivers against the (2n-1)-square drivers they replaced,
kept here as oracles.

The oracles index their matrix by cluster id, so the new drivers' tie
rules on ids must pick the same merges: every dendrogram, raw levels
included, has to be bit-for-bit the oracle's, on tied integer grids as
well as on continuous data.
"""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from umtree import DistanceMatrix, MergeCriterion, euclidean_matrix, naive_cluster, nn_chain_cluster
from umtree.linkage import _coerce, _finish


# -- oracles: the previous implementations ----------------------------------


def _lw_row(d_i, d_j, d_ij, sizes_all, n_i, n_j, crit):
    """Vectorized Lance-Williams update against all other clusters."""
    if crit is MergeCriterion.SINGLE:
        return np.minimum(d_i, d_j)
    if crit is MergeCriterion.COMPLETE:
        return np.maximum(d_i, d_j)
    if crit is MergeCriterion.AVERAGE:
        return (n_i * d_i + n_j * d_j) / (n_i + n_j)
    if crit is MergeCriterion.WARD:
        tot = n_i + n_j + sizes_all
        return ((n_i + sizes_all) * d_i + (n_j + sizes_all) * d_j - sizes_all * d_ij) / tot
    row = 0.5 * d_i + 0.5 * d_j - 0.25 * d_ij
    if (row < 0).any():
        warnings.warn("median update went negative (non-Euclidean input); clamped")
        np.maximum(row, 0.0, out=row)
    return row


def _prepare(m, crit):
    d = m.values if isinstance(m, DistanceMatrix) else DistanceMatrix(np.asarray(m, float)).values
    n = d.shape[0]
    if n < 2:
        raise ValueError("need at least 2 observations")
    d = d.copy()
    if crit.squared:
        d = d**2
    return d, n


def oracle_naive_cluster(m, crit, labels=None):
    """O(n^3) oracle: merge the globally closest pair, n-1 times."""
    crit = _coerce(crit)
    d, n = _prepare(m, crit)
    big = np.full((2 * n - 1, 2 * n - 1), np.inf)
    big[:n, :n] = d
    np.fill_diagonal(big, np.inf)
    active = np.zeros(2 * n - 1, dtype=bool)
    active[:n] = True
    sizes = np.ones(2 * n - 1, dtype=int)
    raw = []
    for step in range(n - 1):
        ids = np.flatnonzero(active)
        sub = big[np.ix_(ids, ids)]
        iu = np.triu_indices(len(ids), k=1)
        vals = sub[iu]
        best = vals.min()
        # lexicographically smallest (min id, max id) among ties
        hits = np.flatnonzero(vals == best)
        i_loc, j_loc = iu[0][hits[0]], iu[1][hits[0]]
        a, b = int(ids[i_loc]), int(ids[j_loc])
        new = n + step
        others = ids[(ids != a) & (ids != b)]
        if len(others):
            row = _lw_row(
                big[a, others], big[b, others], best, sizes[others],
                sizes[a], sizes[b], crit,
            )
            big[new, others] = row
            big[others, new] = row
        active[a] = active[b] = False
        active[new] = True
        sizes[new] = sizes[a] + sizes[b]
        raw.append((a, b, float(best)))
    return _finish(n, raw, crit, labels, reorder=False)


def oracle_nn_chain_cluster(m, crit, labels=None):
    """O(n^2) reciprocal-nearest-neighbor chain clustering."""
    crit = _coerce(crit)
    if not crit.reducible:
        raise ValueError(
            f"criterion {crit.value!r} is not reducible; use naive_cluster"
        )
    d, n = _prepare(m, crit)
    big = np.full((2 * n - 1, 2 * n - 1), np.inf)
    big[:n, :n] = d
    np.fill_diagonal(big, np.inf)
    active = np.zeros(2 * n - 1, dtype=bool)
    active[:n] = True
    sizes = np.ones(2 * n - 1, dtype=int)
    raw = []
    chain = []
    next_id = n
    while len(raw) < n - 1:
        if not chain:
            chain.append(int(np.flatnonzero(active)[0]))
        x = chain[-1]
        row = np.where(active, big[x], np.inf)
        row[x] = np.inf
        y = int(np.argmin(row))  # first occurrence = smallest id on ties
        if len(chain) >= 2 and y == chain[-2]:
            chain.pop()
            chain.pop()
            a, b = min(x, y), max(x, y)
            cost = float(big[a, b])
            others = np.flatnonzero(active)
            others = others[(others != a) & (others != b)]
            if len(others):
                upd = _lw_row(
                    big[a, others], big[b, others], cost, sizes[others],
                    sizes[a], sizes[b], crit,
                )
                big[next_id, others] = upd
                big[others, next_id] = upd
            active[a] = active[b] = False
            active[next_id] = True
            sizes[next_id] = sizes[a] + sizes[b]
            raw.append((a, b, cost))
            next_id += 1
        else:
            chain.append(y)
    return _finish(n, raw, crit, labels, reorder=True)


# -- strategies -------------------------------------------------------------


@st.composite
def tables(draw):
    """Integer grids with values in {0, 1, 2}, where many pairs and many
    candidate merges tie, and continuous normal data."""
    n = draw(st.integers(2, 40))
    m = draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        return rng.integers(0, 3, size=(n, m)).astype(float)
    return rng.normal(size=(n, m))


# -- properties -------------------------------------------------------------


def assert_same(dend, expected):
    assert dend.to_json() == expected.to_json()
    assert dend.raw_levels == expected.raw_levels


@pytest.mark.filterwarnings("ignore:median update went negative")
@settings(max_examples=200, deadline=None)
@given(tables())
def test_drivers_equal_oracles(x):
    m = euclidean_matrix(x)
    for crit in MergeCriterion:
        assert_same(naive_cluster(m, crit), oracle_naive_cluster(m, crit))
        if crit.reducible:
            assert_same(nn_chain_cluster(m, crit), oracle_nn_chain_cluster(m, crit))


@st.composite
def large_tables(draw):
    """The same two kinds of data as tables(), up to 200 rows."""
    n = draw(st.integers(2, 200))
    m = draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        return rng.integers(0, 3, size=(n, m)).astype(float)
    return rng.normal(size=(n, m))


@pytest.mark.filterwarnings("ignore:median update went negative")
@settings(max_examples=30, deadline=None)
@given(large_tables())
def test_naive_equals_oracle_large(x):
    m = euclidean_matrix(x)
    for crit in ("median", "complete"):
        assert_same(naive_cluster(m, crit), oracle_naive_cluster(m, crit))


# -- pinned paths of the cached-neighbour loop -------------------------------


@pytest.mark.parametrize("crit", list(MergeCriterion), ids=lambda c: c.value)
def test_cached_neighbour_retired(crit):
    # row 2's nearest neighbour is terminal 1, retired by the first merge
    m = euclidean_matrix(np.array([[0.0], [1.0], [2.1], [5.0]]))
    assert_same(naive_cluster(m, crit), oracle_naive_cluster(m, crit))


def test_median_row_below_cached_minimum():
    # 0 and 1 merge at 16; the new centroid is at 14 from rows 2 and 3.
    # Row 2's cached neighbour is row 4 (sqrt 257), so only the new row
    # being strictly closer can bring it back to the minimum, where it is
    # the smaller id of the tied pairs (2, 5) and (3, 5); row 3 pointed
    # at a child and is rescanned.
    x = np.array([[0, 0], [16, 0], [8, 14], [8, -14], [24, 15]], float)
    m = euclidean_matrix(x)
    dend = naive_cluster(m, "median")
    assert_same(dend, oracle_naive_cluster(m, "median"))
    assert dend.merges[1][:2] == (2, 5)
    assert dend.raw_levels[1] < dend.raw_levels[0] == 16.0  # an inversion, repaired


@pytest.mark.parametrize("crit", list(MergeCriterion), ids=lambda c: c.value)
def test_all_rows_duplicate(crit):
    m = euclidean_matrix(np.ones((9, 2)))
    dend = naive_cluster(m, crit)
    assert_same(dend, oracle_naive_cluster(m, crit))
    assert all(level == 0.0 for _, _, level in dend.merges)
