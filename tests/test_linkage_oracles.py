"""The linkage drivers against the (2n-1)-square drivers they replaced,
and _finish against the two-mode renumbering it replaced, kept here as
oracles.

The oracles index their matrix by cluster id, so the new drivers' tie
rules on ids must pick the same merges: every dendrogram, raw levels
included, has to be bit-for-bit the oracle's, on tied grids as well as
on continuous data.  oracle_finish fails on NN-chain output where
rounding leaves a parent's cost below its child's; everywhere else it
has to build the same dendrogram as _finish.
"""

import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from umtree import Dendrogram, DistanceMatrix, MergeCriterion, euclidean_matrix, linkage
from umtree.linkage import _coerce, _finish

from conftest import ROUNDING_INVERSIONS


# -- oracles: the previous implementations ----------------------------------


def oracle_finish(n, raw_merges, crit, labels=None, reorder=False):
    """Renumber cluster ids and repair level inversions.

    reorder sorts merges by cost first: needed for NN-chain output (it
    merges out of cost order) and safe there because reducibility keeps
    every child's cost at or below its parent's.  The naive driver
    already merges in cost order for reducible criteria, and for median
    the creation order is the dendrogram order (costs may invert).
    """
    if reorder:
        order = sorted(range(len(raw_merges)), key=lambda k: (raw_merges[k][2], k))
    else:
        order = list(range(len(raw_merges)))
    newid = {t: t for t in range(n)}
    for pos, k in enumerate(order):
        newid[n + k] = n + pos
    merges = []
    raw_levels = []
    prev = 0.0
    for k in order:
        a, b, cost = raw_merges[k]
        a, b = sorted((newid[a], newid[b]))
        level = float(np.sqrt(cost)) if crit.squared else float(cost)
        raw_levels.append(level)
        prev = max(prev, level)
        merges.append((a, b, prev))
    repaired = any(abs(r - m[2]) > 0 for r, m in zip(raw_levels, merges))
    return Dendrogram(
        n,
        tuple(merges),
        raw_levels=tuple(raw_levels) if repaired else None,
        labels=tuple(labels) if labels else None,
    )


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
    return _finish(n, raw, crit, labels)


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
    return _finish(n, raw, crit, labels)


# -- strategies -------------------------------------------------------------


GRID_SCALES = (1.0, 0.1, 0.3)  # 0.1 and 0.3 grids reach rounding inversions


@st.composite
def tables(draw):
    """Grids with values in {0, 1, 2} times a scale, where many pairs and
    many candidate merges tie, and continuous normal data."""
    n = draw(st.integers(2, 40))
    m = draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        return draw(st.sampled_from(GRID_SCALES)) * rng.integers(0, 3, size=(n, m))
    return rng.normal(size=(n, m))


# -- properties -------------------------------------------------------------


def assert_same(dend, expected):
    assert dend.to_json() == expected.to_json()
    assert dend.raw_levels == expected.raw_levels


def checked_naive_cluster(m, crit):
    return _checked(linkage.naive_cluster, m, crit, reorder=False)


def checked_nn_chain_cluster(m, crit):
    return _checked(linkage.nn_chain_cluster, m, crit, reorder=True)


def _checked(driver, m, crit, reorder):
    """The driver's dendrogram; on the way, its raw merges also go to
    oracle_finish, which must build the same tree wherever it returns."""

    def finish(n, raw, crit, labels=None):
        dend = _finish(n, raw, crit, labels)
        try:
            expected = oracle_finish(n, raw, crit, labels, reorder)
        except ValueError:  # a rounding inversion in NN-chain output
            assert reorder
            return dend
        assert_same(dend, expected)
        return dend

    with mock.patch.object(linkage, "_finish", finish):
        return driver(m, crit)


@pytest.mark.filterwarnings("ignore:median update went negative")
@settings(max_examples=200, deadline=None)
@given(tables())
def test_drivers_equal_oracles(x):
    m = euclidean_matrix(x)
    for crit in MergeCriterion:
        assert_same(checked_naive_cluster(m, crit), oracle_naive_cluster(m, crit))
        if crit.reducible:
            assert_same(checked_nn_chain_cluster(m, crit), oracle_nn_chain_cluster(m, crit))


@st.composite
def large_tables(draw):
    """The same two kinds of data as tables(), up to 200 rows."""
    n = draw(st.integers(2, 200))
    m = draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        return draw(st.sampled_from(GRID_SCALES)) * rng.integers(0, 3, size=(n, m))
    return rng.normal(size=(n, m))


@pytest.mark.filterwarnings("ignore:median update went negative")
@settings(max_examples=30, deadline=None)
@given(large_tables())
def test_naive_equals_oracle_large(x):
    # both drivers, on blocks large enough for long chains and many slot moves
    m = euclidean_matrix(x)
    for crit in ("median", "complete"):
        assert_same(checked_naive_cluster(m, crit), oracle_naive_cluster(m, crit))
    for crit in ("ward", "average", "complete"):
        assert_same(checked_nn_chain_cluster(m, crit), oracle_nn_chain_cluster(m, crit))


# -- pinned slot moves of the live block -------------------------------------


def slot_merges(driver, m, crit):
    """driver(m, crit), and (L, a, b) for each merge: the number of live
    clusters and the two slots merged."""
    seen = []
    merge = linkage._Clusters.merge

    def spy(self, a, b):
        seen.append((self.live, a, b))
        return merge(self, a, b)

    with mock.patch.object(linkage._Clusters, "merge", spy):
        return driver(m, crit), seen


def test_merged_pair_holds_last_slot():
    # 3 and 5 merge first, into slot 3.  Then terminal 4, in slot L-1 = 4,
    # merges with that cluster, which keeps the lower slot 3, and nothing
    # moves.  The new median centroid is at 133.25 (squared) from terminal
    # 0, below row 0's cached 146 to terminal 1, so row 0 must now point
    # at slot 3, the slot the new cluster kept, and not at slot 4
    x = np.array([[16, 13], [11, 2], [28, 10], [9, 20], [18, 25], [5, 26]], float)
    m = euclidean_matrix(x)
    dend, slots = slot_merges(checked_naive_cluster, m, "median")
    assert slots[:2] == [(6, 3, 5), (5, 4, 3)]
    assert_same(dend, oracle_naive_cluster(m, "median"))


@pytest.mark.parametrize("crit", [c for c in MergeCriterion if c.reducible],
                         ids=lambda c: c.value)
def test_chain_holds_moved_slot(crit):
    # the chain runs 37 -> 32 -> 28 -> 27 -> 28 and merges 27 and 28 in
    # slots 4 and 3 while it holds [0, 5]; 32 moves from slot L-1 = 5
    # into slot 4, and the chain must follow it there
    m = euclidean_matrix(np.array([[37.0], [0], [3], [28], [27], [32]]))
    dend, slots = slot_merges(checked_nn_chain_cluster, m, crit)
    assert slots[0] == (6, 4, 3)
    assert_same(dend, oracle_nn_chain_cluster(m, crit))


@pytest.mark.parametrize("crit", list(MergeCriterion), ids=lambda c: c.value)
def test_cached_neighbour_in_moved_slot(crit):
    # row 0's cached neighbour is 11 in slot L-1 = 4; merging 16 and 18 in
    # slots 2 and 3 moves 11 into slot 3, and row 0 must point there
    m = euclidean_matrix(np.array([[2.0], [39], [16], [18], [11]]))
    dend, slots = slot_merges(checked_naive_cluster, m, crit)
    assert slots[0] == (5, 2, 3)
    assert_same(dend, oracle_naive_cluster(m, crit))


# -- pinned paths of the cached-neighbour loop -------------------------------


@pytest.mark.parametrize("crit", list(MergeCriterion), ids=lambda c: c.value)
def test_cached_neighbour_retired(crit):
    # row 2's nearest neighbour is terminal 1, retired by the first merge
    m = euclidean_matrix(np.array([[0.0], [1.0], [2.1], [5.0]]))
    assert_same(checked_naive_cluster(m, crit), oracle_naive_cluster(m, crit))


def test_median_row_below_cached_minimum():
    # 0 and 1 merge at 16; the new centroid is at 14 from rows 2 and 3.
    # Row 2's cached neighbour is row 4 (sqrt 257), so only the new row
    # being strictly closer can bring it back to the minimum, where it is
    # the smaller id of the tied pairs (2, 5) and (3, 5); row 3 pointed
    # at a child and is rescanned.
    x = np.array([[0, 0], [16, 0], [8, 14], [8, -14], [24, 15]], float)
    m = euclidean_matrix(x)
    dend = checked_naive_cluster(m, "median")
    assert_same(dend, oracle_naive_cluster(m, "median"))
    assert dend.merges[1][:2] == (2, 5)
    assert dend.raw_levels[1] < dend.raw_levels[0] == 16.0  # an inversion, repaired


@pytest.mark.parametrize("crit", list(MergeCriterion), ids=lambda c: c.value)
def test_all_rows_duplicate(crit):
    m = euclidean_matrix(np.ones((9, 2)))
    dend = checked_naive_cluster(m, crit)
    assert_same(dend, oracle_naive_cluster(m, crit))
    assert all(level == 0.0 for _, _, level in dend.merges)


@pytest.mark.parametrize("crit", sorted(ROUNDING_INVERSIONS))
def test_rounding_inversion_ordered(crit):
    # sorted by cost alone, a parent one ulp below its child comes first
    m = euclidean_matrix(ROUNDING_INVERSIONS[crit])
    raw = []
    with mock.patch.object(linkage, "_finish", lambda n, r, c, labels=None: raw.append(r)):
        linkage.nn_chain_cluster(m, crit)
    with pytest.raises(ValueError, match="out of range"):
        oracle_finish(m.n, raw[0], _coerce(crit), reorder=True)
    assert_same(checked_nn_chain_cluster(m, crit), oracle_nn_chain_cluster(m, crit))


# -- the driver working in the caller's matrix -------------------------------


def in_place_and_default(driver, x, crit):
    """driver on a matrix of its own with overwrite_input=True, and on the
    default path, which must leave the bytes of its input as they were."""
    m = euclidean_matrix(x)
    before = m.values.tobytes()
    default = driver(m, crit)
    assert m.values.tobytes() == before
    return driver(euclidean_matrix(x), crit, overwrite_input=True), default


@pytest.mark.filterwarnings("ignore:median update went negative")
@settings(max_examples=100, deadline=None)
@given(st.one_of(tables(), st.sampled_from(list(ROUNDING_INVERSIONS.values()))))
def test_overwrite_input_bit_identical(x):
    # normal data, tied grids, and the grids that round a parent below its child
    for crit in MergeCriterion:
        own, default = in_place_and_default(linkage.naive_cluster, x, crit)
        assert_same(own, default)
        assert_same(own, oracle_naive_cluster(euclidean_matrix(x), crit))
        if crit.reducible:
            own, default = in_place_and_default(linkage.nn_chain_cluster, x, crit)
            assert_same(own, default)
            assert_same(own, oracle_nn_chain_cluster(euclidean_matrix(x), crit))


@pytest.mark.parametrize("crit", ["ward", "average"])
def test_overwrite_input_works_in_the_array(crit):
    # a writable float64 array becomes the working matrix, with inf on its
    # diagonal; a read-only one is copied
    m = euclidean_matrix(np.random.default_rng(5).normal(size=(30, 3)))
    v = m.values.copy()
    expected = linkage.nn_chain_cluster(m, crit)
    assert_same(linkage.nn_chain_cluster(v, crit, overwrite_input=True), expected)
    assert np.isinf(np.diag(v)).all()
    copied = m.values.copy()
    copied.setflags(write=False)
    assert_same(linkage.nn_chain_cluster(copied, crit, overwrite_input=True), expected)
    assert copied.tobytes() == m.values.tobytes()
