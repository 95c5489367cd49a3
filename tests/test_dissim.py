import io
import tracemalloc
import warnings
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from umtree import (
    DistanceMatrix,
    SetValuedDistanceTable,
    Table,
    euclidean_matrix,
    load_csv,
    setvalued_table,
    verify_metric,
)
from umtree.datasets import bool5, iris8
from umtree.dissim import from_mask


def simple_matching_setvalued(data, i: int, j: int) -> frozenset:
    """Attributes NOT present in both rows: {a in J : not(x_ia and x_ja)},
    scored one attribute at a time; the oracle for setvalued_table."""
    x = data.values if isinstance(data, Table) else np.asarray(data, float)
    if not np.isin(x, (0.0, 1.0)).all():
        raise ValueError("boolean table must contain only 0 and 1")
    both = (x[i] == 1) & (x[j] == 1)
    return frozenset(np.flatnonzero(~both).tolist())


def oracle_pairs_by_distance(t) -> dict:
    """{distance mask: its pairs (i, j), i < j, in lexicographic order}, by
    one loop over the pairs: the grouping the sort replaced."""
    full = (1 << t.n_attributes) - 1
    groups = {}
    for (i, a), (j, b) in combinations(enumerate(t.rows), 2):
        groups.setdefault(full & ~(a & b), []).append((i, j))
    return groups


@pytest.fixture(scope="module")
def cdist():
    return pytest.importorskip("scipy.spatial.distance").cdist


class TestEuclidean:
    def test_3_4_5(self):
        m = euclidean_matrix(np.array([[0.0, 0.0], [3.0, 4.0]]))
        assert m[0, 1] == pytest.approx(5.0)

    def test_identical_rows(self):
        m = euclidean_matrix(np.array([[1.0, 2.0], [1.0, 2.0]]))
        assert m[0, 1] == 0.0

    def test_iris_rows_1_2(self):
        m = euclidean_matrix(iris8())
        assert m[0, 1] == pytest.approx(np.sqrt(0.2**2 + 0.5**2))

    def test_is_metric(self, rng):
        x = rng.normal(size=(15, 4))
        assert verify_metric(euclidean_matrix(x), tol=1e-12) == []

    @settings(max_examples=150, deadline=None)
    @given(
        n=st.integers(1, 60), m=st.integers(1, 20), scale=st.integers(-8, 150),
        offset=st.floats(-1e6, 1e6), seed=st.integers(0, 2**32 - 1),
    )
    def test_bits_of_cdist(self, cdist, n, m, scale, offset, seed):
        x = np.random.default_rng(seed).normal(size=(n, m)) * 10.0**scale + offset
        x[n // 2] = x[0]  # a duplicate row
        assert euclidean_matrix(x).values.tobytes() == cdist(x, x).tobytes()

    def test_offset_data_exact(self, cdist, rng):
        # the Gram expression sq_i + sq_j - 2 x_i.x_j was off by 1e-3 here
        x = rng.normal(size=(60, 3)) + 1e6
        assert np.abs(euclidean_matrix(x).values - cdist(x, x)).max() == 0.0

    def test_differences_of_huge_rows(self, cdist, rng):
        # squares of the rows overflow, squares of their differences do not
        x = 1e160 + rng.normal(size=(10, 3)) * 1e150
        assert euclidean_matrix(x).values.tobytes() == cdist(x, x).tobytes()

    @pytest.mark.parametrize("x", [
        [[0.0], [1e160], [3e160], [7e160]],  # squares of the differences overflow
        [[1e154] * 3, [0.0] * 3],  # squares fit, their sum overflows
    ])
    def test_overflow_named(self, x):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="^a squared Euclidean distance overflows "
                               "float64 .* above about 1.34e154"):
                euclidean_matrix(np.array(x))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite(self, bad):
        with pytest.raises(ValueError, match="^table values must be finite$"):
            euclidean_matrix(np.array([[0.0, 1.0], [bad, 2.0]]))

    def test_one_row(self):
        assert euclidean_matrix(np.array([[1.0, -2.0]])).values.tolist() == [[0.0]]

    def test_ufunc_buffer_size_restored(self):
        before = np.getbufsize()
        euclidean_matrix(np.ones((40, 2)))
        assert np.getbufsize() == before
        with pytest.raises(ValueError, match="overflows float64"):  # inside the block loop
            euclidean_matrix(np.array([[-1e308], [1e308]]))
        assert np.getbufsize() == before

    def test_zero_columns(self):
        assert np.array_equal(euclidean_matrix(np.empty((4, 0))).values, np.zeros((4, 4)))

    def test_exactly_symmetric(self, rng):
        # (a - b)^2 == (b - a)^2, and d_ij and d_ji sum the columns in the
        # same order, whatever the layout of the input
        x = rng.normal(size=(300, 140)) * 1e3 + 7
        for view in (x, x[:, ::2], np.asfortranarray(x), x[::2]):
            d = euclidean_matrix(view).values
            assert np.array_equal(d, d.T)

    @settings(max_examples=150, deadline=None)
    @given(x=arrays(float, st.tuples(st.integers(1, 40), st.integers(0, 6)),
                    elements=st.floats(-1e150, 1e150)))
    def test_result_passes_the_checks(self, x):
        # the result skips DistanceMatrix's checks, so it must pass them by
        # construction: finite, exactly symmetric, nonnegative, zero diagonal
        d = euclidean_matrix(x).values
        assert np.isfinite(d).all()
        assert np.array_equal(d, d.T)
        assert (d >= 0).all()
        assert not np.diag(d).any()
        assert DistanceMatrix(d).values is d  # kept as it is: no repair needed

    def test_one_temporary_matrix(self, rng):
        # the result and one block of rows: 1.2 n^2 doubles (2.0 when a
        # Gram matrix was the temporary)
        x = rng.normal(size=(600, 8))
        euclidean_matrix(x)
        tracemalloc.start()
        try:
            euclidean_matrix(x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 600 * 600 * 8


class TestSimpleMatching:
    def test_worked_pairs(self):
        data = bool5()  # a=0, b=1, c=2, e=3, f=4; attributes v1..v3 = 0..2
        assert simple_matching_setvalued(data, 0, 1) == {0, 1}
        assert simple_matching_setvalued(data, 0, 2) == {1}
        assert simple_matching_setvalued(data, 1, 3) == {0, 1, 2}

    def test_all_ones_rows(self):
        data = np.ones((2, 4))
        assert simple_matching_setvalued(Table(data), 0, 1) == frozenset()

    def test_diagonal_is_absence_complement(self):
        data = bool5()
        for i in range(data.n):
            present = {j for j in range(3) if data.values[i, j] == 1}
            assert simple_matching_setvalued(data, i, i) == set(range(3)) - present

    def test_cardinality_vs_copresence(self, rng):
        x = Table((rng.random((8, 5)) > 0.5).astype(float))
        for i in range(8):
            for j in range(8):
                co = int(((x.values[i] == 1) & (x.values[j] == 1)).sum())
                assert len(simple_matching_setvalued(x, i, j)) == 5 - co

    def test_rejects_non_boolean(self):
        with pytest.raises(ValueError):
            simple_matching_setvalued(Table(np.array([[0.5, 1.0]])), 0, 0)


class TestSetValuedTable:
    def test_bool5_values(self):
        t = setvalued_table(bool5())
        assert t[1, 3] == {0, 1, 2}  # d(b,e)
        assert t[0, 2] == {1}  # d(a,c)
        assert len(t.dist) == 10

    def test_symmetry(self):
        t = setvalued_table(bool5())
        for i in range(5):
            for j in range(i + 1, 5):
                assert t[i, j] == t[j, i]

    def test_single_row(self):
        t = setvalued_table(Table(np.array([[1.0, 0.0]])))
        assert t.dist == {}

    def test_matches_per_pair_calls(self, rng):
        data = Table((rng.random((7, 4)) > 0.4).astype(float))
        t = setvalued_table(data)
        for (i, j), s in t.dist.items():
            assert s == simple_matching_setvalued(data, i, j)

    def test_wide_rows(self, rng):
        # masks are Python ints, so more attributes than a machine word fit
        data = Table((rng.random((5, 70)) > 0.5).astype(float))
        t = setvalued_table(data)
        for (i, j), s in t.dist.items():
            assert s == simple_matching_setvalued(data, i, j)

    def test_equal_distances_share_one_set(self):
        t = setvalued_table(bool5())
        assert len({id(s) for s in t.dist.values()}) == len(set(t.dist.values()))

    def test_value_equality(self):
        t = setvalued_table(bool5())
        assert t == setvalued_table(bool5())
        x, rows, cols = bool5().values, bool5().row_labels, bool5().col_labels
        assert t != setvalued_table(Table(x, rows[::-1], cols))
        assert t != setvalued_table(Table(x, rows, cols[::-1]))
        y = x.copy()
        y[3, 2] = 1.0  # d(a,e) loses v3
        assert t != setvalued_table(Table(y, rows, cols))
        # the same distinct sets, assigned to the pairs differently
        u, v = SetValuedDistanceTable(2, (1, 2, 3)), SetValuedDistanceTable(2, (3, 2, 1))
        assert set(u.dist.values()) == set(v.dist.values())
        assert u != v
        assert t != "bool5"

    def test_no_per_pair_objects(self):
        # 604 450 pairs of one distance: row masks only, no per-pair form
        x = Table(np.ones((1100, 2)))
        tracemalloc.start()
        try:
            setvalued_table(x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 40e6


# widths on both sides of each byte boundary and past 64 bits, and none
@settings(max_examples=200, deadline=None)
@given(st.integers(0, 40), st.sampled_from([0, 1, 7, 8, 9, 15, 16, 17, 63, 64, 65, 70, 130]),
       st.sampled_from([0.0, 0.3, 0.7, 0.95, 1.0]), st.integers(0, 2**32 - 1))
def test_pairs_grouped_as_by_combinations(n, m, p, seed):
    t = setvalued_table((np.random.default_rng(seed).random((n, m)) < p).astype(float))
    want = oracle_pairs_by_distance(t)
    groups = t._pairs_by_distance
    assert {mask: list(zip(i.tolist(), j.tolist())) for mask, (i, j) in groups.items()} == want
    assert all(i.dtype.kind == j.dtype.kind == "i" for i, j in groups.values())
    dist = {ij: frozenset(from_mask(mask)) for mask, pairs in want.items() for ij in pairs}
    assert list(t.dist.items()) == sorted(dist.items())


class TestCsv:
    def test_with_row_labels(self):
        text = ",a,b\nr1,1.0,2.0\nr2,3.0,4.0\n"
        t = load_csv(io.StringIO(text))
        assert t.row_labels == ("r1", "r2")
        assert t.col_labels == ("a", "b")
        assert np.array_equal(t.values, [[1, 2], [3, 4]])

    def test_without_row_labels(self):
        t = load_csv(io.StringIO("a,b\n1,2\n3,4\n"))
        assert t.row_labels is None
        assert np.array_equal(t.values, [[1, 2], [3, 4]])

    def test_column_selection(self):
        t = load_csv(io.StringIO("a,b,c\n1,2,3\n4,5,6\n"), columns=["c", "a"])
        assert np.array_equal(t.values, [[3, 1], [6, 4]])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            load_csv(io.StringIO(""))

    def test_text_with_newline(self):
        t = load_csv("a,b\n1,2\n3,4\n")
        assert np.array_equal(t.values, [[1, 2], [3, 4]])

    def test_short_row_named(self):
        with pytest.raises(ValueError, match=r"line 3 \(row 'r2'\) has 2 fields, expected 3"):
            load_csv(",a,b\nr1,1,2\nr2,3\n")

    def test_long_row_named(self):
        with pytest.raises(ValueError, match=r"line 2 \(row 'r1'\) has 4 fields, expected 3"):
            load_csv(",a,b\nr1,1,2,9\nr2,3,4\n")

    def test_ragged_row_line_counts_blank_lines(self):
        with pytest.raises(ValueError, match=r"line 4 \(row '5'\) has 1 fields, expected 2"):
            load_csv("a,b\n1,2\n\n5\n")

    def test_duplicate_row_label_named(self):
        # a repeated label would make two terminals share one report key
        with pytest.raises(ValueError, match=r"CSV line 3 repeats row label 'a' of line 2"):
            load_csv(",x,y\na,1,2\na,3,4\nb,5,6\n")
        with pytest.raises(ValueError, match=r"CSV line 5 repeats row label 'b' of line 3"):
            load_csv(",x\na,1\n b,2\n\nb ,3\n")  # labels are stripped; blank lines count

    def test_duplicate_column_label_named(self):
        # a repeated label would name two genum vertices alike
        with pytest.raises(ValueError, match=r"CSV column 3 repeats column label 'a' of column 2"):
            load_csv(",a,a\nr1,1,2\n")
        with pytest.raises(ValueError, match=r"CSV column 3 repeats column label 'b' of column 1"):
            load_csv("b,c,b \n1,2,3\n")  # labels are stripped; no row labels here

    @pytest.mark.parametrize("text, cause", [
        ("x\na\nb\n", "CSV line 2, column 'x': 'a' is not a number"),
        ("x\n1\n\nb\n", "CSV line 4, column 'x': 'b' is not a number"),
        ('""\n1\n2\n', "CSV line 1, column 1: the header cell is empty"),
    ])
    def test_only_column_of_labels_named(self, text, cause):
        # the one column is taken for row labels, which leaves no data
        with pytest.raises(ValueError) as exc:
            load_csv(text)
        assert str(exc.value) == cause + ", so the column holds row labels and no data column is left"

    def test_column_selected_twice_named(self):
        # it would count the column twice in every distance
        with pytest.raises(ValueError, match=r"column 'a' selected twice"):
            load_csv("a,b,c\n1,2,3\n", columns=["a", "c", "a"])

    def test_missing_file_named(self, tmp_path):
        path = str(tmp_path / "no_such.csv")
        with pytest.raises(FileNotFoundError, match="no_such.csv"):
            load_csv(path)


class TestTable:
    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            Table(np.array([[np.nan]]))

    def test_rejects_label_mismatch(self):
        with pytest.raises(ValueError):
            Table(np.ones((2, 2)), row_labels=("a",))
