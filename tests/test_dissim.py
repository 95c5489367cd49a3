import io
import tracemalloc

import numpy as np
import pytest

from umtree import (
    SetValuedDistanceTable,
    Table,
    euclidean_matrix,
    load_csv,
    setvalued_table,
    simple_matching_setvalued,
    verify_metric,
)
from umtree.datasets import bool5, iris8


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

    def test_bits_of_plain_expression(self, rng):
        # the in-place evaluation must give the bits of the expression it
        # replaced, so every tree and artifact stays byte-identical
        for n, m, scale, offset in [(1, 1, 1.0, 0.0), (2, 3, 1e-8, 0.0), (40, 8, 1.0, 0.0),
                                    (60, 3, 1.0, 1e6), (33, 5, 1e150, 0.0), (50, 2, 3.0, -7.5)]:
            x = rng.normal(size=(n, m)) * scale + offset
            x[n // 2] = x[0]  # a duplicate row: clamped at 0 before the root
            sq = np.sum(x**2, axis=1)
            d2 = sq[:, None] + sq[None, :] - 2.0 * (x @ x.T)
            np.maximum(d2, 0.0, out=d2)
            d = np.sqrt(d2)
            np.fill_diagonal(d, 0.0)
            expected = np.minimum(d, d.T)
            assert euclidean_matrix(x).values.tobytes() == expected.tobytes()

    def test_one_temporary_matrix(self, rng):
        # result, gram matrix and DistanceMatrix's checks; 5.15 n^2 doubles
        # when the expression was evaluated out of place
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
        u = SetValuedDistanceTable(3, 2, (1, 2), np.array([0, 1, 0]))
        assert u != SetValuedDistanceTable(3, 2, (1, 2), np.array([0, 1, 1]))
        assert t != "bool5"

    def test_no_per_pair_objects(self):
        # 604 450 pairs of one distance: masks and codes only, no dict of pairs
        x = Table(np.ones((1100, 2)))
        tracemalloc.start()
        try:
            setvalued_table(x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 40e6


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

    def test_is_boolean(self):
        assert bool5().is_boolean()
        assert not iris8().is_boolean()
