import csv
import io
import math
import re
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
from umtree import dissim
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


def oracle_load_csv(text) -> Table:
    """The earlier load_csv on CSV text: csv.reader for every text, and
    one float() per cell in nested comprehensions."""
    reader = csv.reader(io.StringIO(text))
    rows = [(reader.line_num, r) for r in reader if r]
    if len(rows) < 2:
        raise ValueError("CSV needs a header row and at least one data row")
    header = rows[0][1]
    for line, r in rows[1:]:
        if len(r) != len(header):
            raise ValueError(
                f"CSV line {line} (row {r[0].strip()!r}) has {len(r)} fields, "
                f"expected {len(header)} as in the header row"
            )
    body = [r for _, r in rows[1:]]

    def numeric(s):
        try:
            float(s)
            return True
        except ValueError:
            return False

    has_row_labels = header[0].strip() == "" or not all(
        numeric(r[0]) for r in body
    )
    col_labels = tuple(h.strip() for h in header[int(has_row_labels):])
    if not col_labels:  # the only column holds the row labels
        if header[0].strip() == "":
            cause = f"CSV line {rows[0][0]}, column 1: the header cell is empty"
        else:
            line, x = next((line, r[0]) for line, r in rows[1:] if not numeric(r[0]))
            cause = f"CSV line {line}, column {header[0].strip()!r}: {x!r} is not a number"
        raise ValueError(f"{cause}, so the column holds row labels and no data column is left")
    seen = {}
    for k, label in enumerate(col_labels, start=2 if has_row_labels else 1):  # CSV column numbers
        if seen.setdefault(label, k) != k:
            raise ValueError(f"CSV column {k} repeats column label {label!r} of column {seen[label]}")
    if has_row_labels:
        row_labels = tuple(r[0].strip() for r in body)
        first = {}
        for (line, _), label in zip(rows[1:], row_labels):
            if first.setdefault(label, line) != line:
                raise ValueError(
                    f"CSV line {line} repeats row label {label!r} of line {first[label]}"
                )
        data = [r[1:] for r in body]
    else:
        row_labels = None
        data = body
    try:
        values = np.array([[float(x) for x in r] for r in data])
    except ValueError:
        values = None
    if values is None or not np.isfinite(values).all():  # name the first bad cell
        line, label, x = next((line, label, x) for (line, _), r in zip(rows[1:], data)
                              for label, x in zip(col_labels, r)
                              if not (numeric(x) and math.isfinite(float(x))))
        kind = "a finite number" if numeric(x) else "a number"
        raise ValueError(f"CSV line {line}, column {label!r}: {x!r} is not {kind}")
    return Table(values, row_labels, col_labels)


def assert_read_as_by_oracle(text):
    """load_csv reads text, BOM or not, as the oracle reads it without the
    BOM: an equal Table, the same ValueError, or csv.reader's error raised
    as a ValueError that names the line csv.reader stopped on."""
    plain = text.removeprefix("\ufeff")
    try:
        want = oracle_load_csv(plain)
    except csv.Error as exc:
        reader = csv.reader(io.StringIO(plain))
        with pytest.raises(csv.Error):
            list(reader)
        with pytest.raises(ValueError) as got:
            load_csv(io.StringIO(text))
        assert str(got.value) == f"CSV line {reader.line_num}: {exc}"
    except ValueError as exc:
        with pytest.raises(ValueError) as got:
            load_csv(io.StringIO(text))
        assert str(got.value) == str(exc)
    else:
        got = load_csv(io.StringIO(text))
        assert got.values.shape == want.values.shape
        assert got.values.tobytes() == want.values.tobytes()
        assert got.row_labels == want.row_labels
        assert got.col_labels == want.col_labels


CSV_PIECES = [",", "\n", "\r", '"', "\0", " ", "0", "1", "7", "2.5", "-3", "a", "b", "Z", "nan"]
CSV_LABELS = ["", "a", "b", "c", " a", "a ", '"b"', '"b,c"', '""', "1", "x\0y"]
CSV_CELLS = ["0", "1", "2.5", "-3", " 1 ", '"7"', "1e999", "nan", "a", "", '"1,5"', '""']


@st.composite
def csv_texts(draw):
    """CSV-like texts: a header and rows of mostly numeric cells, with LF
    or CRLF line ends, blank lines, quoted cells and now and then a ragged
    row, or free text from CSV_PIECES; either may start with a BOM."""
    if draw(st.integers(0, 3)):
        width = draw(st.integers(1, 4))
        numbers = st.sampled_from(CSV_CELLS[:4])
        lines = [draw(st.lists(st.sampled_from(CSV_LABELS), min_size=width, max_size=width,
                               unique=True))]
        for k in range(draw(st.integers(1, 5))):
            size = max(1, width + draw(st.sampled_from([0] * 12 + [-1, 1])))
            label = draw(st.sampled_from([f"r{k}"] * 6 + CSV_LABELS + CSV_CELLS[:4]))
            lines.append([label] + draw(st.lists(st.one_of(numbers, numbers, st.sampled_from(CSV_CELLS)),
                                                 min_size=size - 1, max_size=size - 1)))
        lines = [",".join(cells) for cells in lines]
        lines = [line for line in lines for line in [line] + [""] * draw(st.sampled_from([0] * 5 + [1]))]
        text = draw(st.sampled_from(["\n", "\n", "\r\n"])).join(lines)
        text += draw(st.sampled_from(["", "\n", "\r\n", "\r"]))
    else:
        text = "".join(draw(st.lists(st.sampled_from(CSV_PIECES), max_size=40)))
    return draw(st.sampled_from(["", "\ufeff"])) + text


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

    @pytest.mark.parametrize("x", [np.float64(3.0), np.ones(3), np.ones((2, 2, 2))],
                             ids=["0-D", "1-D", "3-D"])
    def test_rejects_other_than_2_dimensions(self, x):
        shape = re.escape(str(x.shape))
        with pytest.raises(ValueError, match=f"^table must be 2-dimensional, got shape {shape}$"):
            euclidean_matrix(x)
        with pytest.raises(ValueError, match=f"^table must be 2-dimensional, got shape {shape}$"):
            Table(x)

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

    @pytest.mark.parametrize("raw, line, byte", [
        (b",a\nr\xe9,1\nr2,2\n", 2, "0xe9"),  # Latin-1
        (b"\xef\xbb\xbf,a\r\nr1,1\r\nr2,\xff\r\n", 3, "0xff"),  # after a BOM, CRLF ends
        (b",a\nr1,1\nr2,\xc3", 3, "0xc3"),  # a sequence cut off at the end
    ])
    def test_byte_not_utf8_named(self, tmp_path, raw, line, byte):
        path = tmp_path / "latin1.csv"
        path.write_bytes(raw)
        with pytest.raises(ValueError) as exc:
            load_csv(str(path))
        assert str(exc.value) == f"{path}: CSV line {line}: byte {byte} is not UTF-8"

    def test_path_read_as_its_text(self, tmp_path):
        raw = "\ufeff,\"\u00e9\",b\r\nr1,1,2\r\nr2,3,4\r\n".encode()
        path = tmp_path / "t.csv"
        path.write_bytes(raw)
        got, want = load_csv(str(path)), load_csv(raw.decode("utf-8-sig"))
        assert got.col_labels == want.col_labels == ("\u00e9", "b")
        assert got.row_labels == want.row_labels and got.values.tobytes() == want.values.tobytes()


@settings(max_examples=500, deadline=None)
@given(csv_texts())
def test_csv_read_as_by_csv_reader(text):
    assert_read_as_by_oracle(text)


class TestCsvSplitPath:
    """Each precondition of the split path, taken and not taken: the
    records, and so the table or the error, are csv.reader's either way."""

    @pytest.fixture
    def reader_calls(self, monkeypatch):
        calls = []

        def spy(*args, **kwargs):
            calls.append(args)
            return csv_reader(*args, **kwargs)

        csv_reader = csv.reader
        monkeypatch.setattr(dissim.csv, "reader", spy)
        return calls

    @pytest.mark.parametrize("text, by_reader", [
        (",a,b\nr1,1,2\n\nr2,3,4\n", False),
        ("a,b\n1,2\n3,4", False),  # no newline at the end
        ("a, b \n 1,2\n", False),  # spaces are kept, then stripped as labels
        ("a\u2028b,c\x1c\n1,2\x85\n", False),  # only \n ends a line
        (",a,b\nr1,1,2\nr1,3,4\n", False),  # a repeated row label
        (",a,a\nr1,1,2\n", False),  # a repeated column label
        (",a,b\nr1,1,x\n", False),  # a cell that is not a number
        (',"a",b\nr1,1,2\n', True),  # a quote
        (',"a,b"\nr1,"1"\n', True),  # a comma inside quotes
        (",a,b\r\nr1,1,2\r\n", True),  # CRLF
        (",a,b\nr1,1,2\r", True),  # a CR at the end
        (",a,b\nr1,1\r,2\n", True),  # a CR inside a row
        (",a,b\nr\x001,1,2\n", True),  # NUL
    ])
    def test_precondition(self, reader_calls, text, by_reader):
        self.assert_path(reader_calls, text, by_reader)

    @staticmethod
    def assert_path(reader_calls, text, by_reader):
        assert_read_as_by_oracle(text)
        reader_calls.clear()
        try:
            load_csv(text)
        except ValueError:
            pass
        assert bool(reader_calls) == by_reader

    @pytest.mark.parametrize("text, by_reader", [
        (",a\nr,1\n", False),  # the text is above the limit, each line at most at it
        (",a,b\nr,1,2\n", True),  # lines above it, each field within it
        (",a\nr,1234\n", True),  # a field above it: csv.reader's error
    ])
    def test_line_longer_than_field_limit(self, reader_calls, text, by_reader):
        old = csv.field_size_limit(3)
        try:
            self.assert_path(reader_calls, text, by_reader)
        finally:
            csv.field_size_limit(old)

    def test_field_above_limit_named(self):
        # csv.Error used to escape the CLI as a traceback with the usage code
        text = ",a\nr1," + "1" * 140_000 + "\n"
        with pytest.raises(ValueError) as exc:
            load_csv(text)
        assert str(exc.value) == f"CSV line 2: field larger than field limit ({csv.field_size_limit()})"

    def test_byte_order_mark_dropped(self, tmp_path):
        plain = ",a,b\n1,5,2\n2,3,4\n"
        want = load_csv(plain)
        assert want.row_labels == ("1", "2") and want.col_labels == ("a", "b")
        path = tmp_path / "bom.csv"
        path.write_bytes(("\ufeff" + plain).encode("utf-8"))
        for source in (str(path), "\ufeff" + plain, io.StringIO("\ufeff" + plain)):
            got = load_csv(source)
            assert got.values.tobytes() == want.values.tobytes()
            assert (got.row_labels, got.col_labels) == (want.row_labels, want.col_labels)
        got = load_csv("\ufeffa,b\n1,2\n", columns=["a"])
        assert got.col_labels == ("a",) and got.row_labels is None

    def test_path_read_as_utf8(self, tmp_path):
        path = tmp_path / "utf8.csv"
        path.write_bytes(",é,ü\nñ,1,2\n".encode("utf-8"))
        t = load_csv(str(path))
        assert t.col_labels == ("é", "ü") and t.row_labels == ("ñ",)


class TestTable:
    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            Table(np.array([[np.nan]]))

    def test_rejects_label_mismatch(self):
        with pytest.raises(ValueError):
            Table(np.ones((2, 2)), row_labels=("a",))
