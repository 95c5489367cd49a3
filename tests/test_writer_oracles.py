"""The CLI writers against the dict-building code they replaced, kept here
as the oracle.

padic, wavelet (forward, chain, inverse) and genum lay out their JSON
from encoded pieces; every output must be the bytes json.dumps(obj,
indent=2) gives for the old report dict, and every CSV the bytes of the
old per-value loop.  Labels carry quotes, backslashes, control and non-ASCII
characters; rows of +-1e308 overflow the smooths to Infinity and the
chain errors to NaN.  padic reads tree labels drawn apart from the CSV's
row labels; wavelet reads a tree labelled with those row labels.

The streamed reports are written in runs of entries, and the chain's
errors computed in runs of paths, each closed by a size budget; every
oracle test runs at the default budgets and at budgets of 1, where each
entry is its own write and each path its own run.
"""

import csv
import io
import json
import sys
import tempfile
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from test_tree_oracles import dendrograms

from umtree import Dendrogram, euclidean_matrix, genlattice, haar, nn_chain_cluster, padic
from umtree import cli
from umtree.cli import main
from umtree.dissim import load_csv, setvalued_table

from conftest import caterpillar, random_dendrogram

pytestmark = pytest.mark.filterwarnings("ignore::RuntimeWarning")  # overflowed rows


# -- oracles: the previous writers --------------------------------------------


def _fmt(x: float) -> str:
    return f"{x:.6f}"


def oracle_padic(dend, p, check_unique):
    dend = dend.with_rank_levels()
    values = padic.decimal_values(dend, p)
    out = {}
    for t, value in enumerate(values):
        code = padic.encode(dend, p, t)
        name = dend.labels[t] if dend.labels else str(t)
        out[name] = {
            "coefficients": [[j, c] for j, c in sorted(code.as_dict().items())],
            "decimal": value,
        }
    report = {"p": p, "terminals": out}
    if check_unique:
        report["unique"] = len(set(values)) == len(values)
    return json.dumps(report, indent=2)


def oracle_chain(ht, table):
    report = {}
    for t in range(ht.dend.n_terminals):
        chain = haar.approximation_chain(ht, t)
        name = table.row_labels[t] if table.row_labels else str(t)
        report[name] = [
            {"partial": [float(v) for v in vec], "error": err}
            for vec, err in chain
        ]
    return json.dumps(report, indent=2)


def oracle_forward(ht, table):
    n = ht.dend.n_terminals
    coeffs = {
        "smooth": [float(v) for v in ht.smooth],
        "details": {
            str(n - 1 + r): {"vector": [float(v) for v in d], "level": r}
            for r, d in enumerate(ht.details, start=1)
        },
    }
    cols = [f"s{n - 1}"] + [f"d{r}" for r in range(n - 1, 0, -1)]
    lines = ["," + ",".join(cols)]
    attrs = table.col_labels or [f"c{j}" for j in range(ht.m)]
    for j, attr in enumerate(attrs):
        vals = [ht.smooth[j]] + [ht.details[r - 1][j] for r in range(n - 1, 0, -1)]
        lines.append(attr + "," + ",".join(_fmt(v) for v in vals))
    return json.dumps(coeffs, indent=2), "\n".join(lines) + "\n"


def oracle_genum(table, level):
    t = setvalued_table(table)
    lattice = genlattice.build_lattice(t)
    attr = table.col_labels or tuple(f"v{j + 1}" for j in range(t.n_attributes))
    obj = table.row_labels or tuple(str(i) for i in range(t.n))

    def setname(s):
        return ",".join(attr[j] for j in sorted(s)) or "{}"

    level = level if level is not None else t.n_attributes
    clusters = genlattice.clusters_at_level(t, level)
    pairs = {v: genlattice.pairs_for_node(t, v) for v in lattice.vertices}
    report = {
        "vertices": [
            {"set": sorted(attr[j] for j in v), "level": len(v)}
            for v in lattice.vertices
        ],
        "edges": [[setname(a), setname(b)] for a, b in lattice.edges],
        "pairs": {
            setname(v): [[obj[i], obj[j]] for i, j in p] for v, p in pairs.items() if p
        },
        "clusters": {
            str(level): [sorted(obj[i] for i in c) for c in clusters]
        },
    }
    return json.dumps(report, indent=2)


def oracle_genum_text(table, level):
    t = setvalued_table(table)
    lattice = genlattice.build_lattice(t)
    attr = table.col_labels or tuple(f"v{j + 1}" for j in range(t.n_attributes))
    obj = table.row_labels or tuple(str(i) for i in range(t.n))

    def setname(s):
        return ",".join(attr[j] for j in sorted(s)) or "{}"

    level = level if level is not None else t.n_attributes
    clusters = genlattice.clusters_at_level(t, level)
    pairs = {v: genlattice.pairs_for_node(t, v) for v in lattice.vertices}
    lines = ["Lattice vertices found       Level", ""]
    for lev in range(t.n_attributes, 0, -1):
        row = [setname(v) for v in lattice.vertices if len(v) == lev]
        if row:
            lines.append(f"{'   '.join(row):<28} {lev}")
    lines.append("")
    for v, p in pairs.items():
        if p:
            plist = ", ".join(f"d({obj[i]},{obj[j]})" for i, j in p)
            lines.append(f"The subset {setname(v)} corresponds to: {plist}")
    lines.append("")
    lines.append(f"Clusters defined by all pairwise linkage at level <= {level}:")
    for c in clusters:
        lines.append("   " + ", ".join(sorted(obj[i] for i in c)))
    return "\n".join(lines) + "\n"


def oracle_rows_csv(rows, table):
    lines = [",".join(table.col_labels or [f"c{j}" for j in range(rows.shape[1])])]
    lines += [",".join(_fmt(v) for v in row) for row in rows]
    return "\n".join(lines) + "\n"


# -- cases ----------------------------------------------------------------------

TEXT = st.text(alphabet='ab"\\,\x01é€😀', min_size=1, max_size=3)
# tree JSON labels may be any hashable JSON value; json.dumps converts keys
TREE_LABEL = st.one_of(
    TEXT, st.integers(-3, 3), st.floats(allow_nan=False), st.booleans(), st.none(),
)


@st.composite
def cases(draw):
    """A tree, labels for its JSON, row labels for its CSV, and data."""
    dend = draw(dendrograms(max_n=12))
    n = dend.n_terminals
    tree_labels = draw(st.none() | st.lists(TREE_LABEL, min_size=n, max_size=n, unique=True))
    row_labels = draw(st.none() | st.lists(TEXT, min_size=n, max_size=n, unique=True))
    m = draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["normal", "huge", "mixed"]))
    x = rng.normal(size=(n, m)) * 10.0 ** rng.integers(-3, 4, size=m)
    if kind != "normal":
        huge = rng.choice([1e308, -1e308], size=(n, m))
        x = huge if kind == "huge" else np.where(rng.random((n, m)) < 0.5, huge, x)
    if tree_labels is not None:
        dend = Dendrogram(n, dend.merges, labels=tuple(tree_labels))
    return dend, row_labels, x


def write_case(tmp, case):
    dend, row_labels, x = case
    (tmp / "tree.json").write_text(dend.to_json())
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    cols = [f"a{j}" for j in range(x.shape[1])]
    if row_labels is None:
        w.writerow(cols)
        w.writerows([repr(float(v)) for v in row] for row in x)
    else:
        w.writerow([""] + cols)
        w.writerows([label] + [repr(float(v)) for v in row] for label, row in zip(row_labels, x))
    (tmp / "data.csv").write_text(buf.getvalue(), encoding="utf-8")


# the default budgets, and budgets of 1: one entry per write, one path per run
BUDGETS = [
    {"_WRITE_CHARS": cli._WRITE_CHARS, "_CHAIN_STEPS": cli._CHAIN_STEPS},
    {"_WRITE_CHARS": 1, "_CHAIN_STEPS": 1},
]


def run(tmp, argv, out="out"):
    assert main(argv + ["--dend", str(tmp / "tree.json"), "--out", str(tmp / out)]) == 0
    return (tmp / out).read_text(encoding="utf-8")


SMALL = [
    (Dendrogram(1, ()), None, np.array([[1e308, 0.5]])),
    (Dendrogram(1, (), labels=('é"\\',)), ["\x01"], np.array([[-2.0]])),
    (Dendrogram(2, ((1, 0, 0.5),), labels=(True, 1.5)), ['a"', "b\\"], np.array([[1e308], [1e308]])),
    (Dendrogram(2, ((0, 1, 0.0),)), None, np.array([[1e308, 1.0], [-1e308, -2.0]])),
]


@settings(max_examples=80, deadline=None)
@given(cases())
@example(SMALL[0])
@example(SMALL[1])
@example(SMALL[2])
@example(SMALL[3])
def test_writers_equal_json_dumps(case):
    dend, row_labels, x = case
    with tempfile.TemporaryDirectory() as d:
        tmp = Path(d)
        for budgets in BUDGETS:
            with mock.patch.multiple(cli, **budgets):
                write_case(tmp, case)
                for p in (2, 3):
                    for flag in ([], ["--check-unique"]):
                        got = run(tmp, ["padic", "--p", str(p)] + flag)
                        assert got == oracle_padic(dend, p, bool(flag))

                # wavelet rejects a tree whose labels differ from the CSV's row labels
                labelled = Dendrogram(dend.n_terminals, dend.merges, labels=row_labels)
                write_case(tmp, (labelled, row_labels, x))
                check_wavelet(tmp, Dendrogram.from_json((tmp / "tree.json").read_text()))


def check_wavelet(tmp, dend):
    """wavelet forward (with its --csv table), chain and inverse on
    tmp/tree.json and tmp/data.csv against the oracles."""
    data = ["--data", str(tmp / "data.csv")]
    table = load_csv(tmp / "data.csv")
    ht = haar.forward(dend, table)
    want_json, want_csv = oracle_forward(ht, table)
    assert run(tmp, ["wavelet", "forward", "--csv", str(tmp / "table.csv")] + data) == want_json
    assert (tmp / "table.csv").read_text(encoding="utf-8") == want_csv
    assert run(tmp, ["wavelet", "chain"] + data) == oracle_chain(ht, table)
    rows = np.array([haar.reconstruct_one(ht, t) for t in range(dend.n_terminals)])
    assert run(tmp, ["wavelet", "inverse"] + data) == oracle_rows_csv(rows, table)


# -- deep and large trees ------------------------------------------------------


@pytest.mark.parametrize("alternate", [False, True])
def test_writers_on_caterpillar(tmp_path, alternate):
    n = 300
    dend = caterpillar(n, alternate)
    x = np.random.default_rng(300 + alternate).normal(size=(n, 3))
    write_case(tmp_path, (dend, None, x))
    for budgets in BUDGETS:
        with mock.patch.multiple(cli, **budgets):
            for p in (2, 3):
                got = run(tmp_path, ["padic", "--p", str(p), "--check-unique"])
                assert got == oracle_padic(dend, p, True)
            check_wavelet(tmp_path, dend)


def test_reports_span_several_writes(tmp_path):
    """On a pinned 1500-terminal tree each streamed report is several
    default-sized writes long, and the chain several runs of errors."""
    n = 1500
    dend = random_dendrogram(np.random.default_rng(1500), n)
    assert sum(map(len, map(dend.path_to_root, range(n)))) + n > 2 * cli._CHAIN_STEPS
    x = np.random.default_rng(n).normal(size=(n, 2))
    write_case(tmp_path, (dend, None, x))
    report = run(tmp_path, ["padic", "--p", "3", "--check-unique"])
    assert len(report) > 2 * cli._WRITE_CHARS
    assert report == oracle_padic(dend, 3, True)
    for action in ["forward", "chain"]:
        assert len(run(tmp_path, ["wavelet", action, "--data", str(tmp_path / "data.csv")])) > 2 * cli._WRITE_CHARS
    check_wavelet(tmp_path, dend)


def test_forward_table_with_percent_labels(tmp_path):
    """The --csv table is one % over a template that holds the column
    labels, so a % in a label must come out as itself."""
    dend = caterpillar(4, True)
    (tmp_path / "tree.json").write_text(dend.to_json())
    x = np.random.default_rng(4).normal(size=(4, 3))
    lines = ["%s,%d%%,a%"] + [",".join(repr(float(v)) for v in row) for row in x]
    (tmp_path / "data.csv").write_text("\n".join(lines) + "\n")
    run(tmp_path, ["wavelet", "forward", "--data", str(tmp_path / "data.csv"),
                   "--csv", str(tmp_path / "table.csv")])
    table = load_csv(tmp_path / "data.csv")
    assert table.col_labels == ("%s", "%d%%", "a%")
    assert (tmp_path / "table.csv").read_text() == oracle_forward(haar.forward(dend, table), table)[1]


def test_padic_writes_no_per_terminal_codes(tmp_path, monkeypatch):
    """padic reads the coefficients off the tree; it builds no PadicCode
    per terminal and no rank-level copy of the tree."""

    def refuse(*args, **kwargs):
        raise AssertionError("padic called a per-terminal encoder")

    monkeypatch.setattr(padic, "encode", refuse)
    monkeypatch.setattr(Dendrogram, "with_rank_levels", refuse)
    (tmp_path / "tree.json").write_text(caterpillar(40, True).to_json())
    assert json.loads(run(tmp_path, ["padic", "--p", "3"]))["terminals"]["39"] == {
        "coefficients": [[39, 1]], "decimal": 3**39,
    }


def test_padic_values_past_digit_limit(tmp_path):
    """At p = 10007 the deepest terminal of a 1100-terminal chain has a
    value of about 4400 digits, past Python's default int-to-text limit
    of 4300; padic writes it in full and leaves the limit as it was."""
    dend = caterpillar(1100, False)
    (tmp_path / "tree.json").write_text(dend.to_json())
    limit = sys.get_int_max_str_digits()
    try:
        sys.set_int_max_str_digits(4300)  # Python's default, whatever was set before
        report = json.loads(run(tmp_path, ["padic", "--p", "10007"]), parse_int=str)
        assert sys.get_int_max_str_digits() == 4300
        sys.set_int_max_str_digits(0)
        want = str(padic.decimal_values(dend, 10007)[0])
    finally:
        sys.set_int_max_str_digits(limit)
    assert len(want) > 4300
    assert report["terminals"]["0"]["decimal"] == want


def test_padic_peak_memory(tmp_path):
    """tracemalloc peak of padic --p 3 --check-unique on a chained tree:
    single linkage on a 1000-row Gaussian mixture (depth 81, 43 643
    coefficients).  The bound is the peak of the writer that built one
    PadicCode per terminal (13 332 333 to 13 332 582 bytes on Python 3.11,
    rounded up to the kB); text built per tree node peaks at about 11.3 MB."""
    rng = np.random.default_rng(1000)
    centres = rng.normal(scale=4.0, size=(10, 8))
    x = centres[rng.integers(0, 10, size=1000)] + rng.normal(size=(1000, 8))
    (tmp_path / "tree.json").write_text(nn_chain_cluster(euclidean_matrix(x), "single").to_json())
    argv = ["padic", "--p", "3", "--check-unique"]
    run(tmp_path, argv)  # argparse and encoder set-up outside the measurement
    tracemalloc.start()
    try:
        run(tmp_path, argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 13_333_000


# -- genum ------------------------------------------------------------------------


@st.composite
def boolean_tables(draw):
    """A boolean table of 1 to 14 rows (1 and 2 rows list no pairs), with
    or without row and column labels, and a level or none."""
    n = draw(st.integers(1, 14))
    m = draw(st.integers(1, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = (rng.random((n, m)) < draw(st.sampled_from([0.3, 0.6, 0.9]))).astype(int)
    rows = draw(st.none() | st.lists(TEXT, min_size=n, max_size=n, unique=True))
    cols = draw(st.lists(TEXT, min_size=m, max_size=m, unique=True))
    level = draw(st.none() | st.integers(0, m))
    return x, rows, cols, level


def write_boolean_case(tmp, case):
    x, rows, cols, level = case
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(([""] if rows else []) + cols)
    w.writerows(([rows[i]] if rows else []) + list(r) for i, r in enumerate(x.tolist()))
    (tmp / "bool.csv").write_text(buf.getvalue(), encoding="utf-8")
    return ["genum", "--input", str(tmp / "bool.csv")] + (["--level", str(level)] if level is not None else [])


@settings(max_examples=60, deadline=None)
@given(boolean_tables())
@example((np.array([[1, 0]]), ['"é'], ["a,b", "\\"], None))
@example((np.array([[1, 1], [1, 0]]), None, ["€", 'a"'], 1))
def test_genum_equals_json_dumps(case):
    level = case[3]
    with tempfile.TemporaryDirectory() as d:
        tmp = Path(d)
        argv = write_boolean_case(tmp, case)
        assert main(argv + ["--out", str(tmp / "out")]) == 0
        table = load_csv(tmp / "bool.csv")
        assert (tmp / "out").read_text(encoding="utf-8") == oracle_genum(table, level)


@settings(max_examples=60, deadline=None)
@given(boolean_tables())
@example((np.array([[1, 1, 0], [1, 1, 1], [0, 1, 1]]), ['a,"b', "\\é", "€,😀"], ["x", "y", "z"], 2))
@example((np.array([[1, 0]]), None, ["a,b", "\\"], None))
def test_genum_text_equals_old_loop(case):
    level = case[3]
    with tempfile.TemporaryDirectory() as d:
        tmp = Path(d)
        argv = write_boolean_case(tmp, case)
        assert main(argv + ["--out", str(tmp / "out"), "--text", str(tmp / "out.txt")]) == 0
        table = load_csv(tmp / "bool.csv")
        assert (tmp / "out.txt").read_text(encoding="utf-8") == oracle_genum_text(table, level)


def genum_peak(tmp_path):
    """tracemalloc peak of genum --out --text on a 400x10 Bernoulli(0.6)
    table (79 800 pairs; 4.2 MB of JSON, 1.0 MB of text)."""
    x = (np.random.default_rng(400).random((400, 10)) < 0.6).astype(int)
    lines = [",".join(f"a{j}" for j in range(10))] + [",".join(map(str, r)) for r in x.tolist()]
    (tmp_path / "b.csv").write_text("\n".join(lines) + "\n")
    argv = ["genum", "--input", str(tmp_path / "b.csv"), "--level", "5",
            "--out", str(tmp_path / "out.json"), "--text", str(tmp_path / "out.txt")]
    assert main(argv) == 0  # argparse and encoder set-up outside the measurement
    tracemalloc.start()
    try:
        assert main(argv) == 0
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_genum_peak_memory(tmp_path):
    """Grouping the pairs as lists of (i, j) tuples peaked at 20 998 989
    to 20 999 786 bytes (Python 3.11); the bound is 90% of that.  Index
    arrays per distance, with each vertex's pair text gathered from them,
    peak at about 16.7 MB."""
    assert genum_peak(tmp_path) <= 18_900_000


def test_genum_streamed_peak_memory(tmp_path):
    """genum writes each section of its JSON, and each vertex's pairs, as
    soon as they exist: about 7.7 MB (Python 3.11), where joining the
    whole report peaked at about 16.7 MB."""
    assert genum_peak(tmp_path) <= 10_000_000


def streamed_peak(tmp_path, argv):
    """tracemalloc peak of one CLI run on the alternating caterpillar of
    400 terminals (depth 399) with 3 columns, and the length of its
    report."""
    n = 400
    write_case(tmp_path, (caterpillar(n, True), None, np.random.default_rng(n).normal(size=(n, 3))))
    argv = argv + ["--dend", str(tmp_path / "tree.json"), "--out", str(tmp_path / "out")]
    assert main(argv) == 0  # argparse and encoder set-up outside the measurement
    tracemalloc.start()
    try:
        assert main(argv) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak, len((tmp_path / "out").read_text())


def test_padic_streamed_peak_memory(tmp_path):
    """padic holds the coefficient text of every terminal once, made in
    its top-down pass, and writes each as it pops it: about 1.07 times
    its 4.0 MB report (Python 3.11), where joining the report peaked at
    4.05 times."""
    peak, size = streamed_peak(tmp_path, ["padic", "--p", "3", "--check-unique"])
    assert peak <= 1.25 * size


def test_chain_streamed_peak_memory(tmp_path):
    """wavelet chain holds the node rows' text and one run of paths:
    about 0.13 times its 12.9 MB report (Python 3.11), where joining the
    report peaked at 2.01 times."""
    peak, size = streamed_peak(tmp_path, ["wavelet", "chain", "--data", str(tmp_path / "data.csv")])
    assert peak <= 0.25 * size
