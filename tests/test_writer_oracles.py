"""The CLI writers against the dict-building code they replaced, kept here
as the oracle.

padic and wavelet (forward, chain, inverse) lay out their JSON from
per-node text; every output must be the bytes json.dumps(obj, indent=2)
gives for the old report dict, and every CSV the bytes of the old
per-value loop.  Labels carry quotes, backslashes, control and non-ASCII
characters; rows of +-1e308 overflow the smooths to Infinity and the
chain errors to NaN.
"""

import csv
import io
import json
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from test_tree_oracles import dendrograms

from umtree import Dendrogram, euclidean_matrix, haar, nn_chain_cluster, padic
from umtree.cli import main
from umtree.dissim import load_csv

pytestmark = pytest.mark.filterwarnings("ignore::RuntimeWarning")  # overflowed rows


# -- oracles: the previous writers --------------------------------------------


def _fmt(x: float) -> str:
    return f"{x:.6f}"


def oracle_padic(dend, p, check_unique):
    dend = dend.with_rank_levels()
    values = padic.decimal_values(dend, p)
    out = {}
    for t, (code, value) in enumerate(zip(padic.encode_all(dend, p), values)):
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
            for r, d in sorted(ht.details.items())
        },
    }
    cols = [f"s{n - 1}"] + [f"d{r}" for r in range(n - 1, 0, -1)]
    lines = ["," + ",".join(cols)]
    attrs = table.col_labels or [f"c{j}" for j in range(ht.m)]
    for j, attr in enumerate(attrs):
        vals = [ht.smooth[j]] + [ht.details[r][j] for r in range(n - 1, 0, -1)]
        lines.append(attr + "," + ",".join(_fmt(v) for v in vals))
    return json.dumps(coeffs, indent=2), "\n".join(lines) + "\n"


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
    dend, _, _ = case
    with tempfile.TemporaryDirectory() as d:
        tmp = Path(d)
        write_case(tmp, case)
        for p in (2, 3):
            for flag in ([], ["--check-unique"]):
                got = run(tmp, ["padic", "--p", str(p)] + flag)
                assert got == oracle_padic(dend, p, bool(flag))

        data = ["--data", str(tmp / "data.csv")]
        table = load_csv(tmp / "data.csv")
        ht = haar.forward(Dendrogram.from_json((tmp / "tree.json").read_text()), table)
        want_json, want_csv = oracle_forward(ht, table)
        assert run(tmp, ["wavelet", "forward", "--csv", str(tmp / "table.csv")] + data) == want_json
        assert (tmp / "table.csv").read_text(encoding="utf-8") == want_csv
        assert run(tmp, ["wavelet", "chain"] + data) == oracle_chain(ht, table)
        rows = np.array([haar.reconstruct_one(ht, t) for t in range(dend.n_terminals)])
        assert run(tmp, ["wavelet", "inverse"] + data) == oracle_rows_csv(rows, table)


# -- deep and large trees ------------------------------------------------------


def caterpillar(n, alternate):
    """A tree of depth n - 1: merge r joins the tree so far with terminal r,
    the tree on the left, or on alternating sides when alternate."""
    merges, node = [], 0
    for r in range(1, n):
        merges.append((r, node, float(r)) if alternate and r % 2 else (node, r, float(r)))
        node = n - 1 + r
    return Dendrogram(n, tuple(merges))


@pytest.mark.parametrize("alternate", [False, True])
def test_writers_on_caterpillar(tmp_path, alternate):
    n = 300
    dend = caterpillar(n, alternate)
    x = np.random.default_rng(300 + alternate).normal(size=(n, 3))
    write_case(tmp_path, (dend, None, x))
    for p in (2, 3):
        got = run(tmp_path, ["padic", "--p", str(p), "--check-unique"])
        assert got == oracle_padic(dend, p, True)
    data = ["--data", str(tmp_path / "data.csv")]
    table = load_csv(tmp_path / "data.csv")
    ht = haar.forward(dend, table)
    want_json, want_csv = oracle_forward(ht, table)
    assert run(tmp_path, ["wavelet", "forward", "--csv", str(tmp_path / "table.csv")] + data) == want_json
    assert (tmp_path / "table.csv").read_text() == want_csv
    assert run(tmp_path, ["wavelet", "chain"] + data) == oracle_chain(ht, table)


def test_padic_writes_no_per_terminal_codes(tmp_path, monkeypatch):
    """padic reads the coefficients off the tree; it builds no PadicCode
    per terminal and no rank-level copy of the tree."""

    def refuse(*args, **kwargs):
        raise AssertionError("padic called a per-terminal encoder")

    monkeypatch.setattr(padic, "encode_all", refuse)
    monkeypatch.setattr(padic, "encode", refuse)
    monkeypatch.setattr(Dendrogram, "with_rank_levels", refuse)
    (tmp_path / "tree.json").write_text(caterpillar(40, True).to_json())
    assert json.loads(run(tmp_path, ["padic", "--p", "3"]))["terminals"]["39"] == {
        "coefficients": [[39, 1]], "decimal": 3**39,
    }


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
