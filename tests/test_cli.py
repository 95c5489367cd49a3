import json
import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

import umtree
from umtree import cli, linkage
from umtree.cli import main
from umtree.datasets import bool5, iris8
from umtree.dissim import euclidean_matrix, load_csv

from conftest import ROUNDING_INVERSIONS

DATA = Path(__file__).parent / "data"


def write_iris(path):
    data = iris8()
    lines = ["," + ",".join(data.col_labels)]
    for label, row in zip(data.row_labels, data.values):
        lines.append(label + "," + ",".join(str(v) for v in row))
    path.write_text("\n".join(lines) + "\n")


def write_bool5(path):
    data = bool5()
    lines = ["," + ",".join(data.col_labels)]
    for label, row in zip(data.row_labels, data.values):
        lines.append(label + "," + ",".join(str(int(v)) for v in row))
    path.write_text("\n".join(lines) + "\n")


@pytest.fixture
def iris_csv(tmp_path):
    p = tmp_path / "iris8.csv"
    write_iris(p)
    return p


@pytest.fixture
def dend_json(tmp_path, iris_csv):
    out = tmp_path / "dend.json"
    assert main([
        "cluster", "--input", str(iris_csv), "--criterion", "median",
        "--out", str(out),
    ]) == 0
    return out


class TestCluster:
    def test_writes_dendrogram(self, dend_json):
        obj = json.loads(dend_json.read_text())
        assert obj["n_terminals"] == 8
        assert len(obj["merges"]) == 7
        assert [m[:2] for m in obj["merges"]][0] == [0, 4]

    def test_rank_levels(self, tmp_path, iris_csv):
        out = tmp_path / "d.json"
        main([
            "cluster", "--input", str(iris_csv), "--criterion", "ward",
            "--levels", "rank", "--out", str(out),
        ])
        levels = [m[2] for m in json.loads(out.read_text())["merges"]]
        assert levels == [float(r) for r in range(1, 8)]

    def test_newick_export(self, tmp_path, iris_csv):
        out = tmp_path / "d.json"
        nwk = tmp_path / "d.nwk"
        main([
            "cluster", "--input", str(iris_csv), "--criterion", "single",
            "--out", str(out), "--newick", str(nwk),
        ])
        assert nwk.read_text().strip().endswith(";")

    def test_newick_deep_caterpillar(self, tmp_path):
        # single linkage chains these rows into a tree of depth n - 1
        n = 1500
        x = np.cumsum(np.arange(1, n + 1.0))
        data = tmp_path / "chain.csv"
        data.write_text(",a\n" + "".join(f"r{i},{v!r}\n" for i, v in enumerate(x.tolist())))
        nwk = tmp_path / "d.nwk"
        assert main([
            "cluster", "--input", str(data), "--criterion", "single",
            "--out", str(tmp_path / "d.json"), "--newick", str(nwk),
        ]) == 0
        text = nwk.read_text()
        # a terminal has the smaller id, so it is the left child
        assert text.startswith(f"(r{n - 1}:{n},(r{n - 2}:{n - 1},")
        assert text.endswith("(r0:2,r1:2)" + ":1)" * (n - 2) + ";\n")

    @pytest.mark.parametrize("crit", sorted(ROUNDING_INVERSIONS))
    def test_rounding_inversion_grid(self, tmp_path, crit):
        data = tmp_path / "grid.csv"
        rows = ROUNDING_INVERSIONS[crit]
        data.write_text(
            "," + ",".join(f"c{j}" for j in range(rows.shape[1])) + "\n"
            + "".join(f"r{i}," + ",".join(map(repr, row.tolist())) + "\n" for i, row in enumerate(rows))
        )
        out = tmp_path / "d.json"
        assert main(["cluster", "--input", str(data), "--criterion", crit, "--out", str(out)]) == 0
        merges = json.loads(out.read_text())["merges"]
        n = len(merges) + 1
        for a, b, lev in merges:
            assert all(c < n or merges[c - n][2] <= lev for c in (a, b))

    def test_empty_csv_data_error(self, tmp_path):
        bad = tmp_path / "empty.csv"
        bad.write_text("")
        assert main(["cluster", "--input", str(bad), "--out", "x"]) == 2

    def test_missing_input_named(self, tmp_path, capsys):
        path = str(tmp_path / "no_such.csv")
        assert main(["cluster", "--input", path, "--out", "x"]) == 2
        assert path in capsys.readouterr().err

    @pytest.mark.parametrize("body, line", [
        ("r1,1,2\nr2,3\n", "line 3 (row 'r2') has 2 fields"),
        ("r1,1,2,4\nr2,3,5\n", "line 2 (row 'r1') has 4 fields"),
    ])
    def test_ragged_row_named(self, tmp_path, capsys, body, line):
        bad = tmp_path / "ragged.csv"
        bad.write_text(",a,b\n" + body)
        assert main(["cluster", "--input", str(bad), "--out", str(tmp_path / "x")]) == 2
        err = capsys.readouterr().err
        assert line in err
        assert "expected 3" in err

    def test_duplicate_row_label_named(self, tmp_path, capsys):
        # clustering would succeed, but padic and chain would list 2 terminals
        bad = tmp_path / "dup.csv"
        bad.write_text(",x,y\na,1,2\na,3,5\nb,0,1\n")
        assert main(["cluster", "--input", str(bad), "--out", str(tmp_path / "t.json")]) == 2
        assert "CSV line 3 repeats row label 'a' of line 2" in capsys.readouterr().err
        assert not (tmp_path / "t.json").exists()

    @pytest.mark.parametrize("body, argv, message", [
        (",a,b\nr1,1,2\n", ["--columns", "zz"], "no column 'zz'; the columns are a, b"),
        (",a,b\nr1,1,2\n", ["--columns", "a", "b", "a"], "column 'a' selected twice"),
        (",a,b, a\nr1,1,2,3\n", [], "CSV column 4 repeats column label 'a' of column 2"),
        ("a,b,b\n0,1,2\n", [], "CSV column 3 repeats column label 'b' of column 2"),
        (",a,b\nr1,1,2\nr2,x,3\n", [], "CSV line 3, column 'a': 'x' is not a number"),
        ("a,b\n0,1\nnan,2\n", [], "CSV line 3, column 'a': 'nan' is not a finite number"),
        (",a,b\nr1,1,2\nr2,3,1e999\n", [], "CSV line 3, column 'b': '1e999' is not a finite number"),
        ("a\n0\n1e160\n3e160\n7e160\n", [],
         "a squared Euclidean distance overflows float64"),
        ("x\na\nb\n", [], "CSV line 2, column 'x': 'a' is not a number, "
         "so the column holds row labels and no data column is left"),
    ])
    def test_bad_table_named(self, tmp_path, capsys, body, argv, message):
        bad = tmp_path / "bad.csv"
        bad.write_text(body)
        out = tmp_path / "t.json"
        assert main(["cluster", "--input", str(bad), "--out", str(out), *argv]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_usage_error_exit_1(self):
        with pytest.raises(SystemExit) as exc:
            main(["cluster"])  # --input missing
        assert exc.value.code == 1

    def test_deterministic_output(self, tmp_path, iris_csv):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for out in (a, b):
            main([
                "cluster", "--input", str(iris_csv),
                "--criterion", "median", "--out", str(out),
            ])
        assert a.read_bytes() == b.read_bytes()


class TestWavelet:
    def test_forward_table_csv(self, tmp_path, iris_csv, dend_json):
        coeffs = tmp_path / "coeffs.json"
        table = tmp_path / "table.csv"
        assert main([
            "wavelet", "forward", "--dend", str(dend_json),
            "--data", str(iris_csv), "--out", str(coeffs), "--csv", str(table),
        ]) == 0
        obj = json.loads(coeffs.read_text())
        np.testing.assert_allclose(
            obj["smooth"], [5.146875, 3.603125, 1.5625, 0.30625]
        )
        assert obj["details"]["14"]["level"] == 7
        lines = table.read_text().splitlines()
        assert lines[0] == ",s7,d7,d6,d5,d4,d3,d2,d1"
        assert lines[1].split(",")[1] == "5.146875"

    def test_inverse_round_trip(self, tmp_path, iris_csv, dend_json):
        out = tmp_path / "back.csv"
        main([
            "wavelet", "inverse", "--dend", str(dend_json),
            "--data", str(iris_csv), "--out", str(out),
        ])
        rows = [
            [float(v) for v in line.split(",")]
            for line in out.read_text().splitlines()[1:]
        ]
        np.testing.assert_allclose(rows, iris8().values, atol=1e-6)

    def test_chain_report(self, tmp_path, iris_csv, dend_json):
        out = tmp_path / "chain.json"
        main([
            "wavelet", "chain", "--dend", str(dend_json),
            "--data", str(iris_csv), "--out", str(out),
        ])
        report = json.loads(out.read_text())
        assert set(report) == {f"x{i}" for i in range(1, 9)}
        for steps in report.values():
            assert steps[-1]["error"] == pytest.approx(0.0, abs=1e-9)

    def test_regress(self, tmp_path, iris_csv, dend_json):
        out = tmp_path / "smoothed.csv"
        assert main([
            "wavelet", "regress", "--dend", str(dend_json),
            "--data", str(iris_csv), "--tau", "1e9", "--out", str(out),
        ]) == 0
        rows = {line for line in out.read_text().splitlines()[1:]}
        assert len(rows) == 1  # every row collapsed to the smooth

    def test_regress_nan_tau_is_data_error(self, tmp_path, iris_csv, dend_json, capsys):
        out = tmp_path / "smoothed.csv"
        assert main([
            "wavelet", "regress", "--dend", str(dend_json),
            "--data", str(iris_csv), "--tau", "nan", "--out", str(out),
        ]) == 2
        assert "threshold nan" in capsys.readouterr().err
        assert not out.exists()

    @pytest.fixture
    def xyzw(self, tmp_path):
        """A tree clustered from rows labelled x, y, z, w."""
        (tmp_path / "d.csv").write_text(",a,b\nx,0,0\ny,1,0\nz,0,3\nw,4,4\n")
        tree = tmp_path / "t.json"
        assert main(["cluster", "--input", str(tmp_path / "d.csv"), "--out", str(tree)]) == 0
        return tree

    @pytest.mark.parametrize("action", ["forward", "inverse", "chain", "regress"])
    def test_reordered_rows_rejected(self, tmp_path, capsys, xyzw, action):
        # paired by position, terminal 0 ("x") would get the row of "w"
        data, out = tmp_path / "r.csv", tmp_path / "out"
        data.write_text(",a,b\nw,4,4\nz,0,3\ny,1,0\nx,0,0\n")
        argv = ["wavelet", action, "--dend", str(xyzw), "--data", str(data), "--out", str(out)]
        assert main(argv) == 2
        assert "error: data row 1 is 'w', but tree terminal 0 is 'x'" in capsys.readouterr().err
        assert not out.exists()

    def test_missing_rows_named_before_labels(self, tmp_path, capsys, xyzw):
        data = tmp_path / "p.csv"
        data.write_text(",a,b\nx,0,0\ny,1,0\n")  # the first two of the tree's labels
        assert main(["wavelet", "chain", "--dend", str(xyzw), "--data", str(data)]) == 2
        assert "2 rows for 4 terminals" in capsys.readouterr().err


class TestPadic:
    def test_codes_json(self, tmp_path, dend_json):
        out = tmp_path / "padic.json"
        assert main([
            "padic", "--dend", str(dend_json), "--p", "3",
            "--check-unique", "--out", str(out),
        ]) == 0
        obj = json.loads(out.read_text())
        assert obj["p"] == 3
        assert obj["unique"] is True
        code = dict(map(tuple, obj["terminals"]["x6"]["coefficients"]))
        assert code == {7: 1}  # root-adjacent terminal

    def test_duplicate_tree_labels_rejected(self, tmp_path, dend_json, capsys):
        tree = json.loads(dend_json.read_text())
        tree["labels"][7] = tree["labels"][0]
        edited = tmp_path / "edited.json"
        edited.write_text(json.dumps(tree))
        assert main(["padic", "--dend", str(edited), "--out", str(tmp_path / "p.json")]) == 2
        assert "label 'x1' repeated (terminals 0 and 7)" in capsys.readouterr().err

    def test_non_prime_rejected(self, dend_json):
        assert main(["padic", "--dend", str(dend_json), "--p", "4"]) == 2


class TestGenum:
    def test_lattice_json(self, tmp_path):
        csv = tmp_path / "bool.csv"
        write_bool5(csv)
        out = tmp_path / "lattice.json"
        assert main([
            "genum", "--input", str(csv), "--level", "3", "--out", str(out),
        ]) == 0
        obj = json.loads(out.read_text())
        assert {tuple(v["set"]) for v in obj["vertices"]} == {
            ("v2",), ("v1", "v2"), ("v2", "v3"), ("v1", "v2", "v3"),
        }
        assert obj["clusters"]["3"] == [["a", "b", "c", "e", "f"]]

    def test_level_2_cluster(self, tmp_path):
        csv = tmp_path / "bool.csv"
        write_bool5(csv)
        out = tmp_path / "lattice.json"
        main(["genum", "--input", str(csv), "--level", "2", "--out", str(out)])
        clusters = json.loads(out.read_text())["clusters"]["2"]
        assert ["a", "b", "c", "f"] in clusters

    def test_text_rendering(self, tmp_path):
        csv = tmp_path / "bool.csv"
        write_bool5(csv)
        out = tmp_path / "lattice.json"
        txt = tmp_path / "lattice.txt"
        main([
            "genum", "--input", str(csv), "--level", "2",
            "--out", str(out), "--text", str(txt),
        ])
        text = txt.read_text()
        assert "v1,v2,v3" in text
        assert "d(a,c)" in text

    def test_repeated_column_label_rejected(self, tmp_path, capsys):
        # two vertices named "a", and a "pairs" object with a repeated key
        bad = tmp_path / "dup.csv"
        bad.write_text(",a,a\nx,1,0\ny,1,1\n")
        out = tmp_path / "g.json"
        assert main(["genum", "--input", str(bad), "--out", str(out)]) == 2
        assert "CSV column 3 repeats column label 'a' of column 2" in capsys.readouterr().err
        assert not out.exists()

    def test_stdout_is_the_file_and_a_newline(self, tmp_path, capsys):
        argv = ["genum", "--input", str(DATA / "genum_40x5.csv"), "--level", "2"]
        assert main(argv + ["--out", str(tmp_path / "g.json")]) == 0
        capsys.readouterr()
        assert main(argv) == 0
        assert capsys.readouterr().out == (tmp_path / "g.json").read_text() + "\n"

    def test_non_boolean_rejected(self, tmp_path, iris_csv, capsys):
        assert main(["genum", "--input", str(iris_csv), "--out", "x"]) == 2
        assert "only 0 and 1" in capsys.readouterr().err

    def test_golden_40x5(self, tmp_path):
        # the expected bytes were written by the frozenset implementation of
        # the set-valued layer; genum output must not change with its engine
        out, txt = tmp_path / "lattice.json", tmp_path / "lattice.txt"
        assert main([
            "genum", "--input", str(DATA / "genum_40x5.csv"), "--level", "2",
            "--out", str(out), "--text", str(txt),
        ]) == 0
        assert out.read_bytes() == (DATA / "genum_40x5_level2.json").read_bytes()
        assert txt.read_bytes() == (DATA / "genum_40x5_level2.txt").read_bytes()


class TestTreeGoldens:
    # the expected bytes were written by the per-terminal implementation of
    # the tree layers (root-path walks, frozenset members); a single-linkage
    # tree of 60 rows with a long chain (depth 38)
    TREE = DATA / "single_60x3.tree.json"
    CSV = DATA / "single_60x3.csv"

    def test_cluster_reproduces_tree(self, tmp_path):
        out = tmp_path / "tree.json"
        assert main([
            "cluster", "--input", str(self.CSV), "--criterion", "single", "--out", str(out),
        ]) == 0
        assert out.read_bytes() == self.TREE.read_bytes()

    @pytest.mark.parametrize("argv, expected", [
        (["padic", "--p", "2"], "padic2.json"),
        (["padic", "--p", "3", "--check-unique"], "padic3.json"),
        (["wavelet", "inverse", "--data", str(CSV)], "inverse.csv"),
        (["wavelet", "regress", "--data", str(CSV), "--tau", "4.0"], "regress.csv"),
        (["canon"], "canon.json"),
        # written by the json.dumps(indent=2) writers of forward and chain
        (["wavelet", "forward", "--data", str(CSV), "--csv", "forward.csv"], "forward.json"),
        (["wavelet", "chain", "--data", str(CSV)], "chain.json"),
    ])
    def test_golden(self, tmp_path, monkeypatch, argv, expected):
        monkeypatch.chdir(tmp_path)  # relative output names land in tmp_path
        assert main(argv + ["--dend", str(self.TREE), "--out", expected]) == 0
        names = [expected] + [argv[i + 1] for i, a in enumerate(argv) if a == "--csv"]
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(names)
        for name in names:
            assert (tmp_path / name).read_bytes() == (DATA / f"single_60x3.{name}").read_bytes()


def test_cli_import_leaves_out_networkx():
    src = Path(umtree.__file__).resolve().parents[1]
    code = "import sys, umtree.cli; print('networkx' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": str(src)}
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=60)
    assert run.stdout.strip() == "False"


def test_cli_import_leaves_out_decimal():
    """decimal is imported by padic's writer when it runs; setup_s times
    the import of umtree.cli."""
    src = Path(umtree.__file__).resolve().parents[1]
    code = "import sys, umtree.cli; print('decimal' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": str(src)}
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=60)
    assert run.stdout.strip() == "False"


class TestCanon:
    def test_canonical_output(self, tmp_path, dend_json):
        out = tmp_path / "canon.json"
        assert main(["canon", "--dend", str(dend_json), "--out", str(out)]) == 0
        obj = json.loads(out.read_text())
        assert "swapped_nodes" in obj
        assert len(obj["merges"]) == 7


    @pytest.mark.parametrize("bad", ["NaN", "Infinity"])
    def test_non_finite_level_rejected(self, tmp_path, capsys, bad):
        tree = tmp_path / "t.json"
        tree.write_text('{"n_terminals": 2, "merges": [[0, 1, %s]]}' % bad)
        out = tmp_path / "canon.json"
        assert main(["canon", "--dend", str(tree), "--out", str(out)]) == 2
        assert "not finite and nonnegative" in capsys.readouterr().err
        assert not out.exists()


    @pytest.mark.parametrize("tree, message", [
        ('{"n_terminals": 2}', "tree JSON has no 'merges' key"),
        ("[0, 1]", "tree JSON has no 'n_terminals' key"),
        ('{"n_terminals": 2, "merges": [[0, 1]]}', "merge 1 is [0, 1], expected [a, b, level]"),
        ('{"n_terminals": 2, "merges": 3}', "tree JSON 'merges' is 3, not a list"),
        ('{"n_terminals": [2], "merges": [[0, 1, 1.0]]}', "tree JSON 'n_terminals' is [2], not an integer"),
        ('{"n_terminals": 2.5, "merges": [[0, 1, 1.0]]}', "tree JSON 'n_terminals' is 2.5, not an integer"),
        ('{"n_terminals": true, "merges": []}', "tree JSON 'n_terminals' is True, not an integer"),
        ('{"n_terminals": 2, "merges": [[0, 1, 1.0]], "labels": 5}', "tree JSON 'labels' is 5, not a list"),
        ('{"n_terminals": 2, "merges": [[0, 1, 1.0]], "labels": "ab"}',
         "tree JSON 'labels' is 'ab', not a list"),
    ])
    def test_malformed_tree_named(self, tmp_path, capsys, tree, message):
        path = tmp_path / "t.json"
        path.write_text(tree)
        assert main(["canon", "--dend", str(path), "--out", str(tmp_path / "c.json")]) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("tree, message", [
        ('{"n_terminals": 3, "merges": [[0, 1, 1], [2.9, 3, 2]]}',
         "merge 2 is [2.9, 3, 2], expected [a, b, level]"),
        ('{"n_terminals": 3, "merges": [[0, 1, 1], ["2", 3, 2]]}',
         "merge 2 is ['2', 3, 2], expected [a, b, level]"),
        ('{"n_terminals": 3, "merges": [[0, 1, 1], [true, 3, 2]]}',
         "merge 2 is [True, 3, 2], expected [a, b, level]"),
        ('{"n_terminals": 2, "merges": [[0, 1, "1"]]}', "merge 1 is [0, 1, '1'], expected [a, b, level]"),
        ('{"n_terminals": 2, "merges": [[0, 1, true]]}', "merge 1 is [0, 1, True], expected [a, b, level]"),
        ('{"n_terminals": true, "merges": []}', "tree JSON 'n_terminals' is True, not an integer"),
    ])
    @pytest.mark.parametrize("argv", [
        ["canon", "--dend", "{tree}"],
        ["padic", "--dend", "{tree}"],
        ["wavelet", "forward", "--dend", "{tree}", "--data", "{csv}"],
    ])
    def test_mistyped_tree_named(self, tmp_path, capsys, iris_csv, argv, tree, message):
        path = tmp_path / "tree.json"
        path.write_text(tree)
        args = [a.format(tree=path, csv=iris_csv) for a in argv]
        assert main([*args, "--out", str(tmp_path / "o.json")]) == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "o.json").exists()

    @pytest.mark.parametrize("argv", [
        ["canon", "--dend", "{tree}"],
        ["padic", "--dend", "{tree}"],
        ["wavelet", "forward", "--dend", "{tree}", "--data", "{csv}"],
    ])
    def test_tree_not_json_named(self, tmp_path, capsys, iris_csv, argv):
        tree = tmp_path / "tree.json"
        tree.write_text("not json\n")
        args = [a.format(tree=tree, csv=iris_csv) for a in argv]
        assert main([*args, "--out", str(tmp_path / "o.json")]) == 2
        err = capsys.readouterr().err
        assert f"error: {tree}: Expecting value: line 1 column 1 (char 0)" in err
        assert not (tmp_path / "o.json").exists()


class TestSharedParser:
    """main builds its parser once per process, and no call leaves
    anything behind in it for the next."""

    def test_parser_built_once(self, tmp_path, iris_csv, dend_json):
        tree = tmp_path / "t.json"
        assert main(["cluster", "--input", str(iris_csv), "--out", str(tree)]) == 0
        with mock.patch.object(cli, "_Parser", side_effect=AssertionError):
            assert main(["cluster", "--input", str(iris_csv), "--out", str(tree)]) == 0
            assert main(["canon", "--dend", str(dend_json), "--out", str(tmp_path / "k.json")]) == 0
            assert main(["padic", "--dend", str(dend_json), "--out", str(tmp_path / "p.json")]) == 0
            assert main(["wavelet", "inverse", "--dend", str(dend_json), "--data", str(iris_csv),
                         "--out", str(tmp_path / "w.csv")]) == 0
            assert main(["genum", "--input", str(DATA / "genum_40x5.csv"),
                         "--out", str(tmp_path / "g.json")]) == 0
            with pytest.raises(SystemExit) as exc:
                main(["padic"])
            assert exc.value.code == 1
        assert cli.build_parser() is cli.build_parser()

    def test_columns_do_not_carry_over(self, tmp_path, iris_csv):
        part, full = tmp_path / "part.json", tmp_path / "full.json"
        assert main(["cluster", "--input", str(iris_csv), "--columns", "Sepal.L",
                     "--out", str(part)]) == 0
        assert main(["cluster", "--input", str(iris_csv), "--out", str(full)]) == 0
        table = load_csv(str(iris_csv))
        want = linkage.nn_chain_cluster(euclidean_matrix(table), "ward", labels=table.row_labels)
        assert full.read_text() == want.to_json()
        assert part.read_bytes() != full.read_bytes()

    @pytest.mark.parametrize("bad, code", [(["cluster"], 1), (["cluster", "--help"], 0)])
    def test_exit_leaves_parser_usable(self, tmp_path, capsys, iris_csv, bad, code):
        cli.build_parser.cache_clear()  # the next call builds the parser afresh
        argv = ["cluster", "--input", str(iris_csv), "--criterion", "median"]
        assert main([*argv, "--out", str(tmp_path / "first.json")]) == 0
        with pytest.raises(SystemExit) as exc:
            main(bad)
        assert exc.value.code == code
        capsys.readouterr()
        assert main([*argv, "--out", str(tmp_path / "again.json")]) == 0
        assert (tmp_path / "again.json").read_bytes() == (tmp_path / "first.json").read_bytes()


class TestComposition:
    def test_cluster_output_feeds_every_subcommand(self, tmp_path, iris_csv, dend_json):
        assert main([
            "wavelet", "forward", "--dend", str(dend_json),
            "--data", str(iris_csv), "--out", str(tmp_path / "c.json"),
        ]) == 0
        assert main([
            "padic", "--dend", str(dend_json), "--out", str(tmp_path / "p.json"),
        ]) == 0
        assert main([
            "canon", "--dend", str(dend_json), "--out", str(tmp_path / "k.json"),
        ]) == 0


class TestSelftest:
    def test_all_checks_pass(self, capsys):
        assert main(["selftest"]) == 0
        out = capsys.readouterr().out
        assert "FAIL" not in out
        assert out.count("PASS") >= 10

    def test_detail_signs_checked(self, capsys, monkeypatch):
        from umtree import selftest

        monkeypatch.setattr(selftest, "IRIS8_DETAILS", -selftest.IRIS8_DETAILS)
        assert main(["selftest"]) == cli.EXIT_SELFTEST
        assert "FAIL  iris8 haar detail vectors" in capsys.readouterr().out
