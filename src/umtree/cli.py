"""Command-line front door.

Subcommands: cluster, wavelet, padic, genum, canon, selftest.
Exit codes: 0 ok, 1 usage error, 2 data error, 3 self-check failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from json.encoder import encode_basestring_ascii
from pathlib import Path

import numpy as np

from . import genlattice, haar, linkage, padic, selftest, symmetry
from .dendrogram import Dendrogram
from .dissim import euclidean_matrix, load_csv, setvalued_table

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_SELFTEST = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _write(path, text):
    if path:
        Path(path).write_text(text)
    else:
        print(text)


def _load_dend(path) -> Dendrogram:
    return Dendrogram.from_json(Path(path).read_text())


def _leaves(values) -> list:
    """JSON text of each number in values, from json's C encoder."""
    return json.dumps(values, separators=(",", ":"))[1:-1].split(",") if values else []


def _leaf_rows(x) -> list:
    """_leaves of each row of a 2-d array, from one encoder call."""
    cells = _leaves(x.ravel().tolist())
    m = x.shape[1]
    return [cells[k:k + m] for k in range(0, len(cells), m)]


def _key(name) -> str:
    """name as json.dumps writes a dict key (non-str keys converted alike)."""
    if isinstance(name, str):
        return encode_basestring_ascii(name)
    return json.dumps({name: 0})[1:-4]


def _block(items, depth, brackets="[]") -> str:
    """Encoded items as json.dumps(indent=2) lays out a list (or, with
    brackets "{}", an object of "key: value" items) opened at depth.

    Nested values in items must already be laid out at depth + 1.
    """
    if not items:
        return brackets
    pad = "\n" + "  " * (depth + 1)
    return brackets[0] + pad + ("," + pad).join(items) + "\n" + "  " * depth + brackets[1]


def _csv_lines(rows) -> list:
    """Each row of a 2-d array as comma-separated %.6f fields."""
    fmt = ",".join(["%.6f"] * rows.shape[1])
    return [fmt % tuple(row) for row in rows.tolist()]


def cmd_cluster(args) -> int:
    table = load_csv(args.input, columns=args.columns)
    crit = linkage.MergeCriterion(args.criterion)
    m = euclidean_matrix(table)
    if crit.reducible:
        dend = linkage.nn_chain_cluster(m, crit, labels=table.row_labels)
    else:
        dend = linkage.naive_cluster(m, crit, labels=table.row_labels)
    if args.levels == "rank":
        dend = dend.with_rank_levels()
    _write(args.out, dend.to_json())
    if args.newick:
        Path(args.newick).write_text(dend.to_newick() + "\n")
    return EXIT_OK


def cmd_wavelet(args) -> int:
    dend = _load_dend(args.dend)
    table = load_csv(args.data)
    ht = haar.forward(dend, table)
    n = dend.n_terminals

    if args.action == "regress":
        ht = haar.threshold_regress(ht, args.tau)

    if args.action == "inverse" or args.action == "regress":
        rows = haar.inverse(ht)
        lines = [",".join(table.col_labels or [f"c{j}" for j in range(rows.shape[1])])]
        _write(args.out, "\n".join(lines + _csv_lines(rows)) + "\n")
        return EXIT_OK

    if args.action == "chain":
        _write(args.out, _chain_json(ht, table.row_labels or [str(t) for t in range(n)]))
        return EXIT_OK

    # forward: coefficient JSON plus optional table-style CSV
    det = np.array([ht.details[r] for r in range(1, n)]).reshape(n - 1, ht.m)  # by rank
    levels = _leaves(list(range(1, n)))
    details = [
        _key(str(n + k)) + ": " + _block([
            '"vector": ' + _block(vector, 3),
            '"level": ' + levels[k],
        ], 2, "{}")
        for k, vector in enumerate(_leaf_rows(det))
    ]
    _write(args.out, _block([
        '"smooth": ' + _block(_leaves(ht.smooth.tolist()), 1),
        '"details": ' + _block(details, 1, "{}"),
    ], 0, "{}"))
    if args.csv:
        cols = [f"s{n - 1}"] + [f"d{r}" for r in range(n - 1, 0, -1)]
        attrs = table.col_labels or [f"c{j}" for j in range(ht.m)]
        vals = np.column_stack([ht.smooth, det[::-1].T])
        lines = ["," + ",".join(cols)]
        lines += [attr + "," + row for attr, row in zip(attrs, _csv_lines(vals))]
        Path(args.csv).write_text("\n".join(lines) + "\n")
    return EXIT_OK


def _chain_json(ht, names) -> str:
    """approximation_chain of every terminal as indent-2 JSON, keyed by name.

    A terminal's partial sums are the rows of the nodes on its root path,
    root first, so each node's row is encoded once and shared; the errors
    of all steps come from one batched norm and one encoder call.
    """
    dend = ht.dend
    rows = haar._node_rows(ht)
    # a step is _block(['"partial": ' + row, '"error": ' + e], 2, "{}"),
    # written out so that only e is joined per step
    head = [
        '{\n      "partial": ' + _block(row, 3) + ',\n      "error": '
        for row in _leaf_rows(rows)
    ]
    down = {dend.root: [dend.root]}  # node -> the nodes from the root down to it
    for node in range(dend.root, dend.n_terminals - 1, -1):
        above = down.pop(node)
        for child in dend.children(node):
            down[child] = above + [child]
    paths = [down[t] for t in range(dend.n_terminals)]
    steps = np.concatenate(paths)
    targets = np.repeat(np.arange(len(paths)), [len(path) for path in paths])
    errors = iter(_leaves(haar._row_norms(rows[steps] - rows[targets]).tolist()))
    terminals = [
        _key(name) + ": " + _block([head[node] + next(errors) + "\n    }" for node in path], 1)
        for name, path in zip(names, paths)
    ]
    del head, down, paths, steps, targets, errors  # freed before the report is joined
    return _block(terminals, 0, "{}")


def cmd_padic(args) -> int:
    dend = _load_dend(args.dend)
    n = dend.n_terminals
    values = padic.decimal_values(dend, args.p)
    # A terminal's coefficients by ascending rank are the (rank, label)
    # items of its root path read upwards, so a child's text is its own
    # item, each item led by its separator, in front of its parent's text.
    # An internal node's text is dropped once both children have theirs.
    sep = ",\n" + "  " * 4
    ranks = _leaves(list(range(n)))
    tail = {dend.root: ""}
    for node in range(dend.root, n - 1, -1):
        a, b = dend.children(node)
        rank, above = ranks[dend.rank(node)], tail.pop(node)
        tail[a] = sep + _block([rank, "1"], 4) + above
        tail[b] = sep + _block([rank, "-1"], 4) + above
    terminals = []
    for t, value in enumerate(_leaves(values)):
        coeffs = tail.pop(t)
        terminals.append(_key(dend.labels[t] if dend.labels else str(t)) + ": " + _block([
            '"coefficients": ' + ("[" + coeffs[1:] + "\n" + "  " * 3 + "]" if coeffs else "[]"),
            '"decimal": ' + value,
        ], 2, "{}"))
    report = [f'"p": {json.dumps(args.p)}', '"terminals": ' + _block(terminals, 1, "{}")]
    if args.check_unique:
        report.append(f'"unique": {json.dumps(len(set(values)) == len(values))}')
    _write(args.out, _block(report, 0, "{}"))
    return EXIT_OK


def cmd_genum(args) -> int:
    table = load_csv(args.input)
    t = setvalued_table(table)
    lattice = genlattice.build_lattice(t)
    attr = table.col_labels or tuple(f"v{j + 1}" for j in range(t.n_attributes))
    obj = table.row_labels or tuple(str(i) for i in range(t.n))

    def setname(s):
        return ",".join(attr[j] for j in sorted(s)) or "{}"

    level = args.level if args.level is not None else t.n_attributes
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
    _write(args.out, json.dumps(report, indent=2))
    if args.text:
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
        Path(args.text).write_text("\n".join(lines) + "\n")
    return EXIT_OK


def cmd_canon(args) -> int:
    dend = _load_dend(args.dend)
    canon, perm = symmetry.canonicalize(dend)
    payload = {**canon.to_dict(), "swapped_nodes": sorted(node for node, s in perm.items() if s)}
    _write(args.out, json.dumps(payload))
    return EXIT_OK


def cmd_selftest(args) -> int:
    checks = selftest.run_selftest()
    print(selftest.format_report(checks))
    return EXIT_OK if all(ok for _, ok, _ in checks) else EXIT_SELFTEST


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="umtree", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("cluster", help="agglomerative clustering of a CSV table")
    p.add_argument("--input", required=True)
    p.add_argument(
        "--criterion", default="ward",
        choices=[c.value for c in linkage.MergeCriterion],
    )
    p.add_argument("--levels", choices=["rank", "cost"], default="cost")
    p.add_argument("--columns", nargs="*", default=None)
    p.add_argument("--out", default=None)
    p.add_argument("--newick", default=None)
    p.set_defaults(func=cmd_cluster)

    p = sub.add_parser("wavelet", help="Haar transform of a dendrogram")
    p.add_argument("action", choices=["forward", "inverse", "chain", "regress"])
    p.add_argument("--dend", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--tau", type=float, default=0.0)
    p.add_argument("--out", default=None)
    p.add_argument("--csv", default=None, help="also write the coefficient table as CSV")
    p.set_defaults(func=cmd_wavelet)

    p = sub.add_parser("padic", help="p-adic terminal codes")
    p.add_argument("--dend", required=True)
    p.add_argument("--p", type=int, default=3)
    p.add_argument("--check-unique", action="store_true")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_padic)

    p = sub.add_parser("genum", help="set-valued distance lattice of a boolean CSV")
    p.add_argument("--input", required=True)
    p.add_argument("--level", type=int, default=None)
    p.add_argument("--out", default=None)
    p.add_argument("--text", default=None, help="also write a text rendering")
    p.set_defaults(func=cmd_genum)

    p = sub.add_parser("canon", help="canonical child order")
    p.add_argument("--dend", required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_canon)

    p = sub.add_parser("selftest", help="golden checks on the embedded datasets")
    p.set_defaults(func=cmd_selftest)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, KeyError, IndexError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
