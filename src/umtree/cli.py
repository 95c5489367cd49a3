"""Command-line front door.

Subcommands: cluster, wavelet, padic, genum, canon, selftest.
Exit codes: 0 ok, 1 usage error, 2 data error, 3 self-check failure.
"""

from __future__ import annotations

import argparse
import json
import sys
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


def _fmt(x: float) -> str:
    return f"{x:.6f}"


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
        lines += [",".join(_fmt(v) for v in row) for row in rows]
        _write(args.out, "\n".join(lines) + "\n")
        return EXIT_OK

    if args.action == "chain":
        report = {}
        for t in range(n):
            chain = haar.approximation_chain(ht, t)
            name = table.row_labels[t] if table.row_labels else str(t)
            report[name] = [
                {"partial": [float(v) for v in vec], "error": err}
                for vec, err in chain
            ]
        _write(args.out, json.dumps(report, indent=2))
        return EXIT_OK

    # forward: coefficient JSON plus optional table-style CSV
    coeffs = {
        "smooth": [float(v) for v in ht.smooth],
        "details": {
            str(n - 1 + r): {"vector": [float(v) for v in d], "level": r}
            for r, d in sorted(ht.details.items())
        },
    }
    _write(args.out, json.dumps(coeffs, indent=2))
    if args.csv:
        cols = [f"s{n - 1}"] + [f"d{r}" for r in range(n - 1, 0, -1)]
        lines = ["," + ",".join(cols)]
        attrs = table.col_labels or [f"c{j}" for j in range(ht.m)]
        for j, attr in enumerate(attrs):
            vals = [ht.smooth[j]] + [ht.details[r][j] for r in range(n - 1, 0, -1)]
            lines.append(attr + "," + ",".join(_fmt(v) for v in vals))
        Path(args.csv).write_text("\n".join(lines) + "\n")
    return EXIT_OK


def cmd_padic(args) -> int:
    dend = _load_dend(args.dend).with_rank_levels()
    values = padic.decimal_values(dend, args.p)
    out = {}
    for t, (code, value) in enumerate(zip(padic.encode_all(dend, args.p), values)):
        name = dend.labels[t] if dend.labels else str(t)
        out[name] = {
            "coefficients": [[j, c] for j, c in sorted(code.as_dict().items())],
            "decimal": value,
        }
    report = {"p": args.p, "terminals": out}
    if args.check_unique:
        report["unique"] = len(set(values)) == len(values)
    _write(args.out, json.dumps(report, indent=2))
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
    payload = json.loads(canon.to_json())
    payload["swapped_nodes"] = sorted(node for node, s in perm.items() if s)
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
