"""Command-line front door.

Subcommands: cluster, wavelet, padic, genum, canon, selftest.
Exit codes: 0 ok, 1 usage error, 2 data error, 3 self-check failure.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import os
import stat
import sys
from json.encoder import encode_basestring_ascii
from pathlib import Path

import numpy as np

from . import genlattice, haar, linkage, padic, selftest, symmetry
from .dendrogram import Dendrogram
from .dissim import euclidean_matrix, load_csv, setvalued_table, to_mask

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_SELFTEST = 3

# runs of entries cost less than a write per entry or a norm per chain path
_WRITE_CHARS = 1 << 16  # characters per write of a streamed report
_CHAIN_STEPS = 1 << 12  # steps per run of wavelet chain errors


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _overwrite(path, flags):
    """open()'s opener for "w" without O_TRUNC: the old bytes stay until
    they are written over, which costs less than truncating them first."""
    return os.open(path, flags & ~os.O_TRUNC, 0o666)


@contextlib.contextmanager
def _opened(path):
    """The stream a report is written to, whole or piece by piece: the
    file at path, or stdout, ended with a newline as print ends it.

    A file is written over in place, and a regular one is then cut to
    what was written, even if the writing fails; /dev/null is not cut."""
    if path:
        with open(path, "w", opener=_overwrite) as fh:
            try:
                yield fh
            finally:
                if stat.S_ISREG(os.fstat(fh.fileno()).st_mode):
                    fh.truncate()
    else:
        yield sys.stdout
        sys.stdout.write("\n")


def _write(path, text):
    with _opened(path) as fh:
        fh.write(text)


def _load_dend(path) -> Dendrogram:
    text = Path(path).read_text()
    try:
        return Dendrogram.from_json(text)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc


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
    sep = ",\n" + "  " * (depth + 1)
    return brackets[0] + sep[1:] + sep.join(items) + "\n" + "  " * depth + brackets[1]


def _batches(items, size, budget):
    """Runs of consecutive items, each closed once its items' sizes reach budget."""
    run, total = [], 0
    for item in items:
        run.append(item)
        total += size(item)
        if total >= budget:
            yield run
            run, total = [], 0
    if run:
        yield run


def _write_block(fh, items, depth, brackets):
    """Write _block(items, depth, brackets) to fh in runs of _WRITE_CHARS
    characters or so: items may be a generator, and no run outlives its write."""
    sep = ",\n" + "  " * (depth + 1)
    lead = brackets[0] + sep[1:]
    for run in _batches(items, len, _WRITE_CHARS):
        fh.write(lead + sep.join(run))
        lead = sep
    fh.write("\n" + "  " * depth + brackets[1] if lead == sep else brackets)


def _csv_lines(rows, heads=None) -> str:
    """The rows of a 2-d array as lines of comma-separated %.6f fields,
    each led by its head and a comma when heads are given, formatted by
    one % over the whole array."""
    fields = ",".join(["%.6f"] * rows.shape[1])
    lines = [fields] * rows.shape[0] if heads is None else [
        head.replace("%", "%%") + "," + fields for head in heads]
    return "\n".join(lines) % tuple(rows.ravel().tolist())


def cmd_cluster(args) -> int:
    table = load_csv(args.input, columns=args.columns)
    crit = linkage.MergeCriterion(args.criterion)
    m = euclidean_matrix(table)
    # nothing reads m again, so the chain and naive drivers work in it
    if crit is linkage.MergeCriterion.SINGLE:
        dend = linkage.mst_cluster(m, labels=table.row_labels)
    elif crit.reducible:
        dend = linkage.nn_chain_cluster(m, crit, labels=table.row_labels, overwrite_input=True)
    else:
        dend = linkage.naive_cluster(m, crit, labels=table.row_labels, overwrite_input=True)
    if args.levels == "rank":
        dend = dend.with_rank_levels()
    _write(args.out, dend.to_json())
    if args.newick:
        _write(args.newick, dend.to_newick() + "\n")
    return EXIT_OK


def cmd_wavelet(args) -> int:
    dend = _load_dend(args.dend)
    table = load_csv(args.data)
    ht = haar.forward(dend, table)  # checks the row count, so the labels pair up
    n = dend.n_terminals
    if dend.labels and table.row_labels:
        for t, (row, label) in enumerate(zip(table.row_labels, dend.labels)):
            if row != label:
                raise ValueError(f"data row {t + 1} is {row!r}, but tree terminal {t} is {label!r}")

    if args.action == "regress":
        ht = haar.threshold_regress(ht, args.tau)

    if args.action == "inverse" or args.action == "regress":
        rows = haar.inverse(ht)
        header = ",".join(table.col_labels or [f"c{j}" for j in range(rows.shape[1])])
        _write(args.out, header + "\n" + _csv_lines(rows) + "\n")
        return EXIT_OK

    if args.action == "chain":
        with _opened(args.out) as fh:
            _write_block(fh, _chain_entries(ht, table.row_labels), 0, "{}")
        return EXIT_OK

    # forward: coefficient JSON plus optional table-style CSV; a detail
    # entry is its node id, its vector's m cells and its rank in a template
    entry = '"%d": ' + _block(['"vector": ' + _block(["%s"] * ht.m, 3), '"level": %d'], 2, "{}")
    details = (entry % (n + k, *cells, k + 1) for k, cells in enumerate(_leaf_rows(ht.details)))
    with _opened(args.out) as fh:
        fh.write('{\n  "smooth": ' + _block(_leaves(ht.smooth.tolist()), 1) + ',\n  "details": ')
        _write_block(fh, details, 1, "{}")
        fh.write("\n}")
    if args.csv:
        cols = [f"s{n - 1}"] + [f"d{r}" for r in range(n - 1, 0, -1)]
        attrs = table.col_labels or [f"c{j}" for j in range(ht.m)]
        vals = np.column_stack([ht.smooth, ht.details[::-1].T])
        _write(args.csv, "," + ",".join(cols) + "\n" + _csv_lines(vals, attrs) + "\n")
    return EXIT_OK


def _chain_entries(ht, names):
    """Each terminal's approximation_chain as indent-2 JSON keyed by name.

    A terminal's partial sums are the rows of the nodes on its root path,
    root first, so each node's row is encoded once and shared; the errors
    of a run of paths come from one batched norm and one encoder call.
    """
    dend = ht.dend
    rows = haar._node_rows(ht)
    # a step is _block(['"partial": ' + row, '"error": ' + e], 2, "{}"):
    # each node's part before e comes from one template, so that only e
    # is joined per step
    partial = '{\n      "partial": ' + _block(["%s"] * ht.m, 3) + ',\n      "error": '
    head = [partial % tuple(cells) for cells in _leaf_rows(rows)]
    paths = (dend.path_to_root(t)[::-1] + [t] for t in range(dend.n_terminals))
    sep = "\n    },\n    "  # between the steps, as _block(steps, 1) lays them out
    for run in _batches(paths, len, _CHAIN_STEPS):
        steps = np.concatenate(run)
        targets = np.repeat([path[-1] for path in run], [len(path) for path in run])
        errors = iter(_leaves(haar._row_norms(rows[steps] - rows[targets]).tolist()))
        for path in run:
            name = _key(names[path[-1]] if names else str(path[-1]))
            yield f"{name}: [\n    {sep.join([head[node] + next(errors) for node in path])}\n    }}\n  ]"


def cmd_padic(args) -> int:
    dend = _load_dend(args.dend)
    n = dend.n_terminals
    decimals = padic.decimal_texts(dend, args.p)
    # A terminal's coefficients by ascending rank are the (rank, label)
    # items of its root path read upwards, so a child's text is its own
    # item, each item led by its separator, in front of its parent's text.
    # A node's text is dropped once its children have theirs or it is written.
    tail = {dend.root: ""}
    for rank in range(n - 1, 0, -1):
        a, b, _ = dend.merges[rank - 1]
        above = tail.pop(n - 1 + rank)
        item = f",\n        [\n          {rank},\n          "
        tail[a] = f"{item}1\n        ]{above}"
        tail[b] = f"{item}-1\n        ]{above}"

    def terminals():
        for t, value in enumerate(decimals):
            coeffs = tail.pop(t)
            coeffs = f"[{coeffs[1:]}\n      ]" if coeffs else "[]"
            name = _key(dend.labels[t] if dend.labels else str(t))
            yield f'{name}: {{\n      "coefficients": {coeffs},\n      "decimal": {value}\n    }}'

    with _opened(args.out) as fh:
        fh.write(f'{{\n  "p": {json.dumps(args.p)},\n  "terminals": ')
        _write_block(fh, terminals(), 1, "{}")
        fh.write(f',\n  "unique": {json.dumps(len(set(decimals)) == len(decimals))}\n}}'
                 if args.check_unique else "\n}")
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
    # the index arrays of each vertex's pairs, read for the lattice's own
    # vertices, so without pairs_for_node's vertex check
    by_distance = t._pairs_by_distance
    pairs = [(v, by_distance[mask]) for v in lattice.vertices
             if (mask := to_mask(v)) in by_distance]
    # labels are sorted raw, then encoded: escapes would change the order
    attr_text = [_key(a) for a in attr]
    obj_text = [_key(o) for o in obj]
    name_text = {v: _key(setname(v)) for v in lattice.vertices}
    vertices = [
        _block(['"set": ' + _block([attr_text[j] for j in sorted(v, key=attr.__getitem__)], 3),
                f'"level": {len(v)}'], 2, "{}")
        for v in lattice.vertices
    ]
    edges = [_block([name_text[a], name_text[b]], 2) for a, b in lattice.edges]
    # each pair is _block([oi, oj], 3), written out as a head piece for oi
    # and a tail piece for oj: object arrays, so that a vertex's index
    # arrays gather its pieces and + joins them pair by pair
    head = np.array(["[\n        " + o + ",\n        " for o in obj_text], dtype=object)
    tail = np.array([o + "\n      ]" for o in obj_text], dtype=object)
    groups = [_block([obj_text[i] for i in sorted(c, key=obj.__getitem__)], 3) for c in clusters]
    # the report is written section by section, each vertex's pairs as
    # soon as they are laid out, so no more than one of them is held
    with _opened(args.out) as fh:
        fh.write('{\n  "vertices": ' + _block(vertices, 1) + ',\n  "edges": ' + _block(edges, 1)
                 + ',\n  "pairs": ')
        _write_block(fh, (name_text[v] + ": " + _block((head[i] + tail[j]).tolist(), 2)
                          for v, (i, j) in pairs), 1, "{}")
        fh.write(',\n  "clusters": ' + _block([_key(str(level)) + ": " + _block(groups, 2)], 1, "{}")
                 + "\n}")
    if args.text:
        lines = ["Lattice vertices found       Level", ""]
        for lev in range(t.n_attributes, 0, -1):
            row = [setname(v) for v in lattice.vertices if len(v) == lev]
            if row:
                lines.append(f"{'   '.join(row):<28} {lev}")
        lines.append("")
        head = np.array([f"d({o}," for o in obj], dtype=object)
        tail = np.array([f"{o})" for o in obj], dtype=object)
        for v, (i, j) in pairs:
            plist = ", ".join((head[i] + tail[j]).tolist())
            lines.append(f"The subset {setname(v)} corresponds to: {plist}")
        lines.append("")
        lines.append(f"Clusters defined by all pairwise linkage at level <= {level}:")
        for c in clusters:
            lines.append("   " + ", ".join(sorted(obj[i] for i in c)))
        _write(args.text, "\n".join(lines) + "\n")
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


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The umtree argument parser, built on the first call.

    Every call returns the same parser, shared by all main() calls in the
    process; it must not be changed.
    """
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
    except (ValueError, KeyError, IndexError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
