"""The benchmark's workloads: seeded input tables and the job list that
runs on them.

Every table is drawn from its own generator, keyed by the run seed and
the table's name, so one seed always gives the same bytes.  Nothing here
imports umtree, so run.py can read the workload list too.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field

import numpy as np


def rng_for(seed: int, name: str) -> np.random.Generator:
    return np.random.default_rng([seed, zlib.crc32(name.encode())])


def mixture(rng, n: int, m: int = 8, centres: int = 10) -> np.ndarray:
    """Gaussian mixture: unit noise around centres spread with scale 4.

    Continuous values, so no two distances tie.
    """
    c = rng.normal(scale=4.0, size=(centres, m))
    return c[rng.integers(0, centres, size=n)] + rng.normal(size=(n, m))


def bernoulli(rng, n: int, m: int, p: float) -> np.ndarray:
    return (rng.random((n, m)) < p).astype(int)


def write_numeric(path, x: np.ndarray) -> None:
    """Header row of column names, one labelled row per observation;
    values in shortest round-trip form, so the CSV is the exact data."""
    lines = ["," + ",".join(f"a{j}" for j in range(x.shape[1]))]
    lines += [f"r{i}," + ",".join(repr(float(v)) for v in row) for i, row in enumerate(x)]
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def write_boolean(path, x: np.ndarray) -> None:
    lines = ["," + ",".join(f"v{j + 1}" for j in range(x.shape[1]))]
    lines += [f"o{i}," + ",".join(str(int(v)) for v in row) for i, row in enumerate(x)]
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


# Every workload ends with the same small pass over the whole CLI
# surface, so that each stage and layer is measured on every workload.
SMOKE_N = 120
SMOKE_BLOCK = 50
SMOKE_BOOLEAN = (100, 4, 0.7)

TREE_OPS = ("forward", "inverse", "regress", "padic2", "padic3", "canon", "lib")
REGRESS_TAU = 1.0

# main numeric table (criterion, n) with its tree jobs, and boolean
# tables (n, m, p) for genum
WORKLOADS = {
    "ward_balanced": {"tree": ("ward", 1500), "ops": TREE_OPS, "tables": ()},
    "single_chained": {"tree": ("single", 1000), "ops": TREE_OPS, "tables": ()},
    "median_naive": {"tree": ("median", 600), "ops": ("forward", "inverse", "chain"), "tables": ()},
    "boolean_lattice": {"tree": None, "ops": (), "tables": ((150, 6, 0.65), (90, 6, 0.75))},
}
LIB_BLOCK = 150


@dataclass
class Job:
    id: str
    stage: str  # cluster | tree_ops | genum
    kind: str  # which check applies to the outputs
    params: dict
    argv: list = None  # a CLI call, or None for a library step
    outputs: list = field(default_factory=list)


def cluster_job(jid, data, tree, crit):
    return Job(jid, "cluster", "cluster", {"data": data, "tree": tree, "criterion": crit},
               ["cluster", "--input", data, "--criterion", crit, "--out", tree], [tree])


def tree_jobs(tag, data, tree, ops, block):
    jobs = []
    p = {"data": data, "tree": tree}
    for op in ops:
        jid = f"{tag}.{op}"
        if op == "forward":
            out, csv = f"{jid}.json", f"{jid}.csv"
            jobs.append(Job(jid, "tree_ops", op, {**p, "out": out, "csv": csv},
                            ["wavelet", "forward", "--dend", tree, "--data", data,
                             "--out", out, "--csv", csv], [out, csv]))
        elif op in ("inverse", "regress", "chain"):
            out = f"{jid}.csv" if op != "chain" else f"{jid}.json"
            argv = ["wavelet", op, "--dend", tree, "--data", data, "--out", out]
            if op == "regress":
                argv += ["--tau", repr(REGRESS_TAU)]
            jobs.append(Job(jid, "tree_ops", op, {**p, "out": out, "tau": REGRESS_TAU}, argv, [out]))
        elif op.startswith("padic"):
            out, base = f"{jid}.json", int(op[5:])
            jobs.append(Job(jid, "tree_ops", "padic", {**p, "out": out, "p": base},
                            ["padic", "--dend", tree, "--p", str(base), "--check-unique",
                             "--out", out], [out]))
        elif op == "canon":
            out = f"{jid}.json"
            jobs.append(Job(jid, "tree_ops", "canon", {**p, "out": out},
                            ["canon", "--dend", tree, "--out", out], [out]))
        elif op == "lib":
            jobs.append(Job(f"{tag}.cophenetic", "tree_ops", "cophenetic", p))
            jobs.append(Job(f"{tag}.verify", "tree_ops", "verify",
                            {**p, "block": block, "matrix": f"{tag}.cophenetic"}))
    return jobs


def genum_job(jid, data, m):
    out, text = f"{jid}.json", f"{jid}.txt"
    level = m // 2
    return Job(jid, "genum", "genum", {"data": data, "out": out, "level": level},
               ["genum", "--input", data, "--level", str(level), "--out", out,
                "--text", text], [out, text])


def plan(name):
    """Input tables to write, as (file, kind, args), and the job list."""
    spec = WORKLOADS[name]
    tables, jobs = [], []
    if spec["tree"]:
        crit, n = spec["tree"]
        tables.append(("x.csv", "numeric", (n,)))
        jobs.append(cluster_job("main.cluster", "x.csv", "x.tree.json", crit))
        jobs += tree_jobs("main", "x.csv", "x.tree.json", spec["ops"], LIB_BLOCK)
    for k, (n, m, p) in enumerate(spec["tables"]):
        tables.append((f"b{k}.csv", "boolean", (n, m, p)))
        jobs.append(genum_job(f"main.genum{k}", f"b{k}.csv", m))
    tables.append(("s.csv", "numeric", (SMOKE_N,)))
    jobs.append(cluster_job("smoke.cluster_ward", "s.csv", "s.ward.json", "ward"))
    jobs.append(cluster_job("smoke.cluster_median", "s.csv", "s.median.json", "median"))
    ops = ("forward", "inverse", "regress", "chain", "padic2", "padic3", "canon", "lib")
    jobs += tree_jobs("smoke", "s.csv", "s.median.json", ops, SMOKE_BLOCK)
    tables.append(("sb.csv", "boolean", SMOKE_BOOLEAN))
    jobs.append(genum_job("smoke.genum", "sb.csv", SMOKE_BOOLEAN[1]))
    return tables, jobs


def write_inputs(tables, seed):
    for fname, kind, args in tables:
        rng = rng_for(seed, fname)
        if kind == "numeric":
            write_numeric(fname, mixture(rng, *args))
        else:
            write_boolean(fname, bernoulli(rng, *args))
