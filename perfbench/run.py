"""umtree benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  The package is imported from `src/`, so
nothing is built or installed.  With `--trace 0` the last line of
standard output is a JSON object holding the end-to-end metrics; with
`--trace 1` it holds the per-layer metrics.  The lines before it are a
readable report: environment, per-job times, checks, shape counts and
artifact digests.  Spans and a full record of each run go to
`perfbench/out/`.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from hostspeed import REF_PROBE_S, probe
from oracle import Checker
from tracer import SPAN_NAMES
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
SRC = ROOT / "src"
STAGES = ("cluster", "tree_ops", "genum")
SETUP_RUNS = 3  # on each side of the workload
DEADLINE_S = 170  # the whole run, set-up and checks included

MODULES = ("__init__", "cli", "datasets", "dendrogram", "dissim", "genlattice", "haar",
           "linkage", "padic", "selftest", "symmetry")
CLI_SPANS = [f"cli.{c}" for c in ("cluster", "wavelet", "padic", "canon", "genum")]
COUNTS = {  # per-layer counts read off the outputs: metric -> (counter, unit)
    "dissim.pairs": ("pairs", "count"),
    "linkage.matrix_bytes": ("matrix_bytes", "bytes"),
    "linkage.merges": ("merges", "count"),
    "dendrogram.depth_max": ("depth_max", "count"),
    "dendrogram.path_nodes": ("path_nodes", "count"),
    "genlattice.vertices": ("vertices", "count"),
    "genlattice.edges": ("edges", "count"),
    "genlattice.clusters": ("clusters", "count"),
}


def fail(msg: str) -> int:
    print(f"error: {msg}", file=sys.stderr)
    return 2


def bench_env() -> dict:
    nproc = len(os.sched_getaffinity(0))
    env = dict(os.environ, PYTHONPATH=str(SRC))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(nproc)
    return env


def setup_seconds(env) -> list:
    """Fresh interpreters timed from spawn until `import umtree.cli` is done,
    each as (seconds, host-speed probe taken just before).

    Both clocks are CLOCK_MONOTONIC, so the child's reading is comparable.
    """
    code = "import umtree.cli, time; print(repr(time.perf_counter()))"
    out = []
    for _ in range(SETUP_RUNS):
        p = median([probe() for _ in range(5)])
        t0 = perf_counter()
        done = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                              capture_output=True, text=True, timeout=60)
        out.append((float(done.stdout) - t0, p))
    return out


def src_loc() -> dict:
    """Source lines per module of this release, 0 for one since removed,
    and the total over every module present."""
    lines = {p.stem: len(p.read_text().splitlines()) for p in (SRC / "umtree").glob("*.py")}
    return {**{m: lines.get(m, 0) for m in MODULES}, "total": sum(lines.values())}


def median(values):
    return statistics.median(values) if values else 0.0


def job_failures(result, checker):
    """Per job: the check messages, plus a note for outputs that changed
    between iterations of the same run."""
    out = {}
    for job in result["jobs"]:
        msgs = checker.check(job)
        if job["id"] in result["digest_mismatch"]:
            msgs.append("artifact digest changed between iterations")
        out[job["id"]] = msgs
    return out


def stage_times(result, traced):
    """Per stage: the median over iterations of the stage's summed job
    times; and the median wall time of an iteration."""
    jobs = result["jobs"]
    its = [it for it in result["iterations"] if it["traced"] == traced]
    per_stage = {f"{s}_s": median([sum(it["times"][j["id"]] for j in jobs if j["stage"] == s)
                                   for it in its]) for s in STAGES}
    return per_stage, median([it["total"] for it in its])


def normalized(pairs):
    """Median of times scaled by their probe to the reference host speed."""
    return median([t * REF_PROBE_S / p for t, p in pairs])


def layer_metrics(result, checker, span_names):
    traced = [it for it in result["iterations"] if it["traced"]]
    per_stage, total_plain = stage_times(result, False)
    metrics = {name: (value, "s") for name, value in per_stage.items()}
    for name in CLI_SPANS + span_names:
        metrics[f"{name}_s"] = (median([it["self"].get(name, 0.0) for it in traced]), "s")
    counts = checker.counts
    for metric, (key, unit) in COUNTS.items():
        metrics[metric] = (counts[key], unit)
    calls = traced[-1]["calls"]
    builds = calls.get("genlattice.build_lattice", 0)
    metrics["genlattice.build_lattice_calls"] = (builds, "count")
    metrics["genlattice.build_reuse"] = (
        calls.get("cli.genum", 0) / builds if builds else 0.0, "ratio")
    _, total_traced = stage_times(result, True)
    metrics["bench.total_s"] = (total_traced, "s")
    metrics["bench.untraced_total_s"] = (total_plain, "s")
    metrics["bench.trace_overhead_s"] = (total_traced - total_plain, "s")
    metrics["bench.host_slowdown"] = (
        median([it["probe"] / REF_PROBE_S for it in result["iterations"]]), "ratio")
    metrics["bench.unattributed_s"] = (
        median([it["total"] - sum(it["self"].values()) for it in traced]), "s")
    metrics["ref.scipy_linkage_s"] = (checker.ref_linkage_s, "s")
    for module, lines in src_loc().items():
        metrics[f"src_loc.{module}"] = (lines, "lines")
    return metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.workload not in WORKLOADS:
        return fail(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    if not (SRC / "umtree" / "cli.py").is_file():
        return fail(f"no umtree sources under {SRC}; run from the repository root")
    start = perf_counter()

    env = bench_env()
    # the first import writes the bytecode cache; set-up is sampled before
    # and after the workload, so that both ends of the run are in its median
    subprocess.run([sys.executable, "-c", "import umtree.cli"], env=env, check=True, timeout=60)
    setups = [] if args.trace else setup_seconds(env)
    workdir = HERE / "_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        budget = DEADLINE_S - (perf_counter() - start)
        done = subprocess.run(
            [sys.executable, str(HERE / "runner.py"), "--workload", args.workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace), "--workdir", str(workdir)],
            env=env, timeout=budget, capture_output=True, text=True)
        if done.returncode != 0:
            sys.stderr.write(done.stdout + done.stderr)
            return fail(f"workload process exited with code {done.returncode}")
        result = json.loads((workdir / "result.json").read_text())
        checker = Checker(workdir)
        failures = job_failures(result, checker)
        spans = workdir / "spans.jsonl"
        outdir = HERE / "out"
        outdir.mkdir(exist_ok=True)
        tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
        if spans.exists():
            shutil.move(spans, outdir / f"{tag}.spans.jsonl")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if not args.trace:
        setups += setup_seconds(env)
    iterations = result["iterations"]
    attempted = len(iterations) * len(result["jobs"])
    failed = sum(1 for it in iterations for j in result["jobs"]
                 if j["id"] in it["errors"] or failures[j["id"]])

    _, total_wall = stage_times(result, False)
    if args.trace:
        metrics = layer_metrics(result, checker, SPAN_NAMES)
    else:
        metrics = {
            "setup_s": (normalized(setups), "s"),
            "total_s": (normalized([(it["total"], it["probe"]) for it in iterations]), "s"),
            "peak_rss_mb": (result["max_rss_kb"] / 1024, "MB"),
        }

    nproc = len(os.sched_getaffinity(0))
    versions = result["versions"]
    print(f"# workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"iterations {len(iterations)}  closed loop, 1 client")
    print(f"# nproc {nproc}  BLAS threads {env['OPENBLAS_NUM_THREADS']}  "
          f"python {versions['python']}  numpy {versions['numpy']}")
    print("# iteration totals: " + " ".join(
        f"{it['total']:.4f}{'t' if it['traced'] else ''}" for it in iterations))
    if setups:
        print("# setup wall times: " + " ".join(f"{t:.4f}" for t, _ in setups)
              + f"  median {median([t for t, _ in setups]):.4f}")
        print("# setup host slowdowns: " + " ".join(f"{p / REF_PROBE_S:.3f}" for _, p in setups))
    print("# iteration host slowdowns: " + " ".join(
        f"{it['probe'] / REF_PROBE_S:.3f}" for it in iterations))
    print(f"# untraced iteration wall time median {total_wall:.4f}")
    for job in result["jobs"]:
        times = [it["times"][job["id"]] for it in iterations]
        status = "; ".join(failures[job["id"]]) or "ok"
        errs = [it["errors"][job["id"]] for it in iterations if job["id"] in it["errors"]]
        if errs:
            status = f"raised in {len(errs)} iteration(s): {errs[-1].strip().splitlines()[-1]}"
        print(f"# job {job['id']:<22} {job['stage']:<8} median {median(times):9.4f} s  {status}")
    per_stage, _ = stage_times(result, False)
    print("# stages: " + "  ".join(f"{k} {v:.4f}" for k, v in per_stage.items()))
    print("# shape: " + "  ".join(f"{k} {v}" for k, v in checker.counts.items()))
    print(f"# failed_ops {failed}/{attempted} = {failed / attempted:.4f}")
    for jid, digests in sorted(result["digests"].items()):
        for name, digest in sorted(digests.items()):
            print(f"# sha256 {jid} {name} {digest}")
    for name, (value, unit) in metrics.items():
        print(f"# {name:<34} {value:>14.6g} {unit}")

    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "seconds": args.seconds, "nproc": nproc,
              "blas_threads": int(env["OPENBLAS_NUM_THREADS"]), **versions,
              "iterations": [{k: it[k] for k in ("traced", "total", "times")}
                             for it in iterations],
              "setup_runs_s": setups,
              "failures": failures, "digests": result["digests"],
              "shape": checker.counts, "src_loc": src_loc(),
              "ref_scipy_linkage_s": checker.ref_linkage_s,
              "metrics": {k: v for k, (v, _) in metrics.items()}}
    (outdir / f"{tag}.json").write_text(json.dumps(record, indent=1))

    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
