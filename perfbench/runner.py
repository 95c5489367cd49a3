"""One workload run in a fresh process: make the inputs, then repeat the
job list in a closed loop (one client, one job at a time) until the
measuring time is spent.

    python3 perfbench/runner.py --workload NAME --seed N --seconds S \
        --trace 0|1 --workdir DIR

Jobs are `umtree` CLI calls made in-process through `umtree.cli.main`,
plus the library calls the README shows.  Results go to DIR/result.json;
the checks on the outputs are made afterwards by run.py.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import statistics
import sys
import traceback
from collections import Counter
from dataclasses import asdict
from pathlib import Path
from time import perf_counter

import numpy as np

from hostspeed import probe
from workloads import WORKLOADS, plan, write_inputs
from tracer import Tracer, self_times

import umtree.cli
from umtree import dendrogram


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


class Runner:
    """Runs the job list; library results stay in memory, keyed by job id."""

    def __init__(self, jobs):
        self.jobs = jobs
        self.memo = {}

    def run(self, job, tracer):
        if job.argv is None:
            return self.library(job)
        main = umtree.cli.main
        if tracer is not None:
            main = tracer.wrap(f"cli.{job.argv[0]}", main)
        try:
            rc = main(job.argv)
        except SystemExit as exc:
            rc = exc.code
        if rc != 0:
            raise RuntimeError(f"exit code {rc}")

    def library(self, job):
        p = job.params
        if job.kind == "cophenetic":
            dend = dendrogram.Dendrogram.from_json(Path(p["tree"]).read_text())
            self.memo[job.id] = dendrogram.cophenetic_matrix(dend).values
        else:
            b = p["block"]
            block = self.memo[p["matrix"]][:b, :b]
            self.memo[job.id] = dendrogram.verify_ultrametric(block)

    def digests(self, job):
        if job.argv is not None:
            return {f: sha256(Path(f).read_bytes()) for f in job.outputs}
        value = self.memo.get(job.id)
        if value is None:
            return {}
        if job.kind == "cophenetic":
            return {"matrix": sha256(np.ascontiguousarray(value).tobytes())}
        return {"violations": sha256(json.dumps(value).encode())}

    def iteration(self, tracer=None):
        """Run every job once; with a tracer, record each CLI call as a span.

        A host-speed probe runs before each job.  The total is the job
        time alone; the probes' median is returned beside it.
        """
        times, errors, probes = {}, {}, []
        self.memo.clear()
        for job in self.jobs:
            probes.append(probe())
            s = perf_counter()
            try:
                self.run(job, tracer)
            except Exception:  # a failed job is counted and the loop goes on
                errors[job.id] = traceback.format_exc(limit=3)
            times[job.id] = perf_counter() - s
        return sum(times.values()), times, errors, statistics.median(probes)

    def save_memo(self):
        for job in self.jobs:
            if job.id not in self.memo:
                continue
            if job.kind == "cophenetic":
                np.save(f"{job.id}.npy", self.memo[job.id])
            else:
                Path(f"{job.id}.json").write_text(json.dumps(self.memo[job.id]))


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--workdir", required=True)
    args = ap.parse_args(argv)

    os.chdir(args.workdir)
    tables, jobs = plan(args.workload)
    write_inputs(tables, args.seed)

    tracer = Tracer() if args.trace else None
    runner = Runner(jobs)

    iterations, first, mismatch = [], None, set()
    spans_out = []
    start = perf_counter()
    while True:
        # a traced run alternates untraced and traced iterations, so the
        # tracing overhead is measured in the same process
        traced = bool(args.trace) and len(iterations) % 2 == 1
        if traced:
            tracer.install()
        try:
            total, times, errors, probe_s = runner.iteration(tracer if traced else None)
        finally:
            if traced:
                tracer.uninstall()
        rec = {"traced": traced, "total": total, "times": times, "errors": errors,
               "probe": probe_s}
        if traced:
            spans = tracer.take()
            rec["self"] = self_times(spans)
            rec["calls"] = Counter(name for name, *_ in spans)
            spans_out.append(spans)
        digests = {job.id: runner.digests(job) for job in jobs if job.id not in errors}
        if first is None:
            first = digests
        mismatch |= {j for j, d in digests.items() if first.get(j, d) != d}
        iterations.append(rec)
        # stop before an iteration that would end past the measuring time;
        # a traced run needs one untraced and one traced iteration
        elapsed = perf_counter() - start
        longest = max(it["total"] for it in iterations)
        if elapsed + longest > args.seconds and len(iterations) >= 1 + args.trace:
            break

    runner.save_memo()
    if spans_out:
        with open("spans.jsonl", "w") as fh:
            for k, spans in enumerate(spans_out):
                for name, s, e, parent in spans:
                    fh.write(json.dumps([k, name, s, e, parent]) + "\n")
    result = {
        "jobs": [asdict(j) for j in jobs],
        "iterations": iterations,
        "digests": first,
        "digest_mismatch": sorted(mismatch),
        "max_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "versions": {"python": sys.version.split()[0], "numpy": np.__version__},
    }
    Path("result.json").write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
