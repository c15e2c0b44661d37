"""Worker process of the benchmark: set up one workload and run one pass.

    PYTHONPATH=src python3 benchmarks/worker.py --workload laws --seed 7 \
        --trace 0 --workdir .bench_run

``run.py`` starts one worker per pass, with ``src`` on the path and BLAS
pinned to one thread, so no cache or lazy set-up carries from one pass to
the next, as for a user who runs the job once.  The worker imports mucinf,
generates the inputs, notes the monotonic clock (the end of set-up), runs
every operation once in a closed loop (one client; the next operation starts
when the previous one ends) and prints one JSON line.  With ``--trace 1``
the pass runs traced; its spans are written to
``<workdir>/spans-<workload>-seed<seed>.jsonl``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import sys
import tempfile
import time

import numpy as np

from layertrace import Tracer, installed
from workloads import WORKLOADS


def run_pass(ops, tracer=None):
    """Every op once: the latency of each, and the failures."""
    latencies, failures = [], []
    for i, op in enumerate(ops):
        if tracer is not None:
            tracer.op = i
        t = time.perf_counter()
        try:
            error = None if op(tracer) else "output failed its gate"
        except Exception as exc:  # a failed op is counted; the pass goes on
            error = f"{type(exc).__name__}: {exc}"
        latencies.append(time.perf_counter() - t)
        if error is not None:
            failures.append(f"op {i}: {error}")
    return latencies, failures


def environment() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):  # numpy before 1.26 has no dict mode
        blas = "unknown"
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": blas, "nproc": len(os.sched_getaffinity(0)),
            "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS")}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        required=True)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", default=".bench_run")
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)

    os.makedirs(args.workdir, exist_ok=True)
    inputs = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=args.workdir)
    try:
        ops, summary = WORKLOADS[args.workload](args.seed, inputs,
                                                 args.smoke)
        out = {"ready": time.clock_gettime(time.CLOCK_MONOTONIC)}
        if args.trace:
            tracer = Tracer()
            with installed(tracer):
                out["latencies"], out["failures"] = run_pass(ops, tracer)
            out["spans"] = os.path.join(
                args.workdir, f"spans-{args.workload}-seed{args.seed}.jsonl")
            tracer.write_records(out["spans"])
            out["values"] = tracer.values()
        else:
            out["latencies"], out["failures"] = run_pass(ops)
        out["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
        out.update(summary(), **environment())
        print(json.dumps(out))
    finally:
        shutil.rmtree(inputs, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
