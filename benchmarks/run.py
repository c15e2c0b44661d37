"""Run one workload of the mucinf benchmark and print its metrics.

    python3 benchmarks/run.py --workload laws --seed 7 --seconds 40 --trace 0

It measures the mucinf source of the checkout it sits in (``src/`` next to
``benchmarks/``) and exits with 2, printing no result, when that source is
missing.

A run starts fresh worker processes (``worker.py``) one at a time, each
setting the workload up and running one pass over its operations, as long
as the next pass is likely to end within ``--seconds``, and at least
``MIN_PASSES`` times.  Each operation's latency is its minimum over the
passes: noise on a shared machine only ever adds time, and a slow stretch
of several seconds then moves the samples of the passes it covers, not the
figure:

* ``wall_s``: one pass, the sum of those latencies;
* ``op_p50_ms``, ``op_p90_ms``: their median and 90th percentile (every
  workload has at least 100 operations, so at least ten lie beyond it);
* ``setup_s``: the median over the passes of the time from spawning the
  worker to its inputs being ready (interpreter, ``import mucinf``, inputs);
* ``peak_rss_mb``: the median over the passes of the worker's peak resident
  set (``ru_maxrss``); a cache that grows shows here.

With ``--trace 1`` half the time goes to untraced passes and one more pass
runs traced; its per-layer values are printed with ``trace.overhead``, the
traced pass's wall time over the median wall time of the untraced passes.

Every pass's set-up time and operation latencies are also written to
``.bench_run/samples-<workload>-seed<seed>.json``.

stdout gets two JSON lines.  The first records the environment, the source
and the run; the last is ``{"correct", "attempted", "failed", "metrics"}``
with the ``end_to_end`` metrics of BENCHMARK.json under ``--trace 0`` and
its ``per_layer`` metrics under ``--trace 1``.  A per-layer metric of a
layer the workload never calls reads 0.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
MIN_PASSES = 3
TIME_LIMIT_S = 170  # a run must end within 180 s


class BenchError(Exception):
    pass


def worker_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), *filter(None, [env.get("PYTHONPATH")])])
    # with default threads a first matmul sometimes stalls for ~1 s on a
    # two-core machine
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                "MKL_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    return env


def now() -> float:
    # the clock the worker stamps its end of set-up with
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def call(cmd, deadline: float) -> dict:
    """Run one worker and return the JSON object it printed."""
    spawned = now()
    try:
        proc = subprocess.run(cmd, env=worker_env(), cwd=ROOT, text=True,
                              stdout=subprocess.PIPE,
                              timeout=max(1.0, deadline - spawned))
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker exceeded the {TIME_LIMIT_S} s limit")
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(f"worker exited with {proc.returncode}")
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    out["setup_s"] = out["ready"] - spawned
    return out


def run_passes(cmd, seconds: float, deadline: float) -> list:
    """Passes until the next one would likely end after ``seconds``."""
    passes = []
    start = now()
    while len(passes) < MIN_PASSES or (
            (now() - start) * (len(passes) + 1) / len(passes) <= seconds):
        passes.append(call(cmd, deadline))
    return passes


def op_latencies(passes) -> list:
    """Each operation's minimum latency over the passes."""
    return [min(op)
            for op in zip(*(p["latencies"] for p in passes))]


def source_id() -> dict:
    files = sorted((ROOT / "src" / "mucinf").glob("*.py"))
    digest = hashlib.sha256()
    for path in files:
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=30).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            pass  # the run is still valid without it
    return {"commit": commit, "src_sha256": digest.hexdigest()[:16]}


def main(argv=None) -> int:
    if not (ROOT / "src" / "mucinf" / "__init__.py").is_file():
        print(f"error: no mucinf source under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs, for the benchmark's own tests")
    args = parser.parse_args(argv)

    deadline = now() + TIME_LIMIT_S
    workdir = ROOT / ".bench_run"
    worker = [sys.executable, str(HERE / "worker.py"),
              "--workload", args.workload, "--seed", str(args.seed),
              "--workdir", str(workdir),
              *(["--smoke"] if args.smoke else []), "--trace"]
    try:
        if args.trace:
            passes = run_passes(worker + ["0"], args.seconds / 2, deadline)
            traced = call(worker + ["1"], deadline)
            values = traced["values"]
            values["trace.overhead"] = (
                sum(traced["latencies"])
                / statistics.median(sum(p["latencies"]) for p in passes))
            passes.append(traced)
        else:
            passes = run_passes(worker + ["0"], args.seconds, deadline)
            latencies = op_latencies(passes)
            values = {
                "setup_s": statistics.median(p["setup_s"] for p in passes),
                "wall_s": sum(latencies),
                "op_p50_ms": 1e3 * statistics.median(latencies),
                "op_p90_ms": 1e3 * statistics.quantiles(latencies, n=10)[-1],
                "peak_rss_mb": statistics.median(
                    p["peak_rss_mb"] for p in passes),
            }
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    section = "per_layer" if args.trace else "end_to_end"
    metrics = {m["name"]: {"value": values.get(m["name"], 0) if args.trace
                           else values[m["name"]], "unit": m["unit"]}
               for m in spec[section]}
    samples = workdir / f"samples-{args.workload}-seed{args.seed}.json"
    samples.write_text(json.dumps(
        [{key: p[key] for key in ("setup_s", "latencies")} for p in passes]))
    failures = [f for p in passes for f in p["failures"]]
    attempted = sum(len(p["latencies"]) for p in passes)
    last = passes[-1]
    print(json.dumps({"bench": {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "passes": len(passes), "ops_per_pass": len(last["latencies"]),
        "fail_frac": len(failures) / attempted, "failures": failures[:5],
        "setup_samples_s": [p["setup_s"] for p in passes],
        "samples": str(samples),
        **{key: last[key] for key in ("laws_digest", "spans", "python",
                                      "numpy", "blas", "nproc",
                                      "blas_threads") if key in last},
        **source_id()}}))
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
