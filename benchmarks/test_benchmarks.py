"""Smoke-size tests of the benchmark itself.

    PYTHONPATH=src python3 -m pytest -q benchmarks/test_benchmarks.py
"""

from __future__ import annotations

import hashlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import mucinf
import workloads
from layertrace import Tracer, installed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "benchmarks" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.fixture(scope="module")
def traced_runs():
    runs = {}
    for w in SPEC["workloads"]:
        proc = bench("--workload", w["name"], "--seed", "7", "--seconds",
                     "0", "--trace", "1", "--smoke")
        assert proc.returncode == 0, proc.stderr
        runs[w["name"]] = json.loads(proc.stdout.splitlines()[-1])
    return runs


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_end_to_end_metrics_emitted_with_units(workload):
    proc = bench("--workload", workload, "--seed", "7", "--seconds", "0",
                 "--trace", "0", "--smoke")
    assert proc.returncode == 0, proc.stderr
    info, result = (json.loads(line) for line in proc.stdout.splitlines())
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert info["bench"]["fail_frac"] == 0.0
    assert result["metrics"] == {
        m["name"]: {"value": result["metrics"][m["name"]]["value"],
                    "unit": m["unit"]} for m in SPEC["end_to_end"]}
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_every_per_layer_name_is_measured(tmp_path):
    # a name no workload produces would silently read 0
    produced = {"trace.overhead"}
    for name, make in workloads.WORKLOADS.items():
        (tmp_path / name).mkdir()
        ops, _ = make(7, str(tmp_path / name), smoke=True)
        tracer = Tracer()
        with installed(tracer):
            assert all(op(tracer) for op in ops)
        produced |= set(tracer.values())
    assert {m["name"] for m in SPEC["per_layer"]} <= produced


def test_layers_reached_by_each_workload(traced_runs):
    assert all(result["correct"] for result in traced_runs.values())

    def calls(workload, key):
        return traced_runs[workload]["metrics"][f"{key}.calls"]["value"]
    assert calls("laws", "fmat.relation") > 0
    assert calls("laws", "cpinf.oracle") > 0
    assert calls("laws", "cli.main") == 0
    assert calls("channels", "matc.eig") > 0
    assert calls("channels", "cli.main") == 5 * 27
    assert calls("channels", "fmat.relation") == 0
    assert calls("oracle-wide", "cpinf.oracle") == 16
    assert calls("oracle-wide", "jsonio.read") == 0


def test_per_entry_split_reproduces_one_suite_call(tmp_path):
    ops, summary = workloads.laws(7, str(tmp_path), smoke=True)
    split = [mucinf.run_suite(op.args[0]) for op in ops]
    assert all(len(reports) == 1 for reports in split)
    full = mucinf.run_suite(mucinf.SuiteConfig(trials=2, seed=7))
    key = (lambda r: (r.law, r.model))
    assert sorted((r for (r,) in split), key=key) == sorted(full, key=key)
    assert all(op(None) for op in ops)
    assert summary()["laws_digest"] == workloads.laws_digest(
        {(r.law, r.model): r.max_abs_deviation for r in full})


def _inputs(workload, seed, workdir) -> list:
    """One digest per operation of everything its inputs hold."""
    workdir.mkdir()
    ops, _ = workloads.WORKLOADS[workload](seed, str(workdir), smoke=True)
    out = []
    for op in ops:
        digest = hashlib.sha256()
        for arg in op.args:
            if isinstance(arg, mucinf.KrausMorphism):
                digest.update(arg.body.payload.tobytes())
            elif isinstance(arg, mucinf.SuiteConfig):
                digest.update(repr(arg).encode())
            elif isinstance(arg, list):  # the files a CLI round trip reads
                for path in dict.fromkeys(arg):
                    if Path(path).exists():
                        digest.update(Path(path).read_bytes())
        out.append(digest.hexdigest())
    return out


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_seed_decides_the_inputs(workload, tmp_path):
    first = _inputs(workload, 7, tmp_path / "a")
    assert _inputs(workload, 7, tmp_path / "b") == first
    other = _inputs(workload, 8, tmp_path / "c")
    if workload == "laws":
        # the suite seed is pinned; the seed draws the order only
        assert other != first and sorted(other) == sorted(first)
    else:
        assert sorted(other) != sorted(first)


def test_refuses_a_checkout_without_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "laws", "--seed", "1", "--seconds", "1",
                 "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_tracer_self_time_and_restore():
    original = mucinf.structural
    tracer = Tracer()
    with installed(tracer):
        assert mucinf.structural is not original
        f = mucinf.structural("mat", "c_tensor", [mucinf.Base(2),
                                                  mucinf.Base(3)])
        mucinf.compose(f, mucinf.identity("mat", f.cod))
    assert mucinf.structural is original
    values = tracer.values()
    assert values["structural.calls"] == 1
    assert values["matc.perm.calls"] == 1
    assert values["structural.identity_frac"] == 0.0
    assert values["matc.matmul.calls"] == 1
    assert values["matc.matmul.identity_operand_frac"] == 1.0
    assert values["matc.matmul.gflop"] == pytest.approx(8e-9 * 6 ** 3)
    assert (values["objects.interpret.calls"]
            > values["objects.interpret.top_calls"] > 0)
    assert all(values[f"{key}.self_s"] >= 0 for key in tracer.calls)
