"""Bit-identity guards: the seed-7, 100-trial suite keeps every deviation
and every byte of its reports, the mutants' reports stay whole, the entry
table keeps its listing, the test-map oracle keeps every output and the
stream it leaves, and the CLI channel round trip keeps every byte it
writes.

A suite digest is sha256 over the sorted ``(law, model,
repr(max_abs_deviation))`` rows of one run, the same formula as the
benchmark's ``laws_digest``.  Each digest belongs to the environment it was
taken in (Python 3.11.7, numpy 2.4.6,
OpenBLAS 0.3.31): another BLAS or numpy may round differently, as may the
eigensolver behind ``channel-purify`` in the CLI digest.  A change that
alters deviations or output bytes on purpose updates the digest here and
records the old and new values, and why, in CHANGES.md.
"""

import functools
import hashlib
import json
import os
from contextlib import nullcontext

import numpy as np

from mucinf.cli import main
from mucinf.cpinf import (distinct_pair, equiv_testmap_oracle,
                          equivalent_variant, random_channel)
from mucinf.morphisms import get_model
from mucinf.suite import SuiteConfig, run_suite
from mutants import MUTANTS, registered

SEED7_DIGEST = "1abb106cbd60113b"
# the six coherence mutants at 25 trials, seed 0: 319 reports, 33 failing
MUTANTS_DIGEST = "2bc0e7bd55e2082e"


def laws_digest(reports) -> str:
    rows = sorted([r.law, r.model, repr(r.max_abs_deviation)]
                  for r in reports)
    return hashlib.sha256(json.dumps(rows).encode()).hexdigest()[:16]


def test_seed7_deviations_are_bit_identical():
    reports = run_suite(SuiteConfig(models=("mat", "cplane", "fmat"),
                                    trials=100, seed=7))
    assert all(r.passed for r in reports)
    assert laws_digest(reports) == SEED7_DIGEST


def sha16(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


# sha256 of ``mucinf laws-run --trials 100 --seed 7`` stdout: every report
# whole, not just its deviation
LAWS_RUN_DIGEST = "c107a98c84d19fa8"
# sha256 of the six mutants' full ``to_json()`` reports, in MUTANTS order:
# each witness and the index of its trial included
MUTANT_REPORTS_DIGEST = "9f9072a385b30935"


def test_seed7_laws_run_bytes_are_pinned(capsys):
    assert main(["laws-run", "--trials", "100", "--seed", "7"]) == 0
    assert sha16(capsys.readouterr().out) == LAWS_RUN_DIGEST


@functools.cache
def mutant_reports():
    reports = []
    for model in MUTANTS:
        with registered(model):
            reports += run_suite(SuiteConfig(models=(model.name,),
                                             trials=25, seed=0))
    return reports


def test_mutant_deviations_are_bit_identical():
    reports = mutant_reports()
    assert (len(reports), sum(not r.passed for r in reports)) == (319, 33)
    assert laws_digest(reports) == MUTANTS_DIGEST


def test_mutant_reports_are_pinned_whole():
    reports = [r.to_json() for r in mutant_reports()]
    assert sha16(json.dumps(reports, sort_keys=True)) == MUTANT_REPORTS_DIGEST


# sha256 of ``mucinf laws-list --seed 0`` stdout: every entry's id, anchor,
# arity, models, kind and note, coherence laws first, each group by id
LAWS_LIST_DIGEST = "8448b007950c74fe"


def test_laws_list_bytes_are_pinned(capsys):
    assert main(["laws-list", "--seed", "0"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest()[:16] == LAWS_LIST_DIGEST


# sha256 over every test-map oracle call below: its whole output and the
# state of the stream it drew from, after the call
ORACLE_DIGEST = "815ffcf2a025d99a"
# (c_dims, x_dims) of the oracle calls
ORACLE_SETTINGS = (((1, 2, 3), (1, 2)), ((2, 4, 8), (1, 2)),
                   ((3, 3, 5), (2,)), ((1,), (1,)))


def test_oracle_outputs_are_bit_identical():
    # mat at seeds 0-14 and each mat mutant at seeds 0-2; per setting an
    # equivalent pair, a distinct pair, and the equivalent pair again at a
    # tolerance below rounding, so that witnesses land on later trials
    mat = get_model("mat")
    runs = [(mat, range(15))] + [(model, range(3)) for model in MUTANTS
                                 if model.base == "mat"]
    digest = hashlib.sha256()
    for model, seeds in runs:
        with registered(model) if model is not mat else nullcontext():
            for seed in seeds:
                rng = np.random.default_rng(seed)
                for c_dims, x_dims in ORACLE_SETTINGS:
                    k = random_channel(model, rng)
                    v = equivalent_variant(rng, k)
                    k1, k2 = distinct_pair(model, rng, k.dom, k.cod)
                    for pair, tol in (((k, v), 1e-7), ((k1, k2), 1e-9),
                                      ((k, v), 1e-16)):
                        out = equiv_testmap_oracle(
                            *pair, trials=20, rng=rng, c_dims=c_dims,
                            x_dims=x_dims, tol=tol)
                        digest.update(json.dumps(
                            [out, rng.bit_generator.state],
                            sort_keys=True).encode())
    assert digest.hexdigest()[:16] == ORACLE_DIGEST


# compose -> choi -> purify -> equiv through cli.main on the channels below:
# sha256 over the name and bytes of every file the CLI wrote, in call order
CLI_DIGEST = "7cfd67a5f2a10793"
# (a, b, c, u1, u2, u3): k1 is a -> b with ancilla u1, k2 is b -> c with u2,
# k3 is a -> c with u3
CLI_CHANNELS = ((1, 1, 1, 1, 1, 1), (2, 3, 2, 2, 1, 3), (3, 2, 4, 1, 3, 2),
                (4, 4, 1, 2, 2, 1))


def _write_channel(path, rng, a, b, u):
    # plain json, so the inputs do not depend on the codecs under test
    body = rng.standard_normal((u * b, a, 2))
    path.write_text(json.dumps({
        "dom": a, "cod": b, "ancilla": u,
        "body": {"rows": u * b, "cols": a,
                 "entries": body.reshape(-1, 2).tolist()}}))
    return str(path)


def test_cli_round_trip_bytes_are_pinned(tmp_path):
    rng = np.random.default_rng(15)
    written, codes = [], []
    for i, (a, b, c, u1, u2, u3) in enumerate(CLI_CHANNELS):
        k1 = _write_channel(tmp_path / f"{i}-k1.json", rng, a, b, u1)
        k2 = _write_channel(tmp_path / f"{i}-k2.json", rng, b, c, u2)
        k3 = _write_channel(tmp_path / f"{i}-k3.json", rng, a, c, u3)
        path = {name: str(tmp_path / f"{i}-{name}.json")
                for name in ("comp", "choi", "pure", "v1", "v2")}
        for argv, out in ((["channel-compose", k1, k2], "comp"),
                          (["channel-choi", path["comp"]], "choi"),
                          (["channel-purify", path["choi"]], "pure"),
                          (["channel-equiv", path["pure"], path["comp"]],
                           "v1"),
                          (["channel-equiv", k3, path["comp"]], "v2")):
            codes.append(main(argv + ["--out", path[out]]))
            written.append(path[out])
    assert codes == [0, 0, 0, 0, 1] * len(CLI_CHANNELS)
    digest = hashlib.sha256()
    for p in written:
        with open(p, "rb") as fh:
            digest.update(os.path.basename(p).encode() + b"\0" + fh.read())
    assert digest.hexdigest()[:16] == CLI_DIGEST
