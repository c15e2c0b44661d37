"""Bit-identity guard: the seed-7, 100-trial suite keeps every deviation.

The digest is sha256 over the sorted ``(law, model, repr(max_abs_deviation))``
rows of one run, the same formula as the benchmark's ``laws_digest``.  It
belongs to the environment it was taken in (Python 3.11.7, numpy 2.4.6,
OpenBLAS 0.3.31): another BLAS or numpy may round differently.  A change
that alters deviations on purpose updates the digest here and records the
old and new values, and why, in CHANGES.md.
"""

import hashlib
import json

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


def test_mutant_deviations_are_bit_identical():
    reports = []
    for model in MUTANTS:
        with registered(model):
            reports += run_suite(SuiteConfig(models=(model.name,),
                                             trials=25, seed=0))
    assert (len(reports), sum(not r.passed for r in reports)) == (319, 33)
    assert laws_digest(reports) == MUTANTS_DIGEST
