import contextlib

import numpy as np
import pytest

from mucinf.cplane import CplaneModel
from mucinf.errors import UnknownLaw, UnknownModel
from mucinf.fmat import FmatModel
from mucinf.matc import MatModel
from mucinf.morphisms import register_model, registered_models, unregister_model
from mucinf.suite import (SuiteConfig, _rand_kraus, _rand_kraus_from,
                          list_laws, run_suite)


@contextlib.contextmanager
def registered(model):
    register_model(model)
    try:
        yield model
    finally:
        unregister_model(model.name)


def test_config_validation():
    with pytest.raises(ValueError):
        SuiteConfig(trials=-1)
    with pytest.raises(ValueError):
        SuiteConfig(tol=0.0)


def test_full_run_passes_and_is_deterministic():
    cfg = SuiteConfig(trials=8, seed=123)
    first = run_suite(cfg)
    second = run_suite(cfg)
    assert all(r.passed for r in first)
    assert [r.to_json() for r in first] == [r.to_json() for r in second]
    # one report per (law, model) pair, sorted
    keys = [(r.law, r.model) for r in first]
    assert keys == sorted(keys) and len(set(keys)) == len(keys)


def test_seed_changes_streams_but_not_verdicts():
    a = run_suite(SuiteConfig(trials=6, seed=1))
    b = run_suite(SuiteConfig(trials=6, seed=2))
    assert all(r.passed for r in a + b)


def test_filtering():
    reps = run_suite(SuiteConfig(trials=2, law_filter="DLDC7*"))
    assert {r.law for r in reps} == {"DLDC7a", "DLDC7b"}
    with pytest.raises(UnknownLaw):
        run_suite(SuiteConfig(trials=1, law_filter="NOPE-*"))


def test_zero_trials_pass_vacuously():
    reps = run_suite(SuiteConfig(trials=0, seed=9))
    assert reps and all(r.passed and r.max_abs_deviation == 0.0
                        for r in reps)


def test_discrete_model_catalog_is_exact():
    reps = run_suite(SuiteConfig(models=("cplane",), trials=10, seed=3))
    catalog_reports = [r for r in reps if not r.law.startswith("CP-")]
    assert all(r.max_abs_deviation == 0.0 for r in catalog_reports)


def test_list_laws_catalog():
    laws = list_laws()
    ids = {entry["id"] for entry in laws}
    assert len(laws) >= 30
    assert "DMIX" in ids and "Env.3" in ids
    u5a = next(e for e in laws if e["id"] == "U5a")
    assert u5a["anchor"] == "(φ_A ⊗ φ_B) λ⊗ = mx φ_{A⊕B}"
    assert u5a["kind"] == "coherence"


MUTATIONS = [
    ("mat!swap-laxor", MatModel("mat!swap-laxor", {"swap_laxor_tensor"})),
    ("mat!transpose-dagger",
     MatModel("mat!transpose-dagger", {"transpose_only_dagger"})),
    ("mat!scaled-mix", MatModel("mat!scaled-mix", {"scale_mix"})),
    ("mat!transpose-comm",
     MatModel("mat!transpose-comm", {"transpose_commutation"})),
    ("fmat!no-closure", FmatModel("fmat!no-closure", close_families=False)),
]


@pytest.mark.parametrize("name,model", MUTATIONS, ids=[m[0] for m in MUTATIONS])
def test_mutation_sensitivity(name, model):
    with registered(model):
        reps = run_suite(SuiteConfig(models=(name,), trials=25, seed=0))
    failing = [r.law for r in reps if not r.passed]
    assert failing, f"mutant {name} slipped through the suite"


def test_mutant_law_set_comes_from_its_class():
    # the name carries no family marker; the class's base decides the laws
    with registered(MatModel("broken", {"scale_mix"})):
        reps = run_suite(SuiteConfig(models=("broken",), trials=5, seed=0))
    assert reps and {r.model for r in reps} == {"broken"}
    assert any(r.law == "U4a" and not r.passed for r in reps)


def test_unknown_model_is_rejected():
    with pytest.raises(UnknownModel):
        run_suite(SuiteConfig(models=("bogus",), trials=1))


def test_specific_mutation_failures():
    # swapping the laxor's arguments is still coherent for the associator
    # square, but the symmetry square catches it
    with registered(MatModel("mat!swap-laxor2", {"swap_laxor_tensor"})):
        reps = run_suite(SuiteConfig(models=("mat!swap-laxor2",), trials=25,
                                     seed=0, law_filter="DLDC7a"))
    assert not reps[0].passed and reps[0].witness is not None

    # an argument-skewed laxor breaks the associator square itself
    with registered(MatModel("mat!skew-laxor", {"skew_laxor_tensor"})):
        reps = run_suite(SuiteConfig(models=("mat!skew-laxor",), trials=25,
                                     seed=0, law_filter="DLDC1a"))
    assert not reps[0].passed and reps[0].witness is not None

    with registered(MatModel("mat!scaled-mix2", {"scale_mix"})):
        reps = run_suite(SuiteConfig(models=("mat!scaled-mix2",), trials=5,
                                     seed=0, law_filter="U4a"))
    assert not reps[0].passed


def test_cplane_mutant_channels_are_built_in_the_mutant():
    cfg = SuiteConfig(models=("cplane-x",), trials=5, seed=7,
                      law_filter="CP-CAT-*")
    with registered(CplaneModel("cplane-x")) as model:
        rng = np.random.default_rng(0)
        k = _rand_kraus(model, rng)
        assert k.model == k.body.model == "cplane-x"
        assert _rand_kraus_from(model, rng, k).model == "cplane-x"
        reps = run_suite(cfg)
    assert [(r.law, r.model, r.passed) for r in reps] == [
        ("CP-CAT-ASSOC", "cplane-x", True), ("CP-CAT-IDENT", "cplane-x", True)]
    assert "cplane-x" not in registered_models()
    with pytest.raises(UnknownModel):
        run_suite(cfg)


def test_unmutated_twin_passes_every_report():
    # channel samplers follow the entry's model instead of defaulting to
    # "mat", so a correct copy of the dense model is a correct model
    with registered(MatModel("mat-twin")):
        reps = run_suite(SuiteConfig(models=("mat-twin",), trials=5, seed=7))
    assert len(reps) == 61
    assert [r.law for r in reps if not r.passed] == []


class _CrashingCup(MatModel):
    def structural_payload(self, name, args, dom, cod):
        if name == "eta":
            raise ZeroDivisionError("cup")
        return super().structural_payload(name, args, dom, cod)


def test_a_crashing_entry_becomes_a_failed_report():
    with registered(_CrashingCup("mat-crash")):
        reps = run_suite(SuiteConfig(models=("mat-crash",), trials=3, seed=7))
    failed = {r.law: r for r in reps if not r.passed}
    assert sorted(failed) == ["SNAKE-L", "SNAKE-R", "UDUALa", "UDUALb"]
    for rep in failed.values():
        assert rep.max_abs_deviation == float("inf")
        assert rep.witness == {"error": "ZeroDivisionError: cup", "trial": 0}
    assert len(reps) == 61


def test_catalog_trials_look_up_check_law_when_run(monkeypatch):
    # a wrapper installed after import (as a tracer does) sees every trial
    from mucinf import suite
    seen = []
    original = suite.check_law

    def counting(*args, **kwargs):
        seen.append(args[0])
        return original(*args, **kwargs)

    monkeypatch.setattr(suite, "check_law", counting)
    run_suite(SuiteConfig(models=("mat",), trials=3, law_filter="DLDC7a"))
    assert seen == ["DLDC7a"] * 3
