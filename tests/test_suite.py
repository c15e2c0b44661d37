import functools
import inspect
import itertools

import numpy as np
import pytest

from mucinf import cpinf
from mucinf.cplane import CplaneModel
from mucinf.errors import UnknownLaw, UnknownModel
from mucinf.fmat import FmatModel, explicit_family, finite_space
from mucinf.laws import check_law
from mucinf.matc import MatModel
from mucinf.morphisms import compose, get_model, identity, registered_models
from mucinf.suite import SuiteConfig, list_laws, run_suite
from mutants import (MUTANTS, CrashingCup, NanMix, ScaledMix, SkewLaxor,
                     SwapLaxor, registered)


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


MUTATIONS = [(m.name, m) for m in MUTANTS]


@pytest.mark.parametrize("name,model", MUTATIONS, ids=[m[0] for m in MUTATIONS])
def test_mutation_sensitivity(name, model):
    with registered(model):
        reps = run_suite(SuiteConfig(models=(name,), trials=25, seed=0))
    failing = [r.law for r in reps if not r.passed]
    assert failing, f"mutant {name} slipped through the suite"


def test_models_have_no_fault_switches():
    # mutants are subclasses in tests/mutants.py, not options of the models
    for fn, params in ((MatModel, ["name"]), (FmatModel, ["name"]),
                       (finite_space, ["labels"]),
                       (explicit_family, ["sets"])):
        assert list(inspect.signature(fn).parameters) == params


def test_mutant_law_set_comes_from_its_class():
    # the name carries no family marker; the class's base decides the laws
    with registered(ScaledMix("broken")):
        reps = run_suite(SuiteConfig(models=("broken",), trials=5, seed=0))
    assert reps and {r.model for r in reps} == {"broken"}
    assert any(r.law == "U4a" and not r.passed for r in reps)


def test_unknown_model_is_rejected():
    with pytest.raises(UnknownModel):
        run_suite(SuiteConfig(models=("bogus",), trials=1))


def test_specific_mutation_failures():
    # swapping the laxor's arguments is still coherent for the associator
    # square, but the symmetry square catches it
    with registered(SwapLaxor("mat!swap-laxor2")):
        reps = run_suite(SuiteConfig(models=("mat!swap-laxor2",), trials=25,
                                     seed=0, law_filter="DLDC7a"))
    assert not reps[0].passed and reps[0].witness is not None

    # an argument-skewed laxor breaks the associator square itself
    with registered(SkewLaxor("mat!skew-laxor")):
        reps = run_suite(SuiteConfig(models=("mat!skew-laxor",), trials=25,
                                     seed=0, law_filter="DLDC1a"))
    assert not reps[0].passed and reps[0].witness is not None

    with registered(ScaledMix("mat!scaled-mix2")):
        reps = run_suite(SuiteConfig(models=("mat!scaled-mix2",), trials=5,
                                     seed=0, law_filter="U4a"))
    assert not reps[0].passed


def test_cplane_mutant_channels_are_built_in_the_mutant():
    cfg = SuiteConfig(models=("cplane-x",), trials=5, seed=7,
                      law_filter="CP-CAT-*")
    with registered(CplaneModel("cplane-x")) as model:
        rng = np.random.default_rng(0)
        k = cpinf.random_channel(model, rng)
        assert k.model == k.body.model == "cplane-x"
        assert cpinf.random_channel(model, rng, k.cod).model == "cplane-x"
        reps = run_suite(cfg)
    assert [(r.law, r.model, r.passed) for r in reps] == [
        ("CP-CAT-ASSOC", "cplane-x", True), ("CP-CAT-IDENT", "cplane-x", True)]
    assert "cplane-x" not in registered_models()
    with pytest.raises(UnknownModel):
        run_suite(cfg)


@pytest.fixture(params=["mat", "cplane", "fmat", "cplane-y"])
def sampled_model(request):
    if request.param == "cplane-y":
        with registered(CplaneModel("cplane-y")) as model:
            yield model
    else:
        yield get_model(request.param)


def test_chained_objects_have_random_morphisms(sampled_model):
    rng = np.random.default_rng(11)
    for unitary in (False, True):
        for length in range(4):
            chain = sampled_model.random_chain(rng, length, unitary=unitary)
            assert len(chain) == length + 1
            arrows = [sampled_model.random_morphism(rng, a, b)
                      for a, b in zip(chain, chain[1:])]
            whole = functools.reduce(compose, arrows,
                                     identity(sampled_model, chain[0]))
            assert (whole.dom, whole.cod) == (chain[0], chain[-1])


def test_random_channels_belong_to_their_model(sampled_model):
    rng = np.random.default_rng(12)
    for _ in range(10):
        k = cpinf.random_channel(sampled_model, rng)
        assert k.model == k.body.model == sampled_model.name
        assert cpinf.kraus_new(k.body, k.ancilla).cod == k.cod
        # the objects given are kept, so drawn channels chain
        assert cpinf.random_channel(sampled_model, rng, k.cod).dom == k.cod
        assert cpinf.random_channel(sampled_model, rng,
                                    cod=k.dom).cod == k.dom


def test_a_registered_cplane_model_draws_its_own_objects():
    patterns = ("FF*", "MIXPRES", "PRES", "CP-Q-FUNCTOR", "CP-CAT-*")
    with registered(CplaneModel("cplane-y")):
        reps = [r for pattern in patterns for r in run_suite(SuiteConfig(
            models=("cplane-y",), trials=10, seed=7, law_filter=pattern))]
    assert sorted(r.law for r in reps) == [
        "CP-CAT-ASSOC", "CP-CAT-IDENT", "CP-Q-FUNCTOR", "FF-ISOMIX",
        "FF-MIX", "FF1", "FF2", "FF3", "MIXPRES", "PRES"]
    assert all(r.passed and r.model == "cplane-y" for r in reps)


def test_a_nan_payload_fails_the_laws_it_enters():
    # NaN compares false with everything; a fold that keeps the larger
    # deviation by comparison would report 0.0 and pass
    with registered(NanMix("mat-nan")) as model:
        for law in ("U4a", "U4b"):
            rep = check_law(law, model, seed=1)
            assert not rep.passed
            assert rep.max_abs_deviation == float("inf")
        reps = {r.law: r for r in run_suite(
            SuiteConfig(models=("mat-nan",), trials=3, seed=1))}
    for law in ("U4a", "U4b"):
        assert not reps[law].passed
        assert reps[law].max_abs_deviation == float("inf")


def test_unmutated_twin_passes_every_report():
    # channel samplers follow the entry's model instead of defaulting to
    # "mat", so a correct copy of the dense model is a correct model
    with registered(MatModel("mat-twin")):
        reps = run_suite(SuiteConfig(models=("mat-twin",), trials=5, seed=7))
    assert len(reps) == 61
    assert [r.law for r in reps if not r.passed] == []


def test_a_crashing_entry_becomes_a_failed_report():
    with registered(CrashingCup("mat-crash")):
        reps = run_suite(SuiteConfig(models=("mat-crash",), trials=3, seed=7))
    failed = {r.law: r for r in reps if not r.passed}
    assert sorted(failed) == ["SNAKE-L", "SNAKE-R", "UDUALa", "UDUALb"]
    for rep in failed.values():
        assert rep.max_abs_deviation == float("inf")
        assert rep.witness == {"error": "ZeroDivisionError: cup", "trial": 0}
    assert len(reps) == 61


def _alternating(*values):
    stream = itertools.cycle(values)
    return lambda *_: next(stream)


@pytest.mark.parametrize("entry", ["CP-CAT-IDENT", "CP-WELLDEF",
                                   "CP-MIX-INV", "CP-Q-FUNCTOR"])
def test_a_nan_second_part_fails_a_two_part_property(monkeypatch, entry):
    # max(0.0, nan) is 0.0, so a fold by max would pass these properties
    monkeypatch.setattr(cpinf, "channel_deviation",
                        _alternating(0.0, float("nan")))
    (rep,) = run_suite(SuiteConfig(models=("mat",), trials=2,
                                   law_filter=entry))
    assert not rep.passed and rep.max_abs_deviation == float("inf")


def test_a_nan_second_part_fails_the_inclusion_functor():
    class NanSecond(FmatModel):
        deviation = staticmethod(_alternating(0.0, float("nan")))

    with registered(NanSecond("fmat-nan-second")):
        (rep,) = run_suite(SuiteConfig(models=("fmat-nan-second",), trials=2,
                                       law_filter="FMAT-INCLUDE-FUNCTOR"))
    assert not rep.passed and rep.max_abs_deviation == float("inf")


def test_env_entries_read_the_one_axiom_table():
    env = {e["id"]: e for e in list_laws() if e["id"].startswith("Env.")}
    assert {i: e["anchor"] for i, e in env.items()} == {
        i: anchor for i, (anchor, _) in cpinf.ENV_AXIOMS.items()}
    assert all(e["kind"] == "property" and e["models"] == ["mat"]
               for e in env.values())


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
