import functools
import inspect
import itertools
import math
import re

import numpy as np
import pytest

from mucinf import cpinf
from mucinf.cplane import CplaneModel
from mucinf.errors import ArityError, UnknownLaw, UnknownModel
from mucinf.fmat import FmatModel, explicit_family, finite_space
from mucinf.laws import check_law, run_trials
from mucinf.matc import MatModel, check_hermitian
from mucinf.morphisms import compose, get_model, identity, registered_models
from mucinf.objects import Base
from mucinf.suite import SuiteConfig, list_laws, run_suite
from mucinf.suite import _entry_rng as suite_stream
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


def test_each_distinct_pair_runs_once_in_the_listed_order(monkeypatch):
    from mucinf import suite
    seen = []
    original = suite.check_law

    def recording(entry_id, model, **kwargs):
        seen.append((entry_id, model.name))
        return original(entry_id, model, **kwargs)

    monkeypatch.setattr(suite, "check_law", recording)
    reps = run_suite(SuiteConfig(models=("cplane", "mat", "cplane", "mat"),
                                 law_filter="DMIX", trials=1))
    assert seen == [("DMIX", "cplane"), ("DMIX", "mat")]
    assert [(r.law, r.model) for r in reps] == [("DMIX", "cplane"),
                                                 ("DMIX", "mat")]


def test_seed_changes_streams_but_not_verdicts():
    a = run_suite(SuiteConfig(trials=6, seed=1))
    b = run_suite(SuiteConfig(trials=6, seed=2))
    assert all(r.passed for r in a + b)


def test_filtering():
    reps = run_suite(SuiteConfig(trials=2, law_filter="DLDC7*"))
    assert {r.law for r in reps} == {"DLDC7a", "DLDC7b"}
    with pytest.raises(UnknownLaw):
        run_suite(SuiteConfig(trials=1, law_filter="NOPE-*"))


@pytest.mark.parametrize("models, law_filter", [
    (("fmat",), "DLDC1a"), (("cplane",), "CP-DAG-*"), ((), "*")])
def test_a_filter_selecting_no_pair_is_refused(models, law_filter):
    # the filter matches entries, but none that a chosen model carries: an
    # empty report list would pass vacuously, as zero trials would
    with pytest.raises(UnknownLaw) as exc:
        run_suite(SuiteConfig(models=models, law_filter=law_filter, trials=1))
    assert str(exc.value) == (f"filter {law_filter!r} selects no law of "
                              f"models {list(models)}")


def test_zero_trials_are_refused():
    # no trial checks nothing, and must not read as a pass
    for trials in (0, -1):
        with pytest.raises(ValueError, match="trials must be >= 1"):
            SuiteConfig(trials=trials, seed=9)
        with pytest.raises(ValueError, match="trials must be >= 1"):
            check_law("DMIX", "mat", trials=trials)


@pytest.mark.parametrize("trials", [True, 2.5, "3"])
def test_a_trial_count_that_is_no_int_is_refused(trials):
    # True ran one trial and reported "trials": true; 2.5 escaped from
    # range as a TypeError
    calls = (lambda: SuiteConfig(trials=trials),
             lambda: check_law("DMIX", "mat", trials=trials),
             lambda: run_trials("DMIX", "mat", lambda rng: (0.0, None),
                                trials, np.random.default_rng(0), 1e-9))
    for call in calls:
        with pytest.raises(ValueError, match=re.escape(
                f"trials must be an int, got {trials!r}")):
            call()


@pytest.mark.parametrize("tol", [math.inf, math.nan, 0.0, -1.0],
                         ids=["inf", "nan", "zero", "negative"])
def test_a_tolerance_not_positive_and_finite_is_refused(tol):
    # under inf a report whose every trial crashed passed, with no witness;
    # under NaN a law that read 0.0 failed, with no witness
    def crash(rng):
        raise ZeroDivisionError("crash")

    # and the channel verdicts: under inf a distinct pair was equivalent
    # and a non-Hermitian density accepted, under NaN a channel was not
    # equivalent to itself
    rng = np.random.default_rng(0)
    state = rng.bit_generator.state
    k = cpinf.kraus_identity("mat", Base(2))
    form = get_model("mat").canonical(k)
    calls = (lambda: SuiteConfig(tol=tol),
             lambda: check_law("DMIX", "mat", rng=rng, tol=tol),
             lambda: run_trials("X", "mat", crash, 3, rng, tol),
             lambda: cpinf.initiality_probe("mat", samples=1, rng=rng,
                                            tol=tol),
             lambda: cpinf.equiv_decide(k, k, tol),
             lambda: cpinf.equiv_testmap_oracle(k, k, rng=rng, tol=tol),
             lambda: cpinf.channel_action(k, np.eye(2) / 2, tol),
             lambda: check_hermitian(np.eye(2), tol),
             lambda: form.equiv(form, tol))
    for call in calls:
        with pytest.raises(ValueError, match=re.escape(
                f"tolerance must be positive and finite, got {tol}")):
            call()
    assert rng.bit_generator.state == state


def test_a_numpy_trial_count_is_an_int():
    assert SuiteConfig(trials=np.int64(2)).trials == 2
    rep = check_law("DMIX", "mat", trials=np.int64(2))
    assert type(rep.trials) is int and rep.to_json()["trials"] == 2


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
        "Env.1a": "discard of a tensor = glued tensor of discards",
        "Env.1b": "discard of a par = glued par of discards",
        "Env.2": "the discard equation decides equivalence",
        "Env.3": "every channel purifies through the discard",
    }
    assert all(e["kind"] == "property" and e["models"] == ["mat"]
               for e in env.values())


def test_a_wrapper_sees_one_check_law_call_per_report(monkeypatch):
    # a wrapper installed after import (as a tracer does) sees the suite's
    # one call per (entry, model) report, for laws and properties alike
    from mucinf import suite
    seen = []
    original = suite.check_law

    def counting(entry_id, model, **kwargs):
        seen.append((entry_id, model.name, kwargs["trials"]))
        return original(entry_id, model, **kwargs)

    monkeypatch.setattr(suite, "check_law", counting)
    reps = run_suite(SuiteConfig(trials=2))
    assert sorted(seen) == [(r.law, r.model, 2) for r in reps]
    assert {"DLDC7a", "CP-DAG-INV"} <= {law for law, _, _ in seen}


def test_check_law_runs_a_property_like_the_suite():
    (rep,) = run_suite(SuiteConfig(models=("mat",), trials=4, seed=5,
                                   law_filter="CP-DAG-INV"))
    rng = suite_stream(5, "CP-DAG-INV", "mat")
    again = check_law("CP-DAG-INV", "mat", rng=rng, seed=5, trials=4)
    assert again == rep and rep.passed and rep.trials == 4
    assert check_law("CP-DAG-INV", "mat", seed=1).trials == 1


def test_a_property_takes_no_objects():
    with pytest.raises(ArityError):
        check_law("CP-DAG-INV", "mat", [Base(2)])
    with pytest.raises(ArityError):
        check_law("CP-DAG-INV", "mat", [])
