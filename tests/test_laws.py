from collections import Counter
from contextlib import nullcontext
from dataclasses import replace
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mucinf import laws
from mucinf.errors import MucinfError, UnknownLaw, UnsupportedInModel
from mucinf.laws import catalog, check_law, run_trials
from mucinf.matc import MatModel, _freeze
from mucinf.morphisms import get_model
from mucinf.objects import Base
from mucinf.structural import structural
from mucinf.suite import SuiteConfig, run_suite
from mutants import MUTANTS, CrashingCup, NudgedLaxor, NudgedMix, registered


def test_catalog_size_and_membership():
    laws = catalog()
    assert len(laws) >= 30
    for expected in ("DLDC1a", "DLDC6", "DMIX", "MXDAG", "MXDEF", "SNAKE-L",
                     "U2", "U3", "U4a", "U4b", "U5a", "U5b", "UDUALa",
                     "MIXPRES", "FF1", "FF-MIX", "FF-ISOMIX", "PRES",
                     "MXSLIDE-NAT", "IOTA-NAT", "RHO-TP-a", "RHO-TP-b"):
        assert expected in laws, expected


def test_u5a_anchor_string():
    assert catalog()["U5a"].anchor == "(φ_A ⊗ φ_B) λ⊗ = mx φ_{A⊕B}"


def test_undisplayed_forms_are_flagged():
    assert catalog()["U5b"].note is not None
    assert catalog()["UDUALb"].note is not None


# ---------------------------------------------------------------------------
# a law is its anchor text

# the arities the hand-written builders of these laws declared
BUILDER_ARITIES = {
    "DLDC1a": 3, "DLDC1b": 3, "DLDC2a": 1, "DLDC2b": 1, "DLDC2c": 1,
    "DLDC2d": 1, "DLDC3a": 3, "DLDC3b": 3, "DLDC4a": 2, "DLDC4b": 2,
    "DLDC5a": 0, "DLDC5b": 0, "DLDC6": 1, "DLDC7a": 2, "DLDC7b": 2,
    "DMIX": 0, "MXDAG": 2, "MXDEF": 2, "SNAKE-L": 1, "SNAKE-R": 1, "U2": 1,
    "U3": 1, "U4a": 0, "U4b": 0, "U5a": 2, "U5b": 2, "UDUALa": 1,
    "UDUALb": 1, "MXSLIDE-MX": 3, "RHO-TP-a": 2, "RHO-TP-b": 2}
# the laws whose anchors name arrows f, g or the functor F
BUILT = {"MIXPRES", "FF1", "FF2", "FF3", "FF-MIX", "FF-ISOMIX", "PRES",
         "MXSLIDE-NAT", "IOTA-NAT"}


def test_each_equation_infers_its_builders_arity():
    for law_id, arity in BUILDER_ARITIES.items():
        assert laws._equation(catalog()[law_id].anchor)[0] == arity, law_id
        assert catalog()[law_id].arity == arity, law_id


@pytest.mark.parametrize("text", [
    "q = 1",                   # a token outside the grammar
    "a⊗ (λ⊗ ⊗ 1 λ⊗ = 1",       # unbalanced
    "(mx λ⊕)⁻¹ = 1",           # an inverse of a composite
    "λ⊗ = λ⊕",                 # ill-typed: a tensor is no par
    "a⊗ = 1",                  # A is no A ⊗ B
    "η mx⁻¹ c⊗ ε = m⁻¹",       # an object that no end of the law binds
    "c⊗⁻¹ = c⊗",               # c⊗ has no registered inverse
    "λ⊗",                      # no equation
])
def test_an_unreadable_anchor_is_refused(text):
    with pytest.raises(MucinfError):
        laws._equation(text)
    # and so is its registration, with nothing registered
    with pytest.raises(MucinfError):
        laws._law("NOT-A-LAW", text)
    assert "NOT-A-LAW" not in laws.ENTRIES


def test_a_builder_is_kept_only_for_an_anchor_the_grammar_refuses():
    refused = set()
    for law_id, entry in coherence_laws():
        try:
            laws._equation(entry.anchor)
        except MucinfError:
            refused.add(law_id)
    assert refused == BUILT
    assert {law_id for law_id, _ in coherence_laws()} == (
        BUILT | set(BUILDER_ARITIES))
    # registering a builder for an anchor the grammar reads is refused
    with pytest.raises(MucinfError, match="no builder"):
        laws._law("NOT-A-LAW", "m λ⊤ = λ⊥ m†", 0)
    assert "NOT-A-LAW" not in laws.ENTRIES


def test_a_chained_anchor_compares_the_first_side_with_each_other():
    arity, build = laws._equation(catalog()["MXDEF"].anchor)
    ctx = laws.LawContext(get_model("mat"), [Base(2), Base(3)], None)
    (left, right), (left2, mx) = build(ctx)
    assert left is left2 and mx.dom == left.dom and mx.cod == left.cod
    assert np.array_equal(mx.payload,
                          structural("mat", "mx", [Base(2), Base(3)]).payload)


def test_stationary_dagger_example():
    rep = check_law("DLDC6", "mat")
    assert rep.passed and rep.max_abs_deviation == 0.0


def test_u4_on_the_discrete_model_is_exact():
    for law in ("U4a", "U4b"):
        rep = check_law(law, "cplane", [])
        assert rep.passed and rep.max_abs_deviation == 0.0


def test_dldc1a_randomized():
    rng = np.random.default_rng(5)
    for _ in range(25):
        rep = check_law("DLDC1a", "mat",
                        [Base(int(rng.integers(1, 4))) for _ in range(3)],
                        rng=rng)
        assert rep.passed and rep.max_abs_deviation <= 1e-9


def test_unknown_law():
    with pytest.raises(UnknownLaw):
        check_law("NOT-A-LAW", "mat")


def test_wrong_object_count():
    from mucinf.errors import ArityError
    with pytest.raises(ArityError):
        check_law("U5a", "mat", [Base(2)])


def test_unavailable_in_model():
    with pytest.raises(UnsupportedInModel):
        check_law("DLDC1a", "fmat")


def coherence_laws():
    return sorted((law_id, law) for law_id, law in catalog().items()
                  if law.kind == "coherence")


def test_full_catalog_passes_everywhere():
    rng = np.random.default_rng(11)
    for law_id, law in coherence_laws():
        for model in law.models:
            for _ in range(5):
                rep = check_law(law_id, model, rng=rng)
                assert rep.passed, (law_id, model, rep.witness)


def test_catalog_exact_on_discrete_and_structural_mat():
    # without random morphisms every side is built from permutations and
    # identities, so the deviation is exactly zero
    rng = np.random.default_rng(17)
    random_component_laws = {"FF1", "FF2", "FF3", "MXSLIDE-NAT", "IOTA-NAT"}
    for law_id, law in coherence_laws():
        if law_id in random_component_laws:
            continue
        for model in law.models:
            rep = check_law(law_id, model, rng=rng)
            assert rep.max_abs_deviation == 0.0, (law_id, model)


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 3), st.integers(1, 3), st.integers(1, 3),
       st.integers(0, 2 ** 31 - 1))
def test_laxor_associator_square_property(a, b, c, seed):
    rng = np.random.default_rng(seed)
    for law in ("DLDC1a", "DLDC1b", "DLDC3a", "DLDC3b"):
        rep = check_law(law, "mat", [Base(a), Base(b), Base(c)], rng=rng)
        assert rep.passed


def test_report_shape():
    rep = check_law("U5a", "mat", seed=3)
    payload = rep.to_json()
    assert set(payload) == {"law", "model", "trials", "max_abs_deviation",
                            "pass", "witness", "seed", "tol"}
    assert payload["pass"] is True


def test_a_crashing_build_is_a_failed_report():
    # the same report the suite gives a trial whose build raises
    with registered(CrashingCup("mat-crash")) as model:
        rep = check_law("SNAKE-L", model, seed=1)
    assert not rep.passed and rep.max_abs_deviation == float("inf")
    assert rep.witness == {"error": "ZeroDivisionError: cup", "trial": 0}


class DoubledStrength(MatModel):
    """The strength m⊗ is twice what it should be."""

    def structural_payload(self, name, args, dom, cod):
        p = super().structural_payload(name, args, dom, cod)
        return _freeze(2 * p) if name == "m_tensor" else p


def test_a_failing_nullary_witness_names_its_donor_bases():
    # MIXPRES has no objects of its own: only its donor bases replay it
    with registered(DoubledStrength("mat!doubled-strength")) as model:
        rep = check_law("MIXPRES", model, seed=0)
        donors = laws.ENTRIES["MIXPRES"].sample(model,
                                                np.random.default_rng(0))
    assert not rep.passed
    assert rep.witness == {"objects": [], "deviation": 1.0,
                           "donors": [repr(o) for o in donors], "trial": 0}


def test_a_passing_nullary_report_has_no_witness():
    rep = check_law("MIXPRES", "mat", seed=0, trials=5)
    assert rep.passed and rep.witness is None


# ---------------------------------------------------------------------------
# a trial that is a function of its sampled objects runs once per input


def _counted(monkeypatch, entry_id, models=None, trials=100, seed=7):
    """Run ``entry_id`` through the suite with its trial and its sampler
    counted: the models each trial body ran in, the inputs each trial drew,
    and the reports."""
    entry = laws.ENTRIES[entry_id]
    runs, drawn = Counter(), []

    def trial(m, rng, tol, *inputs):
        runs[m.name] += 1
        return entry.trial(m, rng, tol, *inputs)

    def sample(m, rng):
        inputs = entry.sample(m, rng)
        drawn.append((m.name, tuple(map(repr, inputs))))
        return inputs

    monkeypatch.setitem(laws.ENTRIES, entry_id,
                        replace(entry, trial=trial, sample=sample))
    reports = run_suite(SuiteConfig(models=models or entry.models,
                                    law_filter=entry_id, trials=trials,
                                    seed=seed))
    monkeypatch.undo()
    assert reports == run_suite(SuiteConfig(models=models or entry.models,
                                            law_filter=entry_id,
                                            trials=trials, seed=seed))
    assert all(r.trials == trials for r in reports)
    return runs, drawn


def test_a_nullary_law_runs_once_per_model(monkeypatch):
    runs, drawn = _counted(monkeypatch, "DMIX")
    assert runs == {m: 1 for m in catalog()["DMIX"].models}
    assert len(drawn) == 100 * len(runs)


def test_a_unary_law_runs_once_per_distinct_object(monkeypatch):
    runs, drawn = _counted(monkeypatch, "DLDC2a", models=("mat",))
    assert len(drawn) == 100
    assert runs["mat"] == len(set(drawn)) < 100


def test_an_env_axiom_runs_once_per_distinct_pair(monkeypatch):
    runs, drawn = _counted(monkeypatch, "Env.1a")
    # a pair of bases of dimension 1..3
    assert runs["mat"] == len(set(drawn)) <= 9


@pytest.mark.parametrize("entry_id", ["FF1", "IOTA-NAT"])
def test_a_law_with_random_arrows_runs_every_trial(monkeypatch, entry_id):
    runs, _ = _counted(monkeypatch, entry_id, models=("mat",))
    assert runs["mat"] == 100


def test_given_objects_run_once(monkeypatch):
    entry = laws.ENTRIES["DLDC2a"]
    runs = []

    def trial(m, rng, tol, objects):
        runs.append(objects)
        return entry.trial(m, rng, tol, objects)

    monkeypatch.setitem(laws.ENTRIES, "DLDC2a", replace(entry, trial=trial))
    rep = check_law("DLDC2a", "mat", [Base(2)], trials=10)
    assert rep.passed and rep.trials == 10
    assert runs == [(Base(2),)]


@pytest.mark.parametrize("model", ["mat", "mat!skew-laxor"])
def test_each_sampled_entry_reports_as_if_every_trial_ran(model):
    # the memo keeps every report field, witness and trial index included:
    # a run with no memo, each trial drawing and running, reports the same
    def unmemoised(entry, m, rng):
        return entry.trial(m, rng, 1e-9, entry.sample(m, rng))

    mutants = {mutant.name: mutant for mutant in MUTANTS}
    with registered(mutants[model]) if model in mutants else nullcontext():
        m = get_model(model)
        for entry in catalog().values():
            if entry.sample is None or m.base not in entry.models:
                continue
            want = run_trials(entry.entry_id, m.name,
                              partial(unmemoised, entry, m), 30,
                              np.random.default_rng(3), 1e-9, 3)
            got = check_law(entry.entry_id, m, rng=np.random.default_rng(3),
                            seed=3, trials=30)
            assert got == want, entry.entry_id


@pytest.mark.parametrize("mutant,nudge,seen", [
    (NudgedLaxor("mat!nudged-laxor"), 2e-10,
     {"DLDC2a", "DLDC2c", "DLDC4a", "DLDC4b", "MXDAG", "RHO-TP-a", "U5a",
      "UDUALb"}),
    (NudgedMix("mat!nudged-mix"), 1e-11, {"MXDEF", "U4a", "U4b"}),
], ids=["laxor", "mix"])
def test_a_nudge_below_the_tolerance_passes_every_report(mutant, nudge, seen):
    # pins a blind spot: these coherence laws read the fault itself, yet
    # the default tolerance's slack passes them; in mat every coherence law
    # reads exactly 0.0, so verdicts exact where the arithmetic is exact
    # fail these rows, and this test with them
    with registered(mutant):
        reports = run_suite(SuiteConfig(models=(mutant.name,), trials=25,
                                        seed=0))
    assert (len(reports), sum(r.passed for r in reports)) == (61, 61)
    coherence = {r.law: r.max_abs_deviation for r in reports
                 if laws.ENTRIES[r.law].kind == "coherence"}
    assert {law for law, dev in coherence.items() if dev} == seen
    for law in seen:
        assert coherence[law] == pytest.approx(nudge, rel=1e-6), law
