import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mucinf.errors import UnknownLaw, UnsupportedInModel
from mucinf.laws import catalog, check_law
from mucinf.objects import Base
from mutants import CrashingCup, registered


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


def test_full_catalog_passes_everywhere():
    rng = np.random.default_rng(11)
    for law_id, law in sorted(catalog().items()):
        for model in law.models:
            for _ in range(5):
                rep = check_law(law_id, model, rng=rng)
                assert rep.passed, (law_id, model, rep.witness)


def test_catalog_exact_on_discrete_and_structural_mat():
    # without random morphisms every side is built from permutations and
    # identities, so the deviation is exactly zero
    rng = np.random.default_rng(17)
    random_component_laws = {"FF1", "FF2", "FF3", "MXSLIDE-NAT", "IOTA-NAT"}
    for law_id, law in sorted(catalog().items()):
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
