import copy
import hashlib
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mucinf import cpinf, jsonio
from mucinf.errors import (DimensionOverflow, MucinfError, ShapeMismatch,
                           TypingError)
from mucinf.fmat import (MAX_EXPLICIT, OMEGA_FIN, SparseMatrix, finite_space,
                         include_mat, sparse_identity)
from mucinf.matc import MAT
from mucinf.morphisms import get_model, tensor
from mucinf.objects import Base

RNG = np.random.default_rng(77)


class TestMatrix:
    def test_round_trip(self):
        m = RNG.random((3, 2)) + 1j * RNG.random((3, 2))
        again = jsonio.matrix_from_json(jsonio.matrix_to_json(m))
        assert np.array_equal(m, again)

    def test_schema_shape(self):
        d = jsonio.matrix_to_json(np.eye(2))
        assert d == {"rows": 2, "cols": 2,
                     "entries": [[1.0, 0.0], [0.0, 0.0],
                                 [0.0, 0.0], [1.0, 0.0]]}

    def test_rejects_nan_and_inf(self):
        bad = {"rows": 1, "cols": 1, "entries": [[float("nan"), 0.0]]}
        with pytest.raises(TypingError):
            jsonio.matrix_from_json(bad)
        bad["entries"] = [[0.0, float("inf")]]
        with pytest.raises(TypingError):
            jsonio.matrix_from_json(bad)

    def test_writer_refuses_nan_and_inf(self):
        for bad in (np.nan, np.inf, 1j * np.inf):
            with pytest.raises(TypingError):
                jsonio.matrix_to_json(np.array([[1.0, bad]]))

    def test_rejects_wrong_entry_count(self):
        with pytest.raises(ShapeMismatch):
            jsonio.matrix_from_json({"rows": 2, "cols": 2,
                                     "entries": [[1.0, 0.0]]})


class TestChannel:
    def test_round_trip(self):
        k = cpinf.random_channel(MAT, RNG, Base(2), Base(3), Base(2))
        d = jsonio.channel_to_json(k)
        assert (d["dom"], d["cod"], d["ancilla"]) == (2, 3, 2)
        again = jsonio.channel_from_json(d)
        assert cpinf.equiv_decide(k, again)
        assert np.array_equal(k.body.payload, again.body.payload)

    def test_shape_validation(self):
        k = cpinf.random_channel(MAT, RNG, Base(2), Base(3), Base(2))
        d = jsonio.channel_to_json(k)
        d["ancilla"] = 3
        with pytest.raises(ShapeMismatch):
            jsonio.channel_from_json(d)


@pytest.mark.parametrize("key,value", [
    ("dom", 2.5), ("cod", 2.0), ("ancilla", "1"), ("dom", True)])
def test_channel_dimensions_must_be_integers(key, value):
    k = cpinf.random_channel(MAT, RNG, Base(2), Base(2), Base(1))
    d = jsonio.channel_to_json(k)
    d[key] = value
    with pytest.raises(TypingError):
        jsonio.channel_from_json(d)


def test_matrix_and_choi_dimensions_must_be_integers():
    with pytest.raises(TypingError):
        jsonio.matrix_from_json({"rows": 1.0, "cols": 1,
                                 "entries": [[1.0, 0.0]]})
    k = cpinf.random_channel(MAT, RNG, Base(2), Base(2), Base(1))
    d = jsonio.choi_to_json(cpinf.to_choi(k))
    d["b"] = 2.5
    with pytest.raises(TypingError):
        jsonio.choi_from_json(d)


def test_choi_round_trip():
    k = cpinf.random_channel(MAT, RNG, Base(2), Base(2), Base(2))
    c = cpinf.to_choi(k)
    again = jsonio.choi_from_json(jsonio.choi_to_json(c))
    assert np.max(np.abs(c.matrix - again.matrix)) == 0.0
    assert (again.dim_in, again.dim_out) == (2, 2)


class TestFmat:
    def test_round_trip_finite(self):
        m = include_mat(np.array([[1 + 2j, 0], [0, 3]], dtype=complex))
        again = jsonio.fmat_from_json(jsonio.fmat_to_json(m))
        assert again.entries == m.entries
        assert again.src == m.src and again.tgt == m.tgt

    def test_round_trip_omega(self):
        s = finite_space((0, 1))
        m = SparseMatrix(s, OMEGA_FIN, ((0, 5, 1 + 0j),))
        d = jsonio.fmat_to_json(m)
        assert d["tgt"]["X"] == "omega"
        assert d["tgt"]["A"] == "fin" and d["tgt"]["B"] == "all"
        again = jsonio.fmat_from_json(d)
        assert again.entries == m.entries

    def test_power_families_are_written_in_full(self):
        # sha256 of this output as the writer gave it when it listed
        # explicitly enumerated power families
        labels = [(), (0,), ("*",), ("a", "b", "c"), tuple(range(10)),
                  ((0, 1), (1, 0)), (0, "a", 2.5)]
        text = "\n".join(json.dumps(jsonio.fmat_to_json(
            sparse_identity(finite_space(x)))) for x in labels)
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "8cf247919e7d9aa8bde83e779695dd6bd2546b5adebdd79c9a12b5708f92c701")
        space = jsonio.fmat_to_json(sparse_identity(finite_space((0, 1))))
        assert space["src"]["A"] == [[0, 1], [0], [1], []]

    def test_writer_refuses_to_list_a_long_power_family(self):
        for n in (MAX_EXPLICIT + 1, 40):
            m = sparse_identity(finite_space(tuple(range(n))))
            with pytest.raises(DimensionOverflow):
                jsonio.fmat_to_json(m)

    def test_product_labels_round_trip(self):
        fmat = get_model("fmat")
        rng = np.random.default_rng(0)
        for _ in range(20):
            f, g = (fmat.random_morphism(rng, fmat.random_object(rng),
                                         fmat.random_object(rng))
                    for _ in range(2))
            m = tensor(f, g).payload
            d = json.loads(json.dumps(jsonio.fmat_to_json(m)))
            assert jsonio.fmat_from_json(d) == m
            assert jsonio.fmat_check_report(d)["valid"]

    def test_label_nesting_is_bounded(self):
        deep = 0
        for _ in range(800):
            deep = [deep]
        d = jsonio.fmat_to_json(include_mat(np.eye(1)))
        d["entries"][0][0] = deep
        with pytest.raises(TypingError):
            jsonio.fmat_from_json(d)
        report = jsonio.fmat_check_report(d)
        assert not report["valid"] and "32 deep" in report["error"]

    def test_check_report_valid(self):
        m = include_mat(np.eye(2))
        report = jsonio.fmat_check_report(jsonio.fmat_to_json(m))
        assert report["valid"]

    def test_check_report_invalid_space(self):
        d = {"src": {"X": [0, 1], "A": [[0]], "B": [[0], [1], [0, 1], []]},
             "tgt": {"X": "omega", "A": "fin", "B": "all"},
             "entries": []}
        report = jsonio.fmat_check_report(d)
        assert not report["src_space_valid"] and not report["valid"]
        assert report["tgt_space_valid"]

    def test_check_report_invalid_relation(self):
        # an explicit family that omits the support image breaks the typing
        d = {"src": {"X": [0, 1], "A": [[0], [1], [0, 1], []],
                     "B": [[0], [1], [0, 1], []]},
             "tgt": {"X": "omega", "A": "fin", "B": "all"},
             "entries": [[0, 3, 1.0, 0.0]]}
        report = jsonio.fmat_check_report(d)
        assert report["src_space_valid"] and report["tgt_space_valid"]
        assert report["relation_valid"]  # finite image always lands in fin
        d["tgt"] = {"X": [7], "A": [[7], []], "B": [[7], []]}
        report = jsonio.fmat_check_report(d)
        assert not report["relation_valid"] and not report["valid"]


def test_reports_are_json_lines():
    from mucinf.laws import check_law
    lines = jsonio.reports_to_lines([check_law("DMIX", "mat", seed=1)])
    parsed = json.loads(lines[0])
    assert parsed["law"] == "DMIX" and parsed["pass"] is True


# documents of every schema, each to be damaged at one place
_FIXTURE_RNG = np.random.default_rng(5)
_VALID = [
    jsonio.channel_to_json(cpinf.random_channel(
        MAT, _FIXTURE_RNG, Base(2), Base(2), Base(2))),
    jsonio.choi_to_json(cpinf.to_choi(cpinf.random_channel(
        MAT, _FIXTURE_RNG, Base(2), Base(2), Base(1)))),
    jsonio.fmat_to_json(include_mat(np.eye(2))),
    {"src": {"X": [0, 1], "A": [[0]], "B": [[0], [1], [0, 1], []]},
     "tgt": {"X": "omega", "A": "fin", "B": "all"},
     "entries": [[0, 1, 1.0, 0.0]]},
]
_JSON = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(-3, 12), st.floats(),
              st.sampled_from(["omega", "fin", "all", "x"])),
    lambda inner: st.one_of(st.lists(inner, max_size=4),
                            st.dictionaries(st.text(max_size=3), inner,
                                            max_size=3)),
    max_leaves=8)


def _places(d, path=()):
    yield path
    items = d.items() if isinstance(d, dict) \
        else enumerate(d[:6]) if isinstance(d, list) else ()
    for key, value in items:
        yield from _places(value, path + (key,))


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(range(len(_VALID))), st.integers(0, 10 ** 6), _JSON)
def test_damaged_documents_raise_only_what_the_cli_reports(which, where,
                                                           value):
    d = copy.deepcopy(_VALID[which])
    places = list(_places(d))
    path = places[where % len(places)]
    if path:
        parent = d
        for key in path[:-1]:
            parent = parent[key]
        parent[path[-1]] = value
    else:
        d = value
    for reader in (jsonio.matrix_from_json, jsonio.channel_from_json,
                   jsonio.choi_from_json, jsonio.fmat_from_json):
        try:
            reader(d)
        except (MucinfError, KeyError, ValueError):
            pass
    assert isinstance(jsonio.fmat_check_report(d)["valid"], bool)
