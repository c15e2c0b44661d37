import copy
import hashlib
import json
import re
from dataclasses import replace

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

    def test_a_bool_dimension_is_refused_when_built(self):
        # ``mat`` once read Base(True) as dimension 1, and the writer then
        # wrote ``"dom": true``, which the reader refuses; now no
        # representative with such a body reaches the writer
        k = cpinf.random_channel(MAT, RNG, Base(1), Base(2), Base(1))
        with pytest.raises(ShapeMismatch):
            replace(k, body=replace(k.body, dom=Base(True)))
        with pytest.raises(ShapeMismatch):
            cpinf.KrausMorphism(replace(k.body, dom=Base(True)))

    def test_shape_validation(self):
        k = cpinf.random_channel(MAT, RNG, Base(2), Base(3), Base(2))
        d = jsonio.channel_to_json(k)
        d["ancilla"] = 3
        with pytest.raises(TypingError, match=re.escape(
                "payload shape (6, 2) does not match typing (9, 2)")):
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

    def test_check_report_refuses_a_family_beyond_desk_scale(self):
        # a size refusal, not a verdict: the family is never closed
        for n in (MAX_EXPLICIT, MAX_EXPLICIT + 1):
            labels = list(range(n))
            d = {"src": {"X": labels, "A": [labels], "B": [labels]},
                 "tgt": {"X": "omega", "A": "fin", "B": "all"},
                 "entries": []}
            if n > MAX_EXPLICIT:
                with pytest.raises(DimensionOverflow):
                    jsonio.fmat_check_report(d)
            else:
                assert jsonio.fmat_check_report(d)["src_space_valid"]

    def test_an_unknown_family_tag_is_refused(self):
        d = jsonio.fmat_to_json(include_mat(np.eye(1)))
        d["tgt"] = {"X": "omega", "A": "finite", "B": "all"}
        with pytest.raises(TypingError, match="unknown family tag 'finite'"):
            jsonio.fmat_from_json(d)

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


def _reference_matrix_from_json(d: dict) -> np.ndarray:
    """The matrix reader entry by entry: every entry's shape, then the
    count, then every number in order."""
    d = jsonio._object(d, "matrix")
    rows, cols = jsonio._dim(d, "rows"), jsonio._dim(d, "cols")
    entries = [jsonio._array(e, "matrix entry", 2)
               for e in jsonio._array(d["entries"], "matrix entries")]
    if len(entries) != rows * cols:
        raise ShapeMismatch(
            f"expected {rows * cols} entries, got {len(entries)}")
    flat = [complex(jsonio._check_finite(re, "matrix"),
                    jsonio._check_finite(im, "matrix"))
            for re, im in entries]
    return np.array(flat, dtype=complex).reshape(rows, cols)


def _outcome(reader, d):
    try:
        m = reader(d)
    except (MucinfError, KeyError, ValueError) as exc:
        return type(exc), str(exc)
    return m.shape, m.tobytes()


HUGE = int("9" * 400)
_FLOATS = st.floats(allow_nan=False, allow_infinity=False)


class TestMatrixCodec:
    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 4), st.integers(0, 4), st.data())
    def test_round_trip_is_bit_identical(self, rows, cols, data):
        edges = st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2e-308,
                                 1e308, -1e308, 1.7976931348623157e308])
        parts = data.draw(st.lists(st.one_of(_FLOATS, edges),
                                   min_size=2 * rows * cols,
                                   max_size=2 * rows * cols))
        m = np.array(parts, dtype=float).view(complex).reshape(rows, cols)
        text = json.dumps(jsonio.matrix_to_json(m))
        again = jsonio.matrix_from_json(json.loads(text))
        assert again.shape == m.shape and again.tobytes() == m.tobytes()

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 3), st.integers(0, 3), st.data())
    def test_valid_documents_read_as_entry_by_entry(self, rows, cols, data):
        numbers = st.one_of(_FLOATS, st.integers(-2 ** 80, 2 ** 80))
        entries = data.draw(st.lists(st.lists(numbers, min_size=2,
                                              max_size=2),
                                     min_size=rows * cols,
                                     max_size=rows * cols))
        d = {"rows": rows, "cols": cols, "entries": entries}
        new, ref = (_outcome(r, d) for r in (jsonio.matrix_from_json,
                                             _reference_matrix_from_json))
        assert new == ref and new[0] == (rows, cols)

    @pytest.mark.parametrize("where, bad", [
        *(("leaf", bad) for bad in (
            True, False, "1", None, [1.0], [], {}, float("nan"),
            float("inf"), -float("inf"), HUGE, -HUGE)),
        *(("entry", bad) for bad in (
            True, "1", None, [1.0], [1.0, 0.0, 0.0], [], 1.0, 7,
            [[1.0, 0.0], [2.0, 3.0]], {"re": 1.0}, [True, 0.0],
            [HUGE, float("nan")]))])
    def test_malformed_entries_raise_as_entry_by_entry(self, where, bad):
        entries = [[1.0, 2.0], [3, -0.0], [0.5, 0.25], [4.0, 5.0]]
        if where == "leaf":
            entries[2][1] = bad
        else:
            entries[2] = bad
        d = {"rows": 2, "cols": 2, "entries": entries}
        new = _outcome(jsonio.matrix_from_json, d)
        assert new == _outcome(_reference_matrix_from_json, d)
        assert isinstance(new[0], type) and issubclass(new[0], MucinfError)

    def test_literals_from_the_json_text_raise_as_entry_by_entry(self):
        for literal in ("NaN", "Infinity", "-Infinity", "9" * 400):
            d = json.loads('{"rows": 1, "cols": 2, "entries": '
                           f'[[1.0, 0.0], [{literal}, 0.0]]}}')
            new = _outcome(jsonio.matrix_from_json, d)
            assert new == _outcome(_reference_matrix_from_json, d)
            assert new == (TypingError, "non-finite number in matrix")

    @settings(max_examples=150, deadline=None)
    @given(st.integers(0, 10 ** 6), _JSON)
    def test_damaged_matrices_raise_as_entry_by_entry(self, where, value):
        d = jsonio.matrix_to_json(np.arange(4.0).reshape(2, 2) - 1.5j)
        places = list(_places(d))
        path = places[where % len(places)]
        if path:
            parent = d
            for key in path[:-1]:
                parent = parent[key]
            parent[path[-1]] = value
        else:
            d = value
        assert _outcome(jsonio.matrix_from_json, d) \
            == _outcome(_reference_matrix_from_json, d)

    def test_a_huge_integer_is_non_finite(self):
        d = {"rows": 1, "cols": 1, "entries": [[HUGE, 0]]}
        with pytest.raises(TypingError, match="^non-finite number in matrix$"):
            jsonio.matrix_from_json(d)
        d = jsonio.fmat_to_json(include_mat(np.eye(2)))
        d["entries"][0][3] = -HUGE
        with pytest.raises(TypingError, match="^non-finite number in fmat$"):
            jsonio.fmat_from_json(d)
