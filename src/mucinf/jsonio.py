"""JSON codecs for the file-based workflows.

Schemas:

* matrix:   ``{"rows": n, "cols": m, "entries": [[re, im], ...]}`` row-major
* channel:  ``{"dom": a, "cod": b, "ancilla": u, "body": <matrix>}``
* choi:     matrix fields plus ``{"a": dim_in, "b": dim_out}``
* fmat:     ``{"src": <space>, "tgt": <space>, "entries": [[x, y, re, im]..]}``
  where a space is ``{"X": "omega" | [labels...], "A": fam, "B": fam}`` and a
  family is ``"fin" | "all" | [[labels...], ...]``; the writer lists the
  power family of a finite space in full, so it raises ``DimensionOverflow``
  beyond ``fmat.MAX_EXPLICIT`` labels, as the reader does on closing a
  longer list

Readers check the type of every document and field they read: a document
or field of the wrong JSON type, a dimension that is not an integer, or a
non-finite number raises ``TypingError``.  The matrix writer refuses a
non-finite entry the same way.
"""

from __future__ import annotations

import math
from types import SimpleNamespace
from typing import List

import numpy as np

from .cpinf import ChoiMatrix, KrausMorphism, kraus_new
from .errors import ShapeMismatch, TypingError
from .fmat import (ALL, FIN, FiniteIndex, FinitenessSpace, OMEGA,
                   OmegaIndex, SetFamily, SparseMatrix, TagFamily,
                   explicit_family, finite_space)
from .matc import _freeze
from .morphisms import Morphism
from .objects import Base, Par


def _object(d, what: str) -> dict:
    if not isinstance(d, dict):
        raise TypingError(f"{what} must be a JSON object, got {d!r:.40}")
    return d


def _array(x, what: str, width=None) -> list:
    if not isinstance(x, list) or width not in (None, len(x)):
        shape = "a list" if width is None else f"a list of {width}"
        raise TypingError(f"{what} must be {shape}, got {x!r:.40}")
    return x


def _check_finite(x, what: str) -> float:
    if isinstance(x, bool) or not isinstance(x, (int, float)):
        raise TypingError(f"non-numeric {x!r:.40} in {what}")
    x = float(x)
    if not math.isfinite(x):
        raise TypingError(f"non-finite number in {what}")
    return x


def _dim(d: dict, key: str) -> int:
    x = d[key]
    if isinstance(x, bool) or not isinstance(x, int):
        raise TypingError(f"{key!r} must be an integer, got {x!r}")
    return x


def matrix_to_json(m: np.ndarray) -> dict:
    # JSON has no inf or NaN, so the writer refuses what the reader would
    if not np.isfinite(m).all():
        raise TypingError("non-finite number in matrix to write")
    rows, cols = m.shape
    entries = [[float(v.real), float(v.imag)] for v in m.reshape(-1)]
    return {"rows": int(rows), "cols": int(cols), "entries": entries}


def matrix_from_json(d: dict) -> np.ndarray:
    d = _object(d, "matrix")
    rows, cols = _dim(d, "rows"), _dim(d, "cols")
    entries = [_array(e, "matrix entry", 2)
               for e in _array(d["entries"], "matrix entries")]
    if len(entries) != rows * cols:
        raise ShapeMismatch(
            f"expected {rows * cols} entries, got {len(entries)}")
    flat = [complex(_check_finite(re, "matrix"), _check_finite(im, "matrix"))
            for re, im in entries]
    return _freeze(np.array(flat, dtype=complex).reshape(rows, cols))


def channel_to_json(k: KrausMorphism) -> dict:
    from .morphisms import get_model
    m = get_model(k.model)
    return {
        "dom": m.interpret(k.dom),
        "cod": m.interpret(k.cod),
        "ancilla": m.interpret(k.ancilla),
        "body": matrix_to_json(k.body.payload),
    }


def channel_from_json(d: dict) -> KrausMorphism:
    d = _object(d, "channel")
    a, b, u = _dim(d, "dom"), _dim(d, "cod"), _dim(d, "ancilla")
    body_mat = matrix_from_json(d["body"])
    if body_mat.shape != (u * b, a):
        raise ShapeMismatch(
            f"body must be {(u * b, a)} for dom={a} cod={b} ancilla={u}, "
            f"got {body_mat.shape}")
    body = Morphism("mat", Base(a), Par(Base(u), Base(b)), body_mat)
    return kraus_new(body, Base(u))


def choi_to_json(c: ChoiMatrix) -> dict:
    out = matrix_to_json(c.matrix)
    out["a"] = c.dim_in
    out["b"] = c.dim_out
    return out


def choi_from_json(d: dict) -> ChoiMatrix:
    return ChoiMatrix(matrix_from_json(d), _dim(d, "a"), _dim(d, "b"))


# ---------------------------------------------------------------------------
# finiteness matrices


def _family_to_json(fam: SetFamily):
    if isinstance(fam, TagFamily):
        return fam.tag
    return sorted([sorted(s, key=repr) for s in fam.sets], key=repr)


def _family_from_json(obj) -> SetFamily:
    if isinstance(obj, str):
        if obj not in (FIN, ALL):
            raise TypingError(f"unknown family tag {obj!r}")
        return TagFamily(obj)
    return explicit_family([[_label(x) for x in _array(subset, "family set")]
                            for subset in _array(obj, "family")])


def _label(x, depth: int = 32):
    # scalars, or lists for product labels, bounded so no stack runs out
    if isinstance(x, list) and depth > 0:
        return tuple(_label(y, depth - 1) for y in x)
    if isinstance(x, (str, int, float, bool)):
        return x
    raise TypingError(f"labels must be scalars or lists of them at most "
                      f"32 deep, got {x!r}")


def _space_to_json(space: FinitenessSpace) -> dict:
    x = "omega" if isinstance(space.index, OmegaIndex) \
        else list(space.index.labels)
    return {"X": x, "A": _family_to_json(space.fam_a),
            "B": _family_to_json(space.fam_b)}


def _space_fields(d: dict) -> SimpleNamespace:
    """The parts of a space description, not yet checked to be a perp pair."""
    d = _object(d, "space")
    index = OMEGA if d["X"] == "omega" \
        else FiniteIndex(tuple(_label(x) for x in _array(d["X"], "'X'")))
    return SimpleNamespace(index=index, fam_a=_family_from_json(d["A"]),
                           fam_b=_family_from_json(d["B"]))


def _space_from_json(d: dict) -> FinitenessSpace:
    space = FinitenessSpace(**vars(_space_fields(d)))
    if isinstance(space.index, FiniteIndex):
        # a valid finite space is (X, P(X), P(X)): hold P(X) symbolically
        return finite_space(space.index.labels)
    return space


def fmat_to_json(m: SparseMatrix) -> dict:
    return {
        "src": _space_to_json(m.src),
        "tgt": _space_to_json(m.tgt),
        "entries": [[x, y, float(v.real), float(v.imag)]
                    for x, y, v in m.entries],
    }


def _fmat_entries(entries) -> list:
    return [_array(e, "fmat entry", 4)
            for e in _array(entries, "fmat entries")]


def fmat_from_json(d: dict) -> SparseMatrix:
    d = _object(d, "fmat matrix")
    src = _space_from_json(d["src"])
    tgt = _space_from_json(d["tgt"])
    entries = tuple(
        (_label(x), _label(y),
         complex(_check_finite(re, "fmat"), _check_finite(im, "fmat")))
        for x, y, re, im in _fmat_entries(d["entries"]))
    return SparseMatrix(src, tgt, entries)


def fmat_check_report(d: dict) -> dict:
    """Granular validity report for a finiteness-matrix file: are the two
    space descriptions perp pairs, and is the support a finiteness relation?
    Never raises on invalid content; it reports instead."""
    from .fmat import check_finiteness_relation, check_finiteness_space

    out = {"src_space_valid": False, "tgt_space_valid": False,
           "relation_valid": False, "valid": False}
    try:
        d = _object(d, "fmat matrix")
        src = _space_fields(d["src"])
        tgt = _space_fields(d["tgt"])
        support = [(_label(x), _label(y))
                   for x, y, _, _ in _fmat_entries(d.get("entries", []))]
    except (TypingError, KeyError, ValueError) as exc:
        out["error"] = str(exc)
        return out
    out["src_space_valid"] = check_finiteness_space(src.index, src.fam_a,
                                                    src.fam_b)
    out["tgt_space_valid"] = check_finiteness_space(tgt.index, tgt.fam_a,
                                                    tgt.fam_b)
    out["relation_valid"] = check_finiteness_relation(support, src, tgt)
    out["valid"] = (out["src_space_valid"] and out["tgt_space_valid"]
                    and out["relation_valid"])
    return out


def reports_to_lines(reports) -> List[str]:
    import json
    return [json.dumps(r.to_json(), sort_keys=True) for r in reports]
