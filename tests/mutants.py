"""Deliberately broken models, for showing that each law can fail.

Each mutant is a subclass of a real model that overrides one method; the
models themselves have no fault switches.  ``MUTANTS`` holds one instance
of each coherence mutant under the name the suite reports it by; register
one with ``registered`` before running the suite on it.  The two nudged
mutants and the discard mutants below stay out of ``MUTANTS``, whose
reports are pinned: the nudges sit below the default tolerance, so no
report fails, and the discard mutants break only the environment
structure.

    from mutants import MUTANTS, registered
"""

import contextlib
from dataclasses import replace
from functools import lru_cache

import numpy as np

from mucinf.fmat import (ExplicitFamily, FiniteIndex, FinitenessSpace,
                         FmatModel)
from mucinf.matc import MatModel, _freeze, commutation_perm, mat_identity
from mucinf.morphisms import register_model, unregister_model
from mucinf.objects import Base


@contextlib.contextmanager
def registered(model):
    register_model(model)
    try:
        yield model
    finally:
        unregister_model(model.name)


class SwapLaxor(MatModel):
    """The tensor laxor swaps its arguments: the associator square still
    commutes, the symmetry square does not."""

    def structural_payload(self, name, args, dom, cod):
        if name == "lam_tensor":
            return commutation_perm(self.interpret(args[0]),
                                    self.interpret(args[1]))
        return super().structural_payload(name, args, dom, cod)


class SkewLaxor(MatModel):
    """The tensor laxor is scaled by its first argument's dimension."""

    def structural_payload(self, name, args, dom, cod):
        if name == "lam_tensor":
            return _freeze(float(self.interpret(args[0]))
                           * mat_identity(self.interpret(dom)))
        return super().structural_payload(name, args, dom, cod)


class TransposeDagger(MatModel):
    """The dagger forgets to conjugate."""

    def dagger_payload(self, f):
        return _freeze(f.payload.T)


class ScaledMix(MatModel):
    """The mix map and its inverse are both twice the identity on 1."""

    def structural_payload(self, name, args, dom, cod):
        if name in ("m", "m_inv"):
            return _freeze(np.array([[2.0]], dtype=complex))
        return super().structural_payload(name, args, dom, cod)


class TransposeComm(MatModel):
    """Both symmetries are the transposed (inverse) permutation."""

    def structural_payload(self, name, args, dom, cod):
        p = super().structural_payload(name, args, dom, cod)
        return _freeze(p.T) if name in ("c_tensor", "c_par") else p


def unclosed_family(sets) -> ExplicitFamily:
    """An explicit family taken as given, without its downward closure."""
    return ExplicitFamily(frozenset(frozenset(s) for s in sets))


@lru_cache(maxsize=None)
def unclosed_space(labels: tuple) -> FinitenessSpace:
    """The space (X, {X}, {X}), which is not a perp pair.

    Validation is bypassed so that the broken families fail at relation
    typing rather than at construction.
    """
    fam = unclosed_family([labels])
    space = object.__new__(FinitenessSpace)
    object.__setattr__(space, "index", FiniteIndex(labels))
    object.__setattr__(space, "fam_a", fam)
    object.__setattr__(space, "fam_b", fam)
    return space


class NoClosure(FmatModel):
    """Included base objects carry unclosed families."""

    def include_expr(self, expr):
        if isinstance(expr, Base):
            return Base(unclosed_space(tuple(range(expr.label))))
        return super().include_expr(expr)


class NanMix(MatModel):
    """The mix map and its inverse are NaN."""

    def structural_payload(self, name, args, dom, cod):
        if name in ("m", "m_inv"):
            return np.full((1, 1), np.nan, dtype=complex)
        return super().structural_payload(name, args, dom, cod)


class CrashingCup(MatModel):
    """Building a cup raises an error outside the library's own."""

    def structural_payload(self, name, args, dom, cod):
        if name == "eta":
            raise ZeroDivisionError("cup")
        return super().structural_payload(name, args, dom, cod)


MUTANTS = (SwapLaxor("mat!swap-laxor"), SkewLaxor("mat!skew-laxor"),
           TransposeDagger("mat!transpose-dagger"),
           ScaledMix("mat!scaled-mix"), TransposeComm("mat!transpose-comm"),
           NoClosure("fmat!no-closure"))


class NudgedLaxor(MatModel):
    """The tensor laxor is off by a relative 2e-10, below the default
    tolerance: coherence laws see it, and every verdict still passes."""

    def structural_payload(self, name, args, dom, cod):
        p = super().structural_payload(name, args, dom, cod)
        return _freeze((1 + 2e-10) * p) if name == "lam_tensor" else p


class NudgedMix(MatModel):
    """The mix map and its inverse are off by a relative 1e-11, likewise."""

    def structural_payload(self, name, args, dom, cod):
        p = super().structural_payload(name, args, dom, cod)
        return _freeze((1 + 1e-11) * p) if name in ("m", "m_inv") else p


class HalvedDiscard(MatModel):
    """The discard traces, then halves: its body is over sqrt 2."""

    def discard(self, u):
        f = super().discard(u)
        return replace(f, payload=_freeze(f.payload / np.sqrt(2)))


class NanDiscard(MatModel):
    """Every entry of the discard's body is NaN."""

    def discard(self, u):
        f = super().discard(u)
        return replace(f, payload=_freeze(f.payload * np.nan))


class ScaledDiscard(MatModel):
    """The discard's body is off by a relative 1e-6."""

    def discard(self, u):
        f = super().discard(u)
        return replace(f, payload=_freeze((1 + 1e-6) * f.payload))


class PermutedDiscard(MatModel):
    """The discard reverses the ancilla wires: another presentation of the
    same environment structure, so nothing may fail."""

    def discard(self, u):
        f = super().discard(u)
        flip = np.eye(self.interpret(u))[::-1].astype(complex)
        return replace(f, payload=_freeze(flip @ f.payload))


class PickyDiscard(MatModel):
    """Discarding dimension 3 raises an error outside the library's own."""

    def discard(self, u):
        if self.interpret(u) == 3:
            raise ZeroDivisionError("no discard of 3")
        return super().discard(u)
