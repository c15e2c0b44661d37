"""The discrete toy model: objects are complex numbers, maps are identities.

Tensor and par are both complex multiplication with unit 1, Python's ``*``:
``(a+ib) ⊗ (x+iy) = (ax - by) + i(ay + bx)``, bit for bit (pinned in
``tests/test_cplane.py``).  The dagger is conjugation, and the linear dual
of a nonzero number is its reciprocal.  The unitary subcategory consists of
the nonzero reals, whose unitary structure maps are identities.  Because the
category is discrete, a structural map exists exactly when its stated
domain and codomain evaluate to the same complex number; every coherence
law therefore collapses to an arithmetic identity which this model asserts
exactly.

Kraus maps here admit a closed form: a channel representative ``c -> c'``
with ancilla ``r`` exists precisely when ``c = r * c'`` with r a nonzero
real.  ``CplaneModel.check_payload`` carries that condition, which building a
``cpinf.KrausMorphism`` checks, so ``canonical`` and ``cplane_equiv`` only
read the ancilla ratio off a representative.
"""

from __future__ import annotations

import cmath
from typing import NamedTuple, Optional

from .errors import (DomCodMismatch, ShapeMismatch, TypingError,
                     UnsupportedInModel)
from .morphisms import (TOL, Model, Morphism, fold_deviation, get_model,
                        register_model)
from .objects import (Base, Dagger, Dual, ObjectExpr, Par, ParUnit, Tensor,
                      TensorUnit)

REL_TOL = 1e-12  # all operations are a few flops; comparisons are near exact


def _close(z: complex, w: complex, rel: float = REL_TOL) -> bool:
    return cmath.isclose(z, w, rel_tol=rel, abs_tol=rel)


def _unitary(z: complex) -> bool:
    """A unitary object: real, and not 0 as ``same_object`` reads it."""
    return abs(z.imag) <= REL_TOL * max(1.0, abs(z)) and not _close(z, 0.0)


class CplaneChannel(NamedTuple):
    """Canonical form of a channel: into a nonzero codomain there is at most
    one Kraus map, so the ancilla ratio pins the channel; into 0 all
    representatives are identified and the ratio is None."""

    dom: complex
    cod: complex
    ratio: Optional[float]

    def equiv(self, other: "CplaneChannel", tol: float = TOL) -> bool:
        """Closed-form decision; exact, so ``tol`` is ignored."""
        if not (_close(self.dom, other.dom) and _close(self.cod, other.cod)):
            raise DomCodMismatch("representatives do not share dom/cod")
        return (self.ratio is None or other.ratio is None
                or _close(complex(self.ratio), complex(other.ratio)))

    def deviation(self, other: "CplaneChannel") -> float:
        return 0.0 if self.equiv(other) else abs(self.ratio - other.ratio)


def cplane_equiv(k1, k2) -> bool:
    """Decide equivalence of two discrete-model representatives in closed
    form."""
    m = get_model(k1.model)
    return m.canonical(k1).equiv(m.canonical(k2))


class CplaneModel(Model):
    """The discrete model as a law-suite citizen.

    Payloads carry no data; a morphism is legal only between objects with
    equal interpretation, so ``deviation`` is the endpoint mismatch.
    """

    base = "cplane"

    def __init__(self, name: str = "cplane"):
        self.name = name

    def interpret(self, expr: ObjectExpr) -> complex:
        kind = type(expr)
        if kind is Base:
            return complex(expr.label)
        if kind is Tensor or kind is Par:
            return self.interpret(expr.left) * self.interpret(expr.right)
        if kind is TensorUnit or kind is ParUnit:
            return 1.0 + 0.0j
        if kind is Dagger:
            return self.interpret(expr.inner).conjugate()
        if kind is Dual:
            z = self.interpret(expr.inner)
            if _close(z, 0.0):
                raise UnsupportedInModel("0 has no linear dual")
            return 1.0 / z
        raise TypeError(f"not an object expression: {expr!r}")

    def same_object(self, first, second) -> bool:
        return _close(first, second)

    def identity_payload(self, expr: ObjectExpr):
        return None

    def compose_payload(self, f: Morphism, g: Morphism):
        # cod/dom already matched structurally; nothing to multiply
        return None

    def tensor_payload(self, f: Morphism, g: Morphism):
        return None

    par_payload = tensor_payload

    def dagger_payload(self, f: Morphism):
        return None

    def structural_payload(self, name, args, dom, cod):
        if name in ("phi", "phi_inv"):
            z = self.interpret(args[0])
            if not _unitary(z):
                raise UnsupportedInModel(
                    f"phi needs a nonzero real object, got {z}")
        din, dout = self.interpret(dom), self.interpret(cod)
        if not _close(din, dout):
            raise ShapeMismatch(
                f"{name} would need a non-identity map {din} -> {dout} "
                f"in a discrete category")
        return None

    def deviation(self, f: Morphism, g: Morphism) -> float:
        ddom = self._gap(f.dom, g.dom)
        dcod = self._gap(f.cod, g.cod)
        # ``max(0.0, nan)`` is 0.0: a NaN end must fail wherever it sits
        return fold_deviation(fold_deviation(0.0, ddom), dcod)

    def _gap(self, first: ObjectExpr, second: ObjectExpr) -> float:
        # an end shared in syntax is interpreted once; ``abs(z - z)`` keeps
        # a NaN or infinite end failing
        z = self.interpret(first)
        return abs(z - (z if first == second else self.interpret(second)))

    def check_payload(self, f: Morphism) -> None:
        """The Kraus condition on a body ``c -> Par(r, c')``: r is unitary
        (``_unitary``) and ``c = r * c'``."""
        r = self.interpret(f.cod.left)
        if not (_unitary(r) and _close(self.interpret(f.dom), complex(r.real)
                                       * self.interpret(f.cod.right))):
            raise TypingError(
                f"{f.dom!r} -> {f.cod!r} is not a Kraus map (need dom = "
                f"ancilla * cod, with the ancilla a nonzero real)")

    def canonical(self, k) -> CplaneChannel:
        # building k checked its body, so the ancilla is a nonzero real
        cod = self.interpret(k.cod)
        ratio = None if _close(cod, 0.0) else self.interpret(k.ancilla).real
        return CplaneChannel(self.interpret(k.dom), cod, ratio)

    def random_object(self, rng, unitary: bool = False) -> ObjectExpr:
        if unitary:
            # nonzero real, kept away from 0
            mag = 0.25 + 1.75 * rng.random()
            return Base(complex(mag if rng.random() < 0.5 else -mag))
        z = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        if abs(z) < 0.25:
            z += 0.5
        return Base(z)

    def random_morphism(self, rng, dom: ObjectExpr, cod: ObjectExpr) -> Morphism:
        if not _close(self.interpret(dom), self.interpret(cod)):
            raise UnsupportedInModel(
                "the discrete model only has identity maps")
        return Morphism(self.name, dom, cod, None)

    def random_chain(self, rng, length: int, unitary: bool = False) -> list:
        # only identities exist, so every link is the same object
        return [self.random_object(rng, unitary=unitary)] * (length + 1)

    def random_kraus_body(self, rng, dom=None, cod=None, ancilla=None):
        """Bodies exist only where dom = ancilla * cod, so a given dom fixes
        cod."""
        # drawn even when dom fixes cod, so giving dom leaves the stream as is
        drawn = self.random_object(rng) if cod is None else cod
        if ancilla is None:
            ancilla = self.random_object(rng, unitary=True)
        r = self.interpret(ancilla)
        if dom is None:
            cod = drawn
            dom = Base(r * self.interpret(cod))
        elif cod is None:
            cod = Base(self.interpret(dom) / r)
        return Morphism(self.name, dom, Par(ancilla, cod), None)


CPLANE = CplaneModel()
register_model(CPLANE)
