"""The discrete toy model: objects are complex numbers, maps are identities.

Tensor and par are both complex multiplication with unit 1, the dagger is
conjugation, and the linear dual of a nonzero number is its reciprocal.  The
unitary subcategory consists of the nonzero reals, whose unitary structure
maps are identities.  Because the category is discrete, a structural map
exists exactly when its stated domain and codomain evaluate to the same
complex number; every coherence law therefore collapses to an arithmetic
identity which this model asserts exactly.

Kraus maps here admit a closed form: a channel representative ``c -> c'``
with ancilla ``r`` exists precisely when ``c = r * c'`` with r a nonzero
real.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from typing import NamedTuple, Optional

from .errors import (DomCodMismatch, ShapeMismatch, TypingError,
                     UnsupportedInModel)
from .morphisms import Model, Morphism, register_model
from .objects import (Base, Dagger, Dual, ObjectExpr, Par, ParUnit, Tensor,
                      TensorUnit)

REL_TOL = 1e-12  # all operations are a few flops; comparisons are near exact


def cnum_tensor(z: complex, w: complex) -> complex:
    """(a+ib) (x) (x+iy) := (ax - by) + i(ay + bx), with unit 1."""
    a, b = z.real, z.imag
    x, y = w.real, w.imag
    return complex(a * x - b * y, a * y + b * x)


def cnum_dagger(z: complex) -> complex:
    return complex(z.real, -z.imag)


def _close(z: complex, w: complex, rel: float = REL_TOL) -> bool:
    return cmath.isclose(z, w, rel_tol=rel, abs_tol=rel)


def kraus_valid(c: complex, r: float, c_prime: complex) -> bool:
    """Is (=, r): c -> c' a Kraus map, i.e. c = r*c' with r a nonzero real?"""
    if r == 0 or r != r.real:
        return False
    return _close(c, complex(r) * c_prime)


@dataclass(frozen=True)
class CplaneKraus:
    """A channel representative c -> c' with real nonzero ancilla r."""

    dom: complex
    cod: complex
    ancilla: float

    def __post_init__(self):
        if not kraus_valid(self.dom, self.ancilla, self.cod):
            raise TypingError(
                f"(={self.ancilla}): {self.dom} -> {self.cod} is not a "
                f"Kraus map (need dom = ancilla * cod, ancilla real nonzero)")


class CplaneChannel(NamedTuple):
    """Canonical form of a channel: into a nonzero codomain there is at most
    one Kraus map, so the ancilla ratio pins the channel; into 0 all
    representatives are identified and the ratio is None."""

    dom: complex
    cod: complex
    ratio: Optional[float]

    def equiv(self, other: "CplaneChannel", tol: float = 0.0) -> bool:
        """Closed-form decision; exact, so ``tol`` is ignored."""
        if not (_close(self.dom, other.dom) and _close(self.cod, other.cod)):
            raise DomCodMismatch("representatives do not share dom/cod")
        return (self.ratio is None or other.ratio is None
                or _close(complex(self.ratio), complex(other.ratio)))

    def deviation(self, other: "CplaneChannel") -> float:
        return 0.0 if self.equiv(other) else abs(self.ratio - other.ratio)


def cplane_channel(k: CplaneKraus) -> CplaneChannel:
    return CplaneChannel(k.dom, k.cod,
                         None if _close(k.cod, 0.0) else k.ancilla)


def cplane_equiv(k1: CplaneKraus, k2: CplaneKraus) -> bool:
    """Decide channel equivalence in closed form; a representative that
    bypassed validation is equivalent to nothing."""
    same = cplane_channel(k1).equiv(cplane_channel(k2))
    return same and all(kraus_valid(k.dom, k.ancilla, k.cod) for k in (k1, k2))


class CplaneModel(Model):
    """The discrete model as a law-suite citizen.

    Payloads carry no data; a morphism is legal only between objects with
    equal interpretation, so ``deviation`` is the endpoint mismatch.
    """

    base = "cplane"

    def __init__(self, name: str = "cplane"):
        self.name = name

    def interpret(self, expr: ObjectExpr) -> complex:
        if isinstance(expr, Base):
            return complex(expr.label)
        if isinstance(expr, (Tensor, Par)):
            return cnum_tensor(self.interpret(expr.left),
                               self.interpret(expr.right))
        if isinstance(expr, (TensorUnit, ParUnit)):
            return 1.0 + 0.0j
        if isinstance(expr, Dagger):
            return cnum_dagger(self.interpret(expr.inner))
        if isinstance(expr, Dual):
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
            if abs(z.imag) > REL_TOL * max(1.0, abs(z)) or _close(z, 0.0):
                raise UnsupportedInModel(
                    f"phi needs a nonzero real object, got {z}")
        din, dout = self.interpret(dom), self.interpret(cod)
        if not _close(din, dout):
            raise ShapeMismatch(
                f"{name} would need a non-identity map {din} -> {dout} "
                f"in a discrete category")
        return None

    def deviation(self, f: Morphism, g: Morphism) -> float:
        ddom = abs(self.interpret(f.dom) - self.interpret(g.dom))
        dcod = abs(self.interpret(f.cod) - self.interpret(g.cod))
        return max(ddom, dcod)

    def check_payload(self, f: Morphism) -> None:
        if not self.same_object(self.interpret(f.dom), self.interpret(f.cod)):
            raise TypingError(
                "no such identity map: dom and codomain evaluate differently "
                "(need dom = ancilla * cod)")

    def canonical(self, k) -> CplaneChannel:
        anc = self.interpret(k.ancilla)
        if abs(anc.imag) > REL_TOL * max(1.0, abs(anc)):
            raise TypingError(
                "ancilla of a discrete-model channel must be real")
        return cplane_channel(CplaneKraus(self.interpret(k.dom),
                                          self.interpret(k.cod), anc.real))

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
