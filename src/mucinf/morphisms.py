"""Model-independent morphism algebra.

A morphism is a model tag, a pair of object expressions, and a model-specific
payload (dense matrix, typed sparse matrix, or nothing at all for a discrete
model).  Composition is written in diagram order: ``f >> g`` means "first f,
then g".  For the dense model this is realised as ``payload(g) @ payload(f)``
(column convention: a map A -> B is stored as a cod x dom matrix).

Models register themselves here so that the algebra, the law catalog and the
suite can dispatch on the model id alone.  Every verdict is ``within``:
``dev <= tol`` with NaN failing, and ``tol`` positive and finite (``TOL``).
"""

from __future__ import annotations

import math
from typing import Any, Dict, Optional

from .errors import (ModelMismatch, ShapeMismatch, UnknownModel,
                     UnsupportedInModel)
from .objects import Dagger, ObjectExpr, Par, Tensor, value_type


@value_type
class Morphism:
    """A model-tagged arrow with explicit (syntactic) domain and codomain."""

    model: str
    dom: ObjectExpr
    cod: ObjectExpr
    payload: Any

    def __rshift__(self, other: "Morphism") -> "Morphism":
        return compose(self, other)


class Model:
    """Interface every concrete model implements.

    Payload operations never inspect object expressions beyond what their
    interpretation provides, so the algebra above stays purely structural.
    """

    name: str = "?"
    # the family whose laws apply ("mat", "cplane" or "fmat"); every
    # concrete class sets it, and a mutant inherits it from its class
    base: str
    # payloads are complex cod x dom matrices, which the channel analyses
    # of cpinf (Kraus blocks, action, adjoint, purification) read directly
    dense: bool = False

    # --- interpretation -------------------------------------------------
    def interpret(self, expr: ObjectExpr) -> Any:
        raise NotImplementedError

    def same_object(self, first: Any, second: Any) -> bool:
        return first == second

    # --- payload algebra ------------------------------------------------
    def identity_payload(self, expr: ObjectExpr) -> Any:
        raise NotImplementedError

    def compose_payload(self, f: Morphism, g: Morphism) -> Any:
        raise NotImplementedError

    def tensor_payload(self, f: Morphism, g: Morphism) -> Any:
        raise NotImplementedError

    def par_payload(self, f: Morphism, g: Morphism) -> Any:
        raise NotImplementedError

    def then_tensor_payload(self, x: Morphism, f: Morphism,
                            g: Morphism) -> Any:
        """Payload of ``x ; (f * g)``; a model may apply the two factors to
        ``x`` without forming their product."""
        return compose(x, tensor(f, g)).payload

    def then_par_payload(self, x: Morphism, f: Morphism, g: Morphism) -> Any:
        """Payload of ``x ; (f + g)``, as ``then_tensor_payload``."""
        return compose(x, par(f, g)).payload

    def dagger_payload(self, f: Morphism) -> Any:
        raise NotImplementedError

    def structural_payload(self, name: str, args: list, dom: ObjectExpr,
                           cod: ObjectExpr) -> Any:
        raise NotImplementedError

    def deviation(self, f: Morphism, g: Morphism) -> float:
        raise NotImplementedError

    # --- sampling (law suite) --------------------------------------------
    def random_object(self, rng, unitary: bool = False) -> ObjectExpr:
        raise NotImplementedError

    def random_morphism(self, rng, dom: ObjectExpr, cod: ObjectExpr) -> Morphism:
        raise NotImplementedError

    def random_chain(self, rng, length: int, unitary: bool = False) -> list:
        """``length + 1`` objects with random morphisms between neighbours."""
        return [self.random_object(rng, unitary=unitary)
                for _ in range(length + 1)]

    def random_kraus_body(self, rng, dom: Optional[ObjectExpr] = None,
                          cod: Optional[ObjectExpr] = None,
                          ancilla: Optional[ObjectExpr] = None) -> Morphism:
        """A random channel body ``dom -> Par(ancilla, cod)``; the objects
        left out are drawn in the order dom, cod, ancilla."""
        if dom is None:
            (dom,) = self.random_chain(rng, 0)
        if cod is None:
            (cod,) = self.random_chain(rng, 0)
        if ancilla is None:
            (ancilla,) = self.random_chain(rng, 0, unitary=True)
        return self.random_morphism(rng, dom, Par(ancilla, cod))

    # --- the functor from the unitary subcategory ------------------------
    @property
    def unitary_donor(self) -> "Model":
        """Model whose morphisms present the unitary subcategory."""
        return self

    def include_expr(self, expr: ObjectExpr) -> ObjectExpr:
        """Object part of the functor out of the unitary subcategory."""
        return expr

    def include(self, f: Morphism) -> Morphism:
        """Morphism part of the functor out of the unitary subcategory."""
        return f

    # --- channels (see cpinf) ---------------------------------------------
    def check_payload(self, f: Morphism) -> None:
        """Raise TypingError unless the payload fits the interpreted dom/cod
        of ``f``; a model without it has no channels."""
        raise UnsupportedInModel(f"model {self.name} does not type channels")

    def canonical(self, k) -> Any:
        """Canonical form of the channel of representative ``k``: it offers
        ``deviation(other)`` (0 exactly when equivalent) and ``equiv(other,
        tol)``, and raises DomCodMismatch against a form of another type."""
        raise UnsupportedInModel(
            f"model {self.name} has no canonical form for channels")

    def kraus_compose_body(self, k1, k2) -> Morphism:
        """Body ``A -> Par(Par(U1, U2), C)`` of the composite channel:
        ``f1 ; (1_U1 + f2) ; a+``."""
        from .structural import structural  # structural imports this module
        return (k1.body >> par(identity(self, k1.ancilla), k2.body)
                >> structural(self, "a_par", [k1.ancilla, k2.ancilla, k2.cod]))

    def discard(self, u: ObjectExpr) -> Morphism:
        """Body ``U -> Par(U, ⊥)`` of the environment structure's discard of
        the unitary object ``u``: the whole input becomes the ancilla."""
        from .structural import structural
        return structural(self, "u_par_r_inv", [u])


_REGISTRY: Dict[str, Model] = {}


def register_model(model: Model) -> None:
    if model.name in _REGISTRY:
        raise ValueError(f"model {model.name!r} already registered")
    _REGISTRY[model.name] = model


def unregister_model(name: str) -> None:
    _REGISTRY.pop(name, None)


def get_model(name: str) -> Model:
    try:
        return _REGISTRY[name]
    except KeyError:
        raise UnknownModel(f"no model registered under {name!r}") from None


def registered_models() -> list:
    return sorted(_REGISTRY)


# ---------------------------------------------------------------------------
# generic operations


def identity(model: Model | str, expr: ObjectExpr) -> Morphism:
    m = get_model(model) if isinstance(model, str) else model
    return Morphism(m.name, expr, expr, m.identity_payload(expr))


def compose(f: Morphism, g: Morphism) -> Morphism:
    """Diagram-order composite ``f ; g``."""
    if f.model != g.model:
        raise ModelMismatch(f"{f.model} vs {g.model}")
    if f.cod != g.dom:
        raise ShapeMismatch(
            f"cannot compose: cod {f.cod!r} differs from dom {g.dom!r}")
    m = get_model(f.model)
    return Morphism(f.model, f.dom, g.cod, m.compose_payload(f, g))


def tensor(f: Morphism, g: Morphism) -> Morphism:
    if f.model != g.model:
        raise ModelMismatch(f"{f.model} vs {g.model}")
    m = get_model(f.model)
    return Morphism(f.model, Tensor(f.dom, g.dom), Tensor(f.cod, g.cod),
                    m.tensor_payload(f, g))


def par(f: Morphism, g: Morphism) -> Morphism:
    if f.model != g.model:
        raise ModelMismatch(f"{f.model} vs {g.model}")
    m = get_model(f.model)
    return Morphism(f.model, Par(f.dom, g.dom), Par(f.cod, g.cod),
                    m.par_payload(f, g))


def then_tensor(x: Morphism, f: Morphism, g: Morphism) -> Morphism:
    """Diagram-order composite ``x ; (f * g)``."""
    m = _followed_by(x, Tensor(f.dom, g.dom), f, g)
    return Morphism(x.model, x.dom, Tensor(f.cod, g.cod),
                    m.then_tensor_payload(x, f, g))


def then_par(x: Morphism, f: Morphism, g: Morphism) -> Morphism:
    """Diagram-order composite ``x ; (f + g)``."""
    m = _followed_by(x, Par(f.dom, g.dom), f, g)
    return Morphism(x.model, x.dom, Par(f.cod, g.cod),
                    m.then_par_payload(x, f, g))


def _followed_by(x: Morphism, dom: ObjectExpr, *factors: Morphism) -> Model:
    """The model of ``x``, once a product of ``factors`` on ``dom`` may
    follow it; checked as ``compose`` checks."""
    for f in factors:
        if f.model != x.model:
            raise ModelMismatch(f"{x.model} vs {f.model}")
    if x.cod != dom:
        raise ShapeMismatch(
            f"cannot compose: cod {x.cod!r} differs from dom {dom!r}")
    return get_model(x.model)


def dagger(f: Morphism) -> Morphism:
    m = get_model(f.model)
    return Morphism(f.model, Dagger(f.cod), Dagger(f.dom), m.dagger_payload(f))


def deviation(f: Morphism, g: Morphism) -> float:
    """Largest pointwise disagreement between two parallel morphisms; sides
    of equal syntactic dom and cod are parallel without interpreting them."""
    if f.model != g.model:
        raise ModelMismatch(f"{f.model} vs {g.model}")
    m = get_model(f.model)
    if not (f.dom == g.dom and f.cod == g.cod) and not (
            m.same_object(m.interpret(f.dom), m.interpret(g.dom))
            and m.same_object(m.interpret(f.cod), m.interpret(g.cod))):
        raise ShapeMismatch("morphisms are not parallel under interpretation")
    return m.deviation(f, g)


TOL = 1e-9


def positive_tolerance(tol: float) -> None:
    """Refuse ``tol`` (ValueError) unless positive and finite: under inf a
    crashed trial would pass, and under NaN every deviation would fail."""
    if not 0 < tol < math.inf:
        raise ValueError(f"tolerance must be positive and finite, got {tol}")


def within(dev: float, tol: float) -> bool:
    """``dev <= tol``, so NaN fails, once ``positive_tolerance`` passes."""
    positive_tolerance(tol)
    return dev <= tol


def fold_deviation(worst: float, dev: float) -> float:
    """The larger deviation, counting NaN as inf: ``max`` and ``>`` would
    drop a NaN, and a law whose sides hold NaN would pass."""
    return math.inf if math.isnan(dev) else max(worst, dev)
