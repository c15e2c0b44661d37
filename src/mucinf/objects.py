"""Object syntax shared by every model.

An object expression is a finite tree built from base objects, the two
monoidal products (tensor and par), their units, and the two involutive-ish
unary constructors (dagger and linear dual).  Equality is structural; no
quotienting by coherence isomorphisms happens here.  Each model decides how
an expression is interpreted (a dimension, a complex number, a finiteness
space) and whether two interpretations coincide.

The node classes here and ``Morphism`` are declared with ``value_type``.
Checking one law builds many fresh trees and arrows, and a frozen dataclass
stores each field through ``object.__setattr__``, which made construction
the largest cost left in a law pass.  ``value_type`` keeps what
a frozen dataclass gives (assignment raises ``FrozenInstanceError``; the
generated ``__eq__`` and ``__hash__``; the same ``repr`` text) and adds slots,
an ``__init__`` that stores through the slot descriptors and a ``__repr__``
without the recursion guard, which no finite tree needs.  A class that
validates in ``__post_init__`` (``cpinf.KrausMorphism``, which checks its
body) or has field defaults stays a plain frozen dataclass.
"""

from __future__ import annotations

from dataclasses import MISSING, FrozenInstanceError, dataclass, fields
from typing import Any


def value_type(cls):
    """``dataclass(frozen=True, slots=True)`` with a cheaper ``__init__`` and
    ``__repr__``; refuses a class with ``__post_init__`` or field defaults,
    which that ``__init__`` would skip."""
    if hasattr(cls, "__post_init__"):
        raise TypeError(f"{cls.__name__} has __post_init__; declare it with "
                        f"dataclass(frozen=True)")
    cls = dataclass(frozen=True, slots=True, repr=False)(cls)
    own = fields(cls)
    if any(f.default is not MISSING or f.default_factory is not MISSING
           for f in own):
        raise TypeError(f"{cls.__name__} has a field default; declare it "
                        f"with dataclass(frozen=True)")
    names = [f.name for f in own]
    scope = {"__name__": cls.__module__}
    scope.update((f"_set_{n}", getattr(cls, n).__set__) for n in names)
    stores = "".join(f"\n    _set_{n}(self, {n})" for n in names)
    shown = ", ".join(f"{n}={{self.{n}!r}}" for n in names)
    exec(f"def __init__({', '.join(['self', *names])}):{stores or ' pass'}\n"
         f"def __repr__(self):\n"
         f"    return f'{{self.__class__.__qualname__}}({shown})'\n", scope)
    scope["__init__"].__annotations__ = {
        **{f.name: f.type for f in own}, "return": None}
    for name in ("__init__", "__repr__"):
        scope[name].__qualname__ = f"{cls.__qualname__}.{name}"
        setattr(cls, name, scope[name])
    # the dataclass versions name the class as it was before slots, so an
    # attribute that is no field would raise TypeError on Python < 3.12
    cls.__setattr__, cls.__delattr__ = _no_assignment, _no_deletion
    return cls


def _no_assignment(self, name, value):
    raise FrozenInstanceError(f"cannot assign to field {name!r}")


def _no_deletion(self, name):
    raise FrozenInstanceError(f"cannot delete field {name!r}")


@value_type
class ObjectExpr:
    """Root of the object-expression hierarchy."""

    def __mul__(self, other: "ObjectExpr") -> "Tensor":
        return Tensor(self, other)

    def __add__(self, other: "ObjectExpr") -> "Par":
        return Par(self, other)


@value_type
class Base(ObjectExpr):
    """A base object; ``label`` is whatever the model interprets (a dimension,
    a complex number, a finiteness space)."""

    label: Any


@value_type
class Tensor(ObjectExpr):
    left: ObjectExpr
    right: ObjectExpr


@value_type
class Par(ObjectExpr):
    left: ObjectExpr
    right: ObjectExpr


@value_type
class TensorUnit(ObjectExpr):
    pass


@value_type
class ParUnit(ObjectExpr):
    pass


@value_type
class Dagger(ObjectExpr):
    inner: ObjectExpr


@value_type
class Dual(ObjectExpr):
    inner: ObjectExpr


TOP = TensorUnit()
BOT = ParUnit()
