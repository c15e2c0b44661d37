"""Object syntax shared by every model.

An object expression is a finite tree built from base objects, the two
monoidal products (tensor and par), their units, and the two involutive-ish
unary constructors (dagger and linear dual).  Equality is structural; no
quotienting by coherence isomorphisms happens here.  Each model decides how
an expression is interpreted (a dimension, a complex number, a finiteness
space) and whether two interpretations coincide.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any


@dataclass(frozen=True)
class ObjectExpr:
    """Root of the object-expression hierarchy."""

    def __mul__(self, other: "ObjectExpr") -> "Tensor":
        return Tensor(self, other)

    def __add__(self, other: "ObjectExpr") -> "Par":
        return Par(self, other)


@dataclass(frozen=True)
class Base(ObjectExpr):
    """A base object; ``label`` is whatever the model interprets (a dimension,
    a complex number, a finiteness space)."""

    label: Any


@dataclass(frozen=True)
class Tensor(ObjectExpr):
    left: ObjectExpr
    right: ObjectExpr


@dataclass(frozen=True)
class Par(ObjectExpr):
    left: ObjectExpr
    right: ObjectExpr


@dataclass(frozen=True)
class TensorUnit(ObjectExpr):
    pass


@dataclass(frozen=True)
class ParUnit(ObjectExpr):
    pass


@dataclass(frozen=True)
class Dagger(ObjectExpr):
    inner: ObjectExpr


@dataclass(frozen=True)
class Dual(ObjectExpr):
    inner: ObjectExpr


TOP = TensorUnit()
BOT = ParUnit()


def dag(expr: ObjectExpr) -> Dagger:
    return Dagger(expr)


def dual(expr: ObjectExpr) -> Dual:
    return Dual(expr)
