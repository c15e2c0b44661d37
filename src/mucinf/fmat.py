"""Desk-scale fragment of finiteness matrices.

A finiteness space is an index set together with two set families that are
each other's perp, where ``perp(F)`` collects the sets meeting every member
of F finitely.  Matrices between spaces are finitely supported and their
supports must be finiteness relations; that typing is what guarantees all
composition sums are finite.

Index sets are either explicit finite label tuples or the symbolic
countably-infinite ``OMEGA``.  Over OMEGA only the two-tag lattice
{FIN, ALL} of families is representable, which is exactly enough to make
the typing discipline non-vacuous.  Over a finite index X the perp of any
family is the power family P(X), so every closed finite space is
(X, P(X), P(X)); P(X) is held symbolically as ``PowerFamily``, whose
membership, inclusion and relation checks take time in |X| and the
support, never in the 2**|X| subsets, so closed spaces have no label cap.
Other families are explicit (``fmat-check`` input); they are closed
downward under subset on construction, which keeps the invariants
checkable, and only they are capped, at ``MAX_EXPLICIT`` labels per member.
A support label outside a finite index set fails relation typing.

The inclusion of finite matrices lands on the spaces (X, P(X), P(X)) with X
finite; it is a strict functor, so all its strengths are identity matrices,
and on finite spaces every structural map, tensor and Choi matrix is the
dense model's matrix placed on the spaces' label enumerations.  Every dense
matrix passes one gate, ``dense_shape``: both spaces finite, then
``matc``'s size guard.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from itertools import combinations
from typing import Dict, FrozenSet, Tuple, Union

import numpy as np

from .errors import (DimensionOverflow, SpaceMismatch, TypingError,
                     UnsupportedInModel)
from .matc import (ChoiFactor, _check_size, choi_factor, mat_kron,
                   structural_matrix)
from .morphisms import Model, Morphism, get_model, register_model
from .objects import (Base, Dagger, Dual, ObjectExpr, Par, ParUnit, Tensor,
                      TensorUnit)

SUPPORT_EPS = 1e-14  # entries below this magnitude are dropped from support
MAX_EXPLICIT = 10    # explicit families: at most 2**10 subsets per member

FIN = "fin"
ALL = "all"


@dataclass(frozen=True)
class OmegaIndex:
    """The symbolic countably-infinite index set."""


@dataclass(frozen=True)
class FiniteIndex:
    labels: Tuple

    def __post_init__(self):
        if len(set(self.labels)) != len(self.labels):
            raise TypingError("finite index set has repeated labels")

    @cached_property
    def members(self) -> FrozenSet:
        """The labels as a set, built once per index."""
        return frozenset(self.labels)


OMEGA = OmegaIndex()
IndexSet = Union[OmegaIndex, FiniteIndex]


@dataclass(frozen=True)
class TagFamily:
    tag: str  # FIN or ALL

    def __post_init__(self):
        if self.tag not in (FIN, ALL):
            raise TypingError(f"unknown family tag {self.tag!r}")


@dataclass(frozen=True)
class ExplicitFamily:
    sets: FrozenSet[FrozenSet]


@dataclass(frozen=True)
class PowerFamily:
    """P(X), every subset of the finite label set X, held symbolically."""

    labels: FrozenSet

    @property
    def sets(self) -> FrozenSet[FrozenSet]:
        """The ``2**len(labels)`` members, enumerated on demand."""
        return downward_closure([self.labels])


SetFamily = Union[TagFamily, ExplicitFamily, PowerFamily]


def downward_closure(sets) -> FrozenSet[FrozenSet]:
    sets = [frozenset(s) for s in sets]
    for s in sets:
        if len(s) > MAX_EXPLICIT:
            raise DimensionOverflow(
                f"power family over {len(s)} labels is beyond desk scale")
    closed = set()
    for s in sets:
        for k in range(len(s) + 1):
            for sub in combinations(sorted(s, key=repr), k):
                closed.add(frozenset(sub))
    return frozenset(closed)


def explicit_family(sets) -> ExplicitFamily:
    """Build an explicit family, closed downward under subset."""
    return ExplicitFamily(downward_closure(sets))


def power_family(index: FiniteIndex) -> PowerFamily:
    return PowerFamily(frozenset(index.labels))


def perp(family: SetFamily, index: IndexSet) -> SetFamily:
    """The family of sets meeting every member of ``family`` finitely."""
    if isinstance(index, FiniteIndex):
        # every subset of a finite set meets every member finitely
        return power_family(index)
    if isinstance(family, TagFamily):
        return TagFamily(ALL if family.tag == FIN else FIN)
    # explicit families over OMEGA consist of finite sets, all of which any
    # set meets finitely
    return TagFamily(ALL)


def family_member(family: SetFamily, subset: FrozenSet) -> bool:
    """Membership of a concrete finite set in a family."""
    if isinstance(family, TagFamily):
        return True  # concrete sets are finite, and FIN/ALL both admit them
    if isinstance(family, PowerFamily):
        return frozenset(subset) <= family.labels
    return frozenset(subset) in family.sets


def family_subset(first: SetFamily, second: SetFamily) -> bool:
    if isinstance(first, TagFamily) and isinstance(second, TagFamily):
        return first.tag == second.tag or second.tag == ALL
    if isinstance(second, TagFamily):
        return True  # finite members sit in both FIN and ALL
    if isinstance(first, TagFamily):
        return False
    if isinstance(first, PowerFamily) and isinstance(second, PowerFamily):
        return first.labels <= second.labels
    if isinstance(second, PowerFamily):
        return all(s <= second.labels for s in first.sets)
    if isinstance(first, PowerFamily):
        # members are distinct sets, so the explicit family holds P(X) iff
        # it holds 2**|X| subsets of X
        return (sum(s <= first.labels for s in second.sets)
                == 2 ** len(first.labels))
    return first.sets <= second.sets


def _same_family(first: SetFamily, second: SetFamily) -> bool:
    return first == second or (family_subset(first, second)
                               and family_subset(second, first))


def check_finiteness_space(index: IndexSet, fam_a: SetFamily,
                           fam_b: SetFamily) -> bool:
    return (_same_family(perp(fam_a, index), fam_b)
            and _same_family(perp(fam_b, index), fam_a))


@dataclass(frozen=True)
class FinitenessSpace:
    index: IndexSet
    fam_a: SetFamily
    fam_b: SetFamily

    def __post_init__(self):
        if not check_finiteness_space(self.index, self.fam_a, self.fam_b):
            raise TypingError("families are not a perp pair")

    def flip(self) -> "FinitenessSpace":
        return FinitenessSpace(self.index, self.fam_b, self.fam_a)


@lru_cache(maxsize=128)
def finite_space(labels: Tuple) -> FinitenessSpace:
    """The space (X, P(X), P(X)) on the label tuple X.  Spaces compare by
    value, so the bounded cache only saves rebuilding the recent ones."""
    index = FiniteIndex(labels)
    fam = power_family(index)
    return FinitenessSpace(index, fam, fam)


OMEGA_FIN = FinitenessSpace(OMEGA, TagFamily(FIN), TagFamily(ALL))
OMEGA_ALL = FinitenessSpace(OMEGA, TagFamily(ALL), TagFamily(FIN))


def check_finiteness_relation(support, src: FinitenessSpace,
                              tgt: FinitenessSpace) -> bool:
    """Typing check for a finite support relation between two spaces."""
    support = frozenset((x, y) for x, y in support)
    domain = frozenset(x for x, _ in support)
    rng = frozenset(y for _, y in support)
    if not (_within(domain, src.index) and _within(rng, tgt.index)):
        return False

    def image(subset):
        return frozenset(y for x, y in support if x in subset)

    def preimage(subset):
        return frozenset(x for x, y in support if y in subset)

    return (_maps_into(src.fam_a, tgt.fam_a, domain, image)
            and _maps_into(tgt.fam_b, src.fam_b, rng, preimage))


def _within(labels: FrozenSet, index: IndexSet) -> bool:
    return not isinstance(index, FiniteIndex) or labels <= index.members


def _maps_into(family: SetFamily, target: SetFamily, reach: FrozenSet,
               image) -> bool:
    """Whether ``image`` sends every member of ``family`` into ``target``;
    ``reach`` is the part of the index that ``image`` sees."""
    if isinstance(family, TagFamily):
        # tag families are downward closed; the image of the full domain
        # dominates the image of every member
        return family_member(target, image(reach))
    if isinstance(family, PowerFamily) \
            and not isinstance(target, ExplicitFamily):
        # X is the largest member of P(X), and the target is downward closed
        return family_member(target, image(reach & family.labels))
    return all(family_member(target, image(a)) for a in family.sets)


@dataclass(frozen=True)
class SparseMatrix:
    """Finitely supported matrix with finiteness-relation typing."""

    src: FinitenessSpace
    tgt: FinitenessSpace
    entries: Tuple[Tuple[Tuple, Tuple, complex], ...] = field(default=())

    def __post_init__(self):
        entries = [(x, y, complex(v)) for x, y, v in self.entries]
        # NaN fails the support test below, so it would silently vanish
        if not all(cmath.isfinite(v) for _, _, v in entries):
            raise TypingError("non-finite number in a matrix entry")
        cleaned = tuple(sorted(
            (e for e in entries if abs(e[2]) > SUPPORT_EPS),
            key=lambda t: (repr(t[0]), repr(t[1]))))
        object.__setattr__(self, "entries", cleaned)
        if not check_finiteness_relation(
                [(x, y) for x, y, _ in cleaned], self.src, self.tgt):
            raise TypingError("support is not a finiteness relation")

    def as_dict(self) -> Dict[Tuple[Tuple, Tuple], complex]:
        return {(x, y): v for x, y, v in self.entries}

    def support(self) -> FrozenSet:
        return frozenset((x, y) for x, y, _ in self.entries)


def sparse_deviation(m1: SparseMatrix, m2: SparseMatrix) -> float:
    """Largest entrywise difference of two sparse matrices."""
    a, b = m1.as_dict(), m2.as_dict()
    return max((abs(a.get(k, 0j) - b.get(k, 0j)) for k in set(a) | set(b)),
               default=0.0)


def sparse_from_dict(src, tgt, mapping) -> SparseMatrix:
    return SparseMatrix(src, tgt, tuple((x, y, v)
                                        for (x, y), v in mapping.items()))


def sparse_identity(space: FinitenessSpace) -> SparseMatrix:
    if isinstance(space.index, OmegaIndex):
        raise UnsupportedInModel(
            "the identity on a symbolic infinite space has infinite support")
    return SparseMatrix(space, space,
                        tuple((x, x, 1.0 + 0j) for x in space.index.labels))


def fmat_compose(m1: SparseMatrix, m2: SparseMatrix) -> SparseMatrix:
    """Entrywise composite; finite supports keep every sum finite."""
    if m1.tgt != m2.src:
        raise SpaceMismatch("middle spaces differ")
    acc: Dict[Tuple[Tuple, Tuple], complex] = {}
    by_row: Dict[Tuple, list] = {}
    for y, z, v in m2.entries:
        by_row.setdefault(y, []).append((z, v))
    for x, y, v in m1.entries:
        for z, w in by_row.get(y, ()):
            acc[(x, z)] = acc.get((x, z), 0j) + v * w
    return sparse_from_dict(m1.src, m2.tgt, acc)


def fmat_dagger(m: SparseMatrix) -> SparseMatrix:
    """Flip the typing of both spaces, conjugate entries, transpose support."""
    return SparseMatrix(m.tgt.flip(), m.src.flip(),
                        tuple((y, x, v.conjugate()) for x, y, v in m.entries))


def dense_shape(src: FinitenessSpace, tgt: FinitenessSpace,
                what: str) -> Tuple[int, int]:
    """The one gate into the dense model: ``(rows, cols)`` of a matrix
    between two finite spaces, within ``matc``'s size guard."""
    if not (isinstance(src.index, FiniteIndex)
            and isinstance(tgt.index, FiniteIndex)):
        raise UnsupportedInModel(f"{what} lives in the finite fragment")
    rows, cols = len(tgt.index.labels), len(src.index.labels)
    _check_size(rows, cols, what)
    return rows, cols


def from_dense(dense: np.ndarray, src: FinitenessSpace,
               tgt: FinitenessSpace) -> SparseMatrix:
    """A dense array between finite spaces (column convention) on their
    label enumerations; ``SparseMatrix`` drops the near-zero entries."""
    xs, ys = src.index.labels, tgt.index.labels
    return SparseMatrix(src, tgt, tuple((xs[j], ys[i], v) for (i, j), v
                                        in np.ndenumerate(dense)))


def include_mat(dense: np.ndarray) -> SparseMatrix:
    """The inclusion functor on morphisms: a finite matrix becomes a
    finitely supported matrix between power-family spaces."""
    rows, cols = np.shape(dense)
    return from_dense(dense, finite_space(tuple(range(cols))),
                      finite_space(tuple(range(rows))))


def to_dense(m: SparseMatrix) -> np.ndarray:
    """Densify a matrix between finite spaces (column convention)."""
    out = np.zeros(dense_shape(m.src, m.tgt, "dense fmat matrix"),
                   dtype=complex)
    src_pos = {x: j for j, x in enumerate(m.src.index.labels)}
    tgt_pos = {y: i for i, y in enumerate(m.tgt.index.labels)}
    for x, y, v in m.entries:
        out[tgt_pos[y], src_pos[x]] = v
    return out


def _product_space(left: FinitenessSpace, right: FinitenessSpace
                   ) -> FinitenessSpace:
    if isinstance(left.index, FiniteIndex) and isinstance(right.index,
                                                          FiniteIndex):
        labels = tuple((x, y) for x in left.index.labels
                       for y in right.index.labels)
        return finite_space(labels)
    # a finite factor is absorbed; two tags must agree to stay in the lattice
    if isinstance(left.index, FiniteIndex):
        return right
    if isinstance(right.index, FiniteIndex):
        return left
    if left.fam_a == right.fam_a:
        return left
    raise UnsupportedInModel(
        "mixed fin/all products over the infinite index set fall outside "
        "the two-tag lattice")


_UNIT_SPACE = finite_space(("*",))


class FmatModel(Model):
    """Finiteness matrices as a law-suite model.

    The unitary subcategory is presented by the dense model; ``include``
    is the inclusion functor.
    """

    base = "fmat"

    def __init__(self, name: str = "fmat"):
        self.name = name

    # interpretation ---------------------------------------------------------
    def interpret(self, expr: ObjectExpr) -> FinitenessSpace:
        kind = type(expr)
        if kind is Base:
            space = expr.label
            if not isinstance(space, FinitenessSpace):
                raise TypingError(
                    f"fmat base object needs a finiteness space, got {space!r}")
            return space
        if kind is Tensor or kind is Par:
            return _product_space(self.interpret(expr.left),
                                  self.interpret(expr.right))
        if kind is TensorUnit or kind is ParUnit:
            return _UNIT_SPACE
        if kind is Dagger or kind is Dual:
            return self.interpret(expr.inner).flip()
        raise TypeError(f"not an object expression: {expr!r}")

    # payload algebra ----------------------------------------------------------
    def identity_payload(self, expr: ObjectExpr) -> SparseMatrix:
        return sparse_identity(self.interpret(expr))

    def compose_payload(self, f: Morphism, g: Morphism) -> SparseMatrix:
        return fmat_compose(f.payload, g.payload)

    def tensor_payload(self, f: Morphism, g: Morphism) -> SparseMatrix:
        fp, gp = f.payload, g.payload
        src = _product_space(fp.src, gp.src)
        tgt = _product_space(fp.tgt, gp.tgt)
        dense_shape(src, tgt, "fmat kron result")
        # go through the dense Kronecker product so the strict-inclusion
        # laws hold bit for bit, not merely within tolerance
        return from_dense(mat_kron(to_dense(fp), to_dense(gp)), src, tgt)

    par_payload = tensor_payload

    def dagger_payload(self, f: Morphism) -> SparseMatrix:
        return fmat_dagger(f.payload)

    def structural_payload(self, name, args, dom, cod) -> SparseMatrix:
        src, tgt = self.interpret(dom), self.interpret(cod)
        dense_shape(src, tgt, f"structural map {name!r}")
        # a product space is finite only when both factors are, so every
        # object the dense rule sizes is finite once the gate has passed
        dense = structural_matrix(
            name, args, dom, cod,
            lambda e: len(self.interpret(e).index.labels))
        return from_dense(dense, src, tgt)

    def deviation(self, f: Morphism, g: Morphism) -> float:
        return sparse_deviation(f.payload, g.payload)

    # channels -----------------------------------------------------------------
    def check_payload(self, f: Morphism) -> None:
        if f.payload.src != self.interpret(f.dom) \
                or f.payload.tgt != self.interpret(f.cod):
            raise TypingError("sparse payload spaces do not match typing")

    def canonical(self, k) -> ChoiFactor:
        """The Choi factor of the densified body: the product labels of
        ``Par(U, B)`` run ancilla-first, as the dense model's rows do."""
        body = to_dense(k.body.payload)
        return choi_factor(body, len(self.interpret(k.ancilla).index.labels),
                           len(self.interpret(k.cod).index.labels))

    def kraus_compose_body(self, k1, k2) -> Morphism:
        # direct support surgery: never materialises the identity on the
        # first ancilla, so symbolic infinite ancillas compose fine
        by_mid = {}
        for b, vc, val in k2.body.payload.entries:
            by_mid.setdefault(b, []).append((vc, val))
        acc = {}
        for x, (u, b), val1 in k1.body.payload.entries:
            for (v, c), val2 in by_mid.get(b, ()):
                key = (x, ((u, v), c))
                acc[key] = acc.get(key, 0j) + val1 * val2
        cod = Par(Par(k1.ancilla, k2.ancilla), k2.cod)
        return Morphism(self.name, k1.dom, cod, sparse_from_dict(
            self.interpret(k1.dom), self.interpret(cod), acc))

    # sampling -----------------------------------------------------------------
    def random_object(self, rng, unitary: bool = False) -> ObjectExpr:
        # plain small bases, as the dense model draws
        return self.include_expr(Base(int(rng.integers(1, 4))))

    def random_morphism(self, rng, dom, cod) -> Morphism:
        src, tgt = self.interpret(dom), self.interpret(cod)
        rows, cols = dense_shape(src, tgt, "random morphism")
        # source label outermost, real part first, as a loop would draw
        drawn = rng.random((cols, rows, 2)).view(complex)[..., 0]
        return Morphism(self.name, dom, cod, from_dense(drawn.T, src, tgt))

    # inclusion functor ----------------------------------------------------------
    @property
    def unitary_donor(self) -> Model:
        return get_model("mat")

    def include_expr(self, expr: ObjectExpr) -> ObjectExpr:
        if isinstance(expr, Base):
            return Base(finite_space(tuple(range(expr.label))))
        if isinstance(expr, Tensor):
            return Tensor(self.include_expr(expr.left),
                          self.include_expr(expr.right))
        if isinstance(expr, Par):
            return Par(self.include_expr(expr.left),
                       self.include_expr(expr.right))
        if isinstance(expr, Dagger):
            return Dagger(self.include_expr(expr.inner))
        if isinstance(expr, Dual):
            return Dual(self.include_expr(expr.inner))
        if isinstance(expr, (TensorUnit, ParUnit)):
            return expr
        raise TypeError(f"not an object expression: {expr!r}")

    def include(self, f: Morphism) -> Morphism:
        donor = self.unitary_donor
        if f.model != donor.name:
            raise TypingError("include expects a morphism of the dense model")
        dom = self.include_expr(f.dom)
        cod = self.include_expr(f.cod)
        return Morphism(self.name, dom, cod,
                        from_dense(f.payload, self.interpret(dom),
                                   self.interpret(cod)))


FMAT = FmatModel()
register_model(FMAT)
