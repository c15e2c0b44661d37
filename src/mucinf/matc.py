"""The fully concrete model of finite complex matrices.

Objects are dimensions, both monoidal products are the Kronecker product,
the dagger is the conjugate transpose, and every structural map is an
explicit identity or permutation matrix.  Linear duals are witnessed by
Bell-style cups and caps.

Conventions
-----------
* Column convention: a morphism ``A -> B`` is stored as a ``dim(B) x dim(A)``
  matrix, so the diagram-order composite ``f ; g`` is ``payload(g) @
  payload(f)``.
* The interpretation is strict monoidal: both bracketings of a Kronecker
  product are literally the same array, so associators, unitors, mix and
  laxors are identity matrices of the right size.
* The dagger is stationary on objects (``dim(A^) = dim(A)``); only the
  syntax keeps track of daggers.
* Channel bodies put the ancilla wire first: a Kraus body ``A -> U * B`` is
  a ``(u*b) x a`` matrix whose block rows are the Kraus operators.
* Identity payloads are shared: ``mat_identity(n)`` is a read-only window
  onto one fixed buffer, the same on every request, so no identity is ever
  allocated or rebuilt.  Composing with a shared identity returns the other
  operand itself (when that is a frozen payload), and the Kronecker product
  of two identities is the shared identity of the product, so the
  structural maps of the strict interpretation cost no matmul.
* ``MatModel.then_tensor_payload`` (and ``then_par_payload``, the same
  method) applies a product ``f * g`` after ``x`` as a reshaped matmul:
  ``x``'s rows are split into ``f``'s and ``g``'s inputs, ``g`` and then
  ``f`` act on their own axis, and a shared identity factor is skipped, so
  the Kronecker product is never formed.
* Size guards bound each side of a payload by ``DIM_LIMIT`` and its number
  of entries by ``ENTRY_LIMIT``, before anything is allocated.
* The model has no fault switches: the suite's mutants are subclasses that
  override one payload method (``tests/mutants.py``).
* ``structural_matrix`` is the one rule for structural maps, serving both
  this model and the finite fragment of ``fmat``, which places its
  matrices on the spaces' label enumerations.
* Choi matrices live here: ``ChoiMatrix`` is the canonical form of a
  channel in this model and in the finite fragment of ``fmat``, and
  ``choi`` computes it from a Kraus body.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .errors import (DimensionOverflow, DomCodMismatch, NotHermitian,
                     ShapeMismatch, TypingError)
from .morphisms import Model, Morphism, register_model
from .objects import (Base, Dagger, Dual, ObjectExpr, Par, ParUnit, Tensor,
                      TensorUnit)

DIM_LIMIT = 2 ** 16  # desk-scale guard on each side of a matrix
ENTRY_LIMIT = 2 ** 24  # and on its entries: 256 MiB of complex128


def _check_size(rows: int, cols: int, what: str, *factors: int) -> None:
    if min(rows, cols, *factors) < 0:
        raise ShapeMismatch(
            f"{what} needs sizes >= 0, got {(rows, cols, *factors)}")
    if rows > DIM_LIMIT or cols > DIM_LIMIT:
        raise DimensionOverflow(
            f"{what} {rows}x{cols} exceeds dimension {DIM_LIMIT}")
    if rows * cols > ENTRY_LIMIT:
        raise DimensionOverflow(
            f"{what} {rows}x{cols} exceeds {ENTRY_LIMIT} entries")


def _freeze(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a, dtype=complex)
    a.flags.writeable = False
    return a


def _is_frozen(a: np.ndarray) -> bool:
    """Whether ``a`` is a payload as it is: frozen, or a shared identity."""
    return (a.dtype == np.complex128 and a.flags.c_contiguous
            and not a.flags.writeable) or _is_eye(a)


def _is_eye(a: np.ndarray) -> bool:
    return _EYES.get(a.shape[0]) is a


# zeros around one 1, reaching the largest identity the guard admits
_SIDE = math.isqrt(ENTRY_LIMIT)
_ONE = _freeze(np.arange(1 - _SIDE, _SIDE) == 0)
_EYES: "dict[int, np.ndarray]" = {}


def mat_identity(dim: int) -> np.ndarray:
    eye = _EYES.get(dim)
    if eye is None:
        _check_size(dim, dim, "identity")
        # row i starts i entries before the 1; read-only like the buffer
        eye = _EYES[dim] = as_strided(_ONE[_SIDE - 1:], (dim, dim), (-16, 16))
    return eye


def mat_kron(f: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Kronecker product; realises both monoidal products of the model."""
    (r1, c1), (r2, c2) = f.shape, g.shape
    rows, cols = r1 * r2, c1 * c2
    _check_size(rows, cols, "kron result")
    if _is_eye(f) and _is_eye(g):
        return mat_identity(rows)
    if r1 == 1 and _is_eye(f) and _is_frozen(g):
        return g
    if r2 == 1 and _is_eye(g) and _is_frozen(f):
        return f
    # every entry is the one product f[i, j] * g[k, l], as in np.kron
    return _freeze((f[:, None, :, None] * g[None, :, None, :])
                   .reshape(rows, cols))


def mat_dagger(f: np.ndarray) -> np.ndarray:
    return _freeze(f.conj().T)


def commutation_perm(a: int, b: int) -> np.ndarray:
    """Permutation matrix P with ``P @ kron(x, y) = kron(y, x)``
    for x of dimension a and y of dimension b."""
    _check_size(a * b, a * b, "commutation permutation", a, b)
    # row j*a + i of P is row i*b + j of the identity
    return _freeze(mat_identity(a * b).reshape(a, b, a * b)
                   .transpose(1, 0, 2).reshape(a * b, a * b))


def bell_unit(a: int) -> np.ndarray:
    """Cup eta: 1 -> a*a, the column sum of e_i (x) e_i."""
    _check_size(a * a, 1, "cup", a)
    return _freeze(mat_identity(a).reshape(a * a, 1))


def bell_counit(a: int) -> np.ndarray:
    """Cap eps: a*a -> 1, the transpose of the cup."""
    return _freeze(bell_unit(a).T)


def structural_matrix(name, args, dom, cod, size) -> np.ndarray:
    """The matrix of the structural map ``name``, where ``size`` gives an
    object's dimension; it reads ``args`` only for the symmetries, cups and
    caps, and ``dom``/``cod`` only for the identities."""
    if name in ("c_tensor", "c_par"):
        return commutation_perm(size(args[0]), size(args[1]))
    if name == "eta":
        return bell_unit(size(args[0]))
    if name == "eps":
        return bell_counit(size(args[0]))
    # everything else is an identity: the interpretation is strict and
    # the dagger is stationary on objects
    din, dout = size(dom), size(cod)
    if din != dout:
        raise ShapeMismatch(f"{name}: {din} != {dout}")
    return mat_identity(din)


def max_abs_diff(a: np.ndarray, b: np.ndarray) -> float:
    """The largest entrywise distance between two arrays; 0.0 when they
    are empty."""
    diff = a - b
    # in place: while this runs, the caller may still hold a temporary
    # operand (``h.conj().T`` in ``check_hermitian``), and a fresh array
    # of moduli would add to the peak
    return float(np.max(np.abs(diff, out=diff).real, initial=0.0))


def check_hermitian(h: np.ndarray, tol: float = 1e-9) -> None:
    if h.ndim != 2 or h.shape[0] != h.shape[1]:
        raise ShapeMismatch(f"expected a square matrix, got {h.shape}")
    # phrased so that NaN, which fails every comparison, is rejected
    if not max_abs_diff(h, h.conj().T) <= tol:
        raise NotHermitian(f"matrix is not Hermitian within {tol}")


def apply_channel(body: np.ndarray, ancilla_dim: int,
                  density: np.ndarray, tol: float = 1e-9) -> np.ndarray:
    """Act with the channel represented by a Kraus body on a density matrix.

    ``body`` is the ``(u*b) x a`` matrix of a Kraus map ``A -> U * B`` with
    the ancilla wire first; the result is the partial trace over U of
    ``body @ density @ body^``, i.e. the sum over the u Kraus blocks M_i of
    ``M_i @ density @ M_i^``.
    """
    density = np.asarray(density, dtype=complex)
    check_hermitian(density, tol)
    rows, a = body.shape
    if density.shape[0] != a:
        raise ShapeMismatch(
            f"density of dimension {density.shape[0]} under a channel with "
            f"input dimension {a}")
    if rows % ancilla_dim != 0:
        raise ShapeMismatch(
            f"body rows {rows} not divisible by ancilla dimension {ancilla_dim}")
    blocks = body.reshape(ancilla_dim, rows // ancilla_dim, a)
    return _freeze(np.einsum("ipa,aq,irq->pr", blocks, density, blocks.conj()))


def hermitian_eig(h: np.ndarray):
    """Eigendecomposition of a Hermitian matrix.

    Returns ``(w, v)`` with eigenvalues ``w`` sorted descending and unitary
    ``v`` whose columns are the matching eigenvectors, so that
    ``h = v @ diag(w) @ v^``.
    """
    h = np.asarray(h, dtype=complex)
    check_hermitian(h)
    w, v = np.linalg.eigh(h)
    return w[::-1], _freeze(v[:, ::-1])


@dataclass(frozen=True)
class ChoiMatrix:
    """Canonical invariant of a dense-model channel.

    ``matrix`` is Hermitian of size (in*out) x (in*out) in the (out, in)
    double-index convention: entry ((b,a),(b',a')) is the sum over Kraus
    blocks of M[b,a] * conj(M[b',a']).  Positive semidefiniteness (within a
    -1e-9 eigenvalue floor) holds for every matrix produced here and is
    enforced where it matters, at purification.
    """

    matrix: np.ndarray
    dim_in: int
    dim_out: int

    def __post_init__(self):
        check_hermitian(self.matrix)
        if self.matrix.shape[0] != self.dim_in * self.dim_out:
            raise TypingError("Choi matrix size must be dim_in * dim_out")

    def deviation(self, other: "ChoiMatrix") -> float:
        """Largest entrywise difference; 0 exactly when equivalent."""
        dims = (self.dim_in, self.dim_out)
        if dims != (other.dim_in, other.dim_out):
            raise DomCodMismatch(f"channel types differ: {dims} vs "
                                 f"{(other.dim_in, other.dim_out)}")
        return max_abs_diff(self.matrix, other.matrix)

    def equiv(self, other: "ChoiMatrix", tol: float = 1e-9) -> bool:
        return self.deviation(other) <= tol


def choi(body: np.ndarray, ancilla_dim: int) -> ChoiMatrix:
    """Glue a Kraus body ``(u*b) x a`` (ancilla wire first) to its dagger
    along the ancilla.  A finite body whose Choi matrix overflows raises
    ``DimensionOverflow``."""
    rows, a = body.shape
    b = rows // ancilla_dim
    w = body.reshape(ancilla_dim, b * a)
    _check_size(a * b, a * b, "Choi matrix")
    c = w.T @ w.conj()
    # a NaN body is not an overflow; the Hermitian check below rejects it
    if not np.isfinite(c).all() and np.isfinite(w).all():
        raise DimensionOverflow(
            f"Choi matrix overflows: body entries reach "
            f"{np.max(np.abs(w)):.3g}")
    # clip rounding asymmetry so the invariant holds exactly
    c = (c + c.conj().T) / 2.0
    return ChoiMatrix(c, a, b)


# ---------------------------------------------------------------------------
# the model


class MatModel(Model):
    """Finite complex matrices as a law-suite model."""

    base = "mat"
    dense = True

    def __init__(self, name: str = "mat"):
        self.name = name

    # interpretation ------------------------------------------------------
    def interpret(self, expr: ObjectExpr) -> int:
        if isinstance(expr, Base):
            dim = expr.label
            if not isinstance(dim, int) or dim < 1:
                raise ShapeMismatch(f"mat base object needs a positive "
                                    f"dimension, got {dim!r}")
            return dim
        if isinstance(expr, (Tensor, Par)):
            return self.interpret(expr.left) * self.interpret(expr.right)
        if isinstance(expr, (TensorUnit, ParUnit)):
            return 1
        if isinstance(expr, (Dagger, Dual)):
            return self.interpret(expr.inner)
        raise TypeError(f"not an object expression: {expr!r}")

    def same_object(self, first, second) -> bool:
        return first == second

    # payload algebra -------------------------------------------------------
    def identity_payload(self, expr: ObjectExpr) -> np.ndarray:
        return mat_identity(self.interpret(expr))

    def compose_payload(self, f: Morphism, g: Morphism) -> np.ndarray:
        f, g = f.payload, g.payload
        # a shared identity needs no matmul; shapes that do not line up
        # still reach ``@`` and raise there
        if g.shape[1] == f.shape[0]:
            if _is_eye(g) and _is_frozen(f):
                return f
            if _is_eye(f) and _is_frozen(g):
                return g
        return _freeze(g @ f)

    def tensor_payload(self, f: Morphism, g: Morphism) -> np.ndarray:
        return mat_kron(f.payload, g.payload)

    par_payload = tensor_payload

    def then_tensor_payload(self, x: Morphism, f: Morphism,
                            g: Morphism) -> np.ndarray:
        # x's rows split as (fi, gi): apply g along gi, then f along fi,
        # skipping a shared identity factor, and never form kron(f, g);
        # rows that do not split reach the reshape and raise there
        x, f, g = x.payload, f.payload, g.payload
        (fo, fi), (go, gi), k = f.shape, g.shape, x.shape[1]
        _check_size(fo * go, k, "product")
        if _is_eye(f) and _is_eye(g) and x.shape[0] == fi * gi:
            # as in compose, a writeable operand comes back as a copy
            return x if _is_frozen(x) else _freeze(x.copy())
        y = x.reshape(fi, gi, k)
        if not _is_eye(g):
            y = np.matmul(g, y)
        if not _is_eye(f):
            y = f @ y.reshape(fi, go * k)
        return _freeze(y.reshape(fo * go, k))

    then_par_payload = then_tensor_payload

    def dagger_payload(self, f: Morphism) -> np.ndarray:
        return mat_dagger(f.payload)

    def structural_payload(self, name, args, dom, cod) -> np.ndarray:
        return structural_matrix(name, args, dom, cod, self.interpret)

    def deviation(self, f: Morphism, g: Morphism) -> float:
        return max_abs_diff(f.payload, g.payload)

    # channels ----------------------------------------------------------------
    def check_payload(self, f: Morphism) -> None:
        rows, cols = f.payload.shape
        if rows != self.interpret(f.cod) or cols != self.interpret(f.dom):
            raise TypingError(
                f"payload shape {f.payload.shape} does not match typing")

    def canonical(self, k) -> ChoiMatrix:
        return choi(k.body.payload, self.interpret(k.ancilla))

    # sampling ----------------------------------------------------------------
    def random_object(self, rng, unitary: bool = False) -> ObjectExpr:
        def leaf():
            return Base(int(rng.integers(1, 4)))
        shape = rng.random()
        if shape < 0.75:
            return leaf()
        if shape < 0.85:
            return Tensor(leaf(), leaf())
        if shape < 0.95:
            return Par(leaf(), leaf())
        return Dagger(leaf())

    def random_chain(self, rng, length: int, unitary: bool = False) -> list:
        # plain leaves: every object is unitary and any two have maps
        return [Base(int(rng.integers(1, 4))) for _ in range(length + 1)]

    def random_morphism(self, rng, dom: ObjectExpr, cod: ObjectExpr) -> Morphism:
        rows, cols = self.interpret(cod), self.interpret(dom)
        payload = rng.random((rows, cols)) + 1j * rng.random((rows, cols))
        return Morphism(self.name, dom, cod, _freeze(payload))


def random_unitary(rng, dim: int) -> np.ndarray:
    """Haar-ish random unitary from the QR of a complex Gaussian matrix."""
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(z)
    return _freeze(q * (np.diag(r) / np.abs(np.diag(r))))


MAT = MatModel()
register_model(MAT)
