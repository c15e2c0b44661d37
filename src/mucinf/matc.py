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
* Identity payloads are shared: ``mat_identity(n)`` returns the same
  read-only array for as long as some payload still holds it.  Composing
  with a shared identity returns the other operand itself (when that is
  already a frozen payload), and the Kronecker product of two identities is
  the shared identity of the product, so the structural maps of the strict
  interpretation cost no matmul.
* Size guards bound each side of a payload by ``DIM_LIMIT`` and its number
  of entries by ``ENTRY_LIMIT``, before anything is allocated.
* Choi matrices live here: ``ChoiMatrix`` is the canonical form of a
  channel in this model and in the finite fragment of ``fmat``, and
  ``choi`` computes it from a Kraus body.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass

import numpy as np

from .errors import (DimensionOverflow, DomCodMismatch, NotHermitian,
                     ShapeMismatch, TypingError)
from .morphisms import Model, Morphism, register_model
from .objects import (Base, Dagger, Dual, ObjectExpr, Par, ParUnit, Tensor,
                      TensorUnit)

DIM_LIMIT = 2 ** 16  # desk-scale guard on each side of a matrix
ENTRY_LIMIT = 2 ** 24  # and on its entries: 256 MiB of complex128

# the shared identity of each dimension some payload still holds
_EYES: "weakref.WeakValueDictionary[int, np.ndarray]" = \
    weakref.WeakValueDictionary()


def _check_size(rows: int, cols: int, what: str) -> None:
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
    """Whether ``_freeze(a)`` would return ``a`` itself, unchanged."""
    return (a.dtype == np.complex128 and a.flags.c_contiguous
            and not a.flags.writeable)


def _is_eye(a: np.ndarray) -> bool:
    return _EYES.get(a.shape[0]) is a


def mat_identity(dim: int) -> np.ndarray:
    _check_size(dim, dim, "identity")
    eye = _EYES.get(dim)
    if eye is None:
        eye = _EYES[dim] = _freeze(np.eye(dim, dtype=complex))
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
    _check_size(a * b, a * b, "commutation permutation")
    p = np.zeros((a * b, a * b), dtype=complex)
    for i in range(a):
        for j in range(b):
            p[j * a + i, i * b + j] = 1.0
    return _freeze(p)


def bell_unit(a: int) -> np.ndarray:
    """Cup eta: 1 -> a*a, the column sum of e_i (x) e_i."""
    _check_size(a * a, 1, "cup")
    v = np.zeros((a * a, 1), dtype=complex)
    for i in range(a):
        v[i * a + i, 0] = 1.0
    return _freeze(v)


def bell_counit(a: int) -> np.ndarray:
    """Cap eps: a*a -> 1, the transpose of the cup."""
    return _freeze(bell_unit(a).T)


def check_hermitian(h: np.ndarray, tol: float = 1e-9) -> None:
    if h.ndim != 2 or h.shape[0] != h.shape[1]:
        raise ShapeMismatch(f"expected a square matrix, got {h.shape}")
    # phrased so that NaN, which fails every comparison, is rejected
    if not np.max(np.abs(h - h.conj().T), initial=0.0) <= tol:
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
        return float(np.max(np.abs(self.matrix - other.matrix), initial=0.0))

    def equiv(self, other: "ChoiMatrix", tol: float = 1e-9) -> bool:
        return self.deviation(other) <= tol


def choi(body: np.ndarray, ancilla_dim: int) -> ChoiMatrix:
    """Glue a Kraus body ``(u*b) x a`` (ancilla wire first) to its dagger
    along the ancilla."""
    rows, a = body.shape
    b = rows // ancilla_dim
    w = body.reshape(ancilla_dim, b * a)
    c = w.T @ w.conj()
    # clip rounding asymmetry so the invariant holds exactly
    c = (c + c.conj().T) / 2.0
    return ChoiMatrix(c, a, b)


# ---------------------------------------------------------------------------
# the model


class MatModel(Model):
    """Finite complex matrices as a law-suite model.

    ``mutations`` deliberately corrupts parts of the structure; it exists so
    the suite's sensitivity can be tested against broken fixtures and must
    stay empty for the real model.
    """

    base = "mat"
    dense = True

    def __init__(self, name: str = "mat", mutations=()):
        self.name = name
        self.mutations = frozenset(mutations)

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

    def dagger_payload(self, f: Morphism) -> np.ndarray:
        if "transpose_only_dagger" in self.mutations:
            return _freeze(f.payload.T)
        return mat_dagger(f.payload)

    def structural_payload(self, name, args, dom, cod) -> np.ndarray:
        if name in ("c_tensor", "c_par"):
            p = commutation_perm(self.interpret(args[0]),
                                 self.interpret(args[1]))
            if "transpose_commutation" in self.mutations:
                p = _freeze(p.T)
            return p
        if name == "eta":
            return bell_unit(self.interpret(args[0]))
        if name == "eps":
            return bell_counit(self.interpret(args[0]))
        if name in ("m", "m_inv") and "scale_mix" in self.mutations:
            return _freeze(np.array([[2.0]], dtype=complex))
        if name == "lam_tensor" and "swap_laxor_tensor" in self.mutations:
            return commutation_perm(self.interpret(args[0]),
                                    self.interpret(args[1]))
        if name == "lam_tensor" and "skew_laxor_tensor" in self.mutations:
            return _freeze(float(self.interpret(args[0]))
                           * mat_identity(self.interpret(dom)))
        # everything else is an identity: the interpretation is strict and
        # the dagger is stationary on objects
        din, dout = self.interpret(dom), self.interpret(cod)
        if din != dout:
            raise ShapeMismatch(f"{name}: {din} != {dout}")
        return mat_identity(din)

    def deviation(self, f: Morphism, g: Morphism) -> float:
        return float(np.max(np.abs(f.payload - g.payload), initial=0.0))

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
