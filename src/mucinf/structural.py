"""Registry of named structural morphisms.

Every symbol that appears in an implemented coherence equation is listed
here with its arity and canonical typing.  ``structural`` asks the model for
the payload; the domain and codomain expressions are model-independent.

Directions used throughout (diagram order):

    a_tensor   : A * (B * C) -> (A * B) * C          a_par dually on +
    u_tensor_l : I * A -> A                          u_tensor_r : A * I -> A
    u_par_l    : J + A -> A                          u_par_r    : A + J -> A
    c_tensor   : A * B -> B * A                      c_par dually
    dl         : A * (B + C) -> (A * B) + C
    dr         : (A + B) * C -> A + (B * C)
    m          : J -> I        (mix; invertible in every model here)
    mx         : A * B -> A + B
    lam_tensor : A^ * B^ -> (A + B)^
    lam_par    : A^ + B^ -> (A * B)^
    lam_top    : I -> J^                             lam_bot : J -> I^
    iota       : A -> A^^
    phi        : A -> A^       (unitary objects only)
    eta        : I -> A + A*                         eps : A* * A -> J
    rho        : A^ -> A^      (preservator of the inclusion functor)
    m_top, m_tensor, n_par, n_bot : strengths of the inclusion functor
                                    (identity-typed; the functor is strict)

``I``/``J`` are the tensor/par units, ``^`` the dagger, ``*`` after an
object the linear dual.  Every map above except c_tensor, c_par, dl, dr,
eta and eps also has an inverse ``<name>_inv`` typed the other way round.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Tuple

from .errors import ArityError
from .morphisms import Model, Morphism, get_model
from .objects import BOT, TOP, Dagger, Dual, ObjectExpr, Par, Tensor

Signature = Tuple[ObjectExpr, ObjectExpr]
_SIGS: Dict[str, Tuple[int, Callable[..., Signature]]] = {}


def _sig(name: str, arity: int, invertible: bool = False):
    """Register a signature; an invertible map also gets ``<name>_inv``,
    typed the other way round."""
    def deco(fn):
        _SIGS[name] = (arity, fn)
        if invertible:
            _SIGS[f"{name}_inv"] = (arity, lambda *args: fn(*args)[::-1])
        return fn
    return deco


@_sig("a_tensor", 3, invertible=True)
def _(a, b, c):
    return Tensor(a, Tensor(b, c)), Tensor(Tensor(a, b), c)


@_sig("a_par", 3, invertible=True)
def _(a, b, c):
    return Par(a, Par(b, c)), Par(Par(a, b), c)


@_sig("u_tensor_l", 1, invertible=True)
def _(a):
    return Tensor(TOP, a), a


@_sig("u_tensor_r", 1, invertible=True)
def _(a):
    return Tensor(a, TOP), a


@_sig("u_par_l", 1, invertible=True)
def _(a):
    return Par(BOT, a), a


@_sig("u_par_r", 1, invertible=True)
def _(a):
    return Par(a, BOT), a


@_sig("c_tensor", 2)
def _(a, b):
    return Tensor(a, b), Tensor(b, a)


@_sig("c_par", 2)
def _(a, b):
    return Par(a, b), Par(b, a)


@_sig("dl", 3)
def _(a, b, c):
    return Tensor(a, Par(b, c)), Par(Tensor(a, b), c)


@_sig("dr", 3)
def _(a, b, c):
    return Tensor(Par(a, b), c), Par(a, Tensor(b, c))


@_sig("m", 0, invertible=True)
def _():
    return BOT, TOP


@_sig("mx", 2, invertible=True)
def _(a, b):
    return Tensor(a, b), Par(a, b)


@_sig("lam_tensor", 2, invertible=True)
def _(a, b):
    return Tensor(Dagger(a), Dagger(b)), Dagger(Par(a, b))


@_sig("lam_par", 2, invertible=True)
def _(a, b):
    return Par(Dagger(a), Dagger(b)), Dagger(Tensor(a, b))


@_sig("lam_top", 0, invertible=True)
def _():
    return TOP, Dagger(BOT)


@_sig("lam_bot", 0, invertible=True)
def _():
    return BOT, Dagger(TOP)


@_sig("iota", 1, invertible=True)
def _(a):
    return a, Dagger(Dagger(a))


@_sig("phi", 1, invertible=True)
def _(a):
    return a, Dagger(a)


@_sig("eta", 1)
def _(a):
    return TOP, Par(a, Dual(a))


@_sig("eps", 1)
def _(a):
    return Tensor(Dual(a), a), BOT


@_sig("rho", 1, invertible=True)
def _(a):
    return Dagger(a), Dagger(a)


@_sig("m_top", 0, invertible=True)
def _():
    return TOP, TOP


@_sig("n_bot", 0, invertible=True)
def _():
    return BOT, BOT


@_sig("m_tensor", 2, invertible=True)
def _(a, b):
    return Tensor(a, b), Tensor(a, b)


@_sig("n_par", 2, invertible=True)
def _(a, b):
    return Par(a, b), Par(a, b)


STRUCTURAL_NAMES = tuple(sorted(_SIGS))


def signature(name: str, args: List[ObjectExpr]) -> Signature:
    """Canonical (dom, cod) of a structural map at the given objects."""
    if name not in _SIGS:
        raise ArityError(f"unknown structural map {name!r}")
    arity, fn = _SIGS[name]
    if len(args) != arity:
        raise ArityError(f"{name} expects {arity} object(s), got {len(args)}")
    return fn(*args)


def structural(model: Model | str, name: str, args: List[ObjectExpr]) -> Morphism:
    """Build the named structural morphism in the given model."""
    m = get_model(model) if isinstance(model, str) else model
    dom, cod = signature(name, args)
    payload = m.structural_payload(name, list(args), dom, cod)
    return Morphism(m.name, dom, cod, payload)
