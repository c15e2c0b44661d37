"""Channels over a mixed-unitary model.

A channel representative is a morphism ``f : A -> U + B`` together with its
ancilla ``U`` drawn from the unitary subcategory.  Representatives are
identified when no test map can distinguish them.  Each model decides that
relation through its own canonical form (``Model.canonical``): the Choi
matrix in the dense model and in the finite fragment of ``fmat``, a closed
form in the discrete model.  A sampling oracle witnesses the test-map
definition directly: it composes both sides of the defining equation
literally from structural maps, builds that wiring once per ``(c, x)``
dimension pair of a call, and applies it through ``then_tensor`` and
``then_par``, which a model may realise without forming the product.

The channel category built here inherits its two tensors, its mix structure
and (over the dense model) its dagger from the base model; the environment
operations at the bottom of the file realise discarding, purification and
the comparison functor between two environment presentations.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable, List, Optional

import numpy as np

from . import matc
from .errors import (DomCodMismatch, NotPSD, TypingError, UnsupportedInModel)
from .laws import run_trials
from .matc import ChoiMatrix
from .morphisms import (Model, Morphism, dagger, get_model, identity, par,
                        tensor, then_par, then_tensor)
from .objects import BOT, Base, Dagger, Dual, ObjectExpr, Par, Tensor
from .structural import structural


@dataclass(frozen=True)
class KrausMorphism:
    """A channel representative: body ``dom -> Par(ancilla, cod)``."""

    model: str
    dom: ObjectExpr
    cod: ObjectExpr
    ancilla: ObjectExpr
    body: Morphism


def _model_of(k: KrausMorphism) -> Model:
    return get_model(k.model)


def validate_body(f: Morphism, ancilla: ObjectExpr) -> None:
    if not (isinstance(f.cod, Par) and f.cod.left == ancilla):
        raise TypingError(
            "body codomain must be Par(ancilla, cod), got "
            f"{f.cod!r} with ancilla {ancilla!r}")
    get_model(f.model).check_payload(f)


def kraus_new(f: Morphism, ancilla: ObjectExpr) -> KrausMorphism:
    """Wrap a morphism ``A -> Par(U, B)`` as a channel representative."""
    validate_body(f, ancilla)
    return KrausMorphism(f.model, f.dom, f.cod.right, ancilla, f)


def kraus_identity(model: Model | str, a: ObjectExpr) -> KrausMorphism:
    """The identity channel, with the par unit as ancilla."""
    return functor_Q(identity(model, a))


def kraus_compose(k1: KrausMorphism, k2: KrausMorphism) -> KrausMorphism:
    """Composite channel; the ancillas accumulate as Par(U1, U2)."""
    if k1.model != k2.model:
        raise TypingError(f"models differ: {k1.model} vs {k2.model}")
    if k1.cod != k2.dom:
        raise TypingError(f"cod {k1.cod!r} != dom {k2.dom!r}")
    body = _model_of(k1).kraus_compose_body(k1, k2)
    return kraus_new(body, Par(k1.ancilla, k2.ancilla))


def _rewire_tensor(m: Model, u1, b, u2, d) -> Morphism:
    # Tensor(Par(u1,b), Par(u2,d)) -> Par(Par(u1,u2), Tensor(b,d))
    return (tensor(structural(m, "mx_inv", [u1, b]),
                   structural(m, "mx_inv", [u2, d]))
            >> structural(m, "a_tensor_inv", [u1, b, Tensor(u2, d)])
            >> tensor(identity(m, u1), structural(m, "a_tensor", [b, u2, d]))
            >> tensor(identity(m, u1),
                      tensor(structural(m, "c_tensor", [b, u2]),
                             identity(m, d)))
            >> tensor(identity(m, u1),
                      structural(m, "a_tensor_inv", [u2, b, d]))
            >> structural(m, "a_tensor", [u1, u2, Tensor(b, d)])
            >> structural(m, "mx", [Tensor(u1, u2), Tensor(b, d)])
            >> par(structural(m, "mx", [u1, u2]), identity(m, Tensor(b, d))))


def _rewire_par(m: Model, u1, b, u2, d) -> Morphism:
    # Par(Par(u1,b), Par(u2,d)) -> Par(Par(u1,u2), Par(b,d))
    return (structural(m, "a_par_inv", [u1, b, Par(u2, d)])
            >> par(identity(m, u1), structural(m, "a_par", [b, u2, d]))
            >> par(identity(m, u1),
                   par(structural(m, "c_par", [b, u2]), identity(m, d)))
            >> par(identity(m, u1), structural(m, "a_par_inv", [u2, b, d]))
            >> structural(m, "a_par", [u1, u2, Par(b, d)]))


def kraus_tensor(k1: KrausMorphism, k2: KrausMorphism) -> KrausMorphism:
    """Tensor of channels; the middle swap pulls both ancillas leftmost."""
    if k1.model != k2.model:
        raise TypingError(f"models differ: {k1.model} vs {k2.model}")
    m = _model_of(k1)
    body = (tensor(k1.body, k2.body)
            >> _rewire_tensor(m, k1.ancilla, k1.cod, k2.ancilla, k2.cod))
    return kraus_new(body, Par(k1.ancilla, k2.ancilla))


def kraus_par(k1: KrausMorphism, k2: KrausMorphism) -> KrausMorphism:
    """Par of channels; in the dense model it coincides with the tensor."""
    if k1.model != k2.model:
        raise TypingError(f"models differ: {k1.model} vs {k2.model}")
    m = _model_of(k1)
    body = (par(k1.body, k2.body)
            >> _rewire_par(m, k1.ancilla, k1.cod, k2.ancilla, k2.cod))
    return kraus_new(body, Par(k1.ancilla, k2.ancilla))


# ---------------------------------------------------------------------------
# dense-model channel analysis


def _dense(model: str) -> Model:
    """The model, which must be dense: the analyses below read its payloads
    as matrices."""
    m = get_model(model)
    if not m.dense:
        raise UnsupportedInModel(
            f"operation needs the dense model, got {model}")
    return m


def pure_decomposition(k: KrausMorphism) -> List[np.ndarray]:
    """Slice the body into its Kraus blocks M_i (cod x dom each)."""
    m = _dense(k.model)
    u = m.interpret(k.ancilla)
    b = m.interpret(k.cod)
    a = m.interpret(k.dom)
    return [np.array(block) for block in k.body.payload.reshape(u, b, a)]


def channel_action(k: KrausMorphism, density: np.ndarray,
                   tol: float = 1e-9) -> np.ndarray:
    """Apply the channel to a density matrix."""
    m = _dense(k.model)
    return matc.apply_channel(k.body.payload, m.interpret(k.ancilla),
                              density, tol)


def kraus_dagger(k: KrausMorphism) -> KrausMorphism:
    """Representative of the adjoint channel.

    Built from the pure decomposition: the blocks are daggered and stacked,
    which lands on the same channel as the dual-bending construction because
    every structural map of the dense model is a permutation.
    """
    m = _dense(k.model)
    blocks = pure_decomposition(k)
    dblocks = [m.dagger_payload(Morphism(k.model, k.dom, k.cod, blk))
               for blk in blocks]
    payload = matc._freeze(np.concatenate(dblocks, axis=0))
    body = Morphism(k.model, Dagger(k.cod),
                    Par(Dual(k.ancilla), Dagger(k.dom)), payload)
    return kraus_new(body, Dual(k.ancilla))


def to_choi(k: KrausMorphism) -> ChoiMatrix:
    """Glue the representative to its dagger along the ancilla."""
    return _dense(k.model).canonical(k)


def _canonical_pair(k1: KrausMorphism, k2: KrausMorphism):
    if k1.model != k2.model:
        raise DomCodMismatch(f"models differ: {k1.model} vs {k2.model}")
    m = _model_of(k1)
    return m.canonical(k1), m.canonical(k2)


def channel_deviation(k1: KrausMorphism, k2: KrausMorphism) -> float:
    """Distance between canonical forms (0 exactly when equivalent)."""
    c1, c2 = _canonical_pair(k1, k2)
    return c1.deviation(c2)


def equiv_decide(k1: KrausMorphism, k2: KrausMorphism,
                 tol: float = 1e-9) -> bool:
    """Decide channel equivalence via the canonical form."""
    c1, c2 = _canonical_pair(k1, k2)
    return c1.equiv(c2, tol)


@dataclass(frozen=True)
class Channel:
    """Equivalence-class handle: canonical form plus one representative."""

    model: str
    canonical: object  # what the model's ``canonical`` returns
    representative: KrausMorphism

    def equals(self, other: "Channel", tol: float = 1e-9) -> bool:
        if self.model != other.model:
            return False
        try:
            return self.canonical.equiv(other.canonical, tol)
        except DomCodMismatch:
            return False


def channel(k: KrausMorphism) -> Channel:
    return Channel(k.model, _model_of(k).canonical(k), k)


# ---------------------------------------------------------------------------
# the sampling oracle for the test-map definition of equivalence


def _testmap_wiring(k: KrausMorphism, c_expr: ObjectExpr,
                    x_expr: ObjectExpr) -> dict:
    """The pieces of one side that do not depend on the test map
    ``h : B * C -> X``: the structural maps, the body and its dagger, and
    the identities."""
    m = _model_of(k)
    u, a, b, f = k.ancilla, k.dom, k.cod, k.body

    def s(name, *args):
        return structural(m, name, list(args))

    return {
        "id_ac": identity(m, Tensor(a, c_expr)),
        "f": f,
        "id_c": identity(m, c_expr),
        "dr": s("dr", u, b, c_expr),
        "id_u": identity(m, u),
        "mid": then_tensor(then_tensor(s("mx_inv", u, x_expr),
                                       s("phi", u), s("phi", x_expr)),
                           s("rho", u), s("rho", x_expr)),
        "id_du": identity(m, Dagger(u)),
        "lam_par_inv": s("lam_par_inv", b, c_expr),
        "dl": s("dl", Dagger(u), Dagger(b), Dagger(c_expr)),
        "lam_tensor": s("lam_tensor", u, b),
        "id_dc": identity(m, Dagger(c_expr)),
        "f_dag": dagger(f),
        "lam_par": s("lam_par", a, c_expr),
    }


def _testmap_side(w: dict, h: Morphism) -> Morphism:
    """One side of the defining equation: the test map ``h`` and its dagger
    glued into the wiring ``w`` of ``_testmap_wiring``, in the order of the
    literal composite

        (f * 1) ; dr ; (1 + h) ; mx^-1 ; (phi * phi) ; (rho * rho)
        ; (1 * (h^ ; lam_par^-1)) ; dl ; (lam_tensor + 1) ; (f^ + 1)
        ; lam_par
    """
    # f * 1 is rebuilt per trial: held for the call, one per (c, x) pair
    # and side, it would outweigh the trial's own work in memory
    side = then_par(then_tensor(w["id_ac"], w["f"], w["id_c"]) >> w["dr"],
                    w["id_u"], h) >> w["mid"]
    side = then_tensor(side, w["id_du"], dagger(h) >> w["lam_par_inv"])
    side = then_par(side >> w["dl"], w["lam_tensor"], w["id_dc"])
    return then_par(side, w["f_dag"], w["id_dc"]) >> w["lam_par"]


def equiv_testmap_oracle(k1: KrausMorphism, k2: KrausMorphism,
                         trials: int = 200, seed: Optional[int] = None,
                         rng=None, c_dims=(1, 2, 3), x_dims=(1, 2),
                         tol: float = 1e-9) -> dict:
    """Sample test maps and look for one separating the two representatives.

    Independent of the canonical-form decision: both sides of the defining
    equation are composed literally from structural maps, so a witness is a
    concrete test map whose two glued composites differ.  The wiring of
    both sides is built once per ``(c, x)`` dimension pair in a call, and
    each trial glues only the test map and its dagger into it; every
    product step goes through ``then_tensor``/``then_par``, so a model may
    apply it without forming the product.
    """
    m = _dense(k1.model)
    if (m.interpret(k1.dom) != m.interpret(k2.dom)
            or m.interpret(k1.cod) != m.interpret(k2.cod)):
        raise DomCodMismatch("representatives do not share dom/cod")
    if rng is None:
        rng = np.random.default_rng(seed if seed is not None else 0)
    b = k1.cod
    wiring = {}
    for trial in range(trials):
        c_expr = Base(int(rng.choice(c_dims)))
        x_expr = Base(int(rng.choice(x_dims)))
        h = m.random_morphism(rng, Tensor(b, c_expr), x_expr)
        h2 = Morphism(k2.model, Tensor(k2.cod, c_expr), x_expr, h.payload)
        key = (c_expr.label, x_expr.label)
        if key not in wiring:
            wiring[key] = (_testmap_wiring(k1, c_expr, x_expr),
                           _testmap_wiring(k2, c_expr, x_expr))
        w1, w2 = wiring[key]
        lhs = _testmap_side(w1, h)
        rhs = _testmap_side(w2, h2)
        dev = m.deviation(lhs, rhs)
        # phrased so that NaN, which fails every comparison, separates
        if not dev <= tol:
            return {"consistent": False, "trials": trials,
                    "witness": {"trial": trial, "c_dim": c_expr.label,
                                "x_dim": x_expr.label, "deviation": dev}}
    return {"consistent": True, "trials": trials, "witness": None}


# ---------------------------------------------------------------------------
# samplers used by the suite and the acceptance checks


def random_channel(model: Model, rng, dom: Optional[ObjectExpr] = None,
                   cod: Optional[ObjectExpr] = None,
                   ancilla: Optional[ObjectExpr] = None) -> KrausMorphism:
    """A random representative in ``model``; the model draws the objects
    left out (see ``Model.random_kraus_body``)."""
    body = model.random_kraus_body(rng, dom, cod, ancilla)
    return kraus_new(body, body.cod.left)


def equivalent_variant(rng, k: KrausMorphism) -> KrausMorphism:
    """An equivalent representative: mix the ancilla by a unitary, or pad
    it with extra wires fed through an isometry."""
    m = _dense(k.model)
    u = m.interpret(k.ancilla)
    b = m.interpret(k.cod)
    if rng.random() < 0.5:
        alpha = matc.random_unitary(rng, u)
        new_u, mixer = u, alpha
    else:
        extra = int(rng.integers(1, 3))
        big = matc.random_unitary(rng, u + extra)
        new_u, mixer = u + extra, big[:, :u]  # isometry: mixer^ mixer = 1
    payload = matc.mat_kron(mixer, matc.mat_identity(b)) @ k.body.payload
    body = Morphism(k.model, k.dom, Par(Base(new_u), k.cod),
                    matc._freeze(payload))
    return kraus_new(body, Base(new_u))


def distinct_pair(model: Model, rng, dom: Optional[ObjectExpr] = None,
                  cod: Optional[ObjectExpr] = None, min_gap: float = 1e-3):
    """Two representatives of provably different channels."""
    k1 = random_channel(model, rng, dom, cod)
    while True:
        k2 = random_channel(model, rng, k1.dom, k1.cod)
        if channel_deviation(k1, k2) > min_gap:
            return k1, k2


def random_density(rng, dim: int) -> np.ndarray:
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = z @ z.conj().T
    return rho / np.trace(rho).real


# ---------------------------------------------------------------------------
# canonical functors into the channel category


def functor_Q(f: Morphism) -> KrausMorphism:
    """Every base-model morphism as a pure channel (ancilla the par unit)."""
    m = get_model(f.model)
    body = (f >> structural(m, "u_par_l_inv", [f.cod])
            >> par(structural(m, "n_bot_inv", []), identity(m, f.cod)))
    return kraus_new(body, body.cod.left)


def functor_N(f: Morphism) -> KrausMorphism:
    """The unitary subcategory mapped through the inclusion, then Q."""
    return functor_Q(get_model(f.model).include(f))


# ---------------------------------------------------------------------------
# environment structure: discard, purification, initiality probe


def env_discard(model: Model | str, u_expr: ObjectExpr) -> KrausMorphism:
    """Discard a unitary object: the whole input becomes the ancilla."""
    m = get_model(model) if isinstance(model, str) else model
    body = structural(m, "u_par_r_inv", [u_expr])
    return kraus_new(body, u_expr)


def purify(choi: ChoiMatrix, model: str = "mat",
           rank_cutoff: float = 1e-10) -> KrausMorphism:
    """Stinespring representative from the Choi eigendecomposition.

    The ancilla dimension is the Choi rank; Kraus blocks are the unvec'd
    scaled eigenvectors.  Raises NotPSD below the -1e-9 eigenvalue floor.
    """
    m = _dense(model)
    w, v = matc.hermitian_eig(choi.matrix)
    scale = max(1.0, float(np.max(np.abs(w), initial=0.0)))
    if np.min(w, initial=0.0) < -1e-9 * scale:
        raise NotPSD(f"Choi eigenvalue {np.min(w)} below the PSD floor")
    a, b = choi.dim_in, choi.dim_out
    blocks = [np.sqrt(lam) * vec.reshape(b, a)
              for lam, vec in zip(w, v.T) if lam > rank_cutoff * scale]
    if not blocks:
        blocks = [np.zeros((b, a), dtype=complex)]
    payload = matc._freeze(np.concatenate(blocks, axis=0))
    body = Morphism(m.name, Base(a), Par(Base(len(blocks)), Base(b)), payload)
    return kraus_new(body, Base(len(blocks)))


@dataclass(frozen=True)
class EnvStructure:
    """A strict isomix functor on pure maps plus a discard family."""

    model: str
    functor: Callable[[Morphism], KrausMorphism]
    discard: Callable[[ObjectExpr], KrausMorphism]
    label: str = "canonical"


def canonical_env(model: str = "mat") -> EnvStructure:
    return EnvStructure(model, functor_Q,
                        lambda u: env_discard(model, u), "canonical")


def env_factor(structure: EnvStructure, k: KrausMorphism) -> KrausMorphism:
    """Push a representative through the structure: F(body), then discard
    the ancilla, then strip the par unit."""
    m = get_model(structure.model)
    pure = structure.functor(k.body)
    dis = kraus_par(structure.discard(k.ancilla),
                    kraus_identity(m, k.cod))
    unit = structure.functor(structural(m, "u_par_l", [k.cod]))
    return kraus_compose(kraus_compose(pure, dis), unit)


def _discards_glued(structure: EnvStructure, rng, comparison: str):
    """Two unitary objects ``u, v``, and Env.1's left side: the comparison
    map on them, the par of their discards, then the unit glue."""
    m = _dense(structure.model)
    u_expr, v_expr = m.random_chain(rng, 1, unitary=True)
    pair = kraus_par(structure.discard(u_expr), structure.discard(v_expr))
    lhs = kraus_compose(kraus_compose(
        structure.functor(structural(m, comparison, [u_expr, v_expr])),
        pair), structure.functor(structural(m, "u_par_l", [BOT])))
    return m, u_expr, v_expr, lhs


def _env_tensor(structure: EnvStructure, rng, tol: float):
    # discarding a tensor = tensor of discards, glued by the unit
    m, u_expr, v_expr, lhs = _discards_glued(structure, rng, "mx")
    rhs = kraus_compose(
        structure.functor(structural(m, "m_tensor", [u_expr, v_expr])),
        structure.discard(Tensor(u_expr, v_expr)))
    return channel_deviation(lhs, rhs), {"u": u_expr.label, "v": v_expr.label}


def _env_par(structure: EnvStructure, rng, tol: float):
    _, u_expr, v_expr, lhs = _discards_glued(structure, rng, "n_par")
    rhs = structure.discard(Par(u_expr, v_expr))
    return channel_deviation(lhs, rhs), {"u": u_expr.label, "v": v_expr.label}


def _env_decides(structure: EnvStructure, rng, tol: float):
    # the discard equation holds iff the representatives are equivalent
    m = _dense(structure.model)
    k1 = random_channel(m, rng)
    if rng.random() < 0.5:
        k2 = equivalent_variant(rng, k1)
        expected = True
    else:
        k2 = random_channel(m, rng, k1.dom, k1.cod)
        expected = equiv_decide(k1, k2, tol)
    sides_equal = equiv_decide(env_factor(structure, k1),
                               env_factor(structure, k2), tol)
    return 0.0 if sides_equal == expected else 1.0, {"expected": expected}


def _env_purifies(structure: EnvStructure, rng, tol: float):
    # purification: every channel factors as a pure map then discard
    m = _dense(structure.model)
    k = random_channel(m, rng)
    rebuilt = env_factor(structure, purify(to_choi(k), m.name))
    return channel_deviation(rebuilt, k), None


# each environment axiom: its anchor, and one randomised instance as a
# trial ``(structure, rng, tol) -> (deviation, info)``
ENV_AXIOMS = {
    "Env.1a": ("discard of a tensor = glued tensor of discards", _env_tensor),
    "Env.1b": ("discard of a par = glued par of discards", _env_par),
    "Env.2": ("the discard equation decides equivalence", _env_decides),
    "Env.3": ("every channel purifies through the discard", _env_purifies),
}


def env_check(structure: EnvStructure, trials: int = 20,
              seed: Optional[int] = None, rng=None, tol: float = 1e-9):
    """Randomised verification of all environment axioms.

    Returns one LawCheckReport per axiom; zero trials pass vacuously.
    """
    if rng is None:
        rng = np.random.default_rng(seed if seed is not None else 0)
    return [run_trials(axiom, structure.model,
                       partial(trial, structure, tol=tol),
                       trials, rng, tol, seed)
            for axiom, (_, trial) in ENV_AXIOMS.items()]


def initiality_probe(src: EnvStructure, tgt: EnvStructure, samples: int = 50,
                     seed: Optional[int] = None, rng=None,
                     tol: float = 1e-7) -> dict:
    """Spot-check the comparison functor between two environment
    presentations on sampled channels.  This samples equations; it proves
    nothing.
    """
    if rng is None:
        rng = np.random.default_rng(seed if seed is not None else 0)
    m = get_model(src.model)

    def transport(k: KrausMorphism) -> KrausMorphism:
        return env_factor(tgt, purify(to_choi(k), tgt.model))

    checks = {"well_defined": 0, "functorial": 0, "identity": 0,
              "discard": 0}
    failures = []
    for i in range(max(0, samples)):
        k1 = random_channel(m, rng)
        k1_alt = equivalent_variant(rng, k1)
        k2 = random_channel(m, rng, k1.cod)
        (a,) = m.random_chain(rng, 0)
        (u,) = m.random_chain(rng, 0, unitary=True)
        sides = {
            "well_defined": (transport(k1), transport(k1_alt)),
            "functorial": (transport(kraus_compose(k1, k2)),
                           kraus_compose(transport(k1), transport(k2))),
            "identity": (transport(kraus_identity(m, a)),
                         kraus_identity(m, a)),
            "discard": (transport(src.discard(u)), tgt.discard(u)),
        }
        for check, (lhs, rhs) in sides.items():
            if equiv_decide(lhs, rhs, tol):
                checks[check] += 1
            else:
                failures.append({"check": check, "sample": i})

    return {"samples": samples, "checks": checks,
            "consistent": not failures, "failures": failures[:5],
            "seed": seed, "tol": tol}
