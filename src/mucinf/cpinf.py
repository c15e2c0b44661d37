"""Channels over a mixed-unitary model.

A channel representative is a morphism ``f : A -> U + B``, whose ancilla,
the factor ``U``, is drawn from the unitary subcategory.  Representatives are
identified when no test map can distinguish them.  Each model decides that
relation through its own canonical form (``Model.canonical``): a factor of
the Choi matrix in the dense model and in the finite fragment of ``fmat``,
a closed form in the discrete model.  A sampling oracle witnesses the test-map
definition directly: it composes both sides of the defining equation
literally from structural maps.  Each side is one closure
(``_testmap_side``) that builds each piece of its wiring once, at the
granularity it depends on (the call, the dimension ``c`` or the dimension
``x``), and applies it through ``then_tensor`` and ``then_par``, which a
model may realise without forming the product.

The channel category built here inherits its two tensors, its mix structure
and (over the dense model) its dagger from the base model.  The channel
tensors ``kraus_tensor`` and ``kraus_par`` apply their ancilla rewiring to
the body one step at a time, through ``then_tensor``/``then_par`` as well,
so the ``N x N`` rewiring map on ``N = u1*b*u2*d`` is never formed.  The
environment operations at the bottom of the file realise discarding (the
body is the model's ``discard``), purification, and a probe of the
comparison functor from the canonical environment presentation to the
model's own.  The environment axioms Env.1a-Env.3 are rows of the entry
table (``suite``).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, reduce
from typing import List, Optional

import numpy as np

from . import matc
from .errors import (DomCodMismatch, MucinfError, NotPSD, TypingError,
                     UnsupportedInModel)
from .laws import LawCheckReport, positive_count, run_trials
from .matc import ChoiMatrix
from .morphisms import (TOL, Model, Morphism, dagger, fold_deviation,
                        get_model, identity, par, positive_tolerance, tensor,
                        then_par, then_tensor, within)
from .objects import Base, Dagger, Dual, ObjectExpr, Par, Tensor
from .structural import structural

RANK_CUTOFF = 1e-10  # purify keeps eigenvalues above this share of the peak
MIN_GAP = 1e-3  # the least deviation between distinct_pair's channels
PAIR_DRAWS = 100  # distinct_pair's draws of a second channel before it fails


@dataclass(frozen=True)
class KrausMorphism:
    """A channel representative: its body ``dom -> Par(ancilla, cod)``, off
    which the model, ends and ancilla are read, and which building checks."""

    body: Morphism

    def __post_init__(self):
        if not isinstance(self.body.cod, Par):
            raise TypingError(f"body codomain must be Par(ancilla, cod), "
                              f"got {self.body.cod!r}")
        get_model(self.body.model).check_payload(self.body)

    model = property(lambda self: self.body.model)
    dom = property(lambda self: self.body.dom)
    cod = property(lambda self: self.body.cod.right)
    ancilla = property(lambda self: self.body.cod.left)


def _model_of(k: KrausMorphism) -> Model:
    return get_model(k.model)


def kraus_new(f: Morphism, ancilla: ObjectExpr) -> KrausMorphism:
    """Wrap a morphism ``A -> Par(U, B)`` as a channel representative;
    ``ancilla`` must be ``U``."""
    k = KrausMorphism(f)
    if k.ancilla != ancilla:
        raise TypingError(f"body {f.cod!r} does not carry ancilla {ancilla!r}")
    return k


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


def _rewire_tensor(m: Model, x: Morphism, u1, b, u2, d) -> Morphism:
    # x ; (Tensor(Par(u1,b), Par(u2,d)) -> Par(Par(u1,u2), Tensor(b,d))),
    # one step at a time: only the inner c_tensor * 1_d is formed
    x = then_tensor(x, structural(m, "mx_inv", [u1, b]),
                    structural(m, "mx_inv", [u2, d]))
    x = x >> structural(m, "a_tensor_inv", [u1, b, Tensor(u2, d)])
    x = then_tensor(x, identity(m, u1), structural(m, "a_tensor", [b, u2, d]))
    x = then_tensor(x, identity(m, u1),
                    tensor(structural(m, "c_tensor", [b, u2]), identity(m, d)))
    x = then_tensor(x, identity(m, u1),
                    structural(m, "a_tensor_inv", [u2, b, d]))
    x = (x >> structural(m, "a_tensor", [u1, u2, Tensor(b, d)])
         >> structural(m, "mx", [Tensor(u1, u2), Tensor(b, d)]))
    return then_par(x, structural(m, "mx", [u1, u2]),
                    identity(m, Tensor(b, d)))


def _rewire_par(m: Model, x: Morphism, u1, b, u2, d) -> Morphism:
    # x ; (Par(Par(u1,b), Par(u2,d)) -> Par(Par(u1,u2), Par(b,d))), likewise
    x = x >> structural(m, "a_par_inv", [u1, b, Par(u2, d)])
    x = then_par(x, identity(m, u1), structural(m, "a_par", [b, u2, d]))
    x = then_par(x, identity(m, u1),
                 par(structural(m, "c_par", [b, u2]), identity(m, d)))
    x = then_par(x, identity(m, u1), structural(m, "a_par_inv", [u2, b, d]))
    return x >> structural(m, "a_par", [u1, u2, Par(b, d)])


def kraus_tensor(k1: KrausMorphism, k2: KrausMorphism) -> KrausMorphism:
    """Tensor of channels; the middle swap pulls both ancillas leftmost."""
    body = _rewire_tensor(_model_of(k1), tensor(k1.body, k2.body),
                          k1.ancilla, k1.cod, k2.ancilla, k2.cod)
    return kraus_new(body, Par(k1.ancilla, k2.ancilla))


def kraus_par(k1: KrausMorphism, k2: KrausMorphism) -> KrausMorphism:
    """Par of channels; in the dense model it coincides with the tensor."""
    body = _rewire_par(_model_of(k1), par(k1.body, k2.body),
                       k1.ancilla, k1.cod, k2.ancilla, k2.cod)
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
                   tol: float = TOL) -> np.ndarray:
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
    m = _dense(k.model)
    return matc.choi(k.body.payload, m.interpret(k.ancilla),
                     m.interpret(k.cod))


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
                 tol: float = TOL) -> bool:
    """Decide channel equivalence via the canonical form."""
    positive_tolerance(tol)
    c1, c2 = _canonical_pair(k1, k2)
    return c1.equiv(c2, tol)


# ---------------------------------------------------------------------------
# the sampling oracle for the test-map definition of equivalence


def _testmap_side(k: KrausMorphism):
    """One side of the defining equation for ``k``, as ``glue(c, x, h)``:
    the test map ``h : B * C -> X`` (``C``, ``X`` of dimensions ``c``,
    ``x``) and its dagger glued into the literal composite

        (f * 1) ; dr ; (1 + h) ; mx^-1 ; (phi * phi) ; (rho * rho)
        ; (1 * (h^ ; lam_par^-1)) ; dl ; (lam_tensor + 1) ; (f^ + 1)
        ; lam_par

    The ancilla identities, the laxor and ``f^`` are built here; the pieces
    that depend on ``c`` alone (the prefix ``(f * 1) ; dr`` among them) or
    on ``x`` alone are built on first use and kept as long as ``glue``.
    """
    m = _model_of(k)
    u, a, b, f = k.ancilla, k.dom, k.cod, k.body
    id_u, id_du = identity(m, u), identity(m, Dagger(u))
    lam_tensor, f_dag = structural(m, "lam_tensor", [u, b]), dagger(f)

    def s(name, *args):
        return structural(m, name, list(args))

    @cache
    def by_c(c):
        c = Base(c)
        prefix = then_tensor(identity(m, Tensor(a, c)), f, identity(m, c))
        return (prefix >> s("dr", u, b, c), s("lam_par_inv", b, c),
                s("dl", Dagger(u), Dagger(b), Dagger(c)),
                identity(m, Dagger(c)), s("lam_par", a, c))

    @cache
    def by_x(x):
        x = Base(x)
        return then_tensor(then_tensor(s("mx_inv", u, x), s("phi", u),
                                       s("phi", x)), s("rho", u), s("rho", x))

    def glue(c: int, x: int, h: Morphism) -> Morphism:
        (prefix, lam_par_inv, dl, id_dc, lam_par), mid = by_c(c), by_x(x)
        h = Morphism(k.model, Tensor(b, Base(c)), Base(x), h.payload)
        side = then_par(prefix, id_u, h) >> mid
        side = then_tensor(side, id_du, dagger(h) >> lam_par_inv)
        side = then_par(side >> dl, lam_tensor, id_dc)
        return then_par(side, f_dag, id_dc) >> lam_par

    return glue


def _positive_dims(name: str, dims) -> tuple:
    """``dims`` as a tuple of ints, refused unless it is a non-empty
    sequence of positive ints (a bool is no dimension)."""
    try:
        out = tuple(positive_count(name, d) for d in dims)
    except (TypeError, ValueError):
        out = ()
    if not out:
        raise ValueError(f"{name} must be a non-empty sequence of positive "
                         f"ints, got {dims!r}")
    return out


def equiv_testmap_oracle(k1: KrausMorphism, k2: KrausMorphism,
                         trials: int = 200, seed: Optional[int] = None,
                         rng=None, c_dims=(1, 2, 3), x_dims=(1, 2),
                         tol: float = TOL) -> dict:
    """Sample test maps and look for one separating the two representatives.

    Independent of the canonical-form decision: both sides of the defining
    equation are composed literally from structural maps, so a witness is a
    concrete test map whose two glued composites differ.  Each side is one
    ``_testmap_side`` closure, which builds its wiring once per call, once
    per drawn ``c`` (with the prefix ``(f * 1) ; dr``) and once per drawn
    ``x``; each trial glues only the test map and its dagger into it.
    Every product step goes through ``then_tensor``/``then_par``, so a
    model may apply it without forming the product.  No trial would vouch
    for any pair, so ``trials`` must be an int of at least 1, ``c_dims`` and
    ``x_dims`` (what ``c`` and ``x`` are drawn from) non-empty sequences of
    positive ints and ``tol`` positive and finite; both share one model.
    """
    positive_tolerance(tol)
    trials = positive_count("trials", trials)
    c_dims = _positive_dims("c_dims", c_dims)
    x_dims = _positive_dims("x_dims", x_dims)
    if k1.model != k2.model:
        raise DomCodMismatch(f"models differ: {k1.model} vs {k2.model}")
    m = _dense(k1.model)
    if (m.interpret(k1.dom) != m.interpret(k2.dom)
            or m.interpret(k1.cod) != m.interpret(k2.cod)):
        raise DomCodMismatch("representatives do not share dom/cod")
    if rng is None:
        rng = np.random.default_rng(seed if seed is not None else 0)
    # each side holds its prefix per drawn c for the whole call, at most
    # sum over c of u*b*c x a*c entries
    side1, side2 = _testmap_side(k1), _testmap_side(k2)
    for trial in range(trials):
        # reads the stream as rng.choice(dims) would
        c = c_dims[int(rng.integers(len(c_dims)))]
        x = x_dims[int(rng.integers(len(x_dims)))]
        h = m.random_morphism(rng, Tensor(k1.cod, Base(c)), Base(x))
        dev = m.deviation(side1(c, x, h), side2(c, x, h))
        if not within(dev, tol):
            return {"consistent": False, "trials": trials,
                    "witness": {"trial": trial, "c_dim": c, "x_dim": x,
                                "deviation": dev}}
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
                  cod: Optional[ObjectExpr] = None):
    """Two representatives of channels more than ``MIN_GAP`` apart; raises
    MucinfError when ``PAIR_DRAWS`` draws find no second one (as when every
    channel of the type is equivalent)."""
    k1 = random_channel(model, rng, dom, cod)
    for _ in range(PAIR_DRAWS):
        k2 = random_channel(model, rng, k1.dom, k1.cod)
        if channel_deviation(k1, k2) > MIN_GAP:
            return k1, k2
    raise MucinfError(f"found no two channels {k1.dom!r} -> {k1.cod!r} in "
                      f"{model.name} more than {MIN_GAP} apart in "
                      f"{PAIR_DRAWS} draws")


def random_density(rng, dim: int) -> np.ndarray:
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = z @ z.conj().T
    return rho / np.trace(rho).real


# ---------------------------------------------------------------------------
# canonical functors into the channel category


def functor_Q(f: Morphism) -> KrausMorphism:
    """Every base-model morphism as a pure channel (ancilla the par unit)."""
    m = get_model(f.model)
    body = then_par(f >> structural(m, "u_par_l_inv", [f.cod]),
                    structural(m, "n_bot_inv", []), identity(m, f.cod))
    return kraus_new(body, body.cod.left)


def functor_N(f: Morphism) -> KrausMorphism:
    """The unitary subcategory mapped through the inclusion, then Q."""
    return functor_Q(get_model(f.model).include(f))


# ---------------------------------------------------------------------------
# environment structure: discard, purification, initiality probe


def env_discard(model: Model | str, u_expr: ObjectExpr) -> KrausMorphism:
    """Discard a unitary object: the channel of the model's ``discard``
    body, whose ancilla is the whole input."""
    m = get_model(model) if isinstance(model, str) else model
    return kraus_new(m.discard(u_expr), u_expr)


def purify(choi: ChoiMatrix, model: str = "mat") -> KrausMorphism:
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
              for lam, vec in zip(w, v.T) if lam > RANK_CUTOFF * scale]
    if not blocks:
        blocks = [np.zeros((b, a), dtype=complex)]
    payload = matc._freeze(np.concatenate(blocks, axis=0))
    body = Morphism(m.name, Base(a), Par(Base(len(blocks)), Base(b)), payload)
    return kraus_new(body, Base(len(blocks)))


def env_factor(model: Model | str, k: KrausMorphism) -> KrausMorphism:
    """Push a representative through the environment structure: Q(body),
    then discard the ancilla, then strip the par unit."""
    dis = kraus_par(env_discard(model, k.ancilla),
                    kraus_identity(model, k.cod))
    unit = functor_Q(structural(model, "u_par_l", [k.cod]))
    return kraus_compose(kraus_compose(functor_Q(k.body), dis), unit)


def initiality_probe(model: Model | str, samples: int = 50,
                     seed: Optional[int] = None, rng=None,
                     tol: float = 1e-7) -> LawCheckReport:
    """Spot-check, through ``run_trials``, the comparison functor from the
    canonical environment presentation (the structural discard) to the
    model's ``discard``: each sample's deviation is the worst of four
    checks (well defined, functorial, preserves identities and discards),
    all four in the witness.  This proves nothing, and with no sample it
    would check nothing, so ``samples`` must be an int of at least 1."""
    samples = positive_count("samples", samples)
    if rng is None:
        rng = np.random.default_rng(seed if seed is not None else 0)
    m = _dense(model if isinstance(model, str) else model.name)

    def transport(k: KrausMorphism) -> KrausMorphism:
        return env_factor(m, purify(to_choi(k), m.name))

    def trial(rng):
        k1 = random_channel(m, rng)
        k1_alt = equivalent_variant(rng, k1)
        k2 = random_channel(m, rng, k1.cod)
        (a,) = m.random_chain(rng, 0)
        (u,) = m.random_chain(rng, 0, unitary=True)
        # the canonical presentation: the base class's structural discard
        canonical = kraus_new(Model.discard(m, u), u)
        checks = {
            "well_defined": channel_deviation(transport(k1),
                                              transport(k1_alt)),
            "functorial": channel_deviation(
                transport(kraus_compose(k1, k2)),
                kraus_compose(transport(k1), transport(k2))),
            "identity": channel_deviation(transport(kraus_identity(m, a)),
                                          kraus_identity(m, a)),
            "discard": channel_deviation(transport(canonical),
                                         env_discard(m, u)),
        }
        return reduce(fold_deviation, checks.values(), 0.0), checks

    return run_trials("ENV-INIT", m.name, trial, samples, rng, tol, seed)
