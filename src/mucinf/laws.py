"""The one table of everything the suite checks, and the runner over it.

``ENTRIES`` holds one row per check, keyed by id.  A ``"coherence"`` row is
a MUC law: an equation between two composites built solely out of named
structural morphisms and the generic morphism algebra, registered by
``_law`` from a builder.  A ``"property"`` row is a check of the channel
construction or of finiteness spaces, registered by ``_prop`` (the property
bodies live in ``suite``).  ``check_law`` runs any row in one model, trial
by trial, through ``run_trials``, the one fold and verdict (``within``).

Equation strings use diagram order (left factor first).  ``F`` is the
functor from the unitary subcategory, ``m⊗/n⊕/m⊤/n⊥`` its strengths and
``ρ`` its preservator.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from .errors import (ArityError, MucinfError, UnknownLaw,
                     UnsupportedInModel)
from .morphisms import (TOL, Model, Morphism, dagger, deviation,
                        fold_deviation, get_model, identity, par,
                        positive_tolerance, tensor, within)
from .objects import BOT, TOP, Dagger, Dual, ObjectExpr, Par, Tensor
from .structural import structural


@dataclass
class LawCheckReport:
    law: str
    model: str
    trials: int
    max_abs_deviation: float
    passed: bool
    witness: Optional[dict] = None
    seed: Optional[int] = None
    tol: float = TOL

    def to_json(self) -> dict:
        return {
            "law": self.law,
            "model": self.model,
            "trials": self.trials,
            "max_abs_deviation": self.max_abs_deviation,
            "pass": self.passed,
            "witness": self.witness,
            "seed": self.seed,
            "tol": self.tol,
        }


class LawContext:
    """Everything a law builder may consume for one trial."""

    def __init__(self, model: Model, objects: List[ObjectExpr], rng):
        self.model = model
        self.objects = objects
        self.rng = rng

    # shorthands used by every builder
    def S(self, name: str, *args: ObjectExpr) -> Morphism:
        return structural(self.model, name, list(args))

    def I(self, expr: ObjectExpr) -> Morphism:
        return identity(self.model, expr)

    def arrow(self, unitary: bool = False):
        """A random component f: A -> B (identity in discrete models)."""
        a = self.model.random_object(self.rng, unitary=unitary)
        try:
            b = self.model.random_object(self.rng, unitary=unitary)
            f = self.model.random_morphism(self.rng, a, b)
        except UnsupportedInModel:
            b = a
            f = self.model.random_morphism(self.rng, a, a)
        return a, b, f

    # the unitary subcategory, presented by the donor model
    def donor_arrow(self):
        donor = self.model.unitary_donor
        a, b = donor.random_chain(self.rng, 1, unitary=True)
        return a, b, donor.random_morphism(self.rng, a, b)

    def donor_structural(self, name: str, *args: ObjectExpr) -> Morphism:
        return structural(self.model.unitary_donor, name, list(args))

    def inc(self, f: Morphism) -> Morphism:
        return self.model.include(f)

    def inc_expr(self, expr: ObjectExpr) -> ObjectExpr:
        return self.model.include_expr(expr)


Builder = Callable[[LawContext], List[Tuple[Morphism, Morphism]]]
# (model, rng, tol) -> (deviation, info); a row with a sampler also takes
# the inputs it drew
TrialFn = Callable[..., Tuple[float, Optional[dict]]]
# (model, rng) -> the inputs of one trial
Sampler = Callable[[Model, object], tuple]


@dataclass(frozen=True)
class Entry:
    """One row of the table: a coherence law or a property.  ``sample``
    draws the inputs the trial is a function of, if it has any."""

    entry_id: str
    anchor: str
    models: Tuple[str, ...]
    kind: str
    trial: TrialFn
    arity: int = 0
    note: Optional[str] = None
    sample: Optional[Sampler] = None


ENTRIES: Dict[str, Entry] = {}


def drawn_objects(count: int, unitary: bool = False) -> Sampler:
    """``count`` objects of the model, drawn one after another."""
    return lambda m, rng: tuple(m.random_object(rng, unitary=unitary)
                                for _ in range(count))


def _donor_bases(count: int) -> Sampler:
    """``count`` objects of the unitary subcategory, one chain each."""
    return lambda m, rng: tuple(
        m.unitary_donor.random_chain(rng, 0, unitary=True)[0]
        for _ in range(count))


def _law(law_id, anchor, arity, models=("mat", "cplane"),
         needs_unitary=False, note=None, sample=None):
    def deco(build: Builder):
        def trial(m: Model, rng, tol: float, objects):
            dev = 0.0
            for lhs, rhs in build(LawContext(m, list(objects), rng)):
                if lhs.dom != rhs.dom or lhs.cod != rhs.cod:
                    raise MucinfError(
                        f"sides of {law_id} are not parallel: "
                        f"{lhs.dom}->{lhs.cod} vs {rhs.dom}->{rhs.cod}")
                dev = fold_deviation(dev, deviation(lhs, rhs))
            # a nullary law's donor bases are not objects of the law, but a
            # replay needs them
            info = {"objects": [repr(o) for o in objects[:arity]],
                    "deviation": dev}
            if objects[arity:]:
                info["donors"] = [repr(o) for o in objects[arity:]]
            return dev, info
        ENTRIES[law_id] = Entry(
            law_id, anchor, tuple(models), "coherence", trial, arity, note,
            sample or drawn_objects(arity, needs_unitary))
        return build
    return deco


def _prop(entry_id: str, anchor: str, models=("mat",), sample=None):
    def deco(trial: TrialFn):
        ENTRIES[entry_id] = Entry(entry_id, anchor, tuple(models),
                                  "property", trial, sample=sample)
        return trial
    return deco


def catalog() -> Dict[str, Entry]:
    return dict(ENTRIES)


# ---------------------------------------------------------------------------
# laxor interaction laws


@_law("DLDC1a", "a⊗ (λ⊗ ⊗ 1) λ⊗ = (1 ⊗ λ⊗) λ⊗ (a⊕⁻¹)†", 3)
def _(ctx):
    a, b, c = ctx.objects
    lhs = (ctx.S("a_tensor", Dagger(a), Dagger(b), Dagger(c))
           >> tensor(ctx.S("lam_tensor", a, b), ctx.I(Dagger(c)))
           >> ctx.S("lam_tensor", Par(a, b), c))
    rhs = (tensor(ctx.I(Dagger(a)), ctx.S("lam_tensor", b, c))
           >> ctx.S("lam_tensor", a, Par(b, c))
           >> dagger(ctx.S("a_par_inv", a, b, c)))
    return [(lhs, rhs)]


@_law("DLDC1b", "a⊕ (λ⊕ ⊕ 1) λ⊕ = (1 ⊕ λ⊕) λ⊕ (a⊗⁻¹)†", 3)
def _(ctx):
    a, b, c = ctx.objects
    lhs = (ctx.S("a_par", Dagger(a), Dagger(b), Dagger(c))
           >> par(ctx.S("lam_par", a, b), ctx.I(Dagger(c)))
           >> ctx.S("lam_par", Tensor(a, b), c))
    rhs = (par(ctx.I(Dagger(a)), ctx.S("lam_par", b, c))
           >> ctx.S("lam_par", a, Tensor(b, c))
           >> dagger(ctx.S("a_tensor_inv", a, b, c)))
    return [(lhs, rhs)]


@_law("DLDC2a", "(λ⊤ ⊗ 1) λ⊗ = u⊗L (u⊕L)†", 1)
def _(ctx):
    (a,) = ctx.objects
    lhs = tensor(ctx.S("lam_top"), ctx.I(Dagger(a))) >> ctx.S("lam_tensor", BOT, a)
    rhs = ctx.S("u_tensor_l", Dagger(a)) >> dagger(ctx.S("u_par_l", a))
    return [(lhs, rhs)]


@_law("DLDC2b", "(λ⊥ ⊕ 1) λ⊕ = u⊕L (u⊗L)†", 1)
def _(ctx):
    (a,) = ctx.objects
    lhs = par(ctx.S("lam_bot"), ctx.I(Dagger(a))) >> ctx.S("lam_par", TOP, a)
    rhs = ctx.S("u_par_l", Dagger(a)) >> dagger(ctx.S("u_tensor_l", a))
    return [(lhs, rhs)]


@_law("DLDC2c", "(1 ⊗ λ⊤) λ⊗ = u⊗R (u⊕R)†", 1)
def _(ctx):
    (a,) = ctx.objects
    lhs = tensor(ctx.I(Dagger(a)), ctx.S("lam_top")) >> ctx.S("lam_tensor", a, BOT)
    rhs = ctx.S("u_tensor_r", Dagger(a)) >> dagger(ctx.S("u_par_r", a))
    return [(lhs, rhs)]


@_law("DLDC2d", "(1 ⊕ λ⊥) λ⊕ = u⊕R (u⊗R)†", 1)
def _(ctx):
    (a,) = ctx.objects
    lhs = par(ctx.I(Dagger(a)), ctx.S("lam_bot")) >> ctx.S("lam_par", a, TOP)
    rhs = ctx.S("u_par_r", Dagger(a)) >> dagger(ctx.S("u_tensor_r", a))
    return [(lhs, rhs)]


@_law("DLDC3a", "δL (λ⊗ ⊕ 1) λ⊕ = (1 ⊗ λ⊕) λ⊗ δR†", 3)
def _(ctx):
    a, b, c = ctx.objects
    lhs = (ctx.S("dl", Dagger(a), Dagger(b), Dagger(c))
           >> par(ctx.S("lam_tensor", a, b), ctx.I(Dagger(c)))
           >> ctx.S("lam_par", Par(a, b), c))
    rhs = (tensor(ctx.I(Dagger(a)), ctx.S("lam_par", b, c))
           >> ctx.S("lam_tensor", a, Tensor(b, c))
           >> dagger(ctx.S("dr", a, b, c)))
    return [(lhs, rhs)]


@_law("DLDC3b", "δR (1 ⊕ λ⊗) λ⊕ = (λ⊕ ⊗ 1) λ⊗ δL†", 3)
def _(ctx):
    a, b, c = ctx.objects
    lhs = (ctx.S("dr", Dagger(a), Dagger(b), Dagger(c))
           >> par(ctx.I(Dagger(a)), ctx.S("lam_tensor", b, c))
           >> ctx.S("lam_par", a, Par(b, c)))
    rhs = (tensor(ctx.S("lam_par", a, b), ctx.I(Dagger(c)))
           >> ctx.S("lam_tensor", Tensor(a, b), c)
           >> dagger(ctx.S("dl", a, b, c)))
    return [(lhs, rhs)]


@_law("DLDC4a", "ι λ⊗† = (ι ⊕ ι) λ⊕", 2)
def _(ctx):
    a, b = ctx.objects
    lhs = ctx.S("iota", Par(a, b)) >> dagger(ctx.S("lam_tensor", a, b))
    rhs = par(ctx.S("iota", a), ctx.S("iota", b)) >> ctx.S("lam_par", Dagger(a), Dagger(b))
    return [(lhs, rhs)]


@_law("DLDC4b", "ι λ⊕† = (ι ⊗ ι) λ⊗", 2)
def _(ctx):
    a, b = ctx.objects
    lhs = ctx.S("iota", Tensor(a, b)) >> dagger(ctx.S("lam_par", a, b))
    rhs = tensor(ctx.S("iota", a), ctx.S("iota", b)) >> ctx.S("lam_tensor", Dagger(a), Dagger(b))
    return [(lhs, rhs)]


@_law("DLDC5a", "ι_⊥ λ⊤† = λ⊥", 0)
def _(ctx):
    lhs = ctx.S("iota", BOT) >> dagger(ctx.S("lam_top"))
    return [(lhs, ctx.S("lam_bot"))]


@_law("DLDC5b", "ι_⊤ λ⊥† = λ⊤", 0)
def _(ctx):
    lhs = ctx.S("iota", TOP) >> dagger(ctx.S("lam_bot"))
    return [(lhs, ctx.S("lam_top"))]


@_law("DLDC6", "ι_{A†} = (ι_A⁻¹)†", 1)
def _(ctx):
    (a,) = ctx.objects
    return [(ctx.S("iota", Dagger(a)), dagger(ctx.S("iota_inv", a)))]


@_law("DLDC7a", "λ⊗ c⊕† = c⊗ λ⊗", 2)
def _(ctx):
    a, b = ctx.objects
    lhs = ctx.S("lam_tensor", a, b) >> dagger(ctx.S("c_par", b, a))
    rhs = ctx.S("c_tensor", Dagger(a), Dagger(b)) >> ctx.S("lam_tensor", b, a)
    return [(lhs, rhs)]


@_law("DLDC7b", "λ⊕ c⊗† = c⊕ λ⊕", 2)
def _(ctx):
    a, b = ctx.objects
    lhs = ctx.S("lam_par", a, b) >> dagger(ctx.S("c_tensor", b, a))
    rhs = ctx.S("c_par", Dagger(a), Dagger(b)) >> ctx.S("lam_par", b, a)
    return [(lhs, rhs)]


# ---------------------------------------------------------------------------
# mix, mixor, snakes


@_law("DMIX", "m λ⊤ = λ⊥ m†", 0)
def _(ctx):
    lhs = ctx.S("m") >> ctx.S("lam_top")
    rhs = ctx.S("lam_bot") >> dagger(ctx.S("m"))
    return [(lhs, rhs)]


@_law("MXDAG", "mx λ⊕ = λ⊗ mx†", 2)
def _(ctx):
    a, b = ctx.objects
    lhs = ctx.S("mx", Dagger(a), Dagger(b)) >> ctx.S("lam_par", a, b)
    rhs = ctx.S("lam_tensor", a, b) >> dagger(ctx.S("mx", a, b))
    return [(lhs, rhs)]


@_law("MXDEF",
      "(1 ⊗ (u⊕L)⁻¹)(1 ⊗ (m ⊕ 1)) δL (u⊗R ⊕ 1) = "
      "((u⊕R)⁻¹ ⊗ 1)((1 ⊕ m) ⊗ 1) δR (1 ⊕ u⊗L)", 2)
def _(ctx):
    a, b = ctx.objects
    left = (tensor(ctx.I(a), ctx.S("u_par_l_inv", b))
            >> tensor(ctx.I(a), par(ctx.S("m"), ctx.I(b)))
            >> ctx.S("dl", a, TOP, b)
            >> par(ctx.S("u_tensor_r", a), ctx.I(b)))
    right = (tensor(ctx.S("u_par_r_inv", a), ctx.I(b))
             >> tensor(par(ctx.I(a), ctx.S("m")), ctx.I(b))
             >> ctx.S("dr", a, TOP, b)
             >> par(ctx.I(a), ctx.S("u_tensor_l", b)))
    # both displayed composites must agree, and both must be the mixor
    return [(left, right), (left, ctx.S("mx", a, b))]


@_law("SNAKE-L", "(u⊗L)⁻¹ (η ⊗ 1) δR (1 ⊕ ε) u⊕R = 1", 1, needs_unitary=True)
def _(ctx):
    (a,) = ctx.objects
    rhs = (ctx.S("u_tensor_l_inv", a)
           >> tensor(ctx.S("eta", a), ctx.I(a))
           >> ctx.S("dr", a, Dual(a), a)
           >> par(ctx.I(a), ctx.S("eps", a))
           >> ctx.S("u_par_r", a))
    return [(ctx.I(a), rhs)]


@_law("SNAKE-R", "(u⊗R)⁻¹ (1 ⊗ η) δL (ε ⊕ 1) u⊕L = 1", 1, needs_unitary=True)
def _(ctx):
    (a,) = ctx.objects
    rhs = (ctx.S("u_tensor_r_inv", Dual(a))
           >> tensor(ctx.I(Dual(a)), ctx.S("eta", a))
           >> ctx.S("dl", Dual(a), a, Dual(a))
           >> par(ctx.S("eps", a), ctx.I(Dual(a)))
           >> ctx.S("u_par_l", Dual(a)))
    return [(ctx.I(Dual(a)), rhs)]


# ---------------------------------------------------------------------------
# unitary structure


@_law("U2", "φ_{A†} = ((φ_A)⁻¹)†", 1, needs_unitary=True)
def _(ctx):
    (a,) = ctx.objects
    return [(ctx.S("phi", Dagger(a)), dagger(ctx.S("phi_inv", a)))]


@_law("U3", "φ_A φ_{A†} = ι", 1, needs_unitary=True)
def _(ctx):
    (a,) = ctx.objects
    lhs = ctx.S("phi", a) >> ctx.S("phi", Dagger(a))
    return [(lhs, ctx.S("iota", a))]


@_law("U4a", "λ⊥ (φ⊤)⁻¹ = m", 0, needs_unitary=True)
def _(ctx):
    lhs = ctx.S("lam_bot") >> ctx.S("phi_inv", TOP)
    return [(lhs, ctx.S("m"))]


@_law("U4b", "φ⊥ λ⊤⁻¹ = m", 0, needs_unitary=True)
def _(ctx):
    lhs = ctx.S("phi", BOT) >> ctx.S("lam_top_inv")
    return [(lhs, ctx.S("m"))]


@_law("U5a", "(φ_A ⊗ φ_B) λ⊗ = mx φ_{A⊕B}", 2, needs_unitary=True)
def _(ctx):
    a, b = ctx.objects
    lhs = tensor(ctx.S("phi", a), ctx.S("phi", b)) >> ctx.S("lam_tensor", a, b)
    rhs = ctx.S("mx", a, b) >> ctx.S("phi", Par(a, b))
    return [(lhs, rhs)]


@_law("U5b", "φ_{A⊗B} λ⊕⁻¹ (φ_A⁻¹ ⊕ φ_B⁻¹) = mx", 2, needs_unitary=True,
      note="undisplayed (b)-form; a failure flags the reading, not the build")
def _(ctx):
    a, b = ctx.objects
    lhs = (ctx.S("phi", Tensor(a, b))
           >> ctx.S("lam_par_inv", a, b)
           >> par(ctx.S("phi_inv", a), ctx.S("phi_inv", b)))
    return [(lhs, ctx.S("mx", a, b))]


@_law("UDUALa", "λ⊤ ε† λ⊕⁻¹ = η (φ ⊕ φ) c⊕", 1, needs_unitary=True)
def _(ctx):
    (a,) = ctx.objects
    lhs = (ctx.S("lam_top")
           >> dagger(ctx.S("eps", a))
           >> ctx.S("lam_par_inv", Dual(a), a))
    rhs = (ctx.S("eta", a)
           >> par(ctx.S("phi", a), ctx.S("phi", Dual(a)))
           >> ctx.S("c_par", Dagger(a), Dagger(Dual(a))))
    return [(lhs, rhs)]


@_law("UDUALb", "c⊗ ε λ⊥ = (φ ⊗ φ) λ⊗ η†", 1, needs_unitary=True,
      note="undisplayed (b)-form; a failure flags the reading, not the build")
def _(ctx):
    (a,) = ctx.objects
    lhs = ctx.S("c_tensor", a, Dual(a)) >> ctx.S("eps", a) >> ctx.S("lam_bot")
    rhs = (tensor(ctx.S("phi", a), ctx.S("phi", Dual(a)))
           >> ctx.S("lam_tensor", a, Dual(a))
           >> dagger(ctx.S("eta", a)))
    return [(lhs, rhs)]


# ---------------------------------------------------------------------------
# the functor from the unitary subcategory


@_law("MIXPRES", "mx = m⊗ F(mx) n⊕", 0, models=("mat", "cplane", "fmat"),
      sample=_donor_bases(2))
def _(ctx):
    a, b = ctx.objects
    fa, fb = ctx.inc_expr(a), ctx.inc_expr(b)
    lhs = ctx.S("mx", fa, fb)
    rhs = (ctx.S("m_tensor", fa, fb)
           >> ctx.inc(ctx.donor_structural("mx", a, b))
           >> ctx.S("n_par", fa, fb))
    return [(lhs, rhs)]


@_law("FF1", "F(f ⊗ g) = F(f) ⊗ F(g) and F(f ⊕ g) = F(f) ⊕ F(g)", 0,
      models=("mat", "cplane", "fmat"))
def _(ctx):
    _, _, f = ctx.donor_arrow()
    _, _, g = ctx.donor_arrow()
    return [
        (ctx.inc(tensor(f, g)), tensor(ctx.inc(f), ctx.inc(g))),
        (ctx.inc(par(f, g)), par(ctx.inc(f), ctx.inc(g))),
    ]


@_law("FF2", "(F(f) ⊗ F(g)) m⊗ = m⊗ F(f ⊗ g)", 0,
      models=("mat", "cplane", "fmat"))
def _(ctx):
    a, a2, f = ctx.donor_arrow()
    b, b2, g = ctx.donor_arrow()
    lhs = (tensor(ctx.inc(f), ctx.inc(g))
           >> ctx.S("m_tensor", ctx.inc_expr(a2), ctx.inc_expr(b2)))
    rhs = (ctx.S("m_tensor", ctx.inc_expr(a), ctx.inc_expr(b))
           >> ctx.inc(tensor(f, g)))
    return [(lhs, rhs)]


@_law("FF3", "F(f ⊕ g) n⊕ = n⊕ (F(f) ⊕ F(g))", 0,
      models=("mat", "cplane", "fmat"))
def _(ctx):
    a, a2, f = ctx.donor_arrow()
    b, b2, g = ctx.donor_arrow()
    lhs = (ctx.inc(par(f, g))
           >> ctx.S("n_par", ctx.inc_expr(a2), ctx.inc_expr(b2)))
    rhs = (ctx.S("n_par", ctx.inc_expr(a), ctx.inc_expr(b))
           >> par(ctx.inc(f), ctx.inc(g)))
    return [(lhs, rhs)]


@_law("FF-MIX", "F(m) = n⊥ m m⊤", 0, models=("mat", "cplane", "fmat"))
def _(ctx):
    lhs = ctx.inc(ctx.donor_structural("m"))
    rhs = ctx.S("n_bot") >> ctx.S("m") >> ctx.S("m_top")
    return [(lhs, rhs)]


@_law("FF-ISOMIX", "m⁻¹ = m⊤ F(m⁻¹) n⊥", 0, models=("mat", "cplane", "fmat"))
def _(ctx):
    lhs = ctx.S("m_inv")
    rhs = (ctx.S("m_top") >> ctx.inc(ctx.donor_structural("m_inv"))
           >> ctx.S("n_bot"))
    return [(lhs, rhs)]


@_law("PRES", "F(ι) ρ = ι ρ†", 0, models=("mat", "cplane", "fmat"),
      sample=_donor_bases(1))
def _(ctx):
    (a,) = ctx.objects
    fa = ctx.inc_expr(a)
    lhs = ctx.inc(ctx.donor_structural("iota", a)) >> ctx.S("rho", Dagger(fa))
    rhs = ctx.S("iota", fa) >> dagger(ctx.S("rho", fa))
    return [(lhs, rhs)]


# ---------------------------------------------------------------------------
# naturality and sliding


@_law("MXSLIDE-NAT", "(f ⊕ g) mx⁻¹ = mx⁻¹ (f ⊗ g)", 0, needs_unitary=True)
def _(ctx):
    a, a2, f = ctx.arrow(unitary=True)
    b, b2, g = ctx.arrow(unitary=True)
    lhs = par(f, g) >> ctx.S("mx_inv", a2, b2)
    rhs = ctx.S("mx_inv", a, b) >> tensor(f, g)
    return [(lhs, rhs)]


@_law("MXSLIDE-MX", "mx⁻¹ (1 ⊗ mx⁻¹) = a⊕ mx⁻¹ (mx⁻¹ ⊗ 1) a⊗⁻¹", 3,
      needs_unitary=True)
def _(ctx):
    a, b, c = ctx.objects
    lhs = (ctx.S("mx_inv", a, Par(b, c))
           >> tensor(ctx.I(a), ctx.S("mx_inv", b, c)))
    rhs = (ctx.S("a_par", a, b, c)
           >> ctx.S("mx_inv", Par(a, b), c)
           >> tensor(ctx.S("mx_inv", a, b), ctx.I(c))
           >> ctx.S("a_tensor_inv", a, b, c))
    return [(lhs, rhs)]


@_law("IOTA-NAT", "ι f†† = f ι", 0)
def _(ctx):
    a, b, f = ctx.arrow()
    lhs = ctx.S("iota", a) >> dagger(dagger(f))
    rhs = f >> ctx.S("iota", b)
    return [(lhs, rhs)]


# ---------------------------------------------------------------------------
# preservator hexagons for unitary objects


@_law("RHO-TP-a", "m⊗ M(φ) ρ (m⊗)† = (M(φ) ⊗ M(φ)) (ρ ⊗ ρ) λ⊗ mx†", 2,
      needs_unitary=True)
def _(ctx):
    c, d = ctx.objects
    lhs = (ctx.S("m_tensor", c, d)
           >> ctx.S("phi", Tensor(c, d))
           >> ctx.S("rho", Tensor(c, d))
           >> dagger(ctx.S("m_tensor", c, d)))
    rhs = (tensor(ctx.S("phi", c), ctx.S("phi", d))
           >> tensor(ctx.S("rho", c), ctx.S("rho", d))
           >> ctx.S("lam_tensor", c, d)
           >> dagger(ctx.S("mx", c, d)))
    return [(lhs, rhs)]


@_law("RHO-TP-b", "n⊕⁻¹ M(φ) ρ = (M(φ) ⊕ M(φ)) (ρ ⊕ ρ) λ⊕ (mx⁻¹)† n⊕†", 2,
      needs_unitary=True)
def _(ctx):
    c, d = ctx.objects
    lhs = (ctx.S("n_par_inv", c, d)
           >> ctx.S("phi", Par(c, d))
           >> ctx.S("rho", Par(c, d)))
    rhs = (par(ctx.S("phi", c), ctx.S("phi", d))
           >> par(ctx.S("rho", c), ctx.S("rho", d))
           >> ctx.S("lam_par", c, d)
           >> dagger(ctx.S("mx_inv", c, d))
           >> dagger(ctx.S("n_par", c, d)))
    return [(lhs, rhs)]


# ---------------------------------------------------------------------------
# running a law


def _once_per_input(trial, sample):
    """``trial(rng, inputs)`` after ``sample(rng) -> inputs``, run once for
    each distinct inputs: a repeat gets the first run's (deviation, info).

    A result is kept only when the trial drew nothing from ``rng`` beyond
    its inputs.  It is then a function of them, and a repeat would give the
    same result bit for bit; a trial that draws (a random arrow, a random
    channel) runs every time.  Inputs are told apart by their reprs, so 1,
    1.0 and -0.0 stay apart.
    """
    seen = {}

    def run(rng):
        inputs = sample(rng)
        key = tuple(map(repr, inputs))
        if key in seen:
            return seen[key]
        state = rng.bit_generator.state
        result = trial(rng, inputs)
        if rng.bit_generator.state == state:
            seen[key] = result
        return result
    return run


def positive_count(name: str, value) -> int:
    """``value`` as an int, refused with a ValueError naming ``name`` unless
    it is an int of at least 1 (a bool is no count; zero checks nothing)."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an int, got {value!r}")
    if value < 1:
        raise ValueError(f"{name} must be >= 1, got {value}")
    return int(value)


def run_trials(law_id: str, model_name: str, trial, trials: int, rng,
               tol: float, seed: Optional[int] = None,
               sample=None) -> LawCheckReport:
    """Run ``trial(rng) -> (deviation, info)`` ``trials`` times and report
    the worst deviation.

    With ``sample``, the trial is ``trial(rng, inputs)`` behind
    ``_once_per_input``; a repeat cannot raise the worst deviation, so the
    report is the one running every trial gives.  A trial that raises is a
    failed one, and the run goes on.  The witness is the info of the first
    trial that reached the worst deviation above ``tol``, with that trial's
    index.  ``trials`` must be an int of at least 1 (``positive_count``)
    and ``tol`` positive and finite (``positive_tolerance``).
    """
    trials = positive_count("trials", trials)
    positive_tolerance(tol)
    if sample is not None:
        trial = _once_per_input(trial, sample)
    worst, witness = 0.0, None
    for index in range(trials):
        try:
            dev, info = trial(rng)
        except Exception as exc:
            dev, info = math.inf, {"error": f"{type(exc).__name__}: {exc}"}
        folded = fold_deviation(worst, dev)
        if folded > worst:
            worst = folded
            if not within(worst, tol):
                witness = {**(info or {}), "trial": index}
    return LawCheckReport(law=law_id, model=model_name, trials=trials,
                          max_abs_deviation=worst, passed=within(worst, tol),
                          witness=witness, seed=seed, tol=tol)


def check_law(entry_id: str, model: Model | str, objects=None, rng=None,
              tol: float = TOL, seed: Optional[int] = None,
              trials: int = 1) -> LawCheckReport:
    """Run ``trials`` trials of one entry in one model through
    ``run_trials``.

    A coherence law samples its objects from the model in each trial
    unless ``objects`` is given; a property samples its own inputs and
    takes none.  Raises UnsupportedInModel when the entry is not available
    in the model; every failure to build or match is reported as a failed
    check with a witness.
    """
    try:
        entry = ENTRIES[entry_id]
    except KeyError:
        raise UnknownLaw(f"no law registered under {entry_id!r}") from None
    m = get_model(model) if isinstance(model, str) else model
    if m.base not in entry.models:
        raise UnsupportedInModel(f"law {entry_id} not available in {m.name}")
    if objects is not None and (entry.kind != "coherence"
                                or len(objects) != entry.arity):
        raise ArityError(f"{entry.kind} {entry_id} takes "
                         f"{entry.arity or 'no'} objects")
    if rng is None:
        rng = np.random.default_rng(seed if seed is not None else 0)
    # given objects stand for the drawn ones; a nullary law is given none,
    # and still draws what its sampler draws (MIXPRES's donor bases)
    sample = (lambda _, rng: tuple(objects)) if objects else entry.sample
    return run_trials(entry_id, m.name,
                      lambda rng, *inputs: entry.trial(m, rng, tol, *inputs),
                      trials, rng, tol, seed,
                      sample=sample and (lambda rng: sample(m, rng)))
