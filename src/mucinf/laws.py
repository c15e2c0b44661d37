"""The one table of everything the suite checks, and the runner over it.

``ENTRIES`` holds one row per check, keyed by id.  A ``"coherence"`` row is
a MUC law: an equation between composites of named structural morphisms
and the generic morphism algebra.  A law is its anchor, the equation text,
which ``_equation`` reads and ``_law`` registers; only the anchors that
name arrows ``f``/``g`` or the functor ``F``, which the grammar refuses,
keep a hand-written builder.  A ``"property"`` row is a check of the
channel construction or of finiteness spaces, registered by ``_prop`` (the
property bodies live in ``suite``).  ``check_law`` runs any row in one
model, trial by trial, through ``run_trials``, the one fold and verdict
(``within``).

Equation strings use diagram order (left factor first).  ``F`` is the
functor from the unitary subcategory, ``m⊗/n⊕/m⊤/n⊥`` its strengths and
``ρ`` its preservator.
"""

from __future__ import annotations

import itertools
import math
import numbers
import operator
import re
from dataclasses import dataclass, fields
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from .errors import (ArityError, MucinfError, UnknownLaw,
                     UnsupportedInModel)
from .morphisms import (TOL, Model, Morphism, compose, dagger, deviation,
                        fold_deviation, get_model, identity, par,
                        positive_tolerance, tensor, within)
from .objects import BOT, TOP, Base, Dagger, Dual, ObjectExpr, Par, Tensor
from .structural import _SIGS, signature, structural


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

    def S(self, name: str, *args: ObjectExpr) -> Morphism:
        return structural(self.model, name, list(args))

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


def _law(law_id, anchor, arity=None, models=("mat", "cplane"),
         needs_unitary=False, note=None, sample=None):
    """Register a coherence law: ``_law(law_id, anchor)`` one that is its
    anchor, read by ``_equation``; ``@_law(law_id, anchor, arity)`` the
    builder of one whose anchor the grammar refuses, as it names arrows
    ``f``/``g`` or the functor ``F``.  Raises MucinfError for an unreadable
    anchor alone and for a readable one with a builder."""
    def register(build: Builder):
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
    try:
        arity_read, build = _equation(anchor)
    except MucinfError:
        if arity is None:
            raise
        return register
    if arity is not None:
        raise MucinfError(f"{law_id} is its anchor {anchor!r}: no builder")
    arity = arity_read
    register(build)


def _prop(entry_id: str, anchor: str, models=("mat",), sample=None):
    def deco(trial: TrialFn):
        ENTRIES[entry_id] = Entry(entry_id, anchor, tuple(models),
                                  "property", trial, sample=sample)
        return trial
    return deco


def catalog() -> Dict[str, Entry]:
    return dict(ENTRIES)


# ---------------------------------------------------------------------------
# a law is its equation text

_SYMBOLS = {
    "a⊗": "a_tensor", "a⊕": "a_par", "λ⊗": "lam_tensor", "λ⊕": "lam_par",
    "λ⊤": "lam_top", "λ⊥": "lam_bot", "u⊗L": "u_tensor_l",
    "u⊗R": "u_tensor_r", "u⊕L": "u_par_l", "u⊕R": "u_par_r", "δL": "dl",
    "δR": "dr", "c⊗": "c_tensor", "c⊕": "c_par", "mx": "mx",
    "m⊗": "m_tensor", "n⊕": "n_par", "m": "m", "ι": "iota", "φ": "phi",
    "η": "eta", "ε": "eps", "ρ": "rho"}
# a symbol, with a subscript _A, _B, _⊤, _⊥ or _{...} (a bare ⊤/⊥ after φ),
# or one of the other tokens
_TOKEN = re.compile(
    "(?P<sym>%s)(?:_(?P<sub>[AB⊤⊥]|\\{[^{}]*\\})|(?<=φ)(?P<bare>[⊤⊥]))?"
    "|M\\(|⁻¹|[1()⊗⊕†=]"
    % "|".join(map(re.escape, sorted(_SYMBOLS, key=len, reverse=True))))


def _equation(text: str):
    """``(arity, build)`` of the law ``text`` states; ``build(ctx)`` gives
    the pairs (first side, each other side).  Raises MucinfError unless the
    tokens cover ``text`` and it parses and types.

    Juxtaposition is diagram-order composition, ``(x ⊗ y)``/``(x ⊕ y)``
    the products, ``M(x)`` the strict inclusion (``x`` itself), ``†`` the
    dagger and ``⁻¹`` on a structural symbol its ``_inv``.  Each object a
    map takes without a subscript is a fresh variable, typed by
    ``structural.signature`` and solved by unifying along each composite
    and across ``=``.  The free variables take the drawn objects in order:
    the named A, B, then by first appearance in the first side's domain,
    then its codomain.  Each side compiles once into closures that make
    the ``structural``/``identity``/``compose``/``tensor``/``par``/
    ``dagger`` calls a hand-written builder would.
    """
    tokens = list(_TOKEN.finditer(text))
    if "".join(t.group() for t in tokens) != "".join(text.split()):
        raise MucinfError(f"cannot read {text!r}")
    subst, named, fresh, at = {}, {}, itertools.count(), 0

    def refuse(why):
        raise MucinfError(f"{why} in {text!r}")

    def peek():
        return tokens[at].group() if at < len(tokens) else None

    def take(expected=None):
        nonlocal at
        if at == len(tokens) or expected not in (None, peek()):
            refuse(f"expected {expected or 'more'} at token {at}")
        at += 1
        return tokens[at - 1]

    def var():
        return Base(("?", next(fresh)))

    def walk(x):
        while type(x) is Base and x in subst:
            x = subst[x]
        return x

    def variables(x):
        x = walk(x)
        if type(x) is Base:
            return [x]
        return [v for f in fields(x) for v in variables(getattr(x, f.name))]

    def unify(x, y):
        x, y = walk(x), walk(y)
        if type(y) is Base:
            x, y = y, x
        if x == y:
            return
        if type(x) is Base and x not in variables(y):
            subst[x] = y
        elif type(x) is type(y):
            for f in fields(x):
                unify(getattr(x, f.name), getattr(y, f.name))
        else:
            refuse(f"{x!r} is not {y!r}")

    def subscript(sub):
        for sep, product in (("⊕", Par), ("⊗", Tensor)):
            left, found, right = sub.partition(sep)
            if found:
                return product(subscript(left), subscript(right))
        if sub.endswith("†"):
            return Dagger(subscript(sub[:-1]))
        if sub in ("⊤", "⊥"):
            return TOP if sub == "⊤" else BOT
        if sub not in ("A", "B"):
            refuse(f"no object {sub!r}")
        return named.setdefault(sub, var())

    # each step below is (plan, dom, cod); a plan is a structural map
    # ("S", name, args), an identity ("1", obj) or (op, *plans)
    def atom():
        token = take()
        if token["sym"]:
            name, sub = _SYMBOLS[token["sym"]], token["sub"] or token["bare"]
            args = ([subscript(sub.strip("{}"))] if sub else
                    [var() for _ in range(_SIGS[name][0])])
            return ("S", name, args), *signature(name, args)
        if token.group() == "1":
            x = var()
            return ("1", x), x, x
        if token.group() not in ("(", "M("):
            refuse(f"unexpected {token.group()!r}")
        step = chain()
        if token.group() == "(" and peek() in ("⊗", "⊕"):
            op, product = (("tensor", Tensor) if take().group() == "⊗"
                           else ("par", Par))
            (f, fd, fc), (g, gd, gc) = step, chain()
            step = (op, f, g), product(fd, gd), product(fc, gc)
        take(")")
        return step

    def postfix():
        plan, dom, cod = atom()
        while peek() in ("†", "⁻¹"):
            if take().group() == "†":
                plan, dom, cod = ("dagger", plan), Dagger(cod), Dagger(dom)
            elif plan[0] == "S" and f"{plan[1]}_inv" in _SIGS:
                plan, dom, cod = ("S", f"{plan[1]}_inv", plan[2]), cod, dom
            else:
                refuse("⁻¹ after no invertible structural map")
        return plan, dom, cod

    def chain():
        plan, dom, cod = postfix()
        while peek() not in (None, "=", ")", "⊗", "⊕"):
            after, mid, cod2 = postfix()
            unify(cod, mid)
            plan, cod = ("compose", plan, after), cod2
        return plan, dom, cod

    sides = [chain()]
    while peek() == "=":
        take()
        sides.append(chain())
    if at < len(tokens) or len(sides) < 2:
        refuse("no equation")
    _, dom, cod = sides[0]
    for _, other_dom, other_cod in sides[1:]:
        unify(dom, other_dom)
        unify(cod, other_cod)
    # the free variables, each with the index of the object it takes
    free = {v: i for i, v in enumerate(dict.fromkeys(
        v for x in (*named.values(), dom, cod) for v in variables(x)))}

    def instance(x):
        """``objects -> x``, each free variable the object drawn for it."""
        x = walk(x)
        kind = type(x)
        if kind is Base:
            if x not in free:
                refuse("a variable that no end of the first side binds")
            return operator.itemgetter(free[x])
        if kind in (Tensor, Par):
            left, right = instance(x.left), instance(x.right)
            return lambda objects: kind(left(objects), right(objects))
        if kind in (Dagger, Dual):
            inner = instance(x.inner)
            return lambda objects: kind(inner(objects))
        return lambda objects: x

    # the closures call the morphism algebra through this module's names,
    # looked up at each call, as a hand-written builder does
    def compiled(plan):
        op = plan[0]
        if op == "S":
            name, args = plan[1], [instance(a) for a in plan[2]]
            return lambda m, o: structural(m, name, [a(o) for a in args])
        if op == "1":
            obj = instance(plan[1])
            return lambda m, o: identity(m, obj(o))
        f = compiled(plan[1])
        if op == "dagger":
            return lambda m, o: dagger(f(m, o))
        g = compiled(plan[2])
        if op == "tensor":
            return lambda m, o: tensor(f(m, o), g(m, o))
        if op == "par":
            return lambda m, o: par(f(m, o), g(m, o))
        return lambda m, o: compose(f(m, o), g(m, o))

    built = [compiled(plan) for plan, _, _ in sides]

    def build(ctx):
        first, *others = (side(ctx.model, ctx.objects) for side in built)
        return [(first, other) for other in others]
    return len(free), build


# laxor interaction laws
_law("DLDC1a", "a⊗ (λ⊗ ⊗ 1) λ⊗ = (1 ⊗ λ⊗) λ⊗ (a⊕⁻¹)†")
_law("DLDC1b", "a⊕ (λ⊕ ⊕ 1) λ⊕ = (1 ⊕ λ⊕) λ⊕ (a⊗⁻¹)†")
_law("DLDC2a", "(λ⊤ ⊗ 1) λ⊗ = u⊗L (u⊕L)†")
_law("DLDC2b", "(λ⊥ ⊕ 1) λ⊕ = u⊕L (u⊗L)†")
_law("DLDC2c", "(1 ⊗ λ⊤) λ⊗ = u⊗R (u⊕R)†")
_law("DLDC2d", "(1 ⊕ λ⊥) λ⊕ = u⊕R (u⊗R)†")
_law("DLDC3a", "δL (λ⊗ ⊕ 1) λ⊕ = (1 ⊗ λ⊕) λ⊗ δR†")
_law("DLDC3b", "δR (1 ⊕ λ⊗) λ⊕ = (λ⊕ ⊗ 1) λ⊗ δL†")
_law("DLDC4a", "ι λ⊗† = (ι ⊕ ι) λ⊕")
_law("DLDC4b", "ι λ⊕† = (ι ⊗ ι) λ⊗")
_law("DLDC5a", "ι_⊥ λ⊤† = λ⊥")
_law("DLDC5b", "ι_⊤ λ⊥† = λ⊤")
_law("DLDC6", "ι_{A†} = (ι_A⁻¹)†")
_law("DLDC7a", "λ⊗ c⊕† = c⊗ λ⊗")
_law("DLDC7b", "λ⊕ c⊗† = c⊕ λ⊕")
# mix, mixor, snakes
_law("DMIX", "m λ⊤ = λ⊥ m†")
_law("MXDAG", "mx λ⊕ = λ⊗ mx†")
_law("MXDEF", "(1 ⊗ (u⊕L)⁻¹)(1 ⊗ (m ⊕ 1)) δL (u⊗R ⊕ 1) = "
     "((u⊕R)⁻¹ ⊗ 1)((1 ⊕ m) ⊗ 1) δR (1 ⊕ u⊗L) = mx")
_law("SNAKE-L", "(u⊗L)⁻¹ (η ⊗ 1) δR (1 ⊕ ε) u⊕R = 1", needs_unitary=True)
_law("SNAKE-R", "(u⊗R)⁻¹ (1 ⊗ η) δL (ε ⊕ 1) u⊕L = 1", needs_unitary=True)
# unitary structure
_UNDISPLAYED = ("undisplayed (b)-form; a failure flags the reading, not the "
                "build")
_law("U2", "φ_{A†} = ((φ_A)⁻¹)†", needs_unitary=True)
_law("U3", "φ_A φ_{A†} = ι", needs_unitary=True)
_law("U4a", "λ⊥ (φ⊤)⁻¹ = m", needs_unitary=True)
_law("U4b", "φ⊥ λ⊤⁻¹ = m", needs_unitary=True)
_law("U5a", "(φ_A ⊗ φ_B) λ⊗ = mx φ_{A⊕B}", needs_unitary=True)
_law("U5b", "φ_{A⊗B} λ⊕⁻¹ (φ_A⁻¹ ⊕ φ_B⁻¹) = mx", needs_unitary=True,
     note=_UNDISPLAYED)
_law("UDUALa", "λ⊤ ε† λ⊕⁻¹ = η (φ ⊕ φ) c⊕", needs_unitary=True)
_law("UDUALb", "c⊗ ε λ⊥ = (φ ⊗ φ) λ⊗ η†", needs_unitary=True,
     note=_UNDISPLAYED)
# sliding the mixor; preservator hexagons for unitary objects
_law("MXSLIDE-MX", "mx⁻¹ (1 ⊗ mx⁻¹) = a⊕ mx⁻¹ (mx⁻¹ ⊗ 1) a⊗⁻¹",
     needs_unitary=True)
_law("RHO-TP-a", "m⊗ M(φ) ρ (m⊗)† = (M(φ) ⊗ M(φ)) (ρ ⊗ ρ) λ⊗ mx†",
     needs_unitary=True)
_law("RHO-TP-b", "n⊕⁻¹ M(φ) ρ = (M(φ) ⊕ M(φ)) (ρ ⊕ ρ) λ⊕ (mx⁻¹)† n⊕†",
     needs_unitary=True)


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


@_law("IOTA-NAT", "ι f†† = f ι", 0)
def _(ctx):
    a, b, f = ctx.arrow()
    lhs = ctx.S("iota", a) >> dagger(dagger(f))
    rhs = f >> ctx.S("iota", b)
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
