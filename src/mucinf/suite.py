"""Executable harness over the full law catalog plus channel properties.

Laws and properties are enumerable entries; a suite run produces one report
per (entry, model) pair, deterministically for a given config: per-entry
random streams are derived from the config seed and a stable digest of the
entry id, so filtering does not shift anyone's stream.
"""

from __future__ import annotations

import fnmatch
import zlib
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from . import cpinf
from .errors import UnknownLaw
from .fmat import (ALL, FIN, OMEGA, FiniteIndex, TagFamily,
                   check_finiteness_relation, check_finiteness_space,
                   explicit_family, family_subset, fmat_compose, fmat_dagger,
                   perp, power_family, sparse_deviation)
from .laws import (LawCheckReport, catalog, check_law, fold_deviation,
                   run_trials)
from .matc import max_abs_diff, random_unitary
from .morphisms import Model, Morphism, dagger, get_model, identity
from .objects import Base, Par, Tensor
from .structural import structural


@dataclass(frozen=True)
class SuiteConfig:
    models: Tuple[str, ...] = ("mat", "cplane", "fmat")
    law_filter: str = "*"
    trials: int = 100
    seed: int = 0
    tol: float = 1e-9

    def __post_init__(self):
        if self.trials < 0:
            raise ValueError("trials must be >= 0")
        if not self.tol > 0:
            raise ValueError("tolerance must be positive")


TrialFn = Callable[[Model, np.random.Generator, float],
                   Tuple[float, Optional[dict]]]


@dataclass(frozen=True)
class Entry:
    """A catalog law or a property, run trial by trial."""

    entry_id: str
    anchor: str
    models: Tuple[str, ...]
    trial: TrialFn


_PROPERTIES: Dict[str, Entry] = {}


def _prop(entry_id: str, anchor: str, models=("mat",)):
    def deco(fn):
        _PROPERTIES[entry_id] = Entry(entry_id, anchor, tuple(models), fn)
        return fn
    return deco


# ---------------------------------------------------------------------------
# channel category laws


@_prop("CP-CAT-ASSOC", "(k1 k2) k3 ~ k1 (k2 k3)", ("mat", "cplane"))
def _(model, rng, tol):
    k1 = cpinf.random_channel(model, rng)
    k2 = cpinf.random_channel(model, rng, k1.cod)
    k3 = cpinf.random_channel(model, rng, k2.cod)
    lhs = cpinf.kraus_compose(cpinf.kraus_compose(k1, k2), k3)
    rhs = cpinf.kraus_compose(k1, cpinf.kraus_compose(k2, k3))
    return cpinf.channel_deviation(lhs, rhs), None


@_prop("CP-CAT-IDENT", "1 k ~ k ~ k 1", ("mat", "cplane"))
def _(model, rng, tol):
    k = cpinf.random_channel(model, rng)
    left = cpinf.kraus_compose(cpinf.kraus_identity(model, k.dom), k)
    right = cpinf.kraus_compose(k, cpinf.kraus_identity(model, k.cod))
    return fold_deviation(cpinf.channel_deviation(left, k),
                          cpinf.channel_deviation(right, k)), None


@_prop("CP-WELLDEF", "k1 ~ k1' implies k0 k1 ~ k0 k1' and k1 k2 ~ k1' k2")
def _(model, rng, tol):
    k1 = cpinf.random_channel(model, rng)
    k1_alt = cpinf.equivalent_variant(rng, k1)
    k2 = cpinf.random_channel(model, rng, k1.cod)
    k0 = cpinf.random_channel(model, rng, cod=k1.dom)
    post = cpinf.channel_deviation(cpinf.kraus_compose(k1, k2),
                                   cpinf.kraus_compose(k1_alt, k2))
    pre = cpinf.channel_deviation(cpinf.kraus_compose(k0, k1),
                                  cpinf.kraus_compose(k0, k1_alt))
    return fold_deviation(post, pre), None


@_prop("CP-EQUIV-ORACLE",
       "canonical-form decision agrees with the test-map oracle")
def _(model, rng, tol):
    if rng.random() < 0.5:
        k1 = cpinf.random_channel(model, rng)
        k2 = cpinf.equivalent_variant(rng, k1)
        if not cpinf.equiv_decide(k1, k2, tol):
            return 1.0, {"side": "decide on an equivalent pair"}
        oracle = cpinf.equiv_testmap_oracle(k1, k2, trials=20, rng=rng,
                                            tol=1e-7)
        if not oracle["consistent"]:
            return 1.0, {"side": "oracle witness on an equivalent pair",
                         "witness": oracle["witness"]}
    else:
        k1, k2 = cpinf.distinct_pair(model, rng)
        if cpinf.equiv_decide(k1, k2, tol):
            return 1.0, {"side": "decide on a distinct pair"}
        oracle = cpinf.equiv_testmap_oracle(k1, k2, trials=200, rng=rng)
        if oracle["consistent"]:
            return 1.0, {"side": "oracle blind on a distinct pair"}
    return 0.0, None


def _action_entry(product: str):
    def trial(model, rng, tol):
        k1 = cpinf.random_channel(model, rng)
        k2 = cpinf.random_channel(model, rng)
        r1 = cpinf.random_density(rng, model.interpret(k1.dom))
        r2 = cpinf.random_density(rng, model.interpret(k2.dom))
        # looked up when run, so a wrapper installed after import sees it
        joint = cpinf.channel_action(getattr(cpinf, product)(k1, k2),
                                     np.kron(r1, r2))
        split = np.kron(cpinf.channel_action(k1, r1),
                        cpinf.channel_action(k2, r2))
        return max_abs_diff(joint, split), None
    return trial


for _id, _product, _text in (
        ("CP-TENSOR-ACTION", "kraus_tensor",
         "(k1 x k2)(rho1 x rho2) = k1(rho1) x k2(rho2)"),
        ("CP-PAR-ACTION", "kraus_par",
         "(k1 + k2)(rho1 x rho2) = k1(rho1) x k2(rho2)")):
    _prop(_id, _text)(_action_entry(_product))


@_prop("CP-TENSOR-PAR-AGREE", "both channel tensors coincide (compact model)")
def _(model, rng, tol):
    k1 = cpinf.random_channel(model, rng)
    k2 = cpinf.random_channel(model, rng)
    return cpinf.channel_deviation(cpinf.kraus_tensor(k1, k2),
                                   cpinf.kraus_par(k1, k2)), None


@_prop("CP-BIFUNCTOR", "(k1 x k2)(k3 x k4) ~ (k1 k3) x (k2 k4)")
def _(model, rng, tol):
    k1 = cpinf.random_channel(model, rng)
    k2 = cpinf.random_channel(model, rng)
    k3 = cpinf.random_channel(model, rng, k1.cod)
    k4 = cpinf.random_channel(model, rng, k2.cod)
    lhs = cpinf.kraus_compose(cpinf.kraus_tensor(k1, k2),
                              cpinf.kraus_tensor(k3, k4))
    rhs = cpinf.kraus_tensor(cpinf.kraus_compose(k1, k3),
                             cpinf.kraus_compose(k2, k4))
    return cpinf.channel_deviation(lhs, rhs), None


@_prop("CP-MIX-INV", "Q(mx) is invertible up to ~", ("mat", "cplane"))
def _(model, rng, tol):
    a = model.random_object(rng, unitary=True)
    b = model.random_object(rng, unitary=True)
    fwd = cpinf.functor_Q(structural(model, "mx", [a, b]))
    bwd = cpinf.functor_Q(structural(model, "mx_inv", [a, b]))
    dev1 = cpinf.channel_deviation(
        cpinf.kraus_compose(fwd, bwd),
        cpinf.kraus_identity(model, Tensor(a, b)))
    dev2 = cpinf.channel_deviation(
        cpinf.kraus_compose(bwd, fwd),
        cpinf.kraus_identity(model, Par(a, b)))
    return fold_deviation(dev1, dev2), None


@_prop("CP-DAG-INV", "(k dagger) dagger ~ k")
def _(model, rng, tol):
    k = cpinf.random_channel(model, rng)
    return cpinf.channel_deviation(
        cpinf.kraus_dagger(cpinf.kraus_dagger(k)), k), None


@_prop("CP-DAG-CONTRA", "(k1 k2) dagger ~ k2 dagger k1 dagger")
def _(model, rng, tol):
    k1 = cpinf.random_channel(model, rng)
    k2 = cpinf.random_channel(model, rng, k1.cod)
    lhs = cpinf.kraus_dagger(cpinf.kraus_compose(k1, k2))
    rhs = cpinf.kraus_compose(cpinf.kraus_dagger(k2), cpinf.kraus_dagger(k1))
    return cpinf.channel_deviation(lhs, rhs), None


@_prop("CP-DAG-CHOI",
       "Choi of the adjoint is the wire-swapped conjugate Choi")
def _(model, rng, tol):
    k = cpinf.random_channel(model, rng)
    a = model.interpret(k.dom)
    b = model.interpret(k.cod)
    direct = cpinf.to_choi(cpinf.kraus_dagger(k)).matrix
    c = cpinf.to_choi(k).matrix
    # (in, out) double indices of k become (out, in) ones of its adjoint
    swapped = c.reshape(b, a, b, a).transpose(1, 0, 3, 2).reshape(
        a * b, a * b).conj()
    return max_abs_diff(direct, swapped), None


@_prop("CP-Q-FUNCTOR", "Q(f g) ~ Q(f) Q(g) and Q(1) ~ 1", ("mat", "cplane"))
def _(model, rng, tol):
    a, b, c = model.random_chain(rng, 2)
    f = model.random_morphism(rng, a, b)
    g = model.random_morphism(rng, b, c)
    comp = cpinf.channel_deviation(
        cpinf.functor_Q(f >> g),
        cpinf.kraus_compose(cpinf.functor_Q(f), cpinf.functor_Q(g)))
    ident = cpinf.channel_deviation(
        cpinf.functor_Q(identity(model, f.dom)),
        cpinf.kraus_identity(model, f.dom))
    return fold_deviation(comp, ident), None


@_prop("CP-N-DAGGER", "N(f dagger) ~ N(f) dagger")
def _(model, rng, tol):
    a, b = model.random_chain(rng, 1)
    f = model.random_morphism(rng, a, b)
    lhs = cpinf.functor_N(dagger(f))
    rhs = cpinf.kraus_dagger(cpinf.functor_N(f))
    return cpinf.channel_deviation(lhs, rhs), None


@_prop("CP-Q-PHASE", "Q identifies global phases: Q(u) ~ Q(e^{it} u)")
def _(model, rng, tol):
    d = int(rng.integers(1, 4))
    u = random_unitary(rng, d)
    theta = float(rng.uniform(0, 2 * np.pi))
    f = Morphism(model.name, Base(d), Base(d), u)
    g = Morphism(model.name, Base(d), Base(d), np.exp(1j * theta) * u)
    return cpinf.channel_deviation(cpinf.functor_Q(f),
                                   cpinf.functor_Q(g)), None


@_prop("CP-PURE-ACTION",
       "sum over Kraus blocks reproduces the channel action")
def _(model, rng, tol):
    k = cpinf.random_channel(model, rng)
    rho = cpinf.random_density(rng, model.interpret(k.dom))
    b = model.interpret(k.cod)
    total = np.zeros((b, b), dtype=complex)
    for blk in cpinf.pure_decomposition(k):
        total += blk @ rho @ blk.conj().T
    acted = cpinf.channel_action(k, rho)
    return max_abs_diff(total, acted), None


@_prop("CP-PURIFY-ROUNDTRIP", "purify(choi(k)) ~ k")
def _(model, rng, tol):
    k = cpinf.random_channel(model, rng)
    return cpinf.channel_deviation(
        cpinf.purify(cpinf.to_choi(k), model.name), k), None


for _axiom, (_text, _trial) in cpinf.ENV_AXIOMS.items():
    _prop(_axiom, _text)(lambda model, rng, tol, trial=_trial:
                         trial(cpinf.canonical_env(model.name), rng, tol))


# ---------------------------------------------------------------------------
# finiteness-space properties


def _random_family(rng, labels):
    subsets = []
    for _ in range(int(rng.integers(0, 4))):
        mask = rng.random(len(labels)) < 0.5
        subsets.append([x for x, keep in zip(labels, mask) if keep])
    return explicit_family(subsets)


def _masked_dense(rng, rows, cols):
    dense = rng.random((rows, cols)) + 1j * rng.random((rows, cols))
    dense[rng.random((rows, cols)) < 0.4] = 0.0
    return dense


def _int_dense(rng, rows, cols):
    re = rng.integers(-3, 4, size=(rows, cols))
    im = rng.integers(-3, 4, size=(rows, cols))
    return re.astype(complex) + 1j * im.astype(float)


@_prop("FMAT-PERP-TRIPLE", "perp perp perp = perp", ("fmat",))
def _(model, rng, tol):
    labels = tuple(range(int(rng.integers(1, 6))))
    idx = FiniteIndex(labels)
    fam = _random_family(rng, labels)
    once = perp(fam, idx)
    thrice = perp(perp(once, idx), idx)
    if thrice != once:
        return 1.0, {"labels": labels}
    tag = TagFamily(FIN)
    if perp(perp(perp(tag, OMEGA), OMEGA), OMEGA) != perp(tag, OMEGA):
        return 1.0, {"case": "omega"}
    return 0.0, None


@_prop("FMAT-PERP-ANTITONE", "F1 <= F2 implies perp(F2) <= perp(F1)",
       ("fmat",))
def _(model, rng, tol):
    labels = tuple(range(int(rng.integers(1, 6))))
    idx = FiniteIndex(labels)
    f1 = _random_family(rng, labels)
    extra = _random_family(rng, labels)
    f2 = explicit_family(list(f1.sets) + list(extra.sets))
    ok = family_subset(perp(f2, idx), perp(f1, idx))
    ok = ok and family_subset(perp(TagFamily(ALL), OMEGA),
                              perp(TagFamily(FIN), OMEGA))
    return (0.0 if ok else 1.0), None


@_prop("FMAT-SPACE", "perp pairs validate; non-pairs are rejected", ("fmat",))
def _(model, rng, tol):
    n = int(rng.integers(2, 5))
    idx = FiniteIndex(tuple(range(n)))
    power = power_family(idx)
    good = check_finiteness_space(idx, power, power)
    good = good and check_finiteness_space(OMEGA, TagFamily(FIN),
                                           TagFamily(ALL))
    small = explicit_family([[0]])
    bad = check_finiteness_space(idx, small, power)
    return (0.0 if good and not bad else 1.0), None


@_prop("FMAT-RELATION-TYPING",
       "supports of included matrices are finiteness relations", ("fmat",))
def _(model, rng, tol):
    rows, cols = int(rng.integers(1, 5)), int(rng.integers(1, 5))
    f = model.include(Morphism(model.unitary_donor.name, Base(cols),
                               Base(rows), _masked_dense(rng, rows, cols)))
    ok = check_finiteness_relation(f.payload.support(), f.payload.src,
                                   f.payload.tgt)
    return (0.0 if ok else 1.0), None


@_prop("FMAT-COMPOSE-ASSOC",
       "sparse composition associates exactly", ("fmat",))
def _(model, rng, tol):
    dims = [int(rng.integers(1, 5)) for _ in range(4)]
    donor = model.unitary_donor.name
    mats = [model.include(Morphism(donor, Base(dims[i]), Base(dims[i + 1]),
                                   _int_dense(rng, dims[i + 1], dims[i])))
            for i in range(3)]
    lhs = fmat_compose(fmat_compose(mats[0].payload, mats[1].payload),
                       mats[2].payload)
    rhs = fmat_compose(mats[0].payload,
                       fmat_compose(mats[1].payload, mats[2].payload))
    dev = sparse_deviation(lhs, rhs)
    # integer entries make every float operation exact
    return (0.0 if dev == 0.0 and lhs.src == rhs.src and lhs.tgt == rhs.tgt
            else fold_deviation(1.0, dev)), None


@_prop("FMAT-DAGGER-INV", "dagger of dagger is the identity on matrices",
       ("fmat",))
def _(model, rng, tol):
    rows, cols = int(rng.integers(1, 5)), int(rng.integers(1, 5))
    f = model.include(Morphism(model.unitary_donor.name, Base(cols),
                               Base(rows), _masked_dense(rng, rows, cols)))
    back = fmat_dagger(fmat_dagger(f.payload))
    same = (back.src == f.payload.src and back.tgt == f.payload.tgt
            and back.entries == f.payload.entries)
    return (0.0 if same else 1.0), None


@_prop("FMAT-INCLUDE-FUNCTOR",
       "inclusion preserves composition and dagger on the nose", ("fmat",))
def _(model, rng, tol):
    donor = model.unitary_donor
    a, b, c = donor.random_chain(rng, 2)
    f = donor.random_morphism(rng, a, b)
    g = donor.random_morphism(rng, b, c)
    comp = model.deviation(model.include(f >> g),
                           model.include(f) >> model.include(g))
    dag = model.deviation(model.include(dagger(f)), dagger(model.include(f)))
    return fold_deviation(comp, dag), None


# ---------------------------------------------------------------------------
# running the suite


def _entry_rng(seed: int, entry_id: str, model_name: str):
    digest = zlib.crc32(f"{entry_id}::{model_name}".encode())
    return np.random.default_rng(np.random.SeedSequence([seed, digest]))


def list_laws() -> List[dict]:
    """Machine-readable catalog: coherence laws plus property entries."""
    out = []
    for law in sorted(catalog().values(), key=lambda l: l.law_id):
        out.append({"id": law.law_id, "anchor": law.anchor,
                    "arity": law.arity, "models": list(law.models),
                    "kind": "coherence",
                    **({"note": law.note} if law.note else {})})
    for entry in sorted(_PROPERTIES.values(), key=lambda e: e.entry_id):
        out.append({"id": entry.entry_id, "anchor": entry.anchor,
                    "arity": 0, "models": list(entry.models),
                    "kind": "property"})
    return out


def _law_trial(law) -> TrialFn:
    """One catalog law as a trial: sample its objects, check it once."""
    def trial(model, rng, tol):
        rep = check_law(law.law_id, model, rng=rng, tol=tol)
        return rep.max_abs_deviation, rep.witness
    return trial


def _run_entry(entry: Entry, model: Model,
               cfg: SuiteConfig) -> LawCheckReport:
    """Every trial of one entry in one model, on the entry's own stream."""
    return run_trials(entry.entry_id, model.name,
                      lambda rng: entry.trial(model, rng, cfg.tol),
                      cfg.trials,
                      _entry_rng(cfg.seed, entry.entry_id, model.name),
                      cfg.tol, cfg.seed)


def run_suite(cfg: SuiteConfig) -> List[LawCheckReport]:
    """One report per (entry, model) pair, deterministic for a given config."""
    models = [get_model(name) for name in cfg.models]
    entries = [Entry(law.law_id, law.anchor, law.models, _law_trial(law))
               for law in catalog().values()] + list(_PROPERTIES.values())
    chosen = [e for e in entries
              if fnmatch.fnmatch(e.entry_id, cfg.law_filter)]
    if not chosen:
        raise UnknownLaw(f"filter {cfg.law_filter!r} matches no law")
    reports = [_run_entry(entry, m, cfg) for entry in chosen
               for m in models if m.base in entry.models]
    reports.sort(key=lambda r: (r.law, r.model))
    return reports
