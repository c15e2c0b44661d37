"""The three workloads of the mucinf benchmark: inputs, operations, gates.

Each workload turns a seed into a fixed list of operations (one pass).  An
operation takes the tracer (``None`` when tracing is off), runs one request
against mucinf's public API and returns whether its output passed the gate.

Inputs are generated here with numpy, not with mucinf's own samplers, so a
change to those samplers cannot change what a seed measures.  Everything
that sets the amount of work (the sizes, the kind of each equivalent
variant, the test maps the oracle draws) comes from a fixed layout stream,
and the seed draws the matrix entries: on a two-core VM, letting the seed
pair the channel sizes or seed the oracle moved one pass's work by up to
8 % and the 90th-percentile operation by up to 9 % from seed to seed, which
is a third of the benchmark's regression bound before any noise.
"""

from __future__ import annotations

import hashlib
import json
import os
from functools import partial
from itertools import product

import numpy as np

import mucinf
import mucinf.cli
from mucinf import Base, Morphism, Par, SuiteConfig, kraus_new, list_laws

LAWS_TRIALS = 100
LAWS_SEED = 7
CHANNEL_DIMS = tuple(range(1, 7))  # a, b, c and the ancillas: Choi up to 36x36
CHANNEL_EXIT_CODES = (0, 0, 0, 0, 1)
ORACLE_DIMS = tuple(range(3, 9))   # a, b and the ancilla of the oracle pairs
ORACLE_TESTMAPS = 20
ORACLE_C_DIMS = (2, 4, 8)
ORACLE_X_DIMS = (1, 2)
LAYOUT_SEED = 0


def _layout():
    return np.random.default_rng(LAYOUT_SEED)


def laws(seed: int, workdir: str, smoke: bool = False):
    """``mucinf laws-run --trials 100 --seed 7`` over every model, one
    (entry, model) report per operation, in an order drawn from ``seed``.

    Per-entry random streams make the single-entry reports identical to the
    reports of one full ``run_suite`` call.  The suite seed stays at the
    reference 7: over suite seeds 1..20 one pass took 3.7 to 17.9 s, because
    CP-MIX-INV sometimes draws 81-dimensional objects whose Choi matrices
    alone take 3 to 12 s, and no statistic of a run can steady that.
    """
    deviations = {}
    trials = 2 if smoke else LAWS_TRIALS
    ops = [partial(_laws_op, SuiteConfig(models=(model,),
                                         law_filter=entry["id"],
                                         trials=trials, seed=LAWS_SEED),
                   deviations)
           for entry in list_laws() for model in entry["models"]]
    order = np.random.default_rng(seed).permutation(len(ops))
    return ([ops[i] for i in order],
            lambda: {"laws_digest": laws_digest(deviations)})


def _laws_op(cfg, deviations, tracer) -> bool:
    reports = mucinf.run_suite(cfg)
    if len(reports) != 1:
        return False
    (report,) = reports
    deviations[(report.law, report.model)] = report.max_abs_deviation
    # the discrete model asserts every law exactly
    return report.passed and (report.model != "cplane"
                              or report.max_abs_deviation == 0.0)


def laws_digest(deviations) -> str:
    """Digest of the (law, model, max_abs_deviation) tuples of one pass."""
    rows = sorted([law, model, repr(dev)]
                  for (law, model), dev in deviations.items())
    return hashlib.sha256(json.dumps(rows).encode()).hexdigest()[:16]


def channels(seed: int, workdir: str, smoke: bool = False):
    """CLI round trips on channel files: compose, Choi, purify, then two
    equivalence checks (purified ~ composed, a distinct channel !~ composed).

    Three operations per (a, c) on the full dimension grid.  b and the three
    ancillas take each value of the same range equally often, paired with
    the grid by the layout.
    """
    rng, layout = np.random.default_rng(seed), _layout()
    dims = CHANNEL_DIMS[:3] if smoke else CHANNEL_DIMS
    cells = 3 * list(product(dims, dims))
    columns = [layout.permutation(np.resize(dims, len(cells)))
               for _ in range(4)]
    ops = []
    for i, ((a, c), *sizes) in enumerate(zip(cells, *columns)):
        b, u1, u2, u3 = (int(x) for x in sizes)
        path = {name: os.path.join(workdir, f"{i}-{name}.json")
                for name in ("k1", "k2", "k3", "comp", "choi", "pure",
                             "v1", "v2")}
        _write_channel(path["k1"], rng, a, b, u1)
        _write_channel(path["k2"], rng, b, c, u2)
        _write_channel(path["k3"], rng, a, c, u3)
        argvs = (["channel-compose", path["k1"], path["k2"],
                  "--out", path["comp"]],
                 ["channel-choi", path["comp"], "--out", path["choi"]],
                 ["channel-purify", path["choi"], "--out", path["pure"]],
                 ["channel-equiv", path["pure"], path["comp"],
                  "--out", path["v1"]],
                 ["channel-equiv", path["k3"], path["comp"],
                  "--out", path["v2"]])
        # every file each call reads or writes, in call order
        io = [path[k] for k in ("k1", "k2", "comp", "comp", "choi", "choi",
                                "pure", "pure", "comp", "v1", "k3", "comp",
                                "v2")]
        ops.append(partial(_channels_op, argvs, io))
    return ops, dict


def _write_channel(path, rng, a, b, u) -> None:
    body = rng.random((u * b, a)) + 1j * rng.random((u * b, a))
    doc = {"dom": a, "cod": b, "ancilla": u,
           "body": {"rows": u * b, "cols": a,
                    "entries": [[z.real, z.imag] for z in body.reshape(-1)]}}
    with open(path, "w") as fh:
        json.dump(doc, fh)


def _channels_op(argvs, io, tracer) -> bool:
    codes = tuple(mucinf.cli.main(argv) for argv in argvs)
    if tracer is not None:
        tracer.add("jsonio.bytes", sum(os.path.getsize(p) for p in io))
        tracer.add("cli.exit_mismatch",
                   sum(got != want
                       for got, want in zip(codes, CHANNEL_EXIT_CODES)))
    return codes == CHANNEL_EXIT_CODES


def oracle_wide(seed: int, workdir: str, smoke: bool = False):
    """The test-map oracle on large channel pairs.

    The (a, b, u) triples form two Latin squares over the dimension range.
    Each triple gives one equivalent pair (the oracle must run all its test
    maps and stay consistent) and one distinct pair (the oracle must find a
    witness, usually at once).
    """
    rng, layout = np.random.default_rng(seed), _layout()
    dims = ORACLE_DIMS[:2] if smoke else ORACLE_DIMS
    n = len(dims)
    triples = [(a, b, dims[(i + shift * j) % n]) for shift in (1, -1)
               for (i, a), (j, b) in product(enumerate(dims), repeat=2)]
    ops = []
    for a, b, u in triples:
        body = _random_body(rng, u * b, a)
        variant, new_u = _equivalent_variant(rng, layout, body, u, b)
        other = _random_body(rng, u * b, a)
        k1 = _kraus(body, a, b, u)
        ops.append(partial(_oracle_op, k1, _kraus(variant, a, b, new_u),
                           True, int(layout.integers(2 ** 32))))
        ops.append(partial(_oracle_op, k1, _kraus(other, a, b, u),
                           False, int(layout.integers(2 ** 32))))
    return ops, dict


def _random_body(rng, rows, cols) -> np.ndarray:
    return rng.random((rows, cols)) + 1j * rng.random((rows, cols))


def _unitary(rng, n) -> np.ndarray:
    z = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    q, r = np.linalg.qr(z)
    d = np.diag(r)
    return q * (d / np.abs(d))


def _equivalent_variant(rng, layout, body, u, b):
    """Mix the ancilla by a unitary, or pad it with one or two wires through
    an isometry; either way the channel stays the same.  The layout picks
    which, and the seed's ``rng`` the unitary."""
    if layout.random() < 0.5:
        mixer = _unitary(rng, u)
    else:
        mixer = _unitary(rng, u + int(layout.integers(1, 3)))[:, :u]
    return np.kron(mixer, np.eye(b)) @ body, mixer.shape[0]


def _kraus(body, a, b, u):
    return kraus_new(Morphism("mat", Base(a), Par(Base(u), Base(b)), body),
                     Base(u))


def _oracle_op(k1, k2, equivalent, seed, tracer) -> bool:
    out = mucinf.equiv_testmap_oracle(
        k1, k2, trials=ORACLE_TESTMAPS, seed=seed, c_dims=ORACLE_C_DIMS,
        x_dims=ORACLE_X_DIMS)
    return out["consistent"] == equivalent


WORKLOADS = {"laws": laws, "channels": channels, "oracle-wide": oracle_wide}
