"""Per-layer tracing of mucinf, installed from outside the package.

``installed(tracer)`` wraps the public functions and model methods of each
mucinf layer for the duration of a ``with`` block.  Module-level functions
are replaced in every ``mucinf`` module namespace that binds them, because
modules import by name (``from .structural import structural``); model
methods are replaced on the ``Model`` subclasses, so that recursive
``interpret`` calls and payload calls are caught as well.

Each wrapped call counts one call of its layer key.  A call whose caller is
already inside the same key only counts, and its time stays with the
enclosing span; this keeps the hottest leaf (about a million ``interpret``
calls per ``laws`` pass) cheap.  Every other call is a span: its self time
is its duration minus the time of the spans it caused.  Spans of the
op-level layers are also kept in memory as records and written out at the
end.
Derived counts (flops, identity operands, witnesses) are computed after the
wrapped call returns, and that time is excluded from every span.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import importlib
import itertools
import json
import sys
import time
from collections import Counter, defaultdict

import numpy as np

# layers whose spans are only aggregated: they run hundreds of thousands of
# times per pass; the layers above them keep one record per span
AGGREGATED = ("objects.", "morphisms.", "structural", "matc.", "fmat.",
              "cplane.")


class Tracer:
    """Calls, spans, self time and derived counts per layer key."""

    def __init__(self):
        self.calls = Counter()
        self.spans = Counter()
        self.self_s = defaultdict(float)
        self.counts = Counter()
        self.records = []
        self.op = None
        self._stack = []
        self._ids = itertools.count()

    def add(self, key: str, n=1) -> None:
        self.counts[key] += n

    def wrap(self, key: str, fn, post=None, counted=True):
        """``fn`` timed, and counted unless not ``counted``, under ``key``;
        ``post(tracer, result, *args)`` derives counts after the call,
        outside every span."""
        calls, spans, self_s = self.calls, self.spans, self.self_s
        stack, records, clock = self._stack, self.records, time.perf_counter
        ids = self._ids
        keep = not key.startswith(AGGREGATED)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            calls[key] += counted
            if stack and stack[-1][0] == key:
                out = fn(*args, **kwargs)
            else:
                parent = stack[-1] if stack else None
                frame = [key, 0.0, next(ids) if keep else None]
                stack.append(frame)
                start = clock()
                try:
                    out = fn(*args, **kwargs)
                finally:
                    end = clock()
                    stack.pop()
                    spans[key] += 1
                    self_s[key] += end - start - frame[1]
                    if parent is not None:
                        parent[1] += end - start
                    if keep:
                        records.append({
                            "id": frame[2], "op": self.op, "layer": key,
                            "parent": _record_id(stack),
                            "start": start, "end": end})
            if post is not None:
                t0 = clock()
                post(self, out, *args)
                if stack:
                    stack[-1][1] += clock() - t0
            return out

        return traced

    def values(self) -> dict:
        """Every ``<key>.calls`` and ``<key>.self_s``, plus derived counts
        and ratios (0 where the base is 0)."""
        out = {}
        for key in sorted(self.calls):
            out[f"{key}.calls"] = self.calls[key]
            out[f"{key}.self_s"] = self.self_s[key]
        out["objects.interpret.top_calls"] = self.spans["objects.interpret"]
        out.update(self.counts)
        ratios = {
            "structural.identity_frac":
                ("structural.identity", self.counts["structural.mat"]),
            "matc.matmul.identity_operand_frac":
                ("matc.matmul.identity_operand", self.calls["matc.matmul"]),
            "cpinf.oracle.witness_frac":
                ("cpinf.oracle.witness", self.calls["cpinf.oracle"]),
        }
        for name, (count, base) in ratios.items():
            out[name] = self.counts[count] / base if base else 0.0
        return out

    def write_records(self, path: str) -> None:
        with open(path, "w") as fh:
            for rec in self.records:
                fh.write(json.dumps(rec) + "\n")


def _record_id(stack):
    # the nearest enclosing span that keeps records
    for frame in reversed(stack):
        if frame[2] is not None:
            return frame[2]
    return None


def _is_identity(a) -> bool:
    return bool(isinstance(a, np.ndarray) and a.ndim == 2
                and a.shape[0] == a.shape[1]
                and np.count_nonzero(a) == a.shape[0]
                and np.all(a.diagonal() == 1))


# derived counts ------------------------------------------------------------

def _structural(tr, out, model, name, args):
    from mucinf.matc import MatModel
    from mucinf.morphisms import get_model
    if isinstance(get_model(out.model), MatModel):
        tr.add("structural.mat")
        tr.add("structural.identity", _is_identity(out.payload))


def _matmul(tr, out, model, f, g):
    m, k = g.payload.shape
    tr.add("matc.matmul.gflop", 8e-9 * m * k * f.payload.shape[1])
    tr.add("matc.matmul.identity_operand",
           _is_identity(f.payload) or _is_identity(g.payload))


def _eig(tr, out, h, *rest):
    tr.counts["matc.eig.max_n"] = max(tr.counts["matc.eig.max_n"], len(h))


def _relation(tr, out, support, src, tgt):
    # explicit-family members the check iterates when it does not stop early
    from mucinf.fmat import ExplicitFamily
    tr.add("fmat.relation.sets_walked",
           sum(len(fam.sets) for fam in (src.fam_a, tgt.fam_b)
               if isinstance(fam, ExplicitFamily)))


def _check_law(tr, out, *args, **kwargs):
    tr.add("laws.check_law.fails", not out.passed)


def _suite(tr, out, cfg):
    tr.add("suite.reports", len(out))
    tr.add("suite.failed_reports", sum(not r.passed for r in out))


def _oracle(tr, out, *args):
    witness = out["witness"]
    tr.add("cpinf.oracle.testmaps",
           out["trials"] if witness is None else witness["trial"] + 1)
    tr.add("cpinf.oracle.witness", witness is not None)


def _targets():
    """(key, owner, attribute names, post hook[, counted]) for every traced
    boundary."""
    # the package binds the name ``structural`` to the function, so the
    # modules come from the import system rather than package attributes
    (cli, cpinf, cplane, fmat, jsonio, laws, matc, mor, structural,
     suite) = (importlib.import_module(f"mucinf.{name}") for name in (
         "cli", "cpinf", "cplane", "fmat", "jsonio", "laws", "matc",
         "morphisms", "structural", "suite"))
    payload = ("identity_payload", "compose_payload", "tensor_payload",
               "par_payload", "dagger_payload", "structural_payload",
               "deviation")
    return [
        ("objects.interpret", matc.MatModel, ["interpret"], None),
        ("objects.interpret", fmat.FmatModel, ["interpret"], None),
        ("objects.interpret", cplane.CplaneModel, ["interpret"], None),
        ("morphisms.compose", mor, ["compose"], None),
        ("morphisms.tensor_par", mor, ["tensor", "par"], None),
        ("morphisms.identity", mor, ["identity"], None),
        ("morphisms.dagger", mor, ["dagger"], None),
        ("morphisms.deviation", mor, ["deviation"], None),
        ("structural", structural, ["structural"], _structural),
        ("matc.matmul", matc.MatModel, ["compose_payload"], _matmul),
        ("matc.kron", matc, ["mat_kron"], None),
        ("matc.eye", matc, ["mat_identity"], None),
        ("matc.perm", matc, ["commutation_perm"], None),
        ("matc.eig", matc, ["hermitian_eig"], _eig),
        ("fmat.relation", fmat, ["check_finiteness_relation"], _relation),
        ("fmat.sparse", fmat.SparseMatrix, ["__post_init__"], None),
        ("fmat.payload", fmat.FmatModel, [*payload, "include"], None),
        ("cplane.ops", cplane.CplaneModel, [*payload, "same_object"], None),
        ("cplane.ops", cplane, ["cplane_equiv"], None),
        ("laws.check_law", laws, ["check_law"], _check_law),
        ("suite", suite, ["run_suite"], _suite),
        ("cpinf.kraus", cpinf, ["kraus_new", "kraus_identity",
                                "kraus_compose", "kraus_tensor",
                                "kraus_par", "kraus_dagger"], None),
        ("cpinf.choi", cpinf, ["to_choi"], None),
        ("cpinf.purify", cpinf, ["purify"], None),
        ("cpinf.decide", cpinf, ["equiv_decide", "channel_deviation"], None),
        ("cpinf.oracle", cpinf, ["equiv_testmap_oracle"], _oracle),
        ("jsonio.read", jsonio, ["channel_from_json", "choi_from_json",
                                 "matrix_from_json", "fmat_from_json"],
         None),
        ("jsonio.write", jsonio, ["channel_to_json", "choi_to_json",
                                  "matrix_to_json", "fmat_to_json"], None),
        # the CLI's JSON text and file I/O: timed with the codecs, while
        # ``calls`` stays the number of documents converted
        ("jsonio.read", cli, ["_load"], None, False),
        ("jsonio.write", cli, ["_emit"], None, False),
        ("cli.main", cli, ["main"], None),
        ("cli.parse", cli, ["build_parser"], None),
        ("cli.parse", argparse.ArgumentParser, ["parse_args"], None),
    ]


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Wrap every traced boundary for the duration of the block."""
    modules = [mod for name, mod in list(sys.modules.items())
               if name == "mucinf" or name.startswith("mucinf.")]
    undo = []
    try:
        for key, owner, names, post, *counted in _targets():
            for name in names:
                if isinstance(owner, type):
                    original = owner.__dict__[name]
                    undo.append((owner, name, original))
                    setattr(owner, name,
                            tracer.wrap(key, original, post, *counted))
                    continue
                original = getattr(owner, name)
                traced = tracer.wrap(key, original, post, *counted)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            undo.append((mod, attr, original))
                            setattr(mod, attr, traced)
        yield tracer
    finally:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)
