"""Command-line front door.

stdout carries machine-readable JSON only; diagnostics go to stderr.  Exit
codes: 0 success (for ``channel-equiv``: equivalent), 1 law failure or
inequivalence, 2 usage or I/O error.  ``MUC_CPINF_SEED`` provides the seed
when ``--seed`` is absent; ``--tol`` must be positive and finite.

``COMMANDS`` is the one table of subcommands: ``build_parser`` adds one
subparser per row, once per process (``parse_args`` keeps no state between
calls), and ``main`` runs the chosen row's handler and writes its output.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from collections import namedtuple

import numpy as np

from . import cpinf, jsonio
from .errors import MucinfError, TypingError
from .morphisms import TOL, positive_tolerance, within
from .suite import SuiteConfig, list_laws, run_suite


def _default_seed() -> int:
    env = os.environ.get("MUC_CPINF_SEED")
    try:
        return int(env) if env else 0
    except ValueError:
        raise ValueError(f"MUC_CPINF_SEED is not an integer: {env!r}") from None


def _emit(payload, out_path, seed, tol):
    text = payload if isinstance(payload, str) else json.dumps(
        {"seed": seed, "tol": tol, **payload}, sort_keys=True)
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _load(path) -> dict:
    with open(path) as fh:
        try:
            return json.load(fh)
        except RecursionError:  # the decoder's, on deeply nested arrays
            raise TypingError(f"{path}: JSON nested too deeply") from None


def _channel(path):
    return jsonio.channel_from_json(_load(path))


def _laws_run(args, seed, tol):
    reports = run_suite(SuiteConfig(
        models=tuple(args.model or ("mat", "cplane", "fmat")),
        law_filter=args.law_filter, trials=args.trials, seed=seed, tol=tol))
    return ("\n".join(jsonio.reports_to_lines(reports)),
            all(r.passed for r in reports))


def _channel_equiv(args, seed, tol):
    dev = cpinf.channel_deviation(_channel(args.first), _channel(args.second))
    verdict = within(dev, tol)
    return {"equivalent": verdict, "deviation": dev}, verdict


def _fmat_check(args, seed, tol):
    report = jsonio.fmat_check_report(_load(args.matrix))
    return report, report["valid"]


Command = namedtuple("Command", "help positionals handler options",
                     defaults=((),))

# a row per subcommand, in --help order; a help of None leaves it unlisted;
# handler(args, seed, tol) -> (output, ok) looks its callees up when it runs
COMMANDS = {
    "laws-run": Command(
        "run the law suite and print one report per line", (), _laws_run,
        (("--model", dict(action="append", choices=("mat", "fmat", "cplane"),
                          default=None, help="restrict to a model "
                          "(repeatable; default: all)")),
         ("--trials", dict(type=int, default=100)),
         ("--filter", dict(dest="law_filter", default="*",
                           help="glob over law ids")))),
    "laws-list": Command("print the machine-readable law catalog", (),
                         lambda *_: ({"laws": list_laws()}, True)),
    "channel-compose": Command(None, ("first", "second"), lambda args, *_: (
        jsonio.channel_to_json(cpinf.kraus_compose(
            _channel(args.first), _channel(args.second))), True)),
    "channel-equiv": Command(None, ("first", "second"), _channel_equiv),
    "channel-choi": Command(None, ("channel",), lambda args, *_: (
        jsonio.choi_to_json(cpinf.to_choi(_channel(args.channel))), True)),
    "channel-decompose": Command(None, ("channel",), lambda args, *_: (
        {"kraus": [jsonio.matrix_to_json(b) for b in
                   cpinf.pure_decomposition(_channel(args.channel))]}, True)),
    "channel-purify": Command(None, ("choi",), lambda args, *_: (
        jsonio.channel_to_json(cpinf.purify(
            jsonio.choi_from_json(_load(args.choi)))), True)),
    "channel-apply": Command(
        None, ("channel", "density"), lambda args, _, tol: (
            jsonio.matrix_to_json(cpinf.channel_action(
                _channel(args.channel),
                jsonio.matrix_from_json(_load(args.density)), tol)), True)),
    "fmat-check": Command(None, ("matrix",), _fmat_check),
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mucinf",
        description="coherence-law suite and channel toolbox")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=None,
                        help="random seed (default: MUC_CPINF_SEED or 0)")
    common.add_argument("--tol", type=float, default=TOL,
                        help="comparison tolerance")
    common.add_argument("--out", default=None, help="write output here "
                        "instead of stdout")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, row in COMMANDS.items():
        # any help= keyword, even None, lists the subcommand in --help
        listed = {"help": row.help} if row.help else {}
        p = sub.add_parser(name, parents=[common], **listed)
        for positional in row.positionals:
            p.add_argument(positional)
        for flag, kwargs in row.options:
            p.add_argument(flag, **kwargs)
    return parser


# an overflow yields a non-finite result, which the commands refuse, rather
# than numpy warnings; scoped to the call, as callers may run main in-process
@np.errstate(over="ignore", invalid="ignore")
def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    tol = args.tol
    try:
        # as in SuiteConfig; JSON has no NaN or inf either
        positive_tolerance(tol)
        seed = args.seed if args.seed is not None else _default_seed()
        output, ok = COMMANDS[args.command].handler(args, seed, tol)
        _emit(output, args.out, seed, tol)
        return 0 if ok else 1
    except (MucinfError, OSError, KeyError, ValueError,
            json.JSONDecodeError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
