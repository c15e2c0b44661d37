"""Command-line front door.

stdout carries machine-readable JSON only; diagnostics go to stderr.  Exit
codes: 0 success (for ``channel-equiv``: equivalent), 1 law failure or
inequivalence, 2 usage or I/O error.  ``MUC_CPINF_SEED`` provides the seed
when ``--seed`` is absent; ``--tol`` must be positive and finite.

The parser is built once per process, on the first ``main`` call, and
shared by every later call: ``parse_args`` keeps no state between calls.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys

import numpy as np

from . import cpinf, jsonio
from .errors import MucinfError
from .suite import SuiteConfig, list_laws, run_suite


def _default_seed() -> int:
    env = os.environ.get("MUC_CPINF_SEED")
    try:
        return int(env) if env else 0
    except ValueError:
        raise ValueError(f"MUC_CPINF_SEED is not an integer: {env!r}") from None


def _emit(payload, out_path, seed, tol):
    if isinstance(payload, dict):
        payload = dict(payload)
        payload.setdefault("seed", seed)
        payload.setdefault("tol", tol)
    text = payload if isinstance(payload, str) else json.dumps(
        payload, sort_keys=True, indent=None)
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _load(path) -> dict:
    with open(path) as fh:
        return json.load(fh)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mucinf",
        description="coherence-law suite and channel toolbox")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=None,
                        help="random seed (default: MUC_CPINF_SEED or 0)")
    common.add_argument("--tol", type=float, default=1e-9,
                        help="comparison tolerance")
    common.add_argument("--out", default=None, help="write output here "
                        "instead of stdout")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("laws-run", parents=[common],
                       help="run the law suite and print one report per line")
    p.add_argument("--model", action="append",
                   choices=("mat", "fmat", "cplane"), default=None,
                   help="restrict to a model (repeatable; default: all)")
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--filter", dest="law_filter", default="*",
                   help="glob over law ids")

    sub.add_parser("laws-list", parents=[common],
                   help="print the machine-readable law catalog")

    p = sub.add_parser("channel-compose", parents=[common])
    p.add_argument("first")
    p.add_argument("second")

    p = sub.add_parser("channel-equiv", parents=[common])
    p.add_argument("first")
    p.add_argument("second")

    p = sub.add_parser("channel-choi", parents=[common])
    p.add_argument("channel")

    p = sub.add_parser("channel-decompose", parents=[common])
    p.add_argument("channel")

    p = sub.add_parser("channel-purify", parents=[common])
    p.add_argument("choi")

    p = sub.add_parser("channel-apply", parents=[common])
    p.add_argument("channel")
    p.add_argument("density")

    p = sub.add_parser("fmat-check", parents=[common])
    p.add_argument("matrix")
    return parser


# an overflow yields a non-finite result, which the commands refuse, rather
# than numpy warnings; scoped to the call, as callers may run main in-process
@np.errstate(over="ignore", invalid="ignore")
def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    tol = args.tol
    try:
        # positive as in SuiteConfig, and finite, as JSON has no NaN or inf
        if not 0 < tol < math.inf:
            raise ValueError(f"tolerance must be positive and finite, "
                             f"got {tol}")
        seed = args.seed if args.seed is not None else _default_seed()
        if args.command == "laws-run":
            models = tuple(args.model) if args.model \
                else ("mat", "cplane", "fmat")
            cfg = SuiteConfig(models=models, law_filter=args.law_filter,
                              trials=args.trials, seed=seed, tol=tol)
            reports = run_suite(cfg)
            text = "\n".join(jsonio.reports_to_lines(reports))
            _emit(text, args.out, seed, tol)
            return 0 if all(r.passed for r in reports) else 1

        if args.command == "laws-list":
            _emit({"laws": list_laws()}, args.out, seed, tol)
            return 0

        if args.command == "channel-compose":
            k1 = jsonio.channel_from_json(_load(args.first))
            k2 = jsonio.channel_from_json(_load(args.second))
            _emit(jsonio.channel_to_json(cpinf.kraus_compose(k1, k2)),
                  args.out, seed, tol)
            return 0

        if args.command == "channel-equiv":
            k1 = jsonio.channel_from_json(_load(args.first))
            k2 = jsonio.channel_from_json(_load(args.second))
            dev = cpinf.channel_deviation(k1, k2)
            # phrased so that NaN, which fails every comparison, is
            # inequivalent
            verdict = bool(dev <= tol)
            _emit({"equivalent": verdict, "deviation": dev},
                  args.out, seed, tol)
            return 0 if verdict else 1

        if args.command == "channel-choi":
            k = jsonio.channel_from_json(_load(args.channel))
            _emit(jsonio.choi_to_json(cpinf.to_choi(k)), args.out, seed, tol)
            return 0

        if args.command == "channel-decompose":
            k = jsonio.channel_from_json(_load(args.channel))
            blocks = cpinf.pure_decomposition(k)
            _emit({"kraus": [jsonio.matrix_to_json(b) for b in blocks]},
                  args.out, seed, tol)
            return 0

        if args.command == "channel-purify":
            choi = jsonio.choi_from_json(_load(args.choi))
            _emit(jsonio.channel_to_json(cpinf.purify(choi)),
                  args.out, seed, tol)
            return 0

        if args.command == "channel-apply":
            k = jsonio.channel_from_json(_load(args.channel))
            rho = jsonio.matrix_from_json(_load(args.density))
            _emit(jsonio.matrix_to_json(cpinf.channel_action(k, rho, tol)),
                  args.out, seed, tol)
            return 0

        if args.command == "fmat-check":
            report = jsonio.fmat_check_report(_load(args.matrix))
            _emit(report, args.out, seed, tol)
            return 0 if report["valid"] else 1

    except (MucinfError, OSError, KeyError, ValueError,
            json.JSONDecodeError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    return 2


if __name__ == "__main__":
    sys.exit(main())
