"""Command-line front end.

Subcommands
-----------
exact-cdf   Q(x) on a grid via the partition series (any beta with
            integer Jack index).
exact-pdf   P(x) = -dQ/dx on the same footing.
beta2-cdf   Q(x) at beta=2 via the independent Laguerre-determinant route.
moments     mu_p of the smallest eigenvalue for one or more orders p.
limit-cdf   hard-edge limiting Q(y).
limit-pdf   hard-edge limiting P(y).
sample      Monte Carlo batch of trace-normalized smallest eigenvalues,
            written in the batch text format (JSON header + one float
            per line).
validate    sample, then Kolmogorov-Smirnov test against the best
            available reference CDF: the partition series when the Jack
            index is an integer, the N=2 closed-form oracle (an
            incomplete beta function) otherwise, and a split-half
            self-consistency test as the fallback.
selfcheck   fast internal invariant suite.

Exit status: 0 success, 1 validation/self-check failure (or a numerical
failure), 2 usage or domain error.

Output: --format csv (default) writes a `# config: {...}` comment line,
a header row, then rows with floats at full precision (%.17g); --format
json writes {"config", "results", "warnings"}.  PrecisionWarning
messages raised during evaluation are echoed to stderr and included in
the JSON "warnings" list.

The sampling seed comes from --seed, else the LAGMIN_SEED environment
variable, else a fixed default, so runs are reproducible by default.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import warnings

import numpy as np

from .core import SeriesAccuracy, params_new
from .errors import (
    DivergenceError,
    DomainError,
    EigensolverFailure,
    EmptySample,
    NumericalInconsistency,
)
from .exact import moment, p_exact, q_exact, q_oracle_n2
from .beta2 import q_exact_beta2
from .limit import LimitParams, p_limit, q_limit
from .sampler import STREAM, ks_two_sample, ks_validate, run_batch, write_batch

DEFAULT_SEED = 20260819
SEED_ENV_VAR = "LAGMIN_SEED"


def _grid(text: str):
    """Parse 'start:stop:points' into an inclusive float grid."""
    parts = text.split(":")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(
            f"grid must look like start:stop:points, got {text!r}"
        )
    try:
        start, stop, points = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad grid {text!r}: {exc}") from None
    if points < 2:
        raise argparse.ArgumentTypeError("grid needs at least 2 points")
    if not (start < stop):
        raise argparse.ArgumentTypeError("grid start must be < stop")
    step = (stop - start) / (points - 1)
    xs = [start + i * step for i in range(points)]
    xs[-1] = stop  # endpoint exactly, so x = 1/N hits the support edge
    return xs


def _positive_int(text: str) -> int:
    try:
        v = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
    if v < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {v}")
    return v


def _add_output(sp):
    sp.add_argument("--format", choices=("csv", "json"), default="csv")
    sp.add_argument("--out", default=None, help="output file (default: stdout)")


def _add_accuracy(sp):
    sp.add_argument("--tol", type=float, default=1e-12, help="series tail tolerance")
    sp.add_argument("--kmax", type=_positive_int, default=500, help="series term cap")


def _add_ensemble(sp, need_beta=True):
    if need_beta:
        sp.add_argument("--beta", type=float, required=True, help="Dyson index > 0")
    sp.add_argument("--N", type=_positive_int, required=True, dest="n_dim")
    sp.add_argument("--M", type=_positive_int, required=True, dest="m_dim")


def _add_sampling(sp):
    sp.add_argument("--samples", type=_positive_int, default=10000)
    sp.add_argument("--seed", type=int, default=None,
                    help=f"64-bit seed (default: ${SEED_ENV_VAR} or {DEFAULT_SEED})")
    sp.add_argument("--workers", type=_positive_int, default=1)


@functools.lru_cache(maxsize=1)
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process."""
    parser = argparse.ArgumentParser(
        prog="lagmin",
        description="smallest-eigenvalue laws of the fixed-trace beta-Laguerre ensemble",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name, help_text in (
        ("exact-cdf", "survival function Q(x) on a grid"),
        ("exact-pdf", "density P(x) on a grid"),
    ):
        sp = sub.add_parser(name, help=help_text)
        _add_ensemble(sp)
        sp.add_argument("--grid", type=_grid, required=True, metavar="START:STOP:POINTS")
        _add_output(sp)

    sp = sub.add_parser("beta2-cdf", help="Q(x) at beta=2 via the determinant route")
    sp.add_argument("--beta", type=float, default=2.0,
                    help="must be 2 (accepted for interface symmetry)")
    sp.add_argument("--N", type=_positive_int, required=True, dest="n_dim")
    sp.add_argument("--M", type=_positive_int, required=True, dest="m_dim")
    sp.add_argument("--grid", type=_grid, required=True, metavar="START:STOP:POINTS")
    _add_output(sp)

    sp = sub.add_parser("moments", help="moments mu_p of the smallest eigenvalue")
    _add_ensemble(sp)
    sp.add_argument("--p", type=_positive_int, nargs="+", required=True,
                    help="one or more moment orders")
    _add_output(sp)

    for name, help_text in (
        ("limit-cdf", "hard-edge limiting Q(y)"),
        ("limit-pdf", "hard-edge limiting P(y)"),
    ):
        sp = sub.add_parser(name, help=help_text)
        sp.add_argument("--beta", type=float, required=True)
        sp.add_argument("--m", type=int, required=True, dest="m_limit",
                        help="Jack index m >= 0")
        sp.add_argument("--grid", type=_grid, required=True, metavar="START:STOP:POINTS")
        _add_accuracy(sp)
        _add_output(sp)

    sp = sub.add_parser("sample", help="Monte Carlo batch in the batch text format")
    _add_ensemble(sp)
    _add_sampling(sp)
    sp.add_argument("--out", default=None, help="output file (default: stdout)")

    sp = sub.add_parser("validate", help="KS-test Monte Carlo draws against theory")
    _add_ensemble(sp)
    _add_sampling(sp)
    _add_output(sp)

    sub.add_parser("selfcheck", help="run the fast internal invariant suite")
    return parser


def _resolve_seed(args) -> int:
    if getattr(args, "seed", None) is not None:
        seed = args.seed
    else:
        env = os.environ.get(SEED_ENV_VAR)
        if env is not None:
            try:
                seed = int(env)
            except ValueError:
                raise DomainError(
                    f"{SEED_ENV_VAR} must be an integer, got {env!r}"
                ) from None
        else:
            seed = DEFAULT_SEED
    if not (0 <= seed < (1 << 64)):
        raise DomainError(f"seed must fit in 64 bits, got {seed}")
    return seed


def _format_cell(v):
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, int):
        return str(v)
    if isinstance(v, float):
        return f"{v:.17g}"
    return str(v)


def _emit(config: dict, rows: list, warn_msgs: list, fmt: str, out):
    if fmt == "json":
        text = json.dumps(
            {"config": config, "results": rows, "warnings": warn_msgs}, indent=2
        ) + "\n"
    else:
        lines = ["# config: " + json.dumps(config, sort_keys=True)]
        if rows:
            keys = list(rows[0].keys())
            lines.append(",".join(keys))
            for row in rows:
                lines.append(",".join(_format_cell(row[k]) for k in keys))
        text = "\n".join(lines) + "\n"
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _dispatch(args) -> int:
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = 0

        if args.command in ("exact-cdf", "exact-pdf"):
            params = params_new(args.beta, args.n_dim, args.m_dim)
            fn = q_exact if args.command == "exact-cdf" else p_exact
            name = "Q" if args.command == "exact-cdf" else "P"
            values = fn(params, np.array(args.grid)).tolist()
            rows = [{"x": x, name: v} for x, v in zip(args.grid, values)]
            config = {
                "command": args.command, "beta": params.beta, "N": params.n_dim,
                "M": params.m_dim, "jack_index": params.jack_index,
            }

        elif args.command == "beta2-cdf":
            if args.beta != 2.0:
                raise DomainError(
                    f"beta2-cdf is the beta=2 determinant route; got beta={args.beta}"
                )
            values = q_exact_beta2(args.n_dim, args.m_dim, np.array(args.grid)).tolist()
            rows = [{"x": x, "Q": v} for x, v in zip(args.grid, values)]
            config = {
                "command": args.command, "beta": 2.0,
                "N": args.n_dim, "M": args.m_dim,
            }

        elif args.command == "moments":
            params = params_new(args.beta, args.n_dim, args.m_dim)
            rows = [{"p": p, "value": moment(params, p)} for p in args.p]
            config = {
                "command": args.command, "beta": params.beta, "N": params.n_dim,
                "M": params.m_dim, "jack_index": params.jack_index,
            }

        elif args.command in ("limit-cdf", "limit-pdf"):
            if args.m_limit < 0:
                raise DomainError(f"--m must be >= 0, got {args.m_limit}")
            lp = LimitParams(args.beta, args.m_limit)
            acc = SeriesAccuracy(tail_tol=args.tol, k_max=args.kmax)
            fn = q_limit if args.command == "limit-cdf" else p_limit
            name = "Q" if args.command == "limit-cdf" else "P"
            values = fn(lp, np.array(args.grid), acc).tolist()
            rows = [{"y": y, name: v} for y, v in zip(args.grid, values)]
            config = {
                "command": args.command, "beta": lp.beta, "m": lp.jack_index,
                "tol": args.tol, "kmax": args.kmax,
            }

        elif args.command == "sample":
            params = params_new(args.beta, args.n_dim, args.m_dim)
            seed = _resolve_seed(args)
            batch = run_batch(params, args.samples, seed, args.workers)
            for w in caught:
                print(f"warning: {w.message}", file=sys.stderr)
            if args.out:
                with open(args.out, "w") as fh:
                    write_batch(batch, fh)
            else:
                write_batch(batch, sys.stdout)
            return 0

        elif args.command == "validate":
            params = params_new(args.beta, args.n_dim, args.m_dim)
            seed = _resolve_seed(args)
            batch = run_batch(params, args.samples, seed, args.workers)
            if params.jack_index is not None:
                route = "series"
                report = ks_validate(
                    batch, lambda x: 1.0 - q_exact(params, x), level=0.01
                )
            elif params.n_dim == 2:
                route = "quadrature"  # the N=2 oracle's stable JSON label
                report = ks_validate(
                    batch, lambda x: 1.0 - q_oracle_n2(params, x), level=0.01
                )
            else:
                route = "split-half"
                half = batch.count // 2
                if half == 0:
                    raise EmptySample("need at least 2 samples for split-half")
                report = ks_two_sample(
                    batch.values[:half], batch.values[half:], level=0.01
                )
            row = report.as_dict()
            row["route"] = route
            rows = [row]
            config = {
                "command": args.command, "beta": params.beta, "N": params.n_dim,
                "M": params.m_dim, "jack_index": params.jack_index,
                "samples": args.samples, "seed": seed, "stream": STREAM,
                "workers": args.workers,
            }
            code = 0 if report.passed else 1

        elif args.command == "selfcheck":
            from .selfcheck import run_all

            failures = run_all()
            return 0 if failures == 0 else 1

        else:  # pragma: no cover - argparse enforces the choices
            raise DomainError(f"unknown command {args.command!r}")

        warn_msgs = [str(w.message) for w in caught]

    for msg in warn_msgs:
        print(f"warning: {msg}", file=sys.stderr)
    _emit(config, rows, warn_msgs, args.format, args.out)
    return code


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0
    try:
        return _dispatch(args)
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (DivergenceError, NumericalInconsistency, EigensolverFailure, EmptySample) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entry():  # console-script hook
    sys.exit(main())


if __name__ == "__main__":
    entry()
