"""Command-line front end.

Every subcommand is declared once, in COMMANDS (name -> help text and
arguments), from which build_parser builds the parser.  The five grid
commands share one path through _GRIDS (law, variable, column).  Every
output goes through one writer, _write, to the --out file or to stdout;
a sample batch is streamed there, never built in memory.

Subcommands
-----------
exact-cdf   Q(x) on a grid via the partition series (integer Jack index).
exact-pdf   P(x) = -dQ/dx on the same footing.
beta2-cdf   Q(x) at beta=2 via the independent Laguerre-determinant route.
moments     mu_p of the smallest eigenvalue for one or more orders p.
limit-cdf   hard-edge limiting Q(y).
limit-pdf   hard-edge limiting P(y).
sample      Monte Carlo batch of trace-normalized smallest eigenvalues in
            the batch text format (JSON header + one float per line).
validate    sample, then a Kolmogorov-Smirnov test against the partition
            series (integer Jack index), else the N=2 closed-form oracle
            (an incomplete beta function), else a split-half test.
selfcheck   fast internal invariant suite.

Exit status: 0 success, 1 validation/self-check failure (or a numerical
failure), 2 usage or domain error, or an --out file that cannot be
written (one line `error: cannot write <path>: <reason>`).

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
import errno
import functools
import json
import math
import os
import sys
import warnings
from json.encoder import encode_basestring_ascii

import numpy as np

from .core import params_new
from .errors import DivergenceError, DomainError, EigensolverFailure, EmptySample
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
        raise argparse.ArgumentTypeError(f"grid must look like start:stop:points, got {text!r}")
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


_N_M = (("--N", dict(type=_positive_int, required=True, dest="n_dim")),
        ("--M", dict(type=_positive_int, required=True, dest="m_dim")))
_ENSEMBLE = (("--beta", dict(type=float, required=True, help="Dyson index > 0")), *_N_M)
_GRID = ("--grid", dict(type=_grid, required=True, metavar="START:STOP:POINTS"))
_LIMIT = (("--beta", dict(type=float, required=True)),
          ("--m", dict(type=int, required=True, dest="m_limit", help="Jack index m >= 0")), _GRID)
_SAMPLING = (("--samples", dict(type=_positive_int, default=10000)),
             ("--seed", dict(type=int, default=None,
                             help=f"64-bit seed (default: ${SEED_ENV_VAR} or {DEFAULT_SEED})")),
             ("--workers", dict(type=_positive_int, default=1)))
_OUT = ("--out", dict(default=None, help="output file (default: stdout)"))
_OUTPUT = (("--format", dict(choices=("csv", "json"), default="csv")), _OUT)
_ORDERS = ("--p", dict(type=_positive_int, nargs="+", required=True,
                       help="one or more moment orders"))

#: Every subcommand: name -> (help, arguments as (flag, add_argument keywords)).
COMMANDS = {
    "exact-cdf": ("survival function Q(x) on a grid", (*_ENSEMBLE, _GRID, *_OUTPUT)),
    "exact-pdf": ("density P(x) on a grid", (*_ENSEMBLE, _GRID, *_OUTPUT)),
    "beta2-cdf": ("Q(x) at beta=2 via the determinant route", (*_N_M, _GRID, *_OUTPUT)),
    "moments": ("moments mu_p of the smallest eigenvalue", (*_ENSEMBLE, _ORDERS, *_OUTPUT)),
    "limit-cdf": ("hard-edge limiting Q(y)", (*_LIMIT, *_OUTPUT)),
    "limit-pdf": ("hard-edge limiting P(y)", (*_LIMIT, *_OUTPUT)),
    "sample": ("Monte Carlo batch in the batch text format", (*_ENSEMBLE, *_SAMPLING, _OUT)),
    "validate": ("KS-test Monte Carlo draws against theory",
                 (*_ENSEMBLE, *_SAMPLING, *_OUTPUT)),
    "selfcheck": ("run the fast internal invariant suite", ()),
}


@functools.lru_cache(maxsize=1)
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process from COMMANDS."""
    parser = argparse.ArgumentParser(
        prog="lagmin",
        description="smallest-eigenvalue laws of the fixed-trace beta-Laguerre ensemble",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, arguments) in COMMANDS.items():
        sp = sub.add_parser(name, help=help_text)
        for flag, keywords in arguments:
            sp.add_argument(flag, **keywords)
    return parser


def _ensemble(args):
    """The validated EnsembleParams and the config of the ensemble commands."""
    params = params_new(args.beta, args.n_dim, args.m_dim)
    return params, {"command": args.command, "beta": params.beta, "N": params.n_dim,
                    "M": params.m_dim, "jack_index": params.jack_index}


def _beta2(args):
    return args, {"command": args.command, "beta": 2.0, "N": args.n_dim, "M": args.m_dim}


def _limit(args):
    lp = LimitParams(args.beta, args.m_limit)
    return lp, {"command": args.command, "beta": lp.beta, "m": lp.jack_index}


#: The grid commands: name -> (setup, law, variable, column).  setup(args)
#: gives the law's first argument and the config; law(first, grid array)
#: looks its function up when called, so a wrapped module global is used.
_GRIDS = {
    "exact-cdf": (_ensemble, lambda p, x: q_exact(p, x), "x", "Q"),
    "exact-pdf": (_ensemble, lambda p, x: p_exact(p, x), "x", "P"),
    "beta2-cdf": (_beta2, lambda a, x: q_exact_beta2(a.n_dim, a.m_dim, x), "x", "Q"),
    "limit-cdf": (_limit, lambda lp, y: q_limit(lp, y), "y", "Q"),
    "limit-pdf": (_limit, lambda lp, y: p_limit(lp, y), "y", "P"),
}


def _resolve_seed(args) -> int:
    if args.seed is not None:
        return args.seed
    env = os.environ.get(SEED_ENV_VAR)
    if env is None:
        return DEFAULT_SEED
    try:
        return int(env)
    except ValueError:
        raise DomainError(f"{SEED_ENV_VAR} must be an integer, got {env!r}") from None


def _format_cell(v):
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return f"{v:.17g}"
    return str(v)


def _json(value, pad: str = "\n") -> str:
    """json.dumps(value, indent=2) for the str-keyed dicts, lists and
    scalars of an output, built by joins: indent= would select json's
    pure-Python encoder."""
    if isinstance(value, float):
        if math.isfinite(value):
            return float.__repr__(value)
        return "NaN" if value != value else ("Infinity" if value > 0 else "-Infinity")
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if value is None or isinstance(value, bool):
        return "null" if value is None else ("true" if value else "false")
    if isinstance(value, int):
        return int.__repr__(value)
    inner = pad + "  "
    if isinstance(value, dict):
        if not value:
            return "{}"
        return "{" + inner + ("," + inner).join(
            encode_basestring_ascii(k) + ": " + _json(v, inner)
            for k, v in value.items()) + pad + "}"
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        return "[" + inner + ("," + inner).join(_json(v, inner) for v in value) + pad + "]"
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _emit(config: dict, rows: list, warn_msgs: list, fmt: str, fh):
    if fmt == "json":
        text = _json({"config": config, "results": rows, "warnings": warn_msgs}) + "\n"
    else:
        lines = ["# config: " + json.dumps(config, sort_keys=True)]
        if rows:
            keys = list(rows[0].keys())
            lines.append(",".join(keys))
            for row in rows:
                lines.append(",".join(_format_cell(row[k]) for k in keys))
        text = "\n".join(lines) + "\n"
    fh.write(text)


def _check_out(out) -> None:
    """DomainError, before any work, where open(out, "w") would fail: an
    empty path, a directory, or a parent missing or not a directory."""
    if out is None:
        return
    try:
        if os.path.isdir(out):
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR))
        os.stat(os.path.join(os.path.dirname(out) or ".", "") if out else "")
    except OSError as exc:
        raise DomainError(f"cannot write {out}: {exc.strerror}") from None


def _write(out, write) -> None:
    """Call write(fh) on the --out file, or on stdout when there is none;
    a file that cannot be written is a DomainError."""
    if out is None:
        write(sys.stdout)
        return
    try:
        with open(out, "w") as fh:
            write(fh)
    except OSError as exc:
        raise DomainError(f"cannot write {out}: {exc.strerror}") from None


def _run(args):
    """(result, exit code) of one command: the SampleBatch of sample,
    else the (config, rows) that _emit writes."""
    if args.command in _GRIDS:
        setup, law, var, col = _GRIDS[args.command]
        first, config = setup(args)
        values = law(first, np.array(args.grid)).tolist()
        return (config, [{var: x, col: v} for x, v in zip(args.grid, values)]), 0
    params, config = _ensemble(args)
    if args.command == "moments":
        return (config, [{"p": p, "value": moment(params, p)} for p in args.p]), 0
    seed = _resolve_seed(args)
    batch = run_batch(params, args.samples, seed, args.workers)
    if args.command == "sample":
        return batch, 0
    if params.jack_index is not None:
        route = "series"
        report = ks_validate(batch, lambda x: 1.0 - q_exact(params, x), level=0.01)
    elif params.n_dim == 2:
        route = "quadrature"  # the N=2 oracle's stable JSON label
        report = ks_validate(batch, lambda x: 1.0 - q_oracle_n2(params, x), level=0.01)
    else:
        route = "split-half"
        half = batch.count // 2
        if half == 0:
            raise EmptySample("need at least 2 samples for split-half")
        report = ks_two_sample(batch.values[:half], batch.values[half:], level=0.01)
    config.update(samples=args.samples, seed=seed, stream=STREAM, workers=args.workers)
    return (config, [{**report.as_dict(), "route": route}]), 0 if report.passed else 1


def _dispatch(args) -> int:
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        if args.command == "selfcheck":
            from .selfcheck import run_all
            return 0 if run_all() == 0 else 1
        _check_out(args.out)
        result, code = _run(args)
    warn_msgs = [str(w.message) for w in caught]
    for msg in warn_msgs:
        print(f"warning: {msg}", file=sys.stderr)
    if args.command == "sample":
        _write(args.out, lambda fh: write_batch(result, fh))
    else:
        _write(args.out, lambda fh: _emit(*result, warn_msgs, args.format, fh))
    return code


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0
    try:
        return _dispatch(args)
    except (DomainError, DivergenceError, EigensolverFailure, EmptySample) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, DomainError) else 1


def entry():  # console-script hook
    sys.exit(main())


if __name__ == "__main__":
    entry()
