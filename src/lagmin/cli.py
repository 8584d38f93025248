"""Command-line front end.

Every subcommand is declared once, in COMMANDS (name -> help text and
arguments).  A well-formed command line is read straight from that table
by _read: a command name, then declared flags spelled in full, each at
most once and followed by its value (values up to the next token that
starts with "-" for nargs="+"), no value starting with "-", every
required flag present, every value taken by its type and choices.  Any
other line (-h, --flag=value, an abbreviated, repeated, unknown or
missing flag, a value that starts with "-" or that its type or choices
refuse, no command or an unknown one) goes to the one argparse parser,
build_parser, built on first use, so its Namespace, usage text and help
are argparse's two-level ones, byte for byte.

The five grid commands share one path through _GRIDS (law, variable,
column), and their rows are written from one template per format.  Every
output goes through one writer, _write, to the --out file or to stdout; a
sample batch is streamed there, never built in memory.

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
    if not (math.isfinite(start) and math.isfinite(stop)):
        raise argparse.ArgumentTypeError(f"grid start and stop must be finite, got {text!r}")
    if points < 2:
        raise argparse.ArgumentTypeError("grid needs at least 2 points")
    if not (start < stop):
        raise argparse.ArgumentTypeError("grid start must be < stop")
    step = (stop - start) / (points - 1)
    if step == math.inf:
        raise argparse.ArgumentTypeError(f"grid span stop - start overflows a double, got {text!r}")
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
    """The argparse parser of every command line that _read does not take:
    help, usage errors and the spellings that only argparse reads."""
    parser = argparse.ArgumentParser(
        prog="lagmin",
        description="smallest-eigenvalue laws of the fixed-trace beta-Laguerre ensemble",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, arguments) in COMMANDS.items():
        command = sub.add_parser(name, help=help_text)
        for flag, keywords in arguments:
            command.add_argument(flag, **keywords)
    return parser


def _read(argv: list):
    """The Namespace that argparse gives a well-formed command line (see
    the module docstring), read from COMMANDS; None for any other line.
    Values are converted in the order of the line, as argparse does."""
    if not argv or argv[0] not in COMMANDS:
        return None
    arguments = dict(COMMANDS[argv[0]][1])
    given = {}
    for token in argv[1:]:
        if token.startswith("-"):
            if token not in arguments or token in given:
                return None
            given[token] = values = []
        elif not given:
            return None
        else:
            values.append(token)
    converted = {}
    for flag, values in given.items():
        keywords = arguments[flag]
        many = keywords.get("nargs") == "+"
        if len(values) != 1 and not (many and values):
            return None
        convert, choices = keywords.get("type", str), keywords.get("choices")
        try:
            values = [convert(v) for v in values]
        except (argparse.ArgumentTypeError, TypeError, ValueError):
            return None
        if choices is not None and any(v not in choices for v in values):
            return None
        converted[flag] = values if many else values[0]
    args = argparse.Namespace(command=argv[0])
    for flag, keywords in arguments.items():
        if flag in converted:
            value = converted[flag]
        elif keywords.get("required"):
            return None
        else:
            value = keywords.get("default")
        setattr(args, keywords.get("dest", flag[2:]), value)
    return args


def _parse(argv: list) -> argparse.Namespace:
    """The Namespace of a command line; a usage error raises SystemExit.
    _read takes a well-formed line, build_parser's parser every other."""
    args = _read(argv)
    return args if args is not None else build_parser().parse_args(argv)


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


#: float.__repr__ spells NaN and the infinities as "nan", "inf" and "-inf";
#: a JSON grid row spells them as _json does.
_JSON_NONFINITE = ((": nan", ": NaN"), (": inf", ": Infinity"), (": -inf", ": -Infinity"))


def _grid_rows(var: str, col: str, points: list, values: list, fmt: str) -> str:
    """The rows of a grid, each from one template: a JSON object in the
    results list of the indent-2 document, or a %.17g CSV line."""
    flat = [0.0] * (2 * len(points))
    flat[0::2] = points
    flat[1::2] = values
    if fmt != "json":
        return "\n".join(["%.17g,%.17g"] * len(points)) % tuple(flat)
    row = "\n    {\n      %s: %%r,\n      %s: %%r\n    }" % (
        encode_basestring_ascii(var), encode_basestring_ascii(col))
    text = ",".join([row] * len(points)) % tuple(flat)
    for spelled, json_spelled in _JSON_NONFINITE:
        text = text.replace(spelled, json_spelled)
    return text


def _emit(config: dict, results, warn_msgs: list, fmt: str, fh):
    """Write one output document.  results is a grid, (variable, column,
    points, values), or the list of row dicts of moments and validate."""
    grid = isinstance(results, tuple)
    if fmt == "json":
        if grid:
            text = ('{\n  "config": ' + _json(config, "\n  ") + ',\n  "results": ['
                    + _grid_rows(*results, fmt) + '\n  ],\n  "warnings": '
                    + _json(warn_msgs, "\n  ") + "\n}\n")
        else:
            text = _json({"config": config, "results": results, "warnings": warn_msgs}) + "\n"
    else:
        lines = ["# config: " + json.dumps(config, sort_keys=True)]
        if grid:
            lines += [results[0] + "," + results[1], _grid_rows(*results, fmt)]
        elif results:
            keys = list(results[0].keys())
            lines.append(",".join(keys))
            for row in results:
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
    else the (config, results) that _emit writes."""
    if args.command in _GRIDS:
        setup, law, var, col = _GRIDS[args.command]
        first, config = setup(args)
        return (config, (var, col, args.grid, law(first, np.array(args.grid)).tolist())), 0
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
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = _parse(argv)
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
