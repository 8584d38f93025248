"""Parameter objects and validation shared by every other module.

The ensemble is the fixed-trace Laguerre beta-ensemble: N eigenvalues
0 < lambda_1, ..., lambda_N constrained to sum to 1, with joint density
proportional to

    delta(sum lambda - 1) * prod_i lambda_i^(beta*alpha/2)
                          * prod_{i<j} |lambda_i - lambda_j|^beta,

where alpha = M - N + 1 - 2/beta and M >= N is the larger dimension.
The partition-series formulas for the smallest-eigenvalue law apply only
when m = (beta/2)*alpha is a nonnegative integer; `jack_index` carries
that value when it exists.

Argument rules: every integer argument of the public API (N, M, m,
alpha, p, count, workers, seed) goes through `_as_int`, every other
number through `_floats`, and every point x or y through `_points`
(entries >= 0, no NaN; an array only where the law takes one).  A bad
argument raises DomainError.  Every finite-N law, the N=2 oracle and the
alpha=2 sum included, is 0 past x = 1/N, and every survival function,
the hard-edge closed forms included, is at most 1.

The accuracy policy lives here too: TAIL_TOL and K_MAX truncate the
hard-edge series and its closed forms, ENVELOPES holds each route's
validated parameter bands, and warn_outside issues the one
PrecisionWarning of a call that leaves them (the call still returns its
value).
"""

from __future__ import annotations

import math
import numbers
import os
import sys
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, NonIntegerJackIndex, PrecisionWarning

# Absolute tolerance for deciding that (beta/2)*alpha is an integer.
# beta is a machine real and every downstream series needs an exact
# integer index, so detect-within-tolerance then round.
_INT_TOL = 1e-12

#: Bound on a Jack index: from 2^52 on every double is an integer, so the
#: test above proves nothing (at beta = 1e20, N = M = 2 it rounds
#: 5e19 - 1 to 5e19), and no series of that index could be built.
JACK_MAX = 2**52

#: The hard-edge series, its closed forms included, stops at its second
#: consecutive term at or below TAIL_TOL times its partial sum; needing a
#: power past K_MAX is a DivergenceError.  Read at call time.
TAIL_TOL = 1e-12
K_MAX = 500

#: Validated envelope, route -> parameter -> (low, high), bounds included;
#: the lows are the domain edges except the N=2 oracle's beta.  The limit
#: row bounds the largest y in (0, inf): Q and P are exact at 0 and inf.
#: The exact row bounds N and m, not beta: at N = 2, q_exact and p_exact
#: were within 5e-15 relative of 60-digit references at m <= 3, and
#: within 4.5e-14 at m = 16, at beta = 0.01, 1e-3, 1e-6, 1e-9 and 1e-15.
ENVELOPES = {
    "exact": {"N": (1, 50), "m": (0, 6)},  # q_exact, p_exact, moment
    "beta2": {"N": (1, 30), "alpha": (0, 6)},  # q_exact_beta2, alpha = M - N
    "limit": {"y": (0.0, 100.0), "m": (0, 6)},  # q_limit, p_limit
    "bessel": {"x": (0.0, 60.0)},  # q_limit_closed at x = sqrt(y), m = 1, 2 (README table)
    "oracle_n2": {"beta": (0.1, 8.0), "M": (2, 200)},  # q_oracle_n2
}

_PACKAGE_DIR = os.path.dirname(__file__) + os.sep


@dataclass(frozen=True)
class EnsembleParams:
    """The validated law of (beta, N, M), as :func:`params_new` builds it.

    alpha and the Jack index m = (beta/2) alpha are derived, never passed
    in; ``jack_index`` is m when it is a nonnegative integer within 1e-12
    and below JACK_MAX, else None, and the series routes refuse to run.
    For beta=2, m = M-N always; for beta=1, m exists iff M-N is odd; for
    beta=4, m = 2(M-N)+1.
    """

    beta: float
    n_dim: int
    m_dim: int
    alpha: float = field(init=False, compare=False)
    jack_index: int | None = field(init=False, compare=False)

    def __post_init__(self):
        beta = _positive_beta(self.beta)
        n_dim = _as_int(self.n_dim, "n_dim", 1)
        m_dim = _as_int(self.m_dim, "m_dim", n_dim)
        alpha = m_dim - n_dim + 1 - 2.0 / beta
        raw = 0.5 * beta * alpha
        jack_index = None
        if -_INT_TOL < raw < JACK_MAX and abs(raw - round(raw)) <= _INT_TOL:
            jack_index = int(round(raw))
        for name, value in (("beta", beta), ("n_dim", n_dim), ("m_dim", m_dim),
                            ("alpha", alpha), ("jack_index", jack_index)):
            object.__setattr__(self, name, value)


def params_new(beta: float, n_dim: int, m_dim: int) -> EnsembleParams:
    """Validate (beta, N, M) and derive alpha and the Jack index."""
    return EnsembleParams(beta, n_dim, m_dim)


def require_jack_index(params: EnsembleParams) -> int:
    """Return the integer Jack index m, or raise NonIntegerJackIndex."""
    if params.jack_index is None:
        raise NonIntegerJackIndex(
            f"(beta/2)(M-N+1-2/beta) = {0.5 * params.beta * params.alpha:.6g} "
            f"is not a nonnegative integer below 2^52 for beta={params.beta}, "
            f"N={params.n_dim}, M={params.m_dim}; the partition-series "
            "formulas do not apply (use the Monte Carlo route)"
        )
    return params.jack_index


def _positive_beta(beta) -> float:
    """beta as a float; DomainError unless it is a positive, finite number
    (by the rule of _floats: a bool or a string is not one)."""
    if type(beta) is int:
        try:
            beta = float(beta)
        except OverflowError:  # an int past the float range
            beta = math.inf if beta > 0 else -math.inf
    elif type(beta) is not float:  # a float is one already
        beta = float(_floats(beta, "beta", scalar=True))
    if not (0 < beta < math.inf):
        raise DomainError(f"beta must be positive and finite, got {beta}")
    return beta


def _as_int(value, name: str, low: int) -> int:
    """value as an int >= low, the one integer rule: any integer type
    (numpy's included) or an integral float, never a bool."""
    if isinstance(value, (bool, np.bool_)):
        raise DomainError(f"{name} must be an integer, got bool")
    if not (isinstance(value, numbers.Integral) or isinstance(value, float) and value.is_integer()):
        raise DomainError(f"{name} must be an integer, got {value!r}")
    if value < low:
        raise DomainError(f"{name} must be >= {low}, got {int(value)}")
    return int(value)


def _floats(value, name: str, scalar: bool = False) -> np.ndarray:
    """A number, or unless scalar an array of them, as a float array; a
    bool or a string is not a number."""
    try:
        xs = np.asarray(value)
        if xs.dtype.kind not in "iuf":
            raise TypeError
    except (TypeError, ValueError):  # ValueError: a ragged nest of lists
        raise DomainError(f"{name} must be a number, got {value!r}") from None
    if scalar and xs.ndim:
        raise DomainError(f"{name} must be a number, got an array of shape {xs.shape}")
    return xs.astype(float, copy=False)


def _points(value, name: str, scalar: bool = False):
    """The one converter of a point x or y: a float array, or a float if
    scalar, every entry >= 0 (so no NaN)."""
    xs = _floats(value, name, scalar)
    if not np.all(xs >= 0):
        raise DomainError(f"{name} must be >= 0, got {xs[~(xs >= 0)].flat[0]}")
    return float(xs) if scalar else xs


def warn_outside(route: str, **values) -> None:
    """Issue one PrecisionWarning if a value leaves its band in
    ENVELOPES[route], attributed to the innermost caller outside this
    package."""
    bands = ENVELOPES[route]
    if all(bands[k][0] <= v <= bands[k][1] for k, v in values.items()):
        return
    level, frame = 1, sys._getframe()
    while frame.f_back is not None and frame.f_code.co_filename.startswith(_PACKAGE_DIR):
        level, frame = level + 1, frame.f_back
    given = ", ".join(f"{k}={v}" for k, v in values.items())
    limits = ", ".join(f"{lo} <= {k} <= {hi}" for k, (lo, hi) in bands.items())
    warnings.warn(f"{given} is outside the validated envelope of the {route} route "
                  f"({limits}); results are best-effort", PrecisionWarning, stacklevel=level)
