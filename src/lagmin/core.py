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
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainError, NonIntegerJackIndex

# Absolute tolerance for deciding that (beta/2)*alpha is an integer.
# beta is a machine real and every downstream series needs an exact
# integer index, so detect-within-tolerance then round.
_INT_TOL = 1e-12


@dataclass(frozen=True)
class EnsembleParams:
    """Validated parameter set (build with :func:`params_new`)."""

    beta: float
    n_dim: int
    m_dim: int
    alpha: float
    jack_index: int | None

    def __post_init__(self):
        if not (0 < self.beta < math.inf):
            raise DomainError(f"beta must be positive and finite, got {self.beta}")
        if self.n_dim < 1:
            raise DomainError(f"n_dim must be >= 1, got {self.n_dim}")
        if self.m_dim < self.n_dim:
            raise DomainError(
                f"m_dim must be >= n_dim, got M={self.m_dim} < N={self.n_dim}"
            )
        # recomputed by the same expression, so rounding cannot trip it
        if self.alpha != self.m_dim - self.n_dim + 1 - 2.0 / self.beta:
            raise DomainError(
                f"alpha must equal M - N + 1 - 2/beta, got alpha={self.alpha}"
            )


@dataclass(frozen=True)
class SeriesAccuracy:
    """Truncation policy for the partition series.

    tail_tol : relative tail bound for stopping a convergent series.
    k_max    : hard cap on the total partition weight k.
    """

    tail_tol: float = 1e-12
    k_max: int = 500

    def __post_init__(self):
        if not (self.tail_tol > 0):
            raise DomainError(f"tail_tol must be positive, got {self.tail_tol}")
        if self.k_max < 1:
            raise DomainError(f"k_max must be >= 1, got {self.k_max}")


DEFAULT_ACCURACY = SeriesAccuracy()


def params_new(beta: float, n_dim: int, m_dim: int) -> EnsembleParams:
    """Validate (beta, N, M) and derive alpha and the Jack index.

    The Jack index m = (beta/2)(M - N + 1 - 2/beta) is stored only when it
    is a nonnegative integer within 1e-12; otherwise ``jack_index`` is None
    and the series routes refuse to run.  In particular: for beta=2,
    m = M-N always; for beta=1, m exists iff M-N is odd; for beta=4,
    m = 2(M-N)+1 always.
    """
    beta = float(beta)
    if not (0 < beta < math.inf):
        raise DomainError(f"beta must be positive and finite, got {beta}")
    n_dim = _as_int(n_dim, "n_dim")
    m_dim = _as_int(m_dim, "m_dim")
    alpha = m_dim - n_dim + 1 - 2.0 / beta
    raw = 0.5 * beta * alpha
    jack_index = None
    if raw > -_INT_TOL and abs(raw - round(raw)) <= _INT_TOL:
        jack_index = int(round(raw))
    return EnsembleParams(
        beta=beta, n_dim=n_dim, m_dim=m_dim, alpha=alpha, jack_index=jack_index
    )


def require_jack_index(params: EnsembleParams) -> int:
    """Return the integer Jack index m, or raise NonIntegerJackIndex."""
    if params.jack_index is None:
        raise NonIntegerJackIndex(
            f"(beta/2)(M-N+1-2/beta) = {0.5 * params.beta * params.alpha:.6g} "
            f"is not a nonnegative integer for beta={params.beta}, "
            f"N={params.n_dim}, M={params.m_dim}; the partition-series "
            "formulas do not apply (use the Monte Carlo route)"
        )
    return params.jack_index


def _as_int(value, name: str) -> int:
    if isinstance(value, bool):
        raise DomainError(f"{name} must be an integer, got bool")
    if isinstance(value, int):
        return value
    if isinstance(value, float) and value.is_integer():
        return int(value)
    raise DomainError(f"{name} must be an integer, got {value!r}")
