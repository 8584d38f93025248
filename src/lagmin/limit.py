"""Hard-edge scaling limit of the smallest-eigenvalue laws.

Under x = y/(4 N^3) the finite-N survival function converges, for fixed
beta and Jack index m, to

    Q(y) = exp(-beta*y/8) * 0F1^{(beta/2)}(2m/beta; (y/4) * 1^m),

a hypergeometric function of m equal arguments.  The density is
P(y) = -dQ/dy, assembled here termwise from the same series: with
F(u) = sum_k c_k u^k (u = y/4) one has

    P(y) = exp(-beta*y/8) * sum_j d_j u^j,
    d_j  = (beta/8) c_j - ((j+1)/4) c_{j+1},

which is exact, avoids finite differencing, and keeps every coefficient
positive until the subtraction.

Closed forms (q_limit_closed) exist for m = 0 (pure exponential), m = 1
(a single Bessel-I factor), and (beta, m) = (2, 2) (a Wronskian-like
I0^2 - I1^2 combination); for all other parameter pairs the closed form
is unavailable and None is returned.

A note on the m = 1 closed form: the Bessel order consistent with the
series (and with the beta = 2 Bessel kernel) is 2/beta - 1.  Orders that
look like beta/2 - 1 appear plausible but disagree with the series for
beta != 2 and are rejected by prefactor_diagnostics.

p_limit_printed implements a frequently quoted "explicit density"
prefactor A(m, beta); it does NOT integrate to one and disagrees with
-dQ/dy by parameter-dependent constant factors (already at m = 0 it
gives (beta/2)^(beta/2+1) instead of beta/8 at y -> 0).  It is retained
solely so prefactor_diagnostics can quantify the mismatch; use p_limit
for anything quantitative.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import lru_cache

from .core import DEFAULT_ACCURACY, SeriesAccuracy
from .errors import DivergenceError, DomainError, NumericalInconsistency, PrecisionWarning
from .jack import JackTable, enumerate_partitions, gen_factorial, hyper_pfq_equal
from .numerics import bessel_i, log_gamma

Y_ENVELOPE = 100.0
M_ENVELOPE = 6


@dataclass(frozen=True)
class LimitParams:
    """Scaling-limit parameter pair: Dyson index beta > 0 and Jack index
    m = (beta/2)(M - N + 1 - 2/beta), a nonnegative integer."""

    beta: float
    jack_index: int

    def __post_init__(self):
        if not (self.beta > 0.0) or not math.isfinite(self.beta):
            raise DomainError(f"beta must be positive and finite, got {self.beta}")
        if not isinstance(self.jack_index, int) or isinstance(self.jack_index, bool):
            raise DomainError(f"jack_index must be an int, got {self.jack_index!r}")
        if self.jack_index < 0:
            raise DomainError(f"jack_index must be >= 0, got {self.jack_index}")


def _warn_envelope(lp: LimitParams, y: float):
    if y > Y_ENVELOPE or lp.jack_index > M_ENVELOPE:
        warnings.warn(
            f"y={y}, m={lp.jack_index} is outside the validated envelope "
            f"(y <= {Y_ENVELOPE}, m <= {M_ENVELOPE}); results are best-effort",
            PrecisionWarning,
            stacklevel=3,
        )


@lru_cache(maxsize=None)
def _f01_coeff(beta: float, m: int, k: int) -> float:
    """Taylor coefficient c_k of 0F1^{(beta/2)}(2m/beta; u * 1^m):
    c_k = sum_{|kappa|=k, len<=m} C_kappa(1^m) / ([2m/beta]_kappa k!)."""
    if m == 0:
        return 1.0 if k == 0 else 0.0
    if k == 0:
        return 1.0
    nu = 0.5 * beta
    b = 2.0 * m / beta
    table = JackTable(nu, m)
    total = 0.0
    for kappa in enumerate_partitions(k, max_len=m):
        total += table.value(kappa) / gen_factorial(b, kappa, nu)
    return total / math.factorial(k)


def q_limit(lp: LimitParams, y: float, acc: SeriesAccuracy = DEFAULT_ACCURACY) -> float:
    """Limiting survival function Q(y) = Prob(scaled smallest eigenvalue > y);
    exactly 0 at y = +inf."""
    if not (y >= 0):
        raise DomainError(f"y must be >= 0, got {y}")
    if y == 0.0:
        return 1.0
    if y == math.inf:
        return 0.0
    _warn_envelope(lp, y)
    m = lp.jack_index
    damp = math.exp(-lp.beta * y / 8.0)
    if m == 0:
        return damp
    f = hyper_pfq_equal((), (2.0 * m / lp.beta,), 0.5 * lp.beta, m, y / 4.0, acc)
    return damp * f


def p_limit(lp: LimitParams, y: float, acc: SeriesAccuracy = DEFAULT_ACCURACY) -> float:
    """Limiting density P(y) = -dQ/dy, assembled termwise from the
    hypergeometric coefficients (no finite differencing); exactly 0 at
    y = +inf."""
    if not (y >= 0):
        raise DomainError(f"y must be >= 0, got {y}")
    beta, m = lp.beta, lp.jack_index
    if y == 0.0:
        # d_0 = (beta/8) c_0 - c_1/4 and c_1 = beta/2 whenever m >= 1
        return beta / 8.0 if m == 0 else 0.0
    if y == math.inf:
        return 0.0
    _warn_envelope(lp, y)
    u = y / 4.0
    total = 0.0
    comp = 0.0
    scale = 0.0
    u_pow = 1.0
    streak = 0
    for j in range(acc.k_max):
        cj = _f01_coeff(beta, m, j)
        cj1 = _f01_coeff(beta, m, j + 1)
        pos = (beta / 8.0) * cj + ((j + 1) / 4.0) * cj1
        dj = (beta / 8.0) * cj - ((j + 1) / 4.0) * cj1
        term = dj * u_pow
        t = total + term
        if abs(total) >= abs(term):
            comp += (total - t) + term
        else:
            comp += (term - t) + total
        total = t
        scale += pos * u_pow
        if pos * u_pow <= acc.tail_tol * max(scale, 1e-300):
            streak += 1
            if streak >= 2:
                break
        else:
            streak = 0
        u_pow *= u
        if not math.isfinite(u_pow) or not math.isfinite(scale):
            raise DivergenceError(
                f"density series overflowed at y={y} (beta={beta}, m={m})"
            )
    else:
        raise DivergenceError(
            f"density series did not converge within k_max={acc.k_max} "
            f"at y={y} (beta={beta}, m={m})"
        )
    val = (total + comp) * math.exp(-beta * y / 8.0)
    if val < 0.0:
        if val < -1e-9:
            raise NumericalInconsistency(
                f"density {val} is negative beyond roundoff at y={y}"
            )
        return 0.0
    return val


def q_limit_closed(lp: LimitParams, y: float):
    """Closed-form Q(y) where one exists; None when unavailable.

    m = 0:             exp(-beta*y/8)
    m = 1:             2^(2/beta - 1) Gamma(2/beta) e^(-beta*y/8)
                       * y^(1/2 - 1/beta) I_{2/beta - 1}(sqrt(y))
    (beta, m) = (2,2): e^(-y/4) [I_0(sqrt(y))^2 - I_1(sqrt(y))^2]
    """
    if y < 0:
        raise DomainError(f"y must be >= 0, got {y}")
    beta, m = lp.beta, lp.jack_index
    if m == 0:
        return math.exp(-beta * y / 8.0)
    if y == 0.0:
        return 1.0
    r = math.sqrt(y)
    if m == 1:
        rho = 2.0 / beta - 1.0
        log_pref = (2.0 / beta - 1.0) * math.log(2.0) + log_gamma(2.0 / beta)
        return math.exp(
            log_pref - beta * y / 8.0 + (0.5 - 1.0 / beta) * math.log(y)
        ) * bessel_i(rho, r)
    if m == 2 and abs(beta - 2.0) < 1e-12:
        i0 = bessel_i(0.0, r)
        i1 = bessel_i(1.0, r)
        return math.exp(-y / 4.0) * (i0 * i0 - i1 * i1)
    return None


def limit_prefactor(lp: LimitParams) -> float:
    """The printed density prefactor
    A(m, beta) = 4^m (beta/2)^(beta/2 + 2m + 1) Gamma(1 + beta/2)
                 / (Gamma(1+m) Gamma(1 + m + beta/2)).
    Known to be inconsistent with -dQ/dy; see module docstring."""
    beta, m = lp.beta, lp.jack_index
    h = 0.5 * beta
    return math.exp(
        m * math.log(4.0)
        + (h + 2.0 * m + 1.0) * math.log(h)
        + log_gamma(1.0 + h)
        - log_gamma(1.0 + m)
        - log_gamma(1.0 + m + h)
    )


def p_limit_printed(
    lp: LimitParams, y: float, acc: SeriesAccuracy = DEFAULT_ACCURACY
) -> float:
    """The "explicit density" as printed:
    A(m, beta) y^m e^(-beta*y/8) 0F1^{(beta/2)}(2m/beta + 2; (y/4) 1^m).
    Diagnostics only -- disagrees with p_limit by constant factors."""
    if y < 0:
        raise DomainError(f"y must be >= 0, got {y}")
    beta, m = lp.beta, lp.jack_index
    if y == 0.0:
        return limit_prefactor(lp) if m == 0 else 0.0
    _warn_envelope(lp, y)
    f = hyper_pfq_equal(
        (), (2.0 * m / beta + 2.0,), 0.5 * beta, m, y / 4.0, acc
    )
    return limit_prefactor(lp) * y**m * math.exp(-beta * y / 8.0) * f


def prefactor_diagnostics(lp: LimitParams, ys, acc: SeriesAccuracy = DEFAULT_ACCURACY):
    """Compare the printed density against the series density -dQ/dy on a
    grid of y values.  Returns a report dict with per-point ratios and the
    spread of the ratio; a constant ratio != 1 means the printed prefactor
    is off by exactly that constant, a varying ratio means the functional
    form itself differs."""
    rows = []
    ratios = []
    for y in ys:
        truth = p_limit(lp, y, acc)
        printed = p_limit_printed(lp, y, acc)
        ratio = printed / truth if truth > 0.0 else math.inf
        rows.append({"y": y, "p_series": truth, "p_printed": printed, "ratio": ratio})
        if math.isfinite(ratio):
            ratios.append(ratio)
    finite = [r for r in ratios if r > 0.0]
    report = {
        "beta": lp.beta,
        "m": lp.jack_index,
        "points": rows,
        "ratio_min": min(finite) if finite else math.nan,
        "ratio_max": max(finite) if finite else math.nan,
        "consistent": bool(
            finite
            and max(finite) - min(finite) <= 1e-8 * max(finite)
            and abs(max(finite) - 1.0) <= 1e-8
        ),
    }
    return report
