"""Hard-edge scaling limit of the smallest-eigenvalue laws.

Under x = y/(4 N^3) the finite-N survival function converges, for fixed
beta and Jack index m, to

    Q(y) = exp(-beta*y/8) * 0F1^{(beta/2)}(2m/beta; (y/4) * 1^m),

a hypergeometric function of m equal arguments.  With nu = beta/2 and
u = y/4, 0F1 = sum_k c_k u^k with

    c_k = sum_{|kappa|=k, len<=m} C_kappa(1^m) / ([b]_kappa k!),

b = 2m/beta.  Every term is positive, and with the row/pair
factorisation of jack.py

    log W_kappa = sum_{r<m} R_r[kappa_r] + sum_{i<j} T_{j-i}[kappa_i - kappa_j],
    R_r[p] = sum_{t<p} [2 log nu - log(nu*t + nu*b - r)
                                 - log(nu*t + nu + m - 1 - r)]

(the C_kappa numerator m + nu*t - r cancels the hook against the empty
row m).  For b = 2m/beta, nu*b = m and this is c_k = nu^(2k) *
sum_kappa 1/prod(hooks): the inverse product of the lower and upper
hook lengths nu*a + l + 1 and nu*(a+1) + l over the cells of kappa.

The coefficients are built weight band by weight band on a fixed ladder
of tops K_0 = 16, K_1 = 32, K_(i+1) = K_i + ceil(K_i/4) after that (40,
50, 63, 79, ...): the partitions with at most m parts and weight in
(K_(i-1), K_i] are streamed in bounded int32 chunks and reduced by
weight (jack._log_weight_sums, the builder the finite-N route shares).
Each rung costs a fixed set of prefix and pair tables besides its
partitions, so the ladder opens wide: the series needs at most 14 terms
at y <= 1, 28 at y <= 10, 44 at y <= 40 and 61 at y <= 100 (m <= 6,
beta in [0.5, 6]), and a call climbs about two rungs.  The table of each
rung is cached and extends the one below it.  A weight's sum depends
only on which chunk holds its partitions, not on where the band edges
fall: the partitions of one weight come out in the same order in any
band that holds them, with the same table entries.  So wherever a band
fits one chunk, c_k is bit-identical to one build over [0, K], and in
any case c_k does not depend on how far a call needed to go; a point's
value does not depend on the other points of its call.

The density P = -dQ/dy is the same kind of sum.  With F(u) = sum_k c_k u^k,

    P(y) = exp(-beta*y/8) * sum_j d_j u^j,
    d_j  = (beta/8) c_j - ((j+1)/4) c_{j+1},

and d_j = 0 for j < m: P has an m-fold zero at y = 0.  For j >= m the
difference has a positive form,

    d_j = D_m c'_{j-m},      D_m = nu^(2m+1) / (4 m! (1+nu)_m),

with c'_k the coefficients at b = 2m/beta + 2 (an identity the tests
check in exact rational arithmetic).  So P sums positive terms from
j = m, with no cancellation: it is exactly 0 at y = 0 for m >= 1 and
keeps full relative accuracy as y -> 0, where the difference form loses
up to all its digits (at beta = 1/2, m = 5 the difference d_5 is 5e-6 of
its first term).

Q and P are evaluated over an array of y by numerics._series_sum, with
u = y/4 and exp(-beta*y/8) in each term's exponent.  Each point stops
by core.TAIL_TOL, the table grows until every point has stopped, and a
point that needs a power of u beyond core.K_MAX is a DivergenceError.
Past the "limit" row of core.ENVELOPES (y <= 100, m <= 6) a call issues
one PrecisionWarning.

Closed forms (q_limit_closed) exist for m = 0 (pure exponential), m = 1
(a single Bessel-I factor), and (beta, m) = (2, 2) (a Wronskian-like
I0^2 - I1^2 combination); for all other parameter pairs the closed form
is unavailable and None is returned.

A note on the m = 1 closed form: the Bessel order consistent with the
series (and with the beta = 2 Bessel kernel) is 2/beta - 1.  Orders that
look like beta/2 - 1 appear plausible but disagree with the series for
beta != 2 and are rejected by prefactor_diagnostics.

_p_limit_printed implements a frequently quoted "explicit density":
the prefactor A(m, beta) times y^m e^(-beta*y/8) 0F1 at b = 2m/beta + 2.
Its shape is that of P, but it does NOT integrate to one: A(m, beta)
is 2^(4m+2) (beta/2)^(beta/2) times 4^m D_m (already at m = 0 it gives
(beta/2)^(beta/2+1) instead of beta/8 at y -> 0).  It is retained
solely so prefactor_diagnostics can quantify the mismatch; use p_limit
for anything quantitative.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import core
from .errors import DivergenceError, DomainError
from .jack import _log_weight_sums
from .numerics import _bessel_i_scaled, _points, _series_sum

#: Top weight of the first band of the coefficient table; the second
#: band ends at twice it.
LADDER_START = 16


@dataclass(frozen=True)
class LimitParams:
    """Scaling-limit parameter pair: Dyson index beta > 0 and Jack index
    m = (beta/2)(M - N + 1 - 2/beta), a nonnegative integer."""

    beta: float
    jack_index: int

    def __post_init__(self):
        object.__setattr__(self, "beta", core._positive_beta(self.beta))
        object.__setattr__(self, "jack_index", core._as_int(self.jack_index, "jack_index", 0))


def _limit_points(lp: LimitParams, y) -> np.ndarray:
    """y as an array (DomainError on NaN or negative entries), with the
    one PrecisionWarning of the call if its largest y in (0, inf) or m
    leaves the envelope."""
    ys = _points(y, "y")
    inner = ys[(ys > 0.0) & (ys < math.inf)]
    if inner.size:
        core.warn_outside("limit", y=inner.max(), m=lp.jack_index)
    return ys


def _ladder_top(rung: int) -> int:
    """Top weight K_rung of the coefficient ladder: 16, 32, then
    K + ceil(K/4) (40, 50, 63, 79, ...).

    Moving the tops moves no coefficient that a band computes in one
    chunk (module docstring): the tops set only how many rungs, each
    with its own tables, a call builds on its way to the K it needs.
    """
    if rung == 0:
        return LADDER_START
    top = 2 * LADDER_START
    for _ in range(rung - 1):
        top += -(-top // 4)
    return top


@lru_cache(maxsize=64)  # an entry holds K_rung + 1 floats
def _f01_coeffs(beta: float, m: int, shift: int, rung: int) -> np.ndarray:
    """log c_k, k = 0..K_rung, of 0F1^{(beta/2)}(b; u * 1^m) = sum_k c_k u^k
    with b = 2m/beta + shift, as a read-only array (log 0 = -inf for
    k >= 1 when m = 0)."""
    lo = 0 if rung == 0 else _ladder_top(rung - 1) + 1
    hi = _ladder_top(rung)
    nu = 0.5 * beta
    t = nu * np.arange(hi, dtype=float)
    r = np.arange(m, dtype=float)[:, None]
    peak, total = _log_weight_sums(
        nu, 2.0 * math.log(nu) - np.log(t + m + nu * shift - r) - np.log(t + nu + m - 1 - r), lo, hi
    )
    with np.errstate(divide="ignore"):  # weights no partition has (m = 0)
        band = peak + np.log(total)
    out = band if rung == 0 else np.concatenate([_f01_coeffs(beta, m, shift, rung - 1), band])
    out.flags.writeable = False  # shared by every caller through the cache
    return out


def _density_constant(lp: LimitParams) -> float:
    """D_m = nu^(2m+1) / (4 m! (1+nu)_m), the factor that turns the 0F1
    coefficients at b = 2m/beta + 2 into the density coefficients d_(m+k)."""
    nu, m = 0.5 * lp.beta, lp.jack_index
    return nu ** (2 * m + 1) / (4.0 * math.factorial(m) * math.prod(i + nu for i in range(1, m + 1)))


def _f01_sum(lp: LimitParams, ys: np.ndarray, shift: int, first: int, factor: float) -> np.ndarray:
    """factor * exp(-beta*y/8) * sum_k c_k (y/4)^(k + first) at every
    entry y >= 0 of the array ys, as an array of its shape, the c_k being
    the 0F1 coefficients at b = 2m/beta + shift; 0 at y = +inf.  A point
    is summed on the first rung on which it stops, so its value does not
    depend on the other points of the call."""
    tail_tol, k_max = core.TAIL_TOL, core.K_MAX
    flat = ys.ravel()
    out = np.zeros(flat.shape)  # 0 at y = +inf
    todo = np.flatnonzero(flat < math.inf)
    with np.errstate(divide="ignore"):  # log 0 = -inf at y = 0
        log_u = np.log(flat / 4.0)
    damp = -lp.beta * flat / 8.0
    rung = 0
    while todo.size:
        log_c = _f01_coeffs(lp.beta, lp.jack_index, shift, rung)[:max(0, k_max + 1 - first)]
        if len(log_c) >= 2:  # the stopping rule reads two terms
            sums, left = _series_sum(log_c, first, log_u[todo], offset=damp[todo], tail_tol=tail_tol)
            out[todo] = factor * sums
            todo = todo[left]
        if todo.size and first + len(log_c) > k_max:
            raise DivergenceError(
                f"0F1 series did not meet tail_tol={tail_tol:g} within "
                f"k_max={k_max} at y={flat[todo[0]]} (beta={lp.beta}, m={lp.jack_index})"
            )
        rung += 1
    if not np.all(np.isfinite(out)):
        raise DivergenceError(f"0F1 series overflowed (beta={lp.beta}, m={lp.jack_index})")
    return out.reshape(ys.shape)


def q_limit(lp: LimitParams, y):
    """Limiting survival function Q(y) = Prob(scaled smallest eigenvalue > y)
    at a float y (returns a float) or at every entry of an array (returns
    an array of its shape); exactly 1 at y = 0 and 0 at y = +inf."""
    ys = _limit_points(lp, y)
    out = _f01_sum(lp, ys, 0, 0, 1.0)
    return out if ys.ndim else float(out)


def p_limit(lp: LimitParams, y):
    """Limiting density P(y) = -dQ/dy at a float y or at every entry of an
    array: D_m exp(-beta*y/8) sum_k c'_k (y/4)^(m+k), the exact termwise
    derivative summed from j = m (see the module docstring; no finite
    differencing).  beta/8 at y = 0 when m = 0, else 0 there, and 0 at
    y = +inf."""
    ys = _limit_points(lp, y)
    out = _f01_sum(lp, ys, 2, lp.jack_index, _density_constant(lp))
    return out if ys.ndim else float(out)


def q_limit_closed(lp: LimitParams, y: float):
    """Closed-form Q(y) where one exists; None when unavailable.

    m = 0:             exp(-beta*y/8)
    m = 1:             2^(2/beta - 1) Gamma(2/beta) e^(-beta*y/8)
                       * y^(1/2 - 1/beta) I_{2/beta - 1}(sqrt(y))
    (beta, m) = (2,2): e^(-y/4) [I_0(sqrt(y))^2 - I_1(sqrt(y))^2]

    Q(0) = 1 and Q(+inf) = 0 at every m; a NaN or negative y, or an
    array, raises DomainError.
    """
    y = _points(y, "y", scalar=True)
    beta, m = lp.beta, lp.jack_index
    if m == 0:
        return math.exp(-beta * y / 8.0)
    if y == 0.0:
        return 1.0
    if y == math.inf:
        return 0.0
    r = math.sqrt(y)
    # factors combined in logs: e^(-beta y/8) underflows and I(r)
    # overflows long before their product leaves double range
    if m == 1:
        core.warn_outside("bessel", x=r)
        rho = 2.0 / beta - 1.0
        log_pref = (2.0 / beta - 1.0) * math.log(2.0) + math.lgamma(2.0 / beta)
        i, scale = _bessel_i_scaled(rho, r)
        return math.exp(
            log_pref - beta * y / 8.0 + (0.5 - 1.0 / beta) * math.log(y)
            + math.log(i) + scale
        )
    if m == 2 and abs(beta - 2.0) < 1e-12:
        core.warn_outside("bessel", x=r)
        i0, scale0 = _bessel_i_scaled(0.0, r)
        i1, scale1 = _bessel_i_scaled(1.0, r)
        diff = i0 * i0 - i1 * i1 * math.exp(2.0 * (scale1 - scale0))
        if not diff > 0.0:
            return 0.0
        return math.exp(-y / 4.0 + 2.0 * scale0 + math.log(diff))
    return None


def _limit_prefactor(lp: LimitParams) -> float:
    """The printed density prefactor
    A(m, beta) = 4^m (beta/2)^(beta/2 + 2m + 1) Gamma(1 + beta/2)
                 / (Gamma(1+m) Gamma(1 + m + beta/2)).
    Known to be inconsistent with -dQ/dy; see module docstring."""
    beta, m = lp.beta, lp.jack_index
    h = 0.5 * beta
    return math.exp(
        m * math.log(4.0)
        + (h + 2.0 * m + 1.0) * math.log(h)
        + math.lgamma(1.0 + h)
        - math.lgamma(1.0 + m)
        - math.lgamma(1.0 + m + h)
    )


def _p_limit_printed(lp: LimitParams, y):
    """The "explicit density" as printed:
    A(m, beta) y^m e^(-beta*y/8) 0F1^{(beta/2)}(2m/beta + 2; (y/4) 1^m),
    at a float y or at every entry of an array.
    Diagnostics only -- disagrees with p_limit by constant factors."""
    ys = _limit_points(lp, y)
    out = _f01_sum(lp, ys, 2, 0, 1.0)
    out *= _limit_prefactor(lp) * np.where(ys < math.inf, ys, 0.0) ** lp.jack_index  # 0 at +inf
    return out if ys.ndim else float(out)


def prefactor_diagnostics(lp: LimitParams, ys):
    """Compare the printed density against the series density -dQ/dy on a
    grid of y values (an array, never a single number).  Returns a report
    dict with per-point ratios and the spread of the ratio; a constant
    ratio != 1 means the printed prefactor is off by exactly that
    constant, a varying ratio means the functional form itself differs."""
    grid = _points(ys, "y")
    if not grid.ndim:
        raise DomainError(f"ys must be an array of y values, got the number {float(grid)}")
    grid = grid.ravel()
    printed = _p_limit_printed(lp, grid).tolist()  # the call's one PrecisionWarning
    truth = _f01_sum(lp, grid, 2, lp.jack_index, _density_constant(lp)).tolist()  # p_limit, unwarned
    rows = []
    ratios = []
    for y, t, pr in zip(grid.tolist(), truth, printed):
        ratio = pr / t if t > 0.0 else math.inf
        rows.append({"y": y, "p_series": t, "p_printed": pr, "ratio": ratio})
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
