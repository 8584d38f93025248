"""Hard-edge scaling limit of the smallest-eigenvalue laws.

Under x = y/(4 N^3) the finite-N survival function converges, for fixed
beta and Jack index m, to

    Q(y) = exp(-beta*y/8) * 0F1^{(beta/2)}(2m/beta; (y/4) * 1^m),

a hypergeometric function of m equal arguments.  With nu = beta/2 and
u = y/4, 0F1 = sum_k c_k u^k with

    c_k = sum_{|kappa|=k, len<=m} C_kappa(1^m) / ([b]_kappa k!),

b = 2m/beta.  Every term is positive: per cell of kappa the Jack value's
numerator m + nu*t - r cancels the factor of [b]_kappa (jack.py derives
the row term), so c_k = nu^(2k) * sum_kappa 1/prod(hooks), the inverse
product of the lower and upper hook lengths nu*a + l + 1 and
nu*(a+1) + l over the cells of kappa.

The coefficients are built weight band by weight band on a fixed ladder
of tops K_0 = 16, K_1 = 32, K_(i+1) = K_i + ceil(K_i/4) after that (40,
50, 63, 79, ...): the partitions with at most m parts and weight in
(K_(i-1), K_i] are streamed in bounded int32 chunks of min(m, K_i)
columns (no partition of weight <= K_i has more parts, so memory does
not grow with m) and reduced by weight (jack._log_weight_sums, the
builder the finite-N route shares).
Each rung costs a fixed set of prefix and pair tables besides its
partitions, so the ladder opens wide: the series needs at most 14 terms
at y <= 1, 28 at y <= 10, 44 at y <= 40 and 61 at y <= 100 (m <= 6,
beta in [0.5, 6]), and a call climbs about two rungs.  The table of each
rung is cached and extends the one below it.  A weight's sum depends
only on which chunk holds its partitions, not on where the band edges
fall: the partitions of one weight come out in the same order in any
band that holds them, with the same table entries where m <= K_0 (every
rung then streams m rows).  So there, wherever a band fits one chunk,
c_k is bit-identical to one build over [0, K], and in
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
Q(0) = 1 and P(0) need no table nor D_m, and a point whose value is
certainly below the smallest subnormal double is 0 with no sum
(_f01_sum), so a huge beta gives 1, 0 and the exact P(0) rather than an
error.
Past the "limit" row of core.ENVELOPES (y <= 100, m <= 6) a call issues
one PrecisionWarning.

Closed forms (q_limit_closed) exist for m = 0 (pure exponential), m = 1
(a single Bessel-I factor) and m = 2 (a 1F2, at every beta); for m >= 3
the closed form is unavailable and None is returned.  The m = 1 and
m = 2 forms are the same positive series e^(-beta*y/8) sum_k c_k u^k,
with c_k from their closed term ratios in place of the partition
builder, and go through the same _f01_sum: one stopping rule, one K_MAX
and one underflow bound for all.  The m = 2 ratio was fitted to the
exact c_k and is checked by the tests, not proved here.

A note on the m = 1 closed form: the Bessel order consistent with the
series (and with the beta = 2 Bessel kernel) is 2/beta - 1.  Orders that
look like beta/2 - 1 appear plausible but disagree with the series for
beta != 2.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import lru_cache, partial

import numpy as np

from . import core
from .errors import DivergenceError, DomainError
from .jack import _log_weight_sums
from .numerics import _prefix_sums, _series_sum

#: Top weight of the first band of the coefficient table; the second
#: band ends at twice it.
LADDER_START = 16

#: log of the smallest subnormal double: a value whose bound is below it
#: rounds to 0.
_LOG_TINY = math.log(5e-324)


@dataclass(frozen=True)
class LimitParams:
    """Scaling-limit parameter pair: Dyson index beta > 0 and Jack index
    m = (beta/2)(M - N + 1 - 2/beta), a nonnegative integer below
    core.JACK_MAX."""

    beta: float
    jack_index: int

    def __post_init__(self):
        object.__setattr__(self, "beta", core._positive_beta(self.beta))
        object.__setattr__(self, "jack_index", core._as_int(self.jack_index, "jack_index", 0))
        if self.jack_index >= core.JACK_MAX:
            raise DomainError(f"jack_index must be < 2^52, got {self.jack_index}")


def _limit_points(lp: LimitParams, y) -> np.ndarray:
    """y as an array (DomainError on NaN or negative entries), with the
    one PrecisionWarning of the call if its largest y in (0, inf) or m
    leaves the envelope."""
    ys = core._points(y, "y")
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
    if nu * (hi + shift) == math.inf:  # the largest hook, nu*(K + shift) + m, and its logs
        raise DivergenceError(f"0F1 coefficients overflow a double (beta={beta}, m={m})")
    peak, total = _log_weight_sums(nu, m, shift, lo, hi)
    with np.errstate(divide="ignore"):  # weights no partition has (m = 0)
        band = peak + np.log(total)
    out = band if rung == 0 else np.concatenate([_f01_coeffs(beta, m, shift, rung - 1), band])
    out.flags.writeable = False  # shared by every caller through the cache
    return out


def _density_constant(lp: LimitParams) -> float:
    """D_m = nu^(2m+1) / (4 m! (1+nu)_m), the factor that turns the 0F1
    coefficients at b = 2m/beta + 2 into the density coefficients d_(m+k).

    Built as (nu/4) prod_(i=1..m) (nu/(i+nu)) (nu/i), whose factors all
    fit in a double, so D_m is finite wherever it fits in one (no power
    nu^(2m+1) to overflow first), and inf or 0 where it does not.  The
    product stops once it is 0 or inf, which no later factor can change,
    so a huge m costs no more than the underflow."""
    nu = 0.5 * lp.beta
    out = nu / 4.0
    for i in range(1, lp.jack_index + 1):
        out *= nu / (i + nu) * (nu / i)
        if out == 0.0 or out == math.inf:
            break
    return out


def _f01_sum(lp: LimitParams, ys: np.ndarray, coeffs, first: int, factor: float) -> np.ndarray:
    """factor * exp(-beta*y/8) * sum_k c_k (y/4)^(k + first) at every
    entry y >= 0 of the array ys, as an array of its shape, where
    coeffs(rung) is the table log c_k, k = 0..K_rung: the 0F1
    coefficients at b = 2m/beta + shift (_f01_coeffs bound to beta, m
    and shift), or the same numbers at shift 0 from a closed form's term
    ratios (q_limit_closed).  0 at y = +inf, and DivergenceError if
    factor is inf and a y lies in (0, inf).  A point is summed on the
    first rung on which it stops, so its value does not depend on the
    other points of the call.

    At y = 0 the one term is u^0 = 1 (k + first = 0), whatever beta.  A
    point whose exp(-beta*y/8) underflows is 0 with no sum where a bound
    puts its value below the smallest subnormal too.  With nu = beta/2,
    u = y/4 and r = m sqrt(u): row i of [b]_kappa has factors
    (m - i)/nu + shift + j >= min(1, 1/nu) at j = 0 and >= j after, so
    [b]_kappa >= min(1, 1/nu)^m prod_i Gamma(kappa_i); with the
    C_kappa(1^m) of weight k summing to m^k, Stirling's lower bounds on
    Gamma and k! and Jensen over the parts,
    log(c_k u^k) <= m log+ nu + (m/2) log k + 2k (1 + log(r/k)), at most
    2r at k = r and below -2k past k = e^2 r.  Summed over k,
    log sum_k c_k u^k <= log 3 + m log+ nu + (m/2) log+(m/(2e))
    + (m/2 + 1) log(e^2 r + 1) + 2r, against -nu*u of the offset.  (Past
    |beta*y/8| ~ 1e20 every term's log rounds to the offset's, and the
    stopping rule could never fire.)"""
    tail_tol, k_max = core.TAIL_TOL, core.K_MAX
    nu, m = 0.5 * lp.beta, lp.jack_index
    flat = ys.ravel()
    out = np.zeros(flat.shape)  # 0 at y = +inf
    out[flat == 0.0] = factor if first == 0 else 0.0
    todo = np.flatnonzero((flat > 0.0) & (flat < math.inf))
    if todo.size and factor == math.inf:
        raise DivergenceError(
            f"density constant D_m overflows a double (beta={lp.beta}, m={lp.jack_index})")
    with np.errstate(divide="ignore", over="ignore"):  # log 0 at y = 0; beta*y past the float range
        log_u = np.log(flat / 4.0)
        damp = -lp.beta * flat / 8.0
        if damp[todo].min(initial=0.0) < _LOG_TINY:  # else exp(-beta*y/8) alone is no subnormal
            u = flat[todo] / 4.0
            r = m * np.sqrt(u)
            log_bound = (math.log(3.0 * max(1.0, factor)) + m * math.log(max(1.0, nu))
                         + 0.5 * m * math.log(max(1.0, m / (2.0 * math.e)))
                         + (0.5 * m + 1.0) * np.log(math.e**2 * r + 1.0) + 2.0 * r - nu * u
                         + first * log_u[todo])
            todo = todo[log_bound >= _LOG_TINY]
    rung = 0
    while todo.size:
        log_c = coeffs(rung)[:max(0, k_max + 1 - first)]
        if len(log_c) >= 2:  # the stopping rule reads two terms
            sums, left = _series_sum(log_c, first, log_u[todo], offset=damp[todo], tail_tol=tail_tol)
            out[todo] = factor * sums
            low = todo[(sums < sys.float_info.min) & (factor > 1.0)]
            if low.size:  # subnormal sums lost digits that the factor would keep
                out[low] = _series_sum(log_c, first, log_u[low], offset=damp[low] + math.log(factor),
                                       tail_tol=tail_tol)[0]
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
    an array of its shape); exactly 1 at y = 0 at every beta and 0 at
    y = +inf.  Capped at 1, which a sum near y = 0 can pass in rounding."""
    ys = _limit_points(lp, y)
    out = _f01_sum(lp, ys, partial(_f01_coeffs, lp.beta, lp.jack_index, 0), 0, 1.0)
    out = np.minimum(out, 1.0)  # as in q_exact
    return out if ys.ndim else float(out)


def p_limit(lp: LimitParams, y):
    """Limiting density P(y) = -dQ/dy at a float y or at every entry of an
    array: D_m exp(-beta*y/8) sum_k c'_k (y/4)^(m+k), the exact termwise
    derivative summed from j = m (see the module docstring; no finite
    differencing).  beta/8 at y = 0 when m = 0, else 0 there, and 0 at
    y = +inf, at every beta (D_m past the float range included)."""
    ys = _limit_points(lp, y)
    out = _f01_sum(lp, ys, partial(_f01_coeffs, lp.beta, lp.jack_index, 2), lp.jack_index,
                   _density_constant(lp))
    return out if ys.ndim else float(out)


def q_limit_closed(lp: LimitParams, y: float):
    """Closed-form Q(y) where one exists (m <= 2); None for m >= 3.

    m = 0:  exp(-beta*y/8)
    m = 1:  2^(2/beta - 1) Gamma(2/beta) e^(-beta*y/8)
            * y^(1/2 - 1/beta) I_{2/beta - 1}(sqrt(y))
    m = 2:  e^(-beta*y/8) 1F2(mu - 1/2; 2mu - 1, 2mu; y),  mu = 2/beta;
            e^(-y/4) [I_0(sqrt(y))^2 - I_1(sqrt(y))^2] at beta = 2 and
            e^(-y/2) (1 + I_0(2 sqrt(y)))/2 at beta = 4

    The m = 1 and m = 2 forms are positive series e^(-beta*y/8)
    sum_k c_k (y/4)^k, summed by _f01_sum from their closed term ratios
    c_k/c_(k-1): at m = 1, 1/(k ((k - 1) + 2/beta)), the ascending series
    of I_(2/beta-1) (k - 1 first, so that 2/beta keeps its digits at a
    huge beta); at m = 2, c_1 = beta/2 and then
    c_(k+1)/c_k = 2(2k + 2mu - 1)/((k+1)(k + 2mu - 1)(k + 2mu)), the 1F2
    in y/4 (its k = 0 ratio is 0/0 at beta = 4, so the table starts at
    c_1).  Each rung's table is the prefix sums of the logs of the ratios
    it reads (numerics._prefix_sums), so it shares no code with the
    partition builder behind q_limit.

    Q(0) = 1 and Q(+inf) = 0 at every m, and every form is capped at 1,
    as q_limit is.  A NaN or negative y, or an array, raises DomainError.
    """
    y = core._points(y, "y", scalar=True)
    beta, m = lp.beta, lp.jack_index
    if m == 0 or y in (0.0, math.inf):  # Q(0) = 1 and Q(+inf) = 0 at every m
        return min(1.0, math.exp(-beta * y / 8.0))  # capped as q_limit is
    if m == 1:  # c_k/c_(k-1) = 1/(k ((k - 1) + 2/beta)), k >= 1
        head, log_ratio = [], lambda k: -np.log(k) - np.log((k - 1.0) + 2.0 / beta)  # noqa: E731
    elif m == 2:  # c_1 = beta/2, then c_(k+1)/c_k = 2(2k - 1 + 2mu)/((k+1)(k - 1 + 2mu)(k + 2mu)), k >= 1
        two_mu = 4.0 / beta
        head = [math.log(0.5 * beta)]

        def log_ratio(k):  # past 2mu ~ 1e154 the denominator overflows: a ratio of 0, log -inf
            with np.errstate(over="ignore", divide="ignore"):
                return np.log(
                    2.0 * (2.0 * k - 1.0 + two_mu) / ((k + 1.0) * (k - 1.0 + two_mu) * (k + two_mu)))
    else:
        return None
    core.warn_outside("bessel", x=math.sqrt(y))
    out = _f01_sum(lp, np.array(y), lambda rung: _prefix_sums(  # the K_rung ratios the rung reads
        [np.concatenate([head, log_ratio(np.arange(1.0, _ladder_top(rung) + 1.0 - len(head)))])])[0], 0, 1.0)
    return min(1.0, float(out))
