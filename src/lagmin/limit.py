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

The coefficients are built on a fixed ladder of tops K_0 = 16,
K_1 = 32, K_(i+1) = K_i + ceil(K_i/4) after that (40, 50, 63, 79, ...).
The series needs at most 14 terms at y <= 1, 28 at y <= 10, 44 at
y <= 40 and 61 at y <= 100 (m <= 6, beta in [0.5, 6]), so a call climbs
about two rungs.  The table of each rung is cached.  Its route depends
on m:

- m = 0: c_0 = 1, and every other c_k is 0.
- 1 <= m <= 5: an exact recurrence in k,

      sum_{i=0..d} p_i(k, nu) c_(k+i) = 0,      d = ceil(m/2),

  with integer polynomials p_i of degree m + 1 in k and m in nu
  (_RECURRENCES, at shift 0 for Q and 2 for P below).  Jack
  hypergeometric functions of equal arguments are holonomic (Kaneko,
  SIAM J. Math. Anal. 24 (1993)), but these p_i are fitted, not proved:
  tests/derive_limit_recurrences.py finds them from the partition sums
  of tests/oracle.py modulo primes and checks that the leading p_d
  splits into factors positive from the recurrence's start on, and the
  tests check every table against the oracle in exact rationals.  The
  head is closed: c_k = nu^k/k! for k <= m (the Jack Plancherel
  identity), and c'_k for k < d from the partitions (1), (2) and (1, 1).
  The recurrence runs as a map on the ratios c_(k+1)/c_k in floats
  (_recurrence_log_ratios), and a rung's table is the prefix sums of
  their logs (numerics._prefix_sums), each rung from the head, so c_k
  does not depend on where the rungs are cut.  For k <= 500 and beta in
  [1e-3, 1e3] every log c_k is within 1e-14 max(1, |log c_k|) of its
  exact value.  m = 6 has a recurrence of the same kind (order 3), not
  stored: it moves the (beta, m) = (4, 6) records of
  tests/series_golden.json at y = 99 by 1.0e-14 (Q) and 1.5e-14 (P)
  relative, past that file's bound, though toward the exact values.
- m >= 6: the partitions with at most m parts and weight in
  (K_(i-1), K_i] are streamed in bounded int32 chunks of min(m, K_i)
  columns (no partition of weight <= K_i has more parts, so memory does
  not grow with m) and reduced by weight (jack._log_weight_sums, the
  builder the finite-N route shares).  Each rung's table extends the
  one below it.  A weight's sum depends only on which chunk holds its
  partitions, not on where the band edges fall: the partitions of one
  weight come out in the same order in any band that holds them, with
  the same table entries where m <= K_0 (every rung then streams m
  rows).  So there, wherever a band fits one chunk, c_k is
  bit-identical to one build over [0, K], and in any case c_k does not
  depend on how far a call needed to go.  The work grows about as
  K^m/(m!)^2.

On either route a point's value does not depend on the other points of
its call.

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
with c_k from their closed term ratios in place of the recurrence
tables, and go through the same _f01_sum: one stopping rule, one K_MAX
and one underflow bound for all.  The m = 2 ratio was fitted to the
exact c_k, as the recurrences were; the tests check that both closed
ratios are the recurrences' m = 1 and m = 2 rows at shift 0.

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

    Moving the tops moves no coefficient of the recurrence route, and
    none that a band of the partition route computes in one chunk
    (module docstring): the tops set only how many rungs, each with its
    own tables, a call builds on its way to the K it needs.
    """
    if rung == 0:
        return LADDER_START
    top = 2 * LADDER_START
    for _ in range(rung - 1):
        top += -(-top // 4)
    return top


#: The recurrences in k of the 0F1 coefficients at m = 1..5: per
#: (m, shift) the integers T[i][b][a], the coefficient of k^a nu^b in p_i
#: of sum_(i=0..d) p_i(k, nu) c_(k+i) = 0, d = ceil(m/2), with a running
#: fastest, then b, then i (tests/derive_limit_recurrences.py derives
#: and checks them).
_RECURRENCES = {
    (1, 0): "0 0 0 -1 0 0 1 1 0 0 1 1",
    (1, 2): "0 0 0 -1 0 0 1 1 0 2 3 1",
    (2, 0): "0 0 0 0 -4 0 0 0 2 -4 0 0 4 4 0 0 -2 2 4 0 0 -1 0 1",
    (2, 2): "0 0 0 0 -4 0 0 0 -6 -4 0 0 4 4 0 0 10 14 4 0 6 11 6 1",
    (3, 0): ("0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 9 0 0 0 0 0 0 0 0 0 -36 0 0 0 0 -9 -42 0 0 0 4 0 "
             "-10 0 0 72 36 0 0 0 0 66 33 0 0 -8 -4 20 10 0 0 -2 -1 2 1"),
    (3, 2): ("0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 9 0 0 0 0 0 0 0 0 0 -36 0 0 0 0 -117 -42 0 0 0 -86 "
             "-60 -10 0 0 72 36 0 0 0 264 198 33 0 0 312 316 100 10 0 120 154 71 14 1"),
    (4, 0): ("0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 192 0 0 0 0 0 -64 64 0 0 0 0 0 0 0 0 0 0 "
             "-576 0 0 0 0 0 48 -672 0 0 0 0 112 148 -212 0 0 0 -12 14 30 -20 0 0 1152 576 0 0 "
             "0 0 -480 720 480 0 0 0 -96 -344 148 148 0 0 24 -16 -74 10 20 0 0 4 0 -5 0 1"),
    (4, 2): ("0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 192 0 0 0 0 0 192 64 0 0 0 0 0 0 0 0 0 0 "
             "-576 0 0 0 0 0 -2064 -672 0 0 0 0 -2240 -1420 -212 0 0 0 -756 -706 -210 -20 0 0 "
             "1152 576 0 0 0 0 4320 3120 480 0 0 0 5824 5576 1628 148 0 0 3384 4064 1726 310 "
             "20 0 720 1044 580 155 20 1"),
    (5, 0): ("0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 -225 0 0 0 "
             "0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 5200 0 0 0 0 0 0 -880 2435 0 0 0 "
             "0 0 -78 -259 259 0 0 0 0 0 0 0 0 0 0 0 -14400 0 0 0 0 0 0 -10400 -16160 0 0 0 0 "
             "0 4739 -3315 -5491 0 0 0 0 156 1543 -259 -742 0 0 0 -36 0 119 0 -35 0 0 43200 "
             "14400 0 0 0 0 0 0 32880 10960 0 0 0 0 -7587 -2529 9843 3281 0 0 0 0 -2841 -947 "
             "1449 483 0 0 108 36 -357 -119 105 35 0 0 12 4 -15 -5 3 1"),
    (5, 2): ("0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 -225 0 0 0 "
             "0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 5200 0 0 0 0 0 0 10620 2435 0 0 "
             "0 0 0 5102 2331 259 0 0 0 0 0 0 0 0 0 0 0 -14400 0 0 0 0 0 0 -70400 -16160 0 0 0 "
             "0 0 -115961 -51595 -5491 0 0 0 0 -78716 -51517 -10871 -742 0 0 0 -18936 -16310 "
             "-5131 -700 -35 0 0 43200 14400 0 0 0 0 0 197280 98640 10960 0 0 0 0 346761 "
             "233703 49215 3281 0 0 0 295938 252297 77299 10143 483 0 0 123336 127548 51135 "
             "9961 945 35 0 20160 24552 12154 3135 445 33 1"),
}


@lru_cache(maxsize=16)  # one entry per (m, shift) of _RECURRENCES
def _recurrence(m: int, shift: int):
    """(table, small, large) of (m, shift): T as a float array of shape
    (d+1, m+1, m+2), and the powers of t that multiply p_i's nu^b term
    once the recurrence is rescaled for nu <= 1 (t = nu) and nu > 1
    (t = 1/nu), each at least 0 and 0 where p_i has no nu^b term."""
    d = -(-m // 2)
    table = np.array(_RECURRENCES[m, shift].split(), dtype=float).reshape(d + 1, m + 1, m + 2)
    used = table.any(axis=2)
    i, b = np.indices(used.shape)
    small = np.where(used, b + i - (b + i)[used].min(), 0)
    large = np.where(used, b[used].max() - b, 0)
    return table, small, large


def _recurrence_log_ratios(nu: float, m: int, shift: int, top: int) -> np.ndarray:
    """log(c_(k+1)/c_k), k = 0..top-1, for a (m, shift) of _RECURRENCES.

    The head is closed.  At shift 0, c_k = nu^k/k! for k <= m, and the
    recurrence starts at k = m - d + 1.  At shift 2 the partitions (1),
    (2) and (1, 1) give c'_1 = m nu/(m + 2 nu) and
    c'_2/c'_1 = nu/(2 + 2 nu) ((m + nu)/(m + 3 nu) + (m - 1) nu/(m - 1 + 2 nu)),
    and the recurrence starts at k = 0.  p_d has no zero from the start
    on.

    The map runs on h_k = c_k/s^k, s = min(nu, 1), whose ratios
    rho_k = h_(k+1)/h_k stay near 1/k at a small nu, where c_(k+1)/c_k is
    near nu/k, and on P_i = p_i s^i divided by the smallest power of nu
    in them (nu <= 1) or the largest (nu > 1).  So each P_i is a sum of
    integer polynomials in k times powers t^e <= 1 of t = nu or 1/nu,
    none of which overflows (finite, and within 4.2e-14 of the exact
    log c_k relative, for beta from 1e-300 to 1e300 and k <= 200).  Then
    rho_(k+d-1) = -(sum_(i<d) P_i h_(k+i)/h_(k+d-1)) / P_d, by Horner's
    rule over the ratios before it."""
    table, small, large = _recurrence(m, shift)
    d = len(table) - 1
    scale, lift, t, power = (nu, 1.0, nu, small) if nu <= 1.0 else (1.0, nu, 1.0 / nu, large)  # lift = nu/s
    if shift == 0:
        head = [lift / (j + 1) for j in range(m)]
    else:
        head = [m * lift / (m + 2.0 * nu),
                lift / (2.0 + 2.0 * nu) * ((m + nu) / (m + 3.0 * nu) + (m - 1) * nu / (m - 1 + 2.0 * nu))][:d - 1]
    first = m - d + 1 if shift == 0 else 0
    ks = np.arange(first, first + top - len(head), dtype=float)
    polys = ((table @ ks ** np.arange(m + 2)[:, None]) * (t**power)[:, :, None]).sum(axis=1).T.tolist()
    rho = head + [0.0] * len(ks)
    for j, p in enumerate(polys, start=len(head)):  # rho_j, j = k + d - 1
        acc = p[0]
        for i in range(1, d):
            acc = acc / rho[j - d + i] + p[i]
        rho[j] = -acc / p[d]
    return np.log(rho) + math.log(scale)


@lru_cache(maxsize=64)  # an entry holds K_rung + 1 floats
def _f01_coeffs(beta: float, m: int, shift: int, rung: int) -> np.ndarray:
    """log c_k, k = 0..K_rung, of 0F1^{(beta/2)}(b; u * 1^m) = sum_k c_k u^k
    with b = 2m/beta + shift, as a read-only array (log 0 = -inf for
    k >= 1 when m = 0): closed at m = 0, from the recurrence at m <= 5
    and from the partition ladder past it (module docstring)."""
    hi = _ladder_top(rung)
    nu = 0.5 * beta
    if nu * (hi + shift) == math.inf:  # the largest hook, nu*(K + shift) + m, and its logs
        raise DivergenceError(f"0F1 coefficients overflow a double (beta={beta}, m={m})")
    if m == 0:  # c_0 = 1 and no other
        out = np.full(hi + 1, -np.inf)
        out[0] = 0.0
    elif (m, shift) in _RECURRENCES:  # the whole table from its head, on every rung
        out = _prefix_sums([_recurrence_log_ratios(nu, m, shift, hi)])[0]
    else:
        lo = 0 if rung == 0 else _ladder_top(rung - 1) + 1
        peak, total = _log_weight_sums(nu, m, shift, lo, hi)
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
    it reads (numerics._prefix_sums), so it shares no table with the
    recurrences behind q_limit.

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
