"""Shared numerical kernels: the one assembler of every series and the
one source of correctly rounded log tables.

Consumer modules represent series coefficients by their logs, because
Gamma(beta*M*N/2) overflows double precision already near N ~ 60; every
coefficient of the package is positive, so a log is all a coefficient
needs.

A log table is a prefix sum of factor logs, each entry the correctly
rounded sum of its prefix (``_prefix_sums``): the hook tables of
jack.py, the term-ratio tables of the hard-edge closed forms
(limit.q_limit_closed), and ``_log_falling``, the table of
log Gamma(g)/Gamma(g-k) that the partition series (exact.py) and the
alpha=2 double sum (beta2.py) read.  Each entry is bit for bit the
math.fsum of its prefix.  A table takes two cumsums: the running sums
s, and c, the running sum of the exact TwoSum errors of the steps of s
(Ogita, Rump & Oishi, SIAM J. Sci. Comput. 26 (2005)).  Where c itself
is exact (its own TwoSum errors are all 0), s + c is the exact prefix
sum, and one IEEE add rounds it as fsum does.  Every other row takes one
fsum per prefix.

Every law of the package is a series S = e^offset sum_j c_j u^j v^(e-j),
and ``_series_sum`` is the only code that sums one, over an array of
points.  Q and P at finite N (both exact routes, ``_edge_sum``) take
u = x, v = 1 - Nx; the moments take u = 1/N; the hard-edge limit and its
closed forms take u = y/4, v = 1, offset -beta*y/8 and a stopping
rule.  Every term of every series is positive, so no sum cancels.
"""

from __future__ import annotations

import math
import sys
from functools import lru_cache

import numpy as np

#: Points x terms per block of the assembler's temporaries.
EDGE_SUM_BLOCK = 1 << 16


def _two_sum_errors(s: np.ndarray, a: np.ndarray) -> np.ndarray:
    """The rounding error (s_(k-1) + a_k) - s_k of each step of the
    running sums s = cumsum(a) down axis 0 (s_(-1) = 0), by Knuth's
    TwoSum: exact where no intermediate overflows, and inf or NaN where
    one does or an entry is not finite."""
    e = np.empty_like(a)
    e[0] = 0.0
    prev, step = s[:-1], s[1:]
    back = step - prev
    err = np.subtract(step, back, out=e[1:])
    np.subtract(prev, err, out=err)
    err += np.subtract(a[1:], back, out=back)
    return e


def _prefix_sums(rows) -> np.ndarray:
    """Correctly rounded prefix sums of each row (a 2-D array, or a list
    of equal-length lists of floats), with a leading 0, as a 2-D array:
    entry p of a row is math.fsum of its first p entries, bit for bit.

    The table is summed by two cumsums: s = cumsum(a), e the TwoSum
    error of each of its steps and c = cumsum(e).  The exact prefix sum
    is s + c wherever c made no rounding error of its own (its TwoSum
    errors are all 0), and one IEEE add then rounds it as fsum does, ties
    included; an exact 0 comes out +0.0, as from fsum.  A row whose c is
    inexact, or that has an inf or NaN entry or an intermediate overflow
    (which make an error inf or NaN), is summed by one fsum per prefix
    instead (so inf - inf raises fsum's ValueError).
    """
    a = np.asarray(rows, dtype=float)
    if a.ndim == 1:  # [], a table of no rows
        a = a.reshape(0, 0)
    out = np.zeros((len(a), a.shape[1] + 1))
    exact = np.zeros(len(a), dtype=bool)
    if a.size:  # a table of no entries has no steps
        cols = a.T.copy()  # each step of the cumsums a contiguous block
        with np.errstate(over="ignore", invalid="ignore"):  # the rows that go to fsum
            s = cols.cumsum(axis=0)
            e = _two_sum_errors(s, cols)
            c = e.cumsum(axis=0)
            exact = ~_two_sum_errors(c, e).any(axis=0)
            np.add(s, c, out=out[:, 1:].T)
    for i in np.flatnonzero(~exact):
        t = a[i].tolist()
        out[i, 1:] = [math.fsum(t[:p]) for p in range(1, len(t) + 1)]
    return out


@lru_cache(maxsize=32)  # one entry per parameter set of exact, or per N of q_alpha2_sum
def _log_falling(g: float, k_max: int) -> np.ndarray:
    """log(Gamma(g)/Gamma(g-k)) for k = 0..k_max, each an exact fsum of
    its k factor logs, as a read-only array.  A factor g - i <= 0 (only
    the last one, at N = 1, which no law reads) contributes -inf."""
    logs = [math.log(g - i) if g > i else -math.inf for i in range(1, k_max + 1)]
    out = _prefix_sums([logs])[0]
    out.flags.writeable = False
    return out


def _series_sum(log_c, first, log_u, log_v=None, e=0.0, offset=None, tail_tol=None):
    """sum_j c_j u^j v^(e-j) e^offset, j = first, first+1, ..., at each
    point of the 1-D arrays log_u, log_v (None: v = 1) and offset (None:
    0), as (sums, left), from log_c[i] = log c_(first+i); u^0 = 1 also
    at u = 0, and a point whose terms are all 0 sums to 0.

    Without tail_tol every term is summed and left is empty.  With it
    (at least two terms) each point sums in index order up to its second
    consecutive term at or below tail_tol times its partial sum, once that
    is positive (a point whose terms are all 0 stops at once); left
    indexes the points that never stop, whose sums are not set.  The
    points are taken in blocks of EDGE_SUM_BLOCK points x terms; a
    point's sum does not depend on its block or on the other points.
    """
    j = np.arange(first, first + len(log_c), dtype=float)
    out = np.zeros(len(log_u))
    left = np.zeros(len(log_u), dtype=bool)
    block = max(1, EDGE_SUM_BLOCK // len(j))
    for lo in range(0, len(log_u), block):
        pts = slice(lo, lo + block)
        u = log_u[pts, None]
        t = np.multiply(u, j, out=np.zeros((len(u), len(j))), where=j > 0)
        t += log_c
        if log_v is not None:
            t += log_v[pts, None] * (e - j)
        if offset is not None:
            t += offset[pts, None]
        peak = t.max(axis=1, initial=-sys.float_info.max, keepdims=True)  # no NaN if all -inf
        t -= peak
        np.exp(t, out=t)
        if tail_tol is None:
            out[pts] = t.sum(axis=1) * np.exp(peak[:, 0])
            continue
        sums = np.cumsum(t, axis=1)
        small = t <= tail_tol * sums
        if not sums[:, 0].all():  # leading terms that underflow after the shift are not yet the tail
            small &= (sums > 0.0) | (sums[:, -1:] == 0.0)
        stop = small[:, 1:] & small[:, :-1]
        at = stop.argmax(axis=1)
        rows = np.arange(len(u))
        out[pts] = sums[rows, at + 1] * np.exp(peak[:, 0])
        left[pts] = ~stop[rows, at]
    return out, np.flatnonzero(left)


def _edge_sum(log_c, n: int, e: float, x: np.ndarray, first: int = 0) -> np.ndarray:
    """S(x) = sum_j c_j x^j (1-Nx)^(e-j), j = first, first+1, ..., by _series_sum
    at every entry of the array x (entries >= 0; S = 0 for x >= 1/N)."""
    flat = x.ravel()
    out = np.zeros(flat.shape)
    inside = np.flatnonzero(flat < 1.0 / n)
    with np.errstate(divide="ignore"):  # log 0 = -inf at x = 0 and where Nx rounds to 1
        log_x, log_v = np.log(flat[inside]), np.log1p(-n * flat[inside])
    out[inside] = _series_sum(log_c, first, log_x, log_v, e)[0]
    return out.reshape(x.shape)

