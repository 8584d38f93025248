"""Shared numerical kernels.

The modified Bessel function of the first kind, the one assembler of
every series, and the one builder of correctly rounded log tables.
Consumer modules represent series coefficients by their logs, because
Gamma(beta*M*N/2) overflows double precision already near N ~ 60; every
coefficient of the package is positive, so a log is all a coefficient
needs.

A log table is a prefix sum of factor logs, each entry the correctly
rounded sum of its prefix (``_prefix_sums``): the hook tables of
jack.py, and ``_log_falling``, the table of log Gamma(g)/Gamma(g-k) that
the partition series (exact.py) and the alpha=2 double sum (beta2.py)
read.

Every law of the package is a series S = e^offset sum_j c_j u^j v^(e-j),
and ``_series_sum`` is the only code that sums one, over an array of
points.  Q and P at finite N (both exact routes, ``_edge_sum``) take
u = x, v = 1 - Nx; the moments take u = 1/N; the hard-edge limit takes
u = y/4, v = 1, offset -beta*y/8 and a stopping rule.
"""

from __future__ import annotations

import math
import sys
from functools import lru_cache

import numpy as np

from . import core
from .errors import DivergenceError, DomainError

#: Points x terms per block of the assembler's temporaries.
EDGE_SUM_BLOCK = 1 << 16


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


def _prefix_sums(rows) -> np.ndarray:
    """Correctly rounded prefix sums of each row (a list of floats), with
    a leading 0, as a 2-D array."""
    return np.array([[math.fsum(t[:p]) for p in range(len(t) + 1)] for t in rows])


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
    consecutive term at or below tail_tol times its partial sum; left
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


def bessel_i(rho: float, x: float) -> float:
    """Modified Bessel function of the first kind, I_rho(x).

    Inside the envelope x <= 60 (the "bessel" row of core.ENVELOPES),
    evaluates the ascending series

        I_rho(x) = (x/2)^rho * sum_{k>=0} (x/2)^(2k) / (k! Gamma(rho+k+1))

    truncated once the next term falls below core.TAIL_TOL times the
    partial sum (DivergenceError past core.K_MAX terms).  All terms are
    positive, so there is no cancellation and the relative error is
    <= 1e-12 there.  Beyond it, where the large-argument expansion
    (DLMF 10.40.1) reaches core.TAIL_TOL, e^(-x) I_rho(x) comes from that
    expansion; otherwise the series is summed as before.  Larger x is
    flagged with a PrecisionWarning.

    Requires numbers rho > -1 and x >= 0.  Returns +inf once I_rho(x)
    overflows a double (x >~ 713) and at x = +inf; at x = 0, 1 if rho = 0,
    0 if rho > 0 and +inf if -1 < rho < 0.
    """
    rho = float(_floats(rho, "rho", scalar=True))
    if not (rho > -1):
        raise DomainError(f"bessel_i requires rho > -1, got {rho}")
    x = _points(x, "x", scalar=True)
    core.warn_outside("bessel", x=x)
    value, scale = _bessel_i_scaled(rho, x)
    if scale == 0.0:
        return value
    try:
        return value * math.exp(scale)
    except OverflowError:  # e^x alone overflows past x ~ 709.8, I_rho(x) near 713
        pass
    try:
        return math.exp(math.log(value) + scale)
    except OverflowError:
        return math.inf


def _bessel_i_scaled(rho: float, x: float) -> tuple:
    """I_rho(x) = value * e^scale for rho > -1, x >= 0: (series value, 0.0),
    or past the envelope's x (e^(-x) I_rho(x) by DLMF 10.40.1, x) where
    that expansion reaches core.TAIL_TOL.  Neither validates nor warns."""
    tail_tol, k_max = core.TAIL_TOL, core.K_MAX
    if x > core.ENVELOPES["bessel"]["x"][1]:
        if x == math.inf:
            return math.inf, 0.0
        scaled = _bessel_i_large(rho, x)
        if scaled is not None:
            return scaled, x
    if x == 0.0:
        if rho == 0.0:
            return 1.0, 0.0
        return (0.0 if rho > 0 else math.inf), 0.0

    half = 0.5 * x
    # prefactor (x/2)^rho / Gamma(rho+1), folded into the k=0 term
    term = math.exp(rho * math.log(half) - math.lgamma(rho + 1.0))
    total = term
    comp = 0.0
    hh = half * half
    for k in range(1, k_max + 1):
        term *= hh / (k * (rho + k))
        t = total + term
        if abs(total) >= term:
            comp += (total - t) + term
        else:
            comp += (term - t) + total
        total = t
        if term < tail_tol * total:
            return total + comp, 0.0
    raise DivergenceError(
        f"bessel_i series did not meet tail_tol={tail_tol:g} within "
        f"k_max={k_max} terms (rho={rho}, x={x})"
    )


def _bessel_i_large(rho: float, x: float):
    """e^(-x) I_rho(x) from the large-argument expansion (DLMF 10.40.1)

        (2 pi x)^(-1/2) sum_k (-1)^k a_k(rho) / x^k,
        a_k = prod_{j=1..k} (4 rho^2 - (2j-1)^2) / (k! 8^k),

    or None when its terms stop shrinking before they fall below
    core.TAIL_TOL times the sum, or cancel to more than that of it in
    rounding."""
    tol = core.TAIL_TOL
    mu = 4.0 * rho * rho
    term = total = peak = 1.0
    for k in range(1, 1000):
        nxt = -term * (mu - (2 * k - 1) ** 2) / (8.0 * k * x)
        # past k = rho + 1/2 the term ratio only grows: the tail diverges
        if k > rho + 0.5 and abs(nxt) >= abs(term):
            return None
        term = nxt
        total += term
        peak = max(peak, abs(term))
        if abs(term) <= tol * abs(total):
            if total <= 0.0 or peak * 2.0**-52 > tol * total:
                return None
            return total / math.sqrt(2.0 * math.pi * x)
    return None
