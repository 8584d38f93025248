"""Shared numerical kernels.

Log-gamma and log gamma-ratio products, the modified Bessel function of
the first kind by its ascending series, and the one assembler of the
finite-N laws.  Consumer modules represent series terms in log-magnitude
+ sign form because Gamma(beta*M*N/2) overflows double precision already
near N ~ 60; the helpers here are the building blocks for that
representation.

Every finite-N law of the package (the survival function of both exact
routes and the density) is a sum of one shape,

    S(x) = sum_j c_j x^j (1-Nx)^(e-j),        0 <= x < 1/N,

and ``_edge_sum`` is the only code that assembles it: over an array of
x, in blocks, with each point's terms scaled by their largest magnitude
(``_shifted_sum``, which the Beta-integral moments share).
"""

from __future__ import annotations

import math
import warnings

import numpy as np

from .core import DEFAULT_ACCURACY, SeriesAccuracy
from .errors import DivergenceError, DomainError, PrecisionWarning

#: Largest Bessel argument inside the validated accuracy envelope.
BESSEL_X_ENVELOPE = 60.0

#: Points x terms per block of the assembler's temporaries.
EDGE_SUM_BLOCK = 1 << 16


def log_gamma(x: float) -> float:
    """Natural log of Gamma(x) for x > 0 (relative error <= 1e-13 on
    [1e-3, 1e6])."""
    if not (x > 0):
        raise DomainError(f"log_gamma requires x > 0, got {x}")
    return math.lgamma(x)


def log_gamma_ratio_falling(a: float, k: int) -> float:
    """log(Gamma(a)/Gamma(a-k)) summed factor by factor (requires a-k > 0)."""
    if not (a - k > 0):
        raise DomainError(f"requires a - k > 0, got a={a}, k={k}")
    return math.fsum(math.log(a - i) for i in range(1, k + 1))


def _points(x) -> np.ndarray:
    """x (a float or an array) as a float array, every entry >= 0."""
    xs = np.asarray(x, dtype=float)
    if not np.all(xs >= 0):
        raise DomainError(f"x must be >= 0, got {xs[~(xs >= 0)].flat[0]}")
    return xs


def _shifted_sum(logs: np.ndarray, signs) -> np.ndarray:
    """sum_j signs[j] * exp(logs[..., j]) along the last axis, each row
    scaled by its largest log first; a row of -inf logs sums to 0."""
    peak = logs.max(axis=-1, keepdims=True)
    peak[peak == -np.inf] = 0.0
    return (signs * np.exp(logs - peak)).sum(axis=-1) * np.exp(peak[..., 0])


def _edge_sum(log_c, sign_c, n: int, e: float, x: np.ndarray, first: int = 0) -> np.ndarray:
    """S(x) = sum_j c_j x^j (1-Nx)^(e-j), j = first, first+1, ..., at every
    entry of the array x (entries >= 0; S = 0 for x >= 1/N).

    The coefficients come as arrays log_c[i] = log|c_(first+i)| and
    sign_c[i] = its sign.  x^0 = 1 also at x = 0.  The points x terms
    temporary is bounded by processing x in blocks of EDGE_SUM_BLOCK
    elements; a point's value does not depend on the block it falls in.
    """
    flat = x.ravel()
    out = np.zeros(flat.shape)
    inside = np.flatnonzero(flat < 1.0 / n)
    j = np.arange(first, first + len(log_c), dtype=float)
    block = max(1, EDGE_SUM_BLOCK // len(j))
    with np.errstate(divide="ignore"):  # log 0 = -inf at x = 0 and where Nx rounds to 1
        log_x = np.log(flat[inside])[:, None]
        log_edge = np.log1p(-n * flat[inside])[:, None]
    for lo in range(0, len(inside), block):
        lx, le = log_x[lo:lo + block], log_edge[lo:lo + block]
        t = np.multiply(lx, j, out=np.zeros((len(lx), len(j))), where=j > 0)
        t += log_c
        t += (e - j) * le
        out[inside[lo:lo + block]] = _shifted_sum(t, sign_c)
    return out.reshape(x.shape)


def bessel_i(rho: float, x: float, acc: SeriesAccuracy = DEFAULT_ACCURACY) -> float:
    """Modified Bessel function of the first kind, I_rho(x).

    Evaluates the ascending series

        I_rho(x) = (x/2)^rho * sum_{k>=0} (x/2)^(2k) / (k! Gamma(rho+k+1))

    truncated once the next term falls below ``acc.tail_tol`` times the
    partial sum.  All terms are positive, so there is no cancellation and
    the relative error is <= 1e-12 on the validated envelope x in [0, 60];
    larger x is flagged with a PrecisionWarning rather than silently
    extrapolated.

    Parameters
    ----------
    rho : float
        Order, must be > -1.
    x : float
        Argument, must be >= 0.
    acc : SeriesAccuracy
        Truncation policy.

    Returns
    -------
    float
        I_rho(x).  For x=0: 1 if rho=0, 0 if rho>0, +inf if -1<rho<0.
    """
    if not (rho > -1):
        raise DomainError(f"bessel_i requires rho > -1, got {rho}")
    if not (x >= 0):
        raise DomainError(f"bessel_i requires x >= 0, got {x}")
    if x > BESSEL_X_ENVELOPE:
        warnings.warn(
            f"bessel_i argument x={x:g} exceeds the validated envelope "
            f"x <= {BESSEL_X_ENVELOPE:g}; result is best-effort",
            PrecisionWarning,
            stacklevel=2,
        )
    if x == 0.0:
        if rho == 0.0:
            return 1.0
        return 0.0 if rho > 0 else float("inf")

    half = 0.5 * x
    # prefactor (x/2)^rho / Gamma(rho+1), folded into the k=0 term
    term = math.exp(rho * math.log(half) - math.lgamma(rho + 1.0))
    total = term
    comp = 0.0
    hh = half * half
    for k in range(1, acc.k_max + 1):
        term *= hh / (k * (rho + k))
        t = total + term
        if abs(total) >= term:
            comp += (total - t) + term
        else:
            comp += (term - t) + total
        total = t
        if term < acc.tail_tol * total:
            return total + comp
    raise DivergenceError(
        f"bessel_i series did not meet tail_tol={acc.tail_tol:g} within "
        f"k_max={acc.k_max} terms (rho={rho}, x={x})"
    )
