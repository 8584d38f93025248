"""Shared numerical kernels.

The modified Bessel function of the first kind, and the one assembler of
the finite-N laws.  Consumer modules represent series coefficients by
their logs, because Gamma(beta*M*N/2) overflows double precision already
near N ~ 60; every coefficient of the package is positive, so a log is
all a coefficient needs.

Every finite-N law of the package (the survival function of both exact
routes and the density) is a sum of one shape,

    S(x) = sum_j c_j x^j (1-Nx)^(e-j),        0 <= x < 1/N,

and ``_edge_sum`` is the only code that assembles it: over an array of
x, in blocks, with each point's terms scaled by their largest magnitude
(``_shifted_sum``, which the Beta-integral moments share).
"""

from __future__ import annotations

import math

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


def _shifted_sum(logs: np.ndarray) -> np.ndarray:
    """sum_j exp(logs[..., j]) along the last axis, each row scaled by its
    largest log first; a row of -inf logs sums to 0."""
    peak = logs.max(axis=-1, keepdims=True)
    peak[peak == -np.inf] = 0.0
    return np.exp(logs - peak).sum(axis=-1) * np.exp(peak[..., 0])


def _edge_sum(log_c, n: int, e: float, x: np.ndarray, first: int = 0) -> np.ndarray:
    """S(x) = sum_j c_j x^j (1-Nx)^(e-j), j = first, first+1, ..., at every
    entry of the array x (entries >= 0; S = 0 for x >= 1/N).

    The coefficients are positive and come as the array log_c[i] =
    log c_(first+i).  x^0 = 1 also at x = 0.  The points x terms
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
        out[inside[lo:lo + block]] = _shifted_sum(t)
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
        scaled = _bessel_i_large(rho, x, tail_tol)
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


def _bessel_i_large(rho: float, x: float, tol: float):
    """e^(-x) I_rho(x) from the large-argument expansion (DLMF 10.40.1)

        (2 pi x)^(-1/2) sum_k (-1)^k a_k(rho) / x^k,
        a_k = prod_{j=1..k} (4 rho^2 - (2j-1)^2) / (k! 8^k),

    or None when its terms stop shrinking before they fall below tol
    times the sum, or cancel to more than tol of it in rounding."""
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
