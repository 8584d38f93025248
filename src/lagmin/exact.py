"""Finite-N smallest-eigenvalue distribution of the fixed-trace ensemble.

The survival function Q_{N,M}(x) = Prob(lambda_min >= x) is a finite
partition sum: with G = beta*M*N/2, m the Jack index, and nu = beta/2,

    Q(x) = sum_{k=0}^{mN} sum_{|kappa|=k, len<=m, kappa_1<=N}
        (-2/beta)^k * [Gamma(G)/Gamma(G-k)]
        * ([-N]_kappa^(nu) / [2m/beta]_kappa^(nu))
        * C_kappa^(nu)(1^m) / k!
        * x^k (1-Nx)^{G-k-1},

supported on 0 <= x <= 1/N (N values >= x summing to 1 force x <= 1/N).
The k-sum is finite because (-N)_{kappa_1} kills parts above N and
C_kappa(1^m) kills partitions longer than m, so kappa runs over the
m x N box: C(N+m, m) partitions.

Every coefficient A_k (the x-independent factor of x^k (1-Nx)^{G-k-1})
is positive.  Each of the k factors -N - r/nu + t of [-N]_kappa is
negative, each factor (m-r)/nu + t of [2m/beta]_kappa is positive (row
r < m), and the (-1)^k of (-2/beta)^k cancels the sign.  The nu^k and k!
of C_kappa(1^m) (see jack.py) cancel (2/beta)^k = nu^-k and the 1/k!.  So
A_k = [Gamma(G)/Gamma(G-k)] * sum_{|kappa|=k} W_kappa with W_kappa > 0,
and the inner sums have no cancellation.

W_kappa factorises by rows (Koev & Edelman, Math. Comp. 75 (2006)
833-846).  Group the cells of row i by the row j whose end bounds their
leg: the cells with leg j-1-i are those in columns kappa_j..kappa_{j-1}-1,
and their arms run over an interval fixed by kappa_i - kappa_j and
kappa_i - kappa_{j-1}.  With 0-based rows and kappa_m = 0 this gives

    log W_kappa = sum_{r<m} R_r[kappa_r]
                + sum_{0<=i<j<m} T_{j-i}[kappa_i - kappa_j],

where R_r[p] sums log((nu*N + r - nu*t) / ((nu*t + m - r)
(nu*t + nu + m - 1 - r))) over t < p (the cells of row r, their
generalized-factorial and C_kappa numerator factors, and the hooks
against the empty row m), and T_l[p] sums log((nu*d + l + 1)
(nu*d + nu + l) / ((nu*d + l)(nu*d + nu + l - 1))) over d < p (the
hook-length ratio of the row pair).  The tables are m x (N+1) prefix
sums built once per parameter set, so a partition costs m(m+1)/2 table
lookups and no Python work.

The box is streamed as int32 arrays, a run of first parts kappa_1 per
chunk (the other rows form the (m-1) x kappa_1 box).  Each chunk is
reduced by weight with a per-k max shift and a positive sum, and merged
into running (peak, sum) pairs; memory stays at one chunk.  The
coefficients are cached in log-magnitude + sign form (every sign +1).

Q and P are sums of one shape, c_j x^j (1-Nx)^(e-j), and the one
assembler numerics._edge_sum evaluates both over an array of x.  Q takes
c_j = A_j with e = G-1.  The density P = -dQ/dx (exact, never a finite
difference) takes e = G-2 and

    d_j = N(G-1-j) A_j - (j+1) A_(j+1),

which vanish for j < m: P has an m-fold zero at the hard edge x = 0.
Those d_j are cancellation noise in floating point, so P sums from
j = m; it is exactly 0 at x = 0 and keeps full relative accuracy as
x -> 0.  The moments are Beta integrals of the same A_k, summed by the
assembler's max-shifted reduction.

q_oracle_n2 is the independent cross-check for N=2: the delta constraint
collapses the joint density to one dimension and Q becomes a ratio of two
ordinary integrals, evaluated by adaptive quadrature with no partition
machinery at all.
"""

from __future__ import annotations

import math
import warnings
from functools import lru_cache

import numpy as np
from scipy.integrate import quad

from .core import EnsembleParams, require_jack_index
from .errors import DomainError, NumericalInconsistency, PrecisionWarning
from .numerics import _edge_sum, _points, _shifted_sum

#: Validated envelope for the partition-series routes.
N_ENVELOPE = 50
JACK_INDEX_ENVELOPE = 6


def _warn_envelope(params: EnsembleParams, m: int):
    if params.n_dim > N_ENVELOPE or m > JACK_INDEX_ENVELOPE:
        warnings.warn(
            f"N={params.n_dim}, m={m} is outside the validated envelope "
            f"(N <= {N_ENVELOPE}, m <= {JACK_INDEX_ENVELOPE}); "
            "results are best-effort",
            PrecisionWarning,
            stacklevel=3,
        )


#: Target rows per streamed chunk of the partition box.
CHUNK_ROWS = 1 << 17


def _box_chunks(m: int, n: int):
    """Stream the partitions of the m x N box (m rows, parts <= N) as
    int32 arrays of shape (rows, m) with contiguous columns, trailing
    zero parts included; C(N+m, m) rows in all.

    A chunk holds the partitions whose first part lies in a run of
    consecutive values v (the other rows of each form the (m-1) x v
    box, C(v+m-1, m-1) of them), runs being as long as fit in
    CHUNK_ROWS and at least one value long.  Columns are built left to
    right: a row whose last entry is f gains every next entry u in [0, f].
    """
    if m == 0:
        yield np.zeros((1, 0), dtype=np.int32)
        return
    v0 = 0
    while v0 <= n:
        v1, rows = v0 + 1, math.comb(v0 + m - 1, m - 1)
        while v1 <= n and rows + math.comb(v1 + m - 1, m - 1) <= CHUNK_ROWS:
            rows += math.comb(v1 + m - 1, m - 1)
            v1 += 1
        box = np.arange(v0, v1, dtype=np.int32)[:, None]
        for j in range(1, m):
            counts = box[:, j - 1] + 1
            rep = np.repeat(np.arange(len(box)), counts)
            grown = np.empty((len(rep), j + 1), dtype=np.int32, order="F")
            for c in range(j):
                np.take(box[:, c], rep, out=grown[:, c])
            starts = np.cumsum(counts) - counts
            grown[:, j] = np.arange(len(rep)) - starts[rep]
            box = grown
        yield box
        v0 = v1


def _prefix_sums(terms: np.ndarray) -> np.ndarray:
    """Correctly rounded prefix sums along each row, with a leading 0."""
    out = np.zeros((terms.shape[0], terms.shape[1] + 1))
    for row, t in zip(out, terms.tolist()):
        row[1:] = [math.fsum(t[:p]) for p in range(1, len(t) + 1)]
    return out


def _log_falling(g: float, k_max: int) -> list:
    """log(Gamma(g)/Gamma(g-k)) for k = 0..k_max, each an exact fsum of
    its k factor logs (the values log_gamma_ratio_falling returns)."""
    logs = [math.log(g - i) for i in range(1, k_max + 1)]
    return [math.fsum(logs[:k]) for k in range(k_max + 1)]


@lru_cache(maxsize=32)  # each entry holds m*N + 1 pairs
def _series_coeffs(params: EnsembleParams) -> tuple:
    """x-independent coefficients A_k of Q(x) = sum_k A_k x^k (1-Nx)^{G-k-1},
    as a read-only (m*N+1) x 2 array of rows (log|A_k|, sign), k = 0..m*N;
    every sign is +1."""
    n = params.n_dim
    m = params.jack_index
    nu = 0.5 * params.beta
    g = 0.5 * params.beta * params.m_dim * n
    k_max = m * n
    # row tables (cells of row r, with the hook pairs against the empty row m)
    t = nu * np.arange(n, dtype=float)
    r = np.arange(m, dtype=float)[:, None]
    row_tab = _prefix_sums(
        np.log(nu * n + r - t) - np.log(t + m - r) - np.log(t + nu + m - 1 - r)
    )
    # row-pair tables T_l, l = j - i = 1..m-1 (hooks of row i against row j)
    l_ = np.arange(1, m, dtype=float)[:, None]
    pair_tab = _prefix_sums(
        np.log(t + l_ + 1) + np.log(t + nu + l_) - np.log(t + l_) - np.log(t + nu + l_ - 1)
    )

    peak = np.full(k_max + 1, -np.inf)
    total = np.zeros(k_max + 1)
    for box in _box_chunks(m, n):
        lw = np.zeros(len(box))
        for i in range(m):
            col = box[:, i]
            lw += row_tab[i][col]
            for j in range(i + 1, m):
                lw += pair_tab[j - i - 1][col - box[:, j]]
        k = box.sum(axis=1, dtype=np.intp)
        # a chunk of first parts v0..v1-1 holds every weight v0..m*(v1-1),
        # so no entry of this slice stays -inf
        lo, hi = int(k.min()), int(k.max()) + 1
        k -= lo
        chunk_peak = np.full(hi - lo, -np.inf)
        np.maximum.at(chunk_peak, k, lw)
        chunk_sum = np.bincount(k, weights=np.exp(lw - chunk_peak[k]), minlength=hi - lo)
        new_peak = np.maximum(peak[lo:hi], chunk_peak)
        total[lo:hi] = (
            total[lo:hi] * np.exp(peak[lo:hi] - new_peak)
            + chunk_sum * np.exp(chunk_peak - new_peak)
        )
        peak[lo:hi] = new_peak

    log_ratio = _log_falling(g, k_max)
    out = np.array([
        (log_ratio[k] + float(peak[k]) + math.log(total[k]), 1.0)
        for k in range(k_max + 1)
    ])
    out.flags.writeable = False  # shared by every caller through the cache
    return out


def _density_coeffs(params: EnsembleParams) -> tuple:
    """(log|d_j|, sign d_j) arrays, j = 0..m*N, of the density
    P(x) = -dQ/dx = sum_j d_j x^j (1-Nx)^(G-2-j), with

        d_j = N(G-1-j) A_j - (j+1) A_(j+1)        (A_(mN+1) = 0).

    d_j = 0 for j < m in exact arithmetic (P has an m-fold zero at x = 0);
    in floating point those d_j are roundoff, and p_exact drops them."""
    n = params.n_dim
    g = 0.5 * params.beta * params.m_dim * n
    log_a = _series_coeffs(params)[:, 0]
    j = np.arange(len(log_a))
    ratio = np.exp(np.append(log_a[1:] - log_a[:-1], -np.inf))  # A_(j+1) / A_j
    d = n * (g - 1.0 - j) - (j + 1) * ratio
    with np.errstate(divide="ignore"):
        return log_a + np.log(np.abs(d)), np.sign(d)


def q_exact(params: EnsembleParams, x):
    """Survival function Q_{N,M}(x) of the smallest eigenvalue, at a float
    x (returns a float) or at every entry of an array (returns an array).

    Exactly 1 at x=0 and exactly 0 for x >= 1/N.  Requires an integer
    Jack index (NonIntegerJackIndex otherwise).  For N=1 the trace
    constraint pins the eigenvalue at 1, so Q is exactly the step
    function 1_{x < 1}.
    """
    m = require_jack_index(params)
    xs = _points(x)
    _warn_envelope(params, m)
    n = params.n_dim
    if n == 1:
        out = np.where(xs < 1.0, 1.0, 0.0)
    else:
        g = 0.5 * params.beta * params.m_dim * n
        log_a, sign_a = _series_coeffs(params).T
        out = _edge_sum(log_a, sign_a, n, g - 1.0, xs)
    return out if xs.ndim else float(out)


def p_exact(params: EnsembleParams, x):
    """Density P_{N,M}(x) = -dQ/dx from the exact coefficients d_j (see
    _density_coeffs), at a float x or at every entry of an array.

    Nonnegative on [0, 1/N], exactly 0 at x=0 when m >= 1; tiny negative
    roundoff is clamped to 0 and anything below -1e-9 raises
    NumericalInconsistency.  For N=1 the law is a point mass at x=1, so
    the density part is identically 0.
    """
    m = require_jack_index(params)
    xs = _points(x)
    _warn_envelope(params, m)
    n = params.n_dim
    if n == 1:
        out = np.zeros(xs.shape)
    else:
        g = 0.5 * params.beta * params.m_dim * n
        log_d, sign_d = _density_coeffs(params)
        out = _edge_sum(log_d[m:], sign_d[m:], n, g - 2.0, xs, first=m)
        if np.any(out < -1e-9):
            raise NumericalInconsistency(
                f"density evaluated to {out.min()}, below -1e-9"
            )
        out = np.where(out > 0.0, out, 0.0)
    return out if xs.ndim else float(out)


def moment(params: EnsembleParams, p: int) -> float:
    """p-th moment of the smallest eigenvalue, p >= 1 integer.

    mu_p = int_0^(1/N) p x^(p-1) Q(x) dx term by term (Beta integrals):

        mu_p = p * sum_k A_k Gamma(p+k) Gamma(G-k) / (Gamma(G+p) N^(p+k)),

    from the cached coefficients A_k, so after the first call it costs
    O(mN).  Gamma(G-k)/Gamma(G+p) is taken as exact factor products
    (never a difference of log-gammas), which keeps the m=0 single-term
    case accurate to ~1e-15 relative.  Every term is positive.
    """
    m = require_jack_index(params)
    if not isinstance(p, int) or isinstance(p, bool) or p < 1:
        raise DomainError(f"moment order p must be an integer >= 1, got {p!r}")
    _warn_envelope(params, m)
    n = params.n_dim
    if n == 1:
        # point mass at x=1: every moment is exactly 1
        return 1.0
    g = 0.5 * params.beta * params.m_dim * n
    log_a = _series_coeffs(params)[:, 0]
    k = np.arange(len(log_a))
    log_ratio = np.array(_log_falling(g, len(log_a) - 1))
    log_gamma_pk = np.array([math.lgamma(p + i) for i in range(len(log_a))])
    # log of Gamma(G+p)/Gamma(G) = (G)(G+1)...(G+p-1), exact factors
    log_poch_g = math.fsum(math.log(g + i) for i in range(p))
    logs = (
        math.log(p) + log_gamma_pk - (p + k) * math.log(n)
        + (log_a - log_ratio) - log_poch_g
    )
    return float(_shifted_sum(logs, 1.0))


def norm_const_log(params: EnsembleParams) -> float:
    """log of the normalization constant C_{N,M} of the joint density."""
    beta = params.beta
    n = params.n_dim
    m_dim = params.m_dim
    out = math.lgamma(0.5 * beta * m_dim * n) + n * math.lgamma(1.0 + 0.5 * beta)
    for j in range(n):
        out -= math.lgamma(0.5 * beta * (m_dim - j))
        out -= math.lgamma(1.0 + 0.5 * beta * (n - j))
    return out


def norm_const(params: EnsembleParams) -> float:
    """Normalization constant C_{N,M}; equals 1 when N=1."""
    return math.exp(norm_const_log(params))


@lru_cache(maxsize=None)
def _oracle_weight_norm(beta: float, m_dim: int, quad_tol: float) -> float:
    expo = 0.5 * beta * (m_dim - 1) - 1.0  # beta*alpha/2 at N=2
    val, _ = quad(
        lambda lam: (lam * (1.0 - lam)) ** expo * abs(2.0 * lam - 1.0) ** beta,
        0.0,
        1.0,
        points=[0.5],
        epsabs=quad_tol,
        epsrel=quad_tol,
        limit=200,
    )
    return val


def q_oracle_n2(params: EnsembleParams, x: float, quad_tol: float = 1e-10) -> float:
    """Brute-force survival function for N=2 by adaptive quadrature.

    The trace constraint leaves a single free eigenvalue lambda on
    [x, 1-x] with weight (lambda(1-lambda))^(beta*alpha/2)|2lambda-1|^beta;
    Q is the normalized integral.  Works for ANY beta > 0 (no integer Jack
    index needed) and shares no code with the series routes, which is the
    whole point.
    """
    if params.n_dim != 2:
        raise DomainError(f"q_oracle_n2 requires N=2, got N={params.n_dim}")
    if not (0.0 <= x <= 0.5):
        raise DomainError(f"q_oracle_n2 requires 0 <= x <= 1/2, got {x}")
    if x == 0.0:
        return 1.0
    if x >= 0.5:
        return 0.0
    beta = params.beta
    expo = 0.5 * beta * (params.m_dim - 1) - 1.0
    num, _ = quad(
        lambda lam: (lam * (1.0 - lam)) ** expo * abs(2.0 * lam - 1.0) ** beta,
        x,
        1.0 - x,
        points=[0.5],
        epsabs=quad_tol,
        epsrel=quad_tol,
        limit=200,
    )
    return num / _oracle_weight_norm(beta, params.m_dim, quad_tol)
