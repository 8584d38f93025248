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
833-846); jack.py derives its row term, and the one partition-weight
builder, jack._log_weight_sums, sums W_kappa over the box weight by
weight from the series parameters (nu, m, the b-shift and the box
width), streaming it in bounded chunks, so memory stays at one chunk.
The coefficients are cached as their logs (every one is positive), and
one table of log Gamma(G)/Gamma(G-k), k = 0..mN+1, per parameter set
serves Q, P and the moments: numerics._log_falling, the shared log
table that beta2.q_alpha2_sum reads too.

The density P = -dQ/dx (exact, never a finite difference) has the
coefficients d_j = N(G-1-j) A_j - (j+1) A_(j+1) of x^j (1-Nx)^(G-2-j).
They vanish for j < m (P has an m-fold zero at the hard edge x = 0), and
for j >= m they have a positive form of the same structure as A_k, with
N -> N-1 and b = 2m/beta -> 2m/beta + 2 (the unconstrained density of
Forrester, J. Math. Phys. 35 (1994) 2539, has the same shift):

    d_(m+k) = D_(N,m) * [Gamma(G)/Gamma(G-m-1-k)] * S'_k,
    D_(N,m) = (N/m!) prod_(i=1..m) (N nu + i)/(nu + i),

S'_k the sum of W_kappa over the m x (N-1) box at b-shift 2 (jack.py);
the tests prove the identity in exact rationals.  So P is built like Q,
with no subtraction, from a box of N/(N+m) the partitions: it is exactly
0 at x = 0 and keeps full relative accuracy as x -> 0.

Q and P are sums of one shape, c_j x^j (1-Nx)^(e-j), and the one
assembler of the package, numerics._series_sum, evaluates both over an
array of x (numerics._edge_sum): Q takes c_j = A_j with e = G-1, P takes
c_j = d_j, j >= m, with e = G-2.  The moments are Beta integrals of the
A_k, a series in 1/N that the same assembler sums.

q_oracle_n2 is the independent cross-check for N=2: the delta constraint
collapses the joint density to one dimension and Q becomes a ratio of two
ordinary integrals, a regularized incomplete beta function I_z(a, b)
(DLMF 8.17), evaluated from its continued fraction with no partition
machinery at all.
"""

from __future__ import annotations

import math
import sys
from functools import lru_cache

import numpy as np

from .core import EnsembleParams, _as_int, _points, require_jack_index, warn_outside
from .errors import DivergenceError, DomainError
from .jack import _log_weight_sums
from .numerics import _edge_sum, _log_falling, _series_sum


@lru_cache(maxsize=32)
def _log_gammas(p: int, count: int) -> np.ndarray:
    """log Gamma(p + k) for k = 0..count-1, as a read-only array."""
    out = np.array([math.lgamma(p + k) for k in range(count)])
    out.flags.writeable = False
    return out


def _log_density_constant(params: EnsembleParams) -> float:
    """log D_(N,m), D_(N,m) = (N/m!) prod_(i=1..m) (N nu + i)/(nu + i), the
    factor that turns the m x (N-1) sums at b = 2m/beta + 2 into the
    density coefficients d_(m+k).

    D is built as N prod_(i=1..m) (N nu + i)/((nu + i) i), with its binary
    exponent kept apart by math.frexp, so neither m! nor D itself can leave
    the double range (D = (m+2)/m! at N = 2, beta = 2 is subnormal from
    m = 172 and 0 from m = 179).
    Where D is a normal double this is the log of the product's value."""
    nu, n, m = 0.5 * params.beta, params.n_dim, params.jack_index
    mant, exp = math.frexp(float(n))
    for i in range(1, m + 1):
        mant, step = math.frexp(mant * ((n * nu + i) / ((nu + i) * i)))
        exp += step
    if sys.float_info.min_exp <= exp <= sys.float_info.max_exp:
        return math.log(math.ldexp(mant, exp))
    return math.log(mant) + exp * math.log(2.0)


@lru_cache(maxsize=32)  # each entry holds at most m*N + 1 floats
def _series_coeffs(params: EnsembleParams, shift: int) -> np.ndarray:
    """log c_j of the coefficients of a finite-N law, as a read-only array:
    shift 0 gives the A_k of Q, k = 0..m*N, from the m x N box; shift 2
    gives the d_(m+k) of P, k = 0..m*(N-1), from the m x (N-1) box at
    b = 2m/beta + 2.  Every coefficient is positive."""
    n = params.n_dim
    m = params.jack_index
    nu = 0.5 * params.beta
    g = nu * params.m_dim * n
    cols = n - shift // 2
    peak, total = _log_weight_sums(nu, m, shift, 0, m * cols, cols)
    # Gamma(G)/Gamma(G-k) for Q, Gamma(G)/Gamma(G-m-1-k) for P
    log_ratio = _log_falling(g, m * n + 1)[m + 1 if shift else 0:]
    out = log_ratio[:len(total)] + peak + np.log(total)
    if shift:
        out += _log_density_constant(params)
    out.flags.writeable = False  # shared by every caller through the cache
    return out


def q_exact(params: EnsembleParams, x):
    """Survival function Q_{N,M}(x) of the smallest eigenvalue, at a float
    x (returns a float) or at every entry of an array (returns an array).

    Exactly 1 at x=0, never above 1, and exactly 0 for x >= 1/N.  Requires an integer
    Jack index (NonIntegerJackIndex otherwise).  For N=1 the trace
    constraint pins the eigenvalue at 1, so Q is exactly the step
    function 1_{x < 1}.
    """
    m = require_jack_index(params)
    xs = _points(x, "x")
    warn_outside("exact", N=params.n_dim, m=m)
    n = params.n_dim
    if n == 1:
        out = np.where(xs < 1.0, 1.0, 0.0)
    else:
        g = 0.5 * params.beta * params.m_dim * n
        # the leading terms can round to 1 + ulp next to x = 0; Q is a probability
        out = np.minimum(_edge_sum(_series_coeffs(params, 0), n, g - 1.0, xs), 1.0)
    return out if xs.ndim else float(out)


def p_exact(params: EnsembleParams, x):
    """Density P_{N,M}(x) = -dQ/dx from its positive coefficients d_j,
    j >= m (see _series_coeffs), at a float x or at every entry of an
    array.

    Nonnegative on [0, 1/N] and exactly 0 at x=0 when m >= 1.  For N=1
    the law is a point mass at x=1, so the density part is identically 0.
    """
    m = require_jack_index(params)
    xs = _points(x, "x")
    warn_outside("exact", N=params.n_dim, m=m)
    n = params.n_dim
    if n == 1:
        out = np.zeros(xs.shape)
    else:
        g = 0.5 * params.beta * params.m_dim * n
        out = _edge_sum(_series_coeffs(params, 2), n, g - 2.0, xs, first=m)
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
    p = _as_int(p, "p", 1)
    warn_outside("exact", N=params.n_dim, m=m)
    n = params.n_dim
    if n == 1:
        # point mass at x=1: every moment is exactly 1
        return 1.0
    g = 0.5 * params.beta * params.m_dim * n
    log_a = _series_coeffs(params, 0)
    log_ratio = _log_falling(g, m * n + 1)[:-1]  # the table P shares
    log_gamma_pk = _log_gammas(p, len(log_a))
    # log of Gamma(G+p)/Gamma(G) = (G)(G+1)...(G+p-1), exact factors
    log_poch_g = math.fsum(math.log(g + i) for i in range(p))
    # a series in u = 1/N: p / (N^p (G)_p) sum_k [A_k Gamma(p+k) Gamma(G-k)/Gamma(G)] u^k
    log_n = math.log(n)
    offset = math.log(p) - p * log_n - log_poch_g
    return float(_series_sum(log_gamma_pk + (log_a - log_ratio), 0, np.array([-log_n]),
                             offset=np.array([offset]))[0][0])


#: Coefficients B_2k / (2k(2k-1)) of the Stirling series of
#: omega(x) = lgamma(x) - (x - 1/2) log x + x - log(2 pi)/2, k = 1..6;
#: from x = 25 on, the next term is below 1e-19.
_STIRLING = (1 / 12, -1 / 360, 1 / 1260, -1 / 1680, 1 / 1188, -691 / 360360)
#: From this larger argument on, log B takes the Stirling-difference form.
_STIRLING_FROM = 25.0
#: Continued-fraction stopping rule and iteration cap, and the modified
#: Lentz guard against a zero denominator.
_CF_EPS = 2.0 * np.finfo(float).eps
_CF_MAX_ITER = 10_000
_CF_TINY = 1e-300


def _stirling_omega(x: float) -> float:
    """omega(x) = lgamma(x) - ((x - 1/2) log x - x + log(2 pi)/2), x >= 25."""
    r = 1.0 / (x * x)
    out = 0.0
    for c in reversed(_STIRLING):
        out = out * r + c
    return out / x


def _log_beta(a: float, b: float) -> float:
    """log B(a, b).  Once the larger argument l reaches _STIRLING_FROM,
    lgamma(l) - lgamma(a+b) is taken as the Stirling difference

        -(l - 1/2) log1p(s/l) - s log(a+b) + s + omega(l) - omega(a+b)

    (s the smaller argument): a plain lgamma difference there loses
    |lgamma(l)| * eps, about 5e-13 at l = 800."""
    small, large = sorted((a, b))
    if large < _STIRLING_FROM:
        return math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)
    return (
        math.lgamma(small) - (large - 0.5) * math.log1p(small / large)
        - small * math.log(a + b) + small
        + _stirling_omega(large) - _stirling_omega(a + b)
    )


def _beta_cf(a: float, b: float, z: np.ndarray) -> np.ndarray:
    """The continued fraction of DLMF 8.17.22,

        I_z(a, b) = z^a (1-z)^b / (a B(a, b)) * 1/(1+ d_1/(1+ d_2/(1+ ...))),

    d_2j = j(b-j) z / ((a+2j-1)(a+2j)),
    d_2j+1 = -(a+j)(a+b+j) z / ((a+2j)(a+2j+1)),

    evaluated by modified Lentz at every entry of the 1-D array z, each
    entry stopping on its own once a step changes it by at most _CF_EPS.
    Converges fast for z < (a+1)/(a+b+2).  Raises DivergenceError if an
    entry has not converged within _CF_MAX_ITER steps."""
    out = np.empty_like(z)
    idx = np.arange(z.size)
    c = np.ones_like(z)
    d = 1.0 - (a + b) * z / (a + 1.0)
    d = 1.0 / np.where(np.abs(d) < _CF_TINY, _CF_TINY, d)
    h = d
    j = 0
    while idx.size:
        j += 1
        if j > _CF_MAX_ITER:
            raise DivergenceError(
                f"incomplete-beta continued fraction (a={a}, b={b}) did not "
                f"converge in {_CF_MAX_ITER} steps at z={z[0]}"
            )
        for dj in (
            j * (b - j) * z / ((a + 2 * j - 1.0) * (a + 2 * j)),
            -(a + j) * (a + b + j) * z / ((a + 2 * j) * (a + 2 * j + 1.0)),
        ):
            d = 1.0 + dj * d
            d = 1.0 / np.where(np.abs(d) < _CF_TINY, _CF_TINY, d)
            c = 1.0 + dj / c
            c = np.where(np.abs(c) < _CF_TINY, _CF_TINY, c)
            step = d * c
            h = h * step
        more = np.abs(step - 1.0) > _CF_EPS
        out[idx[~more]] = h[~more]
        idx, z, c, d, h = idx[more], z[more], c[more], d[more], h[more]
    return out


def q_oracle_n2(params: EnsembleParams, x):
    """Survival function for N=2 in closed form, at a float x (returns a
    float) or at every entry of an array (returns an array).

    The trace constraint leaves a single free eigenvalue lambda on
    [x, 1-x] with weight (lambda(1-lambda))^(beta*alpha/2)|2lambda-1|^beta,
    and Q is its normalized integral.  With s = (2lambda-1)^2 that is the
    regularized incomplete beta function

        Q(x) = I_z(a, b),  z = (1-2x)^2,  a = (beta+1)/2,  b = beta(M-1)/2,

    taken from its continued fraction where z <= (a+1)/(a+b+2) and from
    1 - I_(1-z)(b, a) above, with 1-z = 4x(1-x) formed directly and the
    prefactor z^a (1-z)^b / B(a, b) in logs: log z = 2 log1p(-2x), and
    log(1-z) = log1p(-z) below z = 1/2, log(4x(1-x)) above.  Exactly 1 at x=0 and 0 at
    x=1/2.  Works for ANY beta > 0 (no integer Jack index needed) and
    shares no code with the series or determinant routes, which is the
    whole point.  Outside beta in [0.1, 8], M <= 200 (the "oracle_n2" row
    of core.ENVELOPES) the reflected branch loses digits (near the switch
    point it is conditioned like b, and 1 - I_w(b, a) cancels when
    b << 1), so such a call issues one PrecisionWarning.
    """
    if params.n_dim != 2:
        raise DomainError(f"q_oracle_n2 requires N=2, got N={params.n_dim}")
    xs = _points(x, "x")
    if np.any(xs > 0.5):
        raise DomainError(f"q_oracle_n2 requires 0 <= x <= 1/2, got {xs[xs > 0.5].flat[0]}")
    warn_outside("oracle_n2", beta=params.beta, M=params.m_dim)
    a = 0.5 * (params.beta + 1.0)
    b = 0.5 * params.beta * (params.m_dim - 1)
    log_beta = _log_beta(a, b)
    flat = xs.ravel()
    out = np.where(flat == 0.0, 1.0, 0.0)
    inner = np.flatnonzero((flat > 0.0) & (flat < 0.5))
    t = flat[inner]
    z = (1.0 - 2.0 * t) ** 2
    w = 4.0 * t * (1.0 - t)  # 1 - z
    log_w = np.log(w)
    small = z < 0.5
    log_w[small] = np.log1p(-z[small])
    log_pref = 2.0 * a * np.log1p(-2.0 * t) + b * log_w - log_beta  # z^a (1-z)^b / B
    low = z <= (a + 1.0) / (a + b + 2.0)
    out[inner[low]] = np.exp(log_pref[low] - math.log(a)) * _beta_cf(a, b, z[low])
    out[inner[~low]] = 1.0 - np.exp(log_pref[~low] - math.log(b)) * _beta_cf(b, a, w[~low])
    out = out.reshape(xs.shape)
    return out if xs.ndim else float(out)
