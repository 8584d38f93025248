"""Independent exact route for beta=2 with integer alpha = M - N.

For the unitary-symmetry case the survival function has a second, fully
independent derivation: a Laplace transform of the unconstrained-ensemble
gap probability reduces to an alpha x alpha determinant of Laguerre
polynomials, and inverting the transform term by term gives

    Q_{N,M}(x) = sum_j c_j * [Gamma(MN)/Gamma(MN-j)]
                 * x^j (1-Nx)^{MN-j-1},        0 <= x <= 1/N,

where sum_j c_j s^j = det[ L_{N+k-l}^{(l)}(-s) ]_{k,l=0..alpha-1}.  This
shares no code with the partition series, which it cross-validates to
roundoff.  _det_integers finds the exact c_j in integers: row k scaled
by (N+k)!, each entry (N+k)! L_n^{(l)}(-s) = ((N+k)!/n!) P_n^(l) is an
integer at integer s (0 where n = N+k-l < 0), with P_n^(l) = n! L_n^{(l)}(-s).
Column 0 comes from the three-term recurrence (DLMF 18.9.1)

    P_0 = 1,  P_1 = 1 + s,  P_(n+1) = (2n+1+s) P_n - n^2 P_(n-1),

and each next column from L_n^(l) = L_n^(l-1) + L_(n-1)^(l) (DLMF 18.9),

    P_0^(l) = 1,  P_n^(l) = P_n^(l-1) + n P_(n-1)^(l).

The integer
determinant is then a polynomial in s over prod_k (N+k)!, and one of two
routes finds its coefficients, whichever the measured (N, alpha) map says
is the faster (README, "beta2"):

- packed (Kronecker substitution; Harvey, J. Symbolic Comput. 44, 2009):
  at the single point s = 2^K the entries are big integers (products by s
  are shifts) and their determinant, expanded over column subsets with
  no division, holds every coefficient as a signed base-2^K digit.  All
  entry coefficients are >= 0, so no coefficient of the determinant
  exceeds prod_k sum_l entry_kl(s = 1), and K, that bound's bit length
  plus 2 rounded up to whole bytes, keeps the digits apart.
- evaluate and interpolate: the determinant at s = 0..alpha*N by integer
  Bareiss elimination (Math. Comp. 22, 1968), every division exact;
  forward differences of the values give the Newton form, which Horner's
  rule over the falling factorials turns into monomial coefficients over
  (alpha*N)! prod_k (N+k)!.

The packed route is taken at every N for alpha <= 3, and for alpha = 4..6
up to the crossover N past which its alpha 2^(alpha-1) products of huge
integers cost more than the alpha*N + 1 small eliminations.

No pivot search is needed in the elimination: the r-th pivot is the
leading (r+1) x (r+1) minor, prod_(k<=r) (N+k)! times this determinant at
alpha = r+1.  Up to a positive constant that is the average
<prod_i (y_i + s)^(r+1)> over the eigenvalues y_i >= 0 of the index-0 LUE
(shift x = y + s in the gap probability E(0; (0, s)); Forrester & Hughes,
J. Math. Phys. 35, 1994), so all its coefficients in s are positive (the
tests assert it for N <= 12, alpha <= 6) and so is the pivot at s >= 0.

q_alpha2_sum specializes alpha=2 to an explicit double sum over the
Laguerre coefficient indices: the two products in the expanded 2x2
determinant combine, for i <= N, into a single weight carrying the factor
(N+1)(1+j-i)/(N+1-i).  That combination fails at i = N+1 (the extra
degree of L_{N+1}^{(0)}), where the weight is 0/0; the i = N+1 row is
therefore added back in its uncombined form, making the sum exactly equal
to the determinant route at every finite N.  The signs of the
Pochhammer symbols cancel, so every weight is a product of
C(N,i)/i! and C(N,j)/(j+1)!, built as running products of ratios that
stay in float range at any N (the largest is below e^(2 sqrt(N))).  Its
magnitudes Gamma(MN)/Gamma(MN-q) x^q (1-Nx)^(MN-1-q) are at most
q!/N^q <= 1, from the shared log table numerics._log_falling; a point
costs O(N^2).
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .core import _as_int, _points, params_new, warn_outside
from .numerics import _edge_sum, _log_falling


def _entries(n_dim: int, alpha: int, s: int, pow2: bool = False) -> list:
    """Rows k of the integer matrix (N+k)! L_n^(l)(-s), n = N+k-l, at the
    integer point s, or at 2^s if pow2 (the products by the point are
    then shifts): the falling factorial (N+k)!/n! times P_n^(l), 0 where
    n < 0."""
    if alpha == 0:
        return []
    top = n_dim + alpha - 1  # the largest degree n = N+k-l
    p = [1, ((1 << s) if pow2 else s) + 1]  # P_n^(0), n = 0..top
    for n in range(1, top):
        q, c = p[n], 2 * n + 1
        p.append(((q << s) + c * q if pow2 else (c + s) * q) - n * n * p[n - 1])
    cols = [p]  # cols[l][n] = P_n^(l), n = 0..top-l
    for l in range(1, alpha):
        p = [1]
        for n in range(1, top - l + 1):
            p.append(cols[l - 1][n] + n * p[n - 1])
        cols.append(p)
    rows = []
    for k in range(alpha):
        row, falling = [], 1  # falling = (N+k)!/n!
        for l in range(alpha):
            n = n_dim + k - l
            row.append(falling * cols[l][n] if n >= 0 else 0)
            falling *= n
        rows.append(row)
    return rows


def _bareiss(mat) -> int:
    """Integer Bareiss determinant, every division exact; 1 for the empty
    matrix.  No pivot search: each pivot is a leading principal minor,
    positive here (module docstring)."""
    prev = 1
    for r, pivot_row in enumerate(mat):
        for row in mat[r + 1 :]:
            for j in range(r + 1, len(mat)):
                row[j] = (pivot_row[r] * row[j] - row[r] * pivot_row[j]) // prev
        prev = pivot_row[r]
    return prev


def _expand(mat) -> int:
    """Determinant by Laplace expansion over column subsets, no division:
    minors[S] is the minor on the first |S| rows and the columns S, each
    grown by one row below (alpha 2^(alpha-1) products); 1 when empty."""
    minors = {0: 1}
    for row in mat:
        grown = {}
        for cols, minor in minors.items():
            sign = 1  # (-1)^(columns of S right of j)
            for j in reversed(range(len(row))):
                if cols >> j & 1:
                    sign = -sign
                elif row[j]:
                    key = cols | 1 << j
                    grown[key] = grown.get(key, 0) + sign * row[j] * minor
        minors = grown
    return minors.get((1 << len(mat)) - 1, 0)


def _row_scale(n_dim: int, alpha: int) -> int:
    """prod_k (N+k)!, the determinant of _entries over the Laguerre one."""
    return math.prod(math.factorial(n_dim + k) for k in range(alpha))


def _det_packed(n_dim: int, alpha: int) -> tuple:
    """(integer coefficients ascending in s, denominator) of the Laguerre
    determinant, from one integer determinant at s = 2^K (Kronecker
    substitution)."""
    bound = 1  # no coefficient exceeds prod_k sum_l entry_kl(s=1) in absolute value
    for row in _entries(n_dim, alpha, 1):
        bound *= sum(row)
    width = (bound.bit_length() + 9) // 8  # bytes per digit: K >= bits + 2
    shift = 8 * width
    value = _expand(_entries(n_dim, alpha, shift, pow2=True))
    slots = alpha * n_dim + 1
    raw = (value & ((1 << shift * slots) - 1)).to_bytes(width * slots, "little")
    half, full = 1 << (shift - 1), 1 << shift
    coeffs, carry = [], 0  # signed base-2^K digits, read from the bottom
    for i in range(0, width * slots, width):
        digit = int.from_bytes(raw[i : i + width], "little") + carry
        carry = digit >= half
        coeffs.append(digit - full if carry else digit)
    return coeffs, _row_scale(n_dim, alpha)


def _det_interpolated(n_dim: int, alpha: int) -> tuple:
    """The same (coefficients, denominator), from integer Bareiss
    determinants at s = 0..alpha*N and Newton interpolation."""
    deg = alpha * n_dim
    values = [_bareiss(_entries(n_dim, alpha, s)) for s in range(deg + 1)]
    # Newton form: det = sum_k (Delta^k values)(0) s(s-1)...(s-k+1) / k!,
    # times deg! and rebuilt in monomials by Horner over (s - k)
    for k in range(1, deg + 1):  # values[k] <- (Delta^k values)(0)
        for i in range(deg, k - 1, -1):
            values[i] -= values[i - 1]
    coeffs, weight = [], 1  # weight = deg! / k!
    for k in range(deg, -1, -1):
        coeffs = [a - k * b for a, b in zip([0] + coeffs, coeffs + [0])]
        coeffs[0] += values[k] * weight
        weight *= k
    return coeffs, math.factorial(deg) * _row_scale(n_dim, alpha)


#: The largest N at which the packed route is the faster, by alpha: every
#: N for alpha <= 3, none past alpha = 6 (measured; README, "beta2").
_PACKED_MAX_N = {4: 28, 5: 15, 6: 9}


@lru_cache(maxsize=32)
def _det_integers(n_dim: int, alpha: int) -> tuple:
    """(integer coefficients ascending in s, denominator) of the Laguerre
    determinant, by the route the measured (N, alpha) map says is faster;
    N and alpha are checked ints."""
    packed = alpha <= 3 or n_dim <= _PACKED_MAX_N.get(alpha, 0)
    coeffs, denom = (_det_packed if packed else _det_interpolated)(n_dim, alpha)
    return tuple(coeffs), denom


@lru_cache(maxsize=32)
def _beta2_coeffs(n_dim: int, alpha: int) -> np.ndarray:
    """log a_j of a_j = c_j * Gamma(MN)/Gamma(MN-j) > 0, the coefficient of
    x^j (1-Nx)^(MN-1-j) in Q, each taken from its exact rational value
    (reduced by one gcd, as Fraction would reduce it) with one rounding."""
    mn = (n_dim + alpha) * n_dim
    coeffs, denom = _det_integers(n_dim, alpha)
    logs, falling = [], 1  # falling = Gamma(MN)/Gamma(MN-j) = (MN-1)(MN-2)...(MN-j)
    for j, c in enumerate(coeffs):
        num = c * falling
        falling *= mn - 1 - j
        g = math.gcd(num, denom)
        logs.append(math.log(num // g) - math.log(denom // g))
    out = np.array(logs)
    out.flags.writeable = False  # shared by every caller through the cache
    return out


def q_exact_beta2(n_dim: int, m_dim: int, x):
    """Survival function at beta=2 via the Laguerre determinant route, at
    a float x (returns a float) or at every entry of an array; never
    above 1."""
    params = params_new(2.0, n_dim, m_dim)  # the (N, M) rule of both finite-N routes
    n_dim, m_dim = params.n_dim, params.m_dim
    xs = _points(x, "x")
    alpha = m_dim - n_dim
    warn_outside("beta2", N=n_dim, alpha=alpha)
    log_a = _beta2_coeffs(n_dim, alpha)
    out = np.minimum(_edge_sum(log_a, n_dim, m_dim * n_dim - 1.0, xs), 1.0)  # as in q_exact
    return out if xs.ndim else float(out)


def q_alpha2_sum(n_dim: int, x: float) -> float:
    """Survival function for alpha = 2 (M = N+2, beta = 2) as an explicit
    double sum over Laguerre coefficient indices.

    Terms with i <= N use the combined weight
        (-1)^(i+j) (-N)_i (-N)_j / ((1)_i (2)_j i! j!) * (N+1)(1+j-i)/(N+1-i)
        = [C(N,i)/i!] [C(N,j)/(j+1)!] (N+1)(1+j-i)/(N+1-i);
    the i = N+1 row (where that combination is singular) is added in its
    uncombined form, -[1/N!] [C(N,j)/(j+1)!] (N-j)/(N+1).  Equals
    q_exact_beta2(N, N+2, x) identically: 1 at x = 0, 0 from x = 1/N on.
    Past N = 30 (the "beta2" row of core.ENVELOPES) a call issues a
    PrecisionWarning.
    """
    n_dim = _as_int(n_dim, "n_dim", 1)
    x = _points(x, "x", scalar=True)
    n = n_dim
    warn_outside("beta2", N=n, alpha=2)
    if x == 0.0:
        return 1.0
    if x >= 1.0 / n:
        return 0.0
    mn = n * (n + 2)
    q = np.arange(2 * n + 1)
    mag = np.exp(_log_falling(mn, 2 * n) + q * math.log(x) + (mn - 1.0 - q) * math.log1p(-n * x))
    i = np.arange(n + 1)
    # C(N,i)/i! = prod_(t<=i) (N+1-t)/t^2
    a = np.cumprod(np.concatenate([[1.0], (n + 1.0 - i[1:]) / (i[1:] * i[1:])]))
    b = a / (i + 1.0)  # C(N,j)/(j+1)!
    w = a[:, None] * b * ((n + 1.0) * (1.0 + i - i[:, None]) / (n + 1.0 - i[:, None]))
    # boundary row i = N+1 from the second product of the determinant
    boundary = -a[n] * b[:n] * (n - i[:n]) / (n + 1.0)
    return math.fsum((w * mag[i[:, None] + i]).ravel().tolist() + (boundary * mag[n + 1:]).tolist())
