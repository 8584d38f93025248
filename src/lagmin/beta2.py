"""Independent exact route for beta=2 with integer alpha = M - N.

For the unitary-symmetry case the survival function has a second, fully
independent derivation: a Laplace transform of the unconstrained-ensemble
gap probability reduces to an alpha x alpha determinant of Laguerre
polynomials, and inverting the transform term by term gives

    Q_{N,M}(x) = sum_j c_j * [Gamma(MN)/Gamma(MN-j)]
                 * x^j (1-Nx)^{MN-j-1},        0 <= x <= 1/N,

where sum_j c_j s^j = det[ L_{N+k-l}^{(l)}(-s) ]_{k,l=0..alpha-1}.  This
shares no code with the partition series, which it cross-validates to
roundoff.  det_laguerre finds the exact c_j in integers: scaled by
F = (N+alpha-1)!, each entry F L_n^{(l)}(-s) = (F // n!) P_n is an integer
at integer s, with P_n = n! L_n^{(l)}(-s) from the three-term recurrence
(DLMF 18.9.1)

    P_0 = 1,  P_1 = 1 + l + s,  P_(n+1) = (2n+1+l+s) P_n - n(n+l) P_(n-1),

one column l at a time, and 0 where n = N+k-l < 0.  The determinant is
evaluated at s = 0..alpha*N by integer Bareiss elimination (Math. Comp.
22, 1968), every division exact; forward differences of the values give
the Newton form, which Horner's rule over the falling factorials turns
into monomial coefficients over the common denominator (alpha*N)! F^alpha.

No pivot search is needed: the r-th pivot is the leading (r+1) x (r+1)
minor, F^(r+1) times this determinant at alpha = r+1.  Up to a positive
constant that is the average <prod_i (y_i + s)^(r+1)> over the eigenvalues
y_i >= 0 of the index-0 LUE (shift x = y + s in the gap probability
E(0; (0, s)); Forrester & Hughes, J. Math. Phys. 35, 1994), so all its
coefficients in s are positive (the tests assert it for N <= 12,
alpha <= 6) and so is the pivot at s >= 0.

q_alpha2_sum specializes alpha=2 to an explicit double sum over the
Laguerre coefficient indices: the two products in the expanded 2x2
determinant combine, for i <= N, into a single weight carrying the factor
(N+1)(1+j-i)/(N+1-i).  That combination fails at i = N+1 (the extra
degree of L_{N+1}^{(0)}), where the weight is 0/0; the i = N+1 row is
therefore added back in its uncombined form, making the sum exactly equal
to the determinant route at every finite N.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .core import _as_int, warn_outside
from .errors import DomainError
from .numerics import _edge_sum, _points


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


@lru_cache(maxsize=32, typed=True)  # typed: a bool must miss the int entries, then be rejected
def det_laguerre(n_dim: int, alpha: int) -> tuple:
    """Exact coefficients, ascending in s, of the polynomial
    det[ L_{N+k-l}^{(l)}(-s) ]_{k,l=0..alpha-1}: alpha*N + 1 Fractions,
    (Fraction(1),) for the empty determinant alpha = 0."""
    n_dim = _as_int(n_dim, "n_dim")
    alpha = _as_int(alpha, "alpha")
    if n_dim < 1:
        raise DomainError(f"n_dim must be >= 1, got {n_dim}")
    if alpha < 0:
        raise DomainError(f"alpha must be >= 0, got {alpha}")
    deg = alpha * n_dim
    scale = math.factorial(n_dim + alpha - 1)  # F
    top = n_dim + alpha - 1  # the largest degree n = N+k-l
    over = [scale // math.factorial(n) for n in range(top + 1)]  # F // n!
    values = []
    for s in range(deg + 1):
        cols = []  # cols[l][n] = P_n = n! L_n^(l)(-s), n = 0..top-l
        for l in range(alpha):
            p = [1, 1 + l + s]
            for n in range(1, top - l):
                p.append((2 * n + 1 + l + s) * p[n] - n * (n + l) * p[n - 1])
            cols.append(p)
        values.append(_bareiss([
            [over[n] * cols[l][n] if n >= 0 else 0
             for l, n in enumerate(range(n_dim + k, n_dim + k - alpha, -1))]
            for k in range(alpha)
        ]))
    # Newton form: F^alpha * det = sum_k (Delta^k values)(0) s(s-1)...(s-k+1) / k!,
    # times deg! and rebuilt in monomials by Horner over (s - k)
    for k in range(1, deg + 1):  # values[k] <- (Delta^k values)(0)
        for i in range(deg, k - 1, -1):
            values[i] -= values[i - 1]
    coeffs, weight = [], 1  # weight = deg! / k!
    for k in range(deg, -1, -1):
        coeffs = [a - k * b for a, b in zip([0] + coeffs, coeffs + [0])]
        coeffs[0] += values[k] * weight
        weight *= k
    denom = math.factorial(deg) * scale**alpha
    return tuple(Fraction(c, denom) for c in coeffs)


@lru_cache(maxsize=32)
def _beta2_coeffs(n_dim: int, alpha: int) -> np.ndarray:
    """log a_j of a_j = c_j * Gamma(MN)/Gamma(MN-j) > 0, the coefficient of
    x^j (1-Nx)^(MN-1-j) in Q, each taken from its exact rational value
    with one rounding."""
    mn = (n_dim + alpha) * n_dim
    logs, falling = [], 1  # falling = Gamma(MN)/Gamma(MN-j) = (MN-1)(MN-2)...(MN-j)
    for j, c in enumerate(det_laguerre(n_dim, alpha)):
        a = c * falling
        falling *= mn - 1 - j
        logs.append(math.log(a.numerator) - math.log(a.denominator))
    out = np.array(logs)
    out.flags.writeable = False  # shared by every caller through the cache
    return out


def q_exact_beta2(n_dim: int, m_dim: int, x):
    """Survival function at beta=2 via the Laguerre determinant route, at
    a float x (returns a float) or at every entry of an array."""
    n_dim = _as_int(n_dim, "n_dim")
    m_dim = _as_int(m_dim, "m_dim")
    if n_dim < 1 or m_dim < n_dim:
        raise DomainError(f"need M >= N >= 1, got N={n_dim}, M={m_dim}")
    xs = _points(x)
    alpha = m_dim - n_dim
    warn_outside("beta2", N=n_dim, alpha=alpha)
    log_a = _beta2_coeffs(n_dim, alpha)
    out = _edge_sum(log_a, n_dim, m_dim * n_dim - 1.0, xs)
    return out if xs.ndim else float(out)


def q_alpha2_sum(n_dim: int, x: float) -> float:
    """Survival function for alpha = 2 (M = N+2, beta = 2) as an explicit
    double sum over Laguerre coefficient indices.

    Terms with i <= N use the combined weight
        (-1)^(i+j) (-N)_i (-N)_j / ((1)_i (2)_j i! j!)
        * (N+1)(1+j-i)/(N+1-i);
    the i = N+1 row (where that combination is singular) is added in its
    uncombined form.  Equals q_exact_beta2(N, N+2, x) identically.
    """
    n_dim = _as_int(n_dim, "n_dim")
    if n_dim < 1:
        raise DomainError(f"n_dim must be >= 1, got {n_dim}")
    if not (0.0 <= x <= 1.0 / n_dim):
        raise DomainError(f"x must lie in [0, 1/N], got {x}")
    n = n_dim
    if x == 0.0:
        return 1.0
    if x >= 1.0 / n:
        return 0.0
    mn = n * (n + 2)
    log_edge = math.log1p(-n * x)

    def assemble(q, w):
        # w * Gamma(MN)/Gamma(MN-q) * x^q (1-Nx)^(MN-1-q)
        if w == 0.0:
            return 0.0
        mag = math.exp(
            math.fsum(math.log(mn - i) for i in range(1, q + 1))
            + q * math.log(x)
            + (mn - 1.0 - q) * log_edge
        )
        return w * mag

    def poch(a, k):
        out = 1.0
        for t in range(k):
            out *= a + t
        return out

    terms = []
    for i in range(n + 1):
        for j in range(n + 1):
            w = (
                (-1.0) ** (i + j)
                * poch(-n, i)
                * poch(-n, j)
                / (poch(1.0, i) * poch(2.0, j) * math.factorial(i) * math.factorial(j))
                * (n + 1.0)
                * (1.0 + j - i)
                / (n + 1.0 - i)
            )
            terms.append(assemble(i + j, w))
    # boundary row i = N+1 from the second product of the determinant
    i = n + 1
    for j in range(n):
        w = (
            -((-1.0) ** (i + j))
            * n
            * poch(-n - 1.0, i)
            * poch(-n + 1.0, j)
            / (poch(1.0, i) * poch(2.0, j) * math.factorial(i) * math.factorial(j))
        )
        terms.append(assemble(i + j, w))
    return math.fsum(terms)
