"""Independent exact route for beta=2 with integer alpha = M - N.

For the unitary-symmetry case the survival function has a second, fully
independent derivation: a Laplace transform of the unconstrained-ensemble
gap probability reduces to an alpha x alpha determinant of Laguerre
polynomials, and inverting the transform term by term gives

    Q_{N,M}(x) = sum_j c_j * [Gamma(MN)/Gamma(MN-j)]
                 * x^j (1-Nx)^{MN-j-1},        0 <= x <= 1/N,

where sum_j c_j s^j = det[ L_{N+k-l}^{(l)}(-s) ]_{k,l=0..alpha-1}.  The
coefficients c_j are computed in exact rational arithmetic (fraction-free
Bareiss elimination), so this route agrees with the partition-series
route to roundoff and cross-validates it.

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
import warnings
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .errors import DomainError, PrecisionWarning
from .numerics import _edge_sum, _points, log_gamma_ratio_falling

N_ENVELOPE = 30
ALPHA_ENVELOPE = 6


class RationalPolynomial:
    """Polynomial in one variable with exact Fraction coefficients
    (ascending powers, trailing zeros trimmed)."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = [Fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    @classmethod
    def zero(cls):
        return cls(())

    @classmethod
    def one(cls):
        return cls((Fraction(1),))

    def is_zero(self):
        return not self.coeffs

    @property
    def degree(self):
        """Degree; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def __eq__(self, other):
        return isinstance(other, RationalPolynomial) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __add__(self, other):
        a, b = self.coeffs, other.coeffs
        n = max(len(a), len(b))
        return RationalPolynomial(
            [
                (a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0)
                for i in range(n)
            ]
        )

    def __neg__(self):
        return RationalPolynomial([-c for c in self.coeffs])

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return RationalPolynomial([c * other for c in self.coeffs])
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return RationalPolynomial.zero()
        out = [Fraction(0)] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            if ca:
                for j, cb in enumerate(b):
                    out[i + j] += ca * cb
        return RationalPolynomial(out)

    __rmul__ = __mul__

    def __divmod__(self, other):
        """Long division over the rationals; exact when remainder is 0."""
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        div = other.coeffs
        dd = len(div) - 1
        lead = div[-1]
        if len(rem) - 1 < dd:
            return RationalPolynomial.zero(), RationalPolynomial(rem)
        q = [Fraction(0)] * (len(rem) - dd)
        for i in range(len(rem) - 1, dd - 1, -1):
            c = rem[i] / lead
            q[i - dd] = c
            if c:
                for j in range(dd + 1):
                    rem[i - dd + j] -= c * div[j]
        return RationalPolynomial(q), RationalPolynomial(rem)

    def derivative(self):
        return RationalPolynomial(
            [i * c for i, c in enumerate(self.coeffs)][1:]
        )

    def __call__(self, x):
        out = Fraction(0) if isinstance(x, Fraction) else 0.0
        for c in reversed(self.coeffs):
            out = out * x + (c if isinstance(x, Fraction) else float(c))
        return out

    def __repr__(self):
        return f"RationalPolynomial({list(self.coeffs)!r})"


def laguerre_poly(n: int, l: int) -> RationalPolynomial:
    """Exact coefficients of the Laguerre polynomial
    L_n^(l)(x) = sum_j C(n+l, n-j) (-x)^j / j!.  Zero polynomial for n < 0."""
    if n < 0:
        return RationalPolynomial.zero()
    if l < 0:
        raise DomainError(f"l must be >= 0, got {l}")
    return RationalPolynomial(
        [
            Fraction((-1) ** j * math.comb(n + l, n - j), math.factorial(j))
            for j in range(n + 1)
        ]
    )


def _laguerre_at_neg_s(n: int, l: int) -> RationalPolynomial:
    """L_n^(l)(-s) as a polynomial in s (all coefficients positive)."""
    if n < 0:
        return RationalPolynomial.zero()
    return RationalPolynomial(
        [
            Fraction(math.comb(n + l, n - j), math.factorial(j))
            for j in range(n + 1)
        ]
    )


def _bareiss_det(mat) -> RationalPolynomial:
    """Fraction-free Bareiss determinant of a square RationalPolynomial
    matrix; every interior division is exact in the polynomial ring."""
    n = len(mat)
    if n == 0:
        return RationalPolynomial.one()
    mat = [row[:] for row in mat]
    sign = 1
    prev = RationalPolynomial.one()
    for r in range(n - 1):
        if mat[r][r].is_zero():
            for rr in range(r + 1, n):
                if not mat[rr][r].is_zero():
                    mat[r], mat[rr] = mat[rr], mat[r]
                    sign = -sign
                    break
            else:
                return RationalPolynomial.zero()
        piv = mat[r][r]
        for i in range(r + 1, n):
            for j in range(r + 1, n):
                num = piv * mat[i][j] - mat[i][r] * mat[r][j]
                q, rem = divmod(num, prev)
                assert rem.is_zero(), "Bareiss division must be exact"
                mat[i][j] = q
        prev = piv
    det = mat[n - 1][n - 1]
    return -det if sign < 0 else det


@lru_cache(maxsize=32)  # an entry holds alpha*N + 1 exact rationals
def det_laguerre(n_dim: int, alpha: int) -> RationalPolynomial:
    """det[ L_{N+k-l}^{(l)}(-s) ]_{k,l=0..alpha-1} as an exact polynomial
    in s; the empty determinant (alpha=0) is the constant 1."""
    if n_dim < 1:
        raise DomainError(f"n_dim must be >= 1, got {n_dim}")
    if alpha < 0:
        raise DomainError(f"alpha must be >= 0, got {alpha}")
    mat = [
        [_laguerre_at_neg_s(n_dim + k - l, l) for l in range(alpha)]
        for k in range(alpha)
    ]
    return _bareiss_det(mat)


def _warn_envelope(n_dim: int, alpha: int):
    if n_dim > N_ENVELOPE or alpha > ALPHA_ENVELOPE:
        warnings.warn(
            f"N={n_dim}, alpha={alpha} is outside the validated envelope "
            f"(N <= {N_ENVELOPE}, alpha <= {ALPHA_ENVELOPE}); "
            "results are best-effort",
            PrecisionWarning,
            stacklevel=3,
        )


@lru_cache(maxsize=32)
def _beta2_coeffs(n_dim: int, alpha: int) -> tuple:
    """(log|a_j|, sign a_j) arrays of a_j = c_j * Gamma(MN)/Gamma(MN-j),
    the coefficient of x^j (1-Nx)^(MN-1-j) in Q, each taken from its exact
    rational value with one rounding."""
    mn = (n_dim + alpha) * n_dim
    logs, signs = [], []
    falling = 1  # Gamma(MN)/Gamma(MN-j) = (MN-1)(MN-2)...(MN-j)
    for j, c in enumerate(det_laguerre(n_dim, alpha).coeffs):
        a = c * falling
        falling *= mn - 1 - j
        logs.append(math.log(abs(a.numerator)) - math.log(a.denominator) if a else -math.inf)
        signs.append(float((a > 0) - (a < 0)))
    out = np.array(logs), np.array(signs)
    for arr in out:
        arr.flags.writeable = False  # shared by every caller through the cache
    return out


def q_exact_beta2(n_dim: int, m_dim: int, x):
    """Survival function at beta=2 via the Laguerre determinant route, at
    a float x (returns a float) or at every entry of an array."""
    if n_dim < 1 or m_dim < n_dim:
        raise DomainError(f"need M >= N >= 1, got N={n_dim}, M={m_dim}")
    xs = _points(x)
    alpha = m_dim - n_dim
    _warn_envelope(n_dim, alpha)
    log_a, sign_a = _beta2_coeffs(n_dim, alpha)
    out = _edge_sum(log_a, sign_a, n_dim, m_dim * n_dim - 1.0, xs)
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
            log_gamma_ratio_falling(float(mn), q)
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
