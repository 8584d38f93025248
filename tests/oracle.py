"""The tests' one exact reference: partitions, Jack values, the series
coefficients of both laws, the beta=2 Laguerre determinant and the law
as a sum, in Fractions from their definitions, with one Decimal step
for the transcendental functions; and the beta=2 hard-edge limit and
its density as a Bessel determinant and its y-derivative, which touch
no partition.  It uses the standard
library only, so it shares no code with lagmin, and it never uses the
row/pair factorisation of lagmin.jack: the tests check that
factorisation against these definitions.

Partitions kappa are weakly decreasing tuples of positive parts, with
0-based cells (i, j) (row i, column j), arm a = kappa_i - 1 - j and leg
l = kappa'_j - 1 - i (kappa' the conjugate).  With nu the Jack parameter:

    (a)_k          = a (a+1) ... (a+k-1)                   (pochhammer)
    [a]_kappa      = prod_i (a - i/nu)_(kappa_i)           (gen_factorial)
    C_kappa(1^m)   = nu^k k! prod_s (m + nu*j - i)
                     / prod_s (nu*a + l + 1)(nu*(a+1) + l)  (jack_c_one)

with k = |kappa|, normalised so that the C_kappa(1^m) of weight k sum
to m^k, and 0 when kappa has more than m parts.  weight_sum builds both
laws' coefficients from these:

- the hard-edge limit Q(y) = exp(-beta*y/8) sum_k c_k (y/4)^k with
  c_k = sum_{|kappa|=k, len<=m} C_kappa(1^m) / ([b]_kappa k!) at
  b = 2m/beta, and the density's c'_k at b = 2m/beta + 2;
- the finite-N law Q(x) = sum_k A_k x^k (1-Nx)^(G-1-k) with
  A_k = Gamma(G)/Gamma(G-k) S_k,
  S_k = (-1/nu)^k / k! sum_kappa [-N]_kappa C_kappa(1^m) / [b]_kappa
  at b = 2m/beta, and the density's S'_k with N - 1 for N and
  b = 2m/beta + 2.  [-N]_kappa vanishes once kappa_1 > N, so kappa runs
  over the m x N box.

The beta=2 determinant det[L_(N+k-l)^(l)(-s)]_(k,l<alpha) is expanded
by cofactors along its first row, over polynomials with Fraction
coefficients in ascending powers (the zero polynomial is []).  That
expansion is slow, so the large beta=2 cases take their exact rationals
from lagmin.beta2.det_laguerre, whose proof is in tests/test_beta2.py:
it equals this expansion coefficient by coefficient for N <= 12 and
alpha <= 4, equals the determinant of the evaluated entries at
non-integer s for (N, alpha) = (12, 4) and (8, 6), and its Fractions
hash to golden digests at (16, 4), (24, 4), (20, 6) and (30, 6).  A
Fraction box at (N, m) = (40, 6) would have 9.4e6 partitions.

ln and law round once, to Decimals of 60 digits: the exact log of a
Fraction, and sum_j c_j u^j v^(e-j) e^offset from exact c_j, u, v and
offset (a float argument is taken at its exact binary value).
"""

import math
from decimal import Decimal, localcontext
from fractions import Fraction
from functools import lru_cache
from itertools import zip_longest

#: Decimal digits of ln and law.
DIGITS = 60


# ---------- partitions and Jack values ----------

@lru_cache(maxsize=4096)  # one entry per (weight, length, part) subproblem
def _partitions(k, max_len, max_part):
    if k == 0:
        return ((),)
    if max_len == 0:
        return ()
    return tuple((first,) + rest for first in range(min(k, max_part), 0, -1)
                 for rest in _partitions(k - first, max_len - 1, first))


def partitions(k, max_len, max_part=None):
    """The partitions of k with at most max_len parts, each at most
    max_part (None: unbounded), largest first in reverse-lexicographic
    order."""
    if k < 0 or max_len < 0 or max_part is not None and max_part < 1:
        raise ValueError(f"no partitions of k={k}, max_len={max_len}, max_part={max_part}")
    return list(_partitions(k, max_len, k if max_part is None else max_part))


def conjugate(kappa):
    """The conjugate partition: its part j counts the parts of kappa above j."""
    out = [0] * (kappa[0] if kappa else 0)
    for part in kappa:
        for j in range(part):
            out[j] += 1
    return tuple(out)


def pochhammer(a, k):
    """(a)_k = a (a+1) ... (a+k-1), (a)_0 = 1, as a Fraction."""
    a = Fraction(a)
    return Fraction(math.prod(a.numerator + t * a.denominator for t in range(k)), a.denominator**k)


@lru_cache(maxsize=1 << 16)  # the row factors that one coefficient's partitions share
def _row_factor(a, nu, i, part):
    return pochhammer(a - i / nu, part)


def gen_factorial(a, kappa, nu):
    """[a]_kappa = prod_i (a - i/nu)_(kappa_i), as a Fraction."""
    a, nu = Fraction(a), Fraction(nu)
    return math.prod((_row_factor(a, nu, i, part) for i, part in enumerate(kappa)), start=Fraction(1))


def jack_c_one(kappa, nu, m):
    """C_kappa(1^m) from its cell product over arms and legs, as a Fraction."""
    if len(kappa) > m:
        return Fraction(0)
    nu = Fraction(nu)
    p, q = nu.numerator, nu.denominator
    k, legs = sum(kappa), conjugate(kappa)
    # nu = p/q: the cell factor (m + nu*j - i) / ((nu*a + l + 1)(nu*(a+1) + l))
    # is q (q(m-i) + p j) / ((p a + q(l+1)) (p(a+1) + q l))
    num, den = p**k * math.factorial(k), q**k
    for i, row in enumerate(kappa):
        for j in range(row):
            a, l = row - 1 - j, legs[j] - 1 - i
            num *= q * (q * (m - i) + p * j)
            den *= (p * a + q * (l + 1)) * (p * (a + 1) + q * l)
    return Fraction(num, den)


def weight_sum(nu, m, k, b, cols=None):
    """The coefficient of weight k: c_k of the limit's 0F1 at b without
    cols, the finite-N box sum S_k of the m x cols box with it (module
    docstring), as a Fraction."""
    nu, b = Fraction(nu), Fraction(b)
    total = Fraction(0)
    for kappa in partitions(k, m, cols):
        term = jack_c_one(kappa, nu, m) / gen_factorial(b, kappa, nu)
        if cols is not None:
            term *= gen_factorial(-cols, kappa, nu)
        total += term
    if cols is not None:
        total *= (-1 / nu) ** k
    return total / math.factorial(k)


# ---------- polynomials and the beta=2 determinant ----------

def trim(p):
    p = list(p)
    while p and p[-1] == 0:
        p.pop()
    return p


def add(p, q):
    return trim(a + b for a, b in zip_longest(p, q, fillvalue=0))


def mul(p, q):
    out = [Fraction(0)] * (len(p) + len(q) - 1) if p and q else []
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return trim(out)


def derivative(p):
    return trim(i * c for i, c in enumerate(p))[1:]


def evaluate(p, x):
    out = Fraction(0)
    for c in reversed(p):
        out = out * x + c
    return out


def laguerre(n, l, sign=-1):
    """L_n^(l)(x) = sum_j C(n+l, n-j) (-x)^j / j!; sign=+1 gives
    L_n^(l)(-x).  The zero polynomial for n < 0."""
    if n < 0:
        return []
    return trim(Fraction(sign**j * math.comb(n + l, n - j), math.factorial(j)) for j in range(n + 1))


def laguerre_matrix(n_dim, alpha):
    """[ L_{N+k-l}^{(l)}(-s) ]_{k,l=0..alpha-1} as polynomials in s."""
    return [[laguerre(n_dim + k - l, l, sign=1) for l in range(alpha)] for k in range(alpha)]


def cofactor_det(mat):
    """Determinant of a square matrix of polynomials; [1] when empty."""
    if not mat:
        return [Fraction(1)]
    if len(mat) == 1:
        return mat[0][0]
    total = []
    for col, entry in enumerate(mat[0]):
        minor = [row[:col] + row[col + 1:] for row in mat[1:]]
        term = mul(entry, cofactor_det(minor))
        total = add(total, term if col % 2 == 0 else [-c for c in term])
    return total


# ---------- the one rounding step ----------

def _decimal(q):
    q = Fraction(q)
    return Decimal(q.numerator) / Decimal(q.denominator)


def ln(q):
    """log q of a positive Fraction, as a Decimal."""
    q = Fraction(q)
    with localcontext() as ctx:
        ctx.prec = DIGITS
        return Decimal(q.numerator).ln() - Decimal(q.denominator).ln()


def law(coeffs, u, v=1, e=0, offset=0):
    """sum_j c_j u^j v^(e-j) e^offset over j = 0, 1, ..., len(coeffs) - 1
    (zero c_j skipped), as a Decimal."""
    with localcontext() as ctx:
        ctx.prec = DIGITS
        du, dv = _decimal(u), _decimal(v)
        total = sum(_decimal(c) * du**j * dv ** (e - j) for j, c in enumerate(coeffs) if c)
        return total * _decimal(offset).exp()


# ---------- the beta=2 hard-edge limit without partitions ----------

def _bessel_i(n, x):
    """I_n(x) for an integer n >= 0 and a Decimal x > 0 by its positive
    series sum_k (x/2)^(2k+n) / (k! (k+n)!), in the current context."""
    half = x / 2
    term = half**n / math.factorial(n)
    total, k = term, 0
    while True:
        k += 1
        term *= half * half / (k * (k + n))
        if k > half and total + term == total:  # past k = x/2 the terms only shrink
            return total
        total += term


def _det(mat):
    """Determinant of a square matrix of Fractions by elimination, swapping
    in a row with a nonzero pivot where one is needed (1 when empty, 0
    when no pivot is left: p_limit_beta2's interior rows make such exactly
    singular matrices)."""
    mat = [list(row) for row in mat]
    det = Fraction(1)
    for i in range(len(mat)):
        pivot = next((j for j in range(i, len(mat)) if mat[j][i]), None)
        if pivot is None:
            return Fraction(0)
        if pivot != i:
            mat[i], mat[pivot] = mat[pivot], mat[i]
            det = -det
        det *= mat[i][i]
        for j in range(i + 1, len(mat)):
            ratio = mat[j][i] / mat[i][i]
            mat[j] = [a - ratio * b for a, b in zip(mat[j], mat[i])]
    return det


def _bessel_row(m, y):
    """I_n(sqrt y) for n = 0..m as Fractions, each rounded once to a
    Decimal of DIGITS + m sqrt(y) / ln 10 digits, and sqrt y likewise.

    The entries of the determinant reach about e^(m sqrt y) in a product
    of m, while the determinant is at least 1 (Heine's integral over U(m)
    and Jensen), so those digits leave DIGITS of it, up to log10 m!."""
    with localcontext() as ctx:
        ctx.prec = DIGITS + math.ceil(m * math.sqrt(y) / math.log(10))
        x = Decimal(y).sqrt()
        return [Fraction(_bessel_i(n, x)) for n in range(m + 1)], Fraction(x)


def q_limit_beta2(m, y):
    """Q(y) = e^(-y/4) det[I_(j-k)(sqrt y)]_(j,k<m) (Forrester & Hughes,
    J. Math. Phys. 35 (1994) 6736) at beta = 2, Jack index m and a float
    y > 0, as a Decimal: the entries I_-n = I_n come from _bessel_row and
    the determinant eliminates them exactly in Fractions."""
    row, _ = _bessel_row(m, y)
    det = _det([[row[abs(j - k)] for k in range(m)] for j in range(m)])
    with localcontext() as ctx:
        ctx.prec = DIGITS
        return _decimal(det) * (-Decimal(y) / 4).exp()


def p_limit_beta2(m, y):
    """P(y) = -dQ/dy of q_limit_beta2's law, as a Decimal.

    With T = [I_(j-k)(sqrt y)], Jacobi's formula d det T = tr(adj T dT)
    is the sum over rows j of det T with row j taken by its y-derivative,
    whose entries are I_n'(sqrt y) / (2 sqrt y), I_n' = (I_(n-1) + I_(n+1))/2
    and I_-1 = I_1; then P = e^(-y/4) (det T / 4 - d det T / dy), exact in
    Fractions from _bessel_row's entries.  An interior row's derivative is
    (row j-1 + row j+1) / (4 sqrt y), so only rows 0 and m-1 add to the
    sum; it is summed over every row as the formula reads."""
    row, x = _bessel_row(m, y)
    slope = [(row[abs(n - 1)] + row[n + 1]) / (4 * x) for n in range(m)]
    mat = [[row[abs(j - k)] for k in range(m)] for j in range(m)]
    d_det = sum(_det(mat[:j] + [[slope[abs(j - k)] for k in range(m)]] + mat[j + 1:])
                for j in range(m))
    with localcontext() as ctx:
        ctx.prec = DIGITS
        return _decimal(_det(mat) / 4 - d_det) * (-Decimal(y) / 4).exp()
