"""Test-side reference for the beta=2 Laguerre determinant.

Polynomials are lists of exact Fraction coefficients in ascending powers,
with trailing zeros trimmed (the zero polynomial is []).  The determinant
is a cofactor (Laplace) expansion along the first row: slow, and it shares
no code with `lagmin.beta2.det_laguerre`.  That function's packed route is
a Laplace-type expansion too, over column subsets, but of one big integer
at s = 2^K; this reference never packs or interpolates.  It expands
Laguerre polynomials with Fraction coefficients from their closed form
and recurses over first-row cofactors, with polynomial arithmetic
throughout.
"""

import math
from fractions import Fraction
from itertools import zip_longest


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
        minor = [row[:col] + row[col + 1 :] for row in mat[1:]]
        term = mul(entry, cofactor_det(minor))
        total = add(total, term if col % 2 == 0 else [-c for c in term])
    return total
