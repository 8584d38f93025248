"""At beta=2 the survival function has a second, fully independent
derivation: an alpha x alpha determinant of Laguerre polynomials,
whose exact rational coefficients are computed in integer arithmetic,
then assembled into
Q(x) = sum_j c_j [Gamma(MN)/Gamma(MN-j)] x^j (1-Nx)^{MN-j-1}.

This script prints the exact determinant polynomial for a small case,
compares the route against the partition-series evaluator across a
grid (they share no code), and shows the explicit double-sum rewrite
available at alpha = 2.

Run:  python3 demos/determinant_route.py
"""

from fractions import Fraction

from lagmin import params_new, q_alpha2_sum, q_exact, q_exact_beta2
from lagmin.beta2 import _det_integers


def show_determinant_polynomial(n, alpha):
    # the integer coefficients over their common denominator, as the law reads them
    ints, denom = _det_integers(n, alpha)
    coeffs = [Fraction(c, denom) for c in ints]
    print(f"det polynomial for N={n}, alpha={alpha} (exact rationals, degree {len(coeffs) - 1})")
    for j, c in enumerate(coeffs):
        print(f"  s^{j}: {c}")
    print()


def route_agreement():
    print("partition series vs rational determinant route")
    print(f"  {'N':>3} {'M':>3} {'x':>10} {'series':>22} {'determinant':>22} {'diff':>10}")
    worst = 0.0
    for n, mm in [(2, 3), (3, 5), (4, 6), (5, 8), (6, 6)]:
        p = params_new(2.0, n, mm)
        for frac in (0.15, 0.5, 0.85):
            x = frac / n
            a = q_exact(p, x)
            b = q_exact_beta2(n, mm, x)
            worst = max(worst, abs(a - b))
            print(f"  {n:>3d} {mm:>3d} {x:>10.5f} {a:>22.16f} {b:>22.16f} {abs(a - b):>10.2e}")
    print(f"  worst |series - determinant| = {worst:.2e}")
    print()


def alpha2_double_sum():
    # at alpha = 2 (M = N+2) the determinant collapses to an explicit
    # double sum with hypergeometric-style weights plus one boundary row
    print("alpha=2 explicit double sum vs determinant")
    print(f"  {'N':>3} {'x':>10} {'double sum':>22} {'determinant':>22} {'diff':>10}")
    worst = 0.0
    for n in (2, 3, 5, 8):
        for frac in (0.2, 0.6):
            x = frac / n
            a = q_alpha2_sum(n, x)
            b = q_exact_beta2(n, n + 2, x)
            worst = max(worst, abs(a - b))
            print(f"  {n:>3d} {x:>10.5f} {a:>22.16f} {b:>22.16f} {abs(a - b):>10.2e}")
    print(f"  worst |double sum - determinant| = {worst:.2e}")
    print()


def main():
    show_determinant_polynomial(3, 2)
    show_determinant_polynomial(2, 3)
    route_agreement()
    alpha2_double_sum()


if __name__ == "__main__":
    main()
