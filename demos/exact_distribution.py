"""Walk through the exact smallest-eigenvalue law for trace-normalized
Laguerre ensembles.

The survival function Q(x) = Prob(lambda_min > x) is a single polynomial
expression sum_k A_k x^k (1-Nx)^{G-k-1} supported on [0, 1/N], with
G = beta*M*N/2.  This script prints the law for a few ensembles, checks
it against an independent closed-form oracle at N=2, and tabulates
moments including the exact mu_1 = 1/N^3 identity at beta=2, M=N.

Run:  python3 demos/exact_distribution.py
"""

import math

from lagmin import (
    moment,
    p_exact,
    params_new,
    q_exact,
    q_oracle_n2,
)


def norm_const_log(params):
    """log of the normalization constant C_{N,M} of the joint density."""
    beta = params.beta
    n = params.n_dim
    m_dim = params.m_dim
    out = math.lgamma(0.5 * beta * m_dim * n) + n * math.lgamma(1.0 + 0.5 * beta)
    for j in range(n):
        out -= math.lgamma(0.5 * beta * (m_dim - j))
        out -= math.lgamma(1.0 + 0.5 * beta * (n - j))
    return out


def norm_const(params):
    """Normalization constant C_{N,M}; equals 1 when N=1."""
    return math.exp(norm_const_log(params))


def show_params(cases):
    print("ensemble parameters")
    print(f"  {'beta':>5} {'N':>3} {'M':>3} {'alpha':>6} {'m':>3} {'G':>6}")
    for beta, n, mm in cases:
        p = params_new(beta, n, mm)
        g = 0.5 * beta * mm * n
        print(
            f"  {beta:>5.2f} {n:>3d} {mm:>3d} {p.alpha:>6.2f}"
            f" {p.jack_index:>3d} {g:>6.1f}"
        )
    print()


def show_law(beta, n, mm, points=9):
    p = params_new(beta, n, mm)
    print(f"survival and density for beta={beta}, N={n}, M={mm}")
    print(f"  {'x':>10} {'Q(x)':>20} {'P(x)':>20}")
    for i in range(points):
        x = i / (points - 1) / n
        print(f"  {x:>10.6f} {q_exact(p, x):>20.15f} {p_exact(p, x):>20.15f}")
    print(f"  endpoints: Q(0) = {q_exact(p, 0.0)}, Q(1/N) = {q_exact(p, 1.0 / n)}")
    print()


def compare_closed_form_oracle():
    # at N=2 the law reduces to a one-dimensional integral, a regularized
    # incomplete beta function, evaluated without any series machinery
    print("N=2 cross-check against the incomplete-beta closed form")
    print(f"  {'beta':>5} {'M':>3} {'x':>8} {'series':>20} {'closed form':>20} {'diff':>10}")
    worst = 0.0
    for beta, mm in [(2.0, 2), (2.0, 4), (1.0, 5), (4.0, 3)]:
        p = params_new(beta, 2, mm)
        for x in (0.1, 0.3, 0.45):
            a = q_exact(p, x)
            b = q_oracle_n2(p, x)
            worst = max(worst, abs(a - b))
            print(f"  {beta:>5.2f} {mm:>3d} {x:>8.3f} {a:>20.15f} {b:>20.15f} {abs(a - b):>10.2e}")
    print(f"  worst |series - closed form| = {worst:.2e}")
    print()


def show_moments():
    print("moments of lambda_min")
    print("  beta=2, M=N: the first moment is exactly 1/N^3")
    print(f"  {'N':>3} {'mu_1':>22} {'1/N^3':>22} {'rel err':>10}")
    for n in range(2, 7):
        p = params_new(2.0, n, n)
        mu = moment(p, 1)
        exact = n**-3.0
        print(f"  {n:>3d} {mu:>22.16e} {exact:>22.16e} {abs(mu / exact - 1):>10.2e}")
    p = params_new(2.0, 2, 2)
    print(f"  second moment at beta=2, N=M=2: {moment(p, 2):.16f} (exact 1/40 = {1 / 40})")
    print(f"  normalization constant C for beta=2, N=3: {norm_const(params_new(2.0, 3, 3)):.10g}")
    print()


def closed_form_spot_check():
    # smallest nontrivial square case: Q = (1-2x)^3 on [0, 1/2]
    p = params_new(2.0, 2, 2)
    print("closed-form spot check, beta=2, N=M=2: Q(x) = (1-2x)^3")
    worst = max(
        abs(q_exact(p, x) - (1 - 2 * x) ** 3) for x in (0.0, 0.1, 0.25, 0.4, 0.5)
    )
    print(f"  worst deviation over 5 points: {worst:.2e}")
    print()


def main():
    cases = [(2.0, 3, 4), (1.0, 4, 7), (4.0, 2, 3), (2.0, 5, 5)]
    show_params(cases)
    show_law(2.0, 3, 4)
    compare_closed_form_oracle()
    show_moments()
    closed_form_spot_check()


if __name__ == "__main__":
    main()
