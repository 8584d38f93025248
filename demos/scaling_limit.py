"""Hard-edge scaling limit of the smallest eigenvalue.

Under x = y/(4N^3) the finite-N survival function converges to
Q(y) = exp(-beta*y/8) * 0F1(2m/beta; (y/4) 1^m), a function of the
rectangularity index m alone.  For small m the hypergeometric factor
collapses to modified Bessel functions.

The script tabulates the convergence (first order in 1/N, with
coefficient -(3m/2) y P(y)), verifies
the closed forms against the series, differentiates Q to get the
density, and prints the constant factor 2^(4m+2) (beta/2)^(beta/2) by
which the density printed with the prefactor A(m,beta) disagrees with
-dQ/dy (64 at beta=2, m=1; 4 at beta=2, m=0).

Run:  python3 demos/scaling_limit.py
"""

import warnings

from lagmin import (
    LimitParams,
    p_limit,
    params_new,
    q_exact,
    q_limit,
    q_limit_closed,
)


def convergence_table():
    print("finite-N to limit convergence at beta=2 (x = y/(4N^3))")
    print(f"  {'m':>3} {'y':>5} " + " ".join(f"{'N=' + str(n):>12}" for n in (10, 20, 40, 80)) + f" {'N*diff@80':>10}")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # N=80 exceeds the validated envelope
        for m in (0, 1, 2):
            lp = LimitParams(2.0, m)
            for y in (1.0, 4.0, 9.0):
                limit = q_limit(lp, y)
                diffs = []
                for n in (10, 20, 40, 80):
                    p = params_new(2.0, n, n + m)
                    diffs.append(abs(q_exact(p, y / (4.0 * n**3)) - limit))
                row = " ".join(f"{d:>12.6f}" for d in diffs)
                print(f"  {m:>3d} {y:>5.1f} {row} {80 * diffs[-1]:>10.4f}")
    print("  the m>=1 rows halve with N: N*(Q_N - Q_inf) -> c(m,y) =")
    print("  -(3m/2) y P_inf(y) (-0.887 at m=2, y=9), from the trace")
    print("  normalization and the (4N+2m) Laguerre hard-edge shift.  The m=0")
    print("  rows decay as N^-2 because c = 0 there.  The slowest cell, m=2")
    print("  y=9, sits at 0.0228 for N=40 and first dips below 0.02 near N~46.")
    print()


def closed_forms():
    print("closed forms vs the series (m=0 exponential, m=1 Bessel, m=2 1F2)")
    print(f"  {'beta':>5} {'m':>3} {'y':>5} {'series':>20} {'closed':>20} {'diff':>10}")
    for beta, m in [(2.0, 0), (1.0, 1), (2.0, 1), (4.0, 1), (1.0, 2), (2.0, 2), (4.0, 2)]:
        lp = LimitParams(beta, m)
        for y in (0.5, 2.0, 8.0):
            a = q_limit(lp, y)
            b = q_limit_closed(lp, y)
            print(f"  {beta:>5.2f} {m:>3d} {y:>5.1f} {a:>20.15f} {b:>20.15f} {abs(a - b):>10.2e}")
    none_case = q_limit_closed(LimitParams(1.0, 3), 1.0)
    print(f"  q_limit_closed(beta=1, m=3) -> {none_case} (no closed form known)")
    print()


def density():
    print("limit density P = -dQ/dy")
    print(f"  {'beta':>5} {'m':>3} {'y':>5} {'P(y)':>20} {'-dQ/dy (fd)':>20}")
    h = 1e-6
    for beta, m in [(2.0, 0), (2.0, 1), (1.0, 1), (4.0, 2)]:
        lp = LimitParams(beta, m)
        for y in (0.0, 1.0, 5.0):
            fd = (
                (q_limit(lp, y) - q_limit(lp, y + h)) / h
                if y == 0.0
                else (q_limit(lp, y - h) - q_limit(lp, y + h)) / (2 * h)
            )
            print(f"  {beta:>5.2f} {m:>3d} {y:>5.1f} {p_limit(lp, y):>20.15f} {fd:>20.15f}")
    print("  P(0) = beta/8 when m=0 and 0 when m>=1.")
    print()


def prefactor_story():
    print("the printed density A(m,beta) y^m e^(-beta*y/8) 0F1(2m/beta + 2; (y/4) 1^m)")
    print("over P = -dQ/dy: 2^(4m+2) (beta/2)^(beta/2) at every y")
    for beta, m in [(2.0, 0), (2.0, 1), (1.0, 1), (4.0, 2)]:
        ratio = 2.0 ** (4 * m + 2) * (beta / 2.0) ** (beta / 2.0)
        print(f"  beta={beta}, m={m}: printed/true = {ratio:.6g}")
    print("  The printed closed form is off by a constant (y-independent)")
    print("  factor; -dQ/dy is the ground truth used everywhere else.")
    print()


def main():
    convergence_table()
    closed_forms()
    density()
    prefactor_story()


if __name__ == "__main__":
    main()
