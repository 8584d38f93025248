"""Monte Carlo cross-validation of the exact law.

Samples come from the bidiagonal chi model of the Laguerre ensemble,
normalized by the trace; the smallest eigenvalue of each draw is found
from a qd Sturm count on the bidiagonal.  Streams are counter-based (one
Philox key per block of 256 draws), so results are reproducible and
independent of the worker count, and a longer run is a bit-exact
extension of a shorter one.

Run:  python3 demos/monte_carlo.py [n_samples]
"""

import sys
import time

from lagmin import ks_two_sample, ks_validate, params_new, q_exact, run_batch


def ks_against_exact(n_samples):
    print(f"KS tests against the exact CDF ({n_samples} samples, 1% level)")
    print(f"  {'beta':>5} {'N':>3} {'M':>3} {'D':>10} {'p-value':>10} {'verdict':>8}")
    for beta, n, mm in [(2.0, 3, 3), (2.0, 3, 5), (1.0, 4, 7), (4.0, 2, 3)]:
        p = params_new(beta, n, mm)
        batch = run_batch(p, n_samples, seed=20260819, workers=4)
        rep = ks_validate(batch, lambda x: 1.0 - q_exact(p, x), level=0.01)
        verdict = "ok" if rep.passed else "REJECT"
        print(f"  {beta:>5.2f} {n:>3d} {mm:>3d} {rep.d_stat:>10.5f} {rep.p_value:>10.4f} {verdict:>8}")
    print()


def split_half_when_no_series(n_samples):
    # beta = 0.7 with N=3, M=5 has no integer series index, so there is
    # no exact CDF; the sampler is still checked against itself
    beta, n, mm = 0.7, 3, 5
    p = params_new(beta, n, mm)
    a = run_batch(p, n_samples, seed=11, workers=4)
    b = run_batch(p, n_samples, seed=12, workers=4)
    rep = ks_two_sample(a.values, b.values, level=0.01)
    print(f"split-half self-consistency at beta={beta}, N={n}, M={mm}")
    print(f"  D = {rep.d_stat:.5f}, p-value = {rep.p_value:.4f}, "
          f"{'ok' if rep.passed else 'REJECT'}")
    print()


def reproducibility():
    p = params_new(2.0, 4, 6)
    one = run_batch(p, 200, seed=777, workers=1)
    eight = run_batch(p, 200, seed=777, workers=8)
    prefix = run_batch(p, 50, seed=777, workers=3)
    same = (one.values == eight.values).all()
    ext = (one.values[:50] == prefix.values).all()
    print("reproducibility")
    print(f"  1 worker vs 8 workers, same seed: identical = {same}")
    print(f"  50-draw run is a prefix of the 200-draw run: {ext}")
    print(f"  first three draws: {one.values[:3]}")
    print()


def main():
    n_samples = int(sys.argv[1]) if len(sys.argv) > 1 else 20000
    t0 = time.perf_counter()
    ks_against_exact(n_samples)
    split_half_when_no_series(n_samples)
    reproducibility()
    print(f"total time: {time.perf_counter() - t0:.1f}s")


if __name__ == "__main__":
    main()
