"""Fast internal invariant suite behind `lagmin selfcheck`.

Each check is small enough to run in well under a second; the whole
suite is a smoke test that the installed package computes the same
numbers it was validated against, not a replacement for the test suite.
"""

from __future__ import annotations

import math
import time

import numpy as np

from .beta2 import q_alpha2_sum, q_exact_beta2
from .core import params_new
from .exact import moment, q_exact
from .jack import _log_weight_sums
from .limit import LimitParams, _f01_coeffs, p_limit, q_limit, q_limit_closed
from .sampler import ks_validate, run_batch, tridiag_smallest


def _check_jack_index():
    ok = (
        params_new(2.0, 3, 7).jack_index == 4
        and params_new(1.0, 2, 5).jack_index == 1
        and params_new(1.0, 2, 4).jack_index is None
        and params_new(4.0, 2, 4).jack_index == 5
    )
    return ok, "m(2,3,7)=4, m(1,2,5)=1, m(1,2,4)=None, m(4,2,4)=5"


def _check_jack_plancherel():
    # sum_{|kappa|=k} C_kappa(1^m) / ([m/nu]_kappa k!) = nu^k/k! for k <= m (the
    # Jack Plancherel identity) through the production builder, which
    # streams 8 of the 40 rows at m = 40, and at a nu below the float
    # spacing of 1, which a hook nu + l keeps only if its leg l is formed
    # first.  np.maximum, unlike max, carries a NaN error to the verdict
    worst = 0.0
    k_max = 8
    for nu in (1.0 / 3.0, 0.5, 2.0, 1e-20):
        for m in (1, 3, k_max, 40):
            peak, total = _log_weight_sums(nu, m, 0, 0, k_max)
            for k in range(min(m, k_max) + 1):
                err = peak[k] + math.log(total[k]) + math.lgamma(k + 1) - k * math.log(nu)
                worst = np.maximum(worst, abs(err))
    return worst < 1e-12, f"c_k = nu^k/k! for k <= m, worst abs log error {worst:.1e}"


def _check_bessel():
    # the closed forms at y = 1 against e^(-1/4) I_0(1) and
    # e^(-1/4) (I_0(1)^2 - I_1(1)^2), from 17-digit literals
    i0, i1 = 1.2660658777520084, 0.5651591039924851
    d1 = abs(q_limit_closed(LimitParams(2.0, 1), 1.0) - math.exp(-0.25) * i0)
    d2 = abs(q_limit_closed(LimitParams(2.0, 2), 1.0) - math.exp(-0.25) * (i0 * i0 - i1 * i1))
    return d1 < 1e-14 and d2 < 1e-14, f"e^(-1/4) I0(1) diff {d1:.1e}, e^(-1/4) (I0^2-I1^2) diff {d2:.1e}"


def _check_exact_closed_form():
    p = params_new(2.0, 2, 3)
    x = 0.2
    w = 1.0 - 2.0 * x
    want = 2.5 * w**3 - 1.5 * w**5
    got = q_exact(p, x)
    d1 = abs(got - want)
    p4 = params_new(4.0, 2, 3)
    w = 1.0 - 2.0 * x
    want4 = (231 * w**5 - 495 * w**7 + 385 * w**9 - 105 * w**11) / 16.0
    d2 = abs(q_exact(p4, x) - want4)
    edge = abs(q_exact(p, 0.0) - 1.0) + abs(q_exact(p, 0.5))
    ok = d1 < 1e-14 and d2 < 1e-13 and edge == 0.0
    return ok, f"beta=2 diff {d1:.1e}, beta=4 diff {d2:.1e}, edges exact"


def _check_moment():
    got = moment(params_new(2.0, 3, 3), 1)
    want = 1.0 / 27.0
    rel = abs(got - want) / want
    return rel < 1e-12, f"mu_1(beta=2,N=M=3) rel err {rel:.1e}"


def _check_beta2_routes():
    p = params_new(2.0, 3, 5)
    x = 0.1
    d1 = abs(q_exact(p, x) - q_exact_beta2(3, 5, x))
    d2 = abs(q_alpha2_sum(3, 0.05) - q_exact_beta2(3, 5, 0.05))
    return d1 < 1e-12 and d2 < 1e-13, f"series-det {d1:.1e}, alpha2-det {d2:.1e}"


def _check_limit():
    diffs = [abs(q_limit(lp, 1.0) - q_limit_closed(lp, 1.0))
             for lp in (LimitParams(2.0, 1), LimitParams(2.0, 2), LimitParams(1.0, 2))]
    lp = LimitParams(1.0, 1)
    h = 1e-5
    fd = (q_limit(lp, 2.0 - h) - q_limit(lp, 2.0 + h)) / (2 * h)
    residual = abs(fd - p_limit(lp, 2.0))
    ok = max(diffs) < 1e-12 and residual < 1e-7
    return ok, f"closed-form diffs {'/'.join(f'{d:.1e}' for d in diffs)}, P=-Q' residual {residual:.1e}"


def _check_limit_recurrence():
    # the recurrence tables of the limit's 0F1 coefficients (m = 1..5, both
    # shifts) against the partition builder on the first rung, k <= 16:
    # the largest difference of log c_k, i.e. of c_k relative
    worst = 0.0
    for m, beta in enumerate((0.5, 1.3, 2.0, 3.7, 5.9), start=1):
        for shift in (0, 2):
            peak, total = _log_weight_sums(0.5 * beta, m, shift, 0, 16)
            worst = np.maximum(worst, np.max(np.abs(_f01_coeffs(beta, m, shift, 0) - peak - np.log(total))))
    return worst < 1e-13, f"recurrence vs partitions for k <= 16, m <= 5, worst rel {worst:.1e}"


def _check_sampler_determinism():
    # large enough for two worker spans
    p = params_new(2.0, 25, 26)
    b1 = run_batch(p, 16384, seed=5, workers=1)
    b2 = run_batch(p, 16384, seed=5, workers=2)
    ok = np.array_equal(b1.values, b2.values)
    return ok, "workers=1 and workers=2 bit-identical"


def _check_eigensolver():
    rng = np.random.default_rng(3)
    worst = 0.0
    for _ in range(20):
        n = int(rng.integers(2, 9))
        a2 = rng.normal(size=n) ** 2 + 0.5
        b2 = rng.normal(size=n - 1) ** 2
        lam = tridiag_smallest(a2[None, :], b2[None, :])[0]
        e = np.sqrt(a2[:-1] * b2)
        t = np.diag(np.concatenate([a2[:1], a2[1:] + b2])) + np.diag(e, 1) + np.diag(e, -1)
        ref = np.linalg.eigvalsh(t)[0]
        worst = np.maximum(worst, abs(lam - ref) / max(abs(ref), 1e-12))  # NaN fails
    return worst < 1e-9, f"qd count vs dense solver worst rel {worst:.1e}"


def _check_monte_carlo_ks():
    p = params_new(2.0, 2, 3)
    batch = run_batch(p, 4000, seed=17, workers=2)
    rep = ks_validate(batch, lambda x: 1.0 - q_exact(p, x), level=1e-3)
    return rep.passed, f"KS p-value {rep.p_value:.3f} at n=4000"


CHECKS = [
    ("jack-index-map", _check_jack_index),
    ("jack-plancherel", _check_jack_plancherel),
    ("bessel-series", _check_bessel),
    ("exact-closed-forms", _check_exact_closed_form),
    ("first-moment", _check_moment),
    ("beta2-route-agreement", _check_beta2_routes),
    ("limit-laws", _check_limit),
    ("limit-recurrence", _check_limit_recurrence),
    ("sampler-determinism", _check_sampler_determinism),
    ("eigensolver-oracle", _check_eigensolver),
    ("monte-carlo-ks", _check_monte_carlo_ks),
]


def run_all() -> int:
    """Run every check, print one PASS/FAIL line each with its elapsed
    time, return the number of failures."""
    failures = 0
    for name, fn in CHECKS:
        start = time.perf_counter()
        try:
            ok, detail = fn()
        except Exception as exc:  # a crash is a failure, not an abort
            ok, detail = False, f"raised {type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - start
        if not ok:
            failures += 1
        print(f"{'PASS' if ok else 'FAIL'} {name}: {detail} ({elapsed * 1e3:.1f} ms)")
    print(f"{len(CHECKS) - failures}/{len(CHECKS)} checks passed")
    return failures
