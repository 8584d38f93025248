"""Acceptance suite: one test per shipping criterion.

Each test prints a single PASS line on success (pytest -v shows one
PASSED/FAILED row per criterion either way); tolerances are the shipping
thresholds, not the tighter ones used in the per-module tests.  Worst
errors are reduced with np.maximum, which carries a NaN to the assert
(the builtin max(0.0, nan) is 0.0).
"""

import warnings

import numpy as np
import pytest
from oracle import derivative, jack_c_one, laguerre, partitions, pochhammer
from test_limit import printed_density

from lagmin.beta2 import q_alpha2_sum, q_exact_beta2
from lagmin.core import params_new
from lagmin.errors import NonIntegerJackIndex, PrecisionWarning
from lagmin.exact import moment, q_exact, q_oracle_n2
from lagmin.limit import LimitParams, p_limit, q_limit, q_limit_closed
from lagmin.sampler import ks_two_sample, ks_validate, run_batch

from fractions import Fraction


def _report(name, detail):
    print(f"PASS {name}: {detail}")


def test_criterion_1_mean_is_inverse_n_cubed():
    """beta=2, M=N: the mean of the smallest eigenvalue is exactly 1/N^3."""
    worst = 0.0
    for n in range(2, 9):
        p = params_new(2.0, n, n)
        got = moment(p, 1)
        worst = np.maximum(worst, abs(got - n**-3.0) * n**3)
    assert worst <= 1e-12
    _report("criterion-1", f"mu_1 = 1/N^3 for N=2..8, worst rel {worst:.2e}")


def test_criterion_2_oracle_equivalence_at_n2():
    """N=2 quadrature oracle vs the partition series, |diff| <= 1e-8.

    The nominal pair list includes (beta=1, M=4) and (beta=1, M=6); at
    N=2 those have half-integer Jack index (beta=1 needs M-N odd), so the
    series route is undefined there by construction -- asserted below.
    The adjacent odd gaps (1,5) and (1,7) exercise the same nu=1/2
    regime, including the convention-pinning case m=2.
    """
    pairs = [(2.0, 2), (2.0, 3), (2.0, 4), (1.0, 5), (1.0, 7), (4.0, 3), (4.0, 4)]
    worst = 0.0
    for beta, m_dim in pairs:
        p = params_new(beta, 2, m_dim)
        for x in np.linspace(0.0, 0.5, 50):
            diff = abs(q_exact(p, float(x)) - q_oracle_n2(p, float(x)))
            worst = np.maximum(worst, diff)
    assert worst <= 1e-8
    for m_dim in (4, 6):
        with pytest.raises(NonIntegerJackIndex):
            q_exact(params_new(1.0, 2, m_dim), 0.1)
    _report("criterion-2", f"7 (beta,M) pairs on 50-pt grids, worst |diff| {worst:.2e}")


def test_criterion_3_beta2_route_agreement():
    """Determinant route vs series route at beta=2, and the explicit
    alpha=2 sum vs the determinant."""
    worst = 0.0
    for n in range(1, 7):
        for alpha in range(0, 4):
            p = params_new(2.0, n, n + alpha)
            for x in np.linspace(0.0, 1.0 / n, 50):
                diff = abs(q_exact_beta2(n, n + alpha, float(x)) - q_exact(p, float(x)))
                worst = np.maximum(worst, diff)
    assert worst <= 1e-10
    worst2 = 0.0
    for n in range(1, 7):
        for x in np.linspace(0.0, 1.0 / n, 50):
            diff = abs(q_alpha2_sum(n, float(x)) - q_exact_beta2(n, n + 2, float(x)))
            worst2 = np.maximum(worst2, diff)
    assert worst2 <= 1e-12
    _report("criterion-3", f"det-vs-series {worst:.2e}, alpha2-sum {worst2:.2e}")


def test_criterion_4_closed_form_limits():
    """q_limit vs closed forms for m=0,1 (beta in {1,2,4}) and m=2 (beta in {1,2,4})."""
    ys = [0.0, 0.5, 1.0, 2.0, 5.0, 10.0, 25.0, 50.0]
    cases = [(b, m) for b in (1.0, 2.0, 4.0) for m in (0, 1)] + [(1.0, 2), (2.0, 2), (4.0, 2)]
    worst = 0.0
    for beta, m in cases:
        lp = LimitParams(beta, m)
        for y in ys:
            closed = q_limit_closed(lp, y)
            assert closed is not None
            worst = np.maximum(worst, abs(q_limit(lp, y) - closed))
    assert worst <= 1e-10
    _report("criterion-4", f"{len(cases)} (beta,m) cases on 8-pt y grids, worst {worst:.2e}")


def test_criterion_5_finite_n_converges_to_limit():
    """Q_N(y/(4N^3)) -> Q_inf(y) at the paper's scale, with the 1/N law
    the fixed-trace/Laguerre relation fixes (beta=2, m in {0,1,2},
    y in {1,4,9}, N in {10,20,40}).

    The paper proves the limit but states no rate, so the rate checked
    here is derived.  The fixed-trace eigenvalues are Laguerre (LUE)
    eigenvalues divided by their trace T; T is independent of them and
    Gamma(G)-distributed with G = N(N+m), so Q_N(x) = Q_LUE(G x) + O(N^-2).
    The LUE hard edge with weight mu^m e^-mu sits at (4N + 2m) mu_min with
    an O(N^-2) error (Bornemann, Ann. Appl. Probab. 26, 2016).  Together:

        Q_N(y/(4N^3)) = Q_inf(y (1 + 3m/(2N))) + O(N^-2),
        N (Q_N - Q_inf) -> c(m, y) = -(3m/2) y P_inf(y).

    So the raw gap is of order 1/N and no fixed bound on it at N=40 is a
    property of the program (at m=2, y=9 it is 0.022839, c = -0.887).
    The test asserts the law instead: |Q_N - Q_inf| decreases strictly
    in N in every cell, and the residual r_N = Q_N - Q_inf - c/N falls
    at least threefold from N=20 to N=40 (an O(N^-2) remainder gives
    about 4; a wrong scale or a wrong coefficient leaves an O(1/N)
    remainder and gives about 2), with max |r_40| <= 2e-3.
    """
    ns = (10, 20, 40)
    cells = []
    for m in (0, 1, 2):
        lp = LimitParams(2.0, m)
        for y in (1.0, 4.0, 9.0):
            limit = q_limit(lp, y)
            coeff = -1.5 * m * y * p_limit(lp, y)
            gaps = []
            for n in ns:
                p = params_new(2.0, n, n + m)
                gaps.append(q_exact(p, y / (4.0 * n**3)) - limit)
            raw = [abs(d) for d in gaps]
            assert raw[0] > raw[1] > raw[2], (m, y, raw)
            resid = [d - coeff / n for d, n in zip(gaps, ns)]
            assert abs(resid[2]) <= abs(resid[1]) / 3.0, (m, y, coeff, resid)
            cells.append((m, y, raw[2], abs(resid[2])))
    raw_m, raw_y, raw_worst, _ = max(cells, key=lambda c: c[2])
    res_m, res_y, _, res_worst = max(cells, key=lambda c: c[3])
    assert res_worst <= 2e-3, (res_m, res_y, res_worst)
    _report(
        "criterion-5",
        f"9 (m,y) cells decreasing in N; raw max at N=40 {raw_worst:.6f} "
        f"at (m={raw_m}, y={raw_y:g}); after c(m,y)/N, c = -(3m/2) y P_inf(y), "
        f"residual max {res_worst:.1e} at (m={res_m}, y={res_y:g}), "
        f"falling >= 3x from N=20 to N=40",
    )


@pytest.mark.filterwarnings("ignore::lagmin.errors.PrecisionWarning")  # N=80 is past the envelope
@pytest.mark.parametrize("beta", [Fraction(1, 2), Fraction(2, 3), Fraction(1), Fraction(4)])
def test_criterion_5_finite_n_converges_to_limit_at_every_beta(beta):
    """Criterion-5's law at beta != 2:

        Q_N(y/(4N^3)) = Q_inf(y) - kappa y P_inf(y)/N + O(N^-2),
        kappa = (3m + 2)/beta - 1 = (M - N) + m/beta,

    which is 3m/2 at beta = 2.  The Laguerre weight's exponent is
    M - N + 1 - 2/beta = 2m/beta, so the hard-edge scale 4N + 2(M - N) and
    the trace's G = beta M N/2 together give kappa; the general-beta
    hard edge has an O(N^-2) remainder at that scale (Edelman, Guionnet &
    Peche, Ann. Appl. Probab. 26, 2016; Forrester & Trinh, Stud. Appl.
    Math., 2019).  Every m <= 3 whose M - N = (2m + 2)/beta - 1 is an
    integer, y in {1, 4, 9}, N in {20, 40, 80}: the residual
    r_N = Q_N - Q_inf + kappa y P_inf/N falls at least threefold from
    each N to its double (3.4-6.3 measured; 3m/2 in place of kappa leaves
    an O(1/N) remainder, and from N=40 to N=80 it falls about 2), and
    max |r_80| <= 1e-3.
    """
    ns = (20, 40, 80)
    cells = []
    for m in range(4):
        excess = (2 * m + 2) / beta - 1  # M - N
        if excess.denominator != 1:
            continue
        kappa = float((3 * m + 2) / beta - 1)
        lp = LimitParams(float(beta), m)
        for y in (1.0, 4.0, 9.0):
            limit = q_limit(lp, y)
            coeff = -kappa * y * p_limit(lp, y)
            resid = []
            for n in ns:
                p = params_new(float(beta), n, n + int(excess))
                assert p.jack_index == m
                resid.append(q_exact(p, y / (4.0 * n**3)) - limit - coeff / n)
            assert abs(resid[1]) <= abs(resid[0]) / 3.0, (m, y, kappa, resid)
            assert abs(resid[2]) <= abs(resid[1]) / 3.0, (m, y, kappa, resid)
            cells.append((m, y, abs(resid[2])))
    worst_m, worst_y, worst = max(cells, key=lambda c: c[2])
    assert worst <= 1e-3, (worst_m, worst_y, worst)
    _report(
        f"criterion-5 (beta={beta})",
        f"{len(cells)} (m,y) cells; after kappa y P_inf(y)/N, kappa = (3m+2)/beta - 1, "
        f"residual max at N=80 {worst:.1e} at (m={worst_m}, y={worst_y:g}), "
        f"falling >= 3x per doubling of N",
    )


def test_criterion_6_jack_normalization():
    """sum over |kappa|=k of C_kappa(1^m) = m^k, in exact rationals."""
    checked = 0
    for nu in (Fraction(1, 2), Fraction(1), Fraction(2)):
        for m in range(1, 5):
            for k in range(0, 9):
                assert sum(jack_c_one(kap, nu, m) for kap in partitions(k, m)) == m**k
                checked += 1
    _report("criterion-6", f"nu in {{1/2,1,2}}, m<=4, k<=8: {checked} sums exact")


def test_criterion_7_monte_carlo_ks():
    """KS at the 1% level with 2e4 samples: four exact-route ensembles
    plus one split-half self-consistency case."""
    n_samples = 20000
    details = []
    for beta, n, m_dim in [(2.0, 3, 3), (2.0, 3, 5), (1.0, 4, 7), (4.0, 2, 3)]:
        p = params_new(beta, n, m_dim)
        batch = run_batch(p, n_samples, seed=20260819, workers=4)
        rep = ks_validate(batch, lambda x: 1.0 - q_exact(p, x), level=0.01)
        assert rep.passed, (beta, n, m_dim, rep)
        details.append(f"({beta:g},{n},{m_dim}) p={rep.p_value:.3f}")
    p = params_new(0.7, 3, 5)
    batch = run_batch(p, n_samples, seed=20260819, workers=4)
    half = n_samples // 2
    rep = ks_two_sample(batch.values[:half], batch.values[half:], level=0.01)
    assert rep.passed, rep
    details.append(f"(0.7,3,5) split-half p={rep.p_value:.3f}")
    _report("criterion-7", "; ".join(details))


def test_criterion_8_exact_rational_identities():
    """Differential-difference relation and the pochhammer combination
    identity hold exactly in rational arithmetic."""
    for n in range(0, 13):
        for rho in range(0, 5):
            assert derivative(laguerre(n, rho)) == [-c for c in laguerre(n - 1, rho + 1)]
    checked = 0
    for n in range(1, 11):
        for i in range(0, 11):
            if i == n + 1:  # singular row, handled by the boundary term
                continue
            for j in range(0, 11):
                lhs = ((n + 1) * pochhammer(-n, i) * pochhammer(-n, j)
                       - n * pochhammer(-n - 1, i) * pochhammer(-n + 1, j))
                rhs = Fraction((n + 1) * (1 + j - i), n + 1 - i) * pochhammer(-n, i) * pochhammer(-n, j)
                assert lhs == rhs
                checked += 1
    _report("criterion-8", f"diff-diff n<=12 rho<=4 exact; combination identity {checked} cells exact")


def test_criterion_9_printed_prefactor_diagnosed_not_fatal():
    """The printed limiting-density prefactor disagrees with -dQ/dy by
    constant factors (4 at m=0, 64 at beta=2 m=1), printed density over
    p_limit at every y; the series density remains a true derivative
    everywhere."""
    for y in [0.5, 1.0, 2.0, 5.0, 10.0]:
        ratio = printed_density(Fraction(1), 1, y) / p_limit(LimitParams(2.0, 1), y)
        assert ratio == pytest.approx(64.0, rel=1e-6)
    for y in [0.5, 1.0, 2.0]:
        ratio = printed_density(Fraction(1), 0, y) / p_limit(LimitParams(2.0, 0), y)
        assert ratio == pytest.approx(4.0, rel=1e-8)

    h = 1e-5
    worst = 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", PrecisionWarning)
        for beta, m in [(1.0, 0), (1.0, 1), (2.0, 1), (2.0, 2), (4.0, 1), (4.0, 3), (0.7, 2)]:
            lp = LimitParams(beta, m)
            for y in (0.25, 1.0, 4.0, 12.0, 30.0):
                fd = (q_limit(lp, y - h) - q_limit(lp, y + h)) / (2 * h)
                worst = np.maximum(worst, abs(p_limit(lp, y) - fd))
    assert worst <= 1e-7
    _report(
        "criterion-9",
        f"printed/true ratios 64 and 4 flagged; P=-Q' residual {worst:.2e}",
    )
