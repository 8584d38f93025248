"""Hard-edge scaling limit: series, closed forms, density, and the
printed density prefactor."""

import math
import sys
import time
import warnings
from decimal import Decimal, localcontext
from fractions import Fraction

import derive_limit_recurrences
import numpy as np
import pytest
import scipy.special
from hypothesis import given, settings
from hypothesis import strategies as st
from oracle import law, ln, p_limit_beta2, q_limit_beta2, weight_sum
from test_jack import check_partition_stream

from lagmin import core, jack, limit
from lagmin.errors import DivergenceError, DomainError, PrecisionWarning
from lagmin.limit import (
    LimitParams,
    p_limit,
    q_limit,
    q_limit_closed,
)

Y_GRID = [0.0, 0.5, 1.0, 2.0, 5.0, 10.0, 25.0, 50.0]


def test_params_validation():
    LimitParams(0.7, 0)
    with pytest.raises(DomainError):
        LimitParams(0.0, 1)
    with pytest.raises(DomainError):
        LimitParams(2.0, -1)
    # an integral float is an integer, as for EnsembleParams
    assert LimitParams(2.0, 1.0) == LimitParams(2.0, 1)
    # no series of an index past 2^52 could be built
    assert LimitParams(2.0, 2**52 - 1).jack_index == 2**52 - 1
    with pytest.raises(DomainError, match="2\\^52"):
        LimitParams(2.0, 2**52)


@pytest.mark.parametrize("int_type", [np.int64, np.int32])
def test_numpy_integer_jack_index(int_type):
    # m taken from a numpy array is the same pair, equal and with the same
    # hash, so the caches keyed by it hit
    plain = LimitParams(2.0, 1)
    lp = LimitParams(2.0, int_type(1))
    assert lp == plain and hash(lp) == hash(plain)
    assert type(lp.jack_index) is int
    assert q_limit(lp, 3.0) == q_limit(plain, 3.0)
    with pytest.raises(DomainError):
        LimitParams(2.0, int_type(-1))
    for flag in (True, False, np.True_):
        with pytest.raises(DomainError):
            LimitParams(2.0, flag)


def test_nan_and_infinite_y():
    for m in (0, 1, 2):
        lp = LimitParams(2.0, m)
        assert q_limit(lp, math.inf) == 0.0
        assert p_limit(lp, math.inf) == 0.0
        with pytest.raises(DomainError):
            q_limit(lp, math.nan)
        with pytest.raises(DomainError):
            p_limit(lp, math.nan)


def test_q_at_zero_and_domain():
    assert q_limit(LimitParams(2.0, 3), 0.0) == 1.0
    with pytest.raises(DomainError):
        q_limit(LimitParams(2.0, 1), -0.5)
    with pytest.raises(DomainError):
        p_limit(LimitParams(2.0, 1), -0.5)


def test_m0_is_pure_exponential():
    for beta in (0.5, 1.0, 2.0, 4.0):
        lp = LimitParams(beta, 0)
        for y in (0.3, 1.0, 7.0):
            assert q_limit(lp, y) == pytest.approx(
                math.exp(-beta * y / 8.0), rel=1e-14
            )


@pytest.mark.parametrize("beta", [1.0, 2.0, 4.0])
@pytest.mark.parametrize("m", [0, 1])
def test_closed_forms_match_series(beta, m):
    lp = LimitParams(beta, m)
    for y in Y_GRID:
        closed = q_limit_closed(lp, y)
        assert closed is not None
        assert q_limit(lp, y) == pytest.approx(closed, rel=1e-11, abs=1e-11)


def test_closed_form_beta2_m2():
    lp = LimitParams(2.0, 2)
    for y in Y_GRID:
        closed = q_limit_closed(lp, y)
        assert q_limit(lp, y) == pytest.approx(closed, rel=1e-10, abs=1e-10)
        # independent check of the same expression via scipy's Bessel I
        r = math.sqrt(y)
        want = math.exp(-y / 4.0) * (
            scipy.special.iv(0, r) ** 2 - scipy.special.iv(1, r) ** 2
        )
        assert closed == pytest.approx(want, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("nu", [Fraction(2, 5), Fraction(5, 4), Fraction(2), Fraction(3), Fraction(1, 7)])
def test_m2_term_ratio_is_exact(nu):
    # c_1 = beta/2 and c_(k+1)/c_k = 2(2k + 2mu - 1)/((k+1)(k + 2mu - 1)(k + 2mu)),
    # mu = 2/beta, against the partition sum in Fractions; nu = 2 (beta = 4)
    # is where the k = 0 ratio would be 0/0
    mu = 1 / nu
    c = [weight_sum(nu, 2, k, 2 * mu) for k in range(13)]
    assert c[0] == 1 and c[1] == nu
    for k in range(1, 12):
        assert c[k + 1] / c[k] == 2 * (2 * k + 2 * mu - 1) / ((k + 1) * (k + 2 * mu - 1) * (k + 2 * mu)), k


@pytest.mark.parametrize("beta", [0.5, 2.0 / 3.0, 1.0, 2.0, 3.0, 4.0, 6.0])
def test_m2_closed_form_matches_series(beta):
    lp = LimitParams(beta, 2)
    ys = np.concatenate([[1e-8, 1e-3], np.linspace(0.25, 100.0, 60)])
    series = q_limit(lp, ys)
    for y, want in zip(ys.tolist(), series.tolist()):
        assert q_limit_closed(lp, y) == pytest.approx(want, rel=1e-13, abs=0.0)


def test_m2_closed_form_at_beta4_is_one_bessel_factor():
    # Q = e^(-y/2) (1 + I_0(2 sqrt y))/2 at beta = 4
    lp = LimitParams(4.0, 2)
    for y in (1e-6, 0.3, 1.0, 4.0, 17.5, 40.0, 99.0, 400.0, 3600.0):
        x = 2.0 * math.sqrt(y)
        want = 0.5 * (math.exp(-y / 2.0) + scipy.special.ive(0, x) * math.exp(x - y / 2.0))
        assert q_limit_closed(lp, y) == pytest.approx(want, rel=1e-13, abs=0.0)


def test_closed_form_fractional_beta():
    # m=1 closed form holds for non-classical beta too; its Bessel order
    # is 2/beta - 1 (NOT beta/2 - 1, which only coincides at beta=2)
    lp = LimitParams(0.7, 1)
    for y in (0.5, 2.0, 9.0):
        assert q_limit(lp, y) == pytest.approx(q_limit_closed(lp, y), rel=1e-10)


def test_wrong_bessel_order_is_rejected_by_series():
    # with order beta/2 - 1 the "closed form" would disagree with the
    # series already in the second digit at beta=4
    beta, y = 4.0, 2.0
    lp = LimitParams(beta, 1)
    rho_bad = beta / 2.0 - 1.0
    pref = 2.0 ** (2.0 / beta - 1.0) * math.gamma(2.0 / beta)
    bad = (
        pref
        * math.exp(-beta * y / 8.0)
        * y ** (0.5 - 1.0 / beta)
        * scipy.special.iv(rho_bad, math.sqrt(y))
    )
    assert abs(q_limit(lp, y) - bad) > 1e-3


def test_frozen_values():
    # e^(-1/4) I_0(1)
    assert q_limit(LimitParams(2.0, 1), 1.0) == pytest.approx(
        0.9860130970132497, abs=1e-13
    )
    assert q_limit(LimitParams(2.0, 2), 1.0) == pytest.approx(
        0.9996048187997123, abs=1e-12
    )


def test_closed_form_unavailable():
    assert q_limit_closed(LimitParams(1.0, 3), 2.0) is None


def test_closed_form_nan_and_infinity():
    # NaN y is a DomainError at every m (it used to come back as NaN at
    # m = 0 and as DivergenceError from the Bessel series at m >= 1);
    # y = +inf is Q = 0, as in q_limit
    for lp in (LimitParams(2.0, 0), LimitParams(1.0, 1), LimitParams(2.0, 2), LimitParams(1.0, 3)):
        with pytest.raises(DomainError):
            q_limit_closed(lp, math.nan)
        with pytest.raises(DomainError):
            q_limit_closed(lp, -1.0)
        assert q_limit_closed(lp, math.inf) == 0.0
        assert q_limit(lp, math.inf) == 0.0


def test_closed_form_far_tail():
    # e^(-beta y/8) sits in the exponent of every term of the series, so
    # neither it nor I(sqrt y) has to be a double on its own
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", PrecisionWarning)
        for lp in (LimitParams(2.0, 1), LimitParams(2.0, 2)):
            assert q_limit_closed(lp, 1e6) == 0.0 == q_limit(lp, 1e6)
        for beta, y in [(0.1, 1e4), (0.1, 3000.0), (0.5, 1e4)]:
            rho, r = 2.0 / beta - 1.0, math.sqrt(y)
            want = math.exp(
                rho * math.log(2.0) + math.lgamma(2.0 / beta) - beta * y / 8.0
                + (0.5 - 1.0 / beta) * math.log(y)
                + math.log(scipy.special.ive(rho, r)) + r
            )
            assert q_limit_closed(LimitParams(beta, 1), y) == pytest.approx(want, rel=1e-12, abs=0.0)


def test_closed_form_beta2_m2_is_capped_and_0_where_its_factors_meet():
    # e^(-y/4) (I_0^2 - I_1^2) rounds to 1 + 4.4e-16 near y = 0; at
    # y = 1e32 the value is far below the smallest subnormal, so it is 0
    # with no sum
    lp = LimitParams(2.0, 2)
    y = 2.651457663012063e-07
    assert q_limit_closed(lp, y) <= 1.0
    assert q_limit_closed(lp, y) == pytest.approx(q_limit(lp, y), rel=1e-15, abs=0.0)
    with pytest.warns(PrecisionWarning):
        assert q_limit_closed(lp, 1e32) == 0.0


@pytest.mark.parametrize("beta,y", [
    (0.01, 1e-300), (0.01, 1e-10), (0.01, 1e-3), (0.01, 1.0), (0.1, 1e-100),
    (0.3, 1e-300), (0.5, 1e-300),
])
def test_closed_form_m1_at_small_beta(beta, y):
    # the Bessel order 2/beta - 1 is large, so the prefactor of an
    # ascending Bessel series underflows (one raised DivergenceError
    # here); the 0F1 form has none.  Q is near 1 and capped there
    lp = LimitParams(beta, 1)
    closed = q_limit_closed(lp, y)
    assert math.isfinite(closed) and closed <= 1.0
    assert closed == pytest.approx(q_limit(lp, y), rel=1e-10, abs=0.0)


@pytest.mark.parametrize("beta", [1e-16, 1e-20, 1e-300])
@pytest.mark.parametrize("m", [1, 2])
def test_series_laws_below_the_float_spacing_of_one(beta, m):
    # nu = beta/2 is below 2^-53: a hook nu + l rounds to l, but nu itself
    # (the hook at arm 0, leg 0) must stay, or the tables are NaN
    lp = LimitParams(beta, m)
    ys = [0.0, 0.5, 4.0, 30.0]
    qs, ps = q_limit(lp, ys), p_limit(lp, ys)
    assert np.all(np.isfinite(qs)) and np.all(np.isfinite(ps))
    for y, q in zip(ys, qs):
        assert abs(q - q_limit_closed(lp, y)) <= 1e-14


@pytest.mark.parametrize("beta,want", [
    (1e13, 0.9999999999999999), (1e15, 0.9999999999992186), (1e17, 0.9999999921881509),
])
def test_closed_form_m1_at_huge_beta(beta, want):
    # the ratio's order term as 2/beta + k - 1 lost 2/beta at k = 1: it
    # read 0.9999999999961143 at 1e13 and 1.0 at 1e15, and was log 0, a
    # numpy warning and a DivergenceError at 1e17
    lp = LimitParams(beta, 1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        closed, series = q_limit_closed(lp, 1e-20), q_limit(lp, 1e-20)
    assert series == want
    assert closed == pytest.approx(series, rel=1e-15, abs=0.0)


def test_closed_form_m1_past_the_bessel_envelope():
    # a large-argument Bessel expansion overflowed to inf here and read
    # that as converged (1.0 at beta = 0.002), or gave up and raised
    # DivergenceError (beta = 0.01); the law is 0.9519 and 8.3e-162
    for beta, y in [(0.002, 4e4), (0.01, 6.5e5)]:
        lp = LimitParams(beta, 1)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", PrecisionWarning)
            closed, series = q_limit_closed(lp, y), q_limit(lp, y)
        assert 0.0 < closed < 0.96
        assert closed == pytest.approx(series, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("y", [100.0, 1000.0, 2000.0, 2800.0])
def test_closed_form_beta2_m2_does_not_cancel(y):
    # I_0^2 - I_1^2 cancelled to 1.3e-11 at y = 2800; its Cauchy product
    # has positive terms only
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", PrecisionWarning)
        closed = q_limit_closed(LimitParams(2.0, 2), y)
    assert closed == pytest.approx(float(q_limit_beta2(2, y)), rel=1e-12, abs=0.0)


def test_closed_form_frozen_value():
    # e^(-1/4) I_0(1) and e^(-1/4) (I_0(1)^2 - I_1(1)^2), 17-digit literals
    i0, i1 = 1.2660658777520084, 0.5651591039924851
    assert q_limit_closed(LimitParams(2.0, 1), 1.0) == pytest.approx(
        math.exp(-0.25) * i0, rel=1e-15, abs=0.0)
    assert q_limit_closed(LimitParams(2.0, 2), 1.0) == pytest.approx(
        math.exp(-0.25) * (i0 * i0 - i1 * i1), rel=1e-15, abs=0.0)


def _bessel_i_of_closed_form(rho, x):
    """I_rho(x) read off the m = 1 closed form at beta = 2/(rho + 1):
    Q(x^2) e^(beta x^2/8) (x/2)^rho / Gamma(rho + 1)."""
    beta = 2.0 / (rho + 1.0)
    q = q_limit_closed(LimitParams(beta, 1), x * x)
    return q * math.exp(beta * x * x / 8.0 + rho * math.log(x / 2.0) - math.lgamma(rho + 1.0))


@pytest.mark.parametrize("rho", [1.0, 2.0, 3.0])
@pytest.mark.parametrize("x", [0.5, 1.0, 5.0, 20.0])
def test_closed_form_bessel_recurrence(rho, x):
    # I_(rho-1)(x) - I_(rho+1)(x) = (2 rho / x) I_rho(x), each I from the
    # m = 1 form at its own beta: three series that share no coefficient
    lhs = _bessel_i_of_closed_form(rho - 1.0, x) - _bessel_i_of_closed_form(rho + 1.0, x)
    rhs = 2.0 * rho / x * _bessel_i_of_closed_form(rho, x)
    assert lhs == pytest.approx(rhs, rel=1e-9)


def test_closed_form_m1_against_scipy_bessel():
    # the m = 1 form against its Bessel expression with scipy's I_rho
    for rho in (0.0, 1.0, 0.25, 1.8571428571428572):  # incl. 2/0.7 - 1
        for x in (0.1, 1.0, 7.0, 30.0):
            assert _bessel_i_of_closed_form(rho, x) == pytest.approx(
                scipy.special.iv(rho, x), rel=1e-12, abs=0.0)


def test_closed_form_envelope_warning():
    # the Bessel forms warn for their argument sqrt(y) = 75
    for lp in (LimitParams(2.0, 1), LimitParams(2.0, 2)):
        with pytest.warns(PrecisionWarning):
            q_limit_closed(lp, 75.0**2)


def test_closed_form_divergence_guard(monkeypatch):
    monkeypatch.setattr(core, "K_MAX", 3)
    for lp in (LimitParams(2.0, 1), LimitParams(2.0, 2)):
        with pytest.raises(DivergenceError):
            q_limit_closed(lp, 900.0)


def test_closed_form_reads_tail_tol_at_call_time(monkeypatch):
    # at y = 900 the series needs about 60 terms for 1e-12, and far fewer
    # for 1e-3, which leaves a relative error well above 1e-9
    for lp in (LimitParams(2.0, 1), LimitParams(2.0, 2)):
        full = q_limit_closed(lp, 900.0)
        monkeypatch.setattr(core, "TAIL_TOL", 1e-3)
        assert abs(q_limit_closed(lp, 900.0) / full - 1.0) > 1e-9
        monkeypatch.undo()


def test_closed_form_m1_far_tail_against_scaled_bessel():
    # past x = sqrt(y) = 60 against e^(-x) I_rho(x) (scipy.special.ive)
    # at rho = 2/beta - 1 = 0, 1, 0.25, 1.857 and 19, wherever Q is a
    # normal double (worst seen 6.4e-14)
    checked = 0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", PrecisionWarning)
        for beta in (2.0, 1.0, 1.6, 0.7, 0.1):
            rho = 2.0 / beta - 1.0
            for x in (61.0, 100.0, 300.0, 700.0):
                want = math.exp(
                    rho * math.log(2.0) + math.lgamma(rho + 1.0) - beta * x * x / 8.0
                    - rho * math.log(x) + math.log(scipy.special.ive(rho, x)) + x
                )
                got = q_limit_closed(LimitParams(beta, 1), x * x)
                if want >= sys.float_info.min:
                    assert got == pytest.approx(want, rel=1e-12, abs=0.0)
                    checked += 1
                else:
                    assert got < sys.float_info.min
    assert checked == 5


def test_density_at_zero():
    assert p_limit(LimitParams(2.0, 0), 0.0) == 0.25
    assert p_limit(LimitParams(1.0, 0), 0.0) == 0.125
    for m in (1, 2, 3):
        assert p_limit(LimitParams(2.0, m), 0.0) == 0.0


@pytest.mark.parametrize("beta,m", [(1.0, 0), (2.0, 1), (4.0, 1), (2.0, 2), (0.7, 2), (4.0, 3)])
def test_density_is_minus_dq_dy(beta, m):
    lp = LimitParams(beta, m)
    h = 1e-5
    for y in (0.3, 1.0, 3.0, 8.0, 20.0):
        fd = (q_limit(lp, y - h) - q_limit(lp, y + h)) / (2 * h)
        assert p_limit(lp, y) == pytest.approx(fd, abs=1e-7)


def test_density_nonnegative_and_normalized():
    lp = LimitParams(2.0, 1)
    ys = [0.01 * i for i in range(1, 5000)]
    vals = p_limit(lp, np.array(ys)).tolist()
    assert all(v >= 0 for v in vals)
    # crude trapezoid over [0, 50] captures essentially all the mass
    mass = sum(
        0.5 * (a + b) * 0.01 for a, b in zip(vals, vals[1:])
    )
    assert mass == pytest.approx(1.0, abs=5e-3)


def test_far_tail_is_tiny():
    for beta, m in [(1.0, 0), (2.0, 1), (2.0, 2), (4.0, 2)]:
        lp = LimitParams(beta, m)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", PrecisionWarning)
            assert q_limit(lp, 1600.0 / beta) < 1e-6


def test_envelope_warnings():
    with pytest.warns(PrecisionWarning):
        q_limit(LimitParams(2.0, 1), 150.0)
    with pytest.warns(PrecisionWarning):
        q_limit(LimitParams(2.0, 7), 1.0)


# ---------- the printed prefactor and its documented mismatch ----------

def printed_prefactor(beta, m):
    """The density prefactor printed in the source paper,
    A(m, beta) = 4^m nu^(nu+2m+1) Gamma(1+nu) / (Gamma(1+m) Gamma(1+m+nu)),
    nu = beta/2."""
    nu = 0.5 * beta
    return math.exp(m * math.log(4.0) + (nu + 2.0 * m + 1.0) * math.log(nu) + math.lgamma(1.0 + nu)
                    - math.lgamma(1.0 + m) - math.lgamma(1.0 + m + nu))


def printed_density(nu, m, y):
    """The printed density A(m, beta) y^m e^(-beta*y/8) 0F1(2m/beta + 2; (y/4) 1^m)
    at a Fraction nu = beta/2 and y <= 10, with the oracle's 0F1
    coefficients (30 terms)."""
    c = [weight_sum(nu, m, k, m / nu + 2) for k in range(30)]
    return printed_prefactor(2 * nu, m) * y**m * float(law(c, Fraction(y) / 4, offset=-nu * Fraction(y) / 4))


def test_prefactor_value():
    # A(1, 2) = 4 * 1 * Gamma(2)/(Gamma(2)Gamma(3)) = 2
    assert printed_prefactor(2.0, 1) == pytest.approx(2.0, rel=1e-13, abs=0.0)


def test_printed_density_mismatch_is_constant_ratio():
    # the printed form is off by exactly 64 at (beta, m) = (2, 1) and by
    # exactly 4 at (2, 0); the ratio is y-independent, so the functional
    # shape matches and only the prefactor is wrong
    for m, ys, want in [(1, [0.5, 1.0, 2.0, 5.0, 10.0], 64.0), (0, [0.5, 1.0, 2.0], 4.0)]:
        lp = LimitParams(2.0, m)
        for y in ys:
            assert printed_density(Fraction(1), m, y) / p_limit(lp, y) == pytest.approx(want, rel=1e-13)


@pytest.mark.parametrize("beta", [0.5, 2.0 / 3.0, 1.0, 2.0, 7.0 / 3.0, 4.0, 6.0])
def test_printed_ratio_is_its_closed_form(beta):
    # the printed density over p_limit is A 4^m / D_m = 2^(4m+2) (beta/2)^(beta/2)
    nu = Fraction(beta) / 2
    for m in range(7):
        ratio = printed_prefactor(beta, m) * 4.0**m / limit._density_constant(LimitParams(beta, m))
        want = law([2 ** (4 * m + 2)], 1, offset=nu * Fraction(ln(nu)))
        assert abs(Decimal(ratio) - want) <= Decimal("1e-13") * want


# ---------- the 0F1 coefficient table ----------

def _table(beta, m, shift, k_max):
    rung = 0
    while limit._ladder_top(rung) < k_max:
        rung += 1
    return np.exp(limit._f01_coeffs(beta, m, shift, rung)[:k_max + 1])


@pytest.mark.parametrize("beta", [0.5, 2.0 / 3.0, 1.0, 2.0, 4.0])
@pytest.mark.parametrize("shift", [0, 2])
def test_coeffs_match_per_partition_reference(beta, shift):
    # c_k = sum_{|kappa|=k, len<=m} C_kappa(1^m) / ([b]_kappa k!), b = 2m/beta + shift,
    # in exact rationals at the float beta's exact value
    nu = Fraction(beta) / 2
    for m in range(8):  # the recurrences to m = 5, then the partition ladder
        got = _table(beta, m, shift, 12)
        for k in range(13):
            want = weight_sum(nu, m, k, m / nu + shift)
            assert got[k] == pytest.approx(float(want), rel=1e-13, abs=0.0)


@pytest.mark.parametrize("m", [17, 20, 25])
@pytest.mark.parametrize("shift", [0, 2])
def test_coeffs_where_the_band_has_fewer_rows_than_m(m, shift):
    # rung 0 streams min(m, 16) = 16 rows, the true m entering through the
    # Jack numerator and [b]_kappa alone; against the exact sum, and at
    # shift 0 the Jack Plancherel identity c_k = nu^k/k! for every k <= 16 < m
    beta = 2.0 / 3.0
    nu = Fraction(beta) / 2
    got = np.exp(limit._f01_coeffs(beta, m, shift, 0))
    for k in range(len(got)):
        want = weight_sum(nu, m, k, m / nu + shift)
        if shift == 0:
            assert want == nu**k / math.factorial(k)
        assert got[k] == pytest.approx(float(want), rel=1e-13, abs=0.0)


def test_stopping_rule_reads_two_small_terms(monkeypatch):
    # beta=2, m=1, y=4: Q = e^-1 sum_k 1/(k!)^2; at tail_tol=1e-3 the terms
    # k=4 (1/576) and k=5 (1/14400) are the first two in a row at or below
    # 1e-3 of the partial sum, so the sum stops after k=5
    lp = LimitParams(2.0, 1)
    assert q_limit(lp, 4.0) == pytest.approx(math.exp(-1.0) * scipy.special.iv(0, 2.0), rel=1e-15, abs=0.0)
    want = math.exp(-1.0) * math.fsum(1.0 / math.factorial(k) ** 2 for k in range(6))
    monkeypatch.setattr(core, "TAIL_TOL", 1e-3)
    assert q_limit(lp, 4.0) == pytest.approx(want, rel=1e-15, abs=0.0)


@pytest.mark.parametrize("chunk_rows", [1, 20, jack.CHUNK_ROWS])
@pytest.mark.parametrize("m,lo,hi", [(0, 0, 6), (0, 3, 6), (1, 0, 9), (2, 5, 13), (3, 0, 13), (4, 9, 17), (5, 14, 22)])
def test_band_stream_is_the_whole_band(m, lo, hi, chunk_rows, monkeypatch):
    # a weight band of the 0F1 ladder: a cap at the band's top bounds nothing
    check_partition_stream(monkeypatch, m, lo, hi, hi, chunk_rows)


def _band_logs(nu, m, shift, lo, hi):
    """log c_k, k = lo..hi, from the partition builder."""
    peak, total = jack._log_weight_sums(nu, m, shift, lo, hi)
    with np.errstate(divide="ignore"):  # weights no partition has (m = 0)
        return peak + np.log(total)


def test_coeffs_do_not_depend_on_the_chunking(monkeypatch):
    # the partition builder over the ladder's first two bands (k <= 32)
    # in chunks of one row each
    whole = np.concatenate([_band_logs(0.5, 4, 0, 0, 16), _band_logs(0.5, 4, 0, 17, 32)])
    monkeypatch.setattr(jack, "CHUNK_ROWS", 1)
    split = np.concatenate([_band_logs(0.5, 4, 0, 0, 16), _band_logs(0.5, 4, 0, 17, 32)])
    assert split == pytest.approx(whole, rel=0.0, abs=1e-13)


@pytest.mark.parametrize("beta", [0.5, 2.0, 5.9])
@pytest.mark.parametrize("shift", [0, 2])
def test_ladder_is_one_build_wherever_it_fits_one_chunk(beta, shift):
    # a weight's sum depends only on the chunk that holds its partitions,
    # so the partition ladder's tables, band by band, equal one build over
    # [0, K] bit for bit wherever that build is a single chunk, and within
    # the chunking tolerance elsewhere; at m = 6, _f01_coeffs is that ladder
    nu = 0.5 * beta
    bitwise = set()
    for m in range(7):
        table = np.empty(0)
        for rung in range(5):  # K = 16, 32, 40, 50, 63
            top = limit._ladder_top(rung)
            lo = 0 if rung == 0 else limit._ladder_top(rung - 1) + 1
            table = np.concatenate([table, _band_logs(nu, m, shift, lo, top)])
            if m == 6:
                assert limit._f01_coeffs(beta, m, shift, rung).tobytes() == table.tobytes()
            whole = _band_logs(nu, m, shift, 0, top)
            if sum(1 for _ in jack._partition_chunks(m, 0, top, top)) == 1:
                assert whole.tobytes() == table.tobytes()
                bitwise.add((m, top))
            else:
                assert whole == pytest.approx(table, rel=0.0, abs=1e-13)
    assert (6, 50) in bitwise and (5, 63) in bitwise


# ---------- the recurrences of the 0F1 coefficients, m = 1..5 ----------

TABLES = derive_limit_recurrences.stored()


def _at(poly, k, nu):
    return sum(x * Fraction(k) ** a * nu**b for (a, b), x in poly.items())


def _recurrence_polys(m, shift):
    """p_0..p_d of the stored table, as {(a, b): coefficient of k^a nu^b}."""
    return [derive_limit_recurrences.polynomial(t) for t in TABLES[m, shift]]


def _recurrence_coeffs(nu, m, shift, k_max):
    """c_0..c_k_max at a Fraction nu, from the head (nu^k/k! for k <= m at
    shift 0, the oracle's c'_k for k < d at shift 2) and the stored
    recurrence, in Fractions."""
    polys = _recurrence_polys(m, shift)
    d = len(polys) - 1
    if shift == 0:
        c, first = [nu**k / math.factorial(k) for k in range(m + 1)], m - d + 1
    else:
        c, first = [weight_sum(nu, m, k, m / nu + 2) for k in range(d)], 0
    for k in range(first, k_max - d + 1):  # c_(k+d)
        p = [_at(poly, k, nu) for poly in polys]
        c.append(-sum(p[i] * c[k + i] for i in range(d)) / p[d])
    return c[:k_max + 1]


def _recurrence_logs(beta, m, shift, k_max, digits=40):
    """log c_0..log c_k_max at the exact binary value of beta: the same
    run in Decimals of that many digits, from exact integer values of the
    polynomials (a 60-digit run agreed to 5e-37 at beta = 0.1)."""
    nu = Fraction(beta) / 2
    p, q = nu.numerator, nu.denominator
    polys = _recurrence_polys(m, shift)
    d = len(polys) - 1
    # q^m p_i(k, nu) = sum_a k^a sum_b x q^(m-b) p^b, an integer
    ints = [[sum(x * p**b * q ** (m - b) for (a2, b), x in poly.items() if a2 == a) for a in range(m + 2)]
            for poly in polys]
    head = _recurrence_coeffs(nu, m, shift, m if shift == 0 else d - 1)
    first = m - d + 1 if shift == 0 else 0
    with localcontext() as ctx:
        ctx.prec, ctx.Emin, ctx.Emax = digits, -10**9, 10**9
        c = [Decimal(x.numerator) / Decimal(x.denominator) for x in head]
        for k in range(first, k_max - d + 1):
            v = [Decimal(sum(x * k**a for a, x in enumerate(row))) for row in ints]
            c.append(-sum(v[i] * c[k + i] for i in range(d)) / v[d])
        return [x.ln() for x in c[:k_max + 1]]


def test_the_tables_are_m_1_to_5_at_both_shifts():
    assert set(TABLES) == {(m, shift) for m in range(1, 6) for shift in (0, 2)}


@pytest.mark.parametrize("m", range(1, 6))
@pytest.mark.parametrize("shift", [0, 2])
def test_recurrences_reproduce_the_oracle_exactly(m, shift):
    # c_k from the head and the table equals the partition sum for every
    # k <= m + 10, at nu the fit did not use, one of them beta = 0.7 at its
    # exact binary value
    for nu in (Fraction(5, 3), Fraction(1, 9), Fraction(11, 2), Fraction(1, 1000), Fraction(0.7) / 2):
        assert _recurrence_coeffs(nu, m, shift, m + 10) == [
            weight_sum(nu, m, k, m / nu + shift) for k in range(m + 11)]


@pytest.mark.parametrize("key", sorted(TABLES))
def test_leading_polynomials_have_no_zero_from_their_start(key):
    # p_d splits into factors k + c and k nu + a nu + g, each positive for
    # every integer k from the recurrence's start on and every nu > 0
    m, shift = key
    assert derive_limit_recurrences.check_leading(m, shift, TABLES[key])


@pytest.mark.parametrize("m", [1, 2])
def test_closed_ratios_are_the_recurrence_rows(m):
    # q_limit_closed's term ratios c_(k+1)/c_k = N/D: 1/((k+1)(k + 2/beta)) at
    # m = 1 and 2(2k - 1 + 2mu)/((k+1)(k - 1 + 2mu)(k + 2mu)), mu = 2/beta, at
    # m = 2.  Times nu^2, p_0 D + p_1 N is a polynomial of degree at most 6 in
    # k and 4 in nu = beta/2; it vanishes on 8 x 6 points, so it is 0
    p0, p1 = _recurrence_polys(m, 0)
    for nu in (Fraction(1, 3), Fraction(2, 3), Fraction(4, 3), Fraction(5, 3), Fraction(7, 3), Fraction(8, 3)):
        beta = 2 * nu
        mu = 2 / beta
        for k in range(8):
            if m == 1:
                num, den = Fraction(1), (k + 1) * (k + 2 / beta)
            else:
                num, den = 2 * (2 * k - 1 + 2 * mu), (k + 1) * (k - 1 + 2 * mu) * (k + 2 * mu)
            assert _at(p0, k, nu) * den + _at(p1, k, nu) * num == 0


@pytest.mark.parametrize("beta", [1e-3, 0.1, 0.5, 1.0, 2.0, 6.0, 100.0, 1e3])
def test_recurrence_logs_are_exact_to_1e_14(beta):
    # every log c_k, k <= K_MAX, within 1e-14 max(1, |log c_k|) of the exact
    # run (worst seen 1.4e-15), both shifts, the head's floats included
    rung = 0
    while limit._ladder_top(rung) < core.K_MAX:
        rung += 1
    for m, shift in sorted(TABLES):
        got = limit._f01_coeffs(beta, m, shift, rung)[:core.K_MAX + 1].tolist()
        want = _recurrence_logs(beta, m, shift, core.K_MAX)
        for k, (g, w) in enumerate(zip(got, want)):
            assert abs(Decimal(g) - w) <= Decimal("1e-14") * max(1, abs(w)), (m, shift, k)


def _refuse_partitions(*args):
    raise AssertionError("the limit streamed partitions")


@pytest.mark.parametrize("m", range(6))
def test_laws_at_m_up_to_5_stream_no_partitions(m, monkeypatch):
    monkeypatch.setattr(jack, "_partition_chunks", _refuse_partitions)
    limit._f01_coeffs.cache_clear()
    lp, ys = LimitParams(1.3, m), np.array([0.0, 0.5, 10.0, 100.0])
    assert np.all(np.isfinite(q_limit(lp, ys))) and np.all(np.isfinite(p_limit(lp, ys)))
    limit._f01_coeffs.cache_clear()


def test_far_tail_at_m5_needs_no_partitions(monkeypatch):
    # 43 s on the partition ladder, whose work grows as K^m/(m!)^2: the
    # series needs about 500 terms here.  Against the same recurrence in
    # Fractions, summed in 60-digit Decimal; the term logs reach 3.9e3,
    # whose ulp is 4.5e-13 (seen: 5.1e-13 for Q, 5.8e-13 for P)
    monkeypatch.setattr(jack, "_partition_chunks", _refuse_partitions)
    lp, y, nu = LimitParams(0.5, 5), 1e4, Fraction(1, 4)
    limit._f01_coeffs.cache_clear()
    start = time.perf_counter()
    with pytest.warns(PrecisionWarning):
        q, p = q_limit(lp, y), p_limit(lp, y)
    assert time.perf_counter() - start < 1.0
    u = Fraction(y) / 4
    q_want = law(_recurrence_coeffs(nu, 5, 0, core.K_MAX), u, offset=-nu * u)
    d_5 = nu**11 / (4 * math.factorial(5) * math.prod(i + nu for i in range(1, 6)))
    p_want = law([d_5 * u**5 * c for c in _recurrence_coeffs(nu, 5, 2, core.K_MAX)], u, offset=-nu * u)
    assert abs(Decimal(q) - q_want) <= Decimal("2e-12") * q_want
    assert abs(Decimal(p) - p_want) <= Decimal("2e-12") * p_want
    limit._f01_coeffs.cache_clear()


# ---------- exact rational reference ----------

def _exact_q_p(beta: Fraction, m: int, ys):
    """Q(y) and P(y) = exp(-beta*y/8) sum_j d_j u^j, d_j = (beta/8) c_j - ((j+1)/4) c_(j+1),
    by the oracle; the series runs until its terms at the largest y fall
    below 1e-25 of the partial sum."""
    nu = beta / 2
    u_max = Fraction(max(ys)) / 4
    c, s, k = [], Fraction(0), 0
    while True:
        c.append(weight_sum(nu, m, k, m / nu))
        term = c[-1] * u_max**k
        s += term
        if k > m + 2 and term < s / 10**25 and term < c[-2] * u_max ** (k - 1):
            break
        k += 1
    c.append(weight_sum(nu, m, len(c), m / nu))
    d = [beta / 8 * c[j] - Fraction(j + 1, 4) * c[j + 1] for j in range(len(c) - 1)]
    return [(law(c[:-1], Fraction(y) / 4, offset=-beta * Fraction(y) / 8),
             law(d, Fraction(y) / 4, offset=-beta * Fraction(y) / 8)) for y in ys]


EDGE_YS = (1e-8, 1e-4, 1e-2, 0.5, 2.0, 10.0, 30.0)


@pytest.mark.parametrize("beta,m", [
    (Fraction(2, 3), 4), (Fraction(1), 3), (Fraction(4), 2), (Fraction(2), 4), (Fraction(1, 2), 5),
])
def test_q_and_p_match_exact_rationals(beta, m):
    # the difference form of d_j loses up to all digits of P near y = 0
    # (d_5 is 5e-6 of its first term at beta = 1/2, m = 5)
    lp = LimitParams(float(beta), m)
    for y, (q, p) in zip(EDGE_YS, _exact_q_p(beta, m, EDGE_YS)):
        assert abs(Decimal(q_limit(lp, y)) - q) <= Decimal("1e-13") * q
        assert abs(Decimal(p_limit(lp, y)) - p) <= Decimal("1e-12") * p


@pytest.mark.parametrize("beta", [Fraction(1, 2), Fraction(2, 3), Fraction(1), Fraction(2), Fraction(4), Fraction(7, 3)])
def test_density_coefficients_identity_exact(beta):
    # d_j = (beta/8) c_j - ((j+1)/4) c_(j+1) is 0 for j < m and
    # D_m c'_(j-m) for j >= m, c' the coefficients at b = 2m/beta + 2
    nu = beta / 2
    for m in range(5):
        c = [weight_sum(nu, m, k, m / nu) for k in range(10)]
        c2 = [weight_sum(nu, m, k, m / nu + 2) for k in range(9)]
        d_m = nu ** (2 * m + 1) / (4 * math.factorial(m) * math.prod(i + nu for i in range(1, m + 1)))
        assert float(d_m) == pytest.approx(limit._density_constant(LimitParams(float(beta), m)), rel=1e-15, abs=0.0)
        for j in range(9):
            d = beta / 8 * c[j] - Fraction(j + 1, 4) * c[j + 1]
            assert d == (d_m * c2[j - m] if j >= m else 0)



@pytest.mark.parametrize("beta,m", [(1e103, 2), (2e103, 1), (1e150, 1)])
def test_density_constant_where_the_power_overflows(beta, m):
    # nu^(2m+1) leaves the float range here, D_m does not: D_m is finite,
    # correct against Fractions, and P is finite where the series stops
    lp = LimitParams(beta, m)
    nu = Fraction(beta) / 2
    d_m = nu ** (2 * m + 1) / (4 * math.factorial(m) * math.prod(i + nu for i in range(1, m + 1)))
    assert limit._density_constant(lp) == pytest.approx(float(d_m), rel=1e-15, abs=0.0)
    assert p_limit(lp, 0.0) == 0.0
    assert np.isfinite(p_limit(lp, np.array([0.0, 1e-300]))).all()


def test_density_keeps_its_digits_where_the_sum_is_subnormal():
    # u^2 e^(-beta*y/8) is subnormal (or 0) here and D_2 ~ 1.6e307: the
    # sum is taken with log D_2 in its offset (P was 9.804e-15 at 1e-160
    # and 0 at 1e-300 when D_2 multiplied the sum)
    beta, ys = Fraction(1e103), [1e-160, 1e-300]
    for y, (_, p) in zip(ys, _exact_q_p(beta, 2, ys)):
        assert abs(Decimal(p_limit(LimitParams(float(beta), 2), y)) - p) <= Decimal("1e-12") * p


@pytest.mark.parametrize("beta,m", [(1e150, 2), (1e200, 1), (1e308, 3)])
def test_density_constant_past_the_float_range(beta, m):
    # D_m is inf here: P needs it only where a y in (0, inf) is summed
    lp = LimitParams(beta, m)
    assert limit._density_constant(lp) == math.inf
    assert p_limit(lp, np.array([0.0, math.inf])).tolist() == [0.0, 0.0]
    with pytest.raises(DivergenceError, match="D_m overflows"):
        p_limit(lp, 1.0)


def test_laws_at_the_largest_jack_index():
    # rung 0 streams 16 rows, not m, and D_m stops at its underflow: Q in
    # well under a second, P(0) = 0, and P(1) needs the power u^m, past K_MAX
    lp = LimitParams(2.0, 2**51 - 1)
    start = time.perf_counter()
    with pytest.warns(PrecisionWarning):
        qs = q_limit(lp, np.array([0.0, 1.0]))
    p0 = p_limit(lp, 0.0)  # no y in (0, inf): no warning
    with pytest.warns(PrecisionWarning), pytest.raises(DivergenceError, match="k_max"):
        p_limit(lp, 1.0)
    assert time.perf_counter() - start < 1.0
    assert qs[0] == 1.0 and qs[1] == pytest.approx(1.0, rel=1e-15, abs=0.0)
    assert p0 == 0.0


@pytest.mark.parametrize("m", [0, 1, 3])
def test_laws_underflow_at_huge_beta(m):
    # past |beta*y/8| ~ 1e20 every term's log rounds to the offset's; the
    # values are 1 and the density's exact value at y = 0, and the
    # underflowed 0 elsewhere
    lp = LimitParams(1e21, m)
    assert q_limit(lp, np.array([0.0, 1.0, 40.0])).tolist() == [1.0, 0.0, 0.0]
    assert p_limit(lp, np.array([0.0, 1.0, 40.0])).tolist() == [1e21 / 8 if m == 0 else 0.0, 0.0, 0.0]
    assert q_limit(LimitParams(1e20, 2), 40.0) == 0.0


@pytest.mark.parametrize("m", [0, 2])
def test_laws_past_the_coefficients_float_range(m):
    # nu*k overflows the coefficient table from beta ~ 2.4e307 on: the
    # values that need no table are exact, the others a typed error
    lp = LimitParams(1.7e308, m)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert q_limit(lp, 0.0) == 1.0
        assert q_limit(lp, np.array([1e-300, 1.0, 2.0])).tolist() == [0.0, 0.0, 0.0]
        if m == 0:
            assert p_limit(lp, 0.0) == 1.7e308 / 8
        with pytest.raises(DivergenceError, match="coefficients overflow"):
            q_limit(lp, 1e-310)


def test_underflow_rule_keeps_subnormal_and_small_values():
    # 0 only where the value is below the smallest subnormal: at beta = 1,
    # m = 1, y = 6500 every partial sum of the first rung underflows but
    # the law is 1.5e-321
    assert q_limit(LimitParams(1e3, 1), 1.0) == pytest.approx(
        q_limit_closed(LimitParams(1e3, 1), 1.0), rel=1e-12)
    assert q_limit(LimitParams(1e3, 1), 1.0) == pytest.approx(7.3496e-53, rel=1e-4)
    with pytest.warns(PrecisionWarning):
        assert 0.0 < q_limit(LimitParams(1.0, 1), 6500.0) < 1e-320
    # at beta = 0.01, m = 3, y = 796214 the term u^500 c_500 alone is
    # e^-171, and the first terms lie e^-824 below the largest: the series
    # needs more than K_MAX powers, not 0
    with pytest.warns(PrecisionWarning), pytest.raises(DivergenceError, match="did not meet"):
        q_limit(LimitParams(0.01, 3), 796214.0)


# ---------- array calls ----------

ARRAY_YS = [0.0, 1e-8, 0.3, 2.0, 17.5, 40.0, 99.0, math.inf]


@pytest.mark.parametrize("beta,m", [(0.5, 0), (2.0, 1), (2.0 / 3.0, 3), (5.9, 5)])
def test_array_call_equals_scalar_calls(beta, m):
    lp = LimitParams(beta, m)
    for fn in (q_limit, p_limit):
        limit._f01_coeffs.cache_clear()
        arr = fn(lp, np.array(ARRAY_YS))
        assert isinstance(arr, np.ndarray) and arr.shape == (len(ARRAY_YS),)
        warm = [fn(lp, y) for y in ARRAY_YS]
        cold = []
        for y in ARRAY_YS:
            limit._f01_coeffs.cache_clear()
            cold.append(fn(lp, y))
        assert all(isinstance(v, float) for v in cold)
        assert arr.tolist() == warm == cold
        grid = fn(lp, np.array(ARRAY_YS).reshape(2, 4))
        assert grid.shape == (2, 4) and grid.ravel().tolist() == warm


def test_array_call_warns_once_and_rejects_bad_entries():
    lp = LimitParams(2.0, 1)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        q_limit(lp, np.array([1.0, 120.0, 150.0]))
    assert len(caught) == 1 and issubclass(caught[0].category, PrecisionWarning)
    for fn in (q_limit, p_limit):
        with pytest.raises(DomainError):
            fn(lp, np.array([1.0, math.nan]))
        with pytest.raises(DomainError):
            fn(lp, np.array([[1.0], [-2.0]]))


@pytest.mark.parametrize("m", range(7))
def test_beta2_series_meets_the_bessel_determinant(m):
    # the partition series against e^(-y/4) det[I_(j-k)(sqrt y)], which
    # shares neither partitions nor Jack values with it, and P against its
    # -dQ/dy by Jacobi's formula (worst seen 3.5e-14 for Q, 2.5e-14 for P)
    lp = LimitParams(2.0, m)
    for y in (0.5, 4.0, 40.0, 100.0):
        assert q_limit(lp, y) == pytest.approx(float(q_limit_beta2(m, y)), rel=1e-13, abs=0.0)
        assert p_limit(lp, y) == pytest.approx(float(p_limit_beta2(m, y)), rel=1e-13, abs=0.0)


def test_beta2_series_meets_the_bessel_determinant_at_m10():
    # past the envelope in m (worst seen 3.0e-14 for Q, 1.3e-14 for P)
    lp, ys = LimitParams(2.0, 10), np.array([1.0, 10.0, 40.0])
    with pytest.warns(PrecisionWarning):
        qs = q_limit(lp, ys)
    with pytest.warns(PrecisionWarning):
        ps = p_limit(lp, ys)
    for y, q, p in zip(ys.tolist(), qs.tolist(), ps.tolist()):
        assert q == pytest.approx(float(q_limit_beta2(10, y)), rel=1e-13, abs=0.0)
        assert p == pytest.approx(float(p_limit_beta2(10, y)), rel=1e-13, abs=0.0)


def test_q_never_passes_one_next_to_the_hard_edge():
    # the sum of c_k u^k e^(-beta y/8) rounded to 1 + 4e-16 here
    lp, y = LimitParams(0.5, 4), 0.10884019160690077
    assert q_limit(lp, y) == 1.0
    assert q_limit(lp, np.array([y])).tolist() == [1.0]


@settings(max_examples=40, deadline=None)
@given(st.floats(0.5, 6.0), st.integers(0, 6), st.lists(st.floats(0.0, 100.0), min_size=1, max_size=30))
def test_laws_over_y(beta, m, ys):
    # over the envelope: P finite and >= 0, 0 at y = 0 when m >= 1; Q in
    # [0, 1] and nonincreasing up to 1e-15 of rounding, 1 at y = 0; an
    # array call equal to the scalar calls
    lp = LimitParams(beta, m)
    ys = np.sort(np.array(ys + [0.0]))
    qs, ps = q_limit(lp, ys), p_limit(lp, ys)
    assert np.all(np.isfinite(ps)) and np.all(ps >= 0.0)
    assert qs[0] == 1.0 and (ps[0] == 0.0) == (m >= 1)
    assert np.all((qs >= 0.0) & (qs <= 1.0)) and np.all(np.diff(qs) <= 1e-15)
    assert qs.tolist() == [q_limit(lp, float(y)) for y in ys]
    assert ps.tolist() == [p_limit(lp, float(y)) for y in ys]
