"""Hard-edge scaling limit: series, closed forms, density, diagnostics."""

import math
import warnings

import pytest
import scipy.special

from lagmin.core import SeriesAccuracy
from lagmin.errors import DomainError, PrecisionWarning
from lagmin.limit import (
    LimitParams,
    limit_prefactor,
    p_limit,
    p_limit_printed,
    prefactor_diagnostics,
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
    with pytest.raises(DomainError):
        LimitParams(2.0, 1.0)  # must be a true int


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
        assert closed == pytest.approx(want, rel=1e-12)


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
    assert q_limit_closed(LimitParams(4.0, 2), 2.0) is None
    assert q_limit_closed(LimitParams(0.7, 2), 2.0) is None


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
    vals = [p_limit(lp, y) for y in ys]
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


def test_accuracy_override():
    # a loose tail tolerance still lands within its own budget
    lp = LimitParams(2.0, 1)
    rough = q_limit(lp, 4.0, SeriesAccuracy(tail_tol=1e-6, k_max=200))
    assert rough == pytest.approx(q_limit(lp, 4.0), rel=1e-5)


# ---------- the printed prefactor and its documented mismatch ----------

def test_prefactor_value():
    # A(1, 2) = 4 * 1 * Gamma(2)/(Gamma(2)Gamma(3)) = 2
    assert limit_prefactor(LimitParams(2.0, 1)) == pytest.approx(2.0, rel=1e-13)


def test_printed_density_mismatch_is_constant_ratio():
    # the printed form is off by exactly 64 at (beta, m) = (2, 1) and by
    # exactly 4 at (2, 0); the ratio is y-independent, so the functional
    # shape matches and only the prefactor is wrong
    rep = prefactor_diagnostics(LimitParams(2.0, 1), [0.5, 1.0, 2.0, 5.0, 10.0])
    assert not rep["consistent"]
    assert rep["ratio_min"] == pytest.approx(64.0, rel=1e-8)
    assert rep["ratio_max"] == pytest.approx(64.0, rel=1e-8)

    rep0 = prefactor_diagnostics(LimitParams(2.0, 0), [0.5, 1.0, 2.0])
    assert not rep0["consistent"]
    assert rep0["ratio_min"] == pytest.approx(4.0, rel=1e-10)


def test_printed_density_shape():
    lp = LimitParams(2.0, 1)
    assert p_limit_printed(lp, 0.0) == 0.0
    v = p_limit_printed(lp, 1.0)
    assert v == pytest.approx(64.0 * p_limit(lp, 1.0), rel=1e-8)
