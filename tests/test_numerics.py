import math

import pytest
import scipy.special

from lagmin.core import SeriesAccuracy
from lagmin.errors import DivergenceError, DomainError, PrecisionWarning
from lagmin.numerics import bessel_i, log_gamma, log_gamma_ratio_falling

# I_0(1), 17 significant digits (independent series evaluation)
I0_AT_1 = 1.2660658777520084


def test_log_gamma_factorials():
    for n in range(1, 21):
        assert math.exp(log_gamma(n)) == pytest.approx(
            math.factorial(n - 1), rel=1e-13
        )
    assert log_gamma(0.5) == pytest.approx(0.5 * math.log(math.pi), rel=1e-15)


def test_log_gamma_domain():
    with pytest.raises(DomainError):
        log_gamma(0.0)
    with pytest.raises(DomainError):
        log_gamma(-11.0)


def test_log_gamma_ratio_falling_matches_lgamma():
    for a in (9.0, 33.5, 170.25):
        for k in (1, 5, 8):
            want = math.lgamma(a) - math.lgamma(a - k)
            assert log_gamma_ratio_falling(a, k) == pytest.approx(want, rel=1e-12)


class TestBesselI:
    def test_at_zero(self):
        assert bessel_i(0.0, 0.0) == 1.0
        assert bessel_i(1.0, 0.0) == 0.0
        assert bessel_i(0.5, 0.0) == 0.0

    def test_frozen_value(self):
        assert bessel_i(0.0, 1.0) == pytest.approx(I0_AT_1, rel=1e-15)

    @pytest.mark.parametrize("rho", [1.0, 2.0, 3.0])
    @pytest.mark.parametrize("x", [0.5, 1.0, 5.0, 20.0])
    def test_recurrence(self, rho, x):
        # I_{rho-1}(x) - I_{rho+1}(x) = (2 rho / x) I_rho(x)
        lhs = bessel_i(rho - 1.0, x) - bessel_i(rho + 1.0, x)
        rhs = 2.0 * rho / x * bessel_i(rho, x)
        assert lhs == pytest.approx(rhs, rel=1e-9)

    def test_against_scipy(self):
        for rho in (0.0, 1.0, 0.25, 1.8571428571428572):  # incl. 2/0.7 - 1
            for x in (0.1, 1.0, 7.0, 30.0):
                assert bessel_i(rho, x) == pytest.approx(
                    scipy.special.iv(rho, x), rel=1e-12
                )

    def test_domain(self):
        with pytest.raises(DomainError):
            bessel_i(-1.0, 1.0)
        with pytest.raises(DomainError):
            bessel_i(0.0, -0.5)

    def test_envelope_warning(self):
        with pytest.warns(PrecisionWarning):
            bessel_i(0.0, 75.0)

    def test_divergence_guard(self):
        with pytest.raises(DivergenceError):
            bessel_i(0.0, 30.0, SeriesAccuracy(tail_tol=1e-12, k_max=3))
