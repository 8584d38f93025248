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
        for rho, x in [(math.nan, 1.0), (0.0, math.nan), (math.nan, math.nan)]:
            with pytest.raises(DomainError):
                bessel_i(rho, x)

    def test_envelope_warning(self):
        with pytest.warns(PrecisionWarning):
            bessel_i(0.0, 75.0)

    def test_series_values_unchanged_up_to_the_envelope(self):
        # the ascending series still answers at x <= 60, bit for bit
        golden = [
            (0.0, 60.0, "0x1.3807a3acd786fp+82"),
            (1.0, 37.5, "0x1.1b519ea3dc11bp+50"),
            (0.25, 7.0, "0x1.4f8e771919135p+7"),
            (1.8571428571428572, 59.9, "0x1.127cb7e9b1cd1p+82"),
            (0.0, 1e-3, "0x1.00000431bdec9p+0"),
            (-0.5, 2.0, "0x1.0fb1150bb69a9p+1"),
        ]
        for rho, x, want in golden:
            assert bessel_i(rho, x).hex() == want

    @pytest.mark.filterwarnings("ignore::lagmin.errors.PrecisionWarning")
    def test_large_argument_expansion(self):
        # past the envelope e^-x I_rho(x) comes from DLMF 10.40.1, where
        # the series needed more than 500 terms from x ~ 700 on
        for rho in (0.0, 1.0, 0.25, 1.8571428571428572, 19.0):
            for x in (61.0, 100.0, 300.0, 700.0):
                assert bessel_i(rho, x) == pytest.approx(
                    scipy.special.iv(rho, x), rel=1e-13
                )

    @pytest.mark.filterwarnings("ignore::lagmin.errors.PrecisionWarning")
    def test_overflow_is_infinity(self):
        assert bessel_i(0.0, 1000.0) == math.inf
        assert bessel_i(0.0, math.inf) == math.inf
        assert bessel_i(2.5, math.inf) == math.inf
        assert math.isfinite(bessel_i(0.0, 712.0))

    def test_divergence_guard(self):
        with pytest.raises(DivergenceError):
            bessel_i(0.0, 30.0, SeriesAccuracy(tail_tol=1e-12, k_max=3))
