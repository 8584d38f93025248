import math

import numpy as np
import pytest
import scipy.special

from lagmin import core
from lagmin.errors import DivergenceError, DomainError, PrecisionWarning
from lagmin.numerics import _bessel_i_large, _log_falling, _prefix_sums, bessel_i

# I_0(1), 17 significant digits (independent series evaluation)
I0_AT_1 = 1.2660658777520084


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

    def test_divergence_guard(self, monkeypatch):
        monkeypatch.setattr(core, "K_MAX", 3)
        with pytest.raises(DivergenceError):
            bessel_i(0.0, 30.0)

    def test_large_argument_reads_tail_tol_at_call_time(self, monkeypatch):
        # the terms at x = 100 bottom out near e^-200: 1e-12 is reached,
        # 1e-300 is not
        assert _bessel_i_large(0.0, 100.0) is not None
        monkeypatch.setattr(core, "TAIL_TOL", 1e-300)
        assert _bessel_i_large(0.0, 100.0) is None


def _fsum_prefixes(row):
    return [math.fsum(row[:p]) for p in range(len(row) + 1)]


class TestLogTables:
    def test_prefix_sums_are_correctly_rounded(self):
        # a running float sum of ten 0.1 ends at 0.9999999999999999
        rows = [[0.1] * 10, [1.0, 1e-17, -1.0, 1e-17, -math.inf, 2.0, 3.0, 4.0, 5.0, 6.0]]
        got = _prefix_sums(rows)
        assert got.shape == (2, 11)
        assert got[0, -1] == 1.0 and np.cumsum(rows[0])[-1] != 1.0
        for row, want in zip(got, rows):
            assert row.tolist() == _fsum_prefixes(want)

    def test_prefix_sums_of_short_rows(self):
        assert _prefix_sums([[2.5]]).tolist() == [[0.0, 2.5]]
        assert _prefix_sums([[]]).tolist() == [[0.0]]
        assert _prefix_sums([]).size == 0

    @pytest.mark.parametrize("g,k_max", [(24, 48), (40.5, 20), (1e6 / 3, 40), (7.0, 0), (3.0, 5), (2.5, 4)])
    def test_log_falling_is_the_fsum_of_its_factor_logs(self, g, k_max):
        # g <= k_max: the factors g - i <= 0 contribute -inf
        logs = [math.log(g - i) if g > i else -math.inf for i in range(1, k_max + 1)]
        got = _log_falling(g, k_max)
        assert got.tolist() == _fsum_prefixes(logs)
        assert not got.flags.writeable
        if g <= k_max:
            assert got[-1] == -math.inf and math.isfinite(got[int(math.ceil(g)) - 1])
