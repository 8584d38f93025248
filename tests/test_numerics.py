import math

import numpy as np
import pytest
import scipy.special

from lagmin import core, limit, numerics
from lagmin.errors import DivergenceError, PrecisionWarning
from lagmin.numerics import _bessel_i_large, _bessel_i_scaled, _log_falling, _prefix_sums

# I_0(1), 17 significant digits (independent series evaluation)
I0_AT_1 = 1.2660658777520084


class TestBesselI:
    # up to the envelope's x = 60 _bessel_i_scaled is the series, scale 0;
    # past it e^-x I_rho(x) from DLMF 10.40.1, scale x

    def test_frozen_value(self):
        value, scale = _bessel_i_scaled(0.0, 1.0)
        assert scale == 0.0
        assert value == pytest.approx(I0_AT_1, rel=1e-15, abs=0.0)

    @pytest.mark.parametrize("rho", [1.0, 2.0, 3.0])
    @pytest.mark.parametrize("x", [0.5, 1.0, 5.0, 20.0])
    def test_recurrence(self, rho, x):
        # I_{rho-1}(x) - I_{rho+1}(x) = (2 rho / x) I_rho(x)
        lhs = _bessel_i(rho - 1.0, x) - _bessel_i(rho + 1.0, x)
        rhs = 2.0 * rho / x * _bessel_i(rho, x)
        assert lhs == pytest.approx(rhs, rel=1e-9)

    def test_against_scipy(self):
        for rho in (0.0, 1.0, 0.25, 1.8571428571428572):  # incl. 2/0.7 - 1
            for x in (0.1, 1.0, 7.0, 30.0):
                assert _bessel_i(rho, x) == pytest.approx(
                    scipy.special.iv(rho, x), rel=1e-12
                )

    def test_envelope_warning(self):
        # the closed form warns for its Bessel argument sqrt(y) = 75
        with pytest.warns(PrecisionWarning):
            limit.q_limit_closed(limit.LimitParams(2.0, 1), 75.0**2)

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
            assert _bessel_i(rho, x).hex() == want

    def test_large_argument_expansion(self):
        # past the envelope e^-x I_rho(x) comes from DLMF 10.40.1, where
        # the series needed more than 500 terms from x ~ 700 on
        for rho in (0.0, 1.0, 0.25, 1.8571428571428572, 19.0):
            for x in (61.0, 100.0, 300.0, 700.0):
                value, scale = _bessel_i_scaled(rho, x)
                assert scale == x
                assert value == pytest.approx(scipy.special.ive(rho, x), rel=1e-13)

    def test_cancellation_guard_falls_back_to_the_series(self):
        # at rho = 30 the expansion's terms at x = 60.5 peak far above
        # their sum, so it declines and the series answers (7e-14 off)
        rho, x = 30.0, 60.5
        assert _bessel_i_large(rho, x) is None
        value, scale = _bessel_i_scaled(rho, x)
        assert scale == 0.0
        assert value == pytest.approx(scipy.special.iv(rho, x), rel=1e-12)

    def test_prefactor_outside_the_normal_range(self):
        # at rho = 199 (beta = 0.01 in q_limit_closed) (x/2)^rho /
        # Gamma(rho+1) underflows: the series starts at 1 and the
        # prefactor's log is the scale
        rho = 199.0
        for x, terms in ((1e-150, 1), (2.0, 8)):
            value, scale = _bessel_i_scaled(rho, x)
            assert scale == rho * math.log(0.5 * x) - math.lgamma(rho + 1.0)
            want = [1.0]
            for k in range(1, terms):
                want.append(want[-1] * (0.5 * x) ** 2 / (k * (rho + k)))
            assert value == pytest.approx(math.fsum(want), rel=1e-15, abs=0.0)

    def test_divergence_guard(self, monkeypatch):
        monkeypatch.setattr(core, "K_MAX", 3)
        with pytest.raises(DivergenceError):
            _bessel_i_scaled(0.0, 30.0)

    def test_large_argument_reads_tail_tol_at_call_time(self, monkeypatch):
        # the terms at x = 100 bottom out near e^-200: 1e-12 is reached,
        # 1e-300 is not
        assert _bessel_i_large(0.0, 100.0) is not None
        monkeypatch.setattr(core, "TAIL_TOL", 1e-300)
        assert _bessel_i_large(0.0, 100.0) is None


def _bessel_i(rho, x):
    """I_rho(x) at x <= 60, where _bessel_i_scaled is the unscaled series."""
    value, scale = _bessel_i_scaled(rho, x)
    assert scale == 0.0
    return value


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


def _reference_sum(log_c, first, log_u, log_v=0.0, e=0.0, offset=0.0):
    """The series at one point, its terms summed by math.fsum."""
    return math.fsum(
        math.exp(lc + (first + i) * log_u if first + i else lc)
        * math.exp((e - first - i) * log_v + offset)
        for i, lc in enumerate(log_c) if lc > -math.inf
    )


class TestSeriesSum:
    # Sum_k u^k / (k!)^2 = I_0(2 sqrt(u)), the m = 1, beta = 2 limit series
    LOG_C = -2.0 * np.array([math.lgamma(k + 1.0) for k in range(40)])

    def _cases(self):
        rng = np.random.default_rng(5)
        log_u = np.log(rng.uniform(0.0, 30.0, 23))
        log_u[[0, 7]] = -np.inf  # u = 0
        log_v = np.log1p(-rng.uniform(0.0, 1.0, 23))
        offset = -rng.uniform(0.0, 10.0, 23)
        return [
            (self.LOG_C, 0, log_u, log_v, 41.5, None, None),
            (self.LOG_C[:30], 3, log_u, log_v, 45.0, offset, None),
            (self.LOG_C, 0, log_u, None, 0.0, offset, 1e-12),
            (self.LOG_C[:20], 2, log_u, None, 0.0, offset, 1e-12),  # some points never stop
        ]

    @pytest.mark.parametrize("block", [1, 7])
    def test_a_point_does_not_depend_on_its_block(self, block, monkeypatch):
        whole = [numerics._series_sum(*case) for case in self._cases()]
        monkeypatch.setattr(numerics, "EDGE_SUM_BLOCK", block)
        for case, (sums, running) in zip(self._cases(), whole):
            got_sums, got_running = numerics._series_sum(*case)
            keep = np.ones(len(sums), dtype=bool)
            keep[running] = False  # the sums of points that never stop are not set
            assert got_sums[keep].tobytes() == sums[keep].tobytes()
            assert got_running.tolist() == running.tolist()
        assert whole[3][1].size and not whole[2][1].size

    def test_sums_match_a_term_by_term_reference(self):
        for log_c, first, log_u, log_v, e, offset, tail_tol in self._cases()[:2]:
            sums, running = numerics._series_sum(log_c, first, log_u, log_v, e, offset, tail_tol)
            assert running.size == 0
            for i, got in enumerate(sums):
                want = _reference_sum(log_c, first, log_u[i], log_v[i], e,
                                      0.0 if offset is None else offset[i])
                assert got == pytest.approx(want, rel=1e-13, abs=0.0)

    def test_stopping_index_on_inverse_factorial_squares(self):
        # at u = 1 and tail_tol = 1e-3, k = 4 (1/576) and k = 5 (1/14400)
        # are the first two terms in a row at or below 1e-3 of the partial
        # sum: the sum stops after k = 5, and 5 terms cannot reach it
        one = np.zeros(1)
        sums, running = numerics._series_sum(self.LOG_C, 0, one, tail_tol=1e-3)
        assert running.size == 0
        want = math.fsum(1.0 / math.factorial(k) ** 2 for k in range(6))
        assert sums[0] == pytest.approx(want, rel=1e-15, abs=0.0)
        assert numerics._series_sum(self.LOG_C[:6], 0, one, tail_tol=1e-3)[1].size == 0
        assert numerics._series_sum(self.LOG_C[:5], 0, one, tail_tol=1e-3)[1].tolist() == [0]

    def test_zero_coefficients_and_zero_points(self):
        # the m = 0 limit: one coefficient 1, then a row of zeros (log -inf);
        # the sum is e^offset exactly, also at u = 0
        log_c = np.array([0.0] + [-np.inf] * 16)
        log_u = np.array([-np.inf, math.log(0.25), math.log(25.0)])
        offset = np.array([0.0, -0.5, -40.0])
        sums, running = numerics._series_sum(log_c, 0, log_u, offset=offset, tail_tol=1e-12)
        assert running.size == 0 and sums.tolist() == np.exp(offset).tolist()
        # every term 0: u = 0 with the first power 1 (P at y = 0), or
        # every coefficient 0
        for log_c, first in ((self.LOG_C, 1), (np.full(5, -np.inf), 0)):
            for tail_tol in (None, 1e-12):
                zero = np.array([-np.inf])
                sums, running = numerics._series_sum(log_c, first, zero, tail_tol=tail_tol)
                assert sums.tolist() == [0.0] and running.size == 0

    def test_leading_terms_that_underflow_are_not_the_tail(self):
        # after the shift by the largest term the first two terms are 0 and
        # so at or below tail_tol times a partial sum of 0; the sum goes on
        log_c = np.array([-800.0, -800.0, 0.0, -50.0, -100.0, -150.0])
        sums, running = numerics._series_sum(log_c, 0, np.array([0.0]), tail_tol=1e-12)
        assert running.size == 0
        assert sums[0] == pytest.approx(1.0 + math.exp(-50.0), rel=1e-15, abs=0.0)
        # with its tail cut off the point has not stopped
        assert numerics._series_sum(log_c[:4], 0, np.array([0.0]), tail_tol=1e-12)[1].tolist() == [0]

    def test_edge_sum_at_the_ends_of_the_support(self):
        # S(0) = c_0 (x^0 = 1 at x = 0), S = 0 from x = 1/N on; just below
        # 1/N the edge factor (1 - Nx)^(e-j) is all that is left
        n, e = 3, 11.0
        log_c = np.log(np.array([2.0, 5.0, 1.0, 0.5]))
        below = np.nextafter(1.0 / n, 0.0)
        x = np.array([[0.0, 1.0 / n], [2.0 / n, below]])
        got = numerics._edge_sum(log_c, n, e, x)
        assert got.shape == x.shape and got[0, 0] == pytest.approx(2.0, rel=1e-15, abs=0.0)
        assert got[0, 1] == got[1, 0] == 0.0
        want = _reference_sum(log_c, 0, math.log(below), math.log1p(-n * below), e)
        assert 0.0 < want < 1e-100 and got[1, 1] == pytest.approx(want, rel=1e-13, abs=0.0)
        assert numerics._edge_sum(log_c[1:], n, e, np.array([0.0]), first=1).tolist() == [0.0]

    def test_limit_points_at_infinity(self):
        # y = +inf never reaches the assembler: Q and P are 0 there
        lp = limit.LimitParams(2.0, 1)
        got = limit._f01_sum(lp, np.array([0.0, math.inf, 4.0]), 0, 0, 1.0)
        assert got[:2].tolist() == [1.0, 0.0]
        assert got[2] == pytest.approx(math.exp(-1.0) * scipy.special.iv(0, 2.0), rel=1e-15, abs=0.0)
