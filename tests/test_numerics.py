import math
import re
from functools import partial

import numpy as np
import pytest
import scipy.special
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from lagmin import jack, limit, numerics
from lagmin.numerics import _log_falling, _prefix_sums


def _fsum_prefixes(row):
    return [math.fsum(row[:p]) for p in range(len(row) + 1)]


def _tables(entries):
    """Tables of up to 5 rows of up to 60 entries, (0, L) and (n, 0)
    tables included."""
    return hnp.arrays(float, st.tuples(st.integers(0, 5), st.integers(0, 60)), elements=entries)


# small multiples of powers of two in a narrow window: many running sums
# and final adds fall exactly half-way between two doubles
DYADIC = st.builds(math.ldexp, st.integers(-255, 255), st.integers(-60, 0))
# entries from the subnormals to 1e300 of either sign
SPAN = st.floats(-1e300, 1e300) | st.builds(lambda f, e: f * 10.0**e, st.floats(-10.0, 10.0), st.integers(-300, 300))
SPECIAL = st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan]) | st.floats(-50.0, 50.0)


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

    @settings(max_examples=150, deadline=None)
    @given(st.one_of(_tables(DYADIC), _tables(SPAN), _tables(SPECIAL)))
    def test_prefix_sums_are_fsum_bit_for_bit(self, table):
        try:
            want = [_fsum_prefixes(row) for row in table.tolist()]
        except (ValueError, OverflowError) as err:  # inf - inf, or a sum past the float range
            with pytest.raises(type(err), match=re.escape(str(err))):
                _prefix_sums(table)
            return
        got = _prefix_sums(table)
        assert got.shape == (len(table), table.shape[1] + 1)
        assert got.tobytes() == np.array(want).tobytes()

    def test_inf_minus_inf_raises_as_fsum_does(self):
        row = [0.5] * 60 + [math.inf, -math.inf]
        with pytest.raises(ValueError, match=re.escape("-inf + inf in fsum")):
            _prefix_sums([row])

    def test_finite_tables_take_the_cumsum_path(self, monkeypatch):
        # every entry of these tables is finite, and every row's c is exact
        falling = _fsum_prefixes([math.log(240.5 - i) for i in range(1, 201)])
        cases = [(0.6, 5, 0, 41, 50), (0.6, 1, 0, 0, 16)]  # the 9 x 51 table of R_0..R_4, T_1..T_4; 1 x 17
        sums = [jack._log_weight_sums(*case) for case in cases]

        def no_fsum(_):
            raise AssertionError("math.fsum called")

        monkeypatch.setattr(numerics.math, "fsum", no_fsum)
        assert _log_falling.__wrapped__(240.5, 200).tolist() == falling
        for case, want in zip(cases, sums):
            assert [a.tobytes() for a in jack._log_weight_sums(*case)] == [b.tobytes() for b in want]

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
        coeffs = partial(limit._f01_coeffs, 2.0, 1, 0)
        got = limit._f01_sum(lp, np.array([0.0, math.inf, 4.0]), coeffs, 0, 1.0)
        assert got[:2].tolist() == [1.0, 0.0]
        assert got[2] == pytest.approx(math.exp(-1.0) * scipy.special.iv(0, 2.0), rel=1e-15, abs=0.0)
