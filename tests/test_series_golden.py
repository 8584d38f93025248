"""Golden Q and P of every series route, captured before the limit's
sums moved into numerics._series_sum (tests/series_golden.json).

Each record holds a route, its arguments, its values on the route's grid
below and, for the limit, the number of coefficient rungs a cold call
built.  The finite-N routes may move by 2e-15 relative, the limit by
1e-14 (its sums are shifted by their largest term since), and the limit
must build the same rungs.
"""

import json
import math
from pathlib import Path

import numpy as np
import pytest

from lagmin import limit
from lagmin.beta2 import q_exact_beta2
from lagmin.core import params_new
from lagmin.exact import p_exact, q_exact
from lagmin.limit import LimitParams, _p_limit_printed, p_limit, q_limit

RECORDS = json.loads((Path(__file__).parent / "series_golden.json").read_text())
CROSS_YS = [0.0, 8.0, 16.0, 24.0, 32.0, 40.0]  # the benchmark's grid 0:40:6
ARRAY_YS = [0.0, 1e-8, 0.3, 2.0, 17.5, 40.0, 99.0, math.inf]
FINITE = {"q_exact": q_exact, "p_exact": p_exact}
LIMIT = {"q_limit": q_limit, "p_limit": p_limit, "_p_limit_printed": _p_limit_printed}


def _x_grid(n):
    return np.concatenate([np.linspace(0.0, 1.0 / n, 17), [1e-9 / n, 1e-3 / n, 1.5 / n]])


def _assert_close(got, want, rel):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert abs(g - w) <= rel * abs(w), (g, w)


@pytest.mark.filterwarnings("ignore::lagmin.errors.PrecisionWarning")  # (2, 40, 42), beta2 past N = 30
def test_finite_routes_hold_their_golden_values():
    seen = set()
    for rec in RECORDS:
        route, args = rec["route"], rec["args"]
        if route in FINITE:
            beta, n, m_dim = args
            got = FINITE[route](params_new(beta, n, m_dim), _x_grid(n))
        elif route == "q_exact_beta2":
            n, m_dim = args
            got = q_exact_beta2(n, m_dim, _x_grid(n))
        else:
            continue
        _assert_close(got.tolist(), rec["values"], 2e-15)
        seen.add(route)
    assert seen == {"q_exact", "p_exact", "q_exact_beta2"}


def test_limit_holds_its_golden_values_and_rungs():
    count = 0
    for rec in RECORDS:
        if rec["route"] not in LIMIT:
            continue
        beta, m = rec["args"]
        ys = CROSS_YS if len(rec["values"]) == len(CROSS_YS) else ARRAY_YS
        limit._f01_coeffs.cache_clear()
        got = LIMIT[rec["route"]](LimitParams(beta, m), np.array(ys))
        assert limit._f01_coeffs.cache_info().currsize == rec["rungs"]
        _assert_close(got.tolist(), rec["values"], 1e-14)
        count += 1
    limit._f01_coeffs.cache_clear()
    assert count == 7 * 7 * 3 * 2  # beta x m x route x grid
