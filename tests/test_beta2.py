"""The beta=2 Laguerre-determinant route and its exact rational identities."""

import hashlib
import math
import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracle import cofactor_det, derivative, evaluate, laguerre, laguerre_matrix, pochhammer

from lagmin import beta2
from lagmin.beta2 import q_alpha2_sum, q_exact_beta2
from lagmin.core import params_new
from lagmin.errors import DomainError, PrecisionWarning
from lagmin.exact import q_exact


# ---------- Laguerre polynomials (test-side reference) ----------

def test_laguerre_small_cases():
    assert laguerre(0, 0) == [Fraction(1)]
    # L_2^(0) = 1 - 2x + x^2/2
    assert laguerre(2, 0) == [Fraction(1), Fraction(-2), Fraction(1, 2)]
    # L_1^(3) = 4 - x
    assert laguerre(1, 3) == [Fraction(4), Fraction(-1)]
    assert laguerre(-1, 2) == []


def test_laguerre_value_at_zero_is_binomial():
    for n in range(6):
        for l in range(5):
            assert evaluate(laguerre(n, l), Fraction(0)) == math.comb(n + l, n)


def test_differential_difference_relation_exact():
    # d/dx L_n^(rho) = -L_{n-1}^(rho+1), exactly in rationals
    for n in range(0, 13):
        for rho in range(0, 5):
            lhs = derivative(laguerre(n, rho))
            rhs = [-c for c in laguerre(n - 1, rho + 1)]
            assert lhs == rhs, (n, rho)


# ---------- the combined-weight identity behind the alpha=2 sum ----------

def test_pochhammer_combination_identity_exact():
    # (N+1)(-N)_i(-N)_j - N(-N-1)_i(-N+1)_j
    #   = (N+1)(1+j-i)/(N+1-i) * (-N)_i(-N)_j
    # exactly in rationals, for every i except the singular row i = N+1
    for n in range(1, 11):
        for i in range(0, 11):
            if i == n + 1:
                continue
            for j in range(0, 11):
                lhs = ((n + 1) * pochhammer(-n, i) * pochhammer(-n, j)
                       - n * pochhammer(-n - 1, i) * pochhammer(-n + 1, j))
                rhs = Fraction((n + 1) * (1 + j - i), n + 1 - i) * pochhammer(-n, i) * pochhammer(-n, j)
                assert lhs == rhs, (n, i, j)


def test_identity_boundary_row_does_not_vanish():
    # at i = N+1 the combined weight is 0/0 and the uncombined left side
    # survives whenever j <= N-1 -- this is why the explicit alpha=2 sum
    # needs its extra boundary row
    n = 3
    i = n + 1
    for j in range(n):
        lhs = (n + 1) * pochhammer(Fraction(-n), i) * pochhammer(
            Fraction(-n), j
        ) - n * pochhammer(Fraction(-n - 1), i) * pochhammer(Fraction(-n + 1), j)
        assert lhs != 0
    # ... and dies once (-N+1)_j hits zero
    lhs = -n * pochhammer(Fraction(-n - 1), i) * pochhammer(Fraction(-n + 1), n)
    assert lhs == 0


def test_identity_spot_case():
    # i=1, j=0: (N+1)(-N) - N(-N-1) = 0
    for n in range(1, 9):
        assert (n + 1) * (-n) - n * (-n - 1) == 0


# ---------- determinant ----------

def _route(route, n, alpha):
    coeffs, denom = route(n, alpha)
    return tuple(Fraction(c, denom) for c in coeffs)


def det_fractions(n, alpha):
    """Coefficients ascending in s of det[L_(N+k-l)^(l)(-s)]_(k,l<alpha), as
    Fractions from beta2._det_integers, the integer form the law reads."""
    return _route(beta2._det_integers, n, alpha)


def test_det_examples():
    assert det_fractions(1, 2) == (Fraction(1), Fraction(1), Fraction(1, 2))
    assert det_fractions(2, 1) == (Fraction(1), Fraction(2), Fraction(1, 2))
    assert det_fractions(4, 0) == (Fraction(1),)


def test_det_degree_is_alpha_times_n():
    for n in range(1, 6):
        for alpha in range(0, 4):
            coeffs = det_fractions(n, alpha)
            assert len(coeffs) == alpha * n + 1
            assert coeffs[-1] != 0


def _det(mat):
    """The determinant of a matrix of numbers, by the oracle's cofactor
    expansion over constant polynomials."""
    return evaluate(cofactor_det([[[v] for v in row] for row in mat]), 0)


def test_det_constant_term_matches_direct_evaluation():
    # the s=0 value must equal the plain numeric determinant of the
    # binomial matrix L_{N+k-l}^{(l)}(0) = C(N+k, N+k-l); entries with
    # negative degree are the zero polynomial
    for n in range(1, 5):
        for alpha in range(1, 4):
            mat = [
                [
                    Fraction(math.comb(n + k, n + k - l))
                    if n + k - l >= 0
                    else Fraction(0)
                    for l in range(alpha)
                ]
                for k in range(alpha)
            ]
            direct = _det(mat)
            assert det_fractions(n, alpha)[0] == direct


def test_det_matches_cofactor_reference():
    # the determinant (packed up to alpha = 4 here) against a first-row
    # cofactor expansion of the polynomial matrix, coefficient by coefficient
    for n in range(1, 13):
        for alpha in range(0, 5):
            want = cofactor_det(laguerre_matrix(n, alpha))
            assert list(det_fractions(n, alpha)) == want, (n, alpha)


# each side of the route rule: the last N of the packed route and the
# first of the interpolated one for alpha = 4..6, the envelope's edge N = 30
# for alpha <= 3 (packed at every N), and alpha = 7 past the rule's table
_RULE_EDGES = [(30, 1), (30, 2), (30, 3), (28, 4), (29, 4), (15, 5), (16, 5),
               (9, 6), (10, 6), (2, 7)]
# the empty determinant, N = 1, and alpha > N (entries of negative degree)
_SMALL_EDGES = [(1, 0), (7, 0), (1, 1), (1, 2), (1, 6), (2, 5), (3, 6), (4, 5)]


@pytest.mark.parametrize("n,alpha", _RULE_EDGES + _SMALL_EDGES)
def test_packed_and_interpolated_routes_agree(n, alpha):
    # the two integer routes give the same Fractions, and _det_integers
    # returns them whichever route its rule picks
    packed = _route(beta2._det_packed, n, alpha)
    assert packed == _route(beta2._det_interpolated, n, alpha)
    assert det_fractions(n, alpha) == packed
    assert len(packed) == alpha * n + 1


@pytest.mark.parametrize("n,alpha,packed", [
    (30, 3, True), (28, 4, True), (29, 4, False), (15, 5, True), (16, 5, False),
    (9, 6, True), (10, 6, False), (1, 7, False),
])
def test_route_rule(monkeypatch, n, alpha, packed):
    # _det_integers takes the packed route up to the measured crossover N
    # of each alpha, and evaluate-and-interpolate beyond it
    def refuse(*args):
        raise AssertionError("wrong route")

    monkeypatch.setattr(beta2, "_det_interpolated" if packed else "_det_packed", refuse)
    beta2._det_integers.cache_clear()
    assert len(det_fractions(n, alpha)) == alpha * n + 1


# sha256 of the exact (numerator, denominator) pairs, captured from the
# polynomial Bareiss elimination over Fractions that the integer routes
# replaced; _det_integers takes the packed route at (16,4) and (24,4) and
# the interpolated one at (20,6) and (30,6)
GOLDEN_DIGESTS = {
    (16, 4): "a2e878760ed5a189c30df6782ccb58bb21dfeaa4b8f45c827ca10ee4bc747d45",
    (24, 4): "6101abbebf8a6dc389159a1e25352895aaad8c36d4d1fe7c17f63146f9e85b3e",
    (20, 6): "e9ef81f364cf8e6be561490b52fbc4059edf81dc56e59c9cc2cc60c1b23ca96f",
    (30, 6): "2b884006afe876818f2450afa5068e6d58a9d9e1a65e551f175f11411a6794be",
}


@pytest.mark.parametrize("n,alpha", sorted(GOLDEN_DIGESTS))
def test_det_golden_digest(n, alpha):
    coeffs = det_fractions(n, alpha)
    pairs = repr([(c.numerator, c.denominator) for c in coeffs]).encode()
    assert hashlib.sha256(pairs).hexdigest() == GOLDEN_DIGESTS[n, alpha]


@pytest.mark.parametrize("n,alpha", [(12, 4), (8, 6)])
@pytest.mark.parametrize("s", [Fraction(1, 3), Fraction(5, 2)])
def test_det_off_sample_points(n, alpha, s):
    # both routes work at integer s (0..alpha*N, or 2^K); at non-integer s
    # the polynomial must still equal the determinant of the entries there
    mat = [[evaluate(p, s) for p in row] for row in laguerre_matrix(n, alpha)]
    assert evaluate(list(det_fractions(n, alpha)), s) == _det(mat)


def test_det_coefficients_positive():
    # the interpolated route's elimination takes the diagonal as pivots
    # without a search; they are leading minors, positive because these are
    for n in range(1, 13):
        for alpha in range(0, 7):
            assert all(c > 0 for c in det_fractions(n, alpha)), (n, alpha)


@pytest.mark.parametrize("n,alpha", [(8, 0), (12, 1), (20, 2), (16, 3), (10, 4), (20, 4),
                                     (24, 4), (10, 6)])
def test_beta2_coeffs_are_logs_of_the_reduced_rationals(n, alpha):
    # Q's coefficients come from the integer form of the determinant, each
    # product reduced by one gcd: the bits of the logs of the Fraction
    # products c_j * Gamma(MN)/Gamma(MN-j) in lowest terms
    mn = (n + alpha) * n
    logs, falling = [], 1
    for j, c in enumerate(det_fractions(n, alpha)):
        a = c * falling
        falling *= mn - 1 - j
        logs.append(math.log(a.numerator) - math.log(a.denominator))
    assert beta2._beta2_coeffs(n, alpha).tobytes() == np.array(logs).tobytes()


# ---------- survival function ----------

def test_q_beta2_alpha0_closed_form():
    for n in (1, 2, 4):
        for x in (0.0, 0.05, 0.2 / n):
            assert q_exact_beta2(n, n, x) == pytest.approx(
                (1 - n * x) ** (n * n - 1), rel=1e-13
            )


def test_q_beta2_alpha0_at_a_huge_n():
    # only the alpha = 0 return of _entries answers this fast: without it the
    # Laguerre recurrence runs to degree N - 1 on growing integers
    n, xs = 10**5, [1e-16, 1e-15, 1e-14]
    start = time.perf_counter()
    with pytest.warns(PrecisionWarning):
        qs = q_exact_beta2(n, n, np.array(xs))
    assert time.perf_counter() - start < 1.0
    # (1 - Nx)^(N^2 - 1), with 1 - Nx never rounded
    assert qs.tolist() == [math.exp((n * n - 1) * math.log1p(-n * x)) for x in xs]


def test_q_beta2_handworked_case():
    # N=2, M=3: (1-2x)^5 + 10x(1-2x)^4 + 10x^2(1-2x)^3
    for x in np.linspace(0.0, 0.5, 21):
        w = 1 - 2 * x
        want = w**5 + 10 * x * w**4 + 10 * x * x * w**3
        assert q_exact_beta2(2, 3, float(x)) == pytest.approx(want, abs=1e-14)


def test_q_beta2_edges_and_errors():
    assert q_exact_beta2(3, 5, 0.0) == 1.0
    assert q_exact_beta2(3, 5, 1.0 / 3.0) == 0.0
    assert q_exact_beta2(3, 5, 0.9) == 0.0
    with pytest.raises(DomainError):
        q_exact_beta2(3, 5, -0.1)
    with pytest.raises(DomainError):
        q_exact_beta2(3, 2, 0.1)  # M < N
    with pytest.warns(PrecisionWarning):
        q_exact_beta2(32, 33, 0.001)


def test_q_beta2_integer_arguments():
    assert q_exact_beta2(3.0, 5, 0.1) == q_exact_beta2(3, 5, 0.1)
    assert q_exact_beta2(3, 5.0, 0.1) == q_exact_beta2(3, 5, 0.1)
    for n_dim, m_dim in [(True, 3), (2, True), (2.5, 4), (2, 4.5), (None, 3)]:
        with pytest.raises(DomainError):
            q_exact_beta2(n_dim, m_dim, 0.1)


def test_q_beta2_rejects_nan():
    with pytest.raises(DomainError):
        q_exact_beta2(3, 5, math.nan)


def test_route_agreement_spot():
    # full N<=6, alpha<=3 sweep lives in the acceptance suite
    for n, m_dim in [(3, 5), (4, 6), (5, 5)]:
        p = params_new(2.0, n, m_dim)
        for x in np.linspace(0.01, 1.0 / n - 0.01, 11):
            assert q_exact_beta2(n, m_dim, float(x)) == pytest.approx(
                q_exact(p, float(x)), abs=1e-12
            )


def test_route_agreement_at_hard_edge_n40():
    # the three beta=2 routes at the hard-edge point x = y/(4N^3), y=9,
    # N=40, M=42 (the slowest cell of acceptance criterion-5); N=40 is
    # outside the validated envelope of both beta=2 routes, hence the warnings
    n, m_dim = 40, 42
    x = 9.0 / (4.0 * n**3)
    series = q_exact(params_new(2.0, n, m_dim), x)
    with pytest.warns(PrecisionWarning):
        det = q_exact_beta2(n, m_dim, x)
    with pytest.warns(PrecisionWarning):
        double_sum = q_alpha2_sum(n, x)
    assert abs(det - series) <= 1e-13
    assert abs(double_sum - series) <= 1e-13


# ---------- alpha=2 double sum ----------

def test_alpha2_sum_equals_determinant_route():
    for n in (1, 2, 3, 4, 5, 6):
        for x in np.linspace(0.0, 1.0 / n, 17):
            assert q_alpha2_sum(n, float(x)) == pytest.approx(
                q_exact_beta2(n, n + 2, float(x)), abs=1e-13
            )


def test_alpha2_sum_example():
    assert q_alpha2_sum(3, 0.05) == pytest.approx(
        q_exact_beta2(3, 5, 0.05), abs=1e-12
    )
    assert q_alpha2_sum(2, 0.0) == 1.0


@pytest.mark.filterwarnings("ignore::lagmin.errors.PrecisionWarning")  # q_exact_beta2 past N = 30
@pytest.mark.parametrize("n", [98, 120, 170])
def test_alpha2_sum_past_the_float_range_of_its_factorials(n):
    # (N!)^2 leaves float range from N = 99 on and N! from N = 171; the
    # weights are ratios of them that stay in range, and Q keeps its
    # relative accuracy into the far tail (5e-103 at N = 170, Nx = 0.01)
    for t in (1e-3, 1e-2, 0.5):
        want = q_exact_beta2(n, n + 2, t / n)
        with pytest.warns(PrecisionWarning):
            got = q_alpha2_sum(n, t / n)
        assert got == pytest.approx(want, rel=1e-13, abs=0.0)
        assert (want > 0.0) == (t < 0.5)


def test_alpha2_sum_domain():
    with pytest.raises(DomainError):
        q_alpha2_sum(2, -0.05)
    assert q_alpha2_sum(2, 0.51) == 0.0  # past 1/N the law is 0, as q_exact_beta2 is
    assert q_alpha2_sum(3, 0.34) == 0.0 == q_exact_beta2(3, 5, 0.34)
    with pytest.raises(DomainError):
        q_alpha2_sum(0, 0.1)
    for n_dim in (2.5, True, "2"):
        with pytest.raises(DomainError):
            q_alpha2_sum(n_dim, 0.1)
    assert q_alpha2_sum(2.0, 0.1) == q_alpha2_sum(2, 0.1)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 12), st.integers(0, 5), st.lists(st.floats(0.0, 1.5), min_size=1, max_size=40))
def test_law_over_x(n, alpha, ts):
    # over the envelope and x in [0, 1.5/N]: Q in [0, 1] and nonincreasing
    # up to 1e-15 of rounding, 1 at x = 0; an array call equal to the
    # scalar calls
    xs = np.sort(np.array(ts + [0.0]) / n)
    qs = q_exact_beta2(n, n + alpha, xs)
    assert qs[0] == 1.0
    assert np.all((qs >= 0.0) & (qs <= 1.0)) and np.all(np.diff(qs) <= 1e-15)
    assert qs.tolist() == [q_exact_beta2(n, n + alpha, float(x)) for x in xs]
