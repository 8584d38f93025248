"""Finite-size survival function, density, moments, normalization."""

import math
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest
import scipy.integrate
from hypothesis import given, settings
from hypothesis import strategies as st

from lagmin import exact
from lagmin.beta2 import det_laguerre
from lagmin.core import params_new
from lagmin.beta2 import q_exact_beta2
from lagmin.errors import DomainError, NonIntegerJackIndex, PrecisionWarning
from lagmin.exact import moment, norm_const, p_exact, q_exact, q_oracle_n2
from lagmin.jack import enumerate_partitions, gen_factorial, jack_c_one_log


# ---------- closed forms (hand-expanded low-order cases) ----------

def test_q_beta2_square_case():
    # beta=2, N=M=2: Q = (1-2x)^3
    p = params_new(2.0, 2, 2)
    for x in np.linspace(0.0, 0.5, 23):
        assert q_exact(p, float(x)) == pytest.approx((1 - 2 * x) ** 3, abs=1e-14)


def test_q_beta2_rectangular_case():
    # beta=2, N=2, M=3: Q = (5/2)w^3 - (3/2)w^5 with w = 1-2x
    p = params_new(2.0, 2, 3)
    for x in np.linspace(0.0, 0.5, 23):
        w = 1 - 2 * x
        assert q_exact(p, float(x)) == pytest.approx(
            2.5 * w**3 - 1.5 * w**5, abs=1e-14
        )


def test_q_beta4_case():
    # beta=4, N=2, M=3 (m=3): hand-reduced odd polynomial in w = 1-2x
    p = params_new(4.0, 2, 3)
    for x in np.linspace(0.0, 0.5, 17):
        w = 1 - 2 * x
        want = (231 * w**5 - 495 * w**7 + 385 * w**9 - 105 * w**11) / 16.0
        assert q_exact(p, float(x)) == pytest.approx(want, abs=1e-13)


def test_q_m_zero_is_single_power():
    # m=0 collapses the series to (1-Nx)^(G-1), G = beta*M*N/2
    p = params_new(2.0, 3, 3)
    for x in (0.0, 0.1, 0.2, 0.3):
        assert q_exact(p, x) == pytest.approx((1 - 3 * x) ** 8, rel=1e-13)


def test_boundary_values_are_exact():
    p = params_new(2.0, 3, 5)
    assert q_exact(p, 0.0) == 1.0
    assert q_exact(p, 1.0 / 3.0) == 0.0
    assert q_exact(p, 0.4) == 0.0  # beyond the support edge


def test_q_monotone_nonincreasing():
    for beta, n, m_dim in [(2.0, 3, 5), (4.0, 2, 3), (1.0, 2, 5)]:
        p = params_new(beta, n, m_dim)
        xs = np.linspace(0.0, 1.0 / n, 200)
        qs = [q_exact(p, float(x)) for x in xs]
        assert all(a >= b - 1e-12 for a, b in zip(qs, qs[1:]))
        assert all(-1e-12 <= v <= 1 + 1e-12 for v in qs)


def test_domain_and_index_errors():
    p = params_new(2.0, 2, 3)
    with pytest.raises(DomainError):
        q_exact(p, -0.01)
    with pytest.raises(NonIntegerJackIndex):
        q_exact(params_new(1.0, 2, 4), 0.1)
    with pytest.raises(NonIntegerJackIndex):
        p_exact(params_new(0.7, 3, 5), 0.1)


def test_nan_x_is_a_domain_error():
    p = params_new(2.0, 3, 5)
    with pytest.raises(DomainError):
        q_exact(p, math.nan)
    with pytest.raises(DomainError):
        p_exact(p, math.nan)
    # one NaN or negative entry spoils an array call
    for bad in ([0.1, math.nan, 0.2], [0.1, -1e-300, 0.2]):
        for fn in (lambda x: q_exact(p, x), lambda x: p_exact(p, x), lambda x: q_exact_beta2(3, 5, x)):
            with pytest.raises(DomainError):
                fn(np.array(bad))


def test_envelope_warning():
    with pytest.warns(PrecisionWarning):
        q_exact(params_new(2.0, 55, 55), 0.001)


# ---------- series coefficients A_k ----------

def _exact_log(q: Fraction) -> float:
    with localcontext() as ctx:
        ctx.prec = 40
        return float(Decimal(q.numerator).ln() - Decimal(q.denominator).ln())


@pytest.mark.parametrize("n,alpha", [(10, 2), (20, 2), (40, 2), (12, 3), (16, 4)])
def test_coeffs_match_exact_beta2_rationals(n, alpha):
    # at beta=2, A_k = c_k * Gamma(MN)/Gamma(MN-k) with c_k the exact
    # coefficients of the Laguerre determinant
    coeffs = exact._series_coeffs(params_new(2.0, n, n + alpha))
    rational = det_laguerre(n, alpha).coeffs
    assert len(coeffs) == len(rational)
    mn = (n + alpha) * n
    falling = 1
    for k, c in enumerate(rational):
        if k:
            falling *= mn - k
        assert abs(coeffs[k][0] - _exact_log(c * falling)) <= 2e-13


def _per_partition_coeffs(beta, n, m_dim, m):
    """A_k partition by partition, straight from the series definition."""
    nu = 0.5 * beta
    g = 0.5 * beta * m_dim * n
    out = []
    for k in range(m * n + 1):
        ratio = math.prod(g - i for i in range(1, k + 1))
        terms = [
            gen_factorial(-float(n), kappa, nu) / gen_factorial(2.0 * m / beta, kappa, nu)
            * math.exp(jack_c_one_log(kappa, nu, m))
            for kappa in enumerate_partitions(k, m, n)
        ]
        out.append((-2.0 / beta) ** k * ratio * math.fsum(terms) / math.factorial(k))
    return out


@st.composite
def _series_params(draw):
    beta = draw(st.sampled_from([1.0, 2.0, 4.0, 2.0 / 3.0]))
    # M = N - 1 + 2(m+1)/beta must be an integer >= N
    ms = [m for m in range(4) if (2 * (m + 1) / beta) % 1 == 0 and 2 * (m + 1) >= beta]
    m = draw(st.sampled_from(ms))
    n = draw(st.integers(1, 10))
    return beta, n, n - 1 + round(2 * (m + 1) / beta), m


@settings(max_examples=40, deadline=None)
@given(_series_params())
def test_coeffs_match_per_partition_reference(case):
    beta, n, m_dim, m = case
    p = params_new(beta, n, m_dim)
    assert p.jack_index == m
    coeffs = exact._series_coeffs(p)
    want = _per_partition_coeffs(beta, n, m_dim, m)
    assert len(coeffs) == len(want)
    for (lg, sign), w in zip(coeffs, want):
        assert sign * math.exp(lg) == pytest.approx(w, rel=1e-12)


@pytest.mark.parametrize("chunk_rows", [1, 20, exact.CHUNK_ROWS])
@pytest.mark.parametrize("m,n", [(0, 5), (1, 4), (2, 7), (3, 6), (5, 4)])
def test_box_stream_is_the_whole_box(m, n, chunk_rows, monkeypatch):
    monkeypatch.setattr(exact, "CHUNK_ROWS", chunk_rows)
    rows = np.concatenate(list(exact._box_chunks(m, n)))
    assert rows.shape == (math.comb(n + m, m), m)
    assert len({tuple(r) for r in rows.tolist()}) == len(rows)
    assert np.all((rows >= 0) & (rows <= n))
    assert np.all(np.diff(rows, axis=1) <= 0)


def test_coeffs_do_not_depend_on_the_chunking(monkeypatch):
    # one first part per chunk merges the running (peak, sum) pairs
    p = params_new(1.0, 9, 16)
    whole = exact._series_coeffs(p)
    exact._series_coeffs.cache_clear()
    monkeypatch.setattr(exact, "CHUNK_ROWS", 1)
    split = exact._series_coeffs(p)
    exact._series_coeffs.cache_clear()
    assert [s for _, s in split] == [s for _, s in whole]
    assert [lg for lg, _ in split] == pytest.approx([lg for lg, _ in whole], abs=1e-13)


@pytest.mark.parametrize(
    "beta,n,m_dim", [(2.0, 40, 44), (1.0, 12, 17), (4.0, 9, 11), (2.0 / 3.0, 8, 16)]
)
def test_coeffs_are_positive(beta, n, m_dim):
    p = params_new(beta, n, m_dim)
    coeffs = exact._series_coeffs(p)
    assert len(coeffs) == p.jack_index * n + 1
    assert all(sign == 1.0 and math.isfinite(lg) for lg, sign in coeffs)


# ---------- density ----------

def test_p_matches_minus_dq_dx():
    h = 1e-6
    for beta, n, m_dim in [(2.0, 3, 5), (4.0, 2, 3), (1.0, 3, 6)]:
        p = params_new(beta, n, m_dim)
        for x in (0.02, 0.1, 0.2, 0.3 / n):
            fd = (q_exact(p, x - h) - q_exact(p, x + h)) / (2 * h)
            assert p_exact(p, x) == pytest.approx(fd, abs=1e-6)


def test_p_integrates_to_one():
    p = params_new(2.0, 3, 4)
    xs = np.linspace(0.0, 1.0 / 3.0, 20001)
    ys = [p_exact(p, float(x)) for x in xs]
    mass = np.trapezoid(ys, xs)
    assert mass == pytest.approx(1.0, abs=1e-6)


def test_p_at_zero():
    # m=0: P(0) = N(G-1); e.g. beta=2, N=M=2 gives 6 (from Q=(1-2x)^3)
    assert p_exact(params_new(2.0, 2, 2), 0.0) == pytest.approx(6.0, rel=1e-13)
    # m>=1: the density has an m-fold zero at the hard edge
    assert p_exact(params_new(2.0, 2, 3), 0.0) == 0.0
    assert p_exact(params_new(4.0, 2, 3), 0.0) == 0.0


def test_p_nonnegative():
    p = params_new(4.0, 2, 4)
    for x in np.linspace(0.0, 0.5, 101):
        assert p_exact(p, float(x)) >= 0.0


def test_degenerate_single_eigenvalue():
    # N=1 is a point mass at x=1: flat survival, zero density part
    p = params_new(2.0, 1, 4)
    assert q_exact(p, 0.5) == 1.0
    assert q_exact(p, 1.0) == 0.0
    assert p_exact(p, 0.7) == 0.0
    assert moment(p, 3) == 1.0


# ---------- moments ----------

def test_first_moment_complex_square_case():
    # mu_1 = 1/N^3 whenever beta=2 and M=N
    for n in range(2, 7):
        p = params_new(2.0, n, n)
        assert moment(p, 1) == pytest.approx(n**-3.0, rel=1e-13)


def test_second_moment_smallest_case():
    # beta=2, N=M=2: mu_2 = 2*Gamma(4)Gamma(2)/Gamma(6)/4 = 1/40
    assert moment(params_new(2.0, 2, 2), 2) == pytest.approx(1.0 / 40.0, rel=1e-13)


def test_first_moment_equals_integral_of_q():
    # mu_1 = int_0^(1/N) Q(x) dx
    p = params_new(4.0, 2, 3)
    val, err = scipy.integrate.quad(lambda x: q_exact(p, x), 0.0, 0.5, limit=200)
    assert moment(p, 1) == pytest.approx(val, abs=max(1e-10, 10 * err))
    p2 = params_new(2.0, 3, 5)
    val2, err2 = scipy.integrate.quad(
        lambda x: q_exact(p2, x), 0.0, 1.0 / 3.0, limit=200
    )
    assert moment(p2, 1) == pytest.approx(val2, abs=max(1e-10, 10 * err2))


@pytest.mark.parametrize("n,alpha", [(6, 1), (12, 3), (40, 2)])
def test_moments_match_exact_beta2_rationals(n, alpha):
    # mu_p = p sum_k c_k Gamma(MN)Gamma(p+k) / (Gamma(MN+p) N^(p+k)) at beta=2
    mn = (n + alpha) * n
    c = det_laguerre(n, alpha).coeffs
    for order in (1, 2):
        want = order * sum(
            ck * math.factorial(order + k - 1)
            / Fraction(math.prod(range(mn, mn + order)) * n ** (order + k))
            for k, ck in enumerate(c)
        )
        got = moment(params_new(2.0, n, n + alpha), order)
        assert got == pytest.approx(float(want), rel=1e-13)


def test_moment_errors():
    p = params_new(2.0, 2, 3)
    with pytest.raises(DomainError):
        moment(p, 0)
    with pytest.raises(DomainError):
        moment(p, 1.5)
    with pytest.raises(NonIntegerJackIndex):
        moment(params_new(1.0, 2, 4), 1)


# ---------- normalization constant ----------

def test_norm_const_frozen_values():
    assert norm_const(params_new(2.0, 2, 2)) == pytest.approx(3.0, rel=1e-12)
    assert norm_const(params_new(2.0, 2, 3)) == pytest.approx(30.0, rel=1e-12)


@pytest.mark.parametrize("beta,m_dim", [(2.0, 3), (4.0, 3), (1.0, 5)])
def test_norm_const_against_quadrature(beta, m_dim):
    # for N=2 the fixed-trace density marginalizes to
    #   f(t) = 2 C (t(1-t))^(beta*alpha/2) (1-2t)^beta  on [0, 1/2],
    # so C is fixed by requiring unit mass
    p = params_new(beta, 2, m_dim)
    e = 0.5 * beta * p.alpha

    def integrand(t):
        return (t * (1 - t)) ** e * (1 - 2 * t) ** beta

    val, err = scipy.integrate.quad(integrand, 0.0, 0.5, limit=200)
    assert norm_const(p) == pytest.approx(0.5 / val, rel=1e-8)


# ---------- N=2 quadrature oracle ----------

def test_oracle_matches_series_spot():
    p = params_new(4.0, 2, 3)
    for x in (0.05, 0.2, 0.4):
        assert abs(q_oracle_n2(p, x) - q_exact(p, x)) < 1e-9


def test_oracle_requires_n2():
    with pytest.raises(DomainError):
        q_oracle_n2(params_new(2.0, 3, 4), 0.1)


def test_oracle_handles_non_integer_index():
    # the quadrature route doesn't care whether the series exists
    p = params_new(1.0, 2, 4)
    assert q_oracle_n2(p, 0.0) == pytest.approx(1.0, abs=1e-9)
    v = q_oracle_n2(p, 0.2)
    assert 0.0 < v < 1.0


# ---------- the one assembler, against the exact beta=2 rationals ----------

BETA2_CASES = [(3, 2), (10, 2), (25, 2), (40, 2), (12, 3), (16, 4), (24, 4)]


def _exact_beta2_law(n, alpha, x, density=False):
    """Q (or P = -dQ/dx) at the float x, 0 < x < 1/N, from the exact
    rational coefficients of the Laguerre determinant, to 60 digits."""
    mn = (n + alpha) * n
    a, falling = [], 1
    for j, c in enumerate(det_laguerre(n, alpha).coeffs):
        a.append(c * falling)
        falling *= mn - 1 - j
    e = mn - 1
    if density:
        a = [n * (mn - 1 - j) * aj - (j + 1) * sum(a[j + 1:j + 2]) for j, aj in enumerate(a)]
        e = mn - 2
    with localcontext() as ctx:
        ctx.prec = 60
        dx = Decimal(x)
        w = 1 - n * dx
        return float(sum(
            Decimal(c.numerator) / Decimal(c.denominator) * dx**j * w ** (e - j)
            for j, c in enumerate(a) if c
        ))


def _support_grid(n):
    """Points of (0, 1/N) from deep in the hard edge to near the far edge."""
    nx = [1e-9, 1e-7, 1e-5, 1e-4, 1e-3, 3e-3] + list(np.linspace(0.01, 0.95, 20))
    return [t / n for t in nx]


@pytest.mark.filterwarnings("ignore::lagmin.errors.PrecisionWarning")  # beta2 route, N=40
@pytest.mark.parametrize("n,alpha", BETA2_CASES)
def test_q_matches_exact_beta2_rationals(n, alpha):
    p = params_new(2.0, n, n + alpha)
    xs = np.array(_support_grid(n))
    want = np.array([_exact_beta2_law(n, alpha, x) for x in xs])
    assert np.max(np.abs(q_exact(p, xs) - want)) <= 1e-14
    assert np.max(np.abs(q_exact_beta2(n, n + alpha, xs) - want)) <= 1e-14


@pytest.mark.parametrize("n,alpha", BETA2_CASES)
def test_p_matches_exact_beta2_rationals(n, alpha):
    # down to N x = 1e-9, where P ~ x^m is far below its maximum
    p = params_new(2.0, n, n + alpha)
    xs = np.array(_support_grid(n))
    want = np.array([_exact_beta2_law(n, alpha, x, density=True) for x in xs])
    normal = want > 1e-290  # towards 1/N, P underflows at large N
    assert normal[:12].all()
    assert np.max(np.abs(p_exact(p, xs[normal]) / want[normal] - 1.0)) <= 1e-12
    assert p_exact(p, 0.0) == 0.0


@pytest.mark.parametrize(
    "beta,n,m_dim", [(1.0, 12, 17), (1.0, 5, 12), (4.0, 9, 11), (4.0, 6, 7), (2.0 / 3.0, 8, 16)]
)
def test_density_coeffs_below_m_vanish(beta, n, m_dim):
    # d_j = N(G-1-j) A_j - (j+1) A_(j+1) is 0 for j < m; in floats the two
    # parts must cancel to roundoff before p_exact drops them
    p = params_new(beta, n, m_dim)
    m = p.jack_index
    g = 0.5 * beta * m_dim * n
    log_a = np.array([lg for lg, _ in exact._series_coeffs(p)])
    log_d, _ = exact._density_coeffs(p)
    j = np.arange(m)
    assert m >= 1
    assert np.all(log_d[:m] - np.log(n * (g - 1.0 - j)) - log_a[:m] <= math.log(1e-12))


@pytest.mark.filterwarnings("ignore::lagmin.errors.PrecisionWarning")  # beta2 route, N=40
@pytest.mark.parametrize(
    "beta,n,m_dim", [(2.0, 2, 3), (4.0, 3, 4), (1.0, 4, 7), (2.0, 40, 42), (2.0, 1, 4), (4.0, 1, 2)]
)
def test_array_call_equals_scalar_calls(beta, n, m_dim):
    p = params_new(beta, n, m_dim)
    # edges, the support edge 1/N, beyond it, and enough points to span
    # several blocks of the assembler
    xs = np.concatenate([[0.0, 1.0 / n, 1.5 / n, 2.0], np.linspace(0.0, 1.0 / n, 3001)])
    for fn in (q_exact, p_exact):
        got = fn(p, xs)
        assert isinstance(got, np.ndarray) and got.shape == xs.shape
        assert np.array_equal(got, [fn(p, float(x)) for x in xs])
        assert isinstance(fn(p, 0.5 / n), float)
        assert np.array_equal(fn(p, xs.reshape(-1, 5)), got.reshape(-1, 5))
    if beta == 2.0:
        got = q_exact_beta2(n, m_dim, xs)
        assert np.array_equal(got, [q_exact_beta2(n, m_dim, float(x)) for x in xs])


def test_grid_is_a_law_through_the_array_call():
    # Q nonincreasing from 1 to 0, P >= 0, on one grid call each
    for beta, n, m_dim in [(2.0, 2, 3), (4.0, 3, 4), (1.0, 5, 8)]:
        p = params_new(beta, n, m_dim)
        xs = np.linspace(0.0, 1.0 / n, 401)
        qs = q_exact(p, xs)
        assert qs[0] == 1.0 and qs[-1] == 0.0
        assert np.all(np.diff(qs) <= 1e-15)
        assert np.all(p_exact(p, xs) >= 0.0)
