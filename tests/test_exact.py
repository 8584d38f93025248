"""Finite-size survival function, density, moments, normalization."""

import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
import scipy.integrate
import scipy.special
from hypothesis import given, settings
from hypothesis import strategies as st
from oracle import law, ln, weight_sum
from test_jack import check_partition_stream

from lagmin import exact, jack
from lagmin.beta2 import det_laguerre
from lagmin.core import params_new
from lagmin.beta2 import q_alpha2_sum, q_exact_beta2
from lagmin.errors import DomainError, NonIntegerJackIndex, PrecisionWarning
from lagmin.exact import moment, p_exact, q_exact, q_oracle_n2
from test_demos import load_demo

# the normalization constant lives in the demo that prints it
norm_const = load_demo("exact_distribution").norm_const


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
        assert q_exact(p, x) == pytest.approx((1 - 3 * x) ** 8, rel=1e-13, abs=0.0)


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

@pytest.mark.parametrize("n,alpha", [(10, 2), (20, 2), (40, 2), (12, 3), (16, 4)])
def test_coeffs_match_exact_beta2_rationals(n, alpha):
    # at beta=2, A_k = c_k * Gamma(MN)/Gamma(MN-k) with c_k the exact
    # coefficients of the Laguerre determinant
    log_a = exact._series_coeffs(params_new(2.0, n, n + alpha), 0)
    rational = det_laguerre(n, alpha)
    assert len(log_a) == len(rational)
    mn = (n + alpha) * n
    falling = 1
    for k, c in enumerate(rational):
        if k:
            falling *= mn - k
        assert abs(log_a[k] - float(ln(c * falling))) <= 2e-13


def _falling(g: Fraction, k: int) -> Fraction:
    """Gamma(G)/Gamma(G-k) = (G-1)(G-2)...(G-k)."""
    return math.prod((g - i for i in range(1, k + 1)), start=Fraction(1))


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
    # A_k in exact rationals at the float beta's exact value
    log_a = exact._series_coeffs(p, 0)
    nu = Fraction(beta) / 2
    want = [_falling(nu * m_dim * n, k) * weight_sum(nu, m, k, m / nu, cols=n) for k in range(m * n + 1)]
    assert len(log_a) == len(want)
    for lg, w in zip(log_a, want):
        assert math.exp(lg) == pytest.approx(float(w), rel=1e-12, abs=0.0)


@pytest.mark.parametrize("chunk_rows", [1, 20, jack.CHUNK_ROWS])
@pytest.mark.parametrize("m,n", [(0, 5), (1, 4), (2, 7), (3, 6), (5, 4)])
def test_box_stream_is_the_whole_box(m, n, chunk_rows, monkeypatch):
    # the m x N box: weight in [0, mN], first part capped at N
    assert check_partition_stream(monkeypatch, m, 0, m * n, n, chunk_rows) == math.comb(n + m, m)


def test_box_stream_chunks_are_bounded():
    # at (m, N) = (6, 25) the partitions with first part 25 alone number
    # C(30, 5) = 142,506, more than CHUNK_ROWS: a chunk must split them
    rows = [len(c) for c in jack._partition_chunks(6, 0, 6 * 25, 25)]
    assert sum(rows) == math.comb(31, 6)
    assert max(rows) <= jack.CHUNK_ROWS


def test_coeffs_do_not_depend_on_the_chunking(monkeypatch):
    # chunks of at most N + 1 rows merge the running (peak, sum) pairs,
    # in the m x N box of Q and the m x (N-1) box of P
    p = params_new(1.0, 9, 16)
    whole = [exact._series_coeffs(p, shift) for shift in (0, 2)]
    exact._series_coeffs.cache_clear()
    monkeypatch.setattr(jack, "CHUNK_ROWS", 1)
    split = [exact._series_coeffs(p, shift) for shift in (0, 2)]
    exact._series_coeffs.cache_clear()
    for s, w in zip(split, whole):
        assert s.tolist() == pytest.approx(w.tolist(), abs=1e-13)


@pytest.mark.parametrize(
    "beta,n,m_dim", [(2.0, 40, 44), (1.0, 12, 17), (4.0, 9, 11), (2.0 / 3.0, 8, 16)]
)
def test_coeffs_are_positive(beta, n, m_dim):
    # each coefficient is held as its log, so it is positive; a finite
    # log means it did not underflow.  A_k: m N + 1 of them; d_j, j >= m:
    # m (N-1) + 1
    p = params_new(beta, n, m_dim)
    for shift, cols in ((0, n), (2, n - 1)):
        logs = exact._series_coeffs(p, shift)
        assert len(logs) == p.jack_index * cols + 1
        assert np.all(np.isfinite(logs))


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
    ys = p_exact(p, xs)
    mass = np.trapezoid(ys, xs)
    assert mass == pytest.approx(1.0, abs=1e-6)


def test_p_at_zero():
    # m=0: P(0) = N(G-1); e.g. beta=2, N=M=2 gives 6 (from Q=(1-2x)^3)
    assert p_exact(params_new(2.0, 2, 2), 0.0) == pytest.approx(6.0, rel=1e-13, abs=0.0)
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
        assert moment(p, 1) == pytest.approx(n**-3.0, rel=1e-13, abs=0.0)


def test_second_moment_smallest_case():
    # beta=2, N=M=2: mu_2 = 2*Gamma(4)Gamma(2)/Gamma(6)/4 = 1/40
    assert moment(params_new(2.0, 2, 2), 2) == pytest.approx(1.0 / 40.0, rel=1e-13, abs=0.0)


def test_first_moment_equals_integral_of_q():
    # mu_1 = int_0^(1/N) Q(x) dx; Q is a polynomial of degree G - 1 (11
    # and 14 here), which 8-point Gauss-Legendre integrates exactly
    nodes, weights = np.polynomial.legendre.leggauss(8)
    for p in (params_new(4.0, 2, 3), params_new(2.0, 3, 5)):
        half = 0.5 / p.n_dim
        integral = half * np.dot(weights, q_exact(p, half * (nodes + 1.0)))
        assert moment(p, 1) == pytest.approx(integral, rel=1e-13, abs=0.0)


@pytest.mark.parametrize("n,alpha", [(6, 1), (12, 3), (40, 2)])
def test_moments_match_exact_beta2_rationals(n, alpha):
    # mu_p = p sum_k c_k Gamma(MN)Gamma(p+k) / (Gamma(MN+p) N^(p+k)) at beta=2
    mn = (n + alpha) * n
    c = det_laguerre(n, alpha)
    for order in (1, 2):
        want = order * sum(
            ck * math.factorial(order + k - 1)
            / Fraction(math.prod(range(mn, mn + order)) * n ** (order + k))
            for k, ck in enumerate(c)
        )
        got = moment(params_new(2.0, n, n + alpha), order)
        assert got == pytest.approx(float(want), rel=1e-13, abs=0.0)


def test_moment_errors():
    p = params_new(2.0, 2, 3)
    with pytest.raises(DomainError):
        moment(p, 0)
    with pytest.raises(DomainError):
        moment(p, 1.5)
    with pytest.raises(NonIntegerJackIndex):
        moment(params_new(1.0, 2, 4), 1)


# ---------- normalization constant (demos/exact_distribution.py) ----------

def test_norm_const_frozen_values():
    assert norm_const(params_new(2.0, 2, 2)) == pytest.approx(3.0, rel=1e-12, abs=0.0)
    assert norm_const(params_new(2.0, 2, 3)) == pytest.approx(30.0, rel=1e-12, abs=0.0)


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


def test_oracle_small_beta_near_the_hard_edge():
    # 1 - Q = I_(4x(1-x))(b, a) ~ (4x)^b / (b B(a, b)) with b = 0.05 is
    # far from 0 at x = 1e-9; the value is 50-digit mpmath
    p = params_new(0.1, 2, 2)
    assert q_oracle_n2(p, 1e-9) == pytest.approx(0.64005084704357226, rel=1e-13, abs=0.0)


def test_oracle_at_large_beta_times_m():
    # beta*(M-1) = 1492: the weight (lambda(1-lambda))^745 underflows
    p = params_new(7.5, 2, 200)
    qs = q_oracle_n2(p, np.linspace(0.0, 0.5, 501))
    assert np.all(np.isfinite(qs)) and np.all((qs >= 0.0) & (qs <= 1.0))
    assert qs[0] == 1.0 and qs[-1] == 0.0 and np.all(np.diff(qs) <= 0.0)


@pytest.mark.parametrize("beta", [0.1, 0.5, 2.0 / 3.0, 1.0, 2.0, 3.7, 4.0, 8.0])
def test_oracle_against_betainc(beta):
    # Q = I_z(a, b) with z = (1-2x)^2; above z = 1/2 the reference is
    # the complement in 1 - z = 4x(1-x), formed as the oracle forms it
    edge = np.logspace(-12, -1, 45)
    xs = np.concatenate([edge, [0.15, 0.25, 0.35], 0.5 - edge])
    z = (1.0 - 2.0 * xs) ** 2
    a = 0.5 * (beta + 1.0)
    for m_dim in (2, 3, 4, 7, 50, 200):
        b = 0.5 * beta * (m_dim - 1)
        ref = np.where(
            z <= 0.5,
            scipy.special.betainc(a, b, z),
            scipy.special.betaincc(b, a, 4.0 * xs * (1.0 - xs)),
        )
        got = q_oracle_n2(params_new(beta, 2, m_dim), xs)
        assert np.all(ref > 0.0)
        assert np.max(np.abs(got - ref) / ref) <= 1e-13


@pytest.mark.parametrize("beta,m_dim", [(0.5, 3), (1.0, 4), (4.0, 7), (2.0 / 3.0, 5)])
def test_oracle_against_quadrature_of_the_weight(beta, m_dim):
    # the definition: the normalized integral of the one free eigenvalue
    e = 0.5 * beta * (m_dim - 1) - 1.0

    def mass(lo, hi):
        val, _ = scipy.integrate.quad(
            lambda lam: (lam * (1.0 - lam)) ** e * abs(2.0 * lam - 1.0) ** beta,
            lo, hi, points=[0.5], epsabs=1e-13, epsrel=1e-13, limit=200,
        )
        return val

    total = mass(0.0, 1.0)
    p = params_new(beta, 2, m_dim)
    for x in (0.01, 0.1, 0.25, 0.4, 0.49):
        assert q_oracle_n2(p, x) == pytest.approx(mass(x, 1.0 - x) / total, rel=1e-9)


@pytest.mark.parametrize("beta,m_dim", [(0.1, 2), (1.0, 4), (4.0, 3), (7.5, 200)])
def test_oracle_array_call_equals_scalar_calls(beta, m_dim):
    p = params_new(beta, 2, m_dim)
    xs = np.concatenate([[0.0, 0.5, 1e-300, 0.5 - 1e-12], np.linspace(0.0, 0.5, 996)])
    got = q_oracle_n2(p, xs)
    assert isinstance(got, np.ndarray) and got.shape == xs.shape
    assert np.array_equal(got, [q_oracle_n2(p, float(x)) for x in xs])
    assert got[0] == 1.0 and got[1] == 0.0
    assert isinstance(q_oracle_n2(p, 0.2), float)
    assert np.array_equal(q_oracle_n2(p, xs.reshape(-1, 5)), got.reshape(-1, 5))
    assert q_oracle_n2(p, np.zeros(0)).shape == (0,)


def test_oracle_warns_outside_its_measured_band():
    # against 50-digit references the reflected branch is off by 3.7e-12
    # at (beta, M) = (8, 1e5) and 2.9e-12 at (1e-3, 2): outside beta in
    # [0.1, 8], M <= 200 a call issues one PrecisionWarning
    for beta, m_dim in ((8.0, 100_000), (1e-3, 2)):
        with pytest.warns(PrecisionWarning, match="oracle_n2") as caught:
            q_oracle_n2(params_new(beta, 2, m_dim), np.linspace(0.0, 0.5, 11))
        assert len(caught) == 1
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        q_oracle_n2(params_new(1.7, 2, 4), np.linspace(0.0, 0.5, 11))


def test_oracle_rejects_points_off_its_support():
    p = params_new(1.0, 2, 4)
    for bad in (math.nan, -1e-300, 0.5 + 1e-12, 1.0):
        with pytest.raises(DomainError):
            q_oracle_n2(p, bad)
        with pytest.raises(DomainError):
            q_oracle_n2(p, np.array([0.1, bad, 0.2]))


# ---------- the one assembler, against the exact beta=2 rationals ----------

BETA2_CASES = [(3, 2), (10, 2), (25, 2), (40, 2), (12, 3), (16, 4), (24, 4)]


def _exact_beta2_law(n, alpha, xs, density=False):
    """Q (or P = -dQ/dx) at the floats xs, 0 < x < 1/N, from the exact
    rational coefficients of the Laguerre determinant, by the oracle."""
    mn = (n + alpha) * n
    a, falling = [], 1
    for j, c in enumerate(det_laguerre(n, alpha)):
        a.append(c * falling)
        falling *= mn - 1 - j
    e = mn - 1
    if density:
        a = [n * (mn - 1 - j) * aj - (j + 1) * sum(a[j + 1:j + 2]) for j, aj in enumerate(a)]
        e = mn - 2
    return np.array([float(law(a, Fraction(x), 1 - n * Fraction(x), e)) for x in xs])


def _support_grid(n):
    """Points of (0, 1/N) from deep in the hard edge to near the far edge."""
    nx = [1e-9, 1e-7, 1e-5, 1e-4, 1e-3, 3e-3] + list(np.linspace(0.01, 0.95, 20))
    return [t / n for t in nx]


@pytest.mark.filterwarnings("ignore::lagmin.errors.PrecisionWarning")  # beta2 route, N=40
@pytest.mark.parametrize("n,alpha", BETA2_CASES)
def test_q_matches_exact_beta2_rationals(n, alpha):
    p = params_new(2.0, n, n + alpha)
    xs = np.array(_support_grid(n))
    want = _exact_beta2_law(n, alpha, xs)
    assert np.max(np.abs(q_exact(p, xs) - want)) <= 1e-14
    assert np.max(np.abs(q_exact_beta2(n, n + alpha, xs) - want)) <= 1e-14
    if alpha == 2:
        assert max(abs(q_alpha2_sum(n, x) - w) for x, w in zip(xs.tolist(), want)) <= 1e-14


@pytest.mark.parametrize("n,alpha", BETA2_CASES + [(25, 5), (40, 6)])
def test_p_matches_exact_beta2_rationals(n, alpha):
    # down to N x = 1e-9, where P ~ x^m is far below its maximum
    p = params_new(2.0, n, n + alpha)
    xs = np.array(_support_grid(n))
    want = _exact_beta2_law(n, alpha, xs, density=True)
    normal = want > 1e-290  # towards 1/N, P underflows at large N
    assert normal[:12].all()
    assert np.max(np.abs(p_exact(p, xs[normal]) / want[normal] - 1.0)) <= 1e-12
    assert p_exact(p, 0.0) == 0.0


@pytest.mark.parametrize("beta", [Fraction(1, 2), Fraction(2, 3), Fraction(1), Fraction(2), Fraction(4)])
def test_density_coefficients_identity_exact(beta):
    # d_j = N(G-1-j) A_j - (j+1) A_(j+1) is 0 for j < m and
    # D_(N,m) Gamma(G)/Gamma(G-m-1-k) S'_k for j = m + k, S'_k the sums
    # over the m x (N-1) box at b = 2m/beta + 2
    nu = beta / 2
    for m in range(4):
        for n in range(2, 6):
            m_dim = n - 1 + (m + 1) / nu
            if m_dim.denominator != 1:
                continue
            g = nu * m_dim * n
            a = [_falling(g, k) * weight_sum(nu, m, k, m / nu, cols=n) for k in range(m * n + 1)] + [0]
            d_m = Fraction(n, math.factorial(m)) * math.prod(
                ((n * nu + i) / (nu + i) for i in range(1, m + 1)), start=Fraction(1))
            p = params_new(float(beta), n, int(m_dim))
            assert p.jack_index == m
            assert math.log(d_m) == pytest.approx(exact._log_density_constant(p), rel=0.0, abs=1e-15)
            for j in range(m * n + 1):
                d = n * (g - 1 - j) * a[j] - (j + 1) * a[j + 1]
                want = d_m * _falling(g, j + 1) * weight_sum(nu, m, j - m, m / nu + 2, cols=n - 1) if j >= m else 0
                assert d == want


@pytest.mark.filterwarnings("ignore::lagmin.errors.PrecisionWarning")  # m past the envelope
@pytest.mark.parametrize("m", [100, 250])
def test_density_constant_at_a_large_jack_index(m):
    # D = (m+2)/m! at N = 2, beta = 2: a product with m! in it overflowed
    # from m = 98, and D itself is 0 in doubles from m = 179
    p = params_new(2.0, 2, m + 2)
    want = float(ln(Fraction(m + 2, math.factorial(m))))
    assert exact._log_density_constant(p) == pytest.approx(want, rel=1e-15, abs=0.0)
    # P against its N = 2 closed form 4 z (1-z)^(M-2) / B(3/2, M-1),
    # z = (1-2x)^2, in logs
    xs = np.array([0.05, 0.1, 0.25, 0.4])
    got = p_exact(p, xs)
    assert np.all(np.isfinite(got)) and np.all(got > 0.0)
    want = (math.log(4.0) + 2.0 * np.log1p(-2.0 * xs) + m * np.log(4.0 * xs * (1.0 - xs))
            - scipy.special.betaln(1.5, m + 1.0))
    assert np.max(np.abs(np.log(got) - want)) <= 1e-10


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


@pytest.mark.parametrize("beta,n,m_dim", [(2.0 / 3.0, 2, 10), (1.0, 2, 7), (2.0, 3, 7), (4.0, 3, 5)])
def test_q_never_passes_one_next_to_the_hard_edge(beta, n, m_dim):
    # the leading terms of the sum round to 1 + 2.2e-16 somewhere on this
    # grid of N x in [1e-12, 1e-3]; Q is capped there, on both beta=2 routes
    xs = np.logspace(-12, -3, 200) / n
    assert q_exact(params_new(beta, n, m_dim), xs).max() == 1.0
    if beta == 2.0:
        assert q_exact_beta2(n, m_dim, xs).max() == 1.0


@settings(max_examples=60, deadline=None)
@given(_series_params(), st.lists(st.floats(0.0, 1.5), min_size=1, max_size=40))
def test_laws_over_x(case, ts):
    # over parameters and x in [0, 1.5/N]: P finite and >= 0 with no clamp,
    # 0 at the hard edge when m >= 1; Q in [0, 1] (near N x = 1e-9 its sum
    # rounds to 1 + 2.2e-16, which q_exact caps) and nonincreasing up to
    # the 1e-15 of rounding allowed on one grid call below (it rises by up
    # to 6.7e-16 there); an array call equal to the scalar calls
    beta, n, m_dim, m = case
    p = params_new(beta, n, m_dim)
    xs = np.sort(np.array(ts + [0.0]) / n)
    ps, qs = p_exact(p, xs), q_exact(p, xs)
    assert np.all(np.isfinite(ps)) and np.all(ps >= 0.0)
    if m >= 1:
        assert ps[0] == 0.0
    assert np.all((qs >= 0.0) & (qs <= 1.0)) and np.all(np.diff(qs) <= 1e-15)
    assert ps.tolist() == [p_exact(p, float(x)) for x in xs]
    assert qs.tolist() == [q_exact(p, float(x)) for x in xs]


def test_grid_is_a_law_through_the_array_call():
    # Q nonincreasing from 1 to 0, P >= 0, on one grid call each
    for beta, n, m_dim in [(2.0, 2, 3), (4.0, 3, 4), (1.0, 5, 8)]:
        p = params_new(beta, n, m_dim)
        xs = np.linspace(0.0, 1.0 / n, 401)
        qs = q_exact(p, xs)
        assert qs[0] == 1.0 and qs[-1] == 0.0
        assert np.all(np.diff(qs) <= 1e-15)
        assert np.all(p_exact(p, xs) >= 0.0)


def test_moment_reuses_the_cached_gamma_ratio():
    # log Gamma(G)/Gamma(G-k) is built once per parameter set, with the A_k
    p = params_new(2.0, 13, 15)
    first = moment(p, 1)
    misses = exact._log_falling.cache_info().misses
    second = moment(p, 2)
    assert exact._log_falling.cache_info().misses == misses
    assert moment(p, 1) == first and moment(p, 2) == second
