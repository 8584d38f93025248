"""Partition combinatorics and Jack values at the all-ones point (the
per-partition references in partition_reference.py that the series
builders are checked against), and the equal-argument 0F1 series built
by the shared partition-weight builder."""

import math

import numpy as np
import pytest
import scipy.special
from partition_reference import (
    Partition,
    enumerate_partitions,
    gen_factorial,
    jack_c_one,
    pochhammer,
)

from lagmin import core, limit
from lagmin.errors import DivergenceError, DomainError


def test_partition_basics():
    p = Partition((3, 1))
    assert p.weight == 4
    assert p.length == 2
    assert p.conjugate().parts == (2, 1, 1)
    assert Partition((4,)).conjugate().parts == (1, 1, 1, 1)
    assert tuple(Partition((2, 2))) == (2, 2)


def test_partition_validation():
    with pytest.raises(DomainError):
        Partition((1, 2))  # increasing
    with pytest.raises(DomainError):
        Partition((2, 0))  # zero part
    with pytest.raises(DomainError):
        Partition((2, -1))


def _count_partitions(k, max_len, max_part):
    # independent recursive counter, no shared code with the library
    def rec(remaining, slots, cap):
        if remaining == 0:
            return 1
        if slots == 0:
            return 0
        total = 0
        for part in range(min(remaining, cap), 0, -1):
            total += rec(remaining - part, slots - 1, part)
        return total

    return rec(k, max_len, max_part)


def test_enumeration_counts_match_brute_force():
    for k in range(11):
        for max_len in range(1, 6):
            got = len(enumerate_partitions(k, max_len))
            assert got == _count_partitions(k, max_len, k if k else 1)


def test_enumeration_with_max_part():
    parts = enumerate_partitions(6, max_len=3, max_part=3)
    for kappa in parts:
        assert all(x <= 3 for x in kappa.parts)
    assert len(parts) == _count_partitions(6, 3, 3)


def test_enumeration_is_deduplicated_and_sorted():
    seen = enumerate_partitions(5, 5)
    assert len({p.parts for p in seen}) == len(seen)
    weights = [p.weight for p in seen]
    assert all(w == 5 for w in weights)


def test_pochhammer():
    assert pochhammer(3.0, 4) == 3 * 4 * 5 * 6
    assert pochhammer(-2.0, 3) == 0.0
    assert pochhammer(0.5, 2) == 0.75
    assert pochhammer(7.7, 0) == 1.0


def test_gen_factorial_single_row_is_pochhammer():
    for a in (2.5, -3.0, 6.0):
        for k in range(5):
            assert gen_factorial(a, (k,) if k else (), 1.7) == pytest.approx(
                pochhammer(a, k), rel=1e-14
            )


def test_gen_factorial_two_rows():
    # [a]_(2,1) at step 1/nu: (a)_2 * (a - 1/nu)_1
    a, nu = 5.0, 2.0
    want = (a * (a + 1)) * (a - 0.5)
    assert gen_factorial(a, (2, 1), nu) == pytest.approx(want, rel=1e-14)


# Frozen Jack values at the all-ones point, worked out by hand from the
# arm/leg cell product: at nu=1 (the Schur case) with m=2 variables,
# C_(2) = 3 and C_(1,1) = 1 (they sum to m^k = 4).
def test_jack_values_schur_case():
    assert jack_c_one((2,), 1.0, 2) == pytest.approx(3.0, rel=1e-13)
    assert jack_c_one((1, 1), 1.0, 2) == pytest.approx(1.0, rel=1e-13)
    assert jack_c_one((1,), 1.0, 5) == pytest.approx(5.0, rel=1e-13)


def test_jack_value_quaternion_case():
    # nu=2, one variable: C_(2)(1^1) = 1 (the only length-1 partition of 2)
    assert jack_c_one((2,), 2.0, 1) == pytest.approx(1.0, rel=1e-13)


def test_jack_too_long_vanishes():
    assert jack_c_one((1, 1, 1), 1.0, 2) == 0.0
    assert jack_c_one(Partition((2, 1, 1)), 0.5, 2) == 0.0


@pytest.mark.parametrize("nu", [0.5, 1.0, 2.0])
@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_normalization_sum(nu, m):
    # sum over |kappa|=k of C_kappa(1^m) telescopes to m^k
    for k in range(9):
        total = math.fsum(
            jack_c_one(kappa, nu, m) for kappa in enumerate_partitions(k, m)
        )
        assert total == pytest.approx(float(m) ** k, rel=1e-10)


def test_jack_positive():
    for kappa in enumerate_partitions(6, 3):
        assert jack_c_one(kappa, 0.5, 3) >= 0.0


def test_hyper_0f1_is_bessel():
    # one variable: c_k = 1 / (k! (b)_k) at both b = 2/beta and 2/beta + 2,
    # and 0F1(; b; u) = Gamma(b) u^((1-b)/2) I_(b-1)(2 sqrt(u))
    for beta in (0.5, 0.7, 1.0, 2.0, 4.0):
        for shift in (0, 2):
            b = 2.0 / beta + shift
            got = np.exp(limit._f01_coeffs(beta, 1, shift, 1)[:21])  # rung 1 reaches k = 32
            want = [1.0 / (math.factorial(k) * scipy.special.poch(b, k)) for k in range(21)]
            assert got == pytest.approx(want, rel=1e-13)
        lp = limit.LimitParams(beta, 1)
        for y in (0.5, 4.0, 30.0):
            u = y / 4.0
            f01 = (math.gamma(2.0 / beta) * u ** (0.5 - 1.0 / beta)
                   * scipy.special.iv(2.0 / beta - 1.0, 2.0 * math.sqrt(u)))
            assert limit.q_limit(lp, y) == pytest.approx(math.exp(-beta * y / 8.0) * f01, rel=1e-13)
    # 0F1(; 1; 1/4) = I_0(1)
    assert limit.q_limit(limit.LimitParams(2.0, 1), 1.0) * math.exp(0.25) == pytest.approx(
        1.2660658777520084, rel=1e-14
    )


def test_hyper_divergence_guard(monkeypatch):
    # 0F1(; 2; 10) needs far more than the powers u^0..u^4
    monkeypatch.setattr(core, "K_MAX", 4)
    lp = limit.LimitParams(1.0, 1)
    with pytest.raises(DivergenceError):
        limit.q_limit(lp, 40.0)
    with pytest.raises(DivergenceError):
        limit.p_limit(lp, 40.0)
    # the density starts at u^m: m > K_MAX leaves no term to sum
    with pytest.raises(DivergenceError):
        limit.p_limit(limit.LimitParams(2.0, 5), 1.0)
