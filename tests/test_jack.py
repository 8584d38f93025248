"""Partition combinatorics, Jack values at the all-ones point, and the
equal-argument hypergeometric series."""

import math

import pytest

from lagmin.core import SeriesAccuracy
from lagmin.errors import DivergenceError, DomainError
from lagmin.jack import (
    JackTable,
    Partition,
    enumerate_partitions,
    gen_factorial,
    hyper_pfq_equal,
    jack_c_one,
    pochhammer,
)


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
    table = JackTable(0.5, 2)
    assert table.value(Partition((2, 1, 1))) == 0.0


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


def test_jack_table_memoizes_consistently():
    table = JackTable(1.0, 3)
    a = table.value(Partition((2, 1)))
    b = jack_c_one((2, 1), 1.0, 3)
    assert a == b


def test_hyper_terminating_scalar():
    # 1F1(-2; 1; x) with one variable: 1 - 2x + x^2/2
    for x in (0.0, 0.3, 1.0, 2.5):
        got = hyper_pfq_equal((-2.0,), (1.0,), 1.0, 1, x)
        assert got == pytest.approx(1 - 2 * x + 0.5 * x * x, rel=1e-13, abs=1e-13)


def test_hyper_0f1_is_bessel():
    # 0F1(; 1; u) = I_0(2 sqrt(u)) for a single variable
    i0_at_1 = 1.2660658777520084
    assert hyper_pfq_equal((), (1.0,), 1.0, 1, 0.25) == pytest.approx(
        i0_at_1, rel=1e-13
    )


def test_hyper_edge_cases():
    assert hyper_pfq_equal((-3.0,), (2.0,), 0.5, 2, 0.0) == 1.0
    assert hyper_pfq_equal((), (), 1.0, 0, 5.0) == 1.0  # no variables


def test_hyper_denominator_pole():
    with pytest.raises(DomainError):
        hyper_pfq_equal((), (0.0,), 1.0, 1, 0.5)


def test_hyper_divergence_guard():
    with pytest.raises(DivergenceError):
        hyper_pfq_equal((), (2.0,), 1.0, 1, 50.0, SeriesAccuracy(k_max=4))


def test_hyper_nu_consistency_across_conventions():
    # the same scalar series must come out for any nu when m=1 ... the
    # one-variable case collapses every convention to 1F1
    for nu in (0.5, 1.0, 2.0):
        a = hyper_pfq_equal((-2.0,), (1.5,), nu, 1, 0.7)
        assert a == pytest.approx(
            1 - 2 * 0.7 / 1.5 + (2 * 1 / (1.5 * 2.5)) * 0.49 / 2, rel=1e-12
        )
