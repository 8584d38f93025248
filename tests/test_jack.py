"""Partition combinatorics and Jack values at the all-ones point (the
exact references in oracle.py that the series builders are checked
against), the oracle's independence from the program, lagmin's
partition streamer, and the equal-argument 0F1 series built by the
shared partition-weight builder."""

import ast
import math
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
import scipy.special
from oracle import conjugate, gen_factorial, jack_c_one, partitions, pochhammer

from lagmin import core, jack, limit
from lagmin.errors import DivergenceError


def check_partition_stream(monkeypatch, m: int, lo: int, hi: int, cap, chunk_rows: int):
    """Assert that lagmin's streamer, at chunk_rows rows per chunk, yields
    exactly the partitions with at most m parts, weight in [lo, hi] and
    first part at most cap, each once and padded with
    zero parts to m columns, in chunks of at most max(chunk_rows, top + 1)
    rows, top = min(cap, hi), each row with its weight; returns the
    number of partitions."""
    monkeypatch.setattr(jack, "CHUNK_ROWS", chunk_rows)
    pairs = list(jack._partition_chunks(m, lo, hi, cap))
    chunks = [box for box, _ in pairs]
    rows = np.concatenate(chunks) if chunks else np.zeros((0, m), dtype=np.int32)
    assert all(weights.tolist() == box.sum(axis=1).tolist() for box, weights in pairs)
    want = {kappa + (0,) * (m - len(kappa)) for k in range(lo, hi + 1) for kappa in partitions(k, m, cap)}
    assert rows.shape == (len(want), m)
    assert {tuple(r) for r in rows.tolist()} == want
    top = min(cap, hi)
    assert all(len(c) <= max(chunk_rows, top + 1) for c in chunks)
    return len(want)


@pytest.mark.parametrize("m", [10, 20, 40, 80])
def test_chunk_parts_are_bounded_at_any_m(m, monkeypatch):
    # past CHUNK_WIDTH columns a chunk is held to CHUNK_ROWS * CHUNK_WIDTH
    # int32 parts, not CHUNK_ROWS rows of m parts: the m x 2 box of the
    # finite-N law, (m + 1)(m + 2)/2 partitions, in chunks of at most 2 KB
    monkeypatch.setattr(jack, "CHUNK_ROWS", 64)
    chunks = [box for box, _ in jack._partition_chunks(m, 0, 2 * m, 2)]
    assert sum(len(c) for c in chunks) == (m + 1) * (m + 2) // 2
    assert max(c.nbytes for c in chunks) <= 64 * jack.CHUNK_WIDTH * 4


def fsum_gather_weight_sums(nu, m, shift, lo, hi, n=None):
    """_log_weight_sums as it stood before its tables were rounded by
    cumsums, its gathers written into buffers and its chunks merged over
    the whole band: the same np.log terms, from the same hook logs at
    integer legs, each table entry the math.fsum of its prefix, log W
    gathered by fancy indexing in the order R_i, then T_(j-i) for j > i,
    each weight a row sum, and each chunk reduced and merged over its own
    weight window.  The boxes are the streamer's, so that both sum each
    weight's terms in the same order."""
    rows = min(m, hi)
    top = hi if n is None else n
    t = nu * np.arange(top, dtype=float)
    r = np.arange(rows, dtype=float)[:, None]
    lower, upper = np.log(t + (r + 1)), np.log(t + nu + r)
    num = 2.0 * math.log(nu) if n is None else np.log(nu * n + r - t)
    row_terms = num - np.log(t + nu * shift + (m - r)) - upper[::-1] + np.log1p((m - rows) / (t + (rows - r)))
    pair_terms = lower[1:] + upper[1:] - lower[:-1] - upper[:-1]
    row_tab, pair_tab = (np.array([[math.fsum(x[:p]) for p in range(len(x) + 1)] for x in terms.tolist()])
                         for terms in (row_terms, pair_terms))
    peak, total = np.full(hi - lo + 1, -np.inf), np.zeros(hi - lo + 1)
    for box, _ in jack._partition_chunks(rows, lo, hi, top):
        lw = np.zeros(len(box))
        for i in range(rows):
            lw += row_tab[i][box[:, i]]
            for j in range(i + 1, rows):
                lw += pair_tab[j - i - 1][box[:, i] - box[:, j]]
        k = box.sum(axis=1, dtype=np.intp)
        k0, k1 = int(k.min()), int(k.max()) + 1
        k -= k0
        chunk_peak = np.full(k1 - k0, -np.inf)
        np.maximum.at(chunk_peak, k, lw)
        chunk_sum = np.bincount(k, weights=np.exp(lw - chunk_peak[k]), minlength=k1 - k0)
        s = slice(k0 - lo, k1 - lo)
        new_peak = np.maximum(peak[s], chunk_peak)
        ref = np.where(new_peak > -np.inf, new_peak, 0.0)
        total[s] = total[s] * np.exp(peak[s] - ref) + chunk_sum * np.exp(chunk_peak - ref)
        peak[s] = new_peak
    return peak, total


# (nu, m, shift, lo, hi, n): a band of 27,612 partitions, past numpy's
# 8192-element take buffer; the 4 x 19 box of P; a 6 x 20 box that
# streams two chunks
@pytest.mark.parametrize("case", [(0.6, 5, 0, 41, 50, None), (1, 4, 2, 0, 76, 19), (1 / 3, 6, 0, 0, 120, 20)],
                         ids=["band", "p-box", "two-chunks"])
def test_weight_sums_keep_their_bits(case):
    # a reordered gather or a table rounded otherwise moves bits here
    got, want = jack._log_weight_sums(*case), fsum_gather_weight_sums(*case)
    assert [a.tobytes() for a in got] == [b.tobytes() for b in want]


def test_weight_sums_keep_their_bits_over_many_chunks(monkeypatch):
    # hundreds of chunks, most covering a few weights of the band: a
    # merge over the whole band adds exact zeros where a window stopped
    monkeypatch.setattr(jack, "CHUNK_ROWS", 50)
    for case in [(0.6, 5, 0, 41, 50, None), (1, 4, 2, 0, 76, 19), (1 / 3, 6, 0, 0, 120, 20)]:
        got, want = jack._log_weight_sums(*case), fsum_gather_weight_sums(*case)
        assert [a.tobytes() for a in got] == [b.tobytes() for b in want]


@pytest.mark.parametrize("nu", [1e-3, 1e-9, 1e-17, 5e-301])
@pytest.mark.parametrize("n", [None, 3])
def test_plancherel_identities_at_small_nu(nu, n):
    # for k <= m the weight sums have closed forms: c_k = nu^k/k! for the
    # 0F1 and S_k = N^k/k! in a box of width N, at any nu.  The hook
    # nu*(a+1) + l formed as (nu*(a+1) + (l+1)) - 1 loses nu to rounding
    # (and is 0 at a = l = 0 below nu = 2^-53); the bound grows as
    # k*|log nu| is summed
    for m in (1, 2, 3, 5, 8):
        peak, total = jack._log_weight_sums(nu, m, 0, 0, m, n)
        for k in range(m + 1):
            want = k * math.log(nu if n is None else n) - math.lgamma(k + 1)
            got = peak[k] + math.log(total[k])
            assert abs(got - want) <= 1e-14 * (1 + k * abs(math.log(nu)))


def test_oracle_imports_only_the_standard_library():
    # the exact reference must not share code with what it checks
    tree = ast.parse((Path(__file__).parent / "oracle.py").read_text())
    names = {alias.name for node in ast.walk(tree) if isinstance(node, ast.Import) for alias in node.names}
    names |= {node.module or "." for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)}
    assert names and not {n.split(".")[0] for n in names} & {"", "lagmin", "numpy", "scipy"}


def test_partition_basics():
    assert conjugate((3, 1)) == (2, 1, 1)
    assert conjugate((4,)) == (1, 1, 1, 1)
    assert conjugate(()) == ()
    for kappa in partitions(8, 8):
        assert conjugate(conjugate(kappa)) == kappa
        assert sum(conjugate(kappa)) == sum(kappa) == 8


def test_partition_validation():
    # every enumerated partition is weakly decreasing with positive parts;
    # arguments that admit no partitions are refused
    for kappa in partitions(9, 4):
        assert all(p >= 1 for p in kappa) and list(kappa) == sorted(kappa, reverse=True)
    for args in [(-1, 2), (3, -1), (3, 2, 0)]:
        with pytest.raises(ValueError):
            partitions(*args)


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
            got = len(partitions(k, max_len))
            assert got == _count_partitions(k, max_len, k if k else 1)


def test_enumeration_with_max_part():
    parts = partitions(6, max_len=3, max_part=3)
    for kappa in parts:
        assert all(x <= 3 for x in kappa)
    assert len(parts) == _count_partitions(6, 3, 3)


def test_enumeration_is_deduplicated_and_sorted():
    seen = partitions(5, 5)
    assert len(set(seen)) == len(seen) and seen == sorted(seen, reverse=True)
    weights = [sum(p) for p in seen]
    assert all(w == 5 for w in weights)


def test_pochhammer():
    assert pochhammer(3, 4) == 3 * 4 * 5 * 6
    assert pochhammer(-2, 3) == 0
    assert pochhammer(Fraction(1, 2), 2) == Fraction(3, 4)
    assert pochhammer(Fraction(77, 10), 0) == 1


def test_gen_factorial_single_row_is_pochhammer():
    for a in (Fraction(5, 2), -3, 6):
        for k in range(5):
            assert gen_factorial(a, (k,) if k else (), Fraction(17, 10)) == pochhammer(a, k)


def test_gen_factorial_two_rows():
    # [a]_(2,1) at step 1/nu: (a)_2 * (a - 1/nu)_1
    a, nu = 5, 2
    want = (a * (a + 1)) * (a - Fraction(1, 2))
    assert gen_factorial(a, (2, 1), nu) == want


# Frozen Jack values at the all-ones point, worked out by hand from the
# arm/leg cell product: at nu=1 (the Schur case) with m=2 variables,
# C_(2) = 3 and C_(1,1) = 1 (they sum to m^k = 4).
def test_jack_values_schur_case():
    assert jack_c_one((2,), 1, 2) == 3
    assert jack_c_one((1, 1), 1, 2) == 1
    assert jack_c_one((1,), 1, 5) == 5


def test_jack_value_quaternion_case():
    # nu=2, one variable: C_(2)(1^1) = 1 (the only length-1 partition of 2)
    assert jack_c_one((2,), 2, 1) == 1


def test_jack_too_long_vanishes():
    assert jack_c_one((1, 1, 1), 1, 2) == 0
    assert jack_c_one((2, 1, 1), Fraction(1, 2), 2) == 0


@pytest.mark.parametrize("nu", [0.5, 1.0, 2.0])
@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_normalization_sum(nu, m):
    # sum over |kappa|=k of C_kappa(1^m) telescopes to m^k, exactly
    nu = Fraction(nu)
    for k in range(9):
        assert sum(jack_c_one(kappa, nu, m) for kappa in partitions(k, m)) == m**k


def test_jack_positive():
    for kappa in partitions(6, 3):
        assert jack_c_one(kappa, Fraction(1, 2), 3) > 0


def test_hyper_0f1_is_bessel():
    # one variable: c_k = 1 / (k! (b)_k) at both b = 2/beta and 2/beta + 2,
    # and 0F1(; b; u) = Gamma(b) u^((1-b)/2) I_(b-1)(2 sqrt(u))
    for beta in (0.5, 0.7, 1.0, 2.0, 4.0):
        for shift in (0, 2):
            b = 2.0 / beta + shift
            got = np.exp(limit._f01_coeffs(beta, 1, shift, 1)[:21])  # rung 1 reaches k = 32
            want = [1.0 / (math.factorial(k) * scipy.special.poch(b, k)) for k in range(21)]
            assert got == pytest.approx(want, rel=1e-13, abs=0.0)
        lp = limit.LimitParams(beta, 1)
        for y in (0.5, 4.0, 30.0):
            u = y / 4.0
            f01 = (math.gamma(2.0 / beta) * u ** (0.5 - 1.0 / beta)
                   * scipy.special.iv(2.0 / beta - 1.0, 2.0 * math.sqrt(u)))
            assert limit.q_limit(lp, y) == pytest.approx(math.exp(-beta * y / 8.0) * f01, rel=1e-13, abs=0.0)
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
