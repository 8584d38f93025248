"""Partition combinatorics, Jack polynomials at the all-ones point, and
the row-pair tables shared by the two partition-series builders.

Both series of the package (the finite-N coefficients A_k in exact.py
and the hard-edge 0F1 coefficients c_k in limit.py) are sums over
integer partitions kappa of terms built from generalized factorials
and Jack values at x*(1,...,1),

    sum_{|kappa|=k, len(kappa)<=m} (ratio of [a]_kappa factors)
        * C_kappa^(nu)(1^m) / k!,

where [a]_kappa is the generalized factorial built from rising
factorials row by row with step 1/nu,

    [a]_kappa^(nu) = prod_{j=1..len(kappa)} (a - (j-1)/nu)_{kappa_j},

and C_kappa^(nu) is the Jack symmetric polynomial in the normalization
fixed by  sum_{|kappa|=k} C_kappa^(nu)(x) = (x_1 + ... + x_m)^k.
Only the all-ones specialization C_kappa^(nu)(1^m) is ever needed; it has
a closed product over the cells of the Young diagram of kappa in terms of
arm lengths a(s) and leg lengths l(s):

    C_kappa^(nu)(1^m) = nu^k * k!
        * prod_s (m + nu*(j-1) - (i-1))          [numerator, cell (i,j)]
        / prod_s (nu*a(s) + l(s) + 1)            [lower hook lengths]
        / prod_s (nu*(a(s)+1) + l(s))            [upper hook lengths]

with k = |kappa|.  The identification of nu with the internal Jack
parameter (rather than its reciprocal) is pinned empirically by the
validation suite: the normalization identity above, the N=2 closed-form
oracle cross-checks at nu != 1, and the Bessel-function reduction at
nu = 1 all hold for this mapping and all fail for the reciprocal one.

The per-partition helpers here (enumerate_partitions, gen_factorial,
jack_c_one) are the references the tests check the builders against.
The builders never call them.  They use the row/pair factorisation of
the hook product (Koev & Edelman, Math. Comp. 75 (2006) 833-846): with
0-based rows, kappa_m = 0 and the cells of each row grouped by the row
whose end bounds their leg,

    log W_kappa = sum_{r<m} R_r[kappa_r]
                + sum_{0<=i<j<m} T_{j-i}[kappa_i - kappa_j],

where R_r is a per-route row table (the cells of row r, with their hooks
against the empty row m) and T_l[p] sums log((nu*d + l + 1)
(nu*d + nu + l) / ((nu*d + l)(nu*d + nu + l - 1))) over d < p, the
hook-length ratio of a row pair.  _pair_tables builds the T_l for both
routes, and _weight_sums reduces a stream of partition chunks to
sum_{|kappa|=k} W_kappa, k by k.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DomainError


@dataclass(frozen=True)
class Partition:
    """Weakly decreasing sequence of positive integers (possibly empty)."""

    parts: tuple

    def __post_init__(self):
        object.__setattr__(self, "parts", tuple(int(p) for p in self.parts))
        prev = None
        for p in self.parts:
            if p < 1:
                raise DomainError(f"partition parts must be >= 1, got {self.parts}")
            if prev is not None and p > prev:
                raise DomainError(
                    f"partition parts must be weakly decreasing, got {self.parts}"
                )
            prev = p

    @property
    def weight(self) -> int:
        return sum(self.parts)

    @property
    def length(self) -> int:
        return len(self.parts)

    def conjugate(self) -> "Partition":
        parts = self.parts
        if not parts:
            return Partition(())
        return Partition(
            tuple(sum(1 for p in parts if p > j) for j in range(parts[0]))
        )

    def __iter__(self):
        return iter(self.parts)


def _parts_of(kappa) -> tuple:
    """Accept a Partition or a bare iterable of parts."""
    if isinstance(kappa, Partition):
        return kappa.parts
    return Partition(tuple(kappa)).parts


@lru_cache(maxsize=4096)  # one entry per (weight, length, part) subproblem
def _enum_raw(k: int, max_len: int, max_part) -> tuple:
    """All partitions of k (length <= max_len, parts <= max_part) as bare
    tuples, largest-first reverse-lexicographic."""
    if k == 0:
        return ((),)
    if max_len == 0:
        return ()
    out = []
    top = k if max_part is None else min(k, max_part)
    for first in range(top, 0, -1):
        for rest in _enum_raw(k - first, max_len - 1, first):
            out.append((first,) + rest)
    return tuple(out)


def enumerate_partitions(k: int, max_len: int, max_part: int | None = None):
    """Partitions of weight k with length <= max_len and largest part
    <= max_part (None = unbounded), in reverse-lexicographic order."""
    if k < 0:
        raise DomainError(f"k must be >= 0, got {k}")
    if max_len < 0:
        raise DomainError(f"max_len must be >= 0, got {max_len}")
    if max_part is not None and max_part < 1:
        raise DomainError(f"max_part must be >= 1 or None, got {max_part}")
    return [Partition(p) for p in _enum_raw(k, max_len, max_part)]


def pochhammer(a: float, k: int) -> float:
    """Rising factorial (a)_k = a(a+1)...(a+k-1); (a)_0 = 1."""
    if k < 0:
        raise DomainError(f"k must be >= 0, got {k}")
    out = 1.0
    for i in range(k):
        out *= a + i
    return out


def gen_factorial(a: float, kappa, nu: float) -> float:
    """Generalized factorial [a]_kappa^(nu) = prod_j (a - (j-1)/nu)_{kappa_j}."""
    if not (nu > 0):
        raise DomainError(f"nu must be positive, got {nu}")
    out = 1.0
    for j, kj in enumerate(_parts_of(kappa)):
        out *= pochhammer(a - j / nu, kj)
    return out


def jack_c_one_log(kappa, nu: float, m_vars: int) -> float:
    """log C_kappa^(nu)(1^m), or -inf when the value is exactly 0
    (more parts than variables)."""
    if not (nu > 0):
        raise DomainError(f"nu must be positive, got {nu}")
    if m_vars < 0:
        raise DomainError(f"m_vars must be >= 0, got {m_vars}")
    parts = _parts_of(kappa)
    if len(parts) > m_vars:
        return float("-inf")
    k = sum(parts)
    if k == 0:
        return 0.0
    # conjugate partition for leg lengths
    conj = [0] * parts[0]
    for p in parts:
        for j in range(p):
            conj[j] += 1
    log_val = k * math.log(nu) + math.lgamma(k + 1)
    for i, p in enumerate(parts):  # i, j are 0-based cell coordinates
        for j in range(p):
            arm = p - 1 - j
            leg = conj[j] - 1 - i
            log_val += math.log(m_vars + nu * j - i)
            log_val -= math.log(nu * arm + leg + 1.0)
            log_val -= math.log(nu * (arm + 1) + leg)
    return log_val


def jack_c_one(kappa, nu: float, m_vars: int) -> float:
    """C_kappa^(nu)(1^m): the Jack polynomial at the all-ones point, in the
    normalization with sum_{|kappa|=k} C_kappa = m^k.  Exactly 0 when
    kappa has more parts than there are variables."""
    lv = jack_c_one_log(kappa, nu, m_vars)
    return 0.0 if lv == float("-inf") else math.exp(lv)


def _prefix_sums(terms: np.ndarray) -> np.ndarray:
    """Correctly rounded prefix sums along each row, with a leading 0."""
    out = np.zeros((terms.shape[0], terms.shape[1] + 1))
    for row, t in zip(out, terms.tolist()):
        row[1:] = [math.fsum(t[:p]) for p in range(1, len(t) + 1)]
    return out


def _pair_tables(nu: float, m: int, length: int) -> np.ndarray:
    """Row-pair hook tables T_l[p], l = 1..m-1 (row l-1 of the result),
    p = 0..length: the log hook-length ratio of the cells of row i
    against row i + l when kappa_i - kappa_(i+l) = p."""
    t = nu * np.arange(length, dtype=float)
    l_ = np.arange(1, m, dtype=float)[:, None]
    return _prefix_sums(
        np.log(t + l_ + 1) + np.log(t + nu + l_) - np.log(t + l_) - np.log(t + nu + l_ - 1)
    )


def _weight_sums(chunks, row_tab: np.ndarray, pair_tab: np.ndarray, k_lo: int, k_hi: int):
    """sum_{|kappa|=k} W_kappa for k = k_lo..k_hi, as a pair of arrays
    (peak, total) with the sum equal to total * exp(peak).

    ``chunks`` yields int32 arrays of partitions, one per row with m
    columns (trailing zero parts included), every weight in
    [k_lo, k_hi]; log W_kappa is gathered from the row tables R_r
    (row r of ``row_tab``) and the pair tables T_l.  Each chunk is
    reduced by weight with a per-k max shift and merged into running
    (peak, sum) pairs, so memory stays at one chunk; a weight that no
    partition has keeps peak -inf and total 0.
    """
    m = row_tab.shape[0]
    peak = np.full(k_hi - k_lo + 1, -np.inf)
    total = np.zeros(k_hi - k_lo + 1)
    for box in chunks:
        lw = np.zeros(len(box))
        for i in range(m):
            col = box[:, i]
            lw += row_tab[i][col]
            for j in range(i + 1, m):
                lw += pair_tab[j - i - 1][col - box[:, j]]
        k = box.sum(axis=1, dtype=np.intp)
        lo, hi = int(k.min()), int(k.max()) + 1
        k -= lo
        chunk_peak = np.full(hi - lo, -np.inf)
        np.maximum.at(chunk_peak, k, lw)
        chunk_sum = np.bincount(k, weights=np.exp(lw - chunk_peak[k]), minlength=hi - lo)
        s = slice(lo - k_lo, hi - k_lo)
        new_peak = np.maximum(peak[s], chunk_peak)
        ref = np.where(new_peak > -np.inf, new_peak, 0.0)  # both -inf: weight absent so far
        total[s] = total[s] * np.exp(peak[s] - ref) + chunk_sum * np.exp(chunk_peak - ref)
        peak[s] = new_peak
    return peak, total
