"""Per-partition references for the partition-series builders.

Partition enumeration, rising and generalized factorials, and the Jack
polynomial at the all-ones point, C_kappa^(nu)(1^m), from its cell
product over arm lengths a(s) and leg lengths l(s):

    C_kappa^(nu)(1^m) = nu^k * k!
        * prod_s (m + nu*(j-1) - (i-1))          [numerator, cell (i,j)]
        / prod_s (nu*a(s) + l(s) + 1)            [lower hook lengths]
        / prod_s (nu*(a(s)+1) + l(s))            [upper hook lengths]

Each value is computed partition by partition, in plain Python, with no
code shared with lagmin's vectorised builders (jack.py), which the tests
check against these; check_partition_stream checks lagmin's partition
streamer against enumerate_partitions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from lagmin import jack
from lagmin.errors import DomainError


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


def check_partition_stream(monkeypatch, m: int, lo: int, hi: int, cap, chunk_rows: int):
    """Assert that lagmin's streamer, at chunk_rows rows per chunk, yields
    exactly the partitions with at most m parts, weight in [lo, hi] and
    first part at most cap, each once and padded with
    zero parts to m columns, in chunks of at most max(chunk_rows, top + 1)
    rows, top = min(cap, hi); returns the number of partitions."""
    monkeypatch.setattr(jack, "CHUNK_ROWS", chunk_rows)
    chunks = list(jack._partition_chunks(m, lo, hi, cap))
    rows = np.concatenate(chunks) if chunks else np.zeros((0, m), dtype=np.int32)
    want = {
        kappa.parts + (0,) * (m - kappa.length)
        for k in range(lo, hi + 1)
        for kappa in enumerate_partitions(k, m, cap)
    }
    assert rows.shape == (len(want), m)
    assert {tuple(r) for r in rows.tolist()} == want
    top = min(cap, hi)
    assert all(len(c) <= max(chunk_rows, top + 1) for c in chunks)
    return len(want)
