"""Partition combinatorics and Jack-polynomial series machinery.

Everything here serves one purpose: evaluating generalized hypergeometric
functions of matrix argument at the equal-argument point x*(1,...,1),

    pFq^(nu)(a_1..a_p; b_1..b_q; x*1^m)
        = sum_k (x^k / k!) sum_{|kappa|=k, len(kappa)<=m}
              ([a_1]_kappa ... [a_p]_kappa / [b_1]_kappa ... [b_q]_kappa)
              * C_kappa^(nu)(1^m),

where kappa runs over integer partitions, [a]_kappa is the generalized
factorial built from rising factorials row by row with step 1/nu,

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
validation suite: the normalization identity above, the N=2 quadrature
cross-checks at nu != 1, and the Bessel-function reduction at nu = 1 all
hold for this mapping and all fail for the reciprocal one.

The 1/k! in the series is part of the definition used throughout this
package; with it, 0F1(; b; x*1^1) reduces to the classical one-variable
hypergeometric series.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

from .core import DEFAULT_ACCURACY, SeriesAccuracy
from .errors import DivergenceError, DomainError

_INT_TOL = 1e-12


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


@lru_cache(maxsize=None)
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


class JackTable:
    """Memo of C_kappa^(nu)(1^m) values for one (nu, m_vars) pair.

    Values are cached in log form as they are requested.  Fill is not
    thread-safe; share a table across threads only after it is fully
    populated (or give each thread its own — construction is cheap).
    """

    def __init__(self, nu: float, m_vars: int):
        if not (nu > 0):
            raise DomainError(f"nu must be positive, got {nu}")
        if m_vars < 0:
            raise DomainError(f"m_vars must be >= 0, got {m_vars}")
        self.nu = nu
        self.m_vars = m_vars
        self._logs = {}

    def log_value(self, kappa) -> float:
        parts = _parts_of(kappa)
        try:
            return self._logs[parts]
        except KeyError:
            lv = jack_c_one_log(parts, self.nu, self.m_vars)
            self._logs[parts] = lv
            return lv

    def value(self, kappa) -> float:
        lv = self.log_value(kappa)
        return 0.0 if lv == float("-inf") else math.exp(lv)

    @property
    def values(self) -> dict:
        """Everything cached so far, as {Partition: value}."""
        return {
            Partition(p): (0.0 if lv == float("-inf") else math.exp(lv))
            for p, lv in self._logs.items()
        }


def _terminating_bound(a_params, m_vars: int) -> int | None:
    """Weight beyond which every term vanishes, when some a-parameter is a
    nonpositive integer -L: parts are then capped at L, so k <= L*m_vars."""
    bound = None
    for a in a_params:
        if a <= _INT_TOL and abs(a - round(a)) <= _INT_TOL:
            cap = int(round(-a)) * m_vars
            bound = cap if bound is None else min(bound, cap)
    return bound


def hyper_pfq_equal(
    a_params,
    b_params,
    nu: float,
    m_vars: int,
    x: float,
    acc: SeriesAccuracy = DEFAULT_ACCURACY,
) -> float:
    """pFq^(nu)(a; b; x*1^m) with all m arguments equal to x.

    Terminates exactly when some a-parameter is a nonpositive integer
    (e.g. a = -N kills every partition with a part exceeding N); otherwise
    stops when two consecutive terms fall below acc.tail_tol relative to
    the running sum.  A vanishing denominator [b]_kappa on a partition
    whose numerator has not already vanished is a DomainError (pole).
    """
    if not (nu > 0):
        raise DomainError(f"nu must be positive, got {nu}")
    if m_vars < 0:
        raise DomainError(f"m_vars must be >= 0, got {m_vars}")
    a_params = tuple(float(a) for a in a_params)
    b_params = tuple(float(b) for b in b_params)
    if m_vars == 0 or x == 0.0:
        return 1.0

    bound = _terminating_bound(a_params, m_vars)
    if bound is not None and bound > acc.k_max:
        raise DivergenceError(
            f"terminating series needs weight {bound} > k_max={acc.k_max}"
        )
    last_k = acc.k_max if bound is None else bound

    table = JackTable(nu, m_vars)
    total = 0.0
    comp = 0.0
    x_pow = 1.0  # running x^k / k!
    small_streak = 0
    for k in range(last_k + 1):
        if k > 0:
            x_pow *= x / k
        coeff_terms = []
        for parts in _enum_raw(k, m_vars, None):
            num = 1.0
            for a in a_params:
                num *= gen_factorial(a, parts, nu)
                if num == 0.0:
                    break
            if num == 0.0:
                continue
            den = 1.0
            for b in b_params:
                den *= gen_factorial(b, parts, nu)
            if den == 0.0:
                raise DomainError(
                    f"denominator parameter hit a pole on partition {parts} "
                    f"(b_params={b_params}, nu={nu})"
                )
            c = table.value(parts)
            if c != 0.0:
                coeff_terms.append(num / den * c)
        term = math.fsum(coeff_terms) * x_pow
        t = total + term
        if abs(total) >= abs(term):
            comp += (total - t) + term
        else:
            comp += (term - t) + total
        total = t
        if bound is None:
            if abs(term) <= acc.tail_tol * max(abs(total), 1e-300):
                small_streak += 1
                if small_streak >= 2:
                    return total + comp
            else:
                small_streak = 0
    if bound is None:
        raise DivergenceError(
            f"hypergeometric series did not meet tail_tol={acc.tail_tol:g} "
            f"within k_max={acc.k_max} (x={x}, m_vars={m_vars})"
        )
    return total + comp
