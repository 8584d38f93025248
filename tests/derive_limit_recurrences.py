"""Derive the recurrences in k of the hard-edge 0F1 coefficients, or check
the tables that lagmin.limit stores.

For Jack index m and shift 0 (Q) or 2 (P) the coefficients
c_k = sum_{|kappa|=k, len<=m} C_kappa(1^m) / ([b]_kappa k!), b = m/nu + shift,
of tests/oracle.py satisfy a recurrence

    sum_{i=0..d} p_i(k, nu) c_(k+i) = 0,      d = ceil(m/2),

with p_i integer polynomials of degree m + 1 in k and m in nu.  The
script finds them as the one-dimensional nullspace of a joint linear
fit: one equation per (nu, k) over the unknown coefficients of every
p_i, with c_k at FIT_NUS from the oracle's partitions and cell factors,
taken modulo several primes.  The nullspace vector of each prime is
scaled to 1 at one entry, joined by the Chinese remainder theorem,
read back as rationals (rational reconstruction), cleared of
denominators and made primitive with a positive leading coefficient.
A last prime that took no part in the fit must vanish on the result.

The leading polynomial p_d is then factored into polynomials of degree
at most 1 in k and 1 in nu (trial roots in k at sample nu), and every
factor is checked to be positive for integer k >= the recurrence's
start and every nu > 0: at shift 0 the head c_k = nu^k/k!, k <= m, is
closed and the recurrence starts at k = m - d + 1; at shift 2 it starts
at k = 0 from c'_0, ..., c'_(d-1).

    python tests/derive_limit_recurrences.py           # print the tables
    python tests/derive_limit_recurrences.py --check   # derive, compare with lagmin.limit

A table is printed as lagmin.limit stores it: the integers
T[i][b][a], the coefficient of k^a nu^b in p_i, with a running fastest,
then b, then i, separated by single spaces.  The script uses the
standard library and tests/oracle.py; --check also reads lagmin.limit
from src/.
"""

import argparse
import math
import sys
from fractions import Fraction
from functools import reduce
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))
sys.path.insert(0, str(Path(__file__).parents[1] / "src"))
import oracle  # noqa: E402

#: The Jack indices with a stored recurrence.  m = 6 derives in the same
#: way (order 3, about 20 s), but lagmin.limit does not store it.
JACK_INDICES = range(1, 6)
SHIFTS = (0, 2)
#: Primes of the fit; the last one checks the result and takes no part.
PRIMES = (2**61 - 1, 2**62 - 57, 2**63 - 25, 2**64 - 59)
#: The nu of the fit.  The tests check the tables at other nu.
FIT_NUS = tuple(Fraction(x) for x in ("1", "2", "3", "4", "5", "6", "7", "1/2", "1/3", "3/2", "2/5", "7/3"))
#: Equations beyond the number of unknowns.
SPARE_ROWS = 24


def order(m):
    return -(-m // 2)


def start(m, shift):
    """The first k at which the recurrence is run: past the closed head."""
    return m - order(m) + 1 if shift == 0 else 0


# ---------- c_k modulo a prime, from the oracle's definitions ----------

def _cells(kappa):
    """(i, j, a, l) of each cell of kappa: row, column, arm and leg."""
    legs = oracle.conjugate(kappa)
    return [(i, j, row - 1 - j, legs[j] - 1 - i) for i, row in enumerate(kappa) for j in range(row)]


def coeffs_mod(nu, m, shift, k_max, prime):
    """c_0..c_k_max modulo prime at the rational nu = p/q.

    The oracle's term of kappa, jack_c_one / (gen_factorial(b) k!) at
    b = m/nu + shift, is per cell (i, j) of arm a and leg l

        nu^2 (m + nu j - i) / ((nu a + l + 1)(nu (a+1) + l)(nu j + m + nu shift - i)),

    which is p^2 (q(m - i) + p j) / ((p a + q(l+1))(p(a+1) + q l)(q(m - i) + p(j + shift)))
    in the integers p and q."""
    p, q = nu.numerator, nu.denominator
    out = []
    for k in range(k_max + 1):
        total = 0
        for kappa in oracle.partitions(k, m):
            num = den = 1
            for i, j, a, l in _cells(kappa):
                num = num * p * p * (q * (m - i) + p * j) % prime
                den = den * (p * a + q * (l + 1)) * (p * (a + 1) + q * l) * (q * (m - i) + p * (j + shift)) % prime
            total += num * pow(den, -1, prime)
        out.append(total % prime)
    return out


# ---------- the fit ----------

def _unknowns(m):
    return [(i, b, a) for i in range(order(m) + 1) for b in range(m + 1) for a in range(m + 2)]


def _system(m, shift, prime):
    """One row per (nu, k) of FIT_NUS x 0..n_k-1, each scaled by q^m."""
    cols = _unknowns(m)
    n_k = max(-(-(len(cols) + SPARE_ROWS) // len(FIT_NUS)), 2 * m + 6)  # past the degree in k
    rows = []
    for nu in FIT_NUS:
        c = coeffs_mod(nu, m, shift, n_k - 1 + order(m), prime)
        p, q = nu.numerator, nu.denominator
        nu_pow = [pow(p, b, prime) * pow(q, m - b, prime) % prime for b in range(m + 1)]
        for k in range(n_k):
            rows.append([pow(k, a, prime) * nu_pow[b] * c[k + i] % prime for i, b, a in cols])
    return rows


def _nullspace_mod(rows, prime):
    """The nullspace of rows modulo prime, which must be one-dimensional,
    as a vector scaled to 1 at its free column."""
    rows = [r[:] for r in rows]
    n = len(rows[0])
    pivots, r = [], 0
    for col in range(n):
        hit = next((i for i in range(r, len(rows)) if rows[i][col]), None)
        if hit is None:
            continue
        rows[r], rows[hit] = rows[hit], rows[r]
        inv = pow(rows[r][col], -1, prime)
        piv = rows[r] = [x * inv % prime for x in rows[r]]
        for i in range(len(rows)):
            f = rows[i][col]
            if i != r and f:
                rows[i] = [(x - f * y) % prime for x, y in zip(rows[i], piv)]
        pivots.append(col)
        r += 1
    free = [c for c in range(n) if c not in pivots]
    if len(free) != 1:
        raise SystemExit(f"nullspace of dimension {len(free)}, not 1")
    vec = [0] * n
    vec[free[0]] = 1
    for i, col in enumerate(pivots):
        vec[col] = -rows[i][free[0]] % prime
    return vec, free[0]


def _rational(x, modulus):
    """The fraction n/d with |n|, d <= sqrt(modulus/2) congruent to x
    (Wang's rational reconstruction)."""
    bound = math.isqrt(modulus // 2)
    r0, r1, s0, s1 = modulus, x % modulus, 0, 1
    while r1 > bound:
        quo = r0 // r1
        r0, r1, s0, s1 = r1, r0 - quo * r1, s1, s0 - quo * s1
    if s1 == 0 or abs(s1) > bound:
        raise SystemExit("rational reconstruction failed: use more primes")
    return Fraction(r1, s1)


def derive(m, shift):
    """The integer table T[i][b][a] of (m, shift), checked modulo the
    last prime."""
    cols = _unknowns(m)
    modulus, joined, anchor = 1, None, None
    for prime in PRIMES[:-1]:
        vec, free = _nullspace_mod(_system(m, shift, prime), prime)
        if anchor is None:
            anchor = free
        vec = [x * pow(vec[anchor], -1, prime) % prime for x in vec]
        if joined is None:
            joined = vec
        else:  # x = joined (mod modulus), x = v (mod prime)
            inv = pow(modulus, -1, prime)
            joined = [j + modulus * ((v - j) * inv % prime) for j, v in zip(joined, vec)]
        modulus *= prime
    fracs = [_rational(x, modulus) for x in joined]
    scale = reduce(math.lcm, (f.denominator for f in fracs), 1)
    ints = [int(f * scale) for f in fracs]
    g = reduce(math.gcd, ints)
    ints = [x // g for x in ints]
    table = [[[0] * (m + 2) for _ in range(m + 1)] for _ in range(order(m) + 1)]
    for (i, b, a), x in zip(cols, ints):
        table[i][b][a] = x
    lead = max((a, b) for b in range(m + 1) for a in range(m + 2) if table[-1][b][a])
    if table[-1][lead[1]][lead[0]] < 0:
        table = [[[-x for x in row] for row in poly] for poly in table]
    check = PRIMES[-1]
    flat = [table[i][b][a] for i, b, a in cols]
    for row in _system(m, shift, check):
        if sum(x * y for x, y in zip(row, flat)) % check:
            raise SystemExit(f"(m, shift) = ({m}, {shift}): the table fails modulo {check}")
    return table


# ---------- the leading polynomial ----------

def polynomial(table_i):
    """p_i as {(a, b): coefficient of k^a nu^b}."""
    return {(a, b): x for b, row in enumerate(table_i) for a, x in enumerate(row) if x}


def _divide(f, g):
    """f / g in Z[k, nu] for g with leading coefficient 1 (lexicographic
    in (a, b)), or None if g does not divide f."""
    f, out = dict(f), {}
    lead = max(g)
    while f:
        top = max(f)
        da, db = top[0] - lead[0], top[1] - lead[1]
        if da < 0 or db < 0:
            return None
        x = out[da, db] = f[top]
        for (a, b), y in g.items():
            key = (a + da, b + db)
            f[key] = f.get(key, 0) - x * y
            if not f[key]:
                del f[key]
    return out


def factor(f, box):
    """f as (content, factors), each factor k + c or k nu + a nu + g with
    |a|, |c|, |g| <= box, found by trial division; None if f does not
    split so."""
    trials = [{(1, 0): 1, (0, 0): c} for c in range(-box, box + 1)]
    trials += [{(1, 1): 1, (0, 1): a, (0, 0): g} for a in range(-box, box + 1) for g in range(-box, box + 1)]
    trials = [{key: x for key, x in t.items() if x} for t in trials]
    factors = []
    while set(f) != {(0, 0)}:
        for t in trials:
            quotient = _divide(f, t)
            if quotient is not None:
                factors.append(t)
                f = quotient
                break
        else:
            return None
    return f[0, 0], factors


def positive_from(g, first):
    """Whether the factor g is positive at every integer k >= first and
    every nu > 0: k + c needs first + c > 0, and nu (k + a) + g needs
    first + a >= 0 and g > 0."""
    if (1, 1) in g:
        return first + g.get((0, 1), 0) >= 0 and g.get((0, 0), 0) > 0
    return first + g.get((0, 0), 0) > 0


def show(g):
    """g as text, e.g. (k nu - 2 nu + 5)."""
    text = ""
    for key, name in (((1, 1), "k nu"), ((1, 0), "k"), ((0, 1), "nu"), ((0, 0), "")):
        x = g.get(key, 0)
        if x:
            word = name if abs(x) == 1 and name else f"{abs(x)} {name}".strip()
            text += (" - " if x < 0 else " + ") + word if text else ("-" if x < 0 else "") + word
    return f"({text})"


def check_leading(m, shift, table):
    """The factors of p_d, after checking that each is positive from the
    recurrence's start on."""
    split = factor(polynomial(table[-1]), 3 * m + 6)
    if split is None:
        raise SystemExit(f"(m, shift) = ({m}, {shift}): p_d does not split into k + c and k nu + a nu + g")
    content, factors = split
    bad = [show(g) for g in factors if not positive_from(g, start(m, shift))]
    if bad:
        raise SystemExit(f"(m, shift) = ({m}, {shift}): p_d vanishes from k = {start(m, shift)} on: {bad}")
    return f"{content} " + " ".join(show(g) for g in factors)


# ---------- the package's format ----------

def flatten(table):
    return [x for poly in table for row in poly for x in row]


def stored():
    """lagmin.limit's tables as {(m, shift): T[i][b][a]}."""
    from lagmin import limit

    out = {}
    for (m, shift), text in limit._RECURRENCES.items():
        flat, width = [int(x) for x in text.split()], m + 2
        rows = [flat[j:j + width] for j in range(0, len(flat), width)]
        out[m, shift] = [rows[j:j + m + 1] for j in range(0, len(rows), m + 1)]
    return out


def source(tables, width=100):
    """The _RECURRENCES literal of lagmin.limit."""
    lines = ["_RECURRENCES = {"]
    for (m, shift), table in sorted(tables.items()):
        words, chunks, line = [str(x) for x in flatten(table)], [], ""
        for word in words:
            if line and len(line) + len(word) + 1 > width - 20:
                chunks.append(line + " ")
                line = ""
            line += (" " if line else "") + word
        chunks.append(line)
        if len(chunks) == 1:
            lines.append(f'    ({m}, {shift}): "{chunks[0]}",')
        else:
            lines.append(f'    ({m}, {shift}): ("{chunks[0]}"')
            lines += [f'             "{c}"' for c in chunks[1:-1]]
            lines.append(f'             "{chunks[-1]}"),')
    lines.append("}")
    return "\n".join(lines)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--check", action="store_true",
                        help="compare the derived tables with lagmin.limit's and exit 1 on a difference")
    args = parser.parse_args(argv)
    tables = {}
    for m in JACK_INDICES:
        for shift in SHIFTS:
            tables[m, shift] = table = derive(m, shift)
            print(f"m = {m}, shift = {shift}: order {order(m)} from k = {start(m, shift)}, "
                  f"p_d = {check_leading(m, shift, table)}", file=sys.stderr)
    if not args.check:
        print(source(tables))
        return 0
    package = stored()
    if package != tables:
        differ = sorted(key for key in package.keys() | tables.keys() if package.get(key) != tables.get(key))
        print(f"lagmin.limit's tables differ from the derived ones at (m, shift) = {differ}", file=sys.stderr)
        return 1
    print(f"lagmin.limit's {len(package)} tables equal the derived ones", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
