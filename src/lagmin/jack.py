"""The one builder of partition weights, shared by both series of the
package: the finite-N coefficients A_k (exact.py) and the hard-edge 0F1
coefficients c_k (limit.py).

Both are sums over integer partitions kappa with at most m parts of
terms built from generalized factorials and Jack values at x*(1,...,1),

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

The hook product factorises by rows (Koev & Edelman, Math. Comp. 75
(2006) 833-846): with 0-based rows, L rows with kappa_L = 0 and the
cells of each row grouped by the row whose end bounds their leg,

    log W_kappa = sum_{r<L} R_r[kappa_r]
                + sum_{0<=i<j<L} T_{j-i}[kappa_i - kappa_j],

where R_r[p] sums the row term of cell t over t < p (with its hooks
against the empty row L) and T_l[p] sums the hook-length ratio of a row
pair over d < p; any L >= len(kappa) will do.  Both read the hook pair
of a cell of arm a and integer leg l,

    lower(a, l) = nu*a + (l + 1),    upper(a, l) = nu*a + nu + l:

T_l[p] sums log lower(d, l) + log upper(d, l) - log lower(d, l-1)
- log upper(d, l-1), and the row term of row r holds the upper hook
against the empty row, at leg L - 1 - r.  So one table of each hook
log, over the legs 0..L-1, serves every R_r and T_l.  Each hook is
formed from its integer leg before the leg meets nu*a.  Spelled
nu*(a+1) + (l+1) - 1, it would be off by up to 2^-53 (l+1)/nu relative
where nu is far below l+1 (2e-7 at beta = 1e-9), and the hook at
a = l = 0 would round to 0 once nu is below 2^-53.  The other sums of
the row term below add their integer parts first for the same reason.

Both series sum C_kappa(1^m)/[b]_kappa at b = m/nu + shift (shift 0 for
Q, 2 for P); the finite-N law has the extra (-1/nu)^k [-N]_kappa, N the
box width.  Per cell, C_kappa(1^m)/k! gives nu*(m + nu*t - r) over its
hooks, 1/[b]_kappa gives nu/(nu*t + m + nu*shift - r), the extra factor
(nu*N + r - nu*t)/nu^2, and m + nu*t - r over the lower hook
nu*t + L - r against the empty row is 1 + (m - L)/(nu*t + L - r), so
the row term is

    log(nu*N + r - nu*t) [finite N]  or  2 log nu [0F1]
      - log(nu*t + nu*shift + (m - r)) - log upper(t, L - 1 - r)
      + log1p((m - L)/(nu*t + (L - r))),

whose last term is exactly 0 at L = m.  (t is the cell's arm in the
hooks and its column elsewhere; both run over t < p.)

_log_weight_sums is the one builder: from the series parameters it
writes the two hook-log tables and from them that row term, builds
the prefix tables R_r and T_l (numerics._prefix_sums, the one rule of
every correctly rounded log table), streams the partitions with
_partition_chunks (weight in a band [lo, hi], L = min(m, hi) rows, as
no partition of weight <= hi has more parts, and parts at most N, or hi
for the 0F1), and reduces them to sum_{|kappa|=k} W_kappa, k by k.
Memory stays at one bounded chunk.
"""

from __future__ import annotations

import math

import numpy as np

from .numerics import _prefix_sums

#: Row bound of the streamed partition chunks; a chunk of more than
#: CHUNK_WIDTH columns is bounded by CHUNK_ROWS * CHUNK_WIDTH parts instead.
CHUNK_ROWS = 1 << 17
CHUNK_WIDTH = 8


def _partition_chunks(m: int, lo: int, hi: int, cap: int):
    """Stream the partitions with at most m parts, weight in [lo, hi]
    and first part at most cap as pairs (box, weights): box an int32
    array of shape (rows, m), trailing zero parts included, and weights
    the int64 weight of each row.

    Columns are built left to right.  The first part runs over
    [ceil(lo/m), min(cap, hi)]; a prefix of weight w whose last part is
    f, with r columns still to fill, gains every next part u in
    [ceil((lo - w)/r), min(f, hi - w)], so every prefix completes to at
    least one partition in the band.  A prefix array whose next column
    would exceed CHUNK_ROWS rows, or CHUNK_ROWS * CHUNK_WIDTH parts once
    it is wider than CHUNK_WIDTH columns, is split in halves first, so a
    chunk has at most max(CHUNK_ROWS, top + 1) rows and
    max(CHUNK_ROWS * CHUNK_WIDTH, (top + 1) * m) parts, top = min(cap, hi);
    the chunks come out in a fixed order.  Each prefix carries its weight
    down the stack, so no row is summed twice.

    Columns are gathered with take(..., out=..., mode="clip"): under the
    default mode="raise" numpy gathers into a buffer and copies it to out,
    and these indices are all in range, so clipping changes nothing.
    """
    if m == 0:
        if lo == 0:
            yield np.zeros((1, 0), dtype=np.int32), np.zeros(1, dtype=np.int64)
        return
    top = min(cap, hi)
    first = np.arange(-(-lo // m), top + 1, dtype=np.int32)[:, None]
    stack = [(first, first[:, 0].astype(np.int64))]
    while stack:
        box, w = stack.pop()
        j = box.shape[1]
        if j == m:
            yield box, w
            continue
        low = np.maximum(-((w - lo) // (m - j)), 0)
        counts = np.minimum(box[:, j - 1], hi - w) - low + 1
        rows = int(counts.sum())
        if rows * max(j + 1, CHUNK_WIDTH) > CHUNK_ROWS * CHUNK_WIDTH and len(box) > 1:
            half = len(box) // 2
            stack += [(box[half:], w[half:]), (box[:half], w[:half])]
            continue
        rep = np.repeat(np.arange(len(box)), counts)
        grown = np.empty((rows, j + 1), dtype=np.int32, order="F")
        for c in range(j):
            box[:, c].take(rep, out=grown[:, c], mode="clip")
        new = grown[:, j]  # row q of prefix i gains part low_i + q - start_i
        (np.cumsum(counts) - counts - low).astype(np.int32).take(rep, out=new, mode="clip")
        np.subtract(np.arange(rows, dtype=np.int32), new, out=new)
        stack.append((grown, w[rep] + new))


def _log_weight_sums(nu: float, m: int, shift: int, lo: int, hi: int, n: int | None = None):
    """sum_{|kappa|=k} W_kappa for k = lo..hi, as a pair of arrays
    (peak, total) with the sum equal to total * exp(peak).

    W_kappa is the term of the finite-N law with box width n, or of the
    0F1 where n is None, at Jack index m and b = m/nu + shift (module
    docstring); kappa runs over the partitions with at most m parts and
    parts at most n (at most hi for the 0F1).  The row tables R_r and the
    pair tables T_l are one _prefix_sums table, written from one array
    of lower and one of upper hook logs.  For each streamed chunk
    log W_kappa is summed into one buffer in the order R_i, then T_(j-i)
    for j > i, i = 0, 1, ..., which fixes its rounding, each entry
    gathered into a second buffer.  The chunk is reduced by weight with
    a per-k max shift and merged into running (peak, sum) pairs over the
    whole band (a weight the chunk lacks adds an exact 0), so memory
    stays at one chunk.  A weight that no partition has keeps peak -inf
    and total 0.
    """
    rows = min(m, hi)  # no partition of weight <= hi has more parts
    top = hi if n is None else n
    t = nu * np.arange(top, dtype=float)
    r = np.arange(rows, dtype=float)[:, None]  # row, and leg l in the hooks
    lower, upper = np.log(t + (r + 1)), np.log(t + nu + r)
    num = 2.0 * math.log(nu) if n is None else np.log(nu * n + r - t)
    row_terms = num - np.log(t + nu * shift + (m - r)) - upper[::-1] + np.log1p((m - rows) / (t + (rows - r)))
    pair_terms = lower[1:] + upper[1:] - lower[:-1] - upper[:-1]
    tab = _prefix_sums(np.concatenate([row_terms, pair_terms]))  # R_0..R_(rows-1), T_1..T_(rows-1)
    peak = np.full(hi - lo + 1, -np.inf)
    total = np.zeros(hi - lo + 1)
    for box, k in _partition_chunks(rows, lo, hi, top):
        lw, term = np.zeros(len(box)), np.empty(len(box))
        diff = np.empty(len(box), dtype=np.int32)
        for i in range(rows):
            col = box[:, i]
            lw += tab[i].take(col, out=term, mode="clip")
            for j in range(i + 1, rows):
                np.subtract(col, box[:, j], out=diff)
                lw += tab[rows + j - i - 1].take(diff, out=term, mode="clip")
        k = k - lo
        chunk_peak = np.full(len(peak), -np.inf)
        np.maximum.at(chunk_peak, k, lw)
        chunk_sum = np.bincount(k, weights=np.exp(lw - chunk_peak[k]), minlength=len(peak))
        new_peak = np.maximum(peak, chunk_peak)
        ref = np.where(new_peak > -np.inf, new_peak, 0.0)  # both -inf: weight absent so far
        total = total * np.exp(peak - ref) + chunk_sum * np.exp(chunk_peak - ref)
        peak = new_peak
    return peak, total
