"""Monte Carlo sampling of the trace-normalized smallest eigenvalue.

A draw from the unconstrained beta-Laguerre ensemble is generated from
the bidiagonal model: B is N x N lower bidiagonal with independent
entries

    diagonal     a_i ~ chi_{beta*(M-i)},      i = 0..N-1,
    subdiagonal  b_i ~ chi_{beta*(N-1-i)},    i = 0..N-2,

and the Wishart matrix is T = B B^T, tridiagonal with

    d_0 = a_0^2,  d_i = a_i^2 + b_{i-1}^2,  e_i = a_i * b_i.

Dividing the smallest eigenvalue of T by trace(T) = sum a^2 + sum b^2
gives one draw of the fixed-trace statistic: the chi-square trace is
independent of the normalized spectrum, so conditioning on trace = 1 is
the same as dividing by the trace.

Reproducibility contract (stream 3): draw i of a batch with seed s
belongs to block i // BLOCK, and block k is generated by one call

    Generator(Philox(key=np.array([s, k], dtype=np.uint64)))
        .gamma(shape, 2.0, size=(rows, 2N-1)),

shape = (beta*(M-i)/2 for i < N, then beta*(N-1-i)/2 for i < N-1), which
numpy fills row-major: row r holds a_0^2..a_{N-1}^2, b_0^2..b_{N-2}^2 of
draw k*BLOCK + r.  A run draws only the rows it needs of its last block,
so a longer run is a bit-exact extension of a shorter one, and workers
take whole blocks, so run_batch(workers=1) and run_batch(workers=8)
return bit-identical arrays.  Stream 2 passed the key as the list [s, k],
which numpy takes through float64 for s >= 2**63, so neighbouring seeds
there shared their draws; below 2**63 streams 2 and 3 are the same draws.
Streams 1 (one Philox key per draw, before batch files carried a "stream"
field) and 2 are no longer generated; their batch files still load.

The smallest eigenvalue comes straight from the chi-square draws a^2,
b^2 (no square root, and the count never forms T's entries).  The count
of eigenvalues of B B^T below a shift is the twisted one of LAPACK
dlaneg: the differential stationary qd transform runs down from row 0
and the progressive one up from row N-1, both at once as the two rows of
one (2, draws) state, and they meet at the twist r = N // 2, so a sweep
takes N // 2 sequential steps instead of N - 1.  Each half keeps the
high relative accuracy of the one-sided transform (Dhillon & Parlett).
A bracket [0, min diag T] is narrowed by Laguerre steps from its left
end, all rows at once, until it is 2**-49 wide relative to its upper
end.  numpy.linalg.eigvalsh is used only as a cross-check oracle in the
test suite.
"""

from __future__ import annotations

import json
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field

import numpy as np

from .core import EnsembleParams, _as_int, params_new
from .errors import DomainError, EigensolverFailure, EmptySample
from .numerics import _floats

#: Draws per Philox key: draw i of seed s comes from key (s, i // BLOCK).
BLOCK = 256
#: Version of the (seed, index) -> draw map; batch files record it.
STREAM = 3
_SEED_LIMIT = 1 << 64
# A batch value may pass 1/N by this relative slack, for rounding;
# a draw reaches 1/N only when all N eigenvalues coincide (always at N = 1).
_EDGE_SLACK = 4.0 * np.finfo(float).eps
# A CDF value may leave [0, 1] by this much: the roundoff of 1 - Q.
_CDF_SLACK = 1e-12
# The eigenvalue bracket is closed at this width relative to its upper end.
_RTOL = 2.0 ** -49
# A worker span takes at least this many blocks and this many draws x N:
# below either, a second thread costs more than it saves, since each span
# pays per-call numpy overhead (a Generator per block, a sweep per column)
# under the GIL.
_MIN_SPAN_BLOCKS = 16
_MIN_SPAN_WORK = 200_000
# Bisection alone closes a bracket [0, hi <= 2**1024] on any double in at
# most 1024 + 1074 passes; Laguerre steps normally close it in under 15.
_MAX_PASSES = 2100


@dataclass(frozen=True)
class SampleBatch:
    """A batch of smallest-eigenvalue draws plus the provenance needed to
    regenerate it (parameters, seed and stream version)."""

    params: EnsembleParams
    seed: int
    values: np.ndarray
    stream: int = field(default=STREAM, kw_only=True)

    @property
    def count(self) -> int:
        return len(self.values)


@dataclass(frozen=True)
class KSReport:
    """One-sided summary of a Kolmogorov-Smirnov test."""

    d_stat: float
    n: int
    p_value: float
    level: float

    @property
    def passed(self) -> bool:
        return self.p_value >= self.level

    def as_dict(self):
        return {**asdict(self), "pass": self.passed}


def kolmogorov_sf(t: float) -> float:
    """Survival function of the Kolmogorov distribution,
    P(sup_x |B(x)| > t) for a Brownian bridge B.

    Uses the theta-function form for small t and the alternating series
    for large t; the two expansions overlap with plenty of accuracy at
    the switch point t = 1.  1 for t <= 0; DomainError for a NaN.
    """
    t = float(_floats(t, "t", scalar=True))
    if t != t:
        raise DomainError("t must be a number, got nan")
    if t <= 0.0:
        return 1.0
    if t < 1.0:
        # cdf = sqrt(2 pi)/t * sum_{j odd} exp(-j^2 pi^2 / (8 t^2))
        z = math.pi * math.pi / (8.0 * t * t)
        total = 0.0
        j = 1
        while True:
            term = math.exp(-j * j * z)
            total += term
            if term < 1e-18 * max(total, 1e-300):
                break
            j += 2
            if j > 199:
                break
        return 1.0 - math.sqrt(2.0 * math.pi) / t * total
    total = 0.0
    for j in range(1, 200):
        term = math.exp(-2.0 * j * j * t * t)
        if j % 2 == 1:
            total += term
        else:
            total -= term
        if term < 1e-18:
            break
    return min(1.0, max(0.0, 2.0 * total))


def _block(params: EnsembleParams, seed: int, block: int, rows: int) -> np.ndarray:
    """The first `rows` draws of one block: a (rows, 2N-1) array of
    chi-square variates, a_0^2..a_{N-1}^2 then b_0^2..b_{N-2}^2 per row."""
    beta, n, m = params.beta, params.n_dim, params.m_dim
    diag = beta * (m - np.arange(n, dtype=float))
    sub = beta * (n - 1 - np.arange(n - 1, dtype=float))
    shape = 0.5 * np.concatenate([diag, sub])
    key = np.array([seed, block], dtype=np.uint64)  # a list would go through float64 past 2**63
    rng = np.random.Generator(np.random.Philox(key=key))
    return rng.gamma(shape, 2.0, size=(rows, 2 * n - 1))


def _span_values(params: EnsembleParams, seed: int, lo: int, hi: int) -> np.ndarray:
    """Trace-normalized smallest eigenvalues of draws lo..hi-1; lo is a
    multiple of BLOCK."""
    sq = np.concatenate([
        _block(params, seed, k, min(hi, (k + 1) * BLOCK) - k * BLOCK)
        for k in range(lo // BLOCK, -(-hi // BLOCK))
    ])
    n = params.n_dim
    trace = sq.sum(axis=1)
    if not trace.all():
        raise DomainError(
            f"beta={params.beta:g} is too small: every chi-square variate of "
            "a draw underflowed to 0, so its trace is 0")
    return tridiag_smallest(sq[:, :n], sq[:, n:]) / trace


def _twist(a2, b2):
    """Operands of the twisted qd sweep of T = B B^T for draws a2 (R, N),
    b2 (R, N-1), N >= 2, twisted at r = N // 2: x, y and xy = x * y of
    shape (N // 2, 2, R), then start and slope of shape (2, R).

    Half h begins in the state start[h] + slope[h] * sigma, and its step
    k turns a state s into the pivot D = x[k, h] + s and the state
    y[k, h] * s / D - sigma.  The top half (h = 0) is the stationary
    transform: steps (a_k^2, b_k^2), k = 0..r-1, from s = -sigma, which
    leave s_r.  The bottom half is the progressive transform: steps
    (b_(k-1)^2, a_(k-1)^2), k = N-1 down to r+1, from p = a_(N-1)^2 -
    sigma, which leave p_r.  At even N the bottom half has one step
    fewer, so it starts instead from p = 1 with the step (0, a_(N-1)^2),
    which gives the same p and the pivot 1.
    """
    rows, n = a2.shape
    r, even = n // 2, 1 - n % 2
    x, y = np.empty((2, r, 2, rows))
    x[:, 0] = a2[:, :r].T
    y[:, 0] = b2[:, :r].T
    x[even:, 1] = b2[:, r:n - 1][:, ::-1].T
    y[even:, 1] = a2[:, r:n - 1][:, ::-1].T
    start = np.zeros((2, rows))
    slope = np.full((2, rows), -1.0)
    if even:
        x[0, 1] = 0.0
        y[0, 1] = a2[:, n - 1]
        start[1] = 1.0
        slope[1] = 0.0
    else:
        start[1] = a2[:, n - 1]
    return x, y, x * y, start, slope


def _negcount(ops, sigma) -> np.ndarray:
    """Eigenvalues of B B^T below sigma for every column of the _twist
    operands, with the zero-pivot guard of LAPACK dlaneg: a quotient s/D
    that comes out NaN (after a pivot D = 0) is replaced by 1."""
    x, y, _, start, slope = ops
    s = slope * sigma + start
    count = np.zeros(sigma.shape, dtype=np.intp)
    for k in range(x.shape[0]):
        d = x[k] + s
        count += np.count_nonzero(d < 0.0, axis=0)
        t = s / d
        t[np.isnan(t)] = 1.0
        s = t * y[k] - sigma
    return count + ((s[0] + sigma) + s[1] < 0.0)


def _qd_pass(ops, sigma):
    """One twisted qd sweep N_r Delta N_r^T = B B^T - sigma I for every
    column of the _twist operands: both halves step at once, as the two
    rows of one (2, R) state, and meet at the twist r = N // 2 in
    gamma_r = (s_r + sigma) + p_r.

    Returns the number of negative pivots, gamma_r included (the
    eigenvalues below sigma), and, from the first and second
    sigma-derivatives of the pivots, S1 = sum_j 1/(lambda_j - sigma) and
    S2 = sum_j 1/(lambda_j - sigma)^2, since det(T - sigma) =
    prod D+_i * gamma_r * prod D-_i.  As in LAPACK dlaneg, the sweep runs
    unguarded and only the columns whose gamma_r came out NaN are
    counted again by _negcount.
    """
    x, y, xy, start, slope = ops
    steps, _, rows = x.shape
    piv = np.empty_like(x)
    acc = np.zeros((2, 2, rows))
    s1, s2 = acc  # S1 and S2 over each half's pivots
    r, u, q, t, v, dsn, ddsn = np.empty((7, 2, rows))
    s = slope * sigma
    s += start
    ds, dds = slope, 0.0  # d s / d sigma, d^2 s / d sigma^2
    for xk, yk, xyk, d in zip(x, y, xy, piv):
        np.add(xk, s, out=d)
        np.divide(ds, d, out=r)  # D'/D
        s1 -= r
        np.divide(dds, d, out=u)
        np.multiply(r, r, out=q)
        u -= q  # (D'/D)' = D''/D - (D'/D)^2
        s2 -= u
        np.divide(s, d, out=t)
        np.divide(xyk, d, out=v)
        # next s = y - x y / D - sigma, differentiated twice
        u -= q
        dds = np.multiply(v, u, out=ddsn)
        ds = np.multiply(v, r, out=dsn)
        ds -= 1.0
        s = np.multiply(t, yk, out=s)
        s -= sigma
    gamma = s[0] + sigma
    gamma += s[1]
    rg = (ds[0] + ds[1] + 1.0) / gamma  # gamma'/gamma
    s1[0] -= rg
    s2[0] -= (dds[0] + dds[1]) / gamma - rg * rg
    count = np.count_nonzero(piv < 0.0, axis=(0, 1))
    count += gamma < 0.0
    bad = np.isnan(gamma)  # a zero pivot turns the rest of its half into NaN
    if bad.any():
        count[bad] = _negcount([op[..., bad] for op in ops], sigma[bad])
    s1, s2 = acc.sum(axis=1)
    return count, s1, s2


def tridiag_smallest(a2, b2):
    """Smallest eigenvalue of T = B B^T for each row of a batch, B the
    lower bidiagonal matrix with squared diagonal a2 (draws, N) and
    squared subdiagonal b2 (draws, N-1), all entries >= 0.

    Each row keeps a bracket [lo, hi] with no eigenvalue below lo and at
    least one at or below hi, from the twisted qd count (_qd_pass), whose
    operands are built once per call and shed columns as rows finish; it
    starts at [0, min diag T] (T is positive semidefinite).  From lo,
    Laguerre's step for the smallest root of det(T - sigma) lands at or
    below lambda_min in exact arithmetic; the next shift is that estimate
    plus a margin, so a converged estimate closes the bracket from above,
    and a margin doubling below hi closes it from below.  Where the step
    is unusable (after a zero pivot, or where S2 overflows, lambda below
    ~1e-154) the shift bisects.  A row leaves the active set once
    hi - lo <= 2**-49 hi, or lo and hi are adjacent doubles (a subnormal
    lambda); the midpoint is returned, within 2**-50 relative of the
    count's lambda.  A zero a_i makes B singular and lambda exactly 0.
    Rows are independent, so a row's value does not depend on the rest
    of the batch.
    """
    a2 = np.asarray(a2, dtype=float)
    b2 = np.asarray(b2, dtype=float)
    if a2.ndim != 2:
        raise DomainError("a2 must be a 2-d array of squared diagonals")
    rows, n = a2.shape
    if b2.shape != (rows, max(n - 1, 0)):
        raise DomainError(f"b2 must have shape {(rows, max(n - 1, 0))}, got {b2.shape}")
    if not (np.all(a2 >= 0) and np.all(b2 >= 0)
            and np.isfinite(a2).all() and np.isfinite(b2).all()):
        raise DomainError("a2 and b2 must be finite and >= 0")
    if n == 1:
        return a2[:, 0].copy()
    out = np.zeros(rows)
    live = np.flatnonzero(a2.min(axis=1) > 0.0)
    hi = np.minimum(a2[:, 0], (a2[:, 1:] + b2).min(axis=1))[live]
    ops = _twist(a2[live], b2[live])
    lo, sigma, est, gap = (np.zeros(live.size) for _ in range(4))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for _ in range(_MAX_PASSES):
            if not live.size:
                return out
            count, s1, s2 = _qd_pass(ops, sigma)
            above = count >= 1
            hi = np.where(above, sigma, hi)
            lo = np.where(above, lo, sigma)
            step = n / (s1 + np.sqrt((n - 1) * np.maximum(n * s2 - s1 * s1, 0.0)))
            step = np.where(np.isfinite(step) & (step > 0.0), step, 0.0)
            est = np.where(above, est, sigma + step)
            # the margin doubles while the shifts stay on one side of
            # lambda without the step beating it; it starts a little under
            # _RTOL / 2 so that est - gap and est + gap, once rounded, still
            # close the bracket
            gap = np.where(above | (step <= gap), 2.0 * gap, 0.45 * _RTOL * est)
            mid = 0.5 * (lo + hi)
            x = np.where(above, np.maximum(hi - gap, mid), est + gap)
            x = np.where(~above & (x >= hi), hi - gap, x)
            sigma = np.where((x > lo) & (x < hi), x, mid)
            # subnormal brackets end with lo and hi adjacent doubles
            done = (hi - lo <= _RTOL * hi) | (mid <= lo) | (mid >= hi)
            if done.any():
                out[live[done]] = mid[done]
                keep = np.flatnonzero(~done)
                live, lo, hi, sigma, est, gap = (
                    v[keep] for v in (live, lo, hi, sigma, est, gap))
                # np.take, not op[..., keep]: the fast column subset
                ops = [np.take(op, keep, axis=-1) for op in ops]
    raise EigensolverFailure(
        f"eigenvalue bracket still open after {_MAX_PASSES} passes")


def _check_seed(seed) -> int:
    """seed as an int in [0, 2^64); DomainError otherwise."""
    seed = _as_int(seed, "seed", 0)
    if seed >= _SEED_LIMIT:
        raise DomainError(f"seed must fit in 64 bits, got {seed}")
    return seed


def run_batch(
    params: EnsembleParams, count: int, seed: int, workers: int = 1
) -> SampleBatch:
    """Generate `count` independent draws; deterministic in (params, seed)
    and independent of `workers`, the most threads the run may use.  A
    run is split into spans of whole blocks, one per thread, only as far
    as each span gets _MIN_SPAN_BLOCKS blocks and _MIN_SPAN_WORK draws x N;
    smaller runs stay on the calling thread."""
    count = _as_int(count, "count", 1)
    seed = _check_seed(seed)
    workers = _as_int(workers, "workers", 1)
    if params.n_dim == 1:
        # the only eigenvalue carries the whole trace
        return SampleBatch(params, seed, np.ones(count))
    blocks = -(-count // BLOCK)
    workers = max(1, min(workers, blocks // _MIN_SPAN_BLOCKS,
                         count * params.n_dim // _MIN_SPAN_WORK))
    if workers == 1:
        values = _span_values(params, seed, 0, count)
    else:
        edges = [min(count, BLOCK * (blocks * k // workers)) for k in range(workers + 1)]
        with ThreadPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(
                lambda k: _span_values(params, seed, edges[k], edges[k + 1]),
                range(workers)))
        values = np.concatenate(parts)
    return SampleBatch(params, seed, values)


def _checked_batch(params, seed, values, stream: int, count: int, source: str) -> SampleBatch:
    """The batch with its seed as an int, after the checks of the batch
    text format: a seed that run_batch accepts, every value in [0, 1/N]
    (up to a few ulps past 1/N), `count` values and a known stream
    version; DomainError naming `source` otherwise."""
    seed = _check_seed(seed)
    values = np.asarray(values, dtype=float)
    if not np.all((values >= 0.0) & (values <= (1.0 + _EDGE_SLACK) / params.n_dim)):
        raise DomainError(f"{source} holds a value outside [0, 1/N]")
    if len(values) != count:
        raise DomainError(f"{source} holds {len(values)} values, header says {count}")
    if stream not in (1, 2, STREAM):
        raise DomainError(f"unknown batch stream version {stream!r}")
    return SampleBatch(params, seed, values, stream=stream)


def write_batch(batch: SampleBatch, fh):
    """Write the batch text format to an open stream: one JSON header
    line, then one repr() float per line (repr round-trips doubles
    exactly, so load_batch is bit-exact).  A batch that load_batch would
    refuse raises DomainError before anything is written."""
    batch = _checked_batch(batch.params, batch.seed, batch.values, batch.stream,
                           batch.count, "batch")
    header = {
        "beta": batch.params.beta,
        "n_dim": batch.params.n_dim,
        "m_dim": batch.params.m_dim,
        "seed": batch.seed,
        "count": batch.count,
        "stream": batch.stream,
    }
    fh.write(json.dumps(header) + "\n")
    for v in batch.values:
        fh.write(repr(float(v)) + "\n")


def load_batch(path) -> SampleBatch:
    """Read a batch file; a header without a "stream" field is stream 1.
    A malformed header or value line, or a file that fails the checks
    of _checked_batch, raises DomainError."""
    with open(path) as fh:
        first, lines = fh.readline(), [line for line in fh if line.strip()]
    try:
        header = json.loads(first)
        params = params_new(header["beta"], header["n_dim"], header["m_dim"])
        seed, count = header["seed"], _as_int(header["count"], "count", 0)
        stream = _as_int(header.get("stream", 1), "stream", 1)
        values = np.array([float(line) for line in lines])
    except (ValueError, KeyError, TypeError) as exc:  # DomainError is a ValueError
        raise DomainError(f"malformed batch file {path}: {exc!r}") from None
    return _checked_batch(params, seed, values, stream, count, f"batch file {path}")


def ks_validate(batch: SampleBatch, cdf, level: float = 0.01) -> KSReport:
    """One-sample Kolmogorov-Smirnov test of the batch against a CDF;
    passes when the p-value is at least `level`.

    `cdf` maps an array of x to the array of CDF values; it is called
    once, on the sorted sample."""
    if batch.count == 0:
        raise EmptySample("cannot run a KS test on an empty batch")
    level = float(_floats(level, "level", scalar=True))
    if not (0.0 < level < 1.0):
        raise DomainError(f"level must lie in (0, 1), got {level}")
    xs = np.sort(batch.values)
    n = batch.count
    f = np.asarray(cdf(xs), dtype=float)
    bad = ~((f >= -_CDF_SLACK) & (f <= 1.0 + _CDF_SLACK))  # NaN included
    if np.any(bad):
        x_bad, f_bad = xs[bad][0], f[bad][0]
        raise DomainError(f"cdf must return values in [0, 1], got {f_bad} at x = {x_bad}")
    grid = np.arange(1, n + 1, dtype=float) / n
    d_plus = float(np.max(grid - f))
    d_minus = float(np.max(f - (grid - 1.0 / n)))
    d = max(d_plus, d_minus, 0.0)
    p = kolmogorov_sf(math.sqrt(n) * d)
    return KSReport(d_stat=d, n=n, p_value=p, level=level)


def ks_two_sample(values1, values2, level: float = 0.01) -> KSReport:
    """Two-sample KS test with the asymptotic Kolmogorov p-value at the
    effective size n1*n2/(n1+n2)."""
    a = np.sort(np.asarray(values1, dtype=float))
    b = np.sort(np.asarray(values2, dtype=float))
    if a.size == 0 or b.size == 0:
        raise EmptySample("two-sample KS test needs two non-empty samples")
    level = float(_floats(level, "level", scalar=True))
    if not (0.0 < level < 1.0):
        raise DomainError(f"level must lie in (0, 1), got {level}")
    joint = np.concatenate([a, b])
    fa = np.searchsorted(a, joint, side="right") / a.size
    fb = np.searchsorted(b, joint, side="right") / b.size
    d = float(np.max(np.abs(fa - fb)))
    n_eff = a.size * b.size / (a.size + b.size)
    p = kolmogorov_sf(math.sqrt(n_eff) * d)
    return KSReport(d_stat=d, n=int(round(n_eff)), p_value=p, level=level)
