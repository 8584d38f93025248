"""Monte Carlo sampling of the trace-normalized smallest eigenvalue.

A draw from the unconstrained beta-Laguerre ensemble is generated from
the bidiagonal model: B is N x M-shaped lower bidiagonal with
independent entries

    diagonal     a_i ~ chi_{beta*(M-i)},      i = 0..N-1,
    subdiagonal  b_i ~ chi_{beta*(N-1-i)},    i = 0..N-2,

and T = B B^T is symmetric tridiagonal with

    d_0 = a_0^2,  d_i = a_i^2 + b_{i-1}^2,  e_i = a_i * b_i.

Dividing the smallest eigenvalue of T by trace(T) = sum a^2 + sum b^2
gives one draw of the fixed-trace statistic: the chi-square trace is
independent of the normalized spectrum, so conditioning on trace = 1 is
the same as dividing by the trace.

Reproducibility contract: sample index i of a batch with seed s is
generated from the counter-based stream Philox(key=[s, i]).  Draw i
therefore never depends on how the batch is chunked across workers, and
run_batch(workers=1) and run_batch(workers=8) return bit-identical
arrays.

The smallest eigenvalue is extracted by a vectorized Sturm-count
bisection (no dense solver in the hot path); numpy.linalg.eigvalsh is
used only as a cross-check oracle in the test suite.
"""

from __future__ import annotations

import json
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .core import EnsembleParams, params_new
from .errors import DomainError, EigensolverFailure, EmptySample

_BISECTION_ITERS = 110
_SEED_LIMIT = 1 << 64


@dataclass(frozen=True)
class SampleBatch:
    """A batch of smallest-eigenvalue draws plus the provenance needed to
    regenerate it (parameters and seed)."""

    params: EnsembleParams
    seed: int
    values: np.ndarray
    count: int

    def __post_init__(self):
        if self.count != len(self.values):
            raise DomainError(
                f"count={self.count} does not match len(values)={len(self.values)}"
            )


@dataclass(frozen=True)
class KSReport:
    """One-sided summary of a Kolmogorov-Smirnov test."""

    d_stat: float
    n: int
    p_value: float
    level: float
    passed: bool

    def as_dict(self):
        return {
            "d_stat": self.d_stat,
            "n": self.n,
            "p_value": self.p_value,
            "level": self.level,
            "pass": self.passed,
        }


def kolmogorov_sf(t: float) -> float:
    """Survival function of the Kolmogorov distribution,
    P(sup_x |B(x)| > t) for a Brownian bridge B.

    Uses the theta-function form for small t and the alternating series
    for large t; the two expansions overlap with plenty of accuracy at
    the switch point t = 1.
    """
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


def _chi_dofs(params: EnsembleParams):
    beta, n, m = params.beta, params.n_dim, params.m_dim
    diag = beta * (m - np.arange(n, dtype=float))
    sub = beta * (n - 1 - np.arange(n - 1, dtype=float))
    return diag, sub


def _sample_chunk(params: EnsembleParams, seed: int, lo: int, hi: int):
    """Draws lo..hi-1 of the batch: returns (d, e, trace) arrays."""
    n = params.n_dim
    diag_dof, sub_dof = _chi_dofs(params)
    shape = 0.5 * np.concatenate([diag_dof, sub_dof])
    count = hi - lo
    d = np.empty((count, n))
    e = np.empty((count, max(n - 1, 1)))
    tr = np.empty(count)
    for row, i in enumerate(range(lo, hi)):
        rng = np.random.Generator(np.random.Philox(key=[seed, i]))
        sq = rng.gamma(shape, 2.0)  # chi^2 draws in a fixed order
        asq = sq[:n]
        bsq = sq[n:]
        a = np.sqrt(asq)
        b = np.sqrt(bsq)
        d[row, :] = asq
        if n > 1:
            d[row, 1:] += bsq
            e[row, :] = a[:-1] * b
        else:
            e[row, 0] = 0.0
        tr[row] = asq.sum() + bsq.sum()
    return d, e, tr


def _sturm_count(d, e2, sigma, pivmin):
    """Number of eigenvalues of each tridiagonal (rows of d, e2) strictly
    below the per-row shift sigma, by the standard LDL^T pivot recursion."""
    q = d[:, 0] - sigma
    q = np.where(np.abs(q) < pivmin, -pivmin, q)
    count = (q < 0.0).astype(np.int64)
    for i in range(1, d.shape[1]):
        q = d[:, i] - sigma - e2[:, i - 1] / q
        q = np.where(np.abs(q) < pivmin, -pivmin, q)
        count += q < 0.0
    return count


def tridiag_smallest(d, e):
    """Smallest eigenvalue of each symmetric tridiagonal matrix in a batch
    (d: (B, N) diagonals, e: (B, N-1) off-diagonals) by vectorized
    Sturm-count bisection."""
    d = np.asarray(d, dtype=float)
    e = np.asarray(e, dtype=float)
    if d.ndim != 2:
        raise DomainError("d must be a 2-d array of diagonals")
    batch, n = d.shape
    if n == 1:
        return d[:, 0].copy()
    if e.shape != (batch, n - 1):
        raise DomainError(f"e must have shape {(batch, n - 1)}, got {e.shape}")
    e2 = e * e
    ae = np.abs(e)
    radius = np.zeros_like(d)
    radius[:, 0] = ae[:, 0]
    radius[:, -1] = ae[:, -1]
    if n > 2:
        radius[:, 1:-1] = ae[:, :-1] + ae[:, 1:]
    lo = (d - radius).min(axis=1)
    hi = d.min(axis=1)
    scale = max(np.abs(d).max(), np.abs(e).max(), 1.0)
    pivmin = 1e-292 * scale
    # hi = min(diag) can coincide with the eigenvalue on decoupled
    # matrices; nudge the upper bracket until it strictly encloses one.
    for _ in range(64):
        short = _sturm_count(d, e2, hi, pivmin) < 1
        if not short.any():
            break
        width = np.maximum(hi - lo, np.abs(hi)) * 1e-12 + pivmin
        hi = np.where(short, hi + width * 4.0, hi)
        lo = np.where(short, np.minimum(lo, hi - width), lo)
    else:
        raise EigensolverFailure("could not bracket the smallest eigenvalue")
    for _ in range(_BISECTION_ITERS):
        mid = 0.5 * (lo + hi)
        inside = _sturm_count(d, e2, mid, pivmin) >= 1
        hi = np.where(inside, mid, hi)
        lo = np.where(inside, lo, mid)
        gap = hi - lo
        if np.all(gap <= np.maximum(np.abs(hi), np.abs(lo)) * 1e-16 + 1e-305):
            break
    return 0.5 * (lo + hi)


def run_batch(
    params: EnsembleParams, count: int, seed: int, workers: int = 1
) -> SampleBatch:
    """Generate `count` independent draws; deterministic in (params, seed)
    and independent of `workers`."""
    if not isinstance(count, int) or isinstance(count, bool) or count < 1:
        raise DomainError(f"count must be a positive integer, got {count!r}")
    if not isinstance(seed, int) or isinstance(seed, bool):
        raise DomainError(f"seed must be an integer, got {seed!r}")
    if not (0 <= seed < _SEED_LIMIT):
        raise DomainError(f"seed must fit in 64 bits, got {seed}")
    if not isinstance(workers, int) or workers < 1:
        raise DomainError(f"workers must be a positive integer, got {workers!r}")
    n = params.n_dim
    if n == 1:
        # the only eigenvalue carries the whole trace
        return SampleBatch(params, seed, np.ones(count), count)
    workers = min(workers, count)
    bounds = np.linspace(0, count, workers + 1).astype(int)
    spans = [(int(a), int(b)) for a, b in zip(bounds[:-1], bounds[1:]) if b > a]
    if len(spans) == 1:
        chunks = [_sample_chunk(params, seed, *spans[0])]
    else:
        with ThreadPoolExecutor(max_workers=len(spans)) as pool:
            chunks = list(
                pool.map(lambda s: _sample_chunk(params, seed, *s), spans)
            )
    d = np.concatenate([c[0] for c in chunks])
    e = np.concatenate([c[1] for c in chunks])
    tr = np.concatenate([c[2] for c in chunks])
    lam = tridiag_smallest(d, e)
    return SampleBatch(params, seed, lam / tr, count)


def write_batch(batch: SampleBatch, fh):
    """Write the batch text format to an open stream: one JSON header
    line, then one repr() float per line (repr round-trips doubles
    exactly, so load_batch is bit-exact)."""
    header = {
        "beta": batch.params.beta,
        "n_dim": batch.params.n_dim,
        "m_dim": batch.params.m_dim,
        "seed": batch.seed,
        "count": batch.count,
    }
    fh.write(json.dumps(header) + "\n")
    for v in batch.values:
        fh.write(repr(float(v)) + "\n")


def save_batch(batch: SampleBatch, path):
    """write_batch to a file path."""
    with open(path, "w") as fh:
        write_batch(batch, fh)


def load_batch(path) -> SampleBatch:
    with open(path) as fh:
        header = json.loads(fh.readline())
        values = np.array([float(line) for line in fh if line.strip()])
    params = params_new(header["beta"], header["n_dim"], header["m_dim"])
    if len(values) != header["count"]:
        raise DomainError(
            f"batch file holds {len(values)} values, header says {header['count']}"
        )
    return SampleBatch(params, int(header["seed"]), values, int(header["count"]))


def ks_validate(batch: SampleBatch, cdf, level: float = 0.01) -> KSReport:
    """One-sample Kolmogorov-Smirnov test of the batch against a CDF;
    passes when the p-value is at least `level`.

    `cdf` maps an array of x to the array of CDF values; it is called
    once, on the sorted sample."""
    if batch.count == 0:
        raise EmptySample("cannot run a KS test on an empty batch")
    if not (0.0 < level < 1.0):
        raise DomainError(f"level must lie in (0, 1), got {level}")
    xs = np.sort(batch.values)
    n = batch.count
    f = np.asarray(cdf(xs), dtype=float)
    grid = np.arange(1, n + 1, dtype=float) / n
    d_plus = float(np.max(grid - f))
    d_minus = float(np.max(f - (grid - 1.0 / n)))
    d = max(d_plus, d_minus, 0.0)
    p = kolmogorov_sf(math.sqrt(n) * d)
    return KSReport(d_stat=d, n=n, p_value=p, level=level, passed=p >= level)


def ks_two_sample(values1, values2, level: float = 0.01) -> KSReport:
    """Two-sample KS test with the asymptotic Kolmogorov p-value at the
    effective size n1*n2/(n1+n2)."""
    a = np.sort(np.asarray(values1, dtype=float))
    b = np.sort(np.asarray(values2, dtype=float))
    if a.size == 0 or b.size == 0:
        raise EmptySample("two-sample KS test needs two non-empty samples")
    if not (0.0 < level < 1.0):
        raise DomainError(f"level must lie in (0, 1), got {level}")
    joint = np.concatenate([a, b])
    fa = np.searchsorted(a, joint, side="right") / a.size
    fb = np.searchsorted(b, joint, side="right") / b.size
    d = float(np.max(np.abs(fa - fb)))
    n_eff = a.size * b.size / (a.size + b.size)
    p = kolmogorov_sf(math.sqrt(n_eff) * d)
    return KSReport(d_stat=d, n=int(round(n_eff)), p_value=p, level=level, passed=p >= level)
