"""Seeded op plans for the benchmark workloads.

An op is one ``lagmin`` command line, run in process as
``lagmin.cli.main(argv)``.  A plan is a list of passes; every pass runs in
a fresh worker process, so the program's caches start empty, as they do
for a user's command.  Within one pass no op reuses an earlier op's
parameter key:

* series route (exact-cdf, exact-pdf, moments, validate on the series
  route): (N, m), because the partition enumeration cache is keyed by
  (weight, m, N) whatever beta is;
* determinant route (beta2-cdf): (N, alpha);
* limit route (limit-cdf, limit-pdf): (beta, m), beta drawn continuously.

Each op is a dict: ``argv`` (what the program receives), ``kind`` (the
reference check that applies) and ``spec`` (the parameters the check
needs).  The plan depends only on (workload, seed, pass index, small), so
one seed always yields the same argv lists.

Costs vary by orders of magnitude between ops, so the parameters that set
an op's cost (partition count and beta of the series ops, N of the
determinant, beta of the limit) are stratified: every pass has one op per stratum, and the position inside
a stratum follows a fixed schedule that the seed moves only slightly (see
``_position``).  The seed picks what does not set the cost: ties between
keys of equal size, grid types, validate parameters and seeds, and op
order.  Runs with different seeds therefore measure different inputs but
the same amount of work.
"""

from __future__ import annotations

import math
import random

WORKLOADS = {
    "series_sweep": "cold partition-series builds over distinct (N, m): the exact and jack layers",
    "mc_validate": "Monte Carlo draws, Sturm bisection and KS tests on all three validate routes: the sampler layer",
    "cross_routes": "the beta=2 determinant route and the hard-edge limit route: the beta2 and limit layers",
}

# Golden-ratio step: successive passes spread a parameter evenly over its range.
_GOLDEN = 0.6180339887498949
_JITTER = 0.01

# Draw counts per validate bucket, scaled so every bucket costs about the same.
_DRAWS = {"N2": 400, "N3": 1500, "N40": 600, "N200": 160}


def _rng(workload: str, seed: int, pass_index: int, salt: str = "") -> random.Random:
    # str seeds are hashed with SHA-512 by random.Random: stable across runs
    return random.Random(f"{workload}:{seed}:{pass_index}:{salt}")


def _position(workload: str, seed: int, pass_index: int, salt: str) -> float:
    """Position in [0, 1) inside the stratum named by `salt`.

    Over passes it walks a golden-ratio sequence from a start fixed by the
    stratum, so every run covers the stratum evenly; the seed moves it by
    at most _JITTER.  Seeds thus change the inputs, not the amount of work.
    """
    start = random.Random(f"{workload}:{salt}").random()
    jitter = _JITTER * (2.0 * _rng(workload, seed, pass_index, salt).random() - 1.0)
    return min(max((start + pass_index * _GOLDEN) % 1.0 + jitter, 0.0), 0.999999)


def _hard_edge_grid(n: int, y_max: float, points: int) -> str:
    """x = y/(4N^3) for y in [0, y_max], capped at the support edge 1/N."""
    stop = min(y_max / (4.0 * n**3), 1.0 / n)
    return f"0:{stop!r}:{points}"


def _betas_for(m: int) -> list:
    """Dyson indices whose Jack index can equal m for some M >= N."""
    betas = [1.0, 2.0, 2.0 / 3.0]
    if m % 2 == 1:
        betas.append(4.0)
    return betas


def _m_dim(beta: float, n: int, m: int) -> int:
    """M with (beta/2)(M - N + 1 - 2/beta) = m."""
    m_dim = n - 1 + 2.0 * (m + 1) / beta
    out = int(round(m_dim))
    if abs(m_dim - out) > 1e-9 or out < n:
        raise ValueError(f"no integer M for beta={beta}, N={n}, m={m}")
    return out


def _num(x: float) -> str:
    return repr(float(x))


def _series_ops(seed: int, pass_index: int, small: bool) -> list:
    rng = _rng("series_sweep", seed, pass_index)
    log_cap, per_command = (2.0, 4) if small else (4.0, 12)
    pool = [
        (n, m)
        for n in range(2, 41)
        for m in range(0, 5)
        if math.comb(n + m, m) <= 10**log_cap * 1.1
    ]
    ops = []
    for command in ("exact-cdf", "exact-pdf", "moments"):
        for i in range(per_command):
            # target log10 of the partition count, one per stratum
            u = _position("series_sweep", seed, pass_index, f"{command}:{i}")
            target = log_cap * (i + u) / per_command
            best = min(
                abs(math.log10(math.comb(n + m, m)) - target) for n, m in pool
            )
            near = [
                k for k in pool
                if abs(math.log10(math.comb(k[0] + k[1], k[1])) - target) <= best + 1e-12
            ]
            n, m = rng.choice(near)
            pool.remove((n, m))
            # beta sets the cost too (beta = 2/3 builds ~1.5x faster), so it
            # follows the stratum and the pass, not the seed
            betas = _betas_for(m)
            beta = betas[(i + pass_index) % len(betas)]
            m_dim = _m_dim(beta, n, m)
            spec = {"beta": beta, "N": n, "M": m_dim, "m": m}
            argv = [command, "--beta", _num(beta), "--N", str(n), "--M", str(m_dim)]
            if command == "moments":
                spec["p"] = [1, 2]
                argv += ["--p", "1", "2"]
            else:
                # about one grid in four spans the whole support [0, 1/N]
                if rng.random() < 0.25:
                    grid = f"0:{1.0 / n!r}:25"
                else:
                    grid = _hard_edge_grid(n, 30.0, 25)
                argv += ["--grid", grid]
            argv += ["--format", "json"]
            ops.append({"argv": argv, "kind": command, "spec": spec})
    rng.shuffle(ops)
    return ops


def _non_integer_beta(rng, lo: float, hi: float, n: int, m_dim: int) -> float:
    """beta in (lo, hi) whose Jack index for (N, M) is not an integer."""
    while True:
        beta = lo + (hi - lo) * rng.random()
        raw = 0.5 * beta * (m_dim - n + 1) - 1.0
        if raw < -0.05 or abs(raw - round(raw)) > 0.05:
            return beta


def _validate_op(rng, bucket: str, beta: float, n: int, m_dim: int, route: str,
                 small: bool) -> dict:
    samples = _DRAWS[bucket] // (10 if small else 1)
    seed = rng.getrandbits(63)
    argv = [
        "validate", "--beta", _num(beta), "--N", str(n), "--M", str(m_dim),
        "--samples", str(samples), "--seed", str(seed), "--workers", "1",
        "--format", "json",
    ]
    spec = {"beta": beta, "N": n, "M": m_dim, "samples": samples,
            "route": route, "bucket": bucket}
    return {"argv": argv, "kind": "validate", "spec": spec}


def _series_validate(rng, bucket, n, m, small):
    beta = rng.choice(_betas_for(m))
    return _validate_op(rng, bucket, beta, n, _m_dim(beta, n, m), "series", small)


def _split_half_validate(rng, bucket, n, small):
    if rng.random() < 0.5:
        # beta = 1 with M - N even has no integer Jack index
        beta, m_dim = 1.0, n + 2 * rng.randrange(0, 3)
    else:
        m_dim = n + rng.randrange(0, 4)
        beta = _non_integer_beta(rng, 0.7, 5.0, n, m_dim)
    return _validate_op(rng, bucket, beta, n, m_dim, "split-half", small)


def _mc_ops(seed: int, pass_index: int, small: bool) -> list:
    rng = _rng("mc_validate", seed, pass_index)
    ops = []
    # N = 3 bucket (with the N = 2 quadrature route): 5 series, 2 quadrature,
    # 2 split-half
    for m in rng.sample(range(0, 7), 5):
        ops.append(_series_validate(rng, "N3", 3, m, small))
    for _ in range(2):
        beta = _non_integer_beta(rng, 0.8, 3.0, 2, 4)
        ops.append(_validate_op(rng, "N2", beta, 2, 4, "quadrature", small))
    for _ in range(2):
        ops.append(_split_half_validate(rng, "N3", 3, small))
    # N ~ 40 bucket: 6 series over distinct (N, m), 2 split-half
    keys = rng.sample([(n, m) for n in range(36, 45) for m in range(0, 3)], 6)
    for n, m in keys:
        ops.append(_series_validate(rng, "N40", n, m, small))
    for _ in range(2):
        ops.append(_split_half_validate(rng, "N40", rng.randrange(36, 45), small))
    # N = 200 bucket: the two cheap series keys, 7 split-half
    for m in (0, 1):
        ops.append(_series_validate(rng, "N200", 200, m, small))
    for _ in range(7):
        ops.append(_split_half_validate(rng, "N200", 200, small))
    rng.shuffle(ops)
    return ops


def _cross_ops(seed: int, pass_index: int, small: bool) -> list:
    rng = _rng("cross_routes", seed, pass_index)
    ops = []
    n_max, alpha_counts = (10, (1, 1, 1, 1, 1)) if small else (24, (2, 3, 3, 3, 3))
    for alpha, count in enumerate(alpha_counts):
        for j in range(count):
            lo = 2 + (n_max - 1) * j // count
            hi = 2 + (n_max - 1) * (j + 1) // count  # exclusive; strata are disjoint
            n = lo + int((hi - lo) * _position("cross_routes", seed, pass_index, f"{alpha}:{j}"))
            argv = ["beta2-cdf", "--N", str(n), "--M", str(n + alpha),
                    "--grid", _hard_edge_grid(n, 30.0, 20), "--format", "json"]
            ops.append({"argv": argv, "kind": "beta2-cdf",
                        "spec": {"N": n, "M": n + alpha, "alpha": alpha}})
    m_max = 3 if small else 5
    for command in ("limit-cdf", "limit-pdf"):
        for m in range(1, m_max + 1):
            u = _position("cross_routes", seed, pass_index, f"{command}:{m}")
            beta = 0.5 + 5.5 * u
            if command == "limit-cdf" and m == 2 and pass_index % 2 == 0:
                beta = 2.0  # the (beta, m) = (2, 2) closed form
            argv = [command, "--beta", _num(beta), "--m", str(m),
                    "--grid", "0:40:6", "--format", "json"]
            ops.append({"argv": argv, "kind": command,
                        "spec": {"beta": beta, "m": m}})
    rng.shuffle(ops)
    return ops


_PLANS = {
    "series_sweep": _series_ops,
    "mc_validate": _mc_ops,
    "cross_routes": _cross_ops,
}


def plan_pass(workload: str, seed: int, pass_index: int, small: bool = False) -> list:
    """The ops of one pass of `workload` (a fresh worker process runs them)."""
    if workload not in _PLANS:
        raise ValueError(f"unknown workload {workload!r}; choose from {sorted(_PLANS)}")
    return _PLANS[workload](seed, pass_index, small)
