"""Reference checks for benchmark ops, run after the timed loop.

``check_op(op, rc, stdout)`` returns None when the op's output is right
and a one-line reason when it is not.  Every op is checked against the
invariants of its kind (Q in [0, 1] and nonincreasing, P >= 0, moment
bounds), and against an independent reference where one exists:

* exact-cdf: N=2 against the quadrature oracle ``q_oracle_n2``; beta=2
  with alpha <= 3 against the determinant route ``q_exact_beta2``;
* exact-pdf: -dQ/dx by finite differences of the same references, and
  of the series Q itself (whose coefficients the op has already built);
* moments: beta=2 with M=N has mu_1 = 1/N^3; N=2 against Gauss-Legendre
  integrals of the oracle, mu_p = p * int x^(p-1) Q(x) dx;
* limit-cdf / limit-pdf: ``q_limit_closed`` and its finite difference
  where a closed form exists;
* beta2-cdf: ``q_alpha2_sum`` at alpha=2, otherwise the partition series
  where it has at most SERIES_CHECK_PARTITIONS partitions;
* validate: the route taken, the sample size, and a p-value at or above
  ``CHECK_LEVEL``.  The CLI's own exit 1 (rejection at level 0.01) is not
  a failure here.

The reference functions are looked up on this module at call time, so a
test can substitute a wrong one.
"""

from __future__ import annotations

import json
import math

import numpy as np

from lagmin import (
    LimitParams,
    params_new,
    q_alpha2_sum,
    q_exact,
    q_exact_beta2,
    q_limit_closed,
    q_oracle_n2,
)

# A correct sampler falls below this in about one op in a million, so a
# run of a few hundred validate ops trips it far less than once in 100 runs.
CHECK_LEVEL = 1e-6

Q_ATOL = 1e-9  # against references that are exact to ~1e-10 or better
FD_RTOL = 1e-5  # finite differences, relative to the scale of P
MOMENT_RTOL = 1e-6
SLACK = 1e-12  # roundoff allowed in the invariants
# The series route costs ~0.1 ms per partition; above this many partitions
# (alpha=4 with N > 16) a beta2-cdf op is checked on its invariants only.
SERIES_CHECK_PARTITIONS = 5000


def _rows(doc: dict, value_key: str, x_key: str):
    rows = doc["results"]
    xs = [float(r[x_key]) for r in rows]
    vals = [float(r[value_key]) for r in rows]
    return xs, vals


def _check_q_invariants(vals) -> str | None:
    if not all(math.isfinite(v) and -SLACK <= v <= 1.0 + SLACK for v in vals):
        return "Q outside [0, 1]"
    if any(b > a + SLACK for a, b in zip(vals, vals[1:])):
        return "Q increases"
    return None


def _check_p_invariants(vals) -> str | None:
    if not all(math.isfinite(v) and v >= 0.0 for v in vals):
        return "P negative or not finite"
    return None


def _compare(vals, refs, atol: float, what: str) -> str | None:
    for v, r in zip(vals, refs):
        if not abs(v - r) <= atol:
            return f"{what}: {v!r} vs reference {r!r}"
    return None


def _minus_derivative(q, xs, h: float):
    """-dQ/dx by fourth-order differences with step h: central, or
    one-sided where x - 2h would leave [0, inf)."""
    out = []
    for x in xs:
        if x < 2.0 * h:
            f = [q(x + i * h) for i in range(5)]
            d = (-25 * f[0] + 48 * f[1] - 36 * f[2] + 16 * f[3] - 3 * f[4]) / (12.0 * h)
        else:
            d = (q(x - 2 * h) - 8 * q(x - h) + 8 * q(x + h) - q(x + 2 * h)) / (12.0 * h)
        out.append(-d)
    return out


def _oracle(params):
    return lambda x: q_oracle_n2(params, min(x, 0.5))


def _check_exact(op, doc) -> str | None:
    spec = op["spec"]
    cdf = op["kind"] == "exact-cdf"
    xs, vals = _rows(doc, "Q" if cdf else "P", "x")
    bad = _check_q_invariants(vals) if cdf else _check_p_invariants(vals)
    if bad:
        return bad
    params = params_new(spec["beta"], spec["N"], spec["M"])
    n = spec["N"]
    refs = []
    if n == 2:
        refs.append(("q_oracle_n2", _oracle(params)))
    if spec["beta"] == 2.0 and spec["M"] - n <= 3:
        refs.append(("q_exact_beta2", lambda x: q_exact_beta2(n, spec["M"], x)))
    if cdf:
        for name, q in refs:
            bad = _compare(vals, [q(x) for x in xs], Q_ATOL, name)
            if bad:
                return bad
        return None
    refs.append(("series Q", lambda x: q_exact(params, x)))
    # P vanishes at the support edge 1/N, where -dQ/dx need not be smooth
    # (for N=2 it behaves like (1 - 2x)^beta); compare inside it only.
    # Q falls on the hard-edge scale 1/(4N^3), so P reaches about 4N^3
    span = min(max(xs), 30.0 / (4.0 * n**3))
    h = 1e-3 * span
    inside = [i for i, x in enumerate(xs) if x < 1.0 / n - 4.0 * h]
    if any(v != 0.0 for x, v in zip(xs, vals) if x >= 1.0 / n):
        return "P nonzero at or beyond the support edge 1/N"
    atol = FD_RTOL * max(max(vals), 1.0 / span)
    for name, q in refs:
        ref = _minus_derivative(q, [xs[i] for i in inside], h)
        bad = _compare([vals[i] for i in inside], ref, atol, f"-dQ/dx of {name}")
        if bad:
            return bad
    return None


def _check_moments(op, doc) -> str | None:
    spec = op["spec"]
    n = spec["N"]
    mus = {int(r["p"]): float(r["value"]) for r in doc["results"]}
    if sorted(mus) != spec["p"]:
        return f"moment orders {sorted(mus)} != {spec['p']}"
    tol = 1.0 + 1e-9
    for p, mu in mus.items():
        # 0 < lambda_min <= 1/N, so 0 < mu_p <= N^-p and mu_(p+1) <= mu_p / N
        if not (math.isfinite(mu) and 0.0 < mu <= n ** (-p) * tol):
            return f"mu_{p} = {mu!r} outside (0, N^-{p}]"
        if p + 1 in mus and mus[p + 1] > mus[p] / n * tol:
            return f"mu_{p + 1} > mu_{p} / N"
    if 1 in mus and 2 in mus and mus[2] < mus[1] ** 2 / tol:
        return "mu_2 < mu_1^2"
    if spec["beta"] == 2.0 and spec["M"] == n:
        bad = _compare([mus[1]], [n**-3.0], MOMENT_RTOL * n**-3.0, "mu_1 = 1/N^3")
        if bad:
            return bad
    if n == 2:
        q = _oracle(params_new(spec["beta"], n, spec["M"]))
        nodes, weights = np.polynomial.legendre.leggauss(48)
        xs = 0.25 * (nodes + 1.0)  # [0, 1/2]
        qs = np.array([q(float(x)) for x in xs])
        for p, mu in mus.items():
            ref = 0.25 * float(np.sum(weights * p * xs ** (p - 1) * qs))
            bad = _compare([mu], [ref], MOMENT_RTOL * ref, f"mu_{p} by quadrature")
            if bad:
                return bad
    return None


def _check_limit(op, doc) -> str | None:
    spec = op["spec"]
    cdf = op["kind"] == "limit-cdf"
    ys, vals = _rows(doc, "Q" if cdf else "P", "y")
    bad = _check_q_invariants(vals) if cdf else _check_p_invariants(vals)
    if bad:
        return bad
    lp = LimitParams(spec["beta"], spec["m"])
    if q_limit_closed(lp, 1.0) is None:
        return None
    q = lambda y: q_limit_closed(lp, y)  # noqa: E731
    if cdf:
        return _compare(vals, [q(y) for y in ys], Q_ATOL, "q_limit_closed")
    # Q falls like exp(-beta*y/8), so P reaches about beta/8
    atol = FD_RTOL * max(max(vals), spec["beta"] / 8.0)
    ref = _minus_derivative(q, ys, 1e-3 * max(ys))
    return _compare(vals, ref, atol, "-dQ/dy of q_limit_closed")


def _check_beta2(op, doc) -> str | None:
    spec = op["spec"]
    xs, vals = _rows(doc, "Q", "x")
    bad = _check_q_invariants(vals)
    if bad:
        return bad
    n = spec["N"]
    if spec["alpha"] == 2:
        return _compare(vals, [q_alpha2_sum(n, min(x, 1.0 / n)) for x in xs],
                        Q_ATOL, "q_alpha2_sum")
    if math.comb(spec["M"], spec["alpha"]) > SERIES_CHECK_PARTITIONS:
        return None
    params = params_new(2.0, n, spec["M"])
    return _compare(vals, [q_exact(params, x) for x in xs], Q_ATOL, "series route")


def _check_validate(op, rc, doc) -> str | None:
    spec = op["spec"]
    (row,) = doc["results"]
    if row["route"] != spec["route"]:
        return f"route {row['route']} != {spec['route']}"
    n_expected = spec["samples"]
    if spec["route"] == "split-half":
        half = n_expected // 2
        n_expected = round(half * (n_expected - half) / n_expected)
    if row["n"] != n_expected:
        return f"KS sample size {row['n']} != {n_expected}"
    if not 0.0 <= row["d_stat"] <= 1.0:
        return f"KS statistic {row['d_stat']} outside [0, 1]"
    if not row["p_value"] >= CHECK_LEVEL:
        return f"p-value {row['p_value']:.3g} below the check level {CHECK_LEVEL:g}"
    if (rc == 0) != bool(row["pass"]):
        return f"exit {rc} disagrees with pass={row['pass']}"
    return None


def check_op(op: dict, rc: int, stdout: str) -> str | None:
    """None when the op's output is right, else a one-line reason."""
    if rc not in ((0, 1) if op["kind"] == "validate" else (0,)):
        return f"exit status {rc}"
    try:
        doc = json.loads(stdout)
    except json.JSONDecodeError as exc:
        return f"output is not JSON: {exc}"
    kind = op["kind"]
    if kind in ("exact-cdf", "exact-pdf"):
        return _check_exact(op, doc)
    if kind == "moments":
        return _check_moments(op, doc)
    if kind in ("limit-cdf", "limit-pdf"):
        return _check_limit(op, doc)
    if kind == "beta2-cdf":
        return _check_beta2(op, doc)
    if kind == "validate":
        return _check_validate(op, rc, doc)
    return f"no check for kind {kind!r}"


def digest_line(op: dict, rc: int, stdout: str) -> str:
    """The op's argv, exit status and results rounded to 9 significant
    digits: a speed-up that changes output values changes the digest."""
    try:
        rows = json.loads(stdout)["results"]
    except (json.JSONDecodeError, KeyError, TypeError):
        rows = []
    cells = []
    for row in rows:
        for key in sorted(row):
            v = row[key]
            cells.append(f"{key}={v:.8e}" if isinstance(v, float) else f"{key}={v}")
    return " ".join(op["argv"]) + f" rc={rc} " + " ".join(cells)
