"""Monte Carlo sampler: tridiagonal model, eigensolver, KS machinery."""

import json
from fractions import Fraction

import numpy as np
import pytest
import scipy.special

from lagmin import sampler
from lagmin.core import params_new
from lagmin.errors import DomainError, EmptySample
from lagmin.exact import q_exact
from lagmin.sampler import (
    BLOCK,
    STREAM,
    KSReport,
    SampleBatch,
    _block,
    _negcount,
    _qd_pass,
    _twist,
    kolmogorov_sf,
    ks_two_sample,
    ks_validate,
    load_batch,
    run_batch,
    tridiag_smallest,
    write_batch,
)


def _ensemble_squares(params, seed, rows):
    """The first `rows` chi-square draws of a batch: (a2, b2) arrays."""
    n = params.n_dim
    sq = np.concatenate([
        _block(params, seed, k, min(rows, (k + 1) * BLOCK) - k * BLOCK)
        for k in range(-(-rows // BLOCK))
    ])
    return sq[:, :n], sq[:, n:]


def _dense_t(a2, b2):
    """T = B B^T as a dense matrix, from one row of squared entries."""
    e = np.sqrt(a2[:-1] * b2)
    return np.diag(np.concatenate([a2[:1], a2[1:] + b2])) + np.diag(e, 1) + np.diag(e, -1)


def _exact_count(a2, b2, sigma) -> int:
    """Eigenvalues of T = B B^T below sigma, exactly: the Sturm sequence
    p_i = (d_i - sigma) p_(i-1) - e_(i-1)^2 p_(i-2) in integers, every
    input scaled by one power of two (a double is an integer times a
    power of two), counted as sign changes.  A zero p_i fails the test."""
    vals = [float(v) for v in a2] + [float(v) for v in b2] + [float(sigma)]
    shift = max(Fraction(v).denominator.bit_length() - 1 for v in vals)
    A, B, (s,) = ([int(Fraction(v) * 2**shift) for v in part]
                  for part in (vals[:len(a2)], vals[len(a2):-1], vals[-1:]))
    d = [A[0]] + [A[i] + B[i - 1] for i in range(1, len(A))]
    p_prev, p = 1, d[0] - s
    assert p != 0
    changes = int(p < 0)
    for i in range(1, len(A)):
        # d and s carry 2**shift, e^2 = a^2 b^2 carries 2**(2 shift): p_i is
        # the true p_i times 2**(i shift), so its sign is exact
        p_prev, p = p, (d[i] - s) * p - A[i - 1] * B[i - 1] * p_prev
        assert p != 0
        changes += (p < 0) != (p_prev < 0)
    return changes


class TestTridiagSmallest:
    def test_against_dense_solver_on_ensemble_draws(self):
        for beta, n, m_dim in [(2.0, 4, 6), (1.0, 5, 7), (4.0, 3, 4), (2.0, 10, 12)]:
            a2, b2 = _ensemble_squares(params_new(beta, n, m_dim), 99, 100)
            lam = tridiag_smallest(a2, b2)
            for i in range(a2.shape[0]):
                ref = np.linalg.eigvalsh(_dense_t(a2[i], b2[i]))[0]
                assert lam[i] == pytest.approx(ref, rel=1e-10)

    @pytest.mark.parametrize("beta,n,m_dim", [(2.0, 3, 5), (1.0, 40, 42), (2.0, 200, 203), (0.5, 200, 200)])
    def test_relative_accuracy_by_exact_count(self, beta, n, m_dim):
        # lambda_min of B B^T to 1e-14 relative, whatever its size
        # against ||T||: no eigenvalue below 0.99999999999999 lambda, one
        # at or below 1.00000000000001 lambda, in exact arithmetic; at
        # N=200 over a batch of the benchmark's size, 160 draws
        a2, b2 = _ensemble_squares(params_new(beta, n, m_dim), 41, 160 if n == 200 else 12)
        lam = tridiag_smallest(a2, b2)
        for i in range(a2.shape[0]):
            assert _exact_count(a2[i], b2[i], lam[i] * (1 - 1e-14)) == 0
            assert _exact_count(a2[i], b2[i], lam[i] * (1 + 1e-14)) >= 1

    def test_generic_random_tridiagonals(self):
        # T = B B^T for random bidiagonal B, entries spread over twelve
        # decades: the count needs no scale and no pivot floor
        rng = np.random.default_rng(5)
        for _ in range(60):
            n = int(rng.integers(2, 12))
            a2 = 10.0 ** rng.uniform(-6, 6, size=n)
            b2 = 10.0 ** rng.uniform(-6, 6, size=n - 1)
            lam = tridiag_smallest(a2[None, :], b2[None, :])[0]
            assert _exact_count(a2, b2, lam * (1 - 1e-14)) == 0
            assert _exact_count(a2, b2, lam * (1 + 1e-14)) >= 1
            ref = np.linalg.eigvalsh(_dense_t(a2, b2))[0]
            assert abs(lam - ref) <= 1e-10 * np.abs(_dense_t(a2, b2)).max()

    @pytest.mark.parametrize("a2,b2", [([1e-200, 2.0, 1.5], [0.5, 1.0]), ([1.0, 1e-170], [1.0])])
    def test_tiny_eigenvalue_by_bisection(self, a2, b2):
        # lambda below ~1e-154 overflows S2, so no Laguerre step is taken
        # and the bracket closes by bisection alone
        a2, b2 = np.array(a2), np.array(b2)
        lam = tridiag_smallest(a2[None, :], b2[None, :])[0]
        assert 0.0 < lam < 1e-160
        assert _exact_count(a2, b2, lam * (1 - 1e-14)) == 0
        assert _exact_count(a2, b2, lam * (1 + 1e-14)) >= 1

    def test_decoupled_matrix(self):
        # zero subdiagonal: T = diag(a^2), the answer is exactly min a^2
        a2 = np.array([[3.0, 1.0, 2.0], [0.5, 4.0, 0.25]])
        b2 = np.zeros((2, 2))
        lam = tridiag_smallest(a2, b2)
        assert lam[0] == pytest.approx(1.0, abs=1e-15)
        assert lam[1] == pytest.approx(0.25, abs=1e-15)
        # here the count is exact, so the midpoint of the closed bracket is
        # within 2**-50 relative of min a^2, over six decades
        a2 = 10.0 ** np.random.default_rng(2).uniform(-3, 3, size=(500, 5))
        lam = tridiag_smallest(a2, np.zeros((500, 4)))
        assert np.all(np.abs(lam - a2.min(axis=1)) <= 1e-15 * a2.min(axis=1))

    def test_singular_bidiagonal(self):
        # a zero diagonal entry makes B singular: lambda_min is exactly 0
        a2 = np.array([[2.0, 0.0, 3.0], [2.0, 1.0, 3.0]])
        b2 = np.array([[1.0, 1.0], [1.0, 1.0]])
        lam = tridiag_smallest(a2, b2)
        assert lam[0] == 0.0
        assert lam[1] == pytest.approx(np.linalg.eigvalsh(_dense_t(a2[1], b2[1]))[0], rel=1e-14)

    def test_zero_pivot_guard(self):
        # a zero pivot makes every later pivot of its half NaN, and gamma_r
        # with them; without the guard the count comes out wrong
        cases = [
            # sigma = a_0^2 makes the top pivot D+_0 = 0
            ([[1.0, 3.0, 0.5, 0.2], [1.0, 0.5, 0.25, 2.0]],
             [[0.5, 0.1, 4.0], [2.0, 1.0, 0.5]]),
            # sigma = a_4^2 + b_3^2 makes the bottom pivot D-_4 = 0
            ([[2.0, 3.0, 0.5, 1.5, 0.75], [0.5, 2.5, 4.0, 0.5, 0.5]],
             [[0.5, 1.0, 2.0, 0.25], [1.0, 0.25, 1.0, 0.5]]),
        ]
        sigma = np.array([1.0, 1.0])
        for a2, b2 in cases:
            a2, b2 = np.array(a2), np.array(b2)
            want = []
            for j in range(2):
                eig = np.linalg.eigvalsh(_dense_t(a2[j], b2[j]))
                assert np.abs(eig - 1.0).min() > 1e-3
                want.append(int((eig < 1.0).sum()))
            ops = _twist(a2, b2)
            with np.errstate(divide="ignore", invalid="ignore"):
                count, _, _ = _qd_pass(ops, sigma)
                assert _negcount(ops, sigma).tolist() == want
            assert count.tolist() == want

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 40, 41, 200])
    def test_twisted_count_is_exact(self, n):
        # the count at shifts spread over the whole spectrum, odd and even
        # N, against the exact integer Sturm count
        a2, b2 = _ensemble_squares(params_new(2.0, n, n + 2), 17, 8)
        rng = np.random.default_rng(n)
        top = a2.max(axis=1) + 2.0 * b2.max(axis=1)
        ops = _twist(a2, b2)
        for sigma in (rng.uniform(0.0, 1.0, size=(6, 8)) ** 3 * top).tolist():
            with np.errstate(divide="ignore", invalid="ignore"):
                count, _, _ = _qd_pass(ops, np.array(sigma))
            want = [_exact_count(a2[i], b2[i], sigma[i]) for i in range(8)]
            assert count.tolist() == want

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 8])
    def test_twisted_derivative_sums(self, n):
        # S1 = sum 1/(lambda - sigma) and S2 = sum 1/(lambda - sigma)^2
        # from the pivot derivatives, at shifts away from the eigenvalues
        a2, b2 = _ensemble_squares(params_new(1.0, n, n + 1), 23, 20)
        eig = np.array([np.linalg.eigvalsh(_dense_t(a2[i], b2[i])) for i in range(20)])
        sigma = eig[:, 0] + 0.3 * (eig[:, 1] - eig[:, 0])
        sigma[::2] = 0.5 * eig[::2, 0]
        _, s1, s2 = _qd_pass(_twist(a2, b2), sigma)
        inv = 1.0 / (eig - sigma[:, None])
        # S1 mixes signs above lambda_min: its error scales with sum |1/(lambda - sigma)|
        assert np.all(np.abs(s1 - inv.sum(axis=1)) <= 1e-10 * np.abs(inv).sum(axis=1))
        np.testing.assert_allclose(s2, (inv * inv).sum(axis=1), rtol=1e-10)

    def test_rows_do_not_depend_on_the_batch(self):
        a2, b2 = _ensemble_squares(params_new(2.0, 40, 42), 8, 50)
        whole = tridiag_smallest(a2, b2)
        one_by_one = [tridiag_smallest(a2[i:i + 1], b2[i:i + 1])[0] for i in range(50)]
        assert np.array_equal(whole, one_by_one)

    def test_one_by_one(self):
        a2 = np.array([[4.5], [2.0]])
        b2 = np.zeros((2, 0))
        out = tridiag_smallest(a2, b2)
        assert out[0] == 4.5 and out[1] == 2.0

    def test_shape_errors(self):
        with pytest.raises(DomainError):
            tridiag_smallest(np.zeros(3), np.zeros(2))
        with pytest.raises(DomainError):
            tridiag_smallest(np.zeros((2, 3)), np.zeros((2, 1)))
        with pytest.raises(DomainError):
            tridiag_smallest(np.ones((1, 3)), -np.ones((1, 2)))
        with pytest.raises(DomainError):
            tridiag_smallest(np.array([[1.0, np.nan]]), np.ones((1, 1)))


class TestRunBatch:
    def test_deterministic_across_workers(self, monkeypatch):
        # with the span minimums lowered, 3 * BLOCK + 101 draws split into
        # four real spans, the last one partial
        monkeypatch.setattr(sampler, "_MIN_SPAN_BLOCKS", 1)
        monkeypatch.setattr(sampler, "_MIN_SPAN_WORK", 1)
        p = params_new(2.0, 4, 6)
        b1 = run_batch(p, 3 * BLOCK + 101, seed=42, workers=1)
        spans = []
        span_values = sampler._span_values

        def record(params, seed, lo, hi):
            spans.append((lo, hi))
            return span_values(params, seed, lo, hi)

        monkeypatch.setattr(sampler, "_span_values", record)
        b4 = run_batch(p, 3 * BLOCK + 101, seed=42, workers=4)
        assert len(spans) == 4
        assert np.array_equal(b1.values, b4.values)

    def test_values_in_support(self):
        p = params_new(1.0, 3, 5)
        b = run_batch(p, 500, seed=9, workers=2)
        assert (b.values > 0).all()
        assert (b.values <= 1.0 / 3.0 + 1e-15).all()

    def test_seed_changes_values(self):
        p = params_new(2.0, 2, 3)
        assert not np.array_equal(
            run_batch(p, 50, seed=1).values, run_batch(p, 50, seed=2).values
        )

    def test_prefix_stability(self):
        # per-index streams: a longer batch extends a shorter one
        p = params_new(2.0, 3, 4)
        short = run_batch(p, 20, seed=7).values
        long = run_batch(p, 50, seed=7).values
        assert np.array_equal(short, long[:20])

    @pytest.mark.parametrize("count", [BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 3])
    def test_block_boundaries(self, count, monkeypatch):
        # worker spans start on block boundaries and a run draws only the
        # rows it needs of its last block; spans of one block each here
        monkeypatch.setattr(sampler, "_MIN_SPAN_BLOCKS", 1)
        monkeypatch.setattr(sampler, "_MIN_SPAN_WORK", 1)
        p = params_new(1.0, 3, 5)
        runs = [run_batch(p, count, seed=13, workers=w).values for w in (1, 2, 3)]
        assert np.array_equal(runs[0], runs[1])
        assert np.array_equal(runs[0], runs[2])
        longest = run_batch(p, 2 * BLOCK + 3, seed=13).values
        assert np.array_equal(runs[0], longest[:count])

    @pytest.mark.parametrize("n,count,workers,spans", [
        (3, 20000, 4, 1),  # under _MIN_SPAN_WORK draws x N per span
        (200, 2000, 4, 1),  # under _MIN_SPAN_BLOCKS blocks per span
        (200, 8192, 4, 2),
        (40, 20000, 2, 2),
        (40, 20000, 1, 1),
        (100, 100000, 4, 4),
    ])
    def test_span_split(self, monkeypatch, n, count, workers, spans):
        # workers caps the threads; a span needs enough work to pay for one
        calls = []

        def record(params, seed, lo, hi):
            calls.append((lo, hi))
            return np.zeros(hi - lo)

        monkeypatch.setattr(sampler, "_span_values", record)
        run_batch(params_new(2.0, n, n + 2), count, seed=1, workers=workers)
        calls.sort()
        assert len(calls) == spans
        assert calls[0][0] == 0 and calls[-1][1] == count
        for (lo, hi), (nxt, _) in zip(calls, calls[1:]):
            assert hi == nxt and nxt % BLOCK == 0
        if spans > 1:
            assert min(hi - lo for lo, hi in calls) >= sampler._MIN_SPAN_BLOCKS * BLOCK
            assert min(hi - lo for lo, hi in calls) * n >= sampler._MIN_SPAN_WORK

    def test_stream_contract(self):
        # draw i is row i % BLOCK of one gamma call under Philox key
        # [seed, i // BLOCK], a^2 first, then b^2
        beta, n, m_dim, seed = 2.0, 4, 6, 21
        values = run_batch(params_new(beta, n, m_dim), BLOCK + 6, seed=seed).values
        shape = 0.5 * beta * np.array([6, 5, 4, 3, 3, 2, 1], dtype=float)
        rng = np.random.Generator(np.random.Philox(key=[seed, 1]))
        row = rng.gamma(shape, 2.0, size=(6, 2 * n - 1))[5]
        eig = np.linalg.eigvalsh(_dense_t(row[:n], row[n:]))
        assert values[BLOCK + 5] == pytest.approx(eig[0] / row.sum(), rel=1e-12)
        assert STREAM == 2

    def test_underflowed_draws(self):
        # at beta = 0.01 some chi-square variates underflow to 0; the
        # values stay finite and >= 0
        values = run_batch(params_new(0.01, 40, 40), 300, seed=1).values
        assert np.isfinite(values).all() and (values >= 0).all()

    @pytest.mark.xfail(raises=DomainError, reason=(
        "at beta = 1e-3 every chi-square variate of some draws underflows "
        "to 0, so their trace is 0 (a FOUND line in CHANGES.md)"))
    def test_draws_at_tiny_beta(self):
        values = run_batch(params_new(0.001, 3, 3), 300, seed=1).values
        assert np.isfinite(values).all() and (values >= 0).all()

    def test_degenerate_n1(self):
        b = run_batch(params_new(2.0, 1, 4), 10, seed=3)
        assert (b.values == 1.0).all()

    def test_trace_normalization(self):
        p = params_new(2.0, 4, 5)
        a2, b2 = _ensemble_squares(p, 11, 32)
        values = run_batch(p, 32, seed=11).values
        for i in range(32):
            eig = np.linalg.eigvalsh(_dense_t(a2[i], b2[i]))
            # the eigenvalues sum to the chi-square total, the divisor
            assert eig.sum() == pytest.approx(a2[i].sum() + b2[i].sum(), rel=1e-12)
            assert values[i] == pytest.approx(eig[0] / eig.sum(), rel=1e-12)

    def test_input_validation(self):
        p = params_new(2.0, 2, 3)
        with pytest.raises(DomainError):
            run_batch(p, 0, seed=1)
        with pytest.raises(DomainError):
            run_batch(p, 10, seed=-1)
        with pytest.raises(DomainError):
            run_batch(p, 10, seed=1 << 64)
        with pytest.raises(DomainError):
            run_batch(p, 10, seed=1, workers=0)
        with pytest.raises(DomainError):
            run_batch(p, 10, seed=1, workers=True)


def test_sample_smallest_single_draw():
    p = params_new(2.0, 3, 4)
    v = run_batch(p, 1, seed=5).values[0]
    assert 0.0 < v <= 1.0 / 3.0
    assert run_batch(params_new(4.0, 1, 2), 1, seed=5).values[0] == 1.0


# ---------- persistence ----------

def test_batch_roundtrip_bit_exact(tmp_path):
    p = params_new(4.0, 2, 3)
    batch = run_batch(p, 257, seed=1234, workers=3)
    path = tmp_path / "batch.txt"
    with open(path, "w") as fh:
        write_batch(batch, fh)
    back = load_batch(path)
    assert np.array_equal(back.values, batch.values)
    assert back.params == batch.params
    assert back.seed == batch.seed and back.count == batch.count
    assert back.stream == batch.stream == STREAM
    assert json.loads(path.read_text().splitlines()[0])["stream"] == STREAM


def test_batch_old_header_is_stream_1(tmp_path):
    # files written before the "stream" field hold stream-1 draws; they
    # load, and are written back as stream 1
    old = tmp_path / "old.txt"
    old.write_text('{"beta": 2.0, "n_dim": 2, "m_dim": 3, "seed": 5, "count": 2}\n'
                   "0.125\n0.0625\n")
    batch = load_batch(old)
    assert batch.stream == 1 and batch.seed == 5
    assert batch.values.tolist() == [0.125, 0.0625]
    again = tmp_path / "again.txt"
    with open(again, "w") as fh:
        write_batch(batch, fh)
    assert json.loads(again.read_text().splitlines()[0])["stream"] == 1
    back = load_batch(again)
    assert back.stream == 1 and np.array_equal(back.values, batch.values)


def test_batch_unknown_stream(tmp_path):
    path = tmp_path / "future.txt"
    path.write_text('{"beta": 2.0, "n_dim": 2, "m_dim": 3, "seed": 5, "count": 1, '
                    '"stream": 3}\n0.125\n')
    with pytest.raises(DomainError):
        load_batch(path)


_HEADER = '{"beta": 2.0, "n_dim": 2, "m_dim": 3, "seed": 5, "count": 1}\n'


@pytest.mark.parametrize("text", [
    pytest.param("not json\n0.125\n", id="header-not-json"),
    pytest.param("[2.0, 2, 3]\n0.125\n", id="header-not-object"),
    pytest.param('{"beta": 2.0, "n_dim": 2, "seed": 5, "count": 1}\n0.125\n', id="missing-key"),
    pytest.param(_HEADER.replace("2.0", '"two"') + "0.125\n", id="bad-beta"),
    pytest.param(_HEADER.replace("5", "null") + "0.125\n", id="bad-seed"),
    pytest.param(_HEADER + "abc\n", id="value-not-float"),
    pytest.param(_HEADER + "nan\n", id="value-nan"),
    pytest.param(_HEADER.replace('"count": 1', '"count": 2') + "0.125\ninf\n", id="value-inf"),
    pytest.param(_HEADER.replace('"count": 1', '"count": 2') + "0.125\n", id="count-mismatch"),
    pytest.param("", id="empty-file"),
    pytest.param(_HEADER.replace("5", "-5") + "0.125\n", id="negative-seed"),
    pytest.param(_HEADER.replace("5", str(1 << 64)) + "0.125\n", id="seed-past-64-bits"),
    pytest.param(_HEADER.replace("5", "5.5") + "0.125\n", id="float-seed"),
    pytest.param(_HEADER.replace("}", ', "stream": true}') + "0.125\n", id="bool-stream"),
    pytest.param(_HEADER + "0.75\n", id="value-past-1-over-n"),
    pytest.param(_HEADER + "-0.5\n", id="value-negative"),
])
def test_load_batch_malformed_file_is_domain_error(tmp_path, text):
    path = tmp_path / "bad.txt"
    path.write_text(text)
    with pytest.raises(DomainError):
        load_batch(path)


def test_load_batch_value_a_few_ulps_past_1_over_n(tmp_path):
    # N = 2: 1/2 rounded up by two ulps still loads
    edge = np.nextafter(np.nextafter(0.5, 1.0), 1.0)
    path = tmp_path / "edge.txt"
    path.write_text(_HEADER + repr(float(edge)) + "\n")
    assert load_batch(path).values.tolist() == [edge]


# ---------- Kolmogorov machinery ----------

def test_kolmogorov_sf_against_scipy():
    for t in (0.05, 0.2, 0.4, 0.7, 0.9, 1.0, 1.1, 1.5, 2.0, 3.0):
        assert kolmogorov_sf(t) == pytest.approx(
            float(scipy.special.kolmogorov(t)), abs=1e-14
        )
    assert kolmogorov_sf(0.0) == 1.0
    assert kolmogorov_sf(-1.0) == 1.0


def test_kolmogorov_sf_refuses_nan_and_arrays():
    for t in (np.nan, np.array([0.5, 1.0]), "abc"):
        with pytest.raises(DomainError):
            kolmogorov_sf(t)
    assert kolmogorov_sf(np.float64(0.5)) == kolmogorov_sf(0.5)


def test_ks_validate_nan_cdf_is_domain_error():
    # a CDF that returns NaN is an error, not a p-value of 0 (a silent reject)
    batch = run_batch(params_new(2.0, 2, 3), 50, seed=1)
    with pytest.raises(DomainError):
        ks_validate(batch, lambda x: np.full(len(x), np.nan))


def test_kolmogorov_sf_monotone():
    ts = [0.01 * i for i in range(1, 400)]
    vals = [kolmogorov_sf(t) for t in ts]
    assert all(a >= b for a, b in zip(vals, vals[1:]))


def test_ks_validate_accepts_true_cdf():
    p = params_new(2.0, 2, 3)
    batch = run_batch(p, 8000, seed=11, workers=2)
    rep = ks_validate(batch, lambda x: 1.0 - q_exact(p, x), level=0.01)
    assert rep.passed
    assert rep.n == 8000
    assert 0.0 <= rep.d_stat < 0.05
    assert rep.as_dict()["pass"] is True


def test_ks_validate_calls_cdf_once_on_the_sorted_sample():
    p = params_new(2.0, 2, 3)
    batch = run_batch(p, 500, seed=3)
    calls = []

    def cdf(xs):
        calls.append(np.array(xs, copy=True))
        return 1.0 - q_exact(p, xs)

    ks_validate(batch, cdf)
    assert len(calls) == 1
    assert np.array_equal(calls[0], np.sort(batch.values))


def test_ks_validate_rejects_shifted_cdf():
    p = params_new(2.0, 2, 3)
    batch = run_batch(p, 8000, seed=11, workers=2)

    def shifted(x):
        return 1.0 - q_exact(p, np.clip(x - 0.05, 0.0, 0.5))

    rep = ks_validate(batch, shifted, level=0.01)
    assert not rep.passed


def test_counts_and_verdicts_are_derived():
    p = params_new(2.0, 2, 3)
    assert SampleBatch(p, 0, np.zeros(3)).count == 3
    with pytest.raises(TypeError):
        SampleBatch(p, 0, np.zeros(3), 5)
    with pytest.raises(TypeError):
        SampleBatch(p, 0, np.zeros(3), count=3)
    rep = KSReport(d_stat=0.1, n=10, p_value=0.01, level=0.01)
    assert rep.passed and not KSReport(d_stat=0.1, n=10, p_value=0.009, level=0.01).passed
    with pytest.raises(TypeError):
        KSReport(d_stat=0.1, n=10, p_value=0.5, level=0.01, passed=False)


def test_ks_validate_errors():
    p = params_new(2.0, 2, 3)
    empty = SampleBatch(p, 0, np.zeros(0))
    with pytest.raises(EmptySample):
        ks_validate(empty, lambda x: x)
    batch = run_batch(p, 16, seed=0)
    for level in (1.5, "0.5", None, np.array([0.1, 0.2])):
        with pytest.raises(DomainError):
            ks_validate(batch, lambda x: x, level=level)
        with pytest.raises(DomainError):
            ks_two_sample([0.1, 0.2], [0.3, 0.1], level=level)


def test_ks_two_sample():
    p = params_new(2.0, 2, 3)
    a = run_batch(p, 6000, seed=21).values
    b = run_batch(p, 6000, seed=22).values
    assert ks_two_sample(a, b, level=0.01).passed
    assert not ks_two_sample(a, b + 0.05, level=0.01).passed
    with pytest.raises(EmptySample):
        ks_two_sample(a, np.zeros(0))
