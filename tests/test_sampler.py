"""Monte Carlo sampler: tridiagonal model, eigensolver, KS machinery."""

import numpy as np
import pytest
import scipy.special

from lagmin.core import params_new
from lagmin.errors import DomainError, EmptySample
from lagmin.exact import q_exact
from lagmin.sampler import (
    SampleBatch,
    kolmogorov_sf,
    ks_two_sample,
    ks_validate,
    load_batch,
    run_batch,
    save_batch,
    tridiag_smallest,
)


class TestTridiagSmallest:
    def test_against_dense_solver_on_ensemble_draws(self):
        from lagmin.sampler import _sample_chunk

        for beta, n, m_dim in [(2.0, 4, 6), (1.0, 5, 7), (4.0, 3, 4), (2.0, 10, 12)]:
            p = params_new(beta, n, m_dim)
            d, e, _ = _sample_chunk(p, 99, 0, 100)
            lam = tridiag_smallest(d, e)
            for i in range(d.shape[0]):
                t = np.diag(d[i]) + np.diag(e[i], 1) + np.diag(e[i], -1)
                ref = np.linalg.eigvalsh(t)[0]
                assert lam[i] == pytest.approx(ref, rel=1e-10)

    def test_generic_random_tridiagonals(self):
        rng = np.random.default_rng(5)
        for _ in range(60):
            n = int(rng.integers(2, 12))
            d = rng.normal(size=n) * 3.0
            e = rng.normal(size=n - 1)
            lam = tridiag_smallest(d[None, :], e[None, :])[0]
            t = np.diag(d) + np.diag(e, 1) + np.diag(e, -1)
            ref = np.linalg.eigvalsh(t)[0]
            scale = max(1.0, np.abs(t).max())
            assert abs(lam - ref) <= 1e-10 * scale

    def test_decoupled_matrix(self):
        # zero off-diagonals: the answer is exactly the smallest diagonal
        d = np.array([[3.0, 1.0, 2.0]])
        e = np.array([[0.0, 0.0]])
        assert tridiag_smallest(d, e)[0] == pytest.approx(1.0, abs=1e-15)

    def test_one_by_one(self):
        d = np.array([[4.5], [2.0]])
        e = np.zeros((2, 0))
        out = tridiag_smallest(d, e)
        assert out[0] == 4.5 and out[1] == 2.0

    def test_shape_errors(self):
        with pytest.raises(DomainError):
            tridiag_smallest(np.zeros(3), np.zeros(2))
        with pytest.raises(DomainError):
            tridiag_smallest(np.zeros((2, 3)), np.zeros((2, 1)))


class TestRunBatch:
    def test_deterministic_across_workers(self):
        p = params_new(2.0, 4, 6)
        b1 = run_batch(p, 101, seed=42, workers=1)
        b4 = run_batch(p, 101, seed=42, workers=4)
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

    def test_degenerate_n1(self):
        b = run_batch(params_new(2.0, 1, 4), 10, seed=3)
        assert (b.values == 1.0).all()

    def test_trace_normalization(self):
        from lagmin.sampler import _sample_chunk

        p = params_new(2.0, 4, 5)
        d, e, tr = _sample_chunk(p, 11, 0, 32)
        # trace of the tridiagonal equals the chi-square total
        assert np.allclose(d.sum(axis=1), tr, rtol=1e-12)
        # eigenvalues of each matrix sum to the trace
        t0 = np.diag(d[0]) + np.diag(e[0], 1) + np.diag(e[0], -1)
        assert np.linalg.eigvalsh(t0).sum() == pytest.approx(tr[0], rel=1e-12)

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
    save_batch(batch, path)
    back = load_batch(path)
    assert np.array_equal(back.values, batch.values)
    assert back.params == batch.params
    assert back.seed == batch.seed and back.count == batch.count


def test_batch_count_mismatch():
    p = params_new(2.0, 2, 3)
    with pytest.raises(DomainError):
        SampleBatch(p, 0, np.zeros(3), 5)


# ---------- Kolmogorov machinery ----------

def test_kolmogorov_sf_against_scipy():
    for t in (0.05, 0.2, 0.4, 0.7, 0.9, 1.0, 1.1, 1.5, 2.0, 3.0):
        assert kolmogorov_sf(t) == pytest.approx(
            float(scipy.special.kolmogorov(t)), abs=1e-14
        )
    assert kolmogorov_sf(0.0) == 1.0
    assert kolmogorov_sf(-1.0) == 1.0


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


def test_ks_validate_errors():
    p = params_new(2.0, 2, 3)
    empty = SampleBatch(p, 0, np.zeros(0), 0)
    with pytest.raises(EmptySample):
        ks_validate(empty, lambda x: x)
    batch = run_batch(p, 16, seed=0)
    with pytest.raises(DomainError):
        ks_validate(batch, lambda x: x, level=1.5)


def test_ks_two_sample():
    p = params_new(2.0, 2, 3)
    a = run_batch(p, 6000, seed=21).values
    b = run_batch(p, 6000, seed=22).values
    assert ks_two_sample(a, b, level=0.01).passed
    assert not ks_two_sample(a, b + 0.05, level=0.01).passed
    with pytest.raises(EmptySample):
        ks_two_sample(a, np.zeros(0))
