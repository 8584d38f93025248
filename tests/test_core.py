import math

import pytest

from lagmin.core import EnsembleParams, SeriesAccuracy, params_new, require_jack_index
from lagmin.errors import DomainError, NonIntegerJackIndex


def test_basic_derivation():
    p = params_new(2.0, 3, 7)
    assert p.beta == 2.0
    assert p.n_dim == 3 and p.m_dim == 7
    assert p.alpha == 7 - 3 + 1 - 1  # M - N + 1 - 2/beta
    assert p.jack_index == 4


def test_beta2_jack_index_is_rank_gap():
    # at beta=2 the index is just M - N, for every admissible pair
    for n in range(1, 21):
        for m in range(n, 21):
            assert params_new(2.0, n, m).jack_index == m - n


@pytest.mark.parametrize("m_dim,expected", [(2, None), (3, 0), (4, None), (5, 1), (6, None), (7, 2)])
def test_beta1_parity(m_dim, expected):
    # m = (M - N - 1)/2 exists only when M - N is odd
    assert params_new(1.0, 2, m_dim).jack_index == expected


def test_beta4_always_integer():
    for n in range(1, 8):
        for m in range(n, 12):
            assert params_new(4.0, n, m).jack_index == 2 * (m - n) + 1


def test_rational_beta():
    # beta = 2/3: m = (M - N - 2)/3
    assert params_new(2.0 / 3.0, 2, 4).jack_index == 0
    assert params_new(2.0 / 3.0, 2, 7).jack_index == 1
    assert params_new(2.0 / 3.0, 2, 5).jack_index is None
    # generic irrational-ish beta never has an integer index
    assert params_new(0.7, 3, 5).jack_index is None


def test_require_jack_index():
    assert require_jack_index(params_new(4.0, 2, 3)) == 3
    with pytest.raises(NonIntegerJackIndex):
        require_jack_index(params_new(1.0, 2, 4))


def test_validation_errors():
    with pytest.raises(DomainError):
        params_new(0.0, 2, 3)
    with pytest.raises(DomainError):
        params_new(-1.0, 2, 3)
    with pytest.raises(DomainError):
        params_new(2.0, 0, 3)
    with pytest.raises(DomainError):
        params_new(2.0, 3, 2)  # M < N
    with pytest.raises(DomainError):
        params_new(2.0, 2.5, 3)
    with pytest.raises(DomainError):
        params_new(2.0, True, 3)


def test_params_frozen():
    p = params_new(2.0, 2, 3)
    with pytest.raises(Exception):
        p.beta = 3.0


def test_alpha_lower_bound_holds_on_admissible_inputs():
    # alpha = M-N+1-2/beta > -2/beta whenever M >= N
    for beta in (0.3, 1.0, 2.0, 7.5):
        for n in (1, 2, 5):
            p = params_new(beta, n, n)
            assert p.alpha > -2.0 / beta


def test_series_accuracy():
    acc = SeriesAccuracy()
    assert acc.tail_tol == 1e-12 and acc.k_max == 500
    assert math.isfinite(SeriesAccuracy(tail_tol=1e-8, k_max=50).tail_tol)
    with pytest.raises(DomainError):
        SeriesAccuracy(tail_tol=0.0)
    with pytest.raises(DomainError):
        SeriesAccuracy(k_max=0)


def test_direct_constructor_rejects_bad_fields():
    with pytest.raises(DomainError):
        EnsembleParams(beta=2.0, n_dim=2, m_dim=1, alpha=0.0, jack_index=0)
    with pytest.raises(DomainError):  # alpha not derived from (beta, N, M)
        EnsembleParams(beta=2.0, n_dim=2, m_dim=3, alpha=-5.0, jack_index=None)


def test_nonfinite_and_tiny_beta():
    for beta in (math.inf, -math.inf, math.nan):
        with pytest.raises(DomainError):
            params_new(beta, 3, 5)
        with pytest.raises(DomainError):
            EnsembleParams(beta=beta, n_dim=3, m_dim=5, alpha=1.0, jack_index=None)
    # 2/beta swamps M - N + 1 in alpha; the derived fields stay consistent
    p = params_new(1e-300, 3, 5)
    assert p.alpha == 5 - 3 + 1 - 2.0 / 1e-300 and p.jack_index is None


def test_every_cache_is_bounded():
    # an lru_cache without maxsize grows with every distinct argument
    import importlib
    import pkgutil

    import lagmin

    caches = []
    for info in pkgutil.iter_modules(lagmin.__path__):
        module = importlib.import_module(f"lagmin.{info.name}")
        for name, obj in vars(module).items():
            params = getattr(obj, "cache_parameters", None)
            if callable(params) and getattr(obj, "__module__", None) == module.__name__:
                caches.append((f"{info.name}.{name}", params()["maxsize"]))
    assert len(caches) >= 7  # the walk reaches the known caches
    unbounded = [name for name, maxsize in caches if maxsize is None]
    assert unbounded == []
