import ast
import importlib
import inspect
import math
import pkgutil
import warnings
from pathlib import Path

import numpy as np
import pytest

import lagmin
from lagmin import core, errors
from lagmin.core import EnsembleParams, params_new, require_jack_index
from lagmin.errors import DomainError, NonIntegerJackIndex, PrecisionWarning
from lagmin.exact import moment, p_exact, q_exact, q_oracle_n2
from lagmin.beta2 import det_laguerre, q_alpha2_sum, q_exact_beta2
from lagmin.limit import (
    LimitParams,
    _p_limit_printed,
    p_limit,
    prefactor_diagnostics,
    q_limit,
    q_limit_closed,
)
from lagmin.numerics import bessel_i
from lagmin.sampler import SampleBatch, run_batch


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


def test_direct_constructor_rejects_bad_fields():
    with pytest.raises(DomainError):
        EnsembleParams(beta=2.0, n_dim=2, m_dim=1)
    with pytest.raises(DomainError):
        EnsembleParams(beta=2.0, n_dim=3.5, m_dim=5)


def test_derived_fields_cannot_be_passed():
    # alpha and m are functions of (beta, N, M): a caller cannot name another law
    with pytest.raises(TypeError):
        EnsembleParams(beta=2.0, n_dim=3, m_dim=5, alpha=2.0, jack_index=7)
    with pytest.raises(TypeError):
        EnsembleParams(beta=2.0, n_dim=3, m_dim=5, jack_index=2)


@pytest.mark.parametrize("beta", [2.0, 1.0, 4.0, 2.0 / 3.0, 0.7, 3])
def test_direct_constructor_is_params_new(beta):
    xs = [0.0, 0.01, 0.05, 0.1, 0.2]
    for n in (1, 2, 3, 5):
        for m_dim in range(n, n + 3):
            direct, built = EnsembleParams(beta, n, m_dim), params_new(beta, n, m_dim)
            assert direct == built and hash(direct) == hash(built)
            assert (direct.beta, direct.alpha, direct.jack_index) == (
                built.beta, built.alpha, built.jack_index)
            if built.jack_index is not None:
                assert q_exact(direct, xs).tolist() == q_exact(built, xs).tolist()
                assert moment(direct, 1) == moment(built, 1)


def test_nonfinite_and_tiny_beta():
    for beta in (math.inf, -math.inf, math.nan):
        with pytest.raises(DomainError):
            params_new(beta, 3, 5)
        with pytest.raises(DomainError):
            EnsembleParams(beta=beta, n_dim=3, m_dim=5)
    # 2/beta swamps M - N + 1 in alpha; the derived fields stay consistent
    p = params_new(1e-300, 3, 5)
    assert p.alpha == 5 - 3 + 1 - 2.0 / 1e-300 and p.jack_index is None


@pytest.mark.parametrize("make", [
    lambda: params_new(None, 2, 3),
    lambda: params_new("abc", 2, 3),
    lambda: LimitParams(None, 1),
], ids=["none", "text", "limit-none"])
def test_non_numeric_beta_is_domain_error(make):
    with pytest.raises(DomainError, match="beta must be a number"):
        make()


def test_beta_past_the_float_range():
    for beta in (10**400, -(10**400)):
        with pytest.raises(DomainError, match="positive and finite"):
            params_new(beta, 2, 3)


@pytest.mark.parametrize("int_type", [np.int64, np.int32])
def test_numpy_integer_dimensions(int_type):
    # N and M taken from a numpy array build the same law, equal and with
    # the same hash, so a cache keyed by the params (_series_coeffs) hits
    plain = params_new(2.0, 3, 5)
    for p in (params_new(2.0, int_type(3), 5), params_new(2.0, int_type(3), int_type(5)),
              EnsembleParams(2.0, int_type(3), int_type(5))):
        assert p == plain and hash(p) == hash(plain)
        assert type(p.n_dim) is int and type(p.m_dim) is int
        assert (p.alpha, p.jack_index) == (plain.alpha, plain.jack_index)
    for flag in (True, np.True_, np.False_):
        with pytest.raises(DomainError, match="got bool"):
            params_new(2.0, flag, 5)
    with pytest.raises(DomainError):
        params_new(2.0, 3, np.float64(5.5))


def _modules():
    return [importlib.import_module(f"lagmin.{info.name}")
            for info in pkgutil.iter_modules(lagmin.__path__)]


def test_every_error_class_is_raised():
    # an error class that no code of the package raises (or, for a warning,
    # issues) is dead: every class of lagmin.errors must be named in a
    # raise statement or passed to a warn call somewhere in src/lagmin
    defined = {name for name, obj in vars(errors).items()
               if isinstance(obj, type) and obj.__module__ == errors.__name__}
    used = set()
    for path in Path(lagmin.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                used.add(getattr(exc, "id", None))
            if isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "warn":
                used.update(arg.id for arg in node.args if isinstance(arg, ast.Name))
    assert defined and defined - used == set()


def test_every_cache_is_bounded():
    # an lru_cache without maxsize grows with every distinct argument
    caches = []
    for module in _modules():
        for name, obj in vars(module).items():
            params = getattr(obj, "cache_parameters", None)
            if callable(params) and getattr(obj, "__module__", None) == module.__name__:
                caches.append((f"{module.__name__}.{name}", params()["maxsize"]))
    assert len(caches) >= 7  # the walk reaches the known caches
    unbounded = [name for name, maxsize in caches if maxsize is None]
    assert unbounded == []


# ---------- the accuracy policy: one envelope table, one warner ----------


def test_only_core_warns_or_holds_envelopes():
    # the envelope bounds live in core.ENVELOPES and only core.warn_outside
    # issues PrecisionWarning: no other module names the class in its code
    # or calls a warn function
    offenders = []
    for module in _modules():
        offenders += [f"{module.__name__}.{name}" for name in vars(module)
                      if name.endswith("_ENVELOPE")]
        if module is core:
            continue
        for node in ast.walk(ast.parse(inspect.getsource(module))):
            if isinstance(node, ast.Name) and node.id == "PrecisionWarning":
                offenders.append(f"{module.__name__}: PrecisionWarning at line {node.lineno}")
            if isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "warn":
                offenders.append(f"{module.__name__}: warn() at line {node.lineno}")
    assert offenders == []


def _recorded(call, **kw):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        call(**kw)
    return caught


# one call per route of the table, taking that row's parameters by name
ROUTE_CALLS = {
    "exact": lambda N=2, m=0: q_exact(params_new(2.0, N, N + m), 0.0),
    "beta2": lambda N=2, alpha=0: q_exact_beta2(N, N + alpha, 0.0),
    "limit": lambda y=1.0, m=0: q_limit(LimitParams(2.0, m), y),
    "bessel": lambda x=1.0: bessel_i(0.0, x),
    "oracle_n2": lambda beta=2.0, M=4: q_oracle_n2(params_new(beta, 2, M), 0.1),
}
# lower bounds that are domain edges: just past them the call is rejected
DOMAIN_EDGES = {("exact", "N"), ("exact", "m"), ("beta2", "N"), ("beta2", "alpha"),
                ("limit", "y"), ("limit", "m"), ("bessel", "x"), ("oracle_n2", "M")}


def test_every_route_has_a_call():
    assert set(ROUTE_CALLS) == set(core.ENVELOPES)


@pytest.mark.parametrize("route,name,side", [
    (route, name, side) for route, row in core.ENVELOPES.items() for name in row
    for side in (-1, 1)
])
def test_envelope_bound_is_inside_and_just_past_warns(route, name, side):
    bound = core.ENVELOPES[route][name][side > 0]
    assert _recorded(ROUTE_CALLS[route], **{name: bound}) == []
    past = bound + side if isinstance(bound, int) else math.nextafter(bound, side * math.inf)
    if side < 0 and (route, name) in DOMAIN_EDGES:
        with pytest.raises(DomainError):
            ROUTE_CALLS[route](**{name: past})
        return
    caught = _recorded(ROUTE_CALLS[route], **{name: past})
    assert [w.category for w in caught] == [PrecisionWarning]
    assert "envelope" in str(caught[0].message)


OUTSIDE_CALLS = {
    "q_exact": lambda: q_exact(params_new(2.0, 51, 51), [0.0, 0.01]),
    "p_exact": lambda: p_exact(params_new(2.0, 2, 9), 0.1),
    "moment": lambda: moment(params_new(2.0, 51, 51), 2),
    "q_exact_beta2": lambda: q_exact_beta2(3, 10, [0.0, 0.1]),
    "q_oracle_n2": lambda: q_oracle_n2(params_new(8.5, 2, 4), [0.1, 0.2]),
    "q_limit": lambda: q_limit(LimitParams(2.0, 1), [1.0, 150.0, 200.0]),
    "p_limit": lambda: p_limit(LimitParams(2.0, 7), 1.0),
    "p_limit_printed": lambda: _p_limit_printed(LimitParams(2.0, 1), [150.0, 160.0]),
    "prefactor_diagnostics": lambda: prefactor_diagnostics(LimitParams(2.0, 1), [150.0]),
    "q_limit_closed": lambda: q_limit_closed(LimitParams(2.0, 2), 5000.0),  # two Bessel factors
    "bessel_i": lambda: bessel_i(0.0, 70.0),
}


@pytest.mark.parametrize("name", sorted(OUTSIDE_CALLS))
def test_one_warning_per_call_attributed_to_the_caller(name):
    caught = _recorded(OUTSIDE_CALLS[name])
    assert [w.category for w in caught] == [PrecisionWarning]
    assert caught[0].filename == __file__


# ---------- the argument rules of the public surface ----------

_P35 = params_new(2.0, 3, 5)

# integer argument -> (call taking it, a valid value, a value below its bound)
INTEGER_ARGS = {
    "EnsembleParams.n_dim": (lambda v: params_new(2.0, v, 5), 3, 0),
    "EnsembleParams.m_dim": (lambda v: EnsembleParams(2.0, 3, v), 5, 2),
    "LimitParams.jack_index": (lambda v: LimitParams(2.0, v), 1, -1),
    "det_laguerre.n_dim": (lambda v: det_laguerre(v, 2), 3, 0),
    "det_laguerre.alpha": (lambda v: det_laguerre(3, v), 2, -1),
    "q_exact_beta2.n_dim": (lambda v: q_exact_beta2(v, 5, 0.1), 3, 0),
    "q_exact_beta2.m_dim": (lambda v: q_exact_beta2(3, v, 0.1), 5, 2),
    "q_alpha2_sum.n_dim": (lambda v: q_alpha2_sum(v, 0.1), 3, 0),
    "moment.p": (lambda v: moment(_P35, v), 2, 0),
    "run_batch.count": (lambda v: run_batch(_P35, v, 7), 20, 0),
    "run_batch.seed": (lambda v: run_batch(_P35, 20, v), 7, -1),
    "run_batch.workers": (lambda v: run_batch(_P35, 20, 7, v), 2, 0),
}


def _same(a, b):
    if isinstance(a, SampleBatch):
        return type(b.seed) is int and (a.seed, a.values.tolist()) == (b.seed, b.values.tolist())
    return a == b


@pytest.mark.parametrize("name", sorted(INTEGER_ARGS))
def test_one_integer_rule(name):
    call, good, below = INTEGER_ARGS[name]
    plain = call(good)
    for same in (np.int64(good), np.int32(good), float(good)):
        assert _same(plain, call(same))
    for bad in (True, 2.5, "3", below):
        with pytest.raises(DomainError):
            call(bad)


# point argument -> (call taking it, whether an array is refused)
POINT_ARGS = {
    "q_exact.x": (lambda v: q_exact(_P35, v), False),
    "p_exact.x": (lambda v: p_exact(_P35, v), False),
    "q_oracle_n2.x": (lambda v: q_oracle_n2(params_new(1.3, 2, 4), v), False),
    "q_exact_beta2.x": (lambda v: q_exact_beta2(3, 5, v), False),
    "q_alpha2_sum.x": (lambda v: q_alpha2_sum(3, v), True),
    "q_limit.y": (lambda v: q_limit(LimitParams(2.0, 1), v), False),
    "p_limit.y": (lambda v: p_limit(LimitParams(2.0, 1), v), False),
    "q_limit_closed.y": (lambda v: q_limit_closed(LimitParams(2.0, 1), v), True),
    "bessel_i.x": (lambda v: bessel_i(0.5, v), True),
    "bessel_i.rho": (lambda v: bessel_i(v, 1.0), True),
}


@pytest.mark.parametrize("name", sorted(POINT_ARGS))
def test_one_point_rule(name):
    call, scalar_only = POINT_ARGS[name]
    value = call(0.1)
    assert call(np.float64(0.1)) == value
    bad = [math.nan, -1.0, "abc", "0.1", True] + ([np.array([0.1, 0.2])] if scalar_only else [])
    for v in bad:
        with pytest.raises(DomainError):
            call(v)
    if not scalar_only:
        assert call(np.array([0.1, 0.2]))[0] == value


def test_prefactor_diagnostics_takes_a_grid():
    lp = LimitParams(2.0, 1)
    assert prefactor_diagnostics(lp, np.array([0.5, 1.0])) == prefactor_diagnostics(lp, [0.5, 1.0])
    for ys in (1.0, [0.5, math.nan], [-1.0], ["abc"], [[0.5], [1.0, 2.0]]):
        with pytest.raises(DomainError):
            prefactor_diagnostics(lp, ys)
