"""Smallest-eigenvalue laws of the fixed-trace beta-Laguerre ensemble.

Exact finite-size survival function / density / moments for any beta > 0
with integer Jack index, an independent beta=2 determinant route, the
hard-edge scaling limit, and a matrix-model Monte Carlo sampler with
KS validation.  See the command-line tool `lagmin` for a quick tour.
"""

from .core import (
    DEFAULT_ACCURACY,
    EnsembleParams,
    SeriesAccuracy,
    params_new,
    require_jack_index,
)
from .errors import (
    DivergenceError,
    DomainError,
    EigensolverFailure,
    EmptySample,
    NonIntegerJackIndex,
    NumericalInconsistency,
    PrecisionWarning,
)
from .exact import (
    moment,
    norm_const,
    norm_const_log,
    p_exact,
    q_exact,
    q_oracle_n2,
)
from .beta2 import (
    RationalPolynomial,
    det_laguerre,
    laguerre_poly,
    q_alpha2_sum,
    q_exact_beta2,
)
from .jack import (
    JackTable,
    Partition,
    enumerate_partitions,
    gen_factorial,
    hyper_pfq_equal,
    jack_c_one,
    pochhammer,
)
from .limit import (
    LimitParams,
    limit_prefactor,
    p_limit,
    p_limit_printed,
    prefactor_diagnostics,
    q_limit,
    q_limit_closed,
)
from .numerics import bessel_i
from .sampler import (
    KSReport,
    SampleBatch,
    kolmogorov_sf,
    ks_two_sample,
    ks_validate,
    load_batch,
    run_batch,
    save_batch,
    tridiag_smallest,
    write_batch,
)

__version__ = "0.1.0"

__all__ = [
    "DEFAULT_ACCURACY",
    "DivergenceError",
    "DomainError",
    "EigensolverFailure",
    "EmptySample",
    "EnsembleParams",
    "JackTable",
    "KSReport",
    "LimitParams",
    "NonIntegerJackIndex",
    "NumericalInconsistency",
    "Partition",
    "PrecisionWarning",
    "RationalPolynomial",
    "SampleBatch",
    "SeriesAccuracy",
    "bessel_i",
    "det_laguerre",
    "enumerate_partitions",
    "gen_factorial",
    "hyper_pfq_equal",
    "jack_c_one",
    "kolmogorov_sf",
    "ks_two_sample",
    "ks_validate",
    "laguerre_poly",
    "limit_prefactor",
    "load_batch",
    "moment",
    "norm_const",
    "norm_const_log",
    "p_exact",
    "p_limit",
    "p_limit_printed",
    "params_new",
    "pochhammer",
    "prefactor_diagnostics",
    "q_alpha2_sum",
    "q_exact",
    "q_exact_beta2",
    "q_limit",
    "q_limit_closed",
    "q_oracle_n2",
    "require_jack_index",
    "run_batch",
    "save_batch",
    "tridiag_smallest",
    "write_batch",
]
