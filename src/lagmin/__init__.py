"""Smallest-eigenvalue laws of the fixed-trace beta-Laguerre ensemble.

Exact finite-size survival function / density / moments for any beta > 0
with integer Jack index, an independent beta=2 determinant route, the
hard-edge scaling limit, and a matrix-model Monte Carlo sampler with
KS validation.  See the command-line tool `lagmin` for a quick tour.
"""

from .core import EnsembleParams, params_new, require_jack_index
from .errors import (
    DivergenceError,
    DomainError,
    EigensolverFailure,
    EmptySample,
    NonIntegerJackIndex,
    PrecisionWarning,
)
from .exact import (
    moment,
    p_exact,
    q_exact,
    q_oracle_n2,
)
from .beta2 import (
    det_laguerre,
    q_alpha2_sum,
    q_exact_beta2,
)
from .limit import (
    LimitParams,
    p_limit,
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
    tridiag_smallest,
    write_batch,
)

__version__ = "0.1.0"

__all__ = [
    "DivergenceError",
    "DomainError",
    "EigensolverFailure",
    "EmptySample",
    "EnsembleParams",
    "KSReport",
    "LimitParams",
    "NonIntegerJackIndex",
    "PrecisionWarning",
    "SampleBatch",
    "bessel_i",
    "det_laguerre",
    "kolmogorov_sf",
    "ks_two_sample",
    "ks_validate",
    "load_batch",
    "moment",
    "p_exact",
    "p_limit",
    "params_new",
    "prefactor_diagnostics",
    "q_alpha2_sum",
    "q_exact",
    "q_exact_beta2",
    "q_limit",
    "q_limit_closed",
    "q_oracle_n2",
    "require_jack_index",
    "run_batch",
    "tridiag_smallest",
    "write_batch",
]
