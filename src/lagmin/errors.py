"""Exception types shared across the package."""


class DomainError(ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class NonIntegerJackIndex(DomainError):
    """The Jack series index m = (beta/2)(M - N + 1 - 2/beta) is not a
    nonnegative integer, so the partition-series formulas do not apply.

    The Monte Carlo route still covers such parameters."""


class DivergenceError(ArithmeticError):
    """A series failed to meet its tail tolerance within the term cap."""


class EigensolverFailure(RuntimeError):
    """Bisection failed to bracket the requested eigenvalue."""


class EmptySample(ValueError):
    """A statistical operation received an empty batch."""


class PrecisionWarning(UserWarning):
    """Emitted when parameters leave the validated accuracy envelope
    (the table core.ENVELOPES; core.warn_outside issues it).

    Results are still returned; accuracy beyond the envelope is
    best-effort rather than guaranteed."""
