"""Exception types shared across the package.

Each class maps to one CLI exit code (see cli.EXIT_CODES) so scripted
pipelines can branch on failure class.
"""


class TwophaseError(Exception):
    """Base class for all package errors."""


class PartitionError(TwophaseError):
    """A record matched zero or more than one leaf stratum."""


class LedgerError(TwophaseError):
    """Design ledger is internally inconsistent with the records."""


class InfeasibleError(TwophaseError):
    """A sample allocation cannot be satisfied by the remaining population."""


class DegenerateDesignError(TwophaseError):
    """Every stratum a wave can draw from has zero influence spread, so
    Neyman allocation is undefined (raised by ``allocation.multiwave``)."""


class ConvergenceError(TwophaseError):
    """An iterative fit failed to converge."""

    def __init__(self, message, iterations=None, gradient_norm=None):
        super().__init__(message)
        self.iterations = iterations
        self.gradient_norm = gradient_norm


class CalibrationError(TwophaseError):
    """Raking constraints cannot be met (totals outside the achievable hull)."""


class IllConditionedError(TwophaseError):
    """A covariance estimate has no usable positive spectrum."""


class UnidentifiedModelError(IllConditionedError, ValueError):
    """The data are too few to identify the model: too few subjects, or
    too few observations per subject or inside the fitting domain.

    It is also a ValueError, so a caller that catches these inputs as
    invalid values still does.
    """


class DomainError(TwophaseError):
    """Requested evaluation point lies outside the supported domain."""


class SchemaError(TwophaseError):
    """An input file or argument does not conform to its declared schema."""
