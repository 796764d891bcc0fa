"""Exception hierarchy shared across the package."""


class CfOracleError(Exception):
    """Base class for all package-specific errors."""


class ValidationError(CfOracleError):
    """An object violates one of its declared invariants."""


class DomainError(CfOracleError):
    """A value lies outside the variable range of the model at hand."""


class ContractViolationError(CfOracleError):
    """An operation was called with arguments that break its contract."""


class UndefinedConditionalError(CfOracleError):
    """Conditioning on evidence that has probability zero."""


class EnumerationCapError(CfOracleError):
    """A full enumeration would exceed ``core.DEFAULT_ENUMERATION_CAP``."""


class ExtractionError(CfOracleError):
    """A density-matrix element cannot be converted into a joint probability
    (zero amplitude at one of the requested inputs, or a non-physical value)."""


class MeasurementInconsistencyError(CfOracleError):
    """Measured statistics admit no valid probability distribution."""

    def __init__(self, message: str, residual=None):
        super().__init__(message)
        self.residual = residual


class InfeasibleSystemError(CfOracleError):
    """The affine constraint system has no nonnegative solution.

    Carries a Farkas-style certificate: a row multiplier vector ``y`` with
    ``y . b > 0`` while every column satisfies ``y . A_j <= 0``.
    """

    def __init__(self, message: str, residual=None, certificate=None):
        super().__init__(message)
        self.residual = residual
        self.certificate = certificate


class InternalCheckError(CfOracleError):
    """An exact self-check of a computed result failed.

    Raised where a solver verifies its own output (a Farkas certificate, a
    vertex on the optimal face, an inverted matrix); it signals a bug in
    this package, not bad input.
    """


class UnboundedProgramError(CfOracleError):
    """The linear program is unbounded in the requested direction."""


class UnsupportedTableError(CfOracleError):
    """The operation is only defined for binary function tables."""
