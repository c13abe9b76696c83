"""Exception types shared across the package."""


class NlstefanError(Exception):
    """Base class for all package errors."""


class InvalidExponentError(NlstefanError):
    """Raised when (s, p) leave the admissible range 0 < s < 1, p > 2."""


class InvalidParamsError(NlstefanError):
    """Raised when iteration or solver parameters violate their contract."""


class EmptyWindowError(NlstefanError):
    """Raised when a time window contains no stored samples."""


class EmptyCylinderError(NlstefanError):
    """Raised when a space-time cylinder contains no lattice samples."""


class DegenerateCutoffError(NlstefanError):
    """Raised when a cutoff vanishes at every node of its ball."""


class NewtonDivergenceError(NlstefanError):
    """Raised when the inner Newton solve fails to reach tolerance.

    Carries the last iterate and the per-iteration residual history so a
    caller can inspect or restart.
    """

    def __init__(self, message, last_iterate=None, residuals=None):
        super().__init__(message)
        self.last_iterate = last_iterate
        self.residuals = list(residuals) if residuals is not None else []


class InsufficientSamplesError(NlstefanError):
    """Raised when a fit is requested with fewer usable samples than unknowns."""


class NonpositiveExcessError(NlstefanError):
    """Raised when every oscillation sample sits at or below the 4*eps floor."""


class UnresolvedBandError(NlstefanError):
    """Raised when the sign of the limit field cannot be resolved on too
    large a fraction of the samples."""


class InconsistentFamilyError(NlstefanError):
    """Raised when fewer than two members of a regularization family
    succeed, leaving no distance to report."""


class SchemaViolationError(NlstefanError):
    """Raised on run-config validation failure; aggregates all violations."""

    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("; ".join(self.violations))
