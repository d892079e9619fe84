"""Exception types shared across the package."""


class CasimirLabError(Exception):
    """Base class for package-specific errors."""


class ParseError(CasimirLabError, ValueError):
    """Malformed input file; carries the offending line number when known."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"{message} at line {line}"
        super().__init__(message)
        self.line = line


class ValidityError(CasimirLabError, ValueError):
    """Input is outside the validity regime of a model or series."""


class ConvergenceError(CasimirLabError, RuntimeError):
    """Numerical scheme failed to converge; carries the last estimate."""

    def __init__(self, message, estimate=None, error_bound=None):
        super().__init__(message)
        self.estimate = estimate
        self.error_bound = error_bound


class FitError(CasimirLabError, RuntimeError):
    """A fit failed (bracket edge, non-unimodal objective, ...)."""


class DataError(CasimirLabError, ValueError):
    """Data does not satisfy the preconditions of an analysis step."""


class CalibrationError(CasimirLabError, ValueError):
    """Calibration inputs are unusable (zero voltage, force already present, ...)."""
