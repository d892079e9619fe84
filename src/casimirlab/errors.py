"""The package's four exception classes; the code raising a ParseError sets its file."""


class ParseError(ValueError):
    """Malformed input file; carries the offending line number and file when known."""

    def __init__(self, message, line=None, path=None):
        self.reason, self.line, self.path = message, line, path
        if line is not None:
            message = f"{message} at line {line}"
        if path is not None:
            message = f"{path}: {message}"
        super().__init__(message)

    def __reduce__(self):  # pickled with its line and file, not the joined message
        return type(self), (self.reason, self.line, self.path)


class ConvergenceError(RuntimeError):
    """A numerical scheme failed to converge; the message states where, and
    its last estimate and last change."""


class FitError(RuntimeError):
    """A fit failed (a step out of its box, no convergence, ...), or its inputs
    cannot be fitted, as a spring-constant calibration from a scan at zero
    applied voltage."""


class DataError(ValueError):
    """A value outside what a model, a series or an analysis step can use:
    a separation outside a correction's or the proximity regime, or data
    that does not satisfy an analysis step's preconditions."""
