"""Exception types shared across the package."""

import functools
import os


class CasimirLabError(Exception):
    """Base class for package-specific errors."""


class ParseError(CasimirLabError, ValueError):
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


def names_its_file(read):
    """Decorate a reader whose first argument is a path or a file object: a
    ParseError raised while it reads a path names that file."""

    @functools.wraps(read)
    def wrapper(source, *args, **kwargs):
        try:
            return read(source, *args, **kwargs)
        except ParseError as exc:
            if exc.path is not None or not isinstance(source, (str, os.PathLike)):
                raise
            raise ParseError(exc.reason, exc.line, source) from exc

    return wrapper


class ValidityError(CasimirLabError, ValueError):
    """Input is outside the validity regime of a model or series."""


class ConvergenceError(CasimirLabError, RuntimeError):
    """Numerical scheme failed to converge; carries the last estimate."""

    def __init__(self, message, estimate=None, error_bound=None):
        super().__init__(message)
        self.estimate = estimate
        self.error_bound = error_bound


class FitError(CasimirLabError, RuntimeError):
    """A fit failed (bracket edge, non-unimodal objective, ...), or its inputs
    cannot be fitted, as a spring-constant calibration from a scan at zero
    applied voltage."""


class DataError(CasimirLabError, ValueError):
    """Data does not satisfy the preconditions of an analysis step."""
