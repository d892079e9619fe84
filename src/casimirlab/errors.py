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


class ConvergenceError(CasimirLabError, RuntimeError):
    """A numerical scheme failed to converge; the message states where, and
    its last estimate and last change."""


class FitError(CasimirLabError, RuntimeError):
    """A fit failed (bracket edge, non-unimodal objective, ...), or its inputs
    cannot be fitted, as a spring-constant calibration from a scan at zero
    applied voltage."""


class DataError(CasimirLabError, ValueError):
    """A value outside what a model, a series or an analysis step can use:
    a separation outside a correction's or the proximity regime, or data
    that does not satisfy an analysis step's preconditions."""
