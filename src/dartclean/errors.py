"""Exception hierarchy shared across the package.

The CLI maps these onto exit codes: ConfigError -> 2, DataError (a
ParseError or ShapeError among them) -> 3, NumericError -> 4, and any
other error of the package, or a ``MemoryError``, -> 1.
"""


class DartCleanError(Exception):
    """Base class for all package errors."""


class ConfigError(DartCleanError):
    """Invalid configuration value or combination."""


class DataError(DartCleanError):
    """Bad or insufficient input data (parse failures, short series, ...)."""


class ParseError(DataError):
    """Malformed input file; carries the offending line number when known."""

    def __init__(self, message, line_number=None):
        if line_number is not None:
            message = f"line {line_number}: {message}"
        super().__init__(message)
        self.line_number = line_number


class ShapeError(DataError):
    """Array shape inconsistent with the declared architecture."""


class NumericError(DartCleanError):
    """Non-finite values or divergence during numeric computation."""
