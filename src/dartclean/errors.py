"""Exception hierarchy shared across the package.

Each class carries ``exit_status``, the status the CLI exits with when the
error reaches it, and ``label``, which starts the one line the CLI prints
for it; a subclass that sets neither, such as ``ParseError``, ``ShapeError``
or ``trainer.DivergenceError``, takes its base class's.
"""


class DartCleanError(Exception):
    """Base class for all package errors."""
    exit_status, label = 1, "error"


class ConfigError(DartCleanError):
    """Invalid configuration value or combination."""
    exit_status, label = 2, "config error"


class DataError(DartCleanError):
    """Bad or insufficient input data (parse failures, short series, ...)."""
    exit_status, label = 3, "data error"


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
    exit_status, label = 4, "numeric error"
