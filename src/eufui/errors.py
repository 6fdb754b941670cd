"""Error types shared across the package, with the CLI exit-code mapping."""
from __future__ import annotations


class EufUiError(Exception):
    """Base class for all errors raised by this package."""

    exit_code = 1


class InputError(EufUiError):
    """Malformed or ill-typed problem text; carries a source position."""

    exit_code = 2

    def __init__(self, message: str, line: int | None = None, col: int | None = None):
        self.line = line
        self.col = col
        if line is not None:
            message = f"{line}:{col}: {message}"
        super().__init__(message)


class ResourceLimitError(EufUiError):
    """A configured cap was hit (branches, clauses, cubes, cdags, time)."""

    exit_code = 3

    def __init__(self, message: str, stats: dict | None = None):
        super().__init__(message)
        self.stats = stats or {}

