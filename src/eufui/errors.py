"""Error types and the run budget that raises them; the CLI alone maps them to exit codes."""
from __future__ import annotations

import time
from dataclasses import dataclass


class EufUiError(Exception):
    """Base class for all errors raised by this package."""


class InputError(EufUiError):
    """Malformed or ill-typed problem text; carries a source position."""

    def __init__(self, message: str, line: int | None = None, col: int | None = None):
        self.line = line
        self.col = col
        if line is not None:
            message = f"{line}:{col}: {message}"
        super().__init__(message)


class ResourceLimitError(EufUiError):
    """A configured cap was hit (branches, clauses, cubes, cdags, time)."""

    def __init__(self, message: str, stats: dict | None = None):
        super().__init__(message)
        self.stats = stats or {}


# Counter name -> (Budget field holding its cap, message raised past the cap).
_CAPS = {
    "branches_explored": ("max_branches", "branch limit exceeded"),
    "clauses_created": ("max_clauses", "clause limit exceeded"),
    "cdags_visited": ("max_cdags", "conditional DAG limit exceeded"),
    "cubes_spent": ("max_cubes", "cube budget exceeded in EUF validity check"),
}


@dataclass(frozen=True)
class Budget:
    """The deadline and every work cap of a run, shared by all layers.

    `deadline` is absolute `time.monotonic()` seconds, or None for no limit.
    Each cap bounds one counter in the calling layer's stats dict, and a
    limit that trips raises ResourceLimitError carrying that dict.
    """

    deadline: float | None = None
    max_branches: int = 1_000_000
    max_clauses: int = 100_000
    max_cdags: int = 1_000_000
    max_cubes: int = 1 << 20

    def check_time(self, stats: dict) -> None:
        """Raise `timeout exceeded` with stats once the deadline has passed."""
        if self.deadline is not None and time.monotonic() > self.deadline:
            raise ResourceLimitError("timeout exceeded", stats)

    def count(self, stats: dict, key: str) -> None:
        """Add one to stats[key]; raise once it passes that counter's cap."""
        stats[key] += 1
        cap, message = _CAPS[key]
        if stats[key] > getattr(self, cap):
            raise ResourceLimitError(message, stats)
