"""Errors of the array-side modules that the CLI turns into exit codes.

``constraints`` and ``verify`` raise these and re-export them under their
own names.  They live here, apart from numpy, so that ``cli.main`` can catch
them without importing either module.
"""

from __future__ import annotations

__all__ = [
    "RejectionCapError",
    "ConfigurationError",
    "GridCoverageError",
    "InsufficientRetentionError",
]


class RejectionCapError(RuntimeError):
    """Rejection sampling exhausted its attempt budget."""

    def __init__(self, message: str, *, attempts: int, accepted: int):
        super().__init__(message)
        self.attempts = attempts
        self.accepted = accepted
        self.acceptance_rate = accepted / attempts if attempts else 0.0


class ConfigurationError(ValueError):
    """A constraint kind does not fit the shape of the model it is attached to."""


class GridCoverageError(ValueError):
    """The evaluation grid misses a non-negligible share of the product mass."""


class InsufficientRetentionError(RuntimeError):
    """Too few draws survived the epsilon band to run the KS test."""
