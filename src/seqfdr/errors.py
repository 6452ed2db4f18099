"""Exception hierarchy shared across the package.

The CLI maps these onto exit codes: ConfigError -> 2, DataError -> 3,
NumericalError -> 4.  Plain ValueError from argument validation is treated
as a configuration problem.
"""

from __future__ import annotations


class SeqFdrError(Exception):
    """Base class for package-specific failures."""


class ConfigError(SeqFdrError):
    """A configuration value is missing, malformed, or inconsistent."""


class DataError(SeqFdrError):
    """Input data is unusable (parse failures, exhausted streams)."""


class DrugTableError(DataError):
    """A drug report table failed structural validation."""


class DataUnderrunError(DataError):
    """A stream ran out of observations before every decision was made."""

    def __init__(self, message: str, state=None):
        super().__init__(message)
        self.state = state


class NumericalError(SeqFdrError):
    """An internal numerical routine failed or produced nonsense."""


class BoundaryCollapseError(NumericalError):
    """A lower critical value exceeded its upper counterpart."""


class FactorizationError(NumericalError):
    """Matrix factorization failed (not positive definite)."""


class SolverError(NumericalError):
    """The linear-programming solver failed to converge."""
