"""Exception hierarchy shared by all hypertransfer modules."""

from __future__ import annotations


class HypertransferError(Exception):
    """Base class for all package-specific failures."""


class DomainError(HypertransferError, ValueError):
    """Input outside an operation's domain or supported range (bad
    determinant, in cocycle_beta a float det g <= 0, nonpositive height, an
    operator norm past sl2.MAX_NORM, a reduced point past float64, ...)."""


class ConvergenceError(HypertransferError, RuntimeError):
    """An iteration used up its steps without converging (a root search of
    regions._bracketed_root)."""


class AccuracyError(HypertransferError, RuntimeError):
    """Quadrature finished without reaching the requested tolerance.

    The estimate that WAS achieved is kept in ``achieved`` so callers can
    decide whether to accept the value anyway.
    """

    def __init__(self, message: str, achieved: float) -> None:
        super().__init__(f"{message} (achieved error estimate {achieved:.3e})")
        self.achieved = achieved
