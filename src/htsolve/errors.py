"""Exception types shared across the package."""

__all__ = [
    "HTSolveError",
    "InvalidDimensionError",
    "ToleranceInfeasibleError",
    "ContractionViolationError",
]


class HTSolveError(Exception):
    """Base class for package-specific errors."""


class InvalidDimensionError(HTSolveError, ValueError):
    """Raised when a dimension tree or tensor order is out of range."""


class ToleranceInfeasibleError(HTSolveError, RuntimeError):
    """Raised when a requested accuracy cannot be certified.

    Examples: an exponential-sum table would need more terms than the hard
    cap allows, or an accuracy budget cannot be split into feasible parts.
    """


class ContractionViolationError(HTSolveError, RuntimeError):
    """Raised when an iteration that should contract fails to make progress,
    which indicates inconsistent operator bounds or parameters."""
