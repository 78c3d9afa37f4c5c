"""Exception types shared across the package."""


class SinetError(Exception):
    """Base class for all package-specific errors."""


class InsufficientDataError(SinetError, ValueError):
    """A series is too short (or empty) for the requested operation."""


class SingularityError(SinetError, ValueError):
    """Evaluation at or beyond the critical time of a finite-time singularity.

    Carries the critical time so callers can clip their evaluation grid.
    """

    def __init__(self, t_c: float, message: str | None = None):
        self.t_c = t_c
        super().__init__(message or f"price diverges at critical time t_c={t_c!r}")


class NumericalFailureError(SinetError, ArithmeticError):
    """A recursion produced a non-finite or zero normalizer.

    ``step`` is the time index at which the failure occurred.
    """

    def __init__(self, step: int, message: str | None = None):
        self.step = step
        super().__init__(message or f"numerical failure at step {step}")


class CollinearityError(SinetError, ValueError):
    """A regressor matrix is rank deficient. ``column`` names the offender."""

    def __init__(self, column: int, message: str | None = None):
        self.column = column
        super().__init__(message or f"regressor column {column!r} is collinear")


class ConvergenceError(SinetError, ArithmeticError):
    """An iterative evaluation did not converge within its bound."""


class UndefinedCorrelationError(SinetError, ValueError):
    """A correlation statistic is undefined (e.g. zero variance input)."""

    def __init__(self, statistic: str, message: str | None = None):
        self.statistic = statistic
        super().__init__(message or f"{statistic} correlation undefined for this input")


class ConfigurationError(SinetError, ValueError):
    """Invalid pipeline or node-group configuration."""
