"""Exception types shared across the package, and the horizon, finiteness and integer checks."""

import math
import numbers


class CubatureError(Exception):
    """Base class for all errors raised by this package."""


class InvalidWordError(CubatureError):
    """A multi-index contains a letter outside {0, ..., d}."""


class ContextMismatchError(CubatureError):
    """Two elements from incompatible algebra contexts were combined."""


class DomainError(CubatureError):
    """An argument violates the mathematical domain of an operation."""


def check_horizon(t):
    """t unless it is non-numeric, NaN, infinite or not positive: then DomainError."""
    if is_finite(t) and t > 0.0:
        return t
    raise DomainError(f"horizon must be positive and finite, got {t!r}")


def is_finite(x):
    """Whether x is a real number of any kind, numpy's included, other than NaN or an infinity."""
    # float and int first: the numbers.Real check alone costs ~10x math.isfinite
    return isinstance(x, (float, int, numbers.Real)) and math.isfinite(x)


def is_integer(k):
    """Whether k is an integer of any kind, numpy's included, other than a bool."""
    return isinstance(k, numbers.Integral) and not isinstance(k, bool)


class InvalidPathError(CubatureError):
    """A piecewise-linear path fails its structural invariants."""


class UnsupportedDegreeError(CubatureError):
    """No built-in formula exists for the requested degree."""


class NoFormulaFoundError(CubatureError):
    """The moment-matching solver could not reach the target tolerance."""

    def __init__(self, message, best_residual=None):
        super().__init__(message)
        self.best_residual = best_residual


class DirectionNotAttainableError(CubatureError):
    """The requested direction is outside the span of the bracket system."""

    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual


class BlowUpError(CubatureError):
    """The ODE or SDE state became non-finite."""

    def __init__(self, message, segment=None):
        super().__init__(message)
        self.segment = segment


class BudgetExceededError(CubatureError):
    """The evaluation tree would exceed the configured leaf cap."""

    def __init__(self, message, required=None, cap=None):
        super().__init__(message)
        self.required = required
        self.cap = cap


class EllipticityError(CubatureError):
    """The diffusion matrix is singular where invertibility is required."""


class UnsupportedPayoffError(CubatureError):
    """A payoff is malformed, or has no closed-form reference."""


class ConfigError(CubatureError):
    """A run configuration (CLI flags, model file) is invalid."""
