"""Exception types shared across the package, the domain predicates of numeric
arguments, and the one check of hbar that every entry point taking it makes."""

from __future__ import annotations

import numbers
import sys


class PhasequantError(Exception):
    """Base class for all package-specific errors."""


class ChartDomainError(PhasequantError, ValueError):
    """A point (or an intermediate evaluation) left the valid chart domain.

    Carries the offending coordinate name so callers can report which
    direction failed.
    """

    def __init__(self, coordinate: str, value: float, message: str = ""):
        self.coordinate = coordinate
        self.value = value
        detail = message or f"coordinate {coordinate!r} = {value:.6g} outside the valid chart domain"
        super().__init__(detail)


class UnsupportedOrderError(PhasequantError, ValueError):
    """A polynomial degree, operator order or derivative order exceeds the supported cap."""


class ShapeError(PhasequantError, ValueError):
    """Tensors, fields or series of mismatched shape, rank or order were combined."""


class QuadratureAccuracyError(PhasequantError, RuntimeError):
    """A quadrature failed to converge to the requested accuracy.

    ``estimate`` holds the observed accuracy estimate (``inf`` when the rule
    that could reach ``requested`` is refused before it runs; ``detail`` then
    says why).
    """

    def __init__(self, estimate: float, requested: float, detail: str = ""):
        self.estimate = estimate
        self.requested = requested
        super().__init__(
            detail or f"quadrature accuracy estimate {estimate:.3e} exceeds requested {requested:.3e}"
        )


class InversionError(PhasequantError, ValueError):
    """An operator is not in the image of the polynomial calculus."""


class ConfigError(PhasequantError, ValueError):
    """Invalid harness configuration."""


class ExperimentError(PhasequantError, RuntimeError):
    """A harness check could not be evaluated; the message names the check."""


def positive_finite(value) -> bool:
    """A real number (not a bool) above 0 whose float is finite: no NaN, no inf, no int past the float range."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool) and 0 < value <= sys.float_info.max


def finite(value) -> bool:
    """A real number (not a bool) whose float is finite: no NaN, no inf, no int past the float range."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool) and abs(value) <= sys.float_info.max


def check_hbar(hbar) -> None:
    """Raise :class:`ConfigError` unless ``hbar`` is a positive finite number."""
    if not positive_finite(hbar):
        raise ConfigError(f"hbar must be a positive finite number, got {hbar!r}")
