"""Exception types shared across the package."""

from __future__ import annotations


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
