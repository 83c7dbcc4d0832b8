"""Exception types raised by the library, and the type rule of its numbers."""

import numpy as np


class ZonalPropError(Exception):
    """Base class for all library errors."""


class NonEllipticStateError(ZonalPropError):
    """State is not on a bound ellipse (e >= 1 or non-positive radius)."""


class CriticalInclinationError(ZonalPropError):
    """Inclination inside the critical band where 1 - 5 cos^2 I ~ 0.

    The long-period theory diverges there; this signals an inapplicable
    theory, not a numerical fault.
    """


class ConfigError(ZonalPropError):
    """Invalid or inconsistent run configuration."""


def is_real(x) -> bool:
    """Whether x is a number the library takes: a Python or NumPy int or float, not a bool."""
    return isinstance(x, (int, float, np.integer, np.floating)) and not isinstance(x, bool)


def position_norm_error(r2: float) -> ZonalPropError:
    """The error for a squared position norm r2 that is not a positive
    finite double: it overflows a float, or it is 0 (or NaN)."""
    return ZonalPropError("position norm overflows a float" if r2 == float("inf")
                          else "position norm must be positive")
