"""Exception types raised by the library."""


class ZonalPropError(Exception):
    """Base class for all library errors."""


class NonEllipticStateError(ZonalPropError):
    """State is not on a bound ellipse (e >= 1 or non-positive radius)."""


class CriticalInclinationError(ZonalPropError):
    """Inclination inside the critical band where 1 - 5 cos^2 I ~ 0.

    The long-period theory diverges there; this signals an inapplicable
    theory, not a numerical fault.
    """


class EquatorialDecompositionError(ZonalPropError):
    """Node and argument of latitude are individually undefined (sin I ~ 0)."""


class ConfigError(ZonalPropError):
    """Invalid or inconsistent run configuration."""
