"""Analytic J2+J3 zonal-harmonic satellite propagation.

Mean-element (double-prime) secular propagation with first-order short- and
long-period corrections evaluated in nonsingular variables derived from the
polar-nodal set, valid for any eccentricity below one and any inclination
outside the critical band.

The names below are the propagator's API.  The building blocks live in their
submodules (``gravity``, ``states``, ``longperiod``, ``secular``), the
formulas themselves in ``_kernels``, the verification machinery in
``oracle``.
"""

from .errors import ConfigError, CriticalInclinationError, NonEllipticStateError, ZonalPropError
from .gravity import EARTH, GravityField
from .longperiod import critical_inclination_guard
from .propagator import (MeanElements, PropagatorConfig, ephemeris,
                         ephemeris_array, mean_to_osculating, osculating_to_mean)
from .secular import (SecularRates, mean_motion, orbital_period, propagate_mean,
                      secular_rates)
from .states import (CartesianState, DelaunayState, NonsingularState,
                     cartesian_to_nonsingular, nonsingular_to_cartesian)

__version__ = "0.1.0"

__all__ = [
    "ConfigError", "CriticalInclinationError", "NonEllipticStateError", "ZonalPropError",
    "EARTH", "GravityField",
    "CartesianState", "DelaunayState", "NonsingularState",
    "cartesian_to_nonsingular", "nonsingular_to_cartesian",
    "MeanElements", "PropagatorConfig", "ephemeris", "ephemeris_array",
    "mean_to_osculating", "osculating_to_mean",
    "SecularRates", "mean_motion", "orbital_period", "propagate_mean", "secular_rates",
    "critical_inclination_guard",
]
