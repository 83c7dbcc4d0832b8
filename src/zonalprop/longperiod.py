"""Long-period generating function and corrections, with the
critical-inclination guard.

The long-period elimination divides by 1 - 5 cos^2 I, so the theory is
inapplicable in a band around the critical inclinations 63.43 deg and
116.57 deg; every entry point here enforces the guard.  The polar-nodal
forms additionally carry 1/sin(I) terms from the odd zonal and are guarded
against near-equatorial use; the nonsingular forms have no such restriction.

The nonsingular closed forms below are the image of the polar-nodal
corrections under the exact chain rule
    dpsi = dtheta + dnu,
    dxi  = (dTheta/s)(c^2/Theta) sin(theta) + (s dtheta) cos(theta),
    dchi = (dTheta/s)(c^2/Theta) cos(theta) - (s dtheta) sin(theta),
which the test suite enforces to 1e-10; this mapping, not any printed
variant of the expanded formulas, is the defining property.
"""

import math

from . import _kernels
from .anomaly import projections
from .corrections import DIRECT, NONSINGULAR_LAYOUT, POLAR_LAYOUT, CorrectionSet
from .errors import CriticalInclinationError, EquatorialDecompositionError
from .gravity import GravityField, check_small_params, small_params
from .states import NonsingularState, PolarNodalState

#: default half-width of the excluded band in |1 - 5 cos^2 I|
CRITICAL_TOL = 1e-3

#: default sin(I) floor for the polar-nodal long-period forms
POLAR_S_TOL = 1e-6


def critical_inclination_guard(c: float, tol: float = CRITICAL_TOL) -> None:
    """Raise CriticalInclinationError inside the band |1 - 5 c^2| < tol.

    c^2 = 1/5 covers both the direct (63.43 deg) and retrograde (116.57 deg)
    critical inclinations.  This signals an inapplicable theory, not a
    numerical fault.
    """
    if abs(1.0 - 5.0 * c * c) < tol:
        inc = math.degrees(math.acos(max(-1.0, min(1.0, c))))
        raise CriticalInclinationError(
            f"inclination {inc:.4f} deg lies inside the critical band "
            f"|1 - 5 cos^2 I| < {tol}; the long-period theory diverges there")


def y1(pn: PolarNodalState, field: GravityField) -> float:
    """Long-period generating function in polar-nodal variables."""
    c = pn.cos_inclination
    critical_inclination_guard(c)
    proj = projections(pn.r, pn.R, pn.Theta, field.mu)
    sp = small_params(pn.Theta, field)
    s2 = 1.0 - c * c
    s = math.sqrt(s2)
    w = (14.0 - 15.0 * s2) / (8.0 * (4.0 - 5.0 * s2))
    k, sg = proj.kappa, proj.sigma
    return (-sp.eps2 * pn.Theta * s2 * w
            * ((k * k - sg * sg) * math.sin(2.0 * pn.theta)
               - 2.0 * k * sg * math.cos(2.0 * pn.theta))
            + sp.eps3 * pn.Theta * s * (k * math.cos(pn.theta) + sg * math.sin(pn.theta)))


def long_corrections_polar(pn: PolarNodalState, field: GravityField,
                           orientation: str = DIRECT) -> CorrectionSet:
    """Polar-nodal long-period deltas (dr, dtheta, dnu, dR, dTheta, 0)."""
    critical_inclination_guard(pn.cos_inclination)
    if pn.sin_inclination <= POLAR_S_TOL:
        raise EquatorialDecompositionError(
            "polar-nodal long-period corrections carry 1/sin(I) terms; "
            "use the nonsingular forms for near-equatorial orbits")
    check_small_params(pn.Theta, field)
    projections(pn.r, pn.R, pn.Theta, field.mu)
    deltas = _kernels.long_polar(pn.r, pn.theta, pn.R, pn.Theta, pn.N,
                                 field.mu, field.alpha, field.c20, field.c30)
    return CorrectionSet(layout=POLAR_LAYOUT, orientation=orientation, deltas=deltas)


def long_corrections_nonsingular(ns: NonsingularState, field: GravityField,
                                 orientation: str = DIRECT) -> CorrectionSet:
    """Full nonsingular long-period deltas; regular down to the equator."""
    critical_inclination_guard(ns.cos_inclination_abs)
    check_small_params(ns.Theta, field)
    projections(ns.r, ns.R, ns.Theta, field.mu)
    deltas = _kernels.long_ns(ns.xi, ns.chi, ns.r, ns.R, ns.Theta,
                              field.mu, field.alpha, field.c20, field.c30)
    return CorrectionSet(layout=NONSINGULAR_LAYOUT, orientation=orientation, deltas=deltas)


def long_corrections_low_inclination(ns: NonsingularState, field: GravityField,
                                     orientation: str = DIRECT) -> CorrectionSet:
    """Low-inclination long-period deltas (total function; the caller decides
    applicability).  Differ from the full forms by O(sin^2 I)."""
    check_small_params(ns.Theta, field)
    projections(ns.r, ns.R, ns.Theta, field.mu)
    deltas = _kernels.long_ns_low(ns.xi, ns.chi, ns.r, ns.R, ns.Theta,
                                  field.mu, field.alpha, field.c20, field.c30)
    return CorrectionSet(layout=NONSINGULAR_LAYOUT, orientation=orientation, deltas=deltas)
