"""Orbit-geometry kernel: eccentricity-vector projections, the package's one
ellipticity check, the Kepler solver and the equation of the center.

Everything is phrased in the projections kappa = p/r - 1 and
sigma = p R / Theta, which stay regular for circular orbits.
"""

import math
from dataclasses import dataclass

from . import _kernels
from .errors import NonEllipticStateError, ZonalPropError


@dataclass(frozen=True)
class OrbitProjections:
    """Eccentricity-vector projections and derived scalars for one state."""

    kappa: float
    sigma: float
    eta: float
    e: float
    p: float


def elliptic_projections(r: float, R: float, Theta: float, mu: float):
    """(ainv, kappa, sigma, e): the inverse semi-major axis and the
    eccentricity-vector projections of the osculating ellipse through
    (r, R, Theta), for r > 0 and Theta > 0.

    Raises NonEllipticStateError for non-negative energy or e >= 1, so
    nothing downstream takes sqrt(1 - e^2) of a hyperbola.
    """
    ainv = 2.0 / r - (R * R + (Theta / r) ** 2) / mu
    if ainv <= 0.0:
        raise NonEllipticStateError("state is not elliptic (non-negative energy)")
    p = Theta * Theta / mu
    kappa = p / r - 1.0
    sigma = p * R / Theta
    e = math.hypot(kappa, sigma)
    if e >= 1.0:
        raise NonEllipticStateError(f"state is not elliptic (e = {e})")
    return ainv, kappa, sigma, e


def projections(r: float, R: float, Theta: float, mu: float) -> OrbitProjections:
    """Projections of the eccentricity vector from (r, R, Theta)."""
    if not (r > 0.0 and Theta > 0.0):
        raise NonEllipticStateError(f"need r > 0 and Theta > 0, got r={r}, Theta={Theta}")
    _, kappa, sigma, e = elliptic_projections(r, R, Theta, mu)
    return OrbitProjections(kappa=kappa, sigma=sigma, eta=math.sqrt(1.0 - e * e), e=e,
                            p=Theta * Theta / mu)


def solve_kepler(ell, e: float):
    """Eccentric anomaly u with |u - e sin(u) - ell| < 1e-14 rad.

    Newton iteration from u0 = ell + e sin(ell) with a bisection fallback,
    after reducing ell to (-pi, pi].  ``ell`` may be a float or an array of
    mean anomalies sharing one eccentricity.
    """
    if not (0.0 <= e < 1.0):
        raise ZonalPropError(f"eccentricity must be in [0, 1), got {e}")
    return _kernels.kepler_u(ell, e)


def equation_of_center(proj: OrbitProjections) -> float:
    """phi = f - ell, computed with matching branches so |phi| < pi."""
    e, eta, f, u, ell, phi = _kernels.anomaly_block(proj.kappa, proj.sigma)
    return phi
