"""Orbit-geometry kernel: eccentricity-vector projections, Kepler solver,
anomaly conversions, and the equation of the center with its partials.

Everything is phrased in the projections kappa = p/r - 1 and
sigma = p R / Theta, which stay regular for circular orbits.
"""

import math
from dataclasses import dataclass

from . import _kernels
from .errors import NonEllipticStateError, ZonalPropError

#: below this eccentricity the orbit is treated as exactly circular
CIRCULAR_ECC = _kernels.CIRCULAR_ECC


@dataclass(frozen=True)
class OrbitProjections:
    """Eccentricity-vector projections and derived scalars for one state."""

    kappa: float
    sigma: float
    eta: float
    e: float
    p: float


@dataclass(frozen=True)
class AnomalyTriple:
    """Matched-branch true, eccentric, and mean anomaly [rad]."""

    f: float
    u: float
    ell: float


def projections(r: float, R: float, Theta: float, mu: float) -> OrbitProjections:
    """Projections of the eccentricity vector from (r, R, Theta)."""
    if not (r > 0.0 and Theta > 0.0):
        raise NonEllipticStateError(f"need r > 0 and Theta > 0, got r={r}, Theta={Theta}")
    p = Theta * Theta / mu
    kappa = p / r - 1.0
    sigma = p * R / Theta
    e = math.hypot(kappa, sigma)
    if e >= 1.0:
        raise NonEllipticStateError(f"state is not elliptic (e = {e})")
    return OrbitProjections(kappa=kappa, sigma=sigma, eta=math.sqrt(1.0 - e * e), e=e, p=p)


def solve_kepler(ell, e: float):
    """Eccentric anomaly u with |u - e sin(u) - ell| < 1e-14 rad.

    Newton iteration from u0 = ell + e sin(ell) with a bisection fallback,
    after reducing ell to (-pi, pi].  ``ell`` may be a float or an array of
    mean anomalies sharing one eccentricity.
    """
    if not (0.0 <= e < 1.0):
        raise ZonalPropError(f"eccentricity must be in [0, 1), got {e}")
    return _kernels.kepler_u(ell, e)


def true_from_projections(proj: OrbitProjections) -> float:
    """True anomaly f = atan2(sigma, kappa); undefined for circular orbits."""
    if proj.e < CIRCULAR_ECC:
        raise ZonalPropError("true anomaly is undefined for a circular orbit; "
                             "use the argument of latitude directly")
    return math.atan2(proj.sigma, proj.kappa)


def anomalies(proj: OrbitProjections) -> AnomalyTriple:
    """True, eccentric, and mean anomaly on matching branches in (-pi, pi]."""
    e, eta, f, u, ell, phi = _kernels.anomaly_block(proj.kappa, proj.sigma)
    return AnomalyTriple(f=f, u=u, ell=ell)


def equation_of_center(proj: OrbitProjections) -> float:
    """phi = f - ell, computed with matching branches so |phi| < pi."""
    e, eta, f, u, ell, phi = _kernels.anomaly_block(proj.kappa, proj.sigma)
    return phi


def phi_partials(r: float, R: float, Theta: float, mu: float) -> tuple[float, float, float]:
    """Partials of the equation of the center with respect to (r, R, Theta).

    The sigma/R quotient is evaluated as p/Theta, so the partials stay
    regular along sigma -> 0 (and vanish appropriately at e = 0).
    """
    proj = projections(r, R, Theta, mu)
    kappa, sigma, eta = proj.kappa, proj.sigma, proj.eta
    opk = 1.0 + kappa
    ope = 1.0 + eta
    dphi_dr = (sigma / r) * (opk / ope + eta / opk)
    dphi_dR = (proj.p / Theta) * (kappa / ope + 2.0 * eta / opk)
    dphi_dTheta = -(sigma / Theta) * (2.0 + kappa) / ope
    return dphi_dr, dphi_dR, dphi_dTheta
