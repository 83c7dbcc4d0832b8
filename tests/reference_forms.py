"""Reference formulations of the first-order theory, for the tests only: the
package never imports this module.

The pipeline evaluates one formulation, the full nonsingular forms in
``_kernels.short_ns`` and ``_kernels.long_ns``.  The functions here state the
same first-order theory in other ways, so the tests can check the pipeline's
forms against them:

* the polar-nodal chart (r, theta, nu, R, Theta, N) the paper derives its
  corrections from, and its exact maps to the nonsingular and Delaunay
  sets.  The pipeline never evaluates in it; the maps wrap the pipeline's
  own ``_kernels.delaunay_orbit``, ``_kernels.wrap_pi`` and
  ``states.ellipse_elements``;
* the polar-nodal generating functions v1 (short period) and y1 (long
  period).  The periodic corrections are their Poisson brackets, carried
  into the nonsingular set by the chain rule
      dpsi = dtheta +- dnu,  xi = s sin(theta),  chi = s cos(theta),
  s = sqrt(1 - N^2/Theta^2).  Each is a validating shell around an
  arithmetic core (``v1_core``, ``y1_core``) whose only functions are this
  module's ``sin``, ``cos`` and ``sqrt`` and ``_kernels``' ``sqrt`` and
  ``atan2``; ``exact_brackets`` evaluates the same core on symbols, takes
  the brackets by exact differentiation and compares the kernels with them
  at 50 digits;
* the full nonsingular and O(sin^2 I) low-inclination per-stage deltas;
* the classical Delaunay-element series: the first-order corrections as
  trigonometric series in k*f + 2*m*g, singular for circular orbits.  They
  are defined in ``zonalprop.benchmark``, which counts them against the
  nonsingular pass; the shells here unpack the states, and the long-period
  one checks the guard;
* the Delaunay-form generating functions u1 (short period) and x1 (long
  period), equal to v1 and y1 at the mapped state (the cross-representation
  identities); the tests take their Poisson brackets by finite differences
  against the Delaunay series;
* the zonal potential and the exact energy of the J2+J3 problem, shells of
  ``secular.zonal_hamiltonian``, that the tests check ``oracle``'s
  acceleration and integration against.

Each ``*_corrections_*`` function returns the kernel's 6-tuple of deltas
(dpsi, dxi, dchi, dr, dR, dTheta); N is carried unchanged.  The deltas are
added at the mean state (direct map) or subtracted at the osculating state
(inverse map).
"""

import math
from dataclasses import dataclass
from math import cos, sin, sqrt

from zonalprop import _kernels
from zonalprop.benchmark import delaunay_long_series, delaunay_short_series
from zonalprop.gravity import GravityField, check_small_params
from zonalprop.longperiod import critical_inclination_guard
from zonalprop.errors import ZonalPropError, position_norm_error
from zonalprop.secular import zonal_hamiltonian
from zonalprop.states import (_SLACK, CartesianState, DelaunayState, NonsingularState,
                              cart_to_ns_checked, ellipse_elements, elliptic_projections)


# ---------------------------------------------------------------------------
# the polar-nodal chart
# ---------------------------------------------------------------------------

class EquatorialDecompositionError(ZonalPropError):
    """Node and argument of latitude are individually undefined (sin I ~ 0)."""


@dataclass(frozen=True)
class PolarNodalState:
    """Canonical polar-nodal (Hill/Whittaker) variables (r, theta, nu, R, Theta, N)."""

    r: float
    theta: float
    nu: float
    R: float
    Theta: float
    N: float

    def __post_init__(self):
        if not (self.r > 0.0 and self.Theta > 0.0):
            raise ZonalPropError(f"need r > 0 and Theta > 0, got r={self.r}, Theta={self.Theta}")
        if abs(self.N) > self.Theta * (1.0 + _SLACK):
            raise ZonalPropError(f"|N| = {abs(self.N)} exceeds Theta = {self.Theta}")

    @property
    def cos_inclination(self) -> float:
        c = self.N / self.Theta
        return max(-1.0, min(1.0, c))

    @property
    def sin_inclination(self) -> float:
        c = self.cos_inclination
        return math.sqrt(max(0.0, 1.0 - c * c))


def polar_to_nonsingular(pn: PolarNodalState) -> NonsingularState:
    """Exact map to the nonsingular set; chart picked by the sign of N."""
    s = pn.sin_inclination
    psi = pn.theta - pn.nu if pn.N < 0.0 else pn.theta + pn.nu
    return NonsingularState(
        psi=_kernels.wrap_pi(psi),
        xi=s * math.sin(pn.theta),
        chi=s * math.cos(pn.theta),
        r=pn.r, R=pn.R, Theta=pn.Theta, N=pn.N,
    )


def nonsingular_to_polar(ns: NonsingularState) -> PolarNodalState:
    """Inverse map; fails when sin(I) <= ``_kernels.EQUATORIAL_SIN`` (theta,
    nu undefined there)."""
    s = math.hypot(ns.xi, ns.chi)
    if s <= _kernels.EQUATORIAL_SIN:
        raise EquatorialDecompositionError(
            "node and argument of latitude are undefined for an equatorial "
            "orbit; convert through Cartesian coordinates instead")
    theta = math.atan2(ns.xi, ns.chi)
    nu = theta - ns.psi if ns.retrograde else ns.psi - theta
    return PolarNodalState(r=ns.r, theta=theta, nu=_kernels.wrap_pi(nu),
                           R=ns.R, Theta=ns.Theta, N=ns.N)


def delaunay_to_polar(d: DelaunayState, mu: float) -> PolarNodalState:
    """Kepler solve for u, then r, R, theta = f + g, nu = h."""
    r, R, f = _kernels.delaunay_orbit(d.ell, d.L, d.G, mu)
    return PolarNodalState(r=r, theta=_kernels.wrap_pi(f + d.g), nu=_kernels.wrap_pi(d.h),
                           R=R, Theta=d.G, N=d.H)


def polar_to_delaunay(pn: PolarNodalState, mu: float) -> DelaunayState:
    """Inverse map via the eccentricity-vector projections.

    For circular (equatorial) states the anomaly (node) split is the
    standard convention f = 0 (h = nu), leaving the sums f + g and g + h
    well defined.
    """
    ell, g, h, L, G, H, _ = ellipse_elements(pn.r, pn.theta, pn.nu, pn.R, pn.Theta, pn.N, mu)
    return DelaunayState(ell=ell, g=g, h=h, L=L, G=G, H=H)


def _core_args(pn: PolarNodalState) -> tuple:
    """(r, theta, R, Theta, N) of ``pn``, |N| capped at Theta as
    ``cos_inclination`` caps c."""
    return pn.r, pn.theta, pn.R, pn.Theta, max(-pn.Theta, min(pn.Theta, pn.N))


# ---------------------------------------------------------------------------
# short period
# ---------------------------------------------------------------------------

def v1(pn: PolarNodalState, field: GravityField) -> float:
    """Short-period generating function in polar-nodal variables.

    Cross-representation identity: equals the Delaunay-form generating
    function at the mapped state (see u1_delaunay).
    """
    elliptic_projections(pn.r, pn.R, pn.Theta, field.mu)
    check_small_params(pn.Theta, field)
    return v1_core(*_core_args(pn), field.mu, field.alpha, field.c20)


def v1_core(r, theta, R, Theta, N, mu, alpha, c20):
    """``v1`` without its checks, plain arithmetic in its arguments.  The
    equation of the center (f - u) + e sin u comes from
    ``_kernels.center_terms``, smooth down to e = 0."""
    p, eps2, _ = _kernels.small_params(Theta, mu, alpha, c20)
    kappa = p / r - 1.0
    sigma = p * R / Theta
    _, f_u, esu = _kernels.center_terms(kappa, sigma)
    c = N / Theta
    s2 = 1.0 - c * c
    return eps2 * Theta * (
        (2.0 - 3.0 * s2) * (f_u + esu + sigma)
        + 0.5 * (3.0 + 4.0 * kappa) * s2 * sin(2.0 * theta)
        - sigma * s2 * cos(2.0 * theta))


def short_corrections_nonsingular(ns: NonsingularState, field: GravityField) -> tuple:
    """Full nonsingular short-period deltas (dpsi, dxi, dchi, dr, dR, dTheta).

    In the retrograde chart the components are already the mirrored ones, so
    the same formulas (with c = |N|/Theta) apply to both charts.
    """
    elliptic_projections(ns.r, ns.R, ns.Theta, field.mu)
    return _kernels.short_ns(ns.xi, ns.chi, ns.r, ns.R, ns.Theta, ns.N,
                             field.mu, field.alpha, field.c20)


def short_corrections_low_inclination(ns: NonsingularState, field: GravityField) -> tuple:
    """Low-inclination short-period deltas; differ from the full nonsingular
    forms by O(sin^2 I)."""
    elliptic_projections(ns.r, ns.R, ns.Theta, field.mu)
    return _kernels.short_ns_low(ns.xi, ns.chi, ns.r, ns.R, ns.Theta,
                                 field.mu, field.alpha, field.c20)


# ---------------------------------------------------------------------------
# long period
# ---------------------------------------------------------------------------

def y1(pn: PolarNodalState, field: GravityField) -> float:
    """Long-period generating function in polar-nodal variables."""
    critical_inclination_guard(pn.cos_inclination)
    elliptic_projections(pn.r, pn.R, pn.Theta, field.mu)
    check_small_params(pn.Theta, field)
    return y1_core(*_core_args(pn), field.mu, field.alpha, field.c20, field.c30)


def y1_core(r, theta, R, Theta, N, mu, alpha, c20, c30):
    """``y1`` without its checks, plain arithmetic in its arguments."""
    p, eps2, eps3 = _kernels.small_params(Theta, mu, alpha, c20, c30)
    k = p / r - 1.0
    sg = p * R / Theta
    c = N / Theta
    s2 = 1.0 - c * c
    s = sqrt(s2)
    w = (14.0 - 15.0 * s2) / (8.0 * (4.0 - 5.0 * s2))
    return (-eps2 * Theta * s2 * w
            * ((k * k - sg * sg) * sin(2.0 * theta) - 2.0 * k * sg * cos(2.0 * theta))
            + eps3 * Theta * s * (k * cos(theta) + sg * sin(theta)))


def long_corrections_nonsingular(ns: NonsingularState, field: GravityField) -> tuple:
    """Full nonsingular long-period deltas; regular down to the equator."""
    critical_inclination_guard(ns.cos_inclination_abs)
    check_small_params(ns.Theta, field)
    elliptic_projections(ns.r, ns.R, ns.Theta, field.mu)
    return _kernels.long_ns(ns.xi, ns.chi, ns.r, ns.R, ns.Theta, ns.N,
                            field.mu, field.alpha, field.c20, field.c30)


def long_corrections_low_inclination(ns: NonsingularState, field: GravityField) -> tuple:
    """Low-inclination long-period deltas (total function; the caller decides
    applicability).  Differ from the full forms by O(sin^2 I)."""
    check_small_params(ns.Theta, field)
    elliptic_projections(ns.r, ns.R, ns.Theta, field.mu)
    return _kernels.long_ns_low(ns.xi, ns.chi, ns.r, ns.R, ns.Theta,
                                field.mu, field.alpha, field.c20, field.c30)


# ---------------------------------------------------------------------------
# classical Delaunay-element series
# ---------------------------------------------------------------------------

def delaunay_short_period(d: DelaunayState, field: GravityField) -> tuple:
    """Short-period deltas (dl, dg, dh, dL, dG, dH) on the Delaunay elements."""
    return delaunay_short_series(d.ell, d.g, d.L, d.G, d.H, field.mu, field.alpha, field.c20)


def delaunay_long_period(d: DelaunayState, field: GravityField) -> tuple:
    """Long-period deltas (dl, dg, dh, 0, dG, 0) on the Delaunay elements."""
    critical_inclination_guard(d.H / d.G)
    return delaunay_long_series(d.g, d.L, d.G, d.H,
                                field.mu, field.alpha, field.c20, field.c30)


def mean_to_osculating_delaunay(d: DelaunayState, field: GravityField) -> DelaunayState:
    """Classic direct transformation: long-period series at the double-prime
    elements, then short-period series at the prime elements."""
    dl = delaunay_long_period(d, field)
    prime = DelaunayState(ell=d.ell + dl[0], g=d.g + dl[1], h=d.h + dl[2],
                          L=d.L + dl[3], G=d.G + dl[4], H=d.H + dl[5])
    ds = delaunay_short_period(prime, field)
    return DelaunayState(ell=prime.ell + ds[0], g=prime.g + ds[1], h=prime.h + ds[2],
                         L=prime.L + ds[3], G=prime.G + ds[4], H=prime.H + ds[5])


# ---------------------------------------------------------------------------
# Delaunay-form generating functions
# ---------------------------------------------------------------------------

def u1_delaunay(d: DelaunayState, field: GravityField) -> float:
    """Short-period generating function in Delaunay variables.

    Equals the polar-nodal form at the mapped state (the V1 = U1
    cross-representation identity checked by the tests).
    """
    eta = d.G / d.L
    e = math.sqrt(max(0.0, 1.0 - eta * eta))
    s2 = 1.0 - (d.H / d.G) ** 2
    check_small_params(d.G, field)
    _, eps2, _ = _kernels.small_params(d.G, field.mu, field.alpha, field.c20)
    u = _kernels.kepler_u(d.ell, e)
    f = 2.0 * math.atan2(math.sqrt(1.0 + e) * math.sin(0.5 * u),
                         math.sqrt(1.0 - e) * math.cos(0.5 * u))
    phi = (f - u) + e * math.sin(u)
    return 0.5 * d.G * eps2 * (
        (4.0 - 6.0 * s2) * (phi + e * math.sin(f))
        + 3.0 * e * s2 * math.sin(f + 2.0 * d.g)
        + 3.0 * s2 * math.sin(2.0 * f + 2.0 * d.g)
        + e * s2 * math.sin(3.0 * f + 2.0 * d.g))


def x1_delaunay(d: DelaunayState, field: GravityField) -> float:
    """Long-period generating function in Delaunay variables."""
    c = d.H / d.G
    critical_inclination_guard(c)
    eta = d.G / d.L
    e = math.sqrt(max(0.0, 1.0 - eta * eta))
    s2 = 1.0 - c * c
    s = math.sqrt(s2)
    check_small_params(d.G, field)
    _, eps2, eps3 = _kernels.small_params(d.G, field.mu, field.alpha, field.c20, field.c30)
    w = (14.0 - 15.0 * s2) / (4.0 - 5.0 * s2)
    return d.G * (-eps2 * w * 0.125 * s2 * e * e * math.sin(2.0 * d.g)
                  + eps3 * s * e * math.cos(d.g))


# ---------------------------------------------------------------------------
# the zonal potential and energy the oracle is checked against
# ---------------------------------------------------------------------------

def zonal_potential(x: float, y: float, z: float, field: GravityField) -> float:
    """Potential energy per unit mass, central term plus degree 2 and 3
    zonals; ZonalPropError, as ``_kernels.cart_to_ns`` raises it, when the
    squared position norm is 0 or overflows."""
    r2 = x * x + y * y + z * z
    if not 0.0 < r2 < math.inf:
        raise position_norm_error(r2)
    r = math.sqrt(r2)
    return zonal_hamiltonian(r, 0.0, 0.0, z / r, field.mu, field.alpha, field.c20, field.c30)


def zonal_energy(cart: CartesianState, field: GravityField) -> float:
    """Exact conserved energy v^2/2 + U of the zonal problem; raises as
    ``states.cart_to_ns_checked`` does (a rectilinear state included)."""
    _, xi, _, r, R, Theta, _ = cart_to_ns_checked(cart)
    return zonal_hamiltonian(r, R, Theta, xi, field.mu, field.alpha, field.c20, field.c30)
