"""Reference formulations of the periodic corrections: test references; the
pipeline never imports this module.

The pipeline evaluates one formulation, the full nonsingular forms in
``_kernels.short_ns`` and ``_kernels.long_ns``.  The functions here state the
same first-order theory in other ways, so the tests can check the pipeline's
forms against them:

* the polar-nodal generating functions v1 (short period) and y1 (long
  period), whose finite-difference Poisson brackets the closed forms must
  match;
* the per-stage deltas in three formulations: polar-nodal, full
  nonsingular and the O(sin^2 I) low-inclination limit.  The nonsingular
  forms are the image of the polar-nodal ones under the exact chain rule
      dpsi = dtheta + dnu,
      dxi  = (dTheta/s)(c^2/Theta) sin(theta) + (s dtheta) cos(theta),
      dchi = (dTheta/s)(c^2/Theta) cos(theta) - (s dtheta) sin(theta),
  which the tests enforce to 1e-10;
* the classical Delaunay-element series: the first-order corrections as
  trigonometric series in k*f + 2*m*g, singular for circular orbits, which
  the benchmark counts against the nonsingular pass.

Each ``*_corrections_*`` function returns the kernel's 6-tuple of deltas:
(dr, dtheta, dnu, dR, dTheta, dN) with dN = 0 for the polar-nodal forms,
(dpsi, dxi, dchi, dr, dR, dTheta) for the nonsingular ones, which carry N
unchanged.  The deltas are added at the mean state (direct map) or
subtracted at the osculating state (inverse map).
"""

import math

from . import _kernels
from .errors import EquatorialDecompositionError
from .gravity import GravityField, check_small_params
from .longperiod import critical_inclination_guard
from .states import DelaunayState, NonsingularState, PolarNodalState, elliptic_projections

#: default sin(I) floor for the polar-nodal long-period forms
POLAR_S_TOL = 1e-6


# ---------------------------------------------------------------------------
# short period
# ---------------------------------------------------------------------------

def v1(pn: PolarNodalState, field: GravityField) -> float:
    """Short-period generating function in polar-nodal variables.

    Cross-representation identity: equals the Delaunay-form generating
    function at the mapped state (see oracle.u1_delaunay).
    """
    _, kappa, sigma, _ = elliptic_projections(pn.r, pn.R, pn.Theta, field.mu)
    check_small_params(pn.Theta, field)
    _, eps2, _ = _kernels.small_params(pn.Theta, field.mu, field.alpha, field.c20)
    phi = _kernels.anomaly_block(kappa, sigma)[5]
    c = pn.cos_inclination
    s2 = 1.0 - c * c
    return eps2 * pn.Theta * (
        (2.0 - 3.0 * s2) * (phi + sigma)
        + 0.5 * (3.0 + 4.0 * kappa) * s2 * math.sin(2.0 * pn.theta)
        - sigma * s2 * math.cos(2.0 * pn.theta))


def short_corrections_polar(pn: PolarNodalState, field: GravityField) -> tuple:
    """Polar-nodal short-period deltas (dr, dtheta, dnu, dR, dTheta, 0)."""
    elliptic_projections(pn.r, pn.R, pn.Theta, field.mu)  # validates ellipticity
    theta, Theta = pn.theta, pn.Theta
    p, eps2, _ = _kernels.small_params(Theta, field.mu, field.alpha, field.c20)
    kappa = p / pn.r - 1.0
    sigma = p * pn.R / Theta
    _, eta, _, _, _, phi = _kernels.anomaly_block(kappa, sigma)
    c = pn.N / Theta
    s2 = 1.0 - c * c
    c2t = math.cos(2.0 * theta)
    s2t = math.sin(2.0 * theta)
    opk = 1.0 + kappa
    ope = 1.0 + eta
    dr = eps2 * p * ((2.0 - 3.0 * s2) * (kappa / ope + 2.0 * eta / opk + 1.0) - s2 * c2t)
    dth = eps2 * (-3.0 * (4.0 - 5.0 * s2) * phi
                  + (3.0 - 3.5 * s2 + (4.0 - 6.0 * s2) * kappa) * s2t
                  - 2.0 * sigma * (5.0 - 6.0 * s2
                                   + (2.0 + kappa) / ope * (1.0 - 1.5 * s2)
                                   + (1.0 - 2.0 * s2) * c2t))
    dnu = eps2 * c * (6.0 * phi - (3.0 + 4.0 * kappa) * s2t + 2.0 * sigma * (3.0 + c2t))
    dR = eps2 * (Theta / p) * (2.0 * opk * opk * s2 * s2t
                               - (2.0 - 3.0 * s2) * sigma * (eta + opk * opk / ope))
    dTh = -eps2 * Theta * s2 * ((3.0 + 4.0 * kappa) * c2t + 2.0 * sigma * s2t)
    return dr, dth, dnu, dR, dTh, 0.0


def short_corrections_nonsingular(ns: NonsingularState, field: GravityField) -> tuple:
    """Full nonsingular short-period deltas (dpsi, dxi, dchi, dr, dR, dTheta).

    In the retrograde chart the components are already the mirrored ones, so
    the same formulas (with c = +sqrt(1 - s^2)) apply to both charts.
    """
    elliptic_projections(ns.r, ns.R, ns.Theta, field.mu)
    return _kernels.short_ns(ns.xi, ns.chi, ns.r, ns.R, ns.Theta,
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
    c = pn.cos_inclination
    critical_inclination_guard(c)
    _, k, sg, _ = elliptic_projections(pn.r, pn.R, pn.Theta, field.mu)
    check_small_params(pn.Theta, field)
    _, eps2, eps3 = _kernels.small_params(pn.Theta, field.mu, field.alpha, field.c20, field.c30)
    s2 = 1.0 - c * c
    s = math.sqrt(s2)
    w = (14.0 - 15.0 * s2) / (8.0 * (4.0 - 5.0 * s2))
    return (-eps2 * pn.Theta * s2 * w
            * ((k * k - sg * sg) * math.sin(2.0 * pn.theta)
               - 2.0 * k * sg * math.cos(2.0 * pn.theta))
            + eps3 * pn.Theta * s * (k * math.cos(pn.theta) + sg * math.sin(pn.theta)))


def long_corrections_polar(pn: PolarNodalState, field: GravityField) -> tuple:
    """Polar-nodal long-period deltas (dr, dtheta, dnu, dR, dTheta, 0).

    These carry 1/sin(I) terms from the odd zonal, so they are refused for
    sin(I) <= POLAR_S_TOL.
    """
    critical_inclination_guard(pn.cos_inclination)
    if pn.sin_inclination <= POLAR_S_TOL:
        raise EquatorialDecompositionError(
            "polar-nodal long-period corrections carry 1/sin(I) terms; "
            "use the nonsingular forms for near-equatorial orbits")
    check_small_params(pn.Theta, field)
    elliptic_projections(pn.r, pn.R, pn.Theta, field.mu)
    theta, Theta = pn.theta, pn.Theta
    p, eps2, eps3 = _kernels.small_params(Theta, field.mu, field.alpha, field.c20, field.c30)
    kappa = p / pn.r - 1.0
    sigma = p * pn.R / Theta
    c = pn.N / Theta
    c2 = c * c
    s2 = 1.0 - c2
    s = math.sqrt(s2)
    g = 1.0 - 5.0 * c2
    _, q1, q2, q3, q5, q6 = _kernels.q_polynomials(c)[:6]
    w = (1.0 - 15.0 * c2) / (4.0 * g)
    c2t = math.cos(2.0 * theta)
    s2t = math.sin(2.0 * theta)
    ct = math.cos(theta)
    st = math.sin(theta)
    opk = 1.0 + kappa
    dr = p * (eps2 * s2 * w * (kappa * c2t + sigma * s2t) + eps3 * s * st)
    dth = (eps2 / (2.0 * g * g) * ((q2 + q5 * kappa) * sigma * c2t
                                   - (q1 * sigma * sigma + q2 * kappa + q3 * kappa * kappa) * s2t)
           + eps3 * ((kappa / s + 2.0 * s) * ct + (1.0 / s - s) * sigma * st))
    dnu = (eps2 * q6 / (4.0 * g * g) * ((kappa * kappa - sigma * sigma) * s2t
                                        - 2.0 * kappa * sigma * c2t)
           - eps3 * (c / s) * (kappa * ct + sigma * st))
    dR = (Theta / p) * opk * opk * (eps2 * w * s2 * (sigma * c2t - kappa * s2t) + eps3 * s * ct)
    dTh = (Theta * eps2 * w * s2 * ((kappa * kappa - sigma * sigma) * c2t
                                    + 2.0 * kappa * sigma * s2t)
           + Theta * eps3 * s * (kappa * st - sigma * ct))
    return dr, dth, dnu, dR, dTh, 0.0


def long_corrections_nonsingular(ns: NonsingularState, field: GravityField) -> tuple:
    """Full nonsingular long-period deltas; regular down to the equator."""
    critical_inclination_guard(ns.cos_inclination_abs)
    check_small_params(ns.Theta, field)
    elliptic_projections(ns.r, ns.R, ns.Theta, field.mu)
    return _kernels.long_ns(ns.xi, ns.chi, ns.r, ns.R, ns.Theta,
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
    return _kernels.delaunay_short_series(d.ell, d.g, d.L, d.G, d.H,
                                          field.mu, field.alpha, field.c20)


def delaunay_long_period(d: DelaunayState, field: GravityField) -> tuple:
    """Long-period deltas (dl, dg, dh, 0, dG, 0) on the Delaunay elements."""
    critical_inclination_guard(d.H / d.G)
    return _kernels.delaunay_long_series(d.g, d.L, d.G, d.H,
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
