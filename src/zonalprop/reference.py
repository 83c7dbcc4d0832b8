"""Reference formulations of the periodic corrections: test references; the
pipeline never imports this module.

The pipeline evaluates one formulation, the full nonsingular forms in
``_kernels.short_ns`` and ``_kernels.long_ns``.  The functions here state the
same first-order theory in other ways, so the tests can check the pipeline's
forms against them:

* the polar-nodal generating functions v1 (short period) and y1 (long
  period).  The periodic corrections are their Poisson brackets, carried
  into the nonsingular set by the chain rule
      dpsi = dtheta +- dnu,  xi = s sin(theta),  chi = s cos(theta),
  s = sqrt(1 - N^2/Theta^2).  Each is a validating shell around an
  arithmetic core (``v1_core``, ``y1_core``) whose only functions are this
  module's ``sin``, ``cos`` and ``sqrt`` and ``_kernels``' ``sqrt`` and
  ``atan2``; the tests evaluate the same core on symbols, take the brackets
  by exact differentiation and compare the kernels with them at 50 digits;
* the full nonsingular and O(sin^2 I) low-inclination per-stage deltas;
* the classical Delaunay-element series: the first-order corrections as
  trigonometric series in k*f + 2*m*g, singular for circular orbits, which
  the benchmark counts against the nonsingular pass.

Each ``*_corrections_*`` function returns the kernel's 6-tuple of deltas
(dpsi, dxi, dchi, dr, dR, dTheta); N is carried unchanged.  The deltas are
added at the mean state (direct map) or subtracted at the osculating state
(inverse map).
"""

from math import cos, sin, sqrt

from . import _kernels
from .gravity import GravityField, check_small_params
from .longperiod import critical_inclination_guard
from .states import DelaunayState, NonsingularState, PolarNodalState, elliptic_projections


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
    function at the mapped state (see oracle.u1_delaunay).
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
