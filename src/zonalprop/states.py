"""State representations and the exact transformations the pipeline runs:
Cartesian <-> nonsingular, and the osculating ellipse through a nonsingular
state -> Delaunay elements.

The nonsingular set (psi, xi, chi, r, R, Theta) carries the polar component
of the angular momentum N as a constant of motion.  Two charts cover all
inclinations, and the sign of N picks one: psi = theta + nu for N >= 0 and
psi* = theta - nu for N < 0, realised internally by mirroring the y axis.
Each chart is regular on its own side of N = 0, so the chart is never
stored or chosen: it is read off N wherever it is used.

The paper derives the nonsingular corrections from the polar-nodal chart
(r, theta, nu, R, Theta, N), but the pipeline never evaluates in it: the
chart and its maps are test references, in ``tests/reference_forms.py``.
"""

import math
from dataclasses import dataclass

from . import _kernels
from .errors import NonEllipticStateError, ZonalPropError

_SLACK = 1e-9


@dataclass(frozen=True)
class CartesianState:
    """Inertial position [length] and velocity [length/time]."""

    x: float
    y: float
    z: float
    vx: float
    vy: float
    vz: float

    def position(self) -> tuple[float, float, float]:
        return (self.x, self.y, self.z)

    def velocity(self) -> tuple[float, float, float]:
        return (self.vx, self.vy, self.vz)


@dataclass(frozen=True)
class NonsingularState:
    """Nonsingular, non-canonical set (psi, xi, chi, r, R, Theta) plus N.

    psi is theta + nu when N >= 0 and psi* = theta - nu when N < 0.
    """

    psi: float
    xi: float
    chi: float
    r: float
    R: float
    Theta: float
    N: float

    def __post_init__(self):
        check_finite("nonsingular component", ("psi", "xi", "chi", "r", "R", "Theta", "N"),
                     (self.psi, self.xi, self.chi, self.r, self.R, self.Theta, self.N))
        _check_nonsingular(self.xi, self.chi, self.r, self.Theta)

    @property
    def retrograde(self) -> bool:
        """Whether psi is the psi* = theta - nu chart: exactly when N < 0."""
        return self.N < 0.0

    @property
    def s2(self) -> float:
        """sin^2 of the inclination, from the state components themselves."""
        return self.xi * self.xi + self.chi * self.chi

    @property
    def cos_inclination_abs(self) -> float:
        return abs(self.N) / max(self.Theta, abs(self.N))


@dataclass(frozen=True)
class DelaunayState:
    """Delaunay action-angle set (ell, g, h, L, G, H)."""

    ell: float
    g: float
    h: float
    L: float
    G: float
    H: float

    def __post_init__(self):
        check_finite("Delaunay element", ("ell", "g", "h", "L", "G", "H"),
                     (self.ell, self.g, self.h, self.L, self.G, self.H))
        _check_delaunay(self.L, self.G, self.H)


def check_finite(kind: str, names, values) -> None:
    """Raise ZonalPropError naming the first of ``values`` that is not finite:
    NaN, an infinity, or a Python int beyond the doubles."""
    for name, value in zip(names, values):
        try:
            finite = math.isfinite(value)
        except OverflowError:  # an int too large for a float
            finite = False
        if not finite:
            raise ZonalPropError(f"{kind} {name} must be finite, got {value}")


def _check_nonsingular(xi, chi, r, Theta) -> None:
    """The invariants of a NonsingularState."""
    if not (r > 0.0 and Theta > 0.0):
        raise ZonalPropError(f"need r > 0 and Theta > 0, got r={r}, Theta={Theta}")
    if xi * xi + chi * chi > 1.0 + _SLACK:
        raise ZonalPropError("xi^2 + chi^2 must not exceed 1")


def _check_delaunay(L, G, H) -> None:
    """The invariants of a DelaunayState."""
    if not (0.0 < G <= L * (1.0 + _SLACK)):
        raise ZonalPropError(f"need 0 < G <= L, got G={G}, L={L}")
    if not abs(H) <= G * (1.0 + _SLACK):
        raise ZonalPropError(f"|H| = {abs(H)} exceeds G = {G}")


# ---------------------------------------------------------------------------
# nonsingular <-> Cartesian
# ---------------------------------------------------------------------------

def nonsingular_to_cartesian(ns: NonsingularState) -> CartesianState:
    """Rotation-free map to Cartesian coordinates.

    Uses |c| = |N|/Theta (N is the carried integral of the zonal problem) and
    the chart the sign of N picks, so every inclination maps, the equatorial
    retrograde orbit (c = -1) included.
    """
    x, y, z, vx, vy, vz = _kernels.ns_to_cart(ns.psi, ns.xi, ns.chi, ns.r, ns.R,
                                              ns.Theta, ns.N)
    return CartesianState(x, y, z, vx, vy, vz)


def cart_to_ns_checked(cart: CartesianState):
    """``_kernels.cart_to_ns`` of a checked Cartesian state: the tuple
    (psi, xi, chi, r, R, Theta, N) that cartesian_to_nonsingular
    wraps, with the same checks and errors.

    Raises, in this order, for non-finite components (here), a position
    whose squared norm is 0 or overflows and rectilinear states (vanishing
    angular momentum), both in ``cart_to_ns``, which forms the norm, and
    results that break the NonsingularState invariants.
    """
    x, y, z, vx, vy, vz = cart.x, cart.y, cart.z, cart.vx, cart.vy, cart.vz
    try:
        finite = (math.isfinite(x) and math.isfinite(y) and math.isfinite(z)
                  and math.isfinite(vx) and math.isfinite(vy) and math.isfinite(vz))
    except OverflowError:  # an int too large for a float
        finite = False
    if not finite:
        check_finite("state component", ("x", "y", "z", "vx", "vy", "vz"),
                     (x, y, z, vx, vy, vz))
    ns = _kernels.cart_to_ns(x, y, z, vx, vy, vz)
    _check_nonsingular(ns[1], ns[2], ns[3], ns[5])
    return ns


def cartesian_to_nonsingular(cart: CartesianState) -> NonsingularState:
    """Inverse map; purely geometric.

    Raises for non-finite components and for rectilinear states (vanishing
    angular momentum).  The chart is selected by the sign of N, so
    equatorial retrograde states convert without trouble.
    """
    return NonsingularState(*cart_to_ns_checked(cart))


# ---------------------------------------------------------------------------
# the osculating ellipse -> Delaunay
# ---------------------------------------------------------------------------

def elliptic_projections(r: float, R: float, Theta: float, mu: float):
    """(ainv, kappa, sigma, e): the inverse semi-major axis and the
    eccentricity-vector projections of the osculating ellipse through
    (r, R, Theta), for r > 0 and Theta > 0; the package's one ellipticity
    check.

    Raises NonEllipticStateError for non-negative energy or e >= 1, so
    nothing downstream takes sqrt(1 - e^2) of a hyperbola, and
    ZonalPropError, naming it, for a 1/a that is not finite.  Both tests
    fail for NaN.
    """
    # a float ** raises OverflowError where a product gives inf, but the
    # product would round L unlike pow in 3 of 3000 catalogue states
    try:
        w2 = (Theta / r) ** 2
    except OverflowError:
        w2 = math.inf
    ainv = 2.0 / r - (R * R + w2) / mu
    if not 0.0 < ainv < math.inf:
        if ainv <= 0.0:
            raise NonEllipticStateError("state is not elliptic (non-negative energy)")
        raise ZonalPropError(f"inverse semi-major axis 1/a must be finite, got {ainv}")
    p = Theta * Theta / mu
    kappa = p / r - 1.0
    sigma = p * R / Theta
    e = math.hypot(kappa, sigma)
    if not e < 1.0:
        raise NonEllipticStateError(f"state is not elliptic (e = {e})")
    return ainv, kappa, sigma, e


def ellipse_elements(r: float, theta: float, h: float, R: float, Theta: float,
                     N: float, mu: float):
    """(ell, g, h, L, G, H, circular): the Delaunay elements of the osculating
    ellipse through (r, R, Theta) with argument of latitude theta, node h and
    polar momentum N, and whether the ellipse counts as circular
    (e < ``_kernels.CIRCULAR_ECC``: the split f = 0 is then conventional).

    H = N exactly, and G = max(Theta, |N|): a corrected Theta that fell below
    |N| near the equator is raised instead of changing the integral N.
    Raises NonEllipticStateError for non-negative energy or e >= 1 (see
    ``elliptic_projections``), and ZonalPropError where the elements
    break the DelaunayState invariants.
    """
    ainv, kappa, sigma, _ = elliptic_projections(r, R, Theta, mu)
    a = 1.0 / ainv
    e, eta, f, u, ell, phi = _kernels.anomaly_block(kappa, sigma)
    G = max(Theta, abs(N))
    wrap_pi = _kernels.wrap_pi
    ell, g, h = wrap_pi(ell), wrap_pi(theta - f), wrap_pi(h)
    L = max(math.sqrt(mu * a), G)
    _check_delaunay(L, G, N)
    return ell, g, h, L, G, N, e < _kernels.CIRCULAR_ECC
