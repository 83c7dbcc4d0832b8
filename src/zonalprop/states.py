"""State representations and the exact transformations among Cartesian,
polar-nodal, nonsingular, and Delaunay sets.

The nonsingular set (psi, xi, chi, r, R, Theta) carries the polar component
of the angular momentum N as a constant of motion.  Two charts cover all
inclinations, and the sign of N picks one: psi = theta + nu for N >= 0 and
psi* = theta - nu for N < 0, realised internally by mirroring the y axis.
Each chart is regular on its own side of N = 0, so the chart is never
stored or chosen: it is read off N wherever it is used.
"""

import math
from dataclasses import dataclass

from . import _kernels
from .errors import EquatorialDecompositionError, NonEllipticStateError, ZonalPropError

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
        return math.sqrt(max(0.0, 1.0 - self.s2))


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
    """Raise ZonalPropError naming the first of ``values`` that is not finite."""
    for name, value in zip(names, values):
        if not math.isfinite(value):
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
# polar-nodal <-> nonsingular
# ---------------------------------------------------------------------------

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

    Raises for non-finite components, a zero position, rectilinear states
    (vanishing angular momentum) and results that break the NonsingularState
    invariants.
    """
    x, y, z, vx, vy, vz = cart.x, cart.y, cart.z, cart.vx, cart.vy, cart.vz
    if not (math.isfinite(x) and math.isfinite(y) and math.isfinite(z)
            and math.isfinite(vx) and math.isfinite(vy) and math.isfinite(vz)):
        check_finite("state component", ("x", "y", "z", "vx", "vy", "vz"),
                     (x, y, z, vx, vy, vz))
    # ``**`` and not ``*``: a float power that overflows raises OverflowError
    try:
        if x ** 2 + y ** 2 + z ** 2 <= 0.0:
            raise ZonalPropError("position norm must be positive")
    except OverflowError:
        raise ZonalPropError("position norm overflows a float") from None
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
# Delaunay <-> polar-nodal
# ---------------------------------------------------------------------------

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


def elliptic_projections(r: float, R: float, Theta: float, mu: float):
    """(ainv, kappa, sigma, e): the inverse semi-major axis and the
    eccentricity-vector projections of the osculating ellipse through
    (r, R, Theta), for r > 0 and Theta > 0; the package's one ellipticity
    check.

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
