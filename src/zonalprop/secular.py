"""The zonal Hamiltonian, the mean (double-prime) Hamiltonian and the
secular rates.

``zonal_hamiltonian`` is the osculating energy of the J2+J3 problem, the
one place the package writes the P2/P3 zonal potential; the oracle's
potential and energy call it.  After both averagings the Hamiltonian
depends only on the actions, so the mean angles advance linearly.  The J2
contribution is carried to second order; the odd zonal averages out of the
mean Hamiltonian entirely (its effect is purely periodic).  Rates are
hand-derived analytic partials of the mean Hamiltonian, checked against
its exact partials in the tests.

Sign convention: rates are +d(mean Hamiltonian)/d(action), fixed by the
Keplerian limit ell_dot = mu^2/L^3 = n > 0 and by the node-regression check
against the numerical integrator (prograde orbit, oblate primary).
"""

import math
from dataclasses import dataclass

from . import _kernels
from .errors import ZonalPropError
from .gravity import GravityField
from .states import DelaunayState, _check_delaunay, check_finite

#: the largest mean-angle advance |rate| * |t - t0| [rad] a propagation
#: accepts: from 2**52 rad on a double keeps no digit below 1 rad, so the
#: angle reduced to (-pi, pi] would be rounding residue
MAX_ADVANCE = 2.0 ** 52


@dataclass(frozen=True)
class SecularRates:
    """Linear rates of the mean angles [rad/time]; the actions are constant."""

    ell_dot: float
    g_dot: float
    h_dot: float


def _bracket_terms(eta: float, s2: float):
    """The second-order bracket B and its partials wrt eta and s^2."""
    s4 = s2 * s2
    b = (5.0 * (8.0 - 16.0 * s2 + 7.0 * s4)
         + (4.0 - 6.0 * s2) ** 2 * eta
         - (8.0 - 8.0 * s2 - 5.0 * s4) * eta * eta)
    b_eta = (4.0 - 6.0 * s2) ** 2 - 2.0 * eta * (8.0 - 8.0 * s2 - 5.0 * s4)
    b_s2 = (-80.0 + 70.0 * s2) - 12.0 * eta * (4.0 - 6.0 * s2) + (8.0 + 10.0 * s2) * eta * eta
    return b, b_eta, b_s2


def zonal_hamiltonian(r, R, Theta, xi, mu, alpha, c20, c30):
    """Energy of the zonal problem in the variables of ``_kernels.cart_to_ns``
    (xi = z/r): (R^2 + Theta^2/r^2)/2 - (mu/r)(1 + (alpha/r)^2 c20 P2(xi) +
    (alpha/r)^3 c30 P3(xi)).  Plain arithmetic and no check, so it runs on
    floats, NumPy arrays and sympy symbols alike; products, not a float **,
    so a float overflow gives inf and not OverflowError.  The zonal sum is
    nested, ar (ar (c20 P2 + ar c30 P3)) with ar = alpha/r, so each
    coefficient meets its P before any power of ar: wherever ar is finite a
    zero term (c20 = c30 = 0, or P3 = 0 on the equator) adds exactly 0, not
    inf * 0, and the two terms are summed before they can overflow, so the
    larger one's sign stands and not inf - inf."""
    ar = alpha / r
    p2 = (3 * xi * xi - 1) / 2
    p3 = (5 * xi * xi - 3) * xi / 2
    return ((R * R + Theta * Theta / (r * r)) / 2
            - (mu / r) * (1 + ar * (ar * (c20 * p2 + ar * (c30 * p3)))))


def mean_hamiltonian(L: float, G: float, H: float, field: GravityField) -> float:
    """Mean energy; reduces to -mu^2/(2 L^2) for a pure two-body field."""
    amp = field.mu * field.mu / (2.0 * L * L)
    eta = G / L
    s2 = 1.0 - (H / G) ** 2
    _, eps2, _ = _kernels.small_params(G, field.mu, field.alpha, field.c20)
    b, _, _ = _bracket_terms(eta, s2)
    return -amp * (1.0 - eps2 * eta * (4.0 - 6.0 * s2) + 0.75 * eps2 * eps2 * eta * b)


def secular_rates(L: float, G: float, H: float, field: GravityField) -> SecularRates:
    """Analytic partials of the mean Hamiltonian wrt (L, G, H).

    Raises ZonalPropError, naming it, for an action that is not finite,
    unless 0 < G <= L and |H| <= G, as for a DelaunayState, and for a rate
    that is not finite (at tiny actions eps2 overflows).
    """
    check_finite("secular_rates:", ("L", "G", "H"), (L, G, H))
    _check_delaunay(L, G, H)
    ell_dot, g_dot, h_dot = mean_angle_rates(L, G, H, field, kind="secular_rates:")
    return SecularRates(ell_dot=ell_dot, g_dot=g_dot, h_dot=h_dot)


def mean_angle_rates(L: float, G: float, H: float, field: GravityField,
                     span: float = 0.0, kind: str = "mean_angle_rates:"
                     ) -> tuple[float, float, float]:
    """(ell_dot, g_dot, h_dot): the secular_rates formula, as a tuple.  Every
    propagation takes its rates from here, so the ephemeris and the mean
    elements agree.

    ``span`` is the largest |t - t0| the rates will advance the angles over;
    raises ZonalPropError, naming it, when a rate is not finite, and when
    some rate times span reaches MAX_ADVANCE; the message starts ``kind``.
    """
    n = mean_motion(L, field)
    eta = G / L
    c = H / G
    c2 = c * c
    s2 = 1.0 - c2
    _, eps2, _ = _kernels.small_params(G, field.mu, field.alpha, field.c20)
    b, b_eta, b_s2 = _bracket_terms(eta, s2)
    ell_dot = n * (1.0 - 1.5 * eps2 * eta * (4.0 - 6.0 * s2)
                   + 0.375 * eps2 * eps2 * eta * (3.0 * b + eta * b_eta))
    g_dot = (-3.0 * n * eps2 * (4.0 - 5.0 * s2)
             - 0.375 * n * eps2 * eps2 * (-7.0 * b + eta * b_eta + 2.0 * c2 * b_s2))
    h_dot = n * c * (6.0 * eps2 + 0.75 * eps2 * eps2 * b_s2)
    # check_advance inline (a call would cost the single-state path), called
    # only to raise.  The sum of the rates' sizes is at least the largest
    # one, and NaN when a rate is NaN or an inf rate meets span = 0: the
    # negated test sends those to check_advance too
    if not (abs(ell_dot) + abs(g_dot) + abs(h_dot)) * span < MAX_ADVANCE:
        check_advance(kind, SecularRates(ell_dot, g_dot, h_dot), "|t - t0|", span)
    return ell_dot, g_dot, h_dot


def check_advance(kind: str, rates: SecularRates, name: str, span: float) -> None:
    """ZonalPropError, prefixed ``kind``, when a rate is not finite, or when
    some rate times span (named ``name``) reaches MAX_ADVANCE."""
    values = (rates.ell_dot, rates.g_dot, rates.h_dot)
    check_finite(kind, ("rates.ell_dot", "rates.g_dot", "rates.h_dot"), values)
    rate = max(map(abs, values))
    if rate * span >= MAX_ADVANCE:
        raise ZonalPropError(f"mean angle advance {rate * span:.6g} rad ({rate:.6g} rad/s "
                             f"over {name} = {span:.6g} s) is not below 2**52 rad: the angle "
                             "would keep no digits")


def propagate_mean(d: DelaunayState, rates: SecularRates, dt: float) -> DelaunayState:
    """Advance the mean angles by rate*dt (mod 2 pi); actions unchanged.

    Raises ZonalPropError, naming it, when dt or a rate is not finite, or
    when some rate times |dt| reaches MAX_ADVANCE.
    """
    check_finite("propagate_mean:", ("dt",), (dt,))
    check_advance("propagate_mean:", rates, "|dt|", abs(dt))
    ell, g, h = _kernels.mean_angles(d.ell, d.g, d.h,
                                     rates.ell_dot, rates.g_dot, rates.h_dot, dt)
    return DelaunayState(ell=_kernels.wrap_pi(ell), g=g, h=h, L=d.L, G=d.G, H=d.H)


def mean_motion(L: float, field: GravityField) -> float:
    """Keplerian mean motion n = mu^2 / L^3; ZonalPropError unless L is
    positive and finite and n is a positive finite double (L^3 neither
    overflows nor comes too close to 0)."""
    # checked inline: mean_angle_rates runs this on the single-state path
    if not 0.0 < L < math.inf:
        raise ZonalPropError(f"L must be positive and finite, got {L}")
    try:
        n = field.mu * field.mu / L ** 3
    except ArithmeticError:  # L ** 3 overflows, or underflows to 0
        n = math.nan
    if not 0.0 < n < math.inf:
        raise ZonalPropError(f"mean motion mu^2 / L^3 is not a positive finite double "
                             f"for L = {L}")
    return n


def orbital_period(L: float, field: GravityField) -> float:
    """Keplerian period 2 pi / n; raises as mean_motion does, and when the
    period overflows."""
    period = 2.0 * math.pi / mean_motion(L, field)
    if period == math.inf:
        raise ZonalPropError(f"orbital period 2 pi / n overflows for L = {L}")
    return period
