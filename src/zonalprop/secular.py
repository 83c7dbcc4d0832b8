"""Mean (double-prime) Hamiltonian and secular rates.

After both averagings the Hamiltonian depends only on the actions, so the
mean angles advance linearly.  The J2 contribution is carried to second
order; the odd zonal averages out of the mean Hamiltonian entirely (its
effect is purely periodic).  Rates are hand-derived analytic partials of
the mean Hamiltonian, validated against finite differences in the tests.

Sign convention: rates are +d(mean Hamiltonian)/d(action), fixed by the
Keplerian limit ell_dot = mu^2/L^3 = n > 0 and by the node-regression check
against the numerical integrator (prograde orbit, oblate primary).
"""

import math
from dataclasses import dataclass

from . import _kernels
from .gravity import GravityField
from .states import DelaunayState, check_finite


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


def mean_hamiltonian(L: float, G: float, H: float, field: GravityField) -> float:
    """Mean energy; reduces to -mu^2/(2 L^2) for a pure two-body field."""
    amp = field.mu * field.mu / (2.0 * L * L)
    eta = G / L
    s2 = 1.0 - (H / G) ** 2
    _, eps2, _ = _kernels.small_params(G, field.mu, field.alpha, field.c20)
    b, _, _ = _bracket_terms(eta, s2)
    return -amp * (1.0 - eps2 * eta * (4.0 - 6.0 * s2) + 0.75 * eps2 * eps2 * eta * b)


def secular_rates(L: float, G: float, H: float, field: GravityField) -> SecularRates:
    """Analytic partials of the mean Hamiltonian wrt (L, G, H)."""
    ell_dot, g_dot, h_dot = mean_angle_rates(L, G, H, field)
    return SecularRates(ell_dot=ell_dot, g_dot=g_dot, h_dot=h_dot)


def mean_angle_rates(L: float, G: float, H: float,
                     field: GravityField) -> tuple[float, float, float]:
    """(ell_dot, g_dot, h_dot): the secular_rates formula, as a tuple."""
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
    return ell_dot, g_dot, h_dot


def propagate_mean(d: DelaunayState, rates: SecularRates, dt: float) -> DelaunayState:
    """Advance the mean angles by rate*dt (mod 2 pi); actions unchanged.

    Raises ZonalPropError, naming it, when dt or a rate is not finite.
    """
    check_finite("propagate_mean:", ("dt", "rates.ell_dot", "rates.g_dot", "rates.h_dot"),
                 (dt, rates.ell_dot, rates.g_dot, rates.h_dot))
    ell, g, h = _kernels.mean_angles(d.ell, d.g, d.h,
                                     rates.ell_dot, rates.g_dot, rates.h_dot, dt)
    return DelaunayState(ell=ell, g=g, h=h, L=d.L, G=d.G, H=d.H)


def mean_motion(L: float, field: GravityField) -> float:
    """Keplerian mean motion n = mu^2 / L^3."""
    return field.mu * field.mu / L ** 3


def orbital_period(L: float, field: GravityField) -> float:
    """Keplerian period 2 pi / n."""
    return 2.0 * math.pi / mean_motion(L, field)
