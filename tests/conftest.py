"""Shared fixtures and state generators for the test suite."""

import math
from dataclasses import replace

import numpy as np
import pytest

from zonalprop import EARTH, CartesianState, DelaunayState, _kernels, nonsingular_to_cartesian
from zonalprop.states import PolarNodalState, delaunay_to_polar, polar_to_nonsingular

MU = EARTH.mu

#: the state fields a correction stage's six deltas apply to, in kernel order
NONSINGULAR_FIELDS = ("psi", "xi", "chi", "r", "R", "Theta")


def field_small_params(Theta, field):
    """``_kernels.small_params`` (p, eps2, eps3) with the constants of ``field``."""
    return _kernels.small_params(Theta, field.mu, field.alpha, field.c20, field.c30)


def elements_to_polar(a, e, inc, ell, g, h, mu=MU) -> PolarNodalState:
    """Polar-nodal state from Keplerian-style elements (angles in rad)."""
    L = math.sqrt(mu * a)
    G = L * math.sqrt(1.0 - e * e)
    H = G * math.cos(inc)
    return delaunay_to_polar(DelaunayState(ell=ell, g=g, h=h, L=L, G=G, H=H), mu)


def elements_to_cartesian(a, e, inc, ell, g, h, mu=MU) -> CartesianState:
    return nonsingular_to_cartesian(polar_to_nonsingular(
        elements_to_polar(a, e, inc, ell, g, h, mu)))


def random_polar_states(n, rng, e_range=(0.01, 0.7), i_range_deg=(5.0, 175.0),
                        avoid_critical=0.05, mu=MU):
    """Seeded sample of valid polar-nodal states away from the critical band."""
    out = []
    while len(out) < n:
        a = rng.uniform(6800.0, 30000.0)
        e = rng.uniform(*e_range)
        inc = math.radians(rng.uniform(*i_range_deg))
        if abs(1.0 - 5.0 * math.cos(inc) ** 2) < avoid_critical:
            continue
        ell = rng.uniform(-math.pi, math.pi)
        g = rng.uniform(-math.pi, math.pi)
        h = rng.uniform(-math.pi, math.pi)
        out.append(elements_to_polar(a, e, inc, ell, g, h, mu))
    return out


def add_deltas(ns, deltas, sign=1.0):
    """``ns`` with one correction stage's deltas (dpsi, dxi, dchi, dr, dR,
    dTheta) added (sign +1: the direct map, deltas evaluated at the mean
    state) or subtracted (sign -1: the inverse map, deltas evaluated at the
    osculating state).  There is no N slot: N is carried.
    """
    return replace(ns, **{name: getattr(ns, name) + sign * d
                          for name, d in zip(NONSINGULAR_FIELDS, deltas)})


def angle_diff(a, b):
    """Smallest difference between two angles."""
    return abs(math.atan2(math.sin(a - b), math.cos(a - b)))


def cart_distance(c1: CartesianState, c2: CartesianState) -> float:
    return math.sqrt((c1.x - c2.x) ** 2 + (c1.y - c2.y) ** 2 + (c1.z - c2.z) ** 2)


def loglog_slope(xs, ys) -> float:
    return float(np.polyfit(np.log(xs), np.log(ys), 1)[0])


@pytest.fixture(scope="session", autouse=True)
def _warm_kernels():
    """Evaluate the kernels once before any test, so first-call costs stay
    out of timed sections."""
    from zonalprop.benchmark import delaunay_long_series, delaunay_short_series
    from zonalprop.propagator import ephemeris_array
    cart = elements_to_cartesian(7000.0, 0.05, math.radians(30.0), 0.3, 0.7, 1.1)
    ephemeris_array(cart, 0.0, np.array([0.0, 10.0]), EARTH)
    delaunay_short_series(0.3, 0.7, 52000.0, 51900.0, 45000.0, MU, EARTH.alpha, EARTH.c20)
    delaunay_long_series(0.7, 52000.0, 51900.0, 45000.0, MU, EARTH.alpha, EARTH.c20, EARTH.c30)
    yield
