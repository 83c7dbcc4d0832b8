import math
import random
from dataclasses import astuple, replace

import numpy as np
import pytest

from zonalprop import (EARTH, CartesianState, DelaunayState, NonsingularState, ZonalPropError,
                       _kernels, cartesian_to_nonsingular, ephemeris_array,
                       nonsingular_to_cartesian, osculating_to_mean)
from zonalprop.states import _check_delaunay, elliptic_projections
from conftest import angle_diff
from reference_forms import (EquatorialDecompositionError, PolarNodalState, delaunay_to_polar,
                             nonsingular_to_polar, polar_to_delaunay, polar_to_nonsingular)

MU = EARTH.mu


def _random_delaunay(rng, e_range=(0.0, 0.9), i_range_deg=(0.0, 180.0)):
    a = rng.uniform(6800.0, 42000.0)
    e = rng.uniform(*e_range)
    inc = math.radians(rng.uniform(*i_range_deg))
    L = math.sqrt(MU * a)
    G = L * math.sqrt(1.0 - e * e)
    return DelaunayState(ell=rng.uniform(-math.pi, math.pi),
                         g=rng.uniform(-math.pi, math.pi),
                         h=rng.uniform(-math.pi, math.pi),
                         L=L, G=G, H=G * math.cos(inc))


class TestValidation:
    def test_polar_nodal(self):
        with pytest.raises(ZonalPropError):
            PolarNodalState(r=-1.0, theta=0.0, nu=0.0, R=0.0, Theta=1.0, N=0.0)
        with pytest.raises(ZonalPropError):
            PolarNodalState(r=1.0, theta=0.0, nu=0.0, R=0.0, Theta=1.0, N=2.0)

    def test_nonsingular(self):
        with pytest.raises(ZonalPropError):
            NonsingularState(psi=0.0, xi=0.8, chi=0.8, r=1.0, R=0.0, Theta=1.0, N=0.0)

    @pytest.mark.parametrize("name", ["psi", "xi", "chi", "r", "R", "Theta", "N"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_nonsingular_non_finite_component_named(self, name, value):
        # NaN used to pass every invariant and convert to a NaN state; psi = inf
        # ended in a bare math domain error and Theta = inf in infinite velocities
        ns = NonsingularState(psi=0.3, xi=0.2, chi=0.4, r=7000.0, R=0.3,
                              Theta=52000.0, N=-26000.0)
        with pytest.raises(ZonalPropError, match=f"nonsingular component {name} must be finite"):
            replace(ns, **{name: value})

    def test_delaunay(self):
        with pytest.raises(ZonalPropError):
            DelaunayState(ell=0.0, g=0.0, h=0.0, L=1.0, G=2.0, H=0.0)
        with pytest.raises(ZonalPropError):
            DelaunayState(ell=0.0, g=0.0, h=0.0, L=1.0, G=0.5, H=0.9)

    @pytest.mark.parametrize("name", ["ell", "g", "h", "L", "G", "H"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_delaunay_non_finite_element_named(self, name, value):
        d = _random_delaunay(random.Random(11))
        with pytest.raises(ZonalPropError, match=f"Delaunay element {name} must be finite"):
            replace(d, **{name: value})

    @pytest.mark.parametrize("r, R, Theta", [(7000.0, math.nan, 52000.0),
                                             (math.nan, 0.0, 52000.0),
                                             (1e-320, 0.0, 1e-300)],
                             ids=["R-nan", "r-nan", "r-subnormal"])
    def test_elliptic_projections_reject_a_non_finite_inverse_axis(self, r, R, Theta):
        # a NaN 1/a passed the energy test, and so did an infinite one
        with pytest.raises(ZonalPropError, match=r"^inverse semi-major axis 1/a must be finite"):
            elliptic_projections(r, R, Theta, MU)

    def test_delaunay_invariant_rejects_nan_H(self):
        # the |H| <= G comparison is False for NaN, so it is written negated
        with pytest.raises(ZonalPropError, match=r"\|H\| = nan exceeds G"):
            _check_delaunay(1.0, 0.9, math.nan)


class TestPolarNonsingular:
    def test_equatorial_prograde(self):
        pn = PolarNodalState(r=7000.0, theta=0.4, nu=1.0, R=0.1, Theta=52000.0, N=52000.0)
        ns = polar_to_nonsingular(pn)
        assert ns.xi == pytest.approx(0.0, abs=1e-12)
        assert ns.chi == pytest.approx(0.0, abs=1e-12)
        assert angle_diff(ns.psi, pn.theta + pn.nu) < 1e-14
        assert not ns.retrograde

    def test_polar_orbit(self):
        pn = PolarNodalState(r=7000.0, theta=math.pi / 2, nu=0.0, R=0.0,
                             Theta=52000.0, N=0.0)
        ns = polar_to_nonsingular(pn)
        assert ns.xi == pytest.approx(1.0, rel=1e-14)
        assert ns.chi == pytest.approx(0.0, abs=1e-14)
        assert ns.psi == pytest.approx(math.pi / 2, rel=1e-14)

    def test_i45(self):
        inc = math.radians(45.0)
        theta, nu = math.radians(30.0), math.radians(60.0)
        pn = PolarNodalState(r=7000.0, theta=theta, nu=nu, R=0.0,
                             Theta=52000.0, N=52000.0 * math.cos(inc))
        ns = polar_to_nonsingular(pn)
        assert ns.xi == pytest.approx(math.sin(inc) * math.sin(theta), rel=1e-13)
        assert ns.chi == pytest.approx(math.sin(inc) * math.cos(theta), rel=1e-13)
        assert ns.psi == pytest.approx(math.radians(90.0), rel=1e-13)

    def test_round_trip(self):
        rng = random.Random(5)
        for _ in range(1000):
            inc = math.radians(rng.uniform(0.001, 179.999))
            if abs(math.sin(inc)) < 1e-6:
                continue
            Theta = rng.uniform(45000.0, 90000.0)
            pn = PolarNodalState(r=rng.uniform(6700.0, 40000.0),
                                 theta=rng.uniform(-math.pi, math.pi),
                                 nu=rng.uniform(-math.pi, math.pi),
                                 R=rng.uniform(-2.0, 2.0),
                                 Theta=Theta, N=Theta * math.cos(inc))
            back = nonsingular_to_polar(polar_to_nonsingular(pn))
            assert back.r == pytest.approx(pn.r, rel=1e-12)
            assert back.R == pytest.approx(pn.R, rel=1e-12, abs=1e-12)
            assert back.Theta == pytest.approx(pn.Theta, rel=1e-12)
            assert back.N == pytest.approx(pn.N, rel=1e-12)
            assert angle_diff(back.theta, pn.theta) < 1e-12
            assert angle_diff(back.nu, pn.nu) < 1e-12

    def test_xi_one_gives_theta_90(self):
        ns = NonsingularState(psi=1.0, xi=1.0, chi=0.0, r=7000.0, R=0.0,
                              Theta=52000.0, N=0.0)
        assert nonsingular_to_polar(ns).theta == pytest.approx(math.pi / 2)

    def test_equatorial_decomposition_error(self):
        ns = NonsingularState(psi=1.0, xi=0.0, chi=0.0, r=7000.0, R=0.0,
                              Theta=52000.0, N=52000.0)
        with pytest.raises(EquatorialDecompositionError):
            nonsingular_to_polar(ns)


class TestNonsingularCartesian:
    def test_circular_equatorial(self):
        ns = NonsingularState(psi=0.0, xi=0.0, chi=0.0, r=1.0, R=0.0,
                              Theta=1.0, N=1.0)
        cart = nonsingular_to_cartesian(ns)
        assert (cart.x, cart.y, cart.z) == pytest.approx((1.0, 0.0, 0.0))
        assert (cart.vx, cart.vy, cart.vz) == pytest.approx((0.0, 1.0, 0.0))

    def test_polar_oriented_state(self):
        ns = NonsingularState(psi=math.pi / 2, xi=1.0, chi=0.0, r=1.0, R=0.0,
                              Theta=1.0, N=0.0)
        cart = nonsingular_to_cartesian(ns)
        assert (cart.x, cart.y, cart.z) == pytest.approx((0.0, 0.0, 1.0), abs=1e-15)
        assert (cart.vx, cart.vy, cart.vz) == pytest.approx((-1.0, 0.0, 0.0), abs=1e-15)

    def test_geometry_consistency(self):
        rng = random.Random(6)
        for _ in range(200):
            d = _random_delaunay(rng, e_range=(0.0, 0.8))
            pn = delaunay_to_polar(d, MU)
            ns = polar_to_nonsingular(pn)
            cart = nonsingular_to_cartesian(ns)
            rnorm = math.sqrt(cart.x ** 2 + cart.y ** 2 + cart.z ** 2)
            assert rnorm == pytest.approx(ns.r, rel=1e-12)
            assert cart.x * cart.vy - cart.y * cart.vx == pytest.approx(
                ns.N, rel=1e-11, abs=1e-9)

    def test_inverse_example(self):
        cart = CartesianState(1.0, 0.0, 0.0, 0.0, 1.0, 0.0)
        ns = cartesian_to_nonsingular(cart)
        assert ns.psi == pytest.approx(0.0, abs=1e-15)
        assert ns.xi == 0.0 and ns.chi == 0.0
        assert ns.r == 1.0 and ns.R == 0.0
        assert ns.Theta == 1.0 and ns.N == 1.0

    def test_round_trip_both_charts(self):
        rng = random.Random(7)
        count_retro = 0
        for _ in range(1000):
            d = _random_delaunay(rng)
            pn = delaunay_to_polar(d, MU)
            ns = polar_to_nonsingular(pn)
            cart = nonsingular_to_cartesian(ns)
            ns2 = cartesian_to_nonsingular(cart)
            count_retro += ns2.retrograde
            assert ns2.retrograde == ns.retrograde
            assert angle_diff(ns2.psi, ns.psi) < 1e-12
            assert ns2.xi == pytest.approx(ns.xi, abs=1e-12)
            assert ns2.chi == pytest.approx(ns.chi, abs=1e-12)
            assert ns2.r == pytest.approx(ns.r, rel=1e-12)
            assert ns2.R == pytest.approx(ns.R, rel=1e-12, abs=1e-12)
            assert ns2.Theta == pytest.approx(ns.Theta, rel=1e-12)
            assert ns2.N == pytest.approx(ns.N, rel=1e-12, abs=1e-9)
            cart2 = nonsingular_to_cartesian(ns2)
            for k in ("x", "y", "z", "vx", "vy", "vz"):
                assert getattr(cart2, k) == pytest.approx(getattr(cart, k),
                                                          rel=1e-12, abs=1e-12)
        assert count_retro > 100  # both charts exercised

    def test_equatorial_retrograde(self):
        # N = -Theta: the psi* chart handles c = -1 without trouble
        cart = CartesianState(7000.0, 0.0, 0.0, 0.0, -7.5, 0.0)
        ns = cartesian_to_nonsingular(cart)
        assert ns.retrograde
        assert ns.N == pytest.approx(-ns.Theta, rel=1e-14)
        cart2 = nonsingular_to_cartesian(ns)
        for k in ("x", "y", "z", "vx", "vy", "vz"):
            assert getattr(cart2, k) == pytest.approx(getattr(cart, k),
                                                      rel=1e-13, abs=1e-13)

    @pytest.mark.parametrize("xi", [0.0, 1e-160])
    def test_off_shell_projection_stays_finite(self, xi):
        # xi^2 = 1e-320 is subnormal: s2_shell / xi^2 overflowed to inf and
        # the rows were NaN; xi = chi = 0 stays in the plane z = 0
        rows = _kernels.ns_to_cart(0.3, xi, 0.0, 7000.0, 0.0, 52000.0, 51999.0)
        assert all(math.isfinite(v) for v in rows)
        assert (rows[2] == 0.0) == (xi == 0.0)

    def test_rectilinear_error(self):
        cart = CartesianState(7000.0, 0.0, 0.0, 1.0, 0.0, 0.0)
        with pytest.raises(ZonalPropError):
            cartesian_to_nonsingular(cart)

    @pytest.mark.parametrize("name", ["y", "vz"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_component_named(self, name, value):
        # the bad component is named before a NaN reaches r or Theta
        cart = replace(CartesianState(7000.0, 10.0, 20.0, 0.1, 7.5, 0.2), **{name: value})
        for convert in (cartesian_to_nonsingular,
                        lambda c: osculating_to_mean(c, EARTH)):
            with pytest.raises(ZonalPropError, match=f"state component {name} must be finite"):
                convert(cart)


#: states directly over a pole (x = y = 0), where xi = +-1 and c = 0 make the
#: rotation factors t and q both vanish: polar orbits at their highest or
#: lowest latitude, moving along x or y
OVER_A_POLE = [(0.0, 0.0, 7000.0, 7.5, 0.0, 0.0), (0.0, 0.0, -7000.0, 7.5, 0.0, 0.0),
               (0.0, 0.0, 7000.0, 0.0, 7.5, 0.0), (0.0, 0.0, -7000.0, 0.0, -7.2, 0.3)]


def _theta_plus_nu(state):
    """theta + nu from the node line n and the orbit normal h."""
    r, v = np.array(state[:3]), np.array(state[3:])
    h = np.cross(r, v)
    nu = math.atan2(h[0], -h[1])
    n = np.array([math.cos(nu), math.sin(nu), 0.0])
    theta = math.atan2(np.cross(h, n) @ r / np.linalg.norm(h), n @ r)
    return theta + nu


class TestOverAPole:
    @pytest.mark.parametrize("state", OVER_A_POLE)
    def test_psi_is_theta_plus_nu(self, state):
        ns = cartesian_to_nonsingular(CartesianState(*state))
        assert ns.N == 0.0
        assert angle_diff(ns.psi, _theta_plus_nu(state)) < 1e-15
        assert abs(ns.xi) == 1.0
        back = nonsingular_to_cartesian(ns)
        for k, v in zip(("x", "y", "z", "vx", "vy", "vz"), state):
            assert getattr(back, k) == pytest.approx(v, rel=1e-14, abs=1e-12)

    @pytest.mark.parametrize("state", OVER_A_POLE)
    def test_requests_answer(self, state):
        cart = CartesianState(*state)
        mean = osculating_to_mean(cart, EARTH)
        assert all(math.isfinite(v) for v in astuple(mean.delaunay))
        for grid in ([0.0, 600.0], np.arange(0.0, 64 * 60.0, 60.0)):
            rows = ephemeris_array(cart, 0.0, grid, EARTH)
            assert np.all(np.isfinite(rows))
            # the first-order round trip at t0 lands within metres of the input
            assert np.linalg.norm(rows[0, :3] - state[:3]) < 0.05

    def test_psi_near_a_pole_to_rounding(self):
        # states within 1e-5 rad of a pole, half of them on near-polar orbits
        # and half at any inclination, in both charts; a form that divides by
        # t^2 + q^2, which vanishes over the pole, loses up to 7.5e-10 rad here
        rng = random.Random(17)
        worst = 0.0
        for _ in range(4000):
            theta = math.copysign(0.5 * math.pi, rng.uniform(-1.0, 1.0)) + rng.uniform(-1e-5, 1e-5)
            inc = rng.choice((0.5 * math.pi + rng.uniform(-1e-5, 1e-5), rng.uniform(0.0, math.pi)))
            nu = rng.uniform(-math.pi, math.pi)
            s, c = math.sin(inc), math.cos(inc)
            Theta = 52000.0
            psi = math.remainder(theta + nu if c >= 0.0 else theta - nu, 2.0 * math.pi)
            state = _kernels.ns_to_cart(psi, s * math.sin(theta), s * math.cos(theta), 7000.0,
                                        rng.uniform(-1.0, 1.0), Theta, Theta * c)
            worst = max(worst, angle_diff(_kernels.cart_to_ns(*state)[0], psi))
        assert worst < 1e-14


class TestDelaunayPolar:
    def test_circular(self):
        p = 7000.0
        L = math.sqrt(MU * p)
        d = DelaunayState(ell=0.5, g=0.3, h=0.1, L=L, G=L, H=0.5 * L)
        pn = delaunay_to_polar(d, MU)
        assert pn.r == pytest.approx(p, rel=1e-14)
        assert pn.R == pytest.approx(0.0, abs=1e-12)
        assert angle_diff(pn.theta, d.ell + d.g) < 1e-12

    def test_periapsis(self):
        a, e = 8000.0, 0.3
        L = math.sqrt(MU * a)
        G = L * math.sqrt(1 - e * e)
        d = DelaunayState(ell=0.0, g=0.0, h=0.0, L=L, G=G, H=G)
        pn = delaunay_to_polar(d, MU)
        assert pn.r == pytest.approx(a * (1 - e), rel=1e-14)
        p = G * G / MU
        assert pn.r == pytest.approx(p / (1 + e), rel=1e-14)

    def test_round_trip(self):
        rng = random.Random(8)
        for _ in range(500):
            d = _random_delaunay(rng, e_range=(1e-4, 0.9), i_range_deg=(0.5, 179.5))
            pn = delaunay_to_polar(d, MU)
            d2 = polar_to_delaunay(pn, MU)
            assert d2.L == pytest.approx(d.L, rel=1e-12)
            assert d2.G == pytest.approx(d.G, rel=1e-12)
            assert d2.H == pytest.approx(d.H, rel=1e-12)
            assert angle_diff(d2.ell, d.ell) < 1e-10
            assert angle_diff(d2.g, d.g) < 1e-10
            assert angle_diff(d2.h, d.h) < 1e-12

    def test_circular_convention(self):
        # at e = 0 the split is conventional (f = 0) but theta = f + g is exact
        p = 7400.0
        L = math.sqrt(MU * p)
        d = DelaunayState(ell=0.7, g=0.4, h=0.2, L=L, G=L, H=0.3 * L)
        pn = delaunay_to_polar(d, MU)
        d2 = polar_to_delaunay(pn, MU)
        assert angle_diff(d2.ell + d2.g, d.ell + d.g) < 1e-12
        assert angle_diff(d2.h, d.h) < 1e-14

    def test_hyperbolic_rejected(self):
        pn = PolarNodalState(r=7000.0, theta=0.0, nu=0.0, R=12.0,
                             Theta=60000.0, N=30000.0)
        with pytest.raises(ZonalPropError):
            polar_to_delaunay(pn, MU)


class TestChartCovering:
    @pytest.mark.parametrize("inc_deg", [0.0, 0.5, 30.0, 63.0, 89.9, 90.0,
                                         90.1, 120.0, 179.5, 180.0])
    def test_denominators_bounded(self, inc_deg):
        inc = math.radians(inc_deg)
        Theta = 52000.0
        N = Theta * math.cos(inc)
        s = math.sin(inc)
        ns = NonsingularState(psi=0.3, xi=s * math.sin(0.8), chi=s * math.cos(0.8),
                              r=7100.0, R=0.2, Theta=Theta, N=N)
        c_abs = abs(N) / Theta
        assert 1.0 + c_abs >= 1.0
        assert all(math.isfinite(v) for v in _kernels.rotation_factors(ns.xi, ns.chi, c_abs))
        cart = nonsingular_to_cartesian(ns)
        ns2 = cartesian_to_nonsingular(cart)
        assert ns2.r == pytest.approx(ns.r, rel=1e-12)

    @pytest.mark.parametrize("inc_deg", [90.1, 120.0, 179.5, 180.0])
    def test_sign_of_n_is_the_chart(self, inc_deg):
        # a state built by hand with N < 0 is in the psi* = theta - nu chart;
        # a carried prograde flag used to put it 10 955 km off at i = 120 deg
        theta, nu, r, R, Theta = 0.8, 2.1, 7000.0, 0.3, 52000.0
        inc = math.radians(inc_deg)
        ci, si = math.cos(inc), math.sin(inc)
        ns = NonsingularState(psi=theta - nu, xi=si * math.sin(theta), chi=si * math.cos(theta),
                              r=r, R=R, Theta=Theta, N=Theta * ci)
        # the polar-nodal rotation R3(-nu) R1(-I) of the radial and transverse
        # unit vectors
        cn, sn, ct, st = math.cos(nu), math.sin(nu), math.cos(theta), math.sin(theta)
        u = (cn * ct - sn * st * ci, sn * ct + cn * st * ci, st * si)
        t = (-cn * st - sn * ct * ci, -sn * st + cn * ct * ci, ct * si)
        pos = [r * a for a in u]
        vel = [R * a + Theta / r * b for a, b in zip(u, t)]
        cart = nonsingular_to_cartesian(ns)
        assert max(abs(a - b) for a, b in zip(cart.position(), pos)) < 1e-9
        assert max(abs(a - b) for a, b in zip(cart.velocity(), vel)) < 1e-12
        assert ns.retrograde
