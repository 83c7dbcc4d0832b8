import math
import random

import numpy as np
import pytest
import sympy

from zonalprop import (EARTH, CartesianState, DelaunayState, ZonalPropError,
                       nonsingular_to_cartesian)
from zonalprop.oracle import (integrate, integrate_grid, zonal_acceleration, zonal_energy,
                              zonal_potential)
from zonalprop.secular import orbital_period, zonal_hamiltonian
from zonalprop.states import polar_to_nonsingular
from conftest import cart_distance, elements_to_cartesian, elements_to_polar, field_small_params
from reference_forms import u1_delaunay, x1_delaunay

MU = EARTH.mu


class TestZonalAcceleration:
    def test_keplerian(self):
        f = EARTH.restricted("two-body")
        cart = CartesianState(4000.0, -5000.0, 2000.0, 1.0, 2.0, 3.0)
        r = math.sqrt(cart.x ** 2 + cart.y ** 2 + cart.z ** 2)
        acc = zonal_acceleration(cart, f)
        expected = -MU / r ** 3 * np.array([cart.x, cart.y, cart.z])
        assert acc == pytest.approx(expected, rel=1e-15)

    def test_j3_equatorial_out_of_plane(self):
        from zonalprop import GravityField
        f = GravityField(mu=MU, alpha=EARTH.alpha, c20=0.0, c30=EARTH.c30)
        cart = CartesianState(7000.0, 1000.0, 0.0, 0.0, 7.5, 0.0)
        acc = zonal_acceleration(cart, f)
        r = math.sqrt(cart.x ** 2 + cart.y ** 2)
        kepler = -MU / r ** 3 * np.array([cart.x, cart.y, 0.0])
        residual = acc - kepler
        assert residual[0] == pytest.approx(0.0, abs=1e-18)
        assert residual[1] == pytest.approx(0.0, abs=1e-18)
        assert residual[2] != 0.0

    def test_matches_potential_gradient(self):
        rng = random.Random(61)
        for _ in range(50):
            pos = np.array([rng.uniform(-9000.0, 9000.0) for _ in range(3)])
            if np.linalg.norm(pos) < 6500.0:
                pos *= 9000.0 / np.linalg.norm(pos)
            cart = CartesianState(pos[0], pos[1], pos[2], 0.0, 0.0, 0.0)
            acc = zonal_acceleration(cart, EARTH)
            h = 1e-6 * np.linalg.norm(pos)
            for i in range(3):
                up = pos.copy()
                dn = pos.copy()
                up[i] += h
                dn[i] -= h
                fd = -(zonal_potential(*up, EARTH) - zonal_potential(*dn, EARTH)) / (2 * h)
                assert acc[i] == pytest.approx(fd, rel=1e-8, abs=1e-14)


class TestIntegrate:
    def test_two_body_closed_orbit(self):
        f = EARTH.restricted("two-body")
        cart = elements_to_cartesian(7000.0, 0.1, math.radians(40.0), 0.3, 0.2, 0.1)
        L = math.sqrt(MU * 7000.0)
        T = orbital_period(L, f)
        out = integrate(cart, 0.0, T, f, tol=1e-12)
        assert cart_distance(out, cart) < 1e-10 * 7000.0

    def test_tolerance_monotonicity(self):
        f = EARTH.restricted("two-body")
        cart = elements_to_cartesian(7000.0, 0.1, math.radians(40.0), 0.3, 0.2, 0.1)
        L = math.sqrt(MU * 7000.0)
        T = orbital_period(L, f)
        errs = []
        for tol in (1e-8, 1e-10, 1e-12):
            out = integrate(cart, 0.0, T, f, tol=tol)
            errs.append(cart_distance(out, cart))
        assert errs[2] < errs[1] < errs[0]

    def test_energy_conservation_j2(self):
        cart = elements_to_cartesian(7000.0, 0.05, math.radians(30.0), 0.3, 0.2, 0.1)
        f = EARTH.restricted("j2")
        L = math.sqrt(MU * 7000.0)
        T = orbital_period(L, f)
        e0 = zonal_energy(cart, f)
        out = integrate(cart, 0.0, T, f, tol=1e-12)
        assert abs(zonal_energy(out, f) - e0) / abs(e0) < 1e-10

    def test_zero_span(self):
        cart = elements_to_cartesian(7000.0, 0.05, 0.4, 0.3, 0.2, 0.1)
        out = integrate(cart, 10.0, 10.0, EARTH)
        assert out == cart

    def test_bad_tolerance(self):
        cart = elements_to_cartesian(7000.0, 0.05, 0.4, 0.3, 0.2, 0.1)
        with pytest.raises(ZonalPropError):
            integrate(cart, 0.0, 1.0, EARTH, tol=1e-3)

    def test_grid_matches_endpoint(self):
        cart = elements_to_cartesian(7200.0, 0.02, 0.9, 0.3, 0.2, 0.1)
        ts = np.linspace(0.0, 3000.0, 7)
        grid = integrate_grid(cart, 0.0, ts, EARTH, tol=1e-12)
        end = integrate(cart, 0.0, 3000.0, EARTH, tol=1e-12)
        assert grid[-1, :3] == pytest.approx((end.x, end.y, end.z), rel=1e-10)

    @pytest.mark.parametrize("ts", [[-200.0, -100.0], [-100.0, 100.0], [100.0, 50.0],
                                    [300.0, -50.0, 0.0, 300.0, -250.0, -50.0]],
                             ids=["before t0", "both sides", "descending",
                                  "mixed, repeated"])
    def test_grid_on_either_side_in_any_order(self, ts):
        cart = elements_to_cartesian(7200.0, 0.02, 0.9, 0.3, 0.2, 0.1)
        grid = integrate_grid(cart, 0.0, ts, EARTH, tol=1e-12)
        assert grid.shape == (len(ts), 6)
        for t, row in zip(ts, grid):
            end = integrate(cart, 0.0, t, EARTH, tol=1e-12)
            assert row[:3] == pytest.approx((end.x, end.y, end.z), rel=0.0, abs=1e-8)
            assert row[3:] == pytest.approx((end.vx, end.vy, end.vz), rel=0.0, abs=1e-11)

    def test_ascending_grid_is_one_forward_integration(self, monkeypatch):
        # the call compare makes: one solve_ivp over (t0, last time), every
        # grid time in t_eval
        from zonalprop import oracle
        calls = []
        solve = oracle.solve_ivp

        def spy(fun, t_span, y0, **kwargs):
            calls.append((t_span, kwargs["t_eval"].tolist()))
            return solve(fun, t_span, y0, **kwargs)
        monkeypatch.setattr(oracle, "solve_ivp", spy)
        cart = elements_to_cartesian(7200.0, 0.02, 0.9, 0.3, 0.2, 0.1)
        ts = [5.0, 65.0, 125.0]
        integrate_grid(cart, 5.0, ts, EARTH)
        assert calls == [((5.0, 125.0), ts)]

    @pytest.mark.parametrize("ts, t0", [([0.0, math.nan], 0.0), ([math.inf], 0.0),
                                        ([-math.inf, 10.0], 0.0), ([10.0], math.nan)])
    def test_non_finite_time_raises(self, ts, t0):
        cart = elements_to_cartesian(7200.0, 0.02, 0.9, 0.3, 0.2, 0.1)
        with pytest.raises(ZonalPropError, match="must be finite"):
            integrate_grid(cart, t0, ts, EARTH)

    def test_overflowing_time_offset_raises(self):
        cart = elements_to_cartesian(7200.0, 0.02, 0.9, 0.3, 0.2, 0.1)
        with pytest.raises(ZonalPropError, match="time offset t - t0 overflows"):
            integrate_grid(cart, 1e308, [-1e308], EARTH)

    def test_integrator_preserves_n(self):
        cart = elements_to_cartesian(7100.0, 0.1, math.radians(50.0), 0.4, 0.2, 0.6)
        n0 = cart.x * cart.vy - cart.y * cart.vx
        out = integrate(cart, 0.0, 6000.0, EARTH, tol=1e-12)
        n1 = out.x * out.vy - out.y * out.vx
        assert n1 == pytest.approx(n0, rel=1e-11)


class TestDelaunayGeneratingFunctions:
    def test_u1_circular(self):
        a, inc = 7400.0, math.radians(55.0)
        L = math.sqrt(MU * a)
        d = DelaunayState(ell=0.8, g=0.3, h=0.1, L=L, G=L, H=L * math.cos(inc))
        _, eps2, _ = field_small_params(L, EARTH)
        s2 = math.sin(inc) ** 2
        # at e = 0 only the sin(2f + 2g) term survives, with f = ell
        expected = 0.5 * L * eps2 * 3.0 * s2 * math.sin(2.0 * d.ell + 2.0 * d.g)
        assert u1_delaunay(d, EARTH) == pytest.approx(expected, rel=1e-12)

    def test_x1_circular_is_zero(self):
        a, inc = 7400.0, math.radians(55.0)
        L = math.sqrt(MU * a)
        d = DelaunayState(ell=0.8, g=0.3, h=0.1, L=L, G=L, H=L * math.cos(inc))
        assert x1_delaunay(d, EARTH) == 0.0


class TestZonalHamiltonian:
    """``secular.zonal_hamiltonian``, the one zonal potential the oracle's
    energy calls."""

    def test_keplerian_vis_viva(self):
        a = 7400.0
        pn = elements_to_polar(a, 0.2, 0.9, 0.5, 0.3, 0.1)
        xi = pn.sin_inclination * math.sin(pn.theta)
        energy = zonal_hamiltonian(pn.r, pn.R, pn.Theta, xi, MU, EARTH.alpha, 0.0, 0.0)
        assert energy == pytest.approx(-MU / (2.0 * a), rel=1e-13)

    def test_equals_cartesian_energy_through_the_maps(self):
        rng = random.Random(62)
        for _ in range(100):
            pn = elements_to_polar(rng.uniform(6800.0, 30000.0),
                                   rng.uniform(0.0, 0.8),
                                   rng.uniform(0.01, 3.1),
                                   rng.uniform(-3.0, 3.0),
                                   rng.uniform(-3.0, 3.0),
                                   rng.uniform(-3.0, 3.0))
            xi = pn.sin_inclination * math.sin(pn.theta)
            core = zonal_hamiltonian(pn.r, pn.R, pn.Theta, xi,
                                     MU, EARTH.alpha, EARTH.c20, EARTH.c30)
            cart = nonsingular_to_cartesian(polar_to_nonsingular(pn))
            exact = zonal_energy(cart, EARTH)
            assert abs(core - exact) / abs(exact) < 1e-13

    def test_canonical_partials_on_symbols(self):
        # dE/dR = R and dE/dTheta = Theta / r^2: the kinetic part of the
        # Hamiltonian in the polar-nodal pairs (r, R), (theta, Theta)
        r, R, Theta, xi, mu, alpha, c20, c30 = sympy.symbols(
            "r R Theta xi mu alpha c20 c30", real=True)
        energy = zonal_hamiltonian(r, R, Theta, xi, mu, alpha, c20, c30)
        assert sympy.simplify(sympy.diff(energy, R) - R) == 0
        assert sympy.simplify(sympy.diff(energy, Theta) - Theta / r ** 2) == 0
