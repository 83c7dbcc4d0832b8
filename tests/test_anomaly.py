import math
import random

import numpy as np
import pytest

from zonalprop import _kernels
from zonalprop import (EARTH, NonEllipticStateError, ZonalPropError,
                       anomalies, equation_of_center, phi_partials,
                       projections, solve_kepler, true_from_projections)

MU = EARTH.mu


def _bisect_kepler(ell, e, iters=200):
    """Independent bisection oracle for the Kepler equation."""
    lo, hi = ell - 1.0, ell + 1.0
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if mid - e * math.sin(mid) - ell > 0.0:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


class TestProjections:
    def test_circular(self):
        p = 7000.0
        Theta = math.sqrt(MU * p)
        proj = projections(p, 0.0, Theta, MU)
        # p reconstructed from Theta lands within one ulp of the input radius
        assert proj.kappa == pytest.approx(0.0, abs=1e-15)
        assert proj.sigma == 0.0
        assert proj.e == pytest.approx(0.0, abs=1e-15)
        assert proj.eta == pytest.approx(1.0, abs=1e-15)

    def test_periapsis(self):
        p, e = 7000.0, 0.2
        Theta = math.sqrt(MU * p)
        proj = projections(p / (1.0 + e), 0.0, Theta, MU)
        assert proj.kappa == pytest.approx(e, rel=1e-14)
        assert proj.sigma == 0.0

    def test_against_energy_oracle(self):
        # e from the vis-viva energy must agree with e from the projections
        r, R, Theta = 7000.0, 0.5, 52000.0
        proj = projections(r, R, Theta, MU)
        v2 = R * R + (Theta / r) ** 2
        energy = 0.5 * v2 - MU / r
        e_energy = math.sqrt(1.0 + 2.0 * energy * Theta * Theta / MU ** 2)
        assert proj.e == pytest.approx(e_energy, rel=1e-12)
        f = true_from_projections(proj)
        # conic equation at that true anomaly reproduces the radius
        assert proj.p / (1.0 + proj.e * math.cos(f)) == pytest.approx(r, rel=1e-12)

    def test_non_elliptic(self):
        with pytest.raises(NonEllipticStateError):
            projections(1000.0, 20.0, 52000.0, MU)
        with pytest.raises(NonEllipticStateError):
            projections(-1.0, 0.0, 52000.0, MU)


class TestSolveKepler:
    def test_circular(self):
        for ell in (-2.0, 0.0, 0.7, 3.0):
            assert solve_kepler(ell, 0.0) == pytest.approx(ell, abs=1e-15)

    def test_symmetry_at_pi(self):
        for e in (0.1, 0.5, 0.9, 0.99):
            assert solve_kepler(math.pi, e) == pytest.approx(math.pi, abs=1e-14)

    def test_against_bisection_oracle(self):
        u = solve_kepler(1.0, 0.1)
        assert u == pytest.approx(_bisect_kepler(1.0, 0.1), abs=1e-13)
        # frozen from the bisection oracle
        assert u == pytest.approx(1.0885977523978936, abs=1e-13)

    def test_residual_grid(self):
        for e in np.linspace(0.0, 0.99, 34):
            for ell in np.linspace(-math.pi, math.pi, 30):
                u = solve_kepler(ell, e)
                ell_w = math.atan2(math.sin(ell), math.cos(ell))
                res = u - e * math.sin(u) - ell_w
                # compare mod 2 pi (ell reduced internally)
                res = math.atan2(math.sin(res), math.cos(res))
                assert abs(res) < 1e-14

    def test_invalid_eccentricity(self):
        with pytest.raises(ZonalPropError):
            solve_kepler(1.0, 1.0)
        with pytest.raises(ZonalPropError):
            solve_kepler(1.0, -0.1)


class TestAnomalies:
    def test_quadrants(self):
        p = 7000.0
        Theta = math.sqrt(MU * p)
        e = 0.3
        proj_peri = projections(p / (1.0 + e), 0.0, Theta, MU)
        assert true_from_projections(proj_peri) == 0.0
        # kappa = 0, sigma = e -> f = pi/2
        r = p
        R = e * Theta / p
        assert true_from_projections(projections(r, R, Theta, MU)) == pytest.approx(
            math.pi / 2, rel=1e-14)

    def test_apoapsis_branch_continuity(self):
        p, e = 7000.0, 0.2
        Theta = math.sqrt(MU * p)
        r_apo = p / (1.0 - e)
        for sgn in (1.0, -1.0):
            R = sgn * -1e-9
            f = true_from_projections(projections(r_apo, R, Theta, MU))
            assert abs(f) == pytest.approx(math.pi, abs=1e-6)

    def test_circular_raises(self):
        p = 7000.0
        Theta = math.sqrt(MU * p)
        with pytest.raises(ZonalPropError):
            true_from_projections(projections(p, 0.0, Theta, MU))

    def test_round_trip_f_u_ell(self):
        rng = random.Random(4)
        p = 8000.0
        Theta = math.sqrt(MU * p)
        for _ in range(300):
            e = rng.uniform(0.0, 0.9)
            f = rng.uniform(-math.pi, math.pi)
            r = p / (1.0 + e * math.cos(f))
            R = (Theta / p) * e * math.sin(f)
            tri = anomalies(projections(r, R, Theta, MU))
            assert tri.ell == pytest.approx(tri.u - e * math.sin(tri.u), abs=1e-13)
            u2 = solve_kepler(tri.ell, e)
            assert u2 == pytest.approx(tri.u, abs=1e-12)
            f2 = 2.0 * math.atan2(math.sqrt(1.0 + e) * math.sin(0.5 * u2),
                                  math.sqrt(1.0 - e) * math.cos(0.5 * u2))
            if e > 1e-12:
                assert f2 == pytest.approx(f, abs=1e-12)


class TestEquationOfCenter:
    def test_circular_and_apsides(self):
        p = 7000.0
        Theta = math.sqrt(MU * p)
        assert equation_of_center(projections(p, 0.0, Theta, MU)) == 0.0
        e = 0.4
        peri = projections(p / (1.0 + e), 0.0, Theta, MU)
        apo = projections(p / (1.0 - e), 0.0, Theta, MU)
        assert equation_of_center(peri) == pytest.approx(0.0, abs=1e-15)
        assert abs(equation_of_center(apo)) < 1e-12

    def test_value_at_f_90deg(self):
        # independent re-derivation: u from the half-angle relation, then
        # phi = f - (u - e sin u); cross-checked against the O(e^3) series
        e = 0.1
        p = 7000.0
        Theta = math.sqrt(MU * p)
        f = math.pi / 2
        r = p / (1.0 + e * math.cos(f))
        R = (Theta / p) * e * math.sin(f)
        phi = equation_of_center(projections(r, R, Theta, MU))
        u = 2.0 * math.atan(math.sqrt((1.0 - e) / (1.0 + e)) * math.tan(f / 2.0))
        expected = f - (u - e * math.sin(u))
        assert phi == pytest.approx(expected, abs=1e-14)
        series = 2.0 * e * math.sin(f) + 1.25 * e * e * math.sin(2.0 * f)
        assert phi == pytest.approx(series, abs=2.0 * e ** 3)

    def test_odd_in_sigma(self):
        rng = random.Random(9)
        p = 9000.0
        Theta = math.sqrt(MU * p)
        for _ in range(50):
            e = rng.uniform(0.05, 0.8)
            f = rng.uniform(-math.pi, math.pi)
            r = p / (1.0 + e * math.cos(f))
            R = (Theta / p) * e * math.sin(f)
            up = equation_of_center(projections(r, R, Theta, MU))
            dn = equation_of_center(projections(r, -R, Theta, MU))
            assert up == pytest.approx(-dn, abs=1e-14)

    def test_magnitude_bound(self):
        rng = random.Random(13)
        p = 9000.0
        Theta = math.sqrt(MU * p)
        for _ in range(200):
            e = rng.uniform(0.0, 0.95)
            f = rng.uniform(-math.pi, math.pi)
            r = p / (1.0 + e * math.cos(f))
            R = (Theta / p) * e * math.sin(f)
            assert abs(equation_of_center(projections(r, R, Theta, MU))) < math.pi


class TestPhiPartials:
    def _fd(self, r, R, Theta, h_rel=1e-6):
        def phi(rr, RR, TT):
            return equation_of_center(projections(rr, RR, TT, MU))
        hr = h_rel * r
        hR = h_rel * Theta / r
        hT = h_rel * Theta
        return ((phi(r + hr, R, Theta) - phi(r - hr, R, Theta)) / (2 * hr),
                (phi(r, R + hR, Theta) - phi(r, R - hR, Theta)) / (2 * hR),
                (phi(r, R, Theta + hT) - phi(r, R, Theta - hT)) / (2 * hT))

    def test_matches_finite_differences(self):
        rng = random.Random(21)
        for _ in range(100):
            p = rng.uniform(7000.0, 20000.0)
            e = rng.uniform(0.01, 0.9)
            f = rng.uniform(-math.pi, math.pi)
            # keep away from the branch point at f = pi for the FD stencil
            if abs(abs(f) - math.pi) < 0.05:
                continue
            Theta = math.sqrt(MU * p)
            r = p / (1.0 + e * math.cos(f))
            R = (Theta / p) * e * math.sin(f)
            exact = phi_partials(r, R, Theta, MU)
            fd = self._fd(r, R, Theta)
            for a, b in zip(exact, fd):
                assert a == pytest.approx(b, rel=1e-6, abs=1e-12)

    def test_circular_limit(self):
        p = 7000.0
        Theta = math.sqrt(MU * p)
        # along the sigma = 0 direction the radial partial vanishes identically
        for e in (1e-2, 1e-3, 1e-4):
            assert phi_partials(p / (1.0 + e), 0.0, Theta, MU)[0] == 0.0
        # off that direction it shrinks linearly with e
        prev = None
        for e in (1e-2, 1e-3, 1e-4):
            val = abs(phi_partials(p, e * Theta / p, Theta, MU)[0])
            if prev is not None:
                assert val < 0.2 * prev
            prev = val
        # exactly circular: dphi/dr = 0, dphi/dR = 2 p / Theta
        d = phi_partials(p, 0.0, Theta, MU)
        assert d[0] == 0.0
        assert d[1] == pytest.approx(2.0 * p / Theta, rel=1e-14)

    def test_dimensional_homogeneity(self):
        # same state in km and in m: nondimensionalised partials must agree
        r, R, Theta = 7200.0, 0.4, 53000.0
        d_km = phi_partials(r, R, Theta, MU)
        k = 1000.0
        d_m = phi_partials(r * k, R * k, Theta * k * k, MU * k ** 3)
        assert d_m[0] * (r * k) == pytest.approx(d_km[0] * r, rel=1e-12)
        assert d_m[1] * (Theta * k * k) / (r * k) == pytest.approx(
            d_km[1] * Theta / r, rel=1e-12)
        assert d_m[2] * (Theta * k * k) == pytest.approx(d_km[2] * Theta, rel=1e-12)


class TestClosedFormAnomalies:
    """``anomaly_block`` and ``delaunay_orbit`` against the half-angle forms
    they replaced, u = 2 atan2(sqrt(1 - e) sin(f/2), sqrt(1 + e) cos(f/2)) and
    its inverse.  The reference runs in long double: in doubles the
    half-angle forms themselves are off by 3e-14 rad at e = 0.999 near
    apoapsis."""

    TOL = 1e-14  # rad, on f, u, ell and phi
    ECCS = [0.0, 0.5e-12, 0.9e-12, 1e-12, 1.1e-12, 2e-12, 1e-9, 1e-6, 1e-3,
            0.05, 0.3, 0.6, 0.9, 0.99, 0.999]
    ANGLES = np.concatenate([np.linspace(-math.pi, math.pi, 721),
                             [math.pi - 1e-15, -math.pi + 1e-15, 1e-15, -1e-15]])

    @staticmethod
    def _half_angle_block(kappa, sigma):
        if math.hypot(kappa, sigma) < _kernels.CIRCULAR_ECC:
            return 0.0, 0.0, 0.0, 0.0
        k, s = np.longdouble(kappa), np.longdouble(sigma)
        e = np.hypot(k, s)
        f = np.arctan2(s, k)
        u = 2 * np.arctan2(np.sqrt(1 - e) * np.sin(f / 2), np.sqrt(1 + e) * np.cos(f / 2))
        esu = e * np.sin(u)
        return f, u, u - esu, (f - u) + esu

    def test_anomaly_block_matches_the_half_angle_forms(self):
        assert np.finfo(np.longdouble).eps < 1e-18  # the reference needs the extra digits
        kappas, sigmas, refs = [], [], []
        for e in self.ECCS:
            for f in self.ANGLES:
                kappa, sigma = e * math.cos(f), e * math.sin(f)
                kappas.append(kappa)
                sigmas.append(sigma)
                refs.append([float(v) for v in self._half_angle_block(kappa, sigma)])
        refs = np.array(refs)
        worst = 0.0
        for kappa, sigma, ref in zip(kappas, sigmas, refs):
            e, eta, f, u, ell, phi = _kernels.anomaly_block(kappa, sigma)
            assert abs(u) <= math.pi and u * f >= 0.0  # u on f's branch
            if e == 0.0:
                assert (f, u, ell, phi, eta) == (0.0, 0.0, 0.0, 0.0, 1.0)
            worst = max(worst, float(np.max(np.abs(np.array([f, u, ell, phi]) - ref))))
        assert worst <= self.TOL
        # the same source on arrays
        e, eta, *angles = _kernels.anomaly_block(np.array(kappas), np.array(sigmas))
        assert np.all((e > 0.0) | (np.column_stack(angles) == 0.0).all(axis=1))
        assert np.max(np.abs(np.column_stack(angles) - refs)) <= self.TOL

    def test_delaunay_orbit_matches_the_half_angle_form(self):
        L = math.sqrt(MU * 9000.0)
        worst = 0.0
        for e in self.ECCS:
            G = L * math.sqrt(1.0 - e * e)
            for ell in self.ANGLES:
                r, R, f = _kernels.delaunay_orbit(ell, L, G, MU)
                eta = G / L
                e_used = math.sqrt(1.0 - eta * eta) if eta < 1.0 else 0.0
                u = _kernels.kepler_u(ell, e_used)
                assert r == (L * L / MU) * (1.0 - e_used * math.cos(u))
                assert R == L * e_used * math.sin(u) / r
                ld = np.longdouble
                ref = 2 * np.arctan2(np.sqrt(1 + ld(e_used)) * np.sin(ld(u) / 2),
                                     np.sqrt(1 - ld(e_used)) * np.cos(ld(u) / 2))
                worst = max(worst, abs(f - float(ref)))
        assert worst <= self.TOL
