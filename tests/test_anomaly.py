import math
import random

import numpy as np
import pytest

from zonalprop import EARTH, NonEllipticStateError, _kernels
from zonalprop.states import elliptic_projections

MU = EARTH.mu


def _anomalies(r, R, Theta):
    """(f, u, ell, phi) of the state, from ``_kernels.anomaly_block``."""
    _, kappa, sigma, _ = elliptic_projections(r, R, Theta, MU)
    e, eta, f, u, ell, phi = _kernels.anomaly_block(kappa, sigma)
    return f, u, ell, phi


def _phi(r, R, Theta):
    """Equation of the center of the state."""
    return _anomalies(r, R, Theta)[3]


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
        _, kappa, sigma, e = elliptic_projections(p, 0.0, Theta, MU)
        # p reconstructed from Theta lands within one ulp of the input radius
        assert kappa == pytest.approx(0.0, abs=1e-15)
        assert sigma == 0.0
        assert e == pytest.approx(0.0, abs=1e-15)
        assert _kernels.anomaly_block(kappa, sigma)[1] == pytest.approx(1.0, abs=1e-15)

    def test_periapsis(self):
        p, e = 7000.0, 0.2
        Theta = math.sqrt(MU * p)
        _, kappa, sigma, _ = elliptic_projections(p / (1.0 + e), 0.0, Theta, MU)
        assert kappa == pytest.approx(e, rel=1e-14)
        assert sigma == 0.0

    def test_against_energy_oracle(self):
        # e from the vis-viva energy must agree with e from the projections
        r, R, Theta = 7000.0, 0.5, 52000.0
        _, _, _, e = elliptic_projections(r, R, Theta, MU)
        v2 = R * R + (Theta / r) ** 2
        energy = 0.5 * v2 - MU / r
        e_energy = math.sqrt(1.0 + 2.0 * energy * Theta * Theta / MU ** 2)
        assert e == pytest.approx(e_energy, rel=1e-12)
        f = _anomalies(r, R, Theta)[0]
        # conic equation at that true anomaly reproduces the radius
        p = Theta * Theta / MU
        assert p / (1.0 + e * math.cos(f)) == pytest.approx(r, rel=1e-12)

    def test_non_elliptic(self):
        with pytest.raises(NonEllipticStateError):
            elliptic_projections(1000.0, 20.0, 52000.0, MU)
        with pytest.raises(NonEllipticStateError):
            elliptic_projections(-1.0, 0.0, 52000.0, MU)


class TestSolveKepler:
    def test_circular(self):
        for ell in (-2.0, 0.0, 0.7, 3.0):
            assert _kernels.kepler_u(ell, 0.0) == pytest.approx(ell, abs=1e-15)

    def test_symmetry_at_pi(self):
        for e in (0.1, 0.5, 0.9, 0.99):
            assert _kernels.kepler_u(math.pi, e) == pytest.approx(math.pi, abs=1e-14)

    def test_against_bisection_oracle(self):
        u = _kernels.kepler_u(1.0, 0.1)
        assert u == pytest.approx(_bisect_kepler(1.0, 0.1), abs=1e-13)
        # frozen from the bisection oracle
        assert u == pytest.approx(1.0885977523978936, abs=1e-13)

    def test_residual_grid(self):
        for e in np.linspace(0.0, 0.99, 34):
            for ell in np.linspace(-math.pi, math.pi, 30):
                u = _kernels.kepler_u(ell, e)
                ell_w = math.atan2(math.sin(ell), math.cos(ell))
                res = u - e * math.sin(u) - ell_w
                # compare mod 2 pi (ell reduced internally)
                res = math.atan2(math.sin(res), math.cos(res))
                assert abs(res) < 1e-14


class TestAnomalies:
    def test_quadrants(self):
        p = 7000.0
        Theta = math.sqrt(MU * p)
        e = 0.3
        assert _anomalies(p / (1.0 + e), 0.0, Theta)[0] == 0.0
        # kappa = 0, sigma = e -> f = pi/2
        r = p
        R = e * Theta / p
        assert _anomalies(r, R, Theta)[0] == pytest.approx(math.pi / 2, rel=1e-14)

    def test_apoapsis_branch_continuity(self):
        p, e = 7000.0, 0.2
        Theta = math.sqrt(MU * p)
        r_apo = p / (1.0 - e)
        for sgn in (1.0, -1.0):
            R = sgn * -1e-9
            f = _anomalies(r_apo, R, Theta)[0]
            assert abs(f) == pytest.approx(math.pi, abs=1e-6)

    def test_round_trip_f_u_ell(self):
        rng = random.Random(4)
        p = 8000.0
        Theta = math.sqrt(MU * p)
        for _ in range(300):
            e = rng.uniform(0.0, 0.9)
            f = rng.uniform(-math.pi, math.pi)
            r = p / (1.0 + e * math.cos(f))
            R = (Theta / p) * e * math.sin(f)
            _, u, ell, _ = _anomalies(r, R, Theta)
            assert ell == pytest.approx(u - e * math.sin(u), abs=1e-13)
            u2 = _kernels.kepler_u(ell, e)
            assert u2 == pytest.approx(u, abs=1e-12)
            f2 = 2.0 * math.atan2(math.sqrt(1.0 + e) * math.sin(0.5 * u2),
                                  math.sqrt(1.0 - e) * math.cos(0.5 * u2))
            if e > 1e-12:
                assert f2 == pytest.approx(f, abs=1e-12)


class TestEquationOfCenter:
    def test_circular_and_apsides(self):
        p = 7000.0
        Theta = math.sqrt(MU * p)
        assert _phi(p, 0.0, Theta) == 0.0
        e = 0.4
        assert _phi(p / (1.0 + e), 0.0, Theta) == pytest.approx(0.0, abs=1e-15)
        assert abs(_phi(p / (1.0 - e), 0.0, Theta)) < 1e-12

    def test_value_at_f_90deg(self):
        # independent re-derivation: u from the half-angle relation, then
        # phi = f - (u - e sin u); cross-checked against the O(e^3) series
        e = 0.1
        p = 7000.0
        Theta = math.sqrt(MU * p)
        f = math.pi / 2
        r = p / (1.0 + e * math.cos(f))
        R = (Theta / p) * e * math.sin(f)
        phi = _phi(r, R, Theta)
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
            up = _phi(r, R, Theta)
            dn = _phi(r, -R, Theta)
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
            assert abs(_phi(r, R, Theta)) < math.pi


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


class TestCenterTerms:
    """``center_terms``, the one source of eta and phi = (f - u) + e sin u
    for the short-period kernels, against ``anomaly_block``: the same bits
    wherever ``anomaly_block`` does not take the orbit as circular, and a
    phi of the order of e below that."""

    PHI_BOUND = 4.0 * _kernels.CIRCULAR_ECC  # rad, |phi| below CIRCULAR_ECC

    @staticmethod
    def _sweep():
        """(kappa, sigma): e log-uniform in [1e-14, 0.999], e = 0 and the
        nextafter neighbours of CIRCULAR_ECC, at seeded true anomalies."""
        rng = np.random.default_rng(23)
        circ = _kernels.CIRCULAR_ECC
        edges = [0.0, np.nextafter(circ, 0.0), circ, np.nextafter(circ, 1.0)]
        e = np.concatenate([10.0 ** rng.uniform(-14.0, math.log10(0.999), 20000),
                            np.tile(edges, 50)])
        f = rng.uniform(-math.pi, math.pi, e.size)
        f[-len(edges):] = 0.0  # hypot(e, 0) is e exactly
        return e * np.cos(f), e * np.sin(f)

    def _check(self, e, eta_ab, phi_ab, eta, phi):
        elliptic = e > 0.0  # anomaly_block's own circular split
        assert np.array_equal(eta[elliptic], eta_ab[elliptic])
        assert np.array_equal(phi[elliptic], phi_ab[elliptic])
        assert np.count_nonzero(~elliptic) >= 100  # e = 0 and the lower neighbours
        assert np.all(np.abs(phi[~elliptic]) <= self.PHI_BOUND)

    def test_floats(self):
        kappa, sigma = self._sweep()
        pairs = list(zip(kappa.tolist(), sigma.tolist()))
        ab = np.array([_kernels.anomaly_block(k, s) for k, s in pairs])
        terms = [_kernels.center_terms(k, s) for k, s in pairs]
        assert all(type(v) is float for v in terms[0])
        eta, f_u, esu = np.array(terms).T
        self._check(ab[:, 0], ab[:, 1], ab[:, 5], eta, f_u + esu)

    def test_arrays(self):
        kappa, sigma = self._sweep()
        e, eta_ab, _, _, _, phi_ab = _kernels.anomaly_block(kappa, sigma)
        eta, f_u, esu = _kernels.center_terms(kappa, sigma)
        self._check(e, eta_ab, phi_ab, eta, f_u + esu)
