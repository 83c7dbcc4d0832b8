import math

import numpy as np
import pytest

from zonalprop import EARTH, GravityField, ZonalPropError
from zonalprop.gravity import p_coefficients, q_polynomials, small_params

MU = EARTH.mu


class TestGravityField:
    def test_validation(self):
        with pytest.raises(ZonalPropError):
            GravityField(mu=-1.0, alpha=6378.0, c20=0.0, c30=0.0)
        with pytest.raises(ZonalPropError):
            GravityField(mu=MU, alpha=0.0, c20=0.0, c30=0.0)
        with pytest.raises(ZonalPropError):
            GravityField(mu=MU, alpha=6378.0, c20=1.5, c30=0.0)

    def test_j_coefficients(self):
        assert EARTH.j2 == -EARTH.c20
        assert EARTH.j3 == -EARTH.c30

    def test_restricted(self):
        f = EARTH.restricted("two-body")
        assert f.c20 == 0.0 and f.c30 == 0.0
        f = EARTH.restricted("j2")
        assert f.c20 == EARTH.c20 and f.c30 == 0.0
        assert EARTH.restricted("j2j3") == EARTH
        with pytest.raises(ZonalPropError):
            EARTH.restricted("j4")


class TestSmallParams:
    def test_zero_coefficients(self):
        f = GravityField(mu=MU, alpha=EARTH.alpha, c20=0.0, c30=0.0)
        sp = small_params(52000.0, f)
        assert sp.eps2 == 0.0 and sp.eps3 == 0.0

    def test_earth_leo_value(self):
        # hand evaluation with published Earth constants at p = 7000 km
        p = 7000.0
        Theta = math.sqrt(MU * p)
        sp = small_params(Theta, EARTH)
        assert sp.p == pytest.approx(p, rel=1e-14)
        assert sp.eps2 == pytest.approx(-2.247e-4, rel=5e-4)

    def test_p_equals_alpha(self):
        Theta = math.sqrt(MU * EARTH.alpha)
        sp = small_params(Theta, EARTH)
        assert sp.eps2 == pytest.approx(EARTH.c20 / 4.0, rel=1e-13)

    def test_eps2_quartic_in_theta(self):
        sp1 = small_params(52000.0, EARTH)
        sp2 = small_params(2.0 * 52000.0, EARTH)
        assert sp2.eps2 == pytest.approx(sp1.eps2 / 16.0, rel=1e-13)

    def test_undefined_eps3(self):
        f = GravityField(mu=MU, alpha=EARTH.alpha, c20=0.0, c30=1e-6)
        with pytest.raises(ZonalPropError):
            small_params(52000.0, f)

    def test_invalid_theta(self):
        with pytest.raises(ZonalPropError):
            small_params(0.0, EARTH)
        with pytest.raises(ZonalPropError):
            small_params(float("nan"), EARTH)


class TestInclinationPolynomials:
    def test_at_c_zero(self):
        q = q_polynomials(0.0)
        assert q.q0 == 1.0
        assert q.q1 == 0.25
        assert q.q2 == 1.0
        assert q.q3 == 0.25
        assert q.q5 == 0.0
        assert q.q6 == 0.0
        assert q.q13 == 1.0

    def test_at_c_one(self):
        q = q_polynomials(1.0)
        assert q.q0 == 56.0
        assert q.q5 == 56.0
        assert q.q6 == 56.0
        assert q.q2 == 0.0
        assert q.q13 == 112.0
        assert q.q15 == 56.0

    def test_critical_inclination_zeros(self):
        c = math.sqrt(0.2)
        q = q_polynomials(c)
        assert abs(q.q0) < 1e-14
        assert abs(q.q2) < 1e-14
        assert abs(q.q13) < 1e-14

    @pytest.mark.parametrize("c", np.linspace(-1.0, 1.0, 41).tolist())
    def test_structural_identities(self, c):
        q = q_polynomials(c)
        s2 = 1.0 - c * c
        assert q.q2 == pytest.approx(s2 * q.q0, abs=1e-12)
        assert q.q13 == pytest.approx(q.q0 * (1.0 + c), abs=1e-12)
        assert c * q.q6 == pytest.approx(q.q5, abs=1e-12)
        for name in ("q0", "q1", "q2", "q3", "q5", "q6", "q7", "q8", "q9",
                     "q10", "q11", "q12", "q13", "q14", "q15"):
            assert math.isfinite(getattr(q, name))


class TestPCoefficients:
    def test_constant_terms(self):
        q = q_polynomials(0.37)
        pc = p_coefficients(0.0, 0.0, q)
        assert pc.p1 == 0.0
        assert pc.p2 == 0.0
        assert pc.p3 == q.q2
        assert pc.p4 == q.q0

    def test_unit_kappa_equatorial(self):
        q = q_polynomials(0.0)
        pc = p_coefficients(1.0, 0.0, q)
        assert pc.p1 == pytest.approx(q.q2 + q.q7)
        assert pc.p1 == pytest.approx(1.25)
        assert pc.p4 == pytest.approx(1.0)

    def test_quadratic_in_sigma(self):
        q = q_polynomials(0.42)
        kappa, sigma = 0.2, 0.15
        p1 = p_coefficients(kappa, sigma, q)
        p2 = p_coefficients(kappa, 2.0 * sigma, q)
        assert p2.p1 - p1.p1 == pytest.approx(3.0 * q.q8 * sigma ** 2, rel=1e-12)
        assert p2.p2 - p1.p2 == pytest.approx(3.0 * q.q10 * sigma ** 2, rel=1e-12)
