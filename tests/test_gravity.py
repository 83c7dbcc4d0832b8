import math

import numpy as np
import pytest

from zonalprop import EARTH, GravityField, ZonalPropError, _kernels
from zonalprop.gravity import check_small_params
from conftest import field_small_params

MU = EARTH.mu


class TestGravityField:
    def test_validation(self):
        with pytest.raises(ZonalPropError):
            GravityField(mu=-1.0, alpha=6378.0, c20=0.0, c30=0.0)
        with pytest.raises(ZonalPropError):
            GravityField(mu=MU, alpha=0.0, c20=0.0, c30=0.0)
        with pytest.raises(ZonalPropError):
            GravityField(mu=MU, alpha=6378.0, c20=1.5, c30=0.0)

    @pytest.mark.parametrize("name", ["mu", "alpha", "c20", "c30"])
    @pytest.mark.parametrize("value", [True, np.False_, "3", None])
    def test_constants_must_be_real_numbers(self, name, value):
        # True was taken as mu = 1; a str or None raised a bare TypeError
        values = dict(mu=MU, alpha=6378.0, c20=-1e-3, c30=0.0)
        values[name] = value
        with pytest.raises(ZonalPropError, match=f"^{name} must be a real number, got "):
            GravityField(**values)

    @pytest.mark.parametrize("name", ["mu", "alpha"])
    def test_an_int_beyond_the_doubles_is_not_finite(self, name):
        # math.isfinite raised a bare OverflowError on it
        values = dict(mu=MU, alpha=6378.0, c20=-1e-3, c30=0.0)
        values[name] = 10 ** 400
        with pytest.raises(ZonalPropError, match=f"^{name} must be positive and finite"):
            GravityField(**values)

    def test_constants_take_python_and_numpy_reals(self):
        f = GravityField(mu=np.float64(MU), alpha=6378, c20=np.float32(-1e-3), c30=np.int64(0))
        assert (f.mu, f.alpha, f.c20, f.c30) == (MU, 6378.0, np.float32(-1e-3), 0.0)

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
        check_small_params(52000.0, f)
        _, eps2, eps3 = field_small_params(52000.0, f)
        assert eps2 == 0.0 and eps3 == 0.0

    def test_earth_leo_value(self):
        # hand evaluation with published Earth constants at p = 7000 km
        p = 7000.0
        Theta = math.sqrt(MU * p)
        p_k, eps2, _ = field_small_params(Theta, EARTH)
        assert p_k == pytest.approx(p, rel=1e-14)
        assert eps2 == pytest.approx(-2.247e-4, rel=5e-4)

    def test_p_equals_alpha(self):
        Theta = math.sqrt(MU * EARTH.alpha)
        _, eps2, _ = field_small_params(Theta, EARTH)
        assert eps2 == pytest.approx(EARTH.c20 / 4.0, rel=1e-13)

    def test_eps2_quartic_in_theta(self):
        eps2_1 = field_small_params(52000.0, EARTH)[1]
        eps2_2 = field_small_params(2.0 * 52000.0, EARTH)[1]
        assert eps2_2 == pytest.approx(eps2_1 / 16.0, rel=1e-13)

    def test_undefined_eps3(self):
        f = GravityField(mu=MU, alpha=EARTH.alpha, c20=0.0, c30=1e-6)
        with pytest.raises(ZonalPropError):
            check_small_params(52000.0, f)

    def test_invalid_theta(self):
        with pytest.raises(ZonalPropError):
            check_small_params(0.0, EARTH)
        with pytest.raises(ZonalPropError):
            check_small_params(float("nan"), EARTH)


class TestInclinationPolynomials:
    def test_at_c_zero(self):
        q0, q2, q6, _, _, _, _, _, _, q13, _, _ = _kernels.q_polynomials(0.0)
        assert q0 == 1.0
        assert q2 == 1.0
        assert q6 == 0.0
        assert q13 == 1.0

    def test_at_c_one(self):
        q0, q2, q6, _, _, _, _, _, _, q13, _, q15 = _kernels.q_polynomials(1.0)
        assert q0 == 56.0
        assert q6 == 56.0
        assert q2 == 0.0
        assert q13 == 112.0
        assert q15 == 56.0

    def test_critical_inclination_zeros(self):
        q = _kernels.q_polynomials(math.sqrt(0.2))
        assert abs(q[0]) < 1e-14  # q0
        assert abs(q[1]) < 1e-14  # q2
        assert abs(q[9]) < 1e-14  # q13

    @pytest.mark.parametrize("c", np.linspace(-1.0, 1.0, 41).tolist())
    def test_structural_identities(self, c):
        q = _kernels.q_polynomials(c)
        q0, q2, q6, _, _, _, _, _, _, q13, _, _ = q
        c2 = c * c
        assert q2 == pytest.approx((1.0 - c2) * q0, abs=1e-12)
        assert q13 == pytest.approx(q0 * (1.0 + c), abs=1e-12)
        # q6 deflates q5 = c^2 (11 - 30 c^2 + 75 c^4) by one factor c
        assert c * q6 == pytest.approx(c2 * (11.0 - 30.0 * c2 + 75.0 * c2 * c2), abs=1e-12)
        # q0, q2 and q6..q15: no q4, and q1, q3 and q5 are not built
        assert len(q) == 12
        assert all(math.isfinite(v) for v in q)


class TestPCoefficients:
    def test_constant_terms(self):
        q = _kernels.q_polynomials(0.37)
        p1, p2, p3, p4 = _kernels.p_coefficients(0.0, 0.0, q)
        assert p1 == 0.0
        assert p2 == 0.0
        assert p3 == q[1]  # q2
        assert p4 == q[0]  # q0

    def test_unit_kappa_equatorial(self):
        q = _kernels.q_polynomials(0.0)
        p1, _, _, p4 = _kernels.p_coefficients(1.0, 0.0, q)
        assert p1 == pytest.approx(q[1] + q[3])  # q2 + q7
        assert p1 == pytest.approx(1.25)
        assert p4 == pytest.approx(1.0)

    def test_quadratic_in_sigma(self):
        q = _kernels.q_polynomials(0.42)
        q8, q10 = q[4], q[6]
        kappa, sigma = 0.2, 0.15
        p1 = _kernels.p_coefficients(kappa, sigma, q)
        p2 = _kernels.p_coefficients(kappa, 2.0 * sigma, q)
        assert p2[0] - p1[0] == pytest.approx(3.0 * q8 * sigma ** 2, rel=1e-12)
        assert p2[1] - p1[1] == pytest.approx(3.0 * q10 * sigma ** 2, rel=1e-12)
