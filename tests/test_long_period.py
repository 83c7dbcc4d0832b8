import math
import random

import pytest

from zonalprop import (EARTH, CriticalInclinationError, NonsingularState, ZonalPropError,
                       critical_inclination_guard)
from zonalprop.states import PolarNodalState, polar_to_delaunay, polar_to_nonsingular
from conftest import (add_deltas, elements_to_polar, field_small_params, loglog_slope,
                      random_polar_states)
from exact_brackets import POLAR, brackets, exact_deltas, generating_function, worst_gap
from reference_forms import (long_corrections_low_inclination, long_corrections_nonsingular,
                             x1_delaunay, y1)

MU = EARTH.mu
FIELD = EARTH


class TestGuard:
    def test_critical_direct(self):
        with pytest.raises(CriticalInclinationError):
            critical_inclination_guard(math.cos(math.radians(63.43494882)))

    def test_ok_at_30deg(self):
        critical_inclination_guard(math.cos(math.radians(30.0)))

    def test_critical_retrograde(self):
        with pytest.raises(CriticalInclinationError):
            critical_inclination_guard(math.cos(math.radians(116.565)))

    def test_band_width(self):
        c_edge = math.sqrt((1.0 - 2e-3) / 5.0)  # just outside a 1e-3 band
        critical_inclination_guard(c_edge, tol=1e-3)
        with pytest.raises(CriticalInclinationError):
            critical_inclination_guard(math.sqrt(0.2), tol=1e-3)

    @pytest.mark.parametrize("c", [math.nan, math.inf, -math.inf])
    def test_non_finite_rejected(self, c):
        with pytest.raises(ZonalPropError, match="cos I must be finite"):
            critical_inclination_guard(c)

    @pytest.mark.parametrize("tol", [math.nan, 0.0, -1e-3, math.inf])
    def test_tol_checked(self, tol):
        # NaN, 0 and a negative band switched the guard off; run_benchmark
        # passes its critical_tol here unchecked
        with pytest.raises(ZonalPropError, match="tol must be finite and > 0"):
            critical_inclination_guard(math.sqrt(0.2), tol)


class TestY1:
    def test_circular_zero(self):
        Theta = math.sqrt(MU * 7000.0)
        r = Theta * Theta / MU  # kappa exactly zero
        pn = PolarNodalState(r=r, theta=0.7, nu=0.2, R=0.0, Theta=Theta,
                             N=Theta * math.cos(math.radians(40.0)))
        assert y1(pn, FIELD) == 0.0

    def test_equatorial_zero(self):
        pn = elements_to_polar(8000.0, 0.3, 1e-9, 0.4, 0.2, 0.1)
        assert y1(pn, FIELD) == pytest.approx(0.0, abs=1e-12)

    def test_equals_x1_at_mapped_states(self):
        rng = random.Random(41)
        for pn in random_polar_states(100, rng):
            d = polar_to_delaunay(pn, MU)
            assert y1(pn, FIELD) == pytest.approx(x1_delaunay(d, FIELD), rel=1e-12)

    def test_guard(self):
        pn = elements_to_polar(8000.0, 0.2, math.radians(63.4349), 0.4, 0.2, 0.1)
        with pytest.raises(CriticalInclinationError):
            y1(pn, FIELD)


class TestLongPolar:
    """The polar-nodal brackets of y1, taken by exact differentiation."""

    def test_delta_n_exactly_zero(self):
        # y1 does not depend on the node, so dN = -dY1/dnu vanishes identically
        nu, N = POLAR[2], POLAR[5]
        assert nu not in generating_function("long").free_symbols
        assert brackets("long")[N] == 0

    def test_circular_dr(self):
        p, inc = 7000.0, math.radians(50.0)
        Theta = math.sqrt(MU * p)
        theta = 1.2
        pn = PolarNodalState(r=p, theta=theta, nu=0.1, R=0.0,
                             Theta=Theta, N=Theta * math.cos(inc))
        _, _, eps3 = field_small_params(Theta, FIELD)
        expected = p * eps3 * math.sin(inc) * math.sin(theta)
        dr = float(exact_deltas("long", pn, FIELD)[3])
        assert dr == pytest.approx(expected, rel=1e-9)

    def test_poisson_bracket_oracle(self):
        # long_ns, with c recovered or given, is the chain-rule image of the
        # exact brackets of y1
        states = random_polar_states(25, random.Random(43), e_range=(0.0, 0.95),
                                     i_range_deg=(0.5, 89.5))
        assert worst_gap("long", states, FIELD) <= 1e-40
        assert worst_gap("long", states, FIELD, given_c=True) <= 1e-40

    def test_critical_rejected(self):
        pn = elements_to_polar(8000.0, 0.2, math.radians(116.565), 0.4, 0.2, 0.1)
        with pytest.raises(CriticalInclinationError):
            y1(pn, FIELD)


class TestLongNonsingular:
    def test_equatorial_limit_values(self):
        # On the equator the odd-zonal long-period corrections survive:
        # dxi -> eps3*kappa and dchi -> -eps3*sigma, the chain-rule image of
        # the brackets of y1 (locked by test_chain_rule_agreement below).
        p = 7000.0
        Theta = math.sqrt(MU * p)
        e = 0.2
        for f_true in (0.3, 1.7, -2.2):
            r = p / (1.0 + e * math.cos(f_true))
            R = (Theta / p) * e * math.sin(f_true)
            kappa = p / r - 1.0
            sigma = p * R / Theta
            ns = NonsingularState(psi=0.8, xi=0.0, chi=0.0, r=r, R=R,
                                  Theta=Theta, N=Theta)
            d = long_corrections_nonsingular(ns, FIELD)
            _, _, eps3 = field_small_params(Theta, FIELD)
            assert d[1] == pytest.approx(eps3 * kappa, rel=1e-12)
            assert d[2] == pytest.approx(-eps3 * sigma, rel=1e-12)

    def test_circular_dr_matches_low_inclination_form(self):
        # circular orbit: dr reduces to eps3 * xi * p
        inc = math.radians(3.0)
        pn = elements_to_polar(7400.0, 0.0, inc, 0.9, 0.0, 0.3)
        ns = polar_to_nonsingular(pn)
        p, _, eps3 = field_small_params(ns.Theta, FIELD)
        d = long_corrections_nonsingular(ns, FIELD)
        assert d[3] == pytest.approx(eps3 * ns.xi * p, rel=1e-6)

    def test_chain_rule_agreement(self):
        # the retrograde chart (dpsi* = dtheta - dnu), and inclinations down
        # to 1e-6 rad where dtheta and dnu grow as 1/sin(I) but their image
        # stays regular
        rng = random.Random(44)
        states = (random_polar_states(25, rng, e_range=(0.0, 0.95), i_range_deg=(90.5, 179.5))
                  + [elements_to_polar(7500.0, 0.3, inc, 0.4, 0.2, 0.1)
                     for inc in (1e-6, 1e-4, math.pi - 1e-6)])
        assert worst_gap("long", states, FIELD) <= 1e-40
        assert worst_gap("long", states, FIELD, given_c=True) <= 1e-40

    def test_critical_rejected(self):
        pn = elements_to_polar(8000.0, 0.2, math.radians(63.4349), 0.4, 0.2, 0.1)
        with pytest.raises(CriticalInclinationError):
            long_corrections_nonsingular(polar_to_nonsingular(pn), FIELD)

    def test_odd_in_c30(self):
        rng = random.Random(45)
        flipped = EARTH.scaled(j3_factor=-1.0)
        for pn in random_polar_states(20, rng, i_range_deg=(10.0, 60.0)):
            ns = polar_to_nonsingular(pn)
            d_plus = long_corrections_nonsingular(ns, FIELD)
            d_minus = long_corrections_nonsingular(ns, flipped)
            # the c30-odd part flips exactly: (plus - minus)/2 is the eps3 part,
            # (plus + minus)/2 the eps2 part, equal to the c30 = 0 evaluation
            d_zero = long_corrections_nonsingular(ns, EARTH.scaled(j3_factor=0.0))
            for p_, m_, z_ in zip(d_plus, d_minus, d_zero):
                assert 0.5 * (p_ + m_) == pytest.approx(z_, rel=1e-12, abs=1e-18)


class TestLongLowInclination:
    def test_equatorial_structural(self):
        p = 7000.0
        Theta = math.sqrt(MU * p)
        e = 0.15
        f_true = 0.9
        r = p / (1.0 + e * math.cos(f_true))
        R = (Theta / p) * e * math.sin(f_true)
        kappa = p / r - 1.0
        sigma = p * R / Theta
        ns = NonsingularState(psi=0.8, xi=0.0, chi=0.0, r=r, R=R,
                              Theta=Theta, N=Theta)
        d = long_corrections_low_inclination(ns, FIELD)
        _, _, eps3 = field_small_params(Theta, FIELD)
        assert d[1] == pytest.approx(eps3 * kappa, rel=1e-13)
        assert d[2] == pytest.approx(-eps3 * sigma, rel=1e-13)

    def test_dtheta_circular_zero(self):
        pn = elements_to_polar(7400.0, 0.0, math.radians(1.5), 0.9, 0.0, 0.3)
        ns = polar_to_nonsingular(pn)
        assert long_corrections_low_inclination(ns, FIELD)[5] == pytest.approx(
            0.0, abs=1e-15)

    def test_difference_scales_as_s_squared(self):
        incs = (4.0, 2.0, 1.0)
        diffs = []
        for inc_deg in incs:
            acc = 0.0
            rng = random.Random(200)
            for _ in range(20):
                pn = elements_to_polar(7200.0, rng.uniform(0.05, 0.4),
                                       math.radians(inc_deg),
                                       rng.uniform(-3.0, 3.0),
                                       rng.uniform(-3.0, 3.0),
                                       rng.uniform(-3.0, 3.0))
                ns = polar_to_nonsingular(pn)
                full = long_corrections_nonsingular(ns, FIELD)
                low = long_corrections_low_inclination(ns, FIELD)
                scales = (1.0, 1.0, 1.0, ns.r, ns.Theta / ns.r, ns.Theta)
                acc += max(abs(a - b) / s for a, b, s in zip(full, low, scales))
            diffs.append(acc / 20.0)
        ss = [math.sin(math.radians(i)) for i in incs]
        slope = loglog_slope(ss, diffs)
        assert slope == pytest.approx(2.0, abs=0.1)

    def test_full_form_matches_limit_at_tiny_s(self):
        # full nonsingular form reproduces the equatorial limiting values
        s = 1e-8
        p = 7100.0
        Theta = math.sqrt(MU * p)
        e = 0.2
        _, _, eps3 = field_small_params(Theta, FIELD)
        for f_true in (0.5, 2.0):
            r = p / (1.0 + e * math.cos(f_true))
            R = (Theta / p) * e * math.sin(f_true)
            kappa = p / r - 1.0
            sigma = p * R / Theta
            ns = NonsingularState(psi=0.8, xi=s * math.sin(1.3), chi=s * math.cos(1.3),
                                  r=r, R=R, Theta=Theta,
                                  N=Theta * math.sqrt(1.0 - s * s))
            d = long_corrections_nonsingular(ns, FIELD)
            assert d[1] == pytest.approx(eps3 * kappa, rel=1e-6)
            assert d[2] == pytest.approx(-eps3 * sigma, rel=1e-6)


class TestDeltaNAlwaysZero:
    def test_all_formulations(self):
        rng = random.Random(46)
        for pn in random_polar_states(10, rng, i_range_deg=(10.0, 60.0)):
            ns = polar_to_nonsingular(pn)
            # nonsingular deltas have no N slot at all: N is carried unchanged
            for deltas in (long_corrections_nonsingular(ns, FIELD),
                           long_corrections_low_inclination(ns, FIELD)):
                assert len(deltas) == 6
                assert add_deltas(ns, deltas).N == ns.N
