import math
import random

import pytest

from zonalprop import (EARTH, CriticalInclinationError, EquatorialDecompositionError,
                       NonsingularState, ZonalPropError, critical_inclination_guard)
from zonalprop.gravity import small_params
from zonalprop.oracle import poisson_bracket_fd, x1_delaunay
from zonalprop.reference import (long_corrections_low_inclination,
                                 long_corrections_nonsingular, long_corrections_polar, y1)
from zonalprop.states import PolarNodalState, polar_to_delaunay, polar_to_nonsingular
from conftest import (add_deltas, chain_to_nonsingular, elements_to_polar, loglog_slope,
                      random_polar_states)

MU = EARTH.mu
FIELD = EARTH
COORDS = ("r", "theta", "nu", "R", "Theta", "N")


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
    def test_delta_n_exactly_zero(self):
        rng = random.Random(42)
        for pn in random_polar_states(20, rng, i_range_deg=(10.0, 60.0)):
            assert long_corrections_polar(pn, FIELD)[5] == 0.0

    def test_circular_dr(self):
        p, inc = 7000.0, math.radians(50.0)
        Theta = math.sqrt(MU * p)
        theta = 1.2
        pn = PolarNodalState(r=p, theta=theta, nu=0.1, R=0.0,
                             Theta=Theta, N=Theta * math.cos(inc))
        sp = small_params(Theta, FIELD)
        expected = p * sp.eps3 * math.sin(inc) * math.sin(theta)
        dr = long_corrections_polar(pn, FIELD)[0]
        assert dr == pytest.approx(expected, rel=1e-9)

    def test_poisson_bracket_oracle(self):
        rng = random.Random(43)
        gen = lambda st: y1(st, FIELD)
        for pn in random_polar_states(100, rng, i_range_deg=(10.0, 60.0)):
            deltas = long_corrections_polar(pn, FIELD)
            scale_ref = max(abs(d) for d in deltas)
            for i, name in enumerate(COORDS):
                fd = poisson_bracket_fd(gen, name, pn)
                scale = max(abs(deltas[i]), 1e-7 * scale_ref + 1e-15)
                assert abs(fd - deltas[i]) <= 1e-6 * scale, (name, fd, deltas[i])

    def test_near_equatorial_rejected(self):
        pn = elements_to_polar(8000.0, 0.2, 1e-8, 0.4, 0.2, 0.1)
        with pytest.raises(EquatorialDecompositionError):
            long_corrections_polar(pn, FIELD)

    def test_critical_rejected(self):
        pn = elements_to_polar(8000.0, 0.2, math.radians(116.565), 0.4, 0.2, 0.1)
        with pytest.raises(CriticalInclinationError):
            long_corrections_polar(pn, FIELD)


class TestLongNonsingular:
    def test_equatorial_limit_values(self):
        # On the equator the odd-zonal long-period corrections survive:
        # dxi -> eps3*kappa and dchi -> -eps3*sigma, the chain-rule image of
        # the polar-nodal forms (locked by test_chain_rule_agreement below).
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
            sp = small_params(Theta, FIELD)
            assert d[1] == pytest.approx(sp.eps3 * kappa, rel=1e-12)
            assert d[2] == pytest.approx(-sp.eps3 * sigma, rel=1e-12)

    def test_circular_dr_matches_low_inclination_form(self):
        # circular orbit: dr reduces to eps3 * xi * p
        inc = math.radians(3.0)
        pn = elements_to_polar(7400.0, 0.0, inc, 0.9, 0.0, 0.3)
        ns = polar_to_nonsingular(pn)
        sp = small_params(ns.Theta, FIELD)
        d = long_corrections_nonsingular(ns, FIELD)
        assert d[3] == pytest.approx(sp.eps3 * ns.xi * sp.p, rel=1e-6)

    def test_chain_rule_agreement(self):
        rng = random.Random(44)
        states = (random_polar_states(50, rng, i_range_deg=(5.0, 60.0))
                  + random_polar_states(50, rng, i_range_deg=(120.0, 175.0)))
        for pn in states:
            polar = long_corrections_polar(pn, FIELD)
            mapped = chain_to_nonsingular(pn, polar)
            ns = polar_to_nonsingular(pn)
            direct = long_corrections_nonsingular(ns, FIELD)
            for a, b in zip(mapped, direct):
                assert a == pytest.approx(b, rel=1e-10, abs=1e-14)

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
        sp = small_params(Theta, FIELD)
        assert d[1] == pytest.approx(sp.eps3 * kappa, rel=1e-13)
        assert d[2] == pytest.approx(-sp.eps3 * sigma, rel=1e-13)

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
        sp = small_params(Theta, FIELD)
        for f_true in (0.5, 2.0):
            r = p / (1.0 + e * math.cos(f_true))
            R = (Theta / p) * e * math.sin(f_true)
            kappa = p / r - 1.0
            sigma = p * R / Theta
            ns = NonsingularState(psi=0.8, xi=s * math.sin(1.3), chi=s * math.cos(1.3),
                                  r=r, R=R, Theta=Theta,
                                  N=Theta * math.sqrt(1.0 - s * s))
            d = long_corrections_nonsingular(ns, FIELD)
            assert d[1] == pytest.approx(sp.eps3 * kappa, rel=1e-6)
            assert d[2] == pytest.approx(-sp.eps3 * sigma, rel=1e-6)


class TestDeltaNAlwaysZero:
    def test_all_formulations(self):
        rng = random.Random(46)
        for pn in random_polar_states(10, rng, i_range_deg=(10.0, 60.0)):
            assert long_corrections_polar(pn, FIELD)[5] == 0.0
            ns = polar_to_nonsingular(pn)
            # nonsingular deltas have no N slot at all: N is carried unchanged
            for deltas in (long_corrections_nonsingular(ns, FIELD),
                           long_corrections_low_inclination(ns, FIELD)):
                assert len(deltas) == 6
                assert add_deltas(ns, deltas).N == ns.N
