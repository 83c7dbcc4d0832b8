import math
import random
import re
from dataclasses import replace
from types import SimpleNamespace

import mpmath
import numpy as np
import pytest
import sympy

from zonalprop import (EARTH, DelaunayState, GravityField, ZonalPropError, mean_motion,
                       orbital_period, propagate_mean, secular_rates)
from zonalprop.secular import (MAX_ADVANCE, mean_angle_rates, mean_hamiltonian,
                               zonal_hamiltonian)
from exact_brackets import DPS

MU = EARTH.mu
TWO_BODY = EARTH.restricted("two-body")


def _field(mu, alpha, c20):
    """A duck-typed field: the constants the mean Hamiltonian and its rates read."""
    return SimpleNamespace(mu=mu, alpha=alpha, c20=c20)


def _actions(a, e, inc):
    L = math.sqrt(MU * a)
    G = L * math.sqrt(1.0 - e * e)
    return L, G, G * math.cos(inc)


class TestMeanHamiltonian:
    def test_keplerian_limit(self):
        L, G, H = _actions(7000.0, 0.1, 0.5)
        assert mean_hamiltonian(L, G, H, TWO_BODY) == pytest.approx(
            -MU * MU / (2.0 * L * L), rel=1e-15)

    def test_first_order_term_circular_polar(self):
        # e = 0, i = 90 deg: the first-order term is -H00 * eps2 * (-2)
        L, G, H = _actions(7000.0, 0.0, math.pi / 2)
        p = G * G / MU
        eps2 = 0.25 * EARTH.c20 * (EARTH.alpha / p) ** 2
        h00 = -MU * MU / (2.0 * L * L)
        k01 = -h00 * eps2 * (4.0 - 6.0)
        k = mean_hamiltonian(L, G, H, EARTH)
        assert k - h00 - k01 == pytest.approx(0.0, abs=5.0 * eps2 ** 2 * abs(h00))

    def test_second_order_bracket_at_eta_one(self):
        # frozen combination of the second-order bracket at e = 0
        s2 = math.sin(math.radians(40.0)) ** 2
        expected = (5.0 * (8.0 - 16.0 * s2 + 7.0 * s2 * s2)
                    + (4.0 - 6.0 * s2) ** 2
                    - (8.0 - 8.0 * s2 - 5.0 * s2 * s2))
        from zonalprop.secular import _bracket_terms
        b, _, _ = _bracket_terms(1.0, s2)
        assert b == pytest.approx(expected, rel=1e-14)

    def test_no_c30_dependence(self):
        # the odd zonal averages out of the mean Hamiltonian entirely
        L, G, H = _actions(7500.0, 0.2, 0.8)
        assert mean_hamiltonian(L, G, H, EARTH) == mean_hamiltonian(
            L, G, H, EARTH.scaled(j3_factor=-3.0))

    @pytest.mark.parametrize("a, e, inc, g", [
        (7000.0, 0.0, 0.3, 0.0), (7500.0, 0.2, 1.1, 0.4), (12000.0, 0.5, 2.0, 1.3),
        (26000.0, 0.75, 0.7, 2.2), (40000.0, 0.9, 1.4, -0.8)])
    def test_first_order_term_is_the_mean_anomaly_average_of_the_j2_term(self, a, e, inc, g):
        # the J2 term of the osculating Hamiltonian (R = Theta = 0 leaves the
        # potential), averaged over ell by the trapezoid rule in f with
        # d ell = r^2 / (a^2 eta) df, against the odd part in c20 of the mean
        # Hamiltonian, which is its first-order term
        L, G, H = _actions(a, e, inc)
        eta = G / L
        f = np.linspace(0.0, 2.0 * math.pi, 4096, endpoint=False)
        r = a * eta * eta / (1.0 + e * np.cos(f))
        xi = math.sin(inc) * np.sin(f + g)
        j2 = (zonal_hamiltonian(r, 0.0, 0.0, xi, MU, EARTH.alpha, EARTH.c20, 0.0)
              - zonal_hamiltonian(r, 0.0, 0.0, xi, MU, EARTH.alpha, 0.0, 0.0))
        average = np.mean(j2 * r * r / (a * a * eta))
        first = 0.5 * (mean_hamiltonian(L, G, H, EARTH)
                       - mean_hamiltonian(L, G, H, EARTH.scaled(j2_factor=-1.0)))
        assert abs(average - first) <= 1e-10 * abs(first)


class TestSecularRates:
    def test_keplerian_limit(self):
        L, G, H = _actions(7000.0, 0.1, 0.5)
        rates = secular_rates(L, G, H, TWO_BODY)
        assert rates.ell_dot == pytest.approx(MU * MU / L ** 3, rel=1e-15)
        assert rates.g_dot == 0.0
        assert rates.h_dot == 0.0

    def test_matches_exact_partials(self):
        # the rates are +dK/d(action) of the package's own mean Hamiltonian K,
        # differentiated on symbols (field constants too, so nothing is
        # rounded to 53 bits) and evaluated at DPS digits
        actions = sympy.symbols("L G H", positive=True)
        constants = sympy.symbols("mu alpha c20", real=True)
        k = mean_hamiltonian(*actions, _field(*constants))
        exact = sympy.lambdify(actions + constants, [k.diff(x) for x in actions],
                               modules="mpmath", cse=True)
        rng = random.Random(51)
        for _ in range(100):
            L, G, H = _actions(rng.uniform(6800.0, 30000.0), rng.uniform(0.0, 0.95),
                               rng.uniform(0.0, math.pi))
            with mpmath.workdps(DPS):
                args = [mpmath.mpf(x) for x in (L, G, H)]
                consts = [mpmath.mpf(x) for x in (EARTH.mu, EARTH.alpha, EARTH.c20)]
                got = mean_angle_rates(*args, _field(*consts))
                want = exact(*args, *consts)
                size = max(abs(x) for x in want)
                assert max(abs(a - b) for a, b in zip(got, want)) <= 1e-40 * size

    def test_first_order_node_rate(self):
        # classical -(3/2) n J2 (alpha/p)^2 cos(i) at first order
        a, e, inc = 7000.0, 0.05, math.radians(30.0)
        L, G, H = _actions(a, e, inc)
        p = G * G / MU
        n = mean_motion(L, EARTH)
        classic = -1.5 * n * EARTH.j2 * (EARTH.alpha / p) ** 2 * math.cos(inc)
        rates = secular_rates(L, G, H, EARTH)
        assert rates.h_dot == pytest.approx(classic, rel=5.0 * EARTH.j2)

    def test_node_rate_sign_flip_across_90deg(self):
        L, G, H1 = _actions(7200.0, 0.1, math.radians(50.0))
        _, _, H2 = _actions(7200.0, 0.1, math.radians(130.0))
        assert secular_rates(L, G, H1, EARTH).h_dot < 0.0
        assert secular_rates(L, G, H2, EARTH).h_dot > 0.0

    def test_g_rate_sign_flip_across_critical(self):
        L, G, H1 = _actions(7200.0, 0.1, math.radians(60.0))
        _, _, H2 = _actions(7200.0, 0.1, math.radians(66.0))
        assert secular_rates(L, G, H1, EARTH).g_dot > 0.0
        assert secular_rates(L, G, H2, EARTH).g_dot < 0.0

    @pytest.mark.parametrize("actions, message", [
        ((52000.0, 0.0, 0.0), "need 0 < G <= L"),   # was a bare ZeroDivisionError
        ((52000.0, 51000.0, 60000.0), r"\|H\| = 60000.0 exceeds G"),
        ((50000.0, 51000.0, 0.0), "need 0 < G <= L"),
        ((math.nan, 51000.0, 0.0), "secular_rates: L must be finite"),
        ((52000.0, math.inf, 0.0), "secular_rates: G must be finite"),
        ((52000.0, 51000.0, -math.inf), "secular_rates: H must be finite"),
    ], ids=["G-zero", "H-above-G", "G-above-L", "L-nan", "G-inf", "H-inf"])
    def test_actions_checked_as_a_delaunay_state(self, actions, message):
        # rates used to come back for |H| > G, G > L and NaN actions
        with pytest.raises(ZonalPropError, match=message):
            secular_rates(*actions, EARTH)

    @pytest.mark.parametrize("L, rate", [(1e-60, "ell_dot must be finite, got inf"),
                                         (1e-80, "ell_dot must be finite, got nan")])
    def test_non_finite_rate_raises(self, L, rate):
        # actions a DelaunayState accepts, whose eps2 = c20 (alpha/p)^2 / 4
        # overflows while n stays finite: the rates came back as inf or NaN.
        # The error names secular_rates, as its other errors do, not the
        # internal mean_angle_rates
        with pytest.raises(ZonalPropError, match=f"^secular_rates: rates.{rate}$"):
            secular_rates(L, L, 0.5 * L, EARTH)


class TestMeanMotion:
    @pytest.mark.parametrize("L", [0.0, -5.0, math.nan, math.inf])
    def test_l_checked(self, L):
        # L = 0 was a bare ZeroDivisionError, L = -5 a negative mean motion
        # and period, and NaN came back as NaN
        for fn in (mean_motion, orbital_period):
            with pytest.raises(ZonalPropError, match=f"L must be positive and finite, got {L}"):
                fn(L, EARTH)

    @pytest.mark.parametrize("L", [1e-110, 1e-100, 1e103])
    def test_float_range_ends(self, L):
        # L ** 3 underflowed to 0 (a bare ZeroDivisionError), gave n = inf and
        # a period of 0.0, or overflowed (a bare OverflowError)
        for fn in (mean_motion, orbital_period):
            with pytest.raises(ZonalPropError, match=re.escape(f"for L = {L}") + "$"):
                fn(L, EARTH)

    def test_period_overflow(self):
        # n is a positive double, but 2 pi / n is not
        tiny = GravityField(mu=1e-150, alpha=EARTH.alpha, c20=EARTH.c20, c30=EARTH.c30)
        L = 1e5
        assert 0.0 < mean_motion(L, tiny) < 1e-300
        with pytest.raises(ZonalPropError, match=re.escape(f"overflows for L = {L}")):
            orbital_period(L, tiny)

    def test_finite_n_unchanged(self):
        for L in (1e-90, 1.0, 52000.0, 1e100):
            assert mean_motion(L, EARTH) == EARTH.mu * EARTH.mu / L ** 3


class TestPropagateMean:
    def _state(self):
        L, G, H = _actions(7100.0, 0.2, 0.7)
        return DelaunayState(ell=0.4, g=-0.9, h=2.2, L=L, G=G, H=H)

    def test_zero_dt_identity(self):
        d = self._state()
        rates = secular_rates(d.L, d.G, d.H, EARTH)
        assert propagate_mean(d, rates, 0.0) == d

    def test_linearity(self):
        d = self._state()
        rates = secular_rates(d.L, d.G, d.H, EARTH)
        one = propagate_mean(d, rates, 500.0)
        two = propagate_mean(propagate_mean(d, rates, 250.0), rates, 250.0)
        assert one.ell == pytest.approx(two.ell, abs=1e-12)
        assert one.g == pytest.approx(two.g, abs=1e-12)
        assert one.h == pytest.approx(two.h, abs=1e-12)

    def test_actions_bit_identical(self):
        d = self._state()
        rates = secular_rates(d.L, d.G, d.H, EARTH)
        out = propagate_mean(d, rates, 12345.678)
        assert out.L == d.L and out.G == d.G and out.H == d.H

    def test_keplerian_full_period(self):
        L, G, H = _actions(7300.0, 0.1, 0.6)
        d = DelaunayState(ell=0.3, g=0.1, h=0.2, L=L, G=G, H=H)
        rates = secular_rates(L, G, H, TWO_BODY)
        out = propagate_mean(d, rates, orbital_period(L, TWO_BODY))
        assert out.ell == pytest.approx(d.ell, abs=1e-10)
        assert out.g == d.g and out.h == d.h

    @pytest.mark.parametrize("dt", [math.nan, math.inf, -math.inf])
    def test_non_finite_dt_rejected(self, dt):
        d = self._state()
        rates = secular_rates(d.L, d.G, d.H, EARTH)
        with pytest.raises(ZonalPropError, match="dt must be finite"):
            propagate_mean(d, rates, dt)

    def test_non_finite_rate_rejected(self):
        d = self._state()
        rates = replace(secular_rates(d.L, d.G, d.H, EARTH), g_dot=math.nan)
        with pytest.raises(ZonalPropError, match="rates.g_dot must be finite"):
            propagate_mean(d, rates, 60.0)

    def test_advance_past_2_52_rad_rejected(self):
        # from 2**52 rad on the reduced angle is rounding residue: dt = 1e308
        # gave h = 1.9e286, outside (-pi, pi].  The limit itself is rejected
        # (taken a hair above it, for the rounding of the quotient)
        d = self._state()
        rates = secular_rates(d.L, d.G, d.H, EARTH)
        limit = MAX_ADVANCE / max(abs(rates.ell_dot), abs(rates.g_dot), abs(rates.h_dot))
        for dt in (1e308, -1e308, 1e20, limit * (1.0 + 1e-15), -limit * (1.0 + 1e-15)):
            with pytest.raises(ZonalPropError, match=r"over \|dt\| = .* is not below 2\*\*52"):
                propagate_mean(d, rates, dt)
        out = propagate_mean(d, rates, 0.999 * limit)
        assert max(abs(out.ell), abs(out.g), abs(out.h)) <= math.pi

    def test_hamiltonian_conserved_along_mean_flow(self):
        d = self._state()
        rates = secular_rates(d.L, d.G, d.H, EARTH)
        k0 = mean_hamiltonian(d.L, d.G, d.H, EARTH)
        out = propagate_mean(d, rates, 1e5)
        assert mean_hamiltonian(out.L, out.G, out.H, EARTH) == k0
