import math
import random
from dataclasses import replace

import pytest

from zonalprop import (EARTH, DelaunayState, ZonalPropError, mean_motion, orbital_period,
                       propagate_mean, secular_rates)
from zonalprop.secular import mean_hamiltonian

MU = EARTH.mu
TWO_BODY = EARTH.restricted("two-body")


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


class TestSecularRates:
    def test_keplerian_limit(self):
        L, G, H = _actions(7000.0, 0.1, 0.5)
        rates = secular_rates(L, G, H, TWO_BODY)
        assert rates.ell_dot == pytest.approx(MU * MU / L ** 3, rel=1e-15)
        assert rates.g_dot == 0.0
        assert rates.h_dot == 0.0

    def test_matches_finite_differences(self):
        def central(i, L, G, H, h):
            up = [L, G, H]
            dn = [L, G, H]
            up[i] += h
            dn[i] -= h
            return (mean_hamiltonian(*up, EARTH)
                    - mean_hamiltonian(*dn, EARTH)) / (2.0 * h)

        rng = random.Random(51)
        for _ in range(30):
            a = rng.uniform(6800.0, 30000.0)
            e = rng.uniform(0.0, 0.8)
            inc = rng.uniform(0.05, 3.1)
            L, G, H = _actions(a, e, inc)
            rates = secular_rates(L, G, H, EARTH)
            h = 1e-4 * L
            for i, got in enumerate((rates.ell_dot, rates.g_dot, rates.h_dot)):
                # Richardson-extrapolated central difference kills the
                # truncation term while the large step keeps roundoff down
                fd = (4.0 * central(i, L, G, H, 0.5 * h) - central(i, L, G, H, h)) / 3.0
                assert got == pytest.approx(fd, rel=1e-8, abs=1e-15)

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

    def test_hamiltonian_conserved_along_mean_flow(self):
        d = self._state()
        rates = secular_rates(d.L, d.G, d.H, EARTH)
        k0 = mean_hamiltonian(d.L, d.G, d.H, EARTH)
        out = propagate_mean(d, rates, 1e5)
        assert mean_hamiltonian(out.L, out.G, out.H, EARTH) == k0
