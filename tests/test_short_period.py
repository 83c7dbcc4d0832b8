import math
import random
from dataclasses import replace

import pytest

from zonalprop import EARTH, NonsingularState
from zonalprop.states import PolarNodalState, polar_to_delaunay, polar_to_nonsingular
from conftest import (add_deltas, elements_to_polar, field_small_params, loglog_slope,
                      random_polar_states)
from exact_brackets import POLAR, brackets, exact_deltas, generating_function, worst_gap
from reference_forms import (short_corrections_low_inclination, short_corrections_nonsingular,
                             u1_delaunay, v1)

MU = EARTH.mu
FIELD = EARTH.restricted("j2")


class TestV1:
    def test_circular_equatorial_zero(self):
        p = 7000.0
        Theta = math.sqrt(MU * p)
        pn = PolarNodalState(r=p, theta=0.7, nu=0.2, R=0.0, Theta=Theta, N=Theta)
        assert v1(pn, FIELD) == pytest.approx(0.0, abs=1e-18)

    def test_polar_circular_value(self):
        # s = 1, kappa = sigma = 0, theta = pi/4: only the sin(2 theta) term
        p = 7000.0
        Theta = math.sqrt(MU * p)
        pn = PolarNodalState(r=p, theta=math.pi / 4, nu=0.0, R=0.0, Theta=Theta, N=0.0)
        _, eps2, _ = field_small_params(Theta, FIELD)
        expected = 1.5 * eps2 * Theta
        assert v1(pn, FIELD) == pytest.approx(expected, rel=1e-10)

    def test_equals_u1_at_mapped_states(self):
        rng = random.Random(31)
        for pn in random_polar_states(100, rng):
            d = polar_to_delaunay(pn, MU)
            assert v1(pn, FIELD) == pytest.approx(u1_delaunay(d, FIELD), rel=1e-12)


class TestShortPolar:
    """The polar-nodal brackets of v1, taken by exact differentiation."""

    def test_delta_n_exactly_zero(self):
        # v1 does not depend on the node, so dN = -dV1/dnu vanishes identically
        nu, N = POLAR[2], POLAR[5]
        assert nu not in generating_function("short").free_symbols
        assert brackets("short")[N] == 0

    def test_circular_dr(self):
        p, inc = 7000.0, math.radians(50.0)
        Theta = math.sqrt(MU * p)
        theta = 0.9
        pn = PolarNodalState(r=p, theta=theta, nu=0.1, R=0.0,
                             Theta=Theta, N=Theta * math.cos(inc))
        _, eps2, _ = field_small_params(Theta, FIELD)
        s2 = math.sin(inc) ** 2
        expected = eps2 * p * (3.0 * (2.0 - 3.0 * s2) - s2 * math.cos(2.0 * theta))
        dr = float(exact_deltas("short", pn, FIELD)[3])
        assert dr == pytest.approx(expected, rel=1e-9)

    def test_poisson_bracket_oracle(self):
        # short_ns is the chain-rule image of the exact brackets of v1
        states = random_polar_states(25, random.Random(33), e_range=(0.0, 0.95),
                                     i_range_deg=(0.5, 89.5))
        assert worst_gap("short", states, FIELD) <= 1e-40

    def test_periodic_in_theta(self):
        pn = elements_to_polar(8000.0, 0.2, math.radians(40.0), 0.5, 0.3, 0.7)
        d1 = exact_deltas("short", pn, FIELD)
        d2 = exact_deltas("short", replace(pn, theta=pn.theta + 2.0 * math.pi), FIELD)
        for a, b in zip(d1, d2):
            assert float(a) == pytest.approx(float(b), abs=1e-18, rel=1e-12)


class TestShortNonsingular:
    def test_equatorial_structural_zeros(self):
        p = 7000.0
        Theta = math.sqrt(MU * p)
        ns = NonsingularState(psi=0.8, xi=0.0, chi=0.0, r=p * 0.95, R=0.3,
                              Theta=Theta, N=Theta)
        d = short_corrections_nonsingular(ns, FIELD)
        assert d[1] == 0.0 and d[2] == 0.0

    def test_circular_equatorial_values(self):
        p = 7000.0
        Theta = math.sqrt(MU * p)
        ns = NonsingularState(psi=0.8, xi=0.0, chi=0.0, r=p, R=0.0,
                              Theta=Theta, N=Theta)
        d = short_corrections_nonsingular(ns, FIELD)
        _, eps2, _ = field_small_params(Theta, FIELD)
        assert d[0] == pytest.approx(0.0, abs=1e-18)            # dpsi: phi = sigma = 0
        assert d[3] == pytest.approx(6.0 * eps2 * p, rel=1e-9)  # dr = 6 eps2 p
        assert d[4] == pytest.approx(0.0, abs=1e-15)
        assert d[5] == pytest.approx(0.0, abs=1e-12)

    def test_chain_rule_agreement(self):
        # the retrograde chart: dpsi* = dtheta - dnu, same kernel
        states = random_polar_states(25, random.Random(34), e_range=(0.0, 0.95),
                                     i_range_deg=(90.5, 179.5))
        assert worst_gap("short", states, FIELD) <= 1e-40


class TestShortLowInclination:
    def test_circular_equatorial(self):
        p = 7000.0
        Theta = math.sqrt(MU * p)
        ns = NonsingularState(psi=0.8, xi=0.0, chi=0.0, r=p, R=0.0,
                              Theta=Theta, N=Theta)
        d = short_corrections_low_inclination(ns, FIELD)
        assert d[0] == 0.0  # dpsi = -2 eps2 (3 phi + ... sigma) with phi = sigma = 0
        assert d[5] == 0.0

    def test_dtheta_zero_for_all_inputs(self):
        rng = random.Random(35)
        for _ in range(50):
            pn = elements_to_polar(rng.uniform(6800.0, 20000.0),
                                   rng.uniform(0.0, 0.6),
                                   math.radians(rng.uniform(0.0, 5.0)),
                                   rng.uniform(-3.0, 3.0),
                                   rng.uniform(-3.0, 3.0),
                                   rng.uniform(-3.0, 3.0))
            ns = polar_to_nonsingular(pn)
            assert short_corrections_low_inclination(ns, FIELD)[5] == 0.0

    def test_difference_scales_as_s_squared(self):
        incs = (4.0, 2.0, 1.0)
        diffs = []
        for inc_deg in incs:
            acc = 0.0
            rng = random.Random(100)  # same element draw at each inclination
            for _ in range(20):
                pn = elements_to_polar(7200.0, rng.uniform(0.05, 0.4),
                                       math.radians(inc_deg),
                                       rng.uniform(-3.0, 3.0),
                                       rng.uniform(-3.0, 3.0),
                                       rng.uniform(-3.0, 3.0))
                ns = polar_to_nonsingular(pn)
                full = short_corrections_nonsingular(ns, FIELD)
                low = short_corrections_low_inclination(ns, FIELD)
                # nondimensionalise each component by its natural scale
                scales = (1.0, 1.0, 1.0, ns.r, ns.Theta / ns.r, ns.Theta)
                acc += max(abs(a - b) / s for a, b, s in zip(full, low, scales))
            diffs.append(acc / 20.0)
        ss = [math.sin(math.radians(i)) for i in incs]
        slope = loglog_slope(ss, diffs)
        assert slope == pytest.approx(2.0, abs=0.1)


class TestApplyCorrection:
    """A stage's deltas added at the mean state and subtracted at the
    osculating state: the two maps are inverse to first order."""

    def test_inverse_of_direct_scales_as_eps2_squared(self):
        rng = random.Random(38)
        states = random_polar_states(20, rng, e_range=(0.05, 0.5))
        lams = (1.0, 0.5, 0.25)
        residuals = []
        for lam in lams:
            f = FIELD.scaled(j2_factor=lam)
            acc = 0.0
            for ns in map(polar_to_nonsingular, states):
                osc = add_deltas(ns, short_corrections_nonsingular(ns, f))
                back = add_deltas(osc, short_corrections_nonsingular(osc, f), -1.0)
                acc += abs(back.r - ns.r) / ns.r + abs(back.Theta - ns.Theta) / ns.Theta
            residuals.append(acc / len(states))
        slope = loglog_slope(lams, residuals)
        assert slope == pytest.approx(2.0, abs=0.1)
