"""The classic Delaunay-element correction series against finite-difference
Poisson brackets of the Delaunay-form generating functions."""

import math
import random
from dataclasses import replace

import pytest

from zonalprop import EARTH, DelaunayState
from reference_forms import (delaunay_long_period, delaunay_short_period, delaunay_to_polar,
                             mean_to_osculating_delaunay, polar_to_nonsingular, u1_delaunay,
                             x1_delaunay)

MU = EARTH.mu
NAMES = ("ell", "g", "h", "L", "G", "H")
CONJ = {"ell": "L", "g": "G", "h": "H", "L": "ell", "G": "g", "H": "h"}


def _bracket_fd(gen, which, d, rel_step=1e-6):
    """{which, gen} in Delaunay variables by central differences."""
    partner = CONJ[which]
    scale = d.L if partner in ("L", "G", "H") else 1.0
    h = rel_step * scale
    up = replace(d, **{partner: getattr(d, partner) + h})
    dn = replace(d, **{partner: getattr(d, partner) - h})
    sign = 1.0 if which in ("ell", "g", "h") else -1.0
    return sign * (gen(up) - gen(dn)) / (2.0 * h)


def _random_states(n, seed, e_range=(0.05, 0.7)):
    rng = random.Random(seed)
    out = []
    while len(out) < n:
        a = rng.uniform(6900.0, 26000.0)
        e = rng.uniform(*e_range)
        inc = rng.uniform(0.15, 3.0)
        if abs(1.0 - 5.0 * math.cos(inc) ** 2) < 0.05:
            continue
        L = math.sqrt(MU * a)
        G = L * math.sqrt(1.0 - e * e)
        out.append(DelaunayState(ell=rng.uniform(-math.pi, math.pi),
                                 g=rng.uniform(-math.pi, math.pi),
                                 h=rng.uniform(-math.pi, math.pi),
                                 L=L, G=G, H=G * math.cos(inc)))
    return out


class TestShortPeriodSeries:
    def test_matches_bracket_oracle(self):
        gen = lambda s: u1_delaunay(s, EARTH)
        for d in _random_states(40, 71):
            deltas = delaunay_short_period(d, EARTH)
            ref = max(abs(v) for v in deltas)
            for i, name in enumerate(NAMES):
                fd = _bracket_fd(gen, name, d)
                tol = 1e-6 * max(abs(deltas[i]), 1e-6 * ref + 1e-15)
                assert abs(fd - deltas[i]) <= tol, (name, fd, deltas[i])

    def test_dh_action_is_zero(self):
        for d in _random_states(5, 72):
            assert delaunay_short_period(d, EARTH)[5] == 0.0


class TestLongPeriodSeries:
    def test_matches_bracket_oracle(self):
        gen = lambda s: x1_delaunay(s, EARTH)
        for d in _random_states(40, 73):
            deltas = delaunay_long_period(d, EARTH)
            ref = max(abs(v) for v in deltas)
            for i, name in enumerate(NAMES):
                fd = _bracket_fd(gen, name, d)
                tol = 1e-6 * max(abs(deltas[i]), 1e-6 * ref + 1e-15)
                assert abs(fd - deltas[i]) <= tol, (name, fd, deltas[i])

    def test_dL_dH_are_zero(self):
        for d in _random_states(5, 74):
            deltas = delaunay_long_period(d, EARTH)
            assert deltas[3] == 0.0 and deltas[5] == 0.0


class TestComposedTransformation:
    def test_agrees_with_nonsingular_pipeline_to_second_order(self):
        # the classic series and the nonsingular path implement the same
        # first-order theory, so their osculating outputs agree to second
        # order: the disagreement shrinks as lambda^2 under J2 inflation
        import numpy as np
        from zonalprop import mean_to_osculating, nonsingular_to_cartesian
        from conftest import cart_distance, loglog_slope

        def disagreement(d, field):
            osc_d = mean_to_osculating_delaunay(d, field)
            cart_series = nonsingular_to_cartesian(polar_to_nonsingular(
                delaunay_to_polar(osc_d, MU)))
            cart_ns = mean_to_osculating(d, field)
            return cart_distance(cart_series, cart_ns)

        states = _random_states(8, 75, e_range=(0.1, 0.5))
        lams = (1.0, 0.5, 0.25)
        dists = []
        for lam in lams:
            field = EARTH.scaled(j2_factor=lam, j3_factor=0.0)
            dists.append(float(np.mean([disagreement(d, field) for d in states])))
        assert loglog_slope(lams, dists) == pytest.approx(2.0, abs=0.1)
        # and at real J2 the disagreement stays far below the correction size
        for d in states:
            p = d.G ** 2 / MU
            eps2 = abs(0.25 * EARTH.c20 * (EARTH.alpha / p) ** 2)
            assert disagreement(d, EARTH) < 0.1 * eps2 * p
