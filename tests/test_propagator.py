import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zonalprop import (EARTH, CartesianState, ConfigError, CriticalInclinationError,
                       DelaunayState, PropagatorConfig, ZonalPropError, _kernels,
                       cartesian_to_nonsingular, ephemeris, ephemeris_array,
                       mean_to_osculating, osculating_to_mean, secular_rates)
from zonalprop.oracle import integrate_grid
from zonalprop.secular import orbital_period
from zonalprop.states import polar_to_delaunay
from conftest import (angle_diff, cart_distance, elements_to_cartesian, elements_to_polar,
                      loglog_slope)

MU = EARTH.mu
ALL_OFF = PropagatorConfig(short_period=False, long_period=False, secular=False)


@pytest.mark.parametrize("tol", [math.nan, -1.0, 0.0, math.inf])
def test_critical_tol_must_be_finite_and_positive(tol):
    # 0, a negative band or NaN switched the guard off; inf rejected every orbit
    with pytest.raises(ConfigError, match="critical_tol must be finite and > 0"):
        PropagatorConfig(critical_tol=tol)
    assert PropagatorConfig(critical_tol=1e-4).critical_tol == 1e-4


class TestOsculatingToMean:
    def test_two_body_equals_direct_conversion(self):
        f = EARTH.restricted("two-body")
        pn = elements_to_polar(7100.0, 0.2, math.radians(40.0), 0.4, 0.8, 1.2)
        cart = elements_to_cartesian(7100.0, 0.2, math.radians(40.0), 0.4, 0.8, 1.2)
        mean = osculating_to_mean(cart, f)
        direct = polar_to_delaunay(pn, MU)
        for k in ("L", "G", "H"):
            assert getattr(mean.delaunay, k) == pytest.approx(getattr(direct, k),
                                                              rel=1e-12)
        for k in ("ell", "g", "h"):
            assert angle_diff(getattr(mean.delaunay, k), getattr(direct, k)) < 1e-11

    def test_inverse_composition_scaling(self):
        cart = elements_to_cartesian(7000.0, 0.05, math.radians(30.0), 0.3, 0.7, 1.1)
        lams = (1.0, 0.5, 0.25, 0.125)
        errs = []
        for lam in lams:
            f = EARTH.scaled(j2_factor=lam, j3_factor=0.0)
            mean = osculating_to_mean(cart, f)
            back = mean_to_osculating(mean.delaunay, f)
            errs.append(cart_distance(back, cart))
        assert loglog_slope(lams, errs) == pytest.approx(2.0, abs=0.1)

    #: (a, e, inclination [deg], mean anomaly, argument of perigee, node
    #: [rad]): generic orbits away from the critical and near-equatorial bands
    ROUND_TRIP_ORBITS = {
        "leo": (7000.0, 0.001, 51.6, 0.3, 0.7, 1.1),
        "e 0.2": (8000.0, 0.2, 40.0, 0.7, 0.4, 1.0),
        "e 0.4": (12000.0, 0.4, 55.0, 2.0, 1.2, 0.3),
        "e 0.7": (25000.0, 0.7, 28.0, -1.0, 2.5, 4.0),
        "retrograde": (7300.0, 0.02, 140.0, 0.5, 5.2, 3.4),
    }

    @pytest.mark.parametrize("name", sorted(ROUND_TRIP_ORBITS))
    def test_round_trip_miss_scales_as_j2_squared(self, name):
        # the t0 miss of osculating -> mean -> osculating is the second-order
        # remainder of the first-order theory: halving C20 (C30 = 0) divides
        # it by 4
        a, e, inc_deg, ell, g, h = self.ROUND_TRIP_ORBITS[name]
        cart = elements_to_cartesian(a, e, math.radians(inc_deg), ell, g, h)
        start = np.array(cart.position())
        misses = []
        for lam in (1.0, 0.5, 0.25, 0.125):
            field = EARTH.restricted("j2").scaled(j2_factor=lam)
            assert field.c30 == 0.0
            row = ephemeris_array(cart, 0.0, [0.0], field)[0]
            misses.append(float(np.linalg.norm(row[:3] - start)))
        assert misses[-1] > 1e-6  # km: well above the rounding floor
        for big, small in zip(misses, misses[1:]):
            assert 3.9 <= big / small <= 4.1

    def test_near_equatorial_processes(self):
        cart = elements_to_cartesian(7000.0, 0.05, math.radians(0.01), 0.3, 0.7, 1.1)
        mean = osculating_to_mean(cart, EARTH)
        back = mean_to_osculating(mean.delaunay, EARTH)
        # second-order residual; the odd-zonal terms carry eps3 = O(J3/J2),
        # so the budget here is ~a*eps3^2, tens of meters
        assert cart_distance(back, cart) < 0.1

    def test_metadata_recorded(self):
        cart = elements_to_cartesian(7000.0, 0.05, math.radians(30.0), 0.3, 0.7, 1.1)
        mean = osculating_to_mean(cart, EARTH)
        assert not mean.retrograde
        cart_r = elements_to_cartesian(7000.0, 0.05, math.radians(150.0), 0.3, 0.7, 1.1)
        assert osculating_to_mean(cart_r, EARTH).retrograde

    def test_critical_inclination_guarded(self):
        for inc_deg in (63.435, 116.565):
            cart = elements_to_cartesian(7000.0, 0.05, math.radians(inc_deg),
                                         0.3, 0.7, 1.1)
            with pytest.raises(CriticalInclinationError):
                osculating_to_mean(cart, EARTH)

    @pytest.mark.parametrize("side, angles", [
        (1.0, (0.0, 0.0, 0.0)), (1.0, (2.0, 0.4, 1.1)), (-1.0, (0.3, 0.7, 1.1)),
    ])
    @pytest.mark.parametrize("retro", [False, True], ids=["direct", "retrograde"])
    def test_mean_inclination_guarded(self, side, angles, retro):
        """The guard also checks the mean inclination, which can sit inside
        the band while the osculating one is outside it."""
        # mean |1 - 5c^2| = 8e-4 inside the 1e-3 band; osculating state from
        # the short-period correction alone
        c = math.sqrt((1.0 - side * 8e-4) / 5.0)
        L = math.sqrt(MU * 7000.0)
        G = L * math.sqrt(1.0 - 0.05 ** 2)
        H = -G * c if retro else G * c
        cart = CartesianState(*_kernels.reconstruct_and_correct(
            *angles, L, G, H, MU, EARTH.alpha, EARTH.c20, EARTH.c30, False, True))
        osc_c = cartesian_to_nonsingular(cart).cos_inclination_abs
        assert abs(1.0 - 5.0 * osc_c * osc_c) >= 1e-3  # the osculating check passes
        with pytest.raises(CriticalInclinationError):
            ephemeris_array(cart, 0.0, [0.0, 600.0], EARTH)
        # the mean elements a narrower band admits are the ones
        # mean_to_osculating rejects at the default band
        mean = osculating_to_mean(cart, EARTH, PropagatorConfig(critical_tol=1e-4))
        with pytest.raises(CriticalInclinationError):
            mean_to_osculating(mean.delaunay, EARTH)
        # without the long-period stage the band does not apply
        assert np.all(np.isfinite(ephemeris_array(
            cart, 0.0, [0.0], EARTH, PropagatorConfig(long_period=False))))


class TestMeanToOsculating:
    def test_keplerian_limit_reproduces_conic(self):
        f = EARTH.restricted("two-body")
        pn = elements_to_polar(8000.0, 0.3, math.radians(50.0), 0.9, 0.4, 0.2)
        d = polar_to_delaunay(pn, MU)
        cart = mean_to_osculating(d, f)
        expected = elements_to_cartesian(8000.0, 0.3, math.radians(50.0), 0.9, 0.4, 0.2)
        assert cart_distance(cart, expected) < 1e-9

    def test_stages_toggle_to_keplerian(self):
        pn = elements_to_polar(8000.0, 0.3, math.radians(50.0), 0.9, 0.4, 0.2)
        d = polar_to_delaunay(pn, MU)
        cfg = PropagatorConfig(short_period=False, long_period=False)
        cart = mean_to_osculating(d, EARTH, cfg)
        expected = elements_to_cartesian(8000.0, 0.3, math.radians(50.0), 0.9, 0.4, 0.2)
        assert cart_distance(cart, expected) < 1e-9

    def test_single_stage_toggles_differ(self):
        pn = elements_to_polar(8000.0, 0.3, math.radians(50.0), 0.9, 0.4, 0.2)
        d = polar_to_delaunay(pn, MU)
        full = mean_to_osculating(d, EARTH)
        no_short = mean_to_osculating(d, EARTH, PropagatorConfig(short_period=False))
        no_long = mean_to_osculating(d, EARTH, PropagatorConfig(long_period=False))
        assert cart_distance(full, no_short) > 1e-4
        assert cart_distance(full, no_long) > 1e-6

    def test_circular_mean_state_finite(self):
        L = math.sqrt(MU * 7200.0)
        d = DelaunayState(ell=0.4, g=0.2, h=0.9, L=L, G=L, H=L * math.cos(0.7))
        cart = mean_to_osculating(d, EARTH)
        for k in ("x", "y", "z", "vx", "vy", "vz"):
            assert math.isfinite(getattr(cart, k))

    @pytest.mark.parametrize("name, value", [("H", math.nan), ("ell", math.nan),
                                             ("g", math.inf)])
    def test_non_finite_mean_element_named(self, name, value):
        # NaN H once slipped past |H| <= G and the guard into all-NaN output
        L = math.sqrt(MU * 7200.0)
        d = DelaunayState(ell=0.4, g=0.2, h=0.9, L=L, G=0.99 * L, H=0.5 * L)
        with pytest.raises(ZonalPropError, match=f"Delaunay element {name} must be finite"):
            mean_to_osculating(replace(d, **{name: value}), EARTH)

    def test_retrograde_chart(self):
        pn = elements_to_polar(7500.0, 0.1, math.radians(175.0), 0.5, 0.7, 0.9)
        d = polar_to_delaunay(pn, MU)
        assert d.H < 0
        cart = mean_to_osculating(d, EARTH)
        n_out = cart.x * cart.vy - cart.y * cart.vx
        assert n_out == pytest.approx(d.H, rel=1e-11)


class TestEphemeris:
    def test_single_epoch_is_roundtrip(self):
        cart = elements_to_cartesian(7000.0, 0.05, math.radians(30.0), 0.3, 0.7, 1.1)
        out = ephemeris(cart, 0.0, [0.0], EARTH)
        assert len(out) == 1
        p = 7000.0 * (1 - 0.05 ** 2)
        eps2 = abs(0.25 * EARTH.c20 * (EARTH.alpha / p) ** 2)
        assert cart_distance(out[0], cart) < 100.0 * eps2 ** 2 * p

    def test_determinism(self):
        cart = elements_to_cartesian(7000.0, 0.05, math.radians(30.0), 0.3, 0.7, 1.1)
        ts = np.linspace(0.0, 6000.0, 11)
        a = ephemeris_array(cart, 0.0, ts, EARTH)
        b = ephemeris_array(cart, 0.0, ts, EARTH)
        assert np.array_equal(a, b)

    def test_grid_order_independence(self):
        cart = elements_to_cartesian(7000.0, 0.05, math.radians(30.0), 0.3, 0.7, 1.1)
        ts = np.linspace(0.0, 6000.0, 11)
        a = ephemeris_array(cart, 0.0, ts, EARTH)
        perm = np.array([3, 0, 7, 1, 9, 5, 2, 10, 8, 4, 6])
        b = ephemeris_array(cart, 0.0, ts[perm], EARTH)
        assert np.array_equal(a[perm], b)

    def test_mean_angles_advance_linearly(self):
        cart = elements_to_cartesian(7000.0, 0.05, math.radians(30.0), 0.3, 0.7, 1.1)
        mean = osculating_to_mean(cart, EARTH)
        T = orbital_period(mean.delaunay.L, EARTH)
        from zonalprop.propagator import mean_elements_series
        rows = mean_elements_series(mean, 0.0, [0.0, T, 2.0 * T], EARTH)
        d1 = [angle_diff(rows[1][i], rows[0][i]) for i in range(3)]
        d2 = [angle_diff(rows[2][i], rows[1][i]) for i in range(3)]
        for a, b in zip(d1, d2):
            assert a == pytest.approx(b, abs=1e-9)
        assert np.all(rows[:, 3:] == rows[0, 3:])

    def test_n_conservation(self):
        for inc_deg in (5.0, 30.0, 85.0, 150.0):
            cart = elements_to_cartesian(7000.0, 0.05, math.radians(inc_deg),
                                         0.3, 0.7, 1.1)
            n0 = cart.x * cart.vy - cart.y * cart.vx
            ts = np.linspace(0.0, 20000.0, 40)
            arr = ephemeris_array(cart, 0.0, ts, EARTH)
            n_out = arr[:, 0] * arr[:, 4] - arr[:, 1] * arr[:, 3]
            assert np.max(np.abs(n_out - n0)) / abs(n0) < 1e-11

    def test_all_off_matches_two_body_oracle(self):
        cart = elements_to_cartesian(7000.0, 0.05, math.radians(30.0), 0.3, 0.7, 1.1)
        ts = np.linspace(0.0, 12000.0, 13)
        ana = ephemeris_array(cart, 0.0, ts, EARTH, ALL_OFF)
        num = integrate_grid(cart, 0.0, ts, EARTH.restricted("two-body"), tol=1e-13)
        err = np.sqrt(np.sum((ana[:, :3] - num[:, :3]) ** 2, axis=1))
        assert err.max() < 1e-7

    def test_error_scales_as_j2_squared(self):
        cart = elements_to_cartesian(7000.0, 0.05, math.radians(30.0), 0.3, 0.7, 1.1)
        lams = (1.0, 0.25)
        errs = []
        for lam in lams:
            f = EARTH.scaled(j2_factor=lam, j3_factor=0.0)
            mean = osculating_to_mean(cart, f)
            T = orbital_period(mean.delaunay.L, f)
            ts = np.linspace(0.0, T, 60)
            ana = ephemeris_array(cart, 0.0, ts, f)
            num = integrate_grid(cart, 0.0, ts, f, tol=1e-12)
            errs.append(float(np.sqrt(np.mean(
                np.sum((ana[:, :3] - num[:, :3]) ** 2, axis=1)))))
        assert loglog_slope(lams, errs) == pytest.approx(2.0, abs=0.1)

    def test_bad_grid(self):
        cart = elements_to_cartesian(7000.0, 0.05, 0.5, 0.3, 0.7, 1.1)
        with pytest.raises(ZonalPropError):
            ephemeris_array(cart, 0.0, [[0.0, 1.0]], EARTH)
        with pytest.raises(ZonalPropError):
            ephemeris_array(cart, 0.0, [math.nan], EARTH)

    @pytest.mark.parametrize("t0", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("n", [1, 100])
    def test_non_finite_epoch_rejected(self, t0, n):
        cart = elements_to_cartesian(7000.0, 0.05, 0.5, 0.3, 0.7, 1.1)
        with pytest.raises(ZonalPropError, match="t0"):
            ephemeris_array(cart, t0, np.arange(float(n)), EARTH)

    def test_mean_elements_series_matches_the_epoch_loop(self):
        from zonalprop import _kernels
        from zonalprop.propagator import mean_elements_series
        cart = elements_to_cartesian(7000.0, 0.05, math.radians(30.0), 0.3, 0.7, 1.1)
        mean = osculating_to_mean(cart, EARTH)
        ts = np.linspace(-50000.0, 90000.0, 1001)
        t0 = 123.5
        # the per-epoch loop mean_elements_series ran before it took arrays
        d = mean.delaunay
        rates = secular_rates(d.L, d.G, d.H, EARTH)
        ref = np.empty((ts.shape[0], 6), dtype=float)
        for i, t in enumerate(ts):
            dt = t - t0
            ref[i, 0] = _kernels.wrap_pi(d.ell + rates.ell_dot * dt)
            ref[i, 1] = _kernels.wrap_pi(d.g + rates.g_dot * dt)
            ref[i, 2] = _kernels.wrap_pi(d.h + rates.h_dot * dt)
            ref[i, 3] = d.L
            ref[i, 4] = d.G
            ref[i, 5] = d.H
        assert np.array_equal(mean_elements_series(mean, t0, ts, EARTH), ref)

    def test_mean_elements_series_keplerian_with_secular_off(self):
        # the ephemeris and the mean elements take their rates from one rule
        from zonalprop.propagator import mean_elements_series
        from zonalprop.secular import mean_motion
        cart = elements_to_cartesian(7000.0, 0.05, math.radians(30.0), 0.3, 0.7, 1.1)
        mean = osculating_to_mean(cart, EARTH, ALL_OFF)
        d = mean.delaunay
        ts = np.array([0.0, 600.0, 1200.0])
        rows = mean_elements_series(mean, 0.0, ts, EARTH, ALL_OFF)
        assert np.array_equal(rows[:, 0], _kernels.wrap_pi(d.ell + mean_motion(d.L, EARTH) * ts))
        assert np.all(rows[:, 1] == _kernels.wrap_pi(d.g))
        assert np.all(rows[:, 2] == _kernels.wrap_pi(d.h))

    @pytest.mark.parametrize("t0, ts, message", [
        (math.nan, [0.0, 60.0], "epoch t0 must be finite, got nan"),
        (0.0, [0.0, math.inf], "time grid must be finite"),
        (0.0, [[0.0, 60.0], [120.0, 180.0]], "time grid must be one-dimensional"),
    ], ids=["nan-epoch", "inf-grid", "2d-grid"])
    def test_mean_elements_series_checks_the_grid_as_ephemeris_array(self, t0, ts, message):
        # it used to return NaN rows (with a RuntimeWarning for the NaN epoch)
        # or fail inside NumPy's broadcasting
        from zonalprop.propagator import mean_elements_series
        cart = elements_to_cartesian(7000.0, 0.05, math.radians(30.0), 0.3, 0.7, 1.1)
        mean = osculating_to_mean(cart, EARTH)
        errors = []
        for fn, start in ((ephemeris_array, cart), (mean_elements_series, mean)):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(ZonalPropError) as exc:
                    fn(start, t0, ts, EARTH)
            errors.append((type(exc.value), str(exc.value)))
        assert errors == [(ZonalPropError, message)] * 2

    @pytest.mark.parametrize("n", [1, 40], ids=["float-path", "array-path"])
    def test_overflowing_time_offset_raises(self, n):
        # t0 and every t are finite but t - t0 is not: the float path raised a
        # bare OverflowError from wrap_pi, the array path returned NaN rows
        # and mean_elements_series NaN angles.  ephemeris_blocks raises when
        # called, before any block is asked for
        from zonalprop.propagator import ephemeris_blocks, mean_elements_series
        cart = elements_to_cartesian(7000.0, 0.05, math.radians(30.0), 0.3, 0.7, 1.1)
        mean = osculating_to_mean(cart, EARTH)
        ts = np.full(n, 1e308)
        for fn, start in ((ephemeris_array, cart), (ephemeris_blocks, cart),
                          (mean_elements_series, mean)):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(ZonalPropError) as exc:
                    fn(start, -1e308, ts, EARTH)
            assert str(exc.value) == "time offset t - t0 overflows for t0 = -1e+308"

    @pytest.mark.parametrize("n", [1, 40], ids=["float-path", "array-path"])
    @pytest.mark.parametrize("secular", [True, False], ids=["secular", "keplerian"])
    def test_advance_past_2_52_rad_raises(self, n, secular):
        # past 2**52 rad a mean angle keeps no digits: the float path returned
        # the t0 state at t = 1e300, and mean_elements_series rounding residue
        from zonalprop.propagator import ephemeris_blocks, mean_elements_series
        from zonalprop.secular import MAX_ADVANCE, mean_angle_rates
        cart = CartesianState(7000.0, 0.0, 0.0, 0.0, 7.5, 1.0)
        config = PropagatorConfig(secular=secular)
        mean = osculating_to_mean(cart, EARTH, config)
        d = mean.delaunay
        rate = max(map(abs, mean_angle_rates(d.L, d.G, d.H, EARTH, secular)))
        limit = MAX_ADVANCE / rate * (1.0 + 1e-15)  # a hair above: quotient rounding
        for offset in (1e300, -1e300, limit, -limit):
            ts = np.full(n, 5.0 + offset)
            for fn, start in ((ephemeris_array, cart), (ephemeris_blocks, cart),
                              (mean_elements_series, mean)):
                with pytest.raises(ZonalPropError, match=r"advance .* is not below 2\*\*52 rad"):
                    fn(start, 5.0, ts, EARTH, config)
        # just below the limit, and a thousand years, still propagate
        for offset in (0.999 * limit, 1000 * 365.25 * 86400.0):
            ts = np.full(n, 5.0 - offset)
            assert np.all(np.isfinite(ephemeris_array(cart, 5.0, ts, EARTH, config)))
            assert np.all(np.abs(mean_elements_series(mean, 5.0, ts, EARTH, config)[:, :3])
                          <= math.pi)


class TestOneFormulation:
    """The full nonsingular forms hold at every inclination, the equator
    included, so the pipeline never switches to a truncated form."""

    def test_continuous_across_two_degrees(self):
        # an O(sin^2 I) low-inclination truncation below 2 deg moved this
        # position by 62.6 m for a 2e-7 deg change of input inclination
        inc = math.asin(math.sqrt(math.sin(math.radians(2.0)) ** 2))
        pos = [ephemeris_array(elements_to_cartesian(7000.0, 0.01, inc + math.radians(d),
                                                     0.3, 0.7, 1.1),
                               0.0, [3000.0], EARTH)[0, :3]
               for d in (-1e-7, 1e-7)]
        assert np.linalg.norm(pos[1] - pos[0]) < 1e-3

    @pytest.mark.parametrize("inc", [0.0, math.pi], ids=["prograde", "retrograde"])
    def test_equatorial_eccentric_conserves_n(self, inc):
        # the corrected Theta can fall below |N| on the equator; the Cartesian
        # map must still return the carried N, not Theta
        ts = np.linspace(0.0, 86400.0, 5)
        worst = 0.0
        for a, e in ((9000.0, 0.25), (14000.0, 0.5)):
            for ell in np.linspace(-3.0, 3.0, 7):
                for g in (0.0, 1.0):
                    cart = elements_to_cartesian(a, e, inc, ell, g, 0.3)
                    n0 = cart.x * cart.vy - cart.y * cart.vx
                    out = ephemeris_array(cart, 0.0, ts, EARTH)
                    n = out[:, 0] * out[:, 4] - out[:, 1] * out[:, 3]
                    worst = max(worst, float(np.max(np.abs(n - n0))) / abs(n0))
        assert worst < 1e-13

    def test_mean_theta_below_n_keeps_n(self):
        # near-equatorial state whose mean Theta falls below |N|: G must be
        # raised to |N| so that H = N stays the carried integral
        t0 = -54999.84456919045
        cart = CartesianState(-29917.50760288284, -1181.4926607214777, 14.91437742607696,
                              2.6668337209813124, -2.1972850221803615,
                              -0.0023788330217136616)
        n0 = cart.x * cart.vy - cart.y * cart.vx
        mean = osculating_to_mean(cart, EARTH).delaunay
        assert mean.H == n0
        assert mean.G >= abs(n0)
        out = ephemeris_array(cart, t0, [0.0, t0], EARTH)
        n = out[:, 0] * out[:, 4] - out[:, 1] * out[:, 3]
        assert np.max(np.abs(n - n0)) / abs(n0) < 1e-11

    # the inclination is log-uniform in 0.001-2 deg: the mean Theta falls
    # below |N| mostly under 0.05 deg, at e above about 0.08
    @settings(max_examples=60, deadline=None)
    @given(perigee_alt=st.floats(300.0, 2000.0), e=st.floats(0.0, 0.75),
           log_inc_deg=st.floats(-3.0, math.log10(2.0), exclude_max=True),
           retro=st.booleans(), ell=st.floats(-math.pi, math.pi),
           g=st.floats(-math.pi, math.pi), h=st.floats(-math.pi, math.pi),
           t0=st.floats(-86400.0, 0.0))
    def test_near_equatorial_keeps_n(self, perigee_alt, e, log_inc_deg, retro, ell, g, h, t0):
        inc_deg = 10.0 ** log_inc_deg
        inc = math.radians(180.0 - inc_deg if retro else inc_deg)
        cart = elements_to_cartesian((EARTH.alpha + perigee_alt) / (1.0 - e), e, inc,
                                     ell, g, h)
        n0 = cart.x * cart.vy - cart.y * cart.vx
        out = ephemeris_array(cart, t0, [0.0, t0], EARTH)
        n = out[:, 0] * out[:, 4] - out[:, 1] * out[:, 3]
        assert np.max(np.abs(n - n0)) / abs(n0) < 1e-11

    def test_low_inclination_geo_accuracy(self):
        # the low-inclination truncation missed this orbit by 37 m over a day
        cart = elements_to_cartesian(42164.0, 0.01, math.radians(1.99), 0.3, 0.7, 1.1)
        ts = np.arange(0.0, 86400.0 + 1.0, 60.0)
        ana = ephemeris_array(cart, 0.0, ts, EARTH)
        num = integrate_grid(cart, 0.0, ts, EARTH, tol=1e-12)
        assert np.max(np.linalg.norm(ana[:, :3] - num[:, :3], axis=1)) < 5e-3


class TestDegenerateOrbits:
    """Inclination/eccentricity corner cases through the full pipeline.

    With the odd zonal on, the dominant residual is the omitted
    second-order periodic class, O(J3) ~ O(J2^2) of the radius; the bounds
    below sit at that scale (verified to shrink linearly with J3).
    """

    def test_exact_circular_equatorial(self):
        from zonalprop import CartesianState
        Theta = math.sqrt(MU * 7000.0)
        r = Theta * Theta / MU
        cart = CartesianState(r, 0.0, 0.0, 0.0, Theta / r, 0.0)
        mean = osculating_to_mean(cart, EARTH)
        assert cart_distance(mean_to_osculating(mean.delaunay, EARTH), cart) < 0.05
        ts = np.linspace(0.0, 6000.0, 7)
        ana = ephemeris_array(cart, 0.0, ts, EARTH)
        num = integrate_grid(cart, 0.0, ts, EARTH, tol=1e-12)
        err = np.sqrt(np.sum((ana[:, :3] - num[:, :3]) ** 2, axis=1))
        assert err.max() < 0.15

    def test_retrograde_accuracy(self):
        cart = elements_to_cartesian(7200.0, 0.1, math.radians(150.0), 0.4, 0.9, 1.3)
        mean = osculating_to_mean(cart, EARTH)
        assert mean.retrograde
        T = orbital_period(mean.delaunay.L, EARTH)
        ts = np.linspace(0.0, T, 60)
        ana = ephemeris_array(cart, 0.0, ts, EARTH)
        num = integrate_grid(cart, 0.0, ts, EARTH, tol=1e-12)
        err = np.sqrt(np.sum((ana[:, :3] - num[:, :3]) ** 2, axis=1))
        assert np.sqrt(np.mean(err ** 2)) < 0.2

    def test_polar_orbit_accuracy(self):
        cart = elements_to_cartesian(7200.0, 0.1, math.radians(90.0), 0.4, 0.9, 1.3)
        mean = osculating_to_mean(cart, EARTH)
        T = orbital_period(mean.delaunay.L, EARTH)
        ts = np.linspace(0.0, T, 60)
        ana = ephemeris_array(cart, 0.0, ts, EARTH)
        num = integrate_grid(cart, 0.0, ts, EARTH, tol=1e-12)
        err = np.sqrt(np.sum((ana[:, :3] - num[:, :3]) ** 2, axis=1))
        # the odd-zonal short-period terms peak at sin(I) = 1
        assert np.sqrt(np.mean(err ** 2)) < 0.6
        # with the odd zonal off only the J2^2 class remains
        f2 = EARTH.restricted("j2")
        ana = ephemeris_array(cart, 0.0, ts, f2)
        num = integrate_grid(cart, 0.0, ts, f2, tol=1e-12)
        err = np.sqrt(np.sum((ana[:, :3] - num[:, :3]) ** 2, axis=1))
        assert np.sqrt(np.mean(err ** 2)) < 0.05

    def test_high_eccentricity_stays_first_order(self):
        # corrections remain exact to first order for large e (no expansion
        # in eccentricity anywhere): quartering J2 must cut the one-period
        # error by ~16x even at e = 0.85
        cart = elements_to_cartesian(26000.0, 0.85, math.radians(40.0), 0.4, 0.9, 1.3)
        mean = osculating_to_mean(cart, EARTH)
        T = orbital_period(mean.delaunay.L, EARTH)
        ts = np.linspace(0.0, T, 120)
        errs = []
        for lam in (1.0, 0.25):
            f = EARTH.scaled(j2_factor=lam, j3_factor=0.0)
            ana = ephemeris_array(cart, 0.0, ts, f)
            num = integrate_grid(cart, 0.0, ts, f, tol=1e-12)
            errs.append(float(np.sqrt(np.mean(
                np.sum((ana[:, :3] - num[:, :3]) ** 2, axis=1)))))
        assert errs[0] / errs[1] == pytest.approx(16.0, rel=0.15)
