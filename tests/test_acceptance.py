"""Acceptance suite: every criterion runs at its stated tolerance and prints
one PASS/FAIL line (run with ``pytest tests/test_acceptance.py -v -s``)."""

import math
import random
import time

import numpy as np

from zonalprop import (EARTH, CriticalInclinationError, DelaunayState, NonsingularState,
                       cartesian_to_nonsingular, mean_to_osculating,
                       _kernels, nonsingular_to_cartesian, osculating_to_mean,
                       secular_rates)
from zonalprop.benchmark import format_report, run_benchmark
from zonalprop.oracle import integrate_grid
from zonalprop.propagator import ephemeris_array
from zonalprop.secular import orbital_period
from conftest import (angle_diff, cart_distance, elements_to_cartesian, elements_to_polar,
                      field_small_params, loglog_slope, random_polar_states)
from exact_brackets import POLAR, brackets, generating_function, worst_gap
from reference_forms import (delaunay_to_polar, long_corrections_low_inclination,
                             long_corrections_nonsingular, polar_to_delaunay, polar_to_nonsingular,
                             short_corrections_low_inclination, short_corrections_nonsingular,
                             u1_delaunay, v1, x1_delaunay, y1)

MU = EARTH.mu
LEO = dict(a=7000.0, e=0.05, inc=math.radians(30.0))
#: largest kernel-minus-bracket gap, relative to the largest delta
EXACT_TOL = 1e-40


def _report(num, name, failures):
    status = "PASS" if not failures else "FAIL"
    print(f"\nACCEPTANCE {num:>2} {name}: {status}", flush=True)
    assert not failures, f"criterion {num} ({name}): " + " | ".join(failures)


def _check(failures, cond, msg):
    if not cond:
        failures.append(msg)


def test_criterion_01_round_trips():
    failures = []
    rng = random.Random(1001)
    t0 = time.perf_counter()
    for _ in range(1000):
        a = rng.uniform(6800.0, 42000.0)
        e = rng.uniform(0.0, 0.9)
        inc = math.radians(rng.uniform(0.0, 180.0))
        ell, g, h = (rng.uniform(-math.pi, math.pi) for _ in range(3))
        L = math.sqrt(MU * a)
        G = L * math.sqrt(1.0 - e * e)
        d = DelaunayState(ell=ell, g=g, h=h, L=L, G=G, H=G * math.cos(inc))
        pn = delaunay_to_polar(d, MU)
        # polar-nodal <-> Delaunay
        d2 = polar_to_delaunay(pn, MU)
        _check(failures, abs(d2.L - d.L) / d.L < 1e-12, "L round trip")
        _check(failures, abs(d2.G - d.G) / d.G < 1e-12, "G round trip")
        _check(failures, abs(d2.H - d.H) / d.G < 1e-12, "H round trip")
        _check(failures, angle_diff(d2.ell + d2.g + d2.h, ell + g + h) < 1e-9,
               "angle round trip")
        # Cartesian <-> nonsingular (both charts)
        ns = polar_to_nonsingular(pn)
        cart = nonsingular_to_cartesian(ns)
        ns2 = cartesian_to_nonsingular(cart)
        _check(failures, ns2.retrograde == ns.retrograde, "chart flag")
        _check(failures, abs(ns2.r - ns.r) / ns.r < 1e-12, "r round trip")
        _check(failures, abs(ns2.Theta - ns.Theta) / ns.Theta < 1e-12, "Theta")
        _check(failures, abs(ns2.N - ns.N) / ns.Theta < 1e-12, "N")
        _check(failures, abs(ns2.xi - ns.xi) < 1e-12, "xi")
        _check(failures, abs(ns2.chi - ns.chi) < 1e-12, "chi")
        _check(failures, angle_diff(ns2.psi, ns.psi) < 1e-11, "psi")
        cart2 = nonsingular_to_cartesian(ns2)
        _check(failures, cart_distance(cart2, cart) / ns.r < 1e-12, "cartesian")
    elapsed = time.perf_counter() - t0
    _check(failures, elapsed < 5.0, f"runtime {elapsed:.2f}s >= 5s")
    _report(1, "state round trips", failures)


def _exact_check(failures, states):
    """Each stage's kernel against the exact chain-rule image of the
    brackets of v1 or y1."""
    for stage in ("short", "long"):
        gap = worst_gap(stage, states, EARTH)
        _check(failures, gap <= EXACT_TOL, f"{stage}: gap {float(gap):.2e} > {EXACT_TOL}")


def _seeded_states(rng, i_range_deg):
    """100 states over e in [0, 0.95] (both ends included) in one chart."""
    states = random_polar_states(98, rng, e_range=(0.0, 0.95), i_range_deg=i_range_deg)
    for e in (0.0, 0.95):
        states += random_polar_states(1, rng, e_range=(e, e), i_range_deg=i_range_deg)
    return states


def test_criterion_02_generating_function_oracle():
    # prograde chart: dpsi = dtheta + dnu
    failures = []
    t0 = time.perf_counter()
    _exact_check(failures, _seeded_states(random.Random(1002), (0.5, 89.5)))
    elapsed = time.perf_counter() - t0
    _check(failures, elapsed < 30.0, f"runtime {elapsed:.2f}s >= 30s")
    _report(2, "Poisson-bracket oracle", failures)


def test_criterion_03_cross_representation_identities():
    failures = []
    rng = random.Random(1003)
    for pn in random_polar_states(100, rng, e_range=(0.01, 0.8)):
        d = polar_to_delaunay(pn, MU)
        a, b = v1(pn, EARTH), u1_delaunay(d, EARTH)
        _check(failures, abs(a - b) <= 1e-12 * max(abs(a), abs(b)),
               f"U1 != V1 ({a} vs {b})")
        a, b = y1(pn, EARTH), x1_delaunay(d, EARTH)
        _check(failures, abs(a - b) <= 1e-12 * max(abs(a), abs(b), 1e-30),
               f"X1 != Y1 ({a} vs {b})")
    _report(3, "cross-representation identities", failures)


def test_criterion_04_chain_rule_consistency():
    # retrograde chart (dpsi* = dtheta - dnu), and orbits within 1e-6 rad of
    # either equator, where dtheta and dnu grow as 1/sin(I) but their image
    # in the nonsingular set does not
    failures = []
    states = (_seeded_states(random.Random(1004), (90.5, 179.5))
              + [elements_to_polar(7500.0, 0.3, inc, 0.4, 0.2, 0.1)
                 for inc in (1e-6, 1e-4, math.pi - 1e-4, math.pi - 1e-6)])
    _exact_check(failures, states)
    _report(4, "chain-rule consistency", failures)


def test_criterion_05_first_order_theory_quality():
    failures = []
    cart = elements_to_cartesian(LEO["a"], LEO["e"], LEO["inc"], 0.3, 0.7, 1.1)
    lams = (1.0, 0.5, 0.25, 0.125)
    errs = []
    t0 = time.perf_counter()
    for lam in lams:
        f = EARTH.scaled(j2_factor=lam, j3_factor=0.0)
        mean = osculating_to_mean(cart, f)
        T = orbital_period(mean.delaunay.L, f)
        ts = np.linspace(0.0, T, 120)
        ana = ephemeris_array(cart, 0.0, ts, f)
        num = integrate_grid(cart, 0.0, ts, f, tol=1e-12)
        errs.append(float(np.sqrt(np.mean(
            np.sum((ana[:, :3] - num[:, :3]) ** 2, axis=1)))))
    slope = loglog_slope(lams, errs)
    elapsed = time.perf_counter() - t0
    _check(failures, abs(slope - 2.0) <= 0.1, f"slope {slope:.3f} not 2.0 +/- 0.1")
    _check(failures, elapsed < 60.0, f"runtime {elapsed:.2f}s >= 60s")
    _report(5, "ephemeris error scales as J2^2", failures)


def test_criterion_06_inverse_composition_scaling():
    failures = []
    cart = elements_to_cartesian(LEO["a"], LEO["e"], LEO["inc"], 0.3, 0.7, 1.1)
    lams = (1.0, 0.5, 0.25, 0.125)
    errs = []
    for lam in lams:
        f = EARTH.scaled(j2_factor=lam, j3_factor=0.0)
        mean = osculating_to_mean(cart, f)
        back = mean_to_osculating(mean.delaunay, f)
        errs.append(cart_distance(back, cart))
    slope = loglog_slope(lams, errs)
    _check(failures, abs(slope - 2.0) <= 0.1, f"slope {slope:.3f} not 2.0 +/- 0.1")
    _report(6, "mean/osculating composition scales as eps2^2", failures)


def test_criterion_07_low_inclination_limits():
    failures = []
    # (a) full-vs-simplified differences scale as sin^2(I)
    for full_fn, low_fn, tag in (
            (short_corrections_nonsingular, short_corrections_low_inclination, "short"),
            (long_corrections_nonsingular, long_corrections_low_inclination, "long")):
        diffs = []
        incs = (4.0, 2.0, 1.0)
        for inc_deg in incs:
            rng = random.Random(1007)
            acc = 0.0
            for _ in range(20):
                pn = elements_to_polar(7200.0, rng.uniform(0.05, 0.4),
                                       math.radians(inc_deg),
                                       rng.uniform(-3.0, 3.0),
                                       rng.uniform(-3.0, 3.0),
                                       rng.uniform(-3.0, 3.0))
                ns = polar_to_nonsingular(pn)
                full = full_fn(ns, EARTH)
                low = low_fn(ns, EARTH)
                scales = (1.0, 1.0, 1.0, ns.r, ns.Theta / ns.r, ns.Theta)
                acc += max(abs(a - b) / s for a, b, s in zip(full, low, scales))
            diffs.append(acc / 20.0)
        slope = loglog_slope([math.sin(math.radians(i)) for i in incs], diffs)
        _check(failures, abs(slope - 2.0) <= 0.1,
               f"{tag} s^2 scaling slope {slope:.3f}")
    # (b) equatorial limiting values reproduced by the full nonsingular form
    # at s = 1e-8.  The surviving odd-zonal pair is {eps3*kappa, -eps3*sigma};
    # the chain-rule oracle (criterion 4) fixes its assignment to the
    # components as dxi -> +eps3*kappa, dchi -> -eps3*sigma.
    s = 1e-8
    p = 7100.0
    Theta = math.sqrt(MU * p)
    _, _, eps3 = field_small_params(Theta, EARTH)
    e = 0.2
    for f_true in (0.5, 2.0, -1.3):
        r = p / (1.0 + e * math.cos(f_true))
        R = (Theta / p) * e * math.sin(f_true)
        kappa = p / r - 1.0
        sigma = p * R / Theta
        ns = NonsingularState(psi=0.8, xi=s * math.sin(1.3), chi=s * math.cos(1.3),
                              r=r, R=R, Theta=Theta,
                              N=Theta * math.sqrt(1.0 - s * s))
        d = long_corrections_nonsingular(ns, EARTH)
        _check(failures, abs(d[1] - eps3 * kappa) <= 1e-6 * abs(eps3 * kappa),
               f"equatorial dxi {d[1]} != eps3*kappa {eps3 * kappa}")
        _check(failures, abs(d[2] + eps3 * sigma) <= 1e-6 * abs(eps3 * sigma),
               f"equatorial dchi {d[2]} != -eps3*sigma {-eps3 * sigma}")
    _report(7, "low-inclination limits", failures)


def test_criterion_08_exact_zeros():
    failures = []
    nu, N = POLAR[2], POLAR[5]
    for stage in ("short", "long"):
        # dN = -dV/dnu, identically zero
        _check(failures, nu not in generating_function(stage).free_symbols
               and brackets(stage)[N] == 0, f"{stage} dN != 0")
    ns = NonsingularState(psi=0.4, xi=0.0, chi=0.0, r=7050.0, R=0.3,
                          Theta=math.sqrt(MU * 7100.0),
                          N=math.sqrt(MU * 7100.0))
    d = short_corrections_nonsingular(ns, EARTH)
    _check(failures, d[1] == 0.0 and d[2] == 0.0, "equatorial dxi/dchi != 0")
    _report(8, "exact zeros", failures)


def test_criterion_09_secular_correctness():
    failures = []
    cart = elements_to_cartesian(LEO["a"], LEO["e"], LEO["inc"], 0.3, 0.7, 1.1)
    mean = osculating_to_mean(cart, EARTH)
    d = mean.delaunay
    rates = secular_rates(d.L, d.G, d.H, EARTH)
    T = orbital_period(d.L, EARTH)
    ts = np.linspace(0.0, 100.0 * T, 3000)
    traj = integrate_grid(cart, 0.0, ts, EARTH, tol=1e-11)
    # averaged drift: raw osculating angles for the node, whose periodic part
    # is small; for the perigee the odd-zonal long-period oscillation (period
    # >> the 100-orbit window) would bias a raw fit, so the oracle samples
    # are filtered to mean elements first (standard averaging practice)
    pos = traj[:, :3]
    vel = traj[:, 3:]
    hvec = np.cross(pos, vel)
    node = np.unwrap(np.arctan2(hvec[:, 0], -hvec[:, 1]))
    h_dot_num = float(np.polyfit(ts, node, 1)[0])
    g_series = np.empty(len(ts))
    h_series = np.empty(len(ts))
    from zonalprop import CartesianState
    for i, row in enumerate(traj):
        m = osculating_to_mean(CartesianState(*row), EARTH)
        g_series[i] = m.delaunay.g
        h_series[i] = m.delaunay.h
    g_dot_num = float(np.polyfit(ts, np.unwrap(g_series), 1)[0])
    h_dot_filtered = float(np.polyfit(ts, np.unwrap(h_series), 1)[0])
    _check(failures, abs(rates.h_dot - h_dot_num) <= 0.01 * abs(h_dot_num),
           f"node rate {rates.h_dot} vs averaged {h_dot_num}")
    _check(failures, abs(rates.h_dot - h_dot_filtered) <= 0.01 * abs(h_dot_filtered),
           f"node rate {rates.h_dot} vs filtered {h_dot_filtered}")
    _check(failures, abs(rates.g_dot - g_dot_num) <= 0.01 * abs(g_dot_num),
           f"perigee rate {rates.g_dot} vs averaged {g_dot_num}")
    # sign structure
    L, G = d.L, d.G
    _check(failures, secular_rates(L, G, G * math.cos(math.radians(50.0)),
                                   EARTH).h_dot < 0.0, "node sign i<90")
    _check(failures, secular_rates(L, G, G * math.cos(math.radians(130.0)),
                                   EARTH).h_dot > 0.0, "node sign i>90")
    _check(failures, secular_rates(L, G, G * math.cos(math.radians(60.0)),
                                   EARTH).g_dot > 0.0, "g sign below critical")
    _check(failures, secular_rates(L, G, G * math.cos(math.radians(66.0)),
                                   EARTH).g_dot < 0.0, "g sign above critical")
    _report(9, "secular rates vs numerically averaged drifts", failures)


def test_criterion_10_guard_behavior(tmp_path):
    failures = []
    from zonalprop.cli import main as cli_main
    for inc_deg in (63.435, 116.565):
        cart = elements_to_cartesian(7000.0, 0.05, math.radians(inc_deg),
                                     0.3, 0.7, 1.1)
        try:
            osculating_to_mean(cart, EARTH)
            _check(failures, False, f"no guard error at {inc_deg} deg")
        except CriticalInclinationError:
            pass
        cfg = tmp_path / f"crit_{inc_deg}.ini"
        cfg.write_text(f"""
[state]
x = {cart.x!r}
y = {cart.y!r}
z = {cart.z!r}
vx = {cart.vx!r}
vy = {cart.vy!r}
vz = {cart.vz!r}

[run]
duration = 60.0
step = 60.0
""")
        rc = cli_main(["propagate", "--config", str(cfg),
                       "--ephemeris", str(tmp_path / "x.csv")])
        _check(failures, rc == 2, f"CLI exit {rc} != 2 at {inc_deg} deg")
    _report(10, "critical-inclination guard", failures)


def test_criterion_11_benchmark(tmp_path):
    failures = []
    a, e, inc = 7100.0, 0.15, math.radians(40.0)
    L = math.sqrt(MU * a)
    G = L * math.sqrt(1.0 - e * e)
    d = DelaunayState(ell=0.7, g=0.4, h=1.0, L=L, G=G, H=G * math.cos(inc))
    report = run_benchmark(d, EARTH, iterations=200)
    _check(failures, report.nonsingular_trig < report.delaunay_trig,
           f"trig counts {report.nonsingular_trig} !< {report.delaunay_trig}")
    text = format_report(report)
    _check(failures, "seconds per evaluation" in text, "no wall-time section")
    out = tmp_path / "bench.txt"
    out.write_text(text)
    _check(failures, out.exists(), "report not written")
    _report(11, "benchmark call counts and timing", failures)


def test_criterion_12_kepler_residuals():
    failures = []
    worst = 0.0
    for e in np.linspace(0.0, 0.99, 25):
        for ell in np.linspace(0.0, 2.0 * math.pi, 40, endpoint=False):
            u = _kernels.kepler_u(ell, float(e))
            ell_w = math.atan2(math.sin(ell), math.cos(ell))
            res = u - e * math.sin(u) - ell_w
            res = abs(math.atan2(math.sin(res), math.cos(res)))
            worst = max(worst, res)
    _check(failures, worst < 1e-14, f"worst residual {worst}")
    _report(12, "Kepler solver residuals", failures)
