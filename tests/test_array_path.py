"""The blocked NumPy evaluation of the kernels against the float evaluation.

Grids of ``ARRAY_MIN_EPOCHS`` epochs or more run through the kernels on
arrays; the reference is the same grid asked for one epoch at a time, which
runs the kernels on floats.  The two differ only by the last-bit rounding
of NumPy's ufuncs and the half-angle ``sincos`` and ``esincos`` against
``math``; the tolerances below are fixed before measuring and sit far above
that.
"""

import collections
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zonalprop import (EARTH, CartesianState, PropagatorConfig, ZonalPropError, _kernels,
                       ephemeris_array)
from zonalprop.propagator import _checked_grid, _mean_state, ephemeris_blocks
from conftest import elements_to_cartesian

POS_TOL_KM = 1e-9
VEL_TOL_KM_S = 1e-12
RE = EARTH.alpha
GEO_A = 42164.0

#: the six orbits of the benchmark's orbit-set-dense workload
#: (a, e, inclination, mean anomaly, argument of perigee, node; angles in deg)
ORBITS = {
    "sso": (RE + 700.0, 0.001, 98.2, 50.0, 40.0, 30.0),
    "gto": (0.5 * (RE + 250.0 + GEO_A), (GEO_A - RE - 250.0) / (GEO_A + RE + 250.0),
            27.0, 10.0, 178.0, 60.0),
    "geo": (GEO_A, 2e-4, 0.05, 100.0, 20.0, 75.0),
    "near-eq": (RE + 600.0, 0.01, 1.0, 200.0, 80.0, 120.0),
    "retro": (RE + 900.0, 0.02, 140.0, 30.0, 300.0, 200.0),
}
LEO_STATE = CartesianState(-2862.029705903647, 5299.0314424744465, 2860.3560741894516,
                           -6.269006983824957, -4.356570481122381, 2.0847319694826436)


def _cart(a, e, inc_deg, ell_deg, g_deg, h_deg):
    rad = math.radians
    return elements_to_cartesian(a, e, rad(inc_deg), rad(ell_deg), rad(g_deg), rad(h_deg))


def _grid(n=3 * _kernels.ARRAY_MIN_EPOCHS, step=173.0):
    return step * np.arange(n)


def _epoch_by_epoch(cart, t0, ts, config=PropagatorConfig()):
    """Reference: every epoch on its own, which runs the kernels on floats."""
    rows = [ephemeris_array(cart, t0, [t], EARTH, config)[0] for t in ts]
    return np.array(rows).reshape(-1, 6)


def _assert_agree(cart, t0, ts, config=PropagatorConfig()):
    assert len(ts) >= _kernels.ARRAY_MIN_EPOCHS
    batch = ephemeris_array(cart, t0, ts, EARTH, config)
    ref = _epoch_by_epoch(cart, t0, ts, config)
    assert np.all(np.isfinite(batch))
    assert np.max(np.abs(batch[:, :3] - ref[:, :3])) <= POS_TOL_KM
    assert np.max(np.abs(batch[:, 3:] - ref[:, 3:])) <= VEL_TOL_KM_S


@pytest.mark.parametrize("name", sorted(ORBITS) + ["leo"])
def test_benchmark_orbits(name):
    cart = LEO_STATE if name == "leo" else _cart(*ORBITS[name])
    _assert_agree(cart, 0.0, _grid())


@pytest.mark.parametrize("cos_i", [1.0, 0.5, -1.0])
def test_exactly_circular_and_equatorial(cos_i):
    """e = 0 exactly, at i = 0, 60 and 180 deg exactly."""
    Theta = math.sqrt(EARTH.mu * 7000.0)
    r = Theta * Theta / EARTH.mu
    v = Theta / r
    cart = CartesianState(r, 0.0, 0.0, 0.0, cos_i * v, math.sqrt(1.0 - cos_i * cos_i) * v)
    _assert_agree(cart, 0.0, _grid())


@pytest.mark.parametrize("H_sign", [1.0, -1.0, 0.5])
def test_exact_mean_states_through_the_kernel(H_sign):
    """e = 0 exactly (G = L), and i = 0 or 180 deg exactly (H = +-G)."""
    L = math.sqrt(EARTH.mu * 7000.0)
    G = L
    H = H_sign * G
    ell = np.linspace(-math.pi, math.pi, 50)
    g = 0.3 + 0.01 * ell
    h = 1.1 - 0.02 * ell
    args = (L, G, H, EARTH.mu, EARTH.alpha, EARTH.c20, EARTH.c30, True)
    batch = np.array(_kernels.reconstruct_and_correct(ell, g, h, *args)).T
    ref = np.array([_kernels.reconstruct_and_correct(a, b, c, *args)
                    for a, b, c in zip(ell.tolist(), g.tolist(), h.tolist())])
    assert np.max(np.abs(batch[:, :3] - ref[:, :3])) <= POS_TOL_KM
    assert np.max(np.abs(batch[:, 3:] - ref[:, 3:])) <= VEL_TOL_KM_S


def test_high_eccentricity():
    cart = _cart(150000.0, 0.95, 50.0, 5.0, 30.0, 40.0)
    _assert_agree(cart, 0.0, _grid(step=997.0))


#: eccentricities up to the largest double below 1
KEPLER_ECCENTRICITIES = [0.0, 1e-3, 0.5, 0.99, 0.999, 1.0 - 1e-9, 1.0 - 2.0 ** -53]


def _kepler_grid():
    """Mean anomalies in [0, 3 pi) and their negatives: a dense sweep, a log
    sweep of small values (where e -> 1 makes Kepler's equation cubic), and
    0, pi, 1e-300 and values beyond 2 pi."""
    half = np.concatenate([np.linspace(0.0, 3.0 * math.pi, 6001, endpoint=False),
                           np.logspace(-300.0, 0.0, 601),
                           [0.0, math.pi, 1e-300, 2.0 * math.pi + 0.5, 10.0, 100.0]])
    return np.concatenate([half, -half])


def _assert_kepler_roots(ell, u, ref, e):
    """Residual below KEPLER_TOL on the array roots u and the float roots
    ref, and the two within KEPLER_TOL of each other scaled by the slope
    1 - e cos u of Kepler's equation: each path's Halley steps read its own
    e sin u (a half-angle tangent on arrays, ``math.sin`` on floats), so the
    roots part by about a rounding of the residual over that slope, which
    grows as e -> 1 and u -> 0."""
    a = _kernels.wrap_pi(ell)
    assert np.max(np.abs(u - e * np.sin(u) - a)) < _kernels.KEPLER_TOL, e
    assert np.max(np.abs(ref - e * np.sin(ref) - a)) < _kernels.KEPLER_TOL, e
    assert np.max(np.abs(u - ref) * (1.0 - e * np.cos(u))) <= _kernels.KEPLER_TOL, e


@pytest.mark.parametrize("e", KEPLER_ECCENTRICITIES)
def test_kepler_solver_converges_on_both_paths(e):
    ell = _kepler_grid()
    u = _kernels.kepler_u(ell, e)
    ref = np.array([_kernels.kepler_u(x, e) for x in ell.tolist()])
    _assert_kepler_roots(ell, u, ref, e)


@pytest.mark.parametrize("e", KEPLER_ECCENTRICITIES)
def test_kepler_solver_is_odd(e):
    """u(-ell) = -u(ell), except on the branch cut: ell = +-pi both give +pi."""
    ell = _kepler_grid()
    u_pos = _kernels.kepler_u(ell, e)
    u_neg = _kernels.kepler_u(-ell, e)
    cut = _kernels.wrap_pi(ell) == math.pi
    assert np.all(u_neg[~cut] == -u_pos[~cut])
    assert cut.any() and np.all(u_pos[cut] == math.pi) and np.all(u_neg[cut] == math.pi)
    assert _kernels.kepler_u(-math.pi, e) == _kernels.kepler_u(math.pi, e) == math.pi


def _kepler_sweep_anomalies():
    """10**4 mean anomalies: 2500 evenly spaced on [0, pi], 2500 log-spaced
    from 1e-300 to pi (the slowest lanes as e -> 1 sit at small |ell|), and
    the negatives of both."""
    half = np.concatenate([np.linspace(0.0, math.pi, 2500),
                           np.logspace(-300.0, math.log10(math.pi), 2500)])
    return np.concatenate([half, -half])


def _assert_kepler_converges(ell, e, float_stride):
    u = _kernels.kepler_u(ell, e)
    res = np.abs(u - e * np.sin(u) - _kernels.wrap_pi(ell))
    assert np.max(res) < _kernels.KEPLER_TOL, e
    sub = ell[::float_stride]
    ref = np.array([_kernels.kepler_u(x, e) for x in sub.tolist()])
    _assert_kepler_roots(sub, u[::float_stride], ref, e)


def test_kepler_step_table_edges():
    """Every edge of the step table and its nextafter neighbours (the last
    step count of a band and the first of the next): residual below
    KEPLER_TOL on both paths, and the float and array roots within
    KEPLER_TOL of each other scaled by the slope, on all 10**4 anomalies."""
    ell = _kepler_sweep_anomalies()
    edges = np.array(_kernels.KEPLER_ECC)
    eccs = np.concatenate([edges, np.nextafter(edges, 0.0), np.nextafter(edges, 1.0)])
    assert len(_kernels.KEPLER_STEPS) == len(edges) + 1
    assert np.all(np.diff(_kernels.KEPLER_STEPS) > 0) and np.all(np.diff(edges) > 0)
    for e in eccs.tolist():
        _assert_kepler_converges(ell, e, 1)


def test_kepler_sweep_toward_one():
    """200 e log-spaced in 1 - e from 1 to 2**-53 (e = 0 to the largest
    double below 1): residual below KEPLER_TOL on all 10**4 anomalies, and
    on both paths with the roots compared scaled by the slope on every 20th
    one (the float solves take 1-11 us)."""
    ell = _kepler_sweep_anomalies()
    eccs = 1.0 - np.logspace(0.0, -53.0 * math.log10(2.0), 200)
    assert eccs[0] == 0.0 and eccs[-1] == 1.0 - 2.0 ** -53 and np.all(eccs < 1.0)
    for e in eccs.tolist():
        _assert_kepler_converges(ell, e, 20)


def test_kepler_sin_budget_at_high_eccentricity(numpy_passes):
    """At e = 0.999 a solve takes the step table's 6 Halley steps, one
    tangent each, and no sine, for the start, the steps or to confirm the
    root."""
    ell = numpy_passes.array(np.linspace(-math.pi, math.pi, 240001))
    u = _kernels.kepler_u(ell, 0.999)
    assert (numpy_passes.by_name["sin"], numpy_passes.by_name["tan"]) == (0, 6)
    assert np.max(np.abs(u - 0.999 * np.sin(u) - _kernels.wrap_pi(ell))) < _kernels.KEPLER_TOL


def test_kepler_calls_libm_once_per_step(monkeypatch, numpy_passes):
    """At e = 0.7281 (the benchmark's eccentric orbit): three Halley steps,
    one tangent each, and no sine or cosine (the step before took one
    ``np.sin``, which NumPy runs on scalar libm, and one square root; the
    clamped loop before that 5 sines, Newton 7 sines and 5 cosines).  A
    float solve at e = 0.0015 (the benchmark's SSO) makes one counted sine
    and one counted cosine, the single step's."""
    ell = numpy_passes.array(np.linspace(-math.pi, math.pi, 240001))
    u = _kernels.kepler_u(ell, 0.7281)
    calls = numpy_passes.by_name
    assert (calls["sin"], calls["cos"], calls["tan"], calls["sqrt"]) == (0, 0, 3, 0)
    assert np.max(np.abs(u - 0.7281 * np.sin(u) - _kernels.wrap_pi(ell))) < _kernels.KEPLER_TOL

    floats = collections.Counter()

    def counted(name, fn):
        def wrapped(x):
            floats[name] += 1
            return fn(x)
        return wrapped

    for name in ("sin", "cos", "sqrt"):
        monkeypatch.setattr(_kernels, name, counted(name, getattr(math, name)))
    _kernels.kepler_u(0.7, 0.0015)
    assert (floats["sin"], floats["cos"], floats["sqrt"]) == (1, 1, 0)


def test_every_formulation():
    """The pipeline has one formulation, the default configuration's."""
    cart = _cart(7400.0, 0.2, 45.0, 70.0, 50.0, 80.0)
    _assert_agree(cart, 0.0, _grid(), PropagatorConfig())


@pytest.mark.parametrize("off", ["long_period"])
def test_each_stage_switched_off(off):
    cart = _cart(7400.0, 0.2, 45.0, 70.0, 50.0, 80.0)
    _assert_agree(cart, 0.0, _grid(), PropagatorConfig(**{off: False}))


def test_empty_grid():
    out = ephemeris_array(LEO_STATE, 0.0, [], EARTH)
    assert out.shape == (0, 6)


def test_grid_order_independence_across_blocks():
    n = 2 * _kernels.EPOCH_BLOCK + 37
    ts = np.linspace(-3000.0, 86400.0, n)
    perm = np.random.default_rng(5).permutation(n)
    a = ephemeris_array(LEO_STATE, 0.0, ts, EARTH)
    b = ephemeris_array(LEO_STATE, 0.0, ts[perm], EARTH)
    assert np.array_equal(a[perm], b)
    # the rows on both sides of a block boundary are, bit for bit, those of
    # a grid of one block: array path against array path
    edges = _kernels.block_edges(n)
    assert len(edges) > 2
    cut = edges[1]
    edge = slice(cut - _kernels.ARRAY_MIN_EPOCHS, cut + _kernels.ARRAY_MIN_EPOCHS)
    assert np.array_equal(a[edge], ephemeris_array(LEO_STATE, 0.0, ts[edge], EARTH))
    # ten epochs are fewer than ARRAY_MIN_EPOCHS and run on floats
    few = slice(cut - 5, cut + 5)
    c = ephemeris_array(LEO_STATE, 0.0, ts[few], EARTH)
    assert np.max(np.abs(a[few, :3] - c[:, :3])) <= POS_TOL_KM
    assert np.max(np.abs(a[few, 3:] - c[:, 3:])) <= VEL_TOL_KM_S


#: grid sizes on both sides of the float/array switch and of the block counts
STREAM_SIZES = (1, 31, 32, 33, 4097, 6143, 6144, 8193, 12287, 12288)


@pytest.mark.parametrize("n", STREAM_SIZES)
def test_blocks_stream_the_array_rows(n):
    ts = np.linspace(-600.0, 86400.0, n)
    whole = ephemeris_array(LEO_STATE, 30.0, ts, EARTH)
    blocks = [(t, states.copy()) for t, states in ephemeris_blocks(LEO_STATE, 30.0, ts, EARTH)]
    assert [len(t) for t, _ in blocks] == np.diff(_kernels.block_edges(n)).tolist()
    assert np.array_equal(np.concatenate([t for t, _ in blocks]), ts)
    assert np.array_equal(np.concatenate([s for _, s in blocks]), whole)


def test_blocks_reuse_one_buffer():
    ts = np.arange(3 * _kernels.EPOCH_BLOCK, dtype=float)
    buffers = {states.__array_interface__["data"][0]
               for _, states in ephemeris_blocks(LEO_STATE, 0.0, ts, EARTH)}
    assert len(buffers) == 1


@pytest.mark.parametrize("cart, ts", [(LEO_STATE, [0.0, math.nan]),
                                      (CartesianState(7000.0, 0.0, 0.0, 0.0, 12.0, 0.0), [0.0])],
                         ids=["non-finite grid", "hyperbolic state"])
def test_blocks_check_when_called(cart, ts):
    # the CLI relies on this to create no file for a rejected run
    with pytest.raises(ZonalPropError):
        ephemeris_blocks(cart, 0.0, ts, EARTH)


@pytest.mark.parametrize("n, blocks", [(_kernels.ARRAY_MIN_EPOCHS, 1), (6143, 1), (12287, 1),
                                       (12289, 2), (17281, 2), (86401, 11)])
def test_block_count(n, blocks):
    assert len(_kernels.block_edges(n)) == blocks + 1


def test_blocks_are_near_equal_and_bounded():
    for n in range(_kernels.ARRAY_MIN_EPOCHS, 20 * _kernels.EPOCH_BLOCK, 7):
        edges = _kernels.block_edges(n)
        sizes = np.diff(edges)
        assert edges[0] == 0 and edges[-1] == n
        assert sizes.max() - sizes.min() <= 1
        assert sizes.max() <= 1.5 * _kernels.EPOCH_BLOCK


#: NumPy passes, ``np.sin`` and ``np.tan`` calls of one 8640-epoch block
#: (one day at 10 s) of each benchmark orbit, counted by the ``numpy_passes``
#: fixture.  The passes are this code's own counts (a Halley step with an
#: ``np.sin`` took 364, 362, 362, 381, 383 and 400, the clamped Kepler loop
#: before it 389, 387, 387, 411, 413 and 435); the Kepler steps make most of
#: the spread, and the psi* chart's two sign flips the rest.  No pass is a
#: sine, since NumPy's float64 sin runs on scalar libm.  The tangents are one
#: per Halley step, at mean e 0.0015 (sso), 2e-4 (geo), 0.011 (near-eq),
#: 0.049 (leo), 0.020 (retro) and 0.728 (gto), and three for the sin/cos
#: pairs of the anomalies, the latitude and the Cartesian map
BLOCK_PASSES = {"sso": 360, "geo": 358, "near-eq": 358, "leo": 376, "retro": 378, "gto": 394}
BLOCK_SINES = {"sso": 0, "geo": 0, "near-eq": 0, "leo": 0, "retro": 0, "gto": 0}
BLOCK_TANS = {"sso": 4, "geo": 4, "near-eq": 4, "leo": 5, "retro": 5, "gto": 6}
#: the passes of BLOCK_PASSES that allocate their result, this code's own
#: counts: the kernels update their own temporaries in place (every pass
#: allocated before, 381 of 381 on leo).  Each Halley step allocates 4, and
#: each half-angle sin/cos pair 2 (130, 130, 130, 136, 136 and 142 before)
BLOCK_ALLOCATING = {"sso": 125, "geo": 125, "near-eq": 125, "leo": 129, "retro": 129, "gto": 133}


def test_dense_grid_budget(monkeypatch, numpy_passes):
    """One day at 5 s, the benchmark's dense grid: two balanced blocks, and
    the short-period stage takes eta and phi without the hypot and atan2 of
    the circular split.  One block of each benchmark orbit stays within its
    pass, sine and tangent budget, and gives the rows ``ephemeris_array``
    gives."""
    blocks = collections.Counter()
    reconstruct = _kernels.reconstruct_and_correct

    def counted(*args):
        blocks["calls"] += 1
        return reconstruct(*args)

    monkeypatch.setattr(_kernels, "reconstruct_and_correct", counted)

    def counted_batch(cart, ts):
        grid, span = _checked_grid(0.0, ts)
        args, _ = _mean_state(cart, EARTH, PropagatorConfig(), span)
        rows = np.empty((grid.size, 6))
        numpy_passes.clear()
        _kernels.ephemeris_batch(numpy_passes.array(grid), 0.0, *args, rows)
        return rows

    ts = np.arange(0.0, 86400.0 + 5.0, 5.0)
    assert ts.size == 17281
    assert np.all(np.isfinite(counted_batch(LEO_STATE, ts)))
    assert blocks["calls"] == 2
    assert numpy_passes.by_name["hypot"] == 0
    # one atan2 for f in delaunay_orbit, one for f - u in center_terms
    assert numpy_passes.by_name["arctan2"] == 2 * blocks["calls"]
    block = 10.0 * np.arange(8640)
    carts = {name: LEO_STATE if name == "leo" else _cart(*ORBITS[name]) for name in BLOCK_PASSES}
    rows = {}
    for name, cart in sorted(carts.items()):
        rows[name] = counted_batch(cart, block)
        assert numpy_passes.total <= BLOCK_PASSES[name], name
        assert numpy_passes.allocated <= BLOCK_ALLOCATING[name], name
        assert numpy_passes.by_name["sin"] <= BLOCK_SINES[name], name
        assert numpy_passes.by_name["tan"] <= BLOCK_TANS[name], name
    monkeypatch.undo()
    for name, cart in carts.items():
        assert np.array_equal(rows[name], ephemeris_array(cart, 0.0, block, EARTH)), name


def _read_only(x):
    x = np.array(x, dtype=float)
    x.flags.writeable = False
    return x


def test_kernels_write_into_no_argument():
    """Every forward kernel on read-only arrays (the grid and the states it
    is handed): a write into an argument would raise.  The kernels update
    only the arrays they allocate themselves."""
    n = _kernels.ARRAY_MIN_EPOCHS + 5
    mu, alpha, c20, c30 = EARTH.mu, EARTH.alpha, EARTH.c20, EARTH.c30
    L = math.sqrt(mu * 7000.0)
    G = L * math.sqrt(1.0 - 0.05 ** 2)
    ell = _read_only(np.linspace(-7.0, 7.0, n))
    _kernels.wrap_pi(ell)
    _kernels.mean_angles(0.1, 0.2, 0.3, 1e-3, 1e-6, -2e-6, ell)
    for e in (0.0, 0.05, 0.9):
        _kernels.kepler_u(ell, e)
    _kernels._NUMPY.sincos(ell)
    r, R, f = (_read_only(v) for v in _kernels.delaunay_orbit(ell, L, G, mu))
    xi, chi = (_read_only(0.6 * v) for v in _kernels._NUMPY.sincos(f))
    Theta = _read_only(G * (1.0 + 1e-4 * np.cos(ell)))
    kappa = _read_only(0.05 * np.cos(f))
    sigma = _read_only(0.05 * np.sin(f))
    _kernels.center_terms(kappa, sigma)
    _kernels.anomaly_block(kappa, sigma)
    _kernels.small_params(Theta, mu, alpha, c20, c30)
    _kernels.p_coefficients(kappa, sigma, _kernels.q_polynomials(0.8))
    _kernels.rotation_factors(xi, chi, 0.8)
    for Th in (G, Theta):
        for N in (0.8 * G, -0.8 * G):
            _kernels.short_ns(xi, chi, r, R, Th, N, mu, alpha, c20)
            _kernels.long_ns(xi, chi, r, R, Th, N, mu, alpha, c20, c30)
            _kernels.ns_to_cart(f, xi, chi, r, R, Th, N)
    for H in (0.8 * G, -0.8 * G):
        for with_long in (True, False):
            _kernels.reconstruct_and_correct(ell, ell, ell, L, G, H, mu, alpha, c20, c30,
                                             with_long)
    grid = _read_only(173.0 * np.arange(n))
    ephemeris_array(LEO_STATE, 0.0, grid, EARTH)
    for _ in ephemeris_blocks(LEO_STATE, 0.0, grid, EARTH):
        pass


def _sincos_sweep(n):
    """n seeded points in [-3 pi, 3 pi], the multiples k pi/2 (|k| <= 6) with
    their nextafter neighbours, and +-0."""
    grid = 0.5 * math.pi * np.arange(-6.0, 7.0)
    edges = np.concatenate([grid, np.nextafter(grid, np.inf), np.nextafter(grid, -np.inf),
                            [0.0, -0.0]])
    return np.concatenate([np.random.default_rng(17).uniform(-3.0 * math.pi, 3.0 * math.pi, n),
                           edges])


#: eccentricities of the ``esincos`` checks: 0, the benchmark's, and up to
#: the largest double below 1
ESINCOS_ECCENTRICITIES = [0.0, 0.0015, 0.7281, 0.999, 1.0 - 2.0 ** -53]


def _assert_close_odd_and_even(x, pair, ref_s, ref_c, zero_c, c_scale=1.0):
    s, c = pair(x)
    assert np.max(np.abs(s - ref_s)) <= 4.5e-16
    assert np.max(np.abs(c - ref_c)) <= 4.5e-16 * c_scale
    s_neg, c_neg = pair(-x)
    assert np.array_equal(s_neg, -s) and np.array_equal(np.signbit(s_neg), ~np.signbit(s))
    assert np.array_equal(c_neg, c) and np.array_equal(np.signbit(c_neg), np.signbit(c))
    s0, c0 = pair(np.array([0.0, -0.0]))
    assert np.array_equal(s0, [0.0, 0.0]) and np.array_equal(np.signbit(s0), [False, True])
    assert np.max(np.abs(c0 - zero_c)) <= 4.5e-16


def test_sincos_array_form_is_close_odd_and_even():
    x = _sincos_sweep(10 ** 6)
    _assert_close_odd_and_even(x, _kernels._NUMPY.sincos, np.sin(x), np.cos(x), 1.0)
    assert np.array_equal(_kernels._NUMPY.sincos(np.array([0.0, -0.0]))[1], [1.0, 1.0])
    # e cos x - 1 reaches -(1 + e), so its bound scales by 1 + e: the
    # rounding of 1 + e and of 2e / (1 + t^2) near |q| = e is an ulp of 2,
    # not of 1 (5.6e-16 at e = 0.999, near x = -5.32)
    for e in ESINCOS_ECCENTRICITIES:
        _assert_close_odd_and_even(x, lambda v: _kernels._NUMPY.esincos(v, e),
                                   e * np.sin(x), e * np.cos(x) - 1.0, e - 1.0, 1.0 + e)


def test_sincos_float_form_is_math():
    for x in _sincos_sweep(20000).tolist():
        s, c = _kernels.sincos(x)
        assert (s, c) == (math.sin(x), math.cos(x))
        assert math.copysign(1.0, s) == math.copysign(1.0, math.sin(x))
        for e in ESINCOS_ECCENTRICITIES:
            es, ec = _kernels.esincos(x, e)
            assert (es, ec) == (e * math.sin(x), e * math.cos(x) - 1.0)
            assert math.copysign(1.0, es) == math.copysign(1.0, e * math.sin(x))


def test_kepler_residuals_on_array_input():
    """Acceptance criterion 12's bound, with all mean anomalies in one array."""
    ell = np.linspace(0.0, 2.0 * math.pi, 40, endpoint=False)
    ell_w = np.arctan2(np.sin(ell), np.cos(ell))
    worst = 0.0
    for e in np.linspace(0.0, 0.99, 25):
        u = _kernels.kepler_u(ell, float(e))
        res = u - e * np.sin(u) - ell_w
        worst = max(worst, float(np.max(np.abs(np.arctan2(np.sin(res), np.cos(res))))))
    assert worst < 1e-14


@settings(max_examples=25, deadline=None)
@given(a=st.floats(6800.0, 30000.0), e=st.floats(0.0, 0.6),
       inc_deg=st.floats(0.0, 180.0).filter(lambda i: abs(1.0 - 5.0 * math.cos(
           math.radians(i)) ** 2) > 0.05),
       ell=st.floats(-180.0, 180.0), g=st.floats(-180.0, 180.0), h=st.floats(-180.0, 180.0),
       step=st.floats(1.0, 2000.0), t0=st.floats(-1e5, 1e5))
def test_batch_equals_epoch_by_epoch(a, e, inc_deg, ell, g, h, step, t0):
    cart = _cart(a, e, inc_deg, ell, g, h)
    _assert_agree(cart, t0, t0 + _grid(_kernels.ARRAY_MIN_EPOCHS + 7, step))
