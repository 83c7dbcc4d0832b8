"""The blocked NumPy evaluation of the kernels against the float evaluation.

Grids of ``ARRAY_MIN_EPOCHS`` epochs or more run through the kernels on
arrays; the reference is the same grid asked for one epoch at a time, which
runs the kernels on floats.  The two differ only by the last-bit rounding
of NumPy's ufuncs and the half-angle ``sincos`` against ``math``; the
tolerances below are fixed before measuring and sit far above that.
"""

import collections
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zonalprop import (EARTH, CartesianState, PropagatorConfig, ZonalPropError, _kernels,
                       ephemeris_array)
from zonalprop.propagator import ephemeris_blocks
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
    args = (L, G, H, EARTH.mu, EARTH.alpha, EARTH.c20, EARTH.c30, True, True)
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


@pytest.mark.parametrize("e", KEPLER_ECCENTRICITIES)
def test_kepler_solver_converges_on_both_paths(e):
    ell = _kepler_grid()
    u = _kernels.kepler_u(ell, e)
    assert np.max(np.abs(u - e * np.sin(u) - _kernels.wrap_pi(ell))) < _kernels.KEPLER_TOL
    ref = np.array([_kernels.kepler_u(x, e) for x in ell.tolist()])
    assert np.array_equal(u.view(np.int64), ref.view(np.int64))


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


def test_kepler_sin_budget_at_high_eccentricity(monkeypatch):
    """One Newton loop at e = 0.999: one sine for the start and one per step."""
    calls = collections.Counter()
    sin = _kernels._NUMPY.sin

    def counted(x):
        calls["sin"] += 1
        return sin(x)

    monkeypatch.setattr(_kernels._NUMPY, "sin", counted)
    ell = np.linspace(-math.pi, math.pi, 240001)
    u = _kernels.kepler_u(ell, 0.999)
    assert np.max(np.abs(u - 0.999 * sin(u) - _kernels.wrap_pi(ell))) < _kernels.KEPLER_TOL
    assert calls["sin"] <= 15


def test_kepler_calls_libm_once_per_step(monkeypatch):
    """At e = 0.7281 (the benchmark's eccentric orbit): no cosine, the start
    and one sine per step.  Newton took 7 sines and 5 cosines here."""
    calls = collections.Counter()

    def counted(name, fn):
        def wrapped(x):
            calls[name] += 1
            return fn(x)
        return wrapped

    for name in ("sin", "cos"):
        monkeypatch.setattr(_kernels._NUMPY, name, counted(name, getattr(np, name)))
    ell = np.linspace(-math.pi, math.pi, 240001)
    u = _kernels.kepler_u(ell, 0.7281)
    assert np.max(np.abs(u - 0.7281 * np.sin(u) - _kernels.wrap_pi(ell))) < _kernels.KEPLER_TOL
    assert calls["cos"] == 0
    assert calls["sin"] <= 5


def test_every_formulation():
    """The pipeline has one formulation, the default configuration's."""
    cart = _cart(7400.0, 0.2, 45.0, 70.0, 50.0, 80.0)
    _assert_agree(cart, 0.0, _grid(), PropagatorConfig())


@pytest.mark.parametrize("off", ["long_period", "short_period", "secular"])
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


def test_dense_grid_budget(monkeypatch):
    """One day at 5 s, the benchmark's dense grid: two balanced blocks, and
    the short-period stage takes eta and phi without the hypot and atan2 of
    the circular split."""
    calls = collections.Counter()

    def counted(name, fn):
        def wrapped(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapped

    for name, fn in vars(_kernels._NUMPY).items():
        monkeypatch.setattr(_kernels._NUMPY, name, counted(name, fn))
    monkeypatch.setattr(_kernels, "reconstruct_and_correct",
                        counted("blocks", _kernels.reconstruct_and_correct))
    ts = np.arange(0.0, 86400.0 + 5.0, 5.0)
    assert ts.size == 17281
    out = ephemeris_array(LEO_STATE, 0.0, ts, EARTH)
    assert np.all(np.isfinite(out))
    assert calls["blocks"] == 2
    assert calls["hypot"] == 0
    # one atan2 for f in delaunay_orbit, one for f - u in center_terms
    assert calls["atan2"] == 2 * calls["blocks"]


def _sincos_sweep(n):
    """n seeded points in [-3 pi, 3 pi], the multiples k pi/2 (|k| <= 6) with
    their nextafter neighbours, and +-0."""
    grid = 0.5 * math.pi * np.arange(-6.0, 7.0)
    edges = np.concatenate([grid, np.nextafter(grid, np.inf), np.nextafter(grid, -np.inf),
                            [0.0, -0.0]])
    return np.concatenate([np.random.default_rng(17).uniform(-3.0 * math.pi, 3.0 * math.pi, n),
                           edges])


def test_sincos_array_form_is_close_odd_and_even():
    x = _sincos_sweep(10 ** 6)
    s, c = _kernels._NUMPY.sincos(x)
    assert np.max(np.abs(s - np.sin(x))) <= 4.5e-16
    assert np.max(np.abs(c - np.cos(x))) <= 4.5e-16
    s_neg, c_neg = _kernels._NUMPY.sincos(-x)
    assert np.array_equal(s_neg, -s) and np.array_equal(np.signbit(s_neg), ~np.signbit(s))
    assert np.array_equal(c_neg, c) and np.array_equal(np.signbit(c_neg), np.signbit(c))
    assert np.array_equal(np.signbit(_kernels._NUMPY.sincos(np.array([0.0, -0.0]))[0]),
                          [False, True])


def test_sincos_float_form_is_math():
    for x in _sincos_sweep(20000).tolist():
        s, c = _kernels.sincos(x)
        assert (s, c) == (math.sin(x), math.cos(x))
        assert math.copysign(1.0, s) == math.copysign(1.0, math.sin(x))


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
