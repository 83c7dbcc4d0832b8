"""The single-state (float) path of ``ephemeris_array``.

A request for a few epochs runs from the Cartesian state to the output rows
on plain floats, without building the public dataclasses.  These tests pin
that it computes exactly what the public functions compose to, that it
raises what they raise, that it stays lean in Python calls, and two
symmetries of the theory it must keep.
"""

import importlib.util
import math
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from zonalprop import (EARTH, CartesianState, GravityField, NonEllipticStateError,
                       PropagatorConfig, _kernels, ephemeris_array, mean_to_osculating,
                       osculating_to_mean, propagate_mean, propagator, secular_rates)
from test_array_path import LEO_STATE
from conftest import elements_to_cartesian

WORKLOADS = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"

#: most Python-level calls one single-epoch request may make (sys.setprofile
#: "call" events).  A change that puts per-call wrappers back on the float
#: path fails here; raising the budget is a change to log.  53 = 3 for the
#: request itself (``ephemeris_array``, its float grid check ``_float_grid``
#: and ``_orbit_args``) + 26 for the inverse corrections (``_mean_state`` and
#: the calls under it; ``cart_to_ns`` calls nothing) + 4 for the secular
#: rates (``mean_angle_rates``) + 20 for the forward chain
#: (``ephemeris_batch`` and the calls under it).  A one-epoch ndarray grid
#: makes two more: ``_float_grid`` declines it, and ``_batch_args`` and
#: ``_checked_grid`` check it in NumPy.
CALL_BUDGET = 53


def _catalog(seed, size):
    """The benchmark's synthetic catalogue: (states (n, 6), epochs (n,))."""
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return workloads.catalog(seed, size=size)


def _mirror(rows):
    """The state(s) mirrored in the x-z plane: y and vy change sign."""
    out = np.array(rows, dtype=float)
    out[..., 1] *= -1.0
    out[..., 4] *= -1.0
    return out


def _raised(fn, *args):
    with pytest.raises(Exception) as info:
        fn(*args)
    return type(info.value), str(info.value)


def test_one_epoch_equals_the_public_composition():
    states, epochs = _catalog(1, 2000)
    t = 0.0
    mismatches = 0
    for state, t0 in zip(states.tolist(), epochs.tolist()):
        cart = CartesianState(*state)
        row = ephemeris_array(cart, t0, [t], EARTH)[0]
        d = osculating_to_mean(cart, EARTH).delaunay
        moved = propagate_mean(d, secular_rates(d.L, d.G, d.H, EARTH), t - t0)
        osc = mean_to_osculating(moved, EARTH)
        mismatches += tuple(row.tolist()) != (osc.x, osc.y, osc.z, osc.vx, osc.vy, osc.vz)
    assert mismatches == 0


def _mean_critical_state():
    # mean |1 - 5c^2| = 8e-4 inside the band, the osculating one outside it
    L = math.sqrt(EARTH.mu * 7000.0)
    G = L * math.sqrt(1.0 - 0.05 ** 2)
    H = G * math.sqrt((1.0 - 8e-4) / 5.0)
    return CartesianState(*_kernels.reconstruct_and_correct(
        0.0, 0.0, 0.0, L, G, H, EARTH.mu, EARTH.alpha, EARTH.c20, EARTH.c30,
        False, True))


LEO = (7000.0, 0.0, 0.0, 0.0, 6.0, 4.5)
REJECTED = {
    "non-finite component": (CartesianState(7000.0, math.nan, 0.0, 0.0, 7.5, 0.0), EARTH),
    "zero position": (CartesianState(0.0, 0.0, 0.0, 1.0, 2.0, 3.0), EARTH),
    "overflowing position": (CartesianState(1e200, 0.0, 0.0, 0.0, 7.5, 0.0), EARTH),
    "non-finite angular momentum": (CartesianState(1e150, 1e150, 1e150, 1e300, 1e300, 1e300),
                                    EARTH),
    "rectilinear": (CartesianState(7000.0, 0.0, 0.0, 3.0, 0.0, 0.0), EARTH),
    "hyperbolic": (CartesianState(7000.0, 0.0, 0.0, 0.0, 9.6, 7.2), EARTH),
    "osculating critical band": (
        elements_to_cartesian(7000.0, 0.05, math.acos(math.sqrt(0.2)), 0.3, 0.7, 1.1), EARTH),
    "mean critical band": (_mean_critical_state(), EARTH),
    "c20 = 0 with c30 != 0": (CartesianState(*LEO), GravityField(EARTH.mu, EARTH.alpha,
                                                                  0.0, 1e-6)),
}


@pytest.mark.parametrize("case", sorted(REJECTED))
def test_rejections_match_osculating_to_mean(case):
    cart, field = REJECTED[case]
    expected = _raised(osculating_to_mean, cart, field)
    assert _raised(ephemeris_array, cart, 0.0, [0.0], field) == expected
    assert _raised(ephemeris_array, cart, 0.0, np.arange(64.0), field) == expected


_ESCAPE = math.sqrt(2.0 * EARTH.mu / 7000.0)  # km/s at r = 7000 km
NON_ELLIPTIC = {
    "12 km/s": CartesianState(7000.0, 0.0, 0.0, 0.0, 9.6, 7.2),
    "1.0001 escape speed": CartesianState(7000.0, 0.0, 0.0, 0.0, 0.8 * 1.0001 * _ESCAPE,
                                          0.6 * 1.0001 * _ESCAPE),
}
STAGES = {"both stages": PropagatorConfig(),
          "short period only": PropagatorConfig(long_period=False),
          "long period only": PropagatorConfig(short_period=False),
          "no stage": PropagatorConfig(short_period=False, long_period=False)}


@pytest.mark.parametrize("stages", sorted(STAGES))
@pytest.mark.parametrize("case", sorted(NON_ELLIPTIC))
def test_non_elliptic_state_rejected_before_the_corrections(case, stages):
    # the inverse kernels take sqrt(1 - e^2): the check has to come first
    cart, config = NON_ELLIPTIC[case], STAGES[stages]
    for fn, args in ((osculating_to_mean, (cart, EARTH, config)),
                     (ephemeris_array, (cart, 0.0, [0.0], EARTH, config)),
                     (ephemeris_array, (cart, 0.0, np.arange(64.0), EARTH, config))):
        with pytest.raises(NonEllipticStateError, match="not elliptic"):
            fn(*args)


def _outcome(fn):
    """What fn() gives: its rows' dtype, shape and bytes, or its error's type
    and message."""
    try:
        rows = fn()
    except Exception as exc:
        return type(exc), str(exc)
    return rows.dtype, rows.shape, rows.tobytes()


#: (t0, grid) pairs: the short path's checks against those in NumPy
GRIDS = {
    "one float": (-3600.0, [0.0]),
    "floats": (-3600.0, [0.0, 60.0, -7200.5]),
    "tuple": (-3600.0, (0.0, 60.0)),
    "ints": (-3600, [0, 60, 86400]),
    "int and float": (-3600.0, [0, 60.5]),
    "ints beyond 2**53": (-3600.0, [2 ** 53 + 1, 2 ** 63 - 1, 2 ** 64 + 1]),
    "int beyond the float range": (0.0, [10 ** 400]),
    "31 items": (-3600.0, [60.0 * k for k in range(_kernels.ARRAY_MIN_EPOCHS - 1)]),
    "32 items": (-3600.0, [60.0 * k for k in range(_kernels.ARRAY_MIN_EPOCHS)]),
    "NaN item": (-3600.0, [0.0, math.nan]),
    "+inf item": (-3600.0, [math.inf]),
    "-inf item": (-3600.0, [0.0, -math.inf]),
    "inf before NaN": (-3600.0, [math.inf, math.nan]),
    "offset overflows": (-1.7e308, [1.7e308]),
    "offset overflows below": (1.7e308, [0.0, -1.7e308]),
    "NaN t0": (math.nan, [0.0]),
    "inf t0": (math.inf, [0.0]),
    "-inf t0 and a NaN item": (-math.inf, [math.nan]),
    "int t0 beyond the float range": (10 ** 400, [0.0]),
    "nested list": (-3600.0, [[0.0]]),
    "nested lists": (-3600.0, [[0.0, 60.0], [120.0, 180.0]]),
    "empty list": (-3600.0, []),
    "empty tuple": (-3600.0, ()),
    "bool": (-3600.0, [True]),
    "bool and float": (-3600.0, [0.0, False]),
    "np.float64 items": (-3600.0, [np.float64(0.0), np.float64(60.0)]),
    "float and np.float64": (-3600.0, [0.0, np.float64(60.0)]),
    "np.float64 t0": (np.float64(-3600.0), [0.0]),
    "string item": (-3600.0, [0.0, "60"]),
}


@pytest.mark.parametrize("case", sorted(GRIDS))
def test_short_grid_path_matches_the_numpy_checked_path(case):
    t0, grid = GRIDS[case]
    for cart in (LEO_STATE, CartesianState(*LEO)):
        listed = _outcome(lambda: ephemeris_array(cart, t0, grid, EARTH))
        assert listed == _outcome(lambda: ephemeris_array(cart, t0, np.asarray(grid), EARTH))


def test_short_grid_makes_no_numpy_call_before_the_rows(monkeypatch):
    # only np.array is left to the propagator: the float-item lists and
    # tuples run, and an ndarray grid, checked in NumPy, does not
    expected = ephemeris_array(LEO_STATE, -3600.0, np.array([0.0, 60.0]), EARTH)
    monkeypatch.setattr(propagator, "np", SimpleNamespace(array=np.array))
    for grid in ([0.0, 60.0], (0.0, 60.0), [0, 60]):
        assert ephemeris_array(LEO_STATE, -3600.0, grid, EARTH).tobytes() == expected.tobytes()
    with pytest.raises(AttributeError):
        ephemeris_array(LEO_STATE, -3600.0, np.array([0.0, 60.0]), EARTH)


def test_catalogue_rows_equal_on_both_grid_checks():
    states, epochs = _catalog(5, 2000)
    mismatches = 0
    for state, t0 in zip(states.tolist(), epochs.tolist()):
        cart = CartesianState(*state)
        for grid in ([0.0], [0.0, t0 + 5400.0, t0 - 86400.0]):
            listed = _outcome(lambda: ephemeris_array(cart, t0, grid, EARTH))
            mismatches += listed != _outcome(
                lambda: ephemeris_array(cart, t0, np.array(grid), EARTH))
    assert mismatches == 0


def test_single_state_call_budget():
    ephemeris_array(LEO_STATE, -3600.0, [0.0], EARTH)  # warm-up
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        calls += event == "call"

    sys.setprofile(count)
    try:
        ephemeris_array(LEO_STATE, -3600.0, [0.0], EARTH)
    finally:
        sys.setprofile(None)
    assert calls <= CALL_BUDGET


@pytest.mark.parametrize("ts", [[0.0], -43200.0 + 1350.0 * np.arange(64)],
                         ids=["float-path", "array-path"])
def test_y_mirror_symmetry(ts):
    # mirroring y swaps the prograde and retrograde charts, and the
    # retrograde chart is realised by mirroring y: bit for bit the same
    states, epochs = _catalog(3, 300)
    mismatches = 0
    for state, t0 in zip(states, epochs.tolist()):
        direct = ephemeris_array(CartesianState(*state.tolist()), t0, ts, EARTH)
        mirrored = ephemeris_array(CartesianState(*_mirror(state).tolist()), t0, ts, EARTH)
        mismatches += not np.array_equal(mirrored, _mirror(direct))
    assert mismatches == 0


@pytest.mark.parametrize("a, inc_deg", [(7000.0, 45.0), (7078.0, 98.2), (7300.0, 140.0),
                                        (42164.0, 0.0), (42164.0, 10.0)])
def test_continuity_across_the_circular_threshold(a, inc_deg):
    # osculating e straddling CIRCULAR_ECC, made by a radial velocity
    # e |v| on a circular state (sigma = e, kappa = 0)
    cart = elements_to_cartesian(a, 0.0, math.radians(inc_deg), 0.4, 1.3, 2.2)
    r = np.array(cart.position())
    v = np.array(cart.velocity())
    grid = np.arange(0.0, 86400.0 + 1.0, 300.0)
    runs = []
    for factor in (0.0, 0.5, 0.9, 1.1, 2.0):
        w = v + factor * _kernels.CIRCULAR_ECC * np.linalg.norm(v) * r / np.linalg.norm(r)
        runs.append(ephemeris_array(CartesianState(*r, *w), 0.0, grid, EARTH))
    worst = max(np.max(np.linalg.norm(run[:, :3] - runs[0][:, :3], axis=1)) for run in runs)
    assert worst <= 1e-6  # km over one day
