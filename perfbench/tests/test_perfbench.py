"""Tests of the benchmark itself: inputs, checks and the layer wrappers.

Run from the repository root:  python3 -m pytest perfbench/tests -q
"""

import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
sys.path[:0] = [BENCH, os.path.join(os.path.dirname(BENCH), "src")]

import checks  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
import zonalprop as zp  # noqa: E402


def _ephemeris(state, ts):
    return zp.ephemeris_array(zp.CartesianState(*state), 0.0, ts, zp.EARTH)


def test_catalog_is_deterministic_per_seed():
    a_states, a_epochs = workloads.catalog(7, size=500)
    b_states, b_epochs = workloads.catalog(7, size=500)
    c_states, _ = workloads.catalog(8, size=500)
    assert np.array_equal(a_states, b_states) and np.array_equal(a_epochs, b_epochs)
    assert not np.array_equal(a_states, c_states)


def test_catalog_covers_the_branches():
    states, _ = workloads.catalog(3, size=4000)
    shares = workloads.input_shares(states)
    assert shares["low_inclination"] > 0.03
    assert 0.4 < shares["retrograde"] < 0.6
    assert shares["e_below_1e-3"] > 0.3


def _cos_i(states):
    h = np.cross(states[:, :3], states[:, 3:])
    return h[:, 2] / np.linalg.norm(h, axis=1)


def test_catalog_leaves_out_the_edge_bands_that_the_probe_covers():
    states, _ = workloads.catalog(5, size=4000)
    assert not workloads.in_edge_band(_cos_i(states)).any()
    probe = workloads.edge_probe(5, size=200)
    again = workloads.edge_probe(5, size=200)
    for band, (p_states, p_epochs) in probe.items():
        assert workloads.in_edge_band(_cos_i(p_states)).all(), band
        assert np.array_equal(p_states, again[band][0]) and np.array_equal(p_epochs, again[band][1])


def test_edge_probe_counts_misses_without_failing():
    res = run.Result()
    failed, attempted, _ = run._edge_probe(res, 1)
    assert failed == 0 and attempted == 2 * workloads.EDGE_PROBE_SIZE
    for band in ("near_critical", "near_equatorial"):
        assert 0 <= res.metrics[f"edges.{band}_misses"]["value"] <= workloads.EDGE_PROBE_SIZE


def test_elements_round_trip_through_the_library():
    # the benchmark's own two-body map agrees with the library's osculating
    # inclination, so the reported input shares describe what the library sees
    state = workloads.orbit_set()["retro"]
    ns = zp.cartesian_to_nonsingular(zp.CartesianState(*state))
    assert ns.retrograde
    assert ns.s2 == pytest.approx(np.sin(np.radians(140.0)) ** 2, rel=1e-12)


def test_one_perturbed_row_fails_the_dense_check():
    ts = np.arange(0.0, 600.0, 60.0)
    states = workloads.orbit_set()
    outputs = {n: _ephemeris(s, ts) for n, s in states.items()}
    assert run._dense_bad(outputs, states) == 0
    outputs["gto"][3, 0] += 1e-3
    assert run._dense_bad(outputs, states) == 1


def test_one_perturbed_row_fails_the_catalog_check():
    states, epochs = workloads.catalog(11, size=40)
    carts = [zp.CartesianState(*row) for row in states.tolist()]
    rows = np.array([zp.ephemeris_array(c, t0, [0.0], zp.EARTH)[0]
                     for c, t0 in zip(carts, epochs)])
    none = np.zeros(len(carts), dtype=bool)
    first = (rows, None, none, none)
    assert not run._catalog_bad(first, states, carts, epochs.tolist()).any()
    rows[5, 1] *= 1.0 + 1e-9
    assert run._catalog_bad(first, states, carts, epochs.tolist()).sum() == 1


def test_one_perturbed_csv_row_fails_the_cli_check(tmp_path):
    ts = 10.0 * np.arange(5)
    rows = _ephemeris(workloads.LEO_STATE, ts)
    path = tmp_path / "eph.csv"
    lines = ["t,x,y,z,X,Y,Z"] + [",".join(f"{v:.17g}" for v in (t, *row))
                                  for t, row in zip(ts, rows)]
    path.write_text("\n".join(lines) + "\n")
    assert not checks.csv_mismatch(path, ts, rows).any()
    bumped = rows.copy()
    bumped[2, 4] = np.nextafter(bumped[2, 4], np.inf)
    assert list(np.flatnonzero(checks.csv_mismatch(path, ts, bumped))) == [2]
    longer = 10.0 * np.arange(6)
    assert checks.csv_mismatch(path, longer, _ephemeris(workloads.LEO_STATE, longer)).all()
    assert checks.csv_mismatch(tmp_path / "missing.csv", ts, rows).all()


def _bindings():
    return {(name, attr): value
            for name, mod in list(sys.modules.items())
            if mod is not None and (name == "zonalprop" or name.startswith("zonalprop."))
            for attr, value in list(vars(mod).items())}


@pytest.mark.parametrize("recorder", [layers.Timings, layers.Counts])
def test_passes_restore_every_patched_attribute(recorder):
    import zonalprop.cli  # noqa: F401  (its bindings are patched too)
    before = _bindings()
    with layers.traced(recorder()) as rec:
        _ephemeris(workloads.LEO_STATE, np.arange(0.0, 300.0, 60.0))
        assert zp.ephemeris_array is not before[("zonalprop", "ephemeris_array")]
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    assert rec.calls["propagator.reconstruct_and_correct"] == 5
    assert rec.calls["anomaly.kepler_u"] == 5


def test_restore_after_an_error():
    before = _bindings()
    with pytest.raises(zp.CriticalInclinationError):
        with layers.traced(layers.Counts()):
            zp.critical_inclination_guard(np.sqrt(0.2))
    after = _bindings()
    assert all(after[k] is before[k] for k in before)


def test_counted_pass_sees_calls_inside_the_kernels():
    ts = np.arange(0.0, 600.0, 60.0)
    counts = []
    for _ in range(2):
        with layers.traced(layers.Counts()) as c:
            _ephemeris(workloads.LEO_STATE, ts)
        counts.append(c)
    assert counts[0].key() == counts[1].key()
    n = len(ts)
    assert counts[0].calls["states.ns_to_cart"] == n
    assert counts[0].trig["states.ns_to_cart"] == 2 * n
    assert counts[0].trig["anomaly.kepler_u"] >= n


def test_timings_self_time_adds_up():
    timings = layers.Timings()
    with layers.traced(timings):
        import time
        t0 = time.perf_counter()
        _ephemeris(workloads.LEO_STATE, np.arange(0.0, 6000.0, 10.0))
        total = time.perf_counter() - t0
    attributed = sum(timings.self_s.values())
    assert 0.9 * total < attributed <= total


def test_injected_fault_gives_failed_frac_above_zero(monkeypatch):
    clean = zp.ephemeris_array

    def faulty(*args, **kwargs):
        out = clean(*args, **kwargs)
        out[len(out) // 2, 0] += 1e-3
        return out

    monkeypatch.setattr(zp, "ephemeris_array", faulty)
    res = run.dense(seed=1, seconds=0.0, trace=False)
    assert res.attempted > 0
    assert 0 < res.failed / res.attempted < 1e-3
