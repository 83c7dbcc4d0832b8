import io
import math
import os
import platform
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zonalprop import EARTH, ConfigError, _kernels, cli, ephemeris_array, osculating_to_mean
from zonalprop._kernels import EPOCH_BLOCK
from zonalprop.cli import _write_ephemeris, _write_table, main
from zonalprop.propagator import mean_elements_series
from conftest import elements_to_cartesian
from test_array_path import STREAM_SIZES

EXAMPLE_CONFIG = Path(__file__).resolve().parent.parent / "example-config.ini"
PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _write_config(path, inc_deg=30.0, duration=1800.0, step=600.0, model="j2j3", extra=""):
    cart = elements_to_cartesian(7000.0, 0.05, math.radians(inc_deg), 0.3, 0.7, 1.1)
    path.write_text(f"""
[gravity]
mu = 398600.4418
alpha = 6378.137
c20 = -1.08262668e-3
c30 = 2.5326564853e-6

[state]
x = {cart.x!r}
y = {cart.y!r}
z = {cart.z!r}
vx = {cart.vx!r}
vy = {cart.vy!r}
vz = {cart.vz!r}
epoch = 0.0

[run]
duration = {duration}
step = {step}
model = {model}
{extra}""")
    return path


class TestPropagate:
    def test_writes_ephemeris(self, tmp_path):
        cfg = _write_config(tmp_path / "run.ini")
        out = tmp_path / "ephem.csv"
        rc = main(["propagate", "--config", str(cfg), "--ephemeris", str(out)])
        assert rc == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "t,x,y,z,X,Y,Z"
        assert len(lines) == 1 + 4  # epochs 0, 600, 1200, 1800
        row0 = [float(v) for v in lines[1].split(",")]
        assert row0[0] == 0.0
        # 17 significant digits round-trip doubles exactly
        assert f"{row0[1]:.17g}" in lines[1]

    def test_zero_duration_single_row(self, tmp_path):
        cfg = _write_config(tmp_path / "run.ini", duration=0.0)
        out = tmp_path / "one.csv"
        rc = main(["propagate", "--config", str(cfg), "--ephemeris", str(out)])
        assert rc == 0
        assert len(out.read_text().splitlines()) == 2

    def test_byte_stability(self, tmp_path):
        cfg = _write_config(tmp_path / "run.ini")
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        assert main(["propagate", "--config", str(cfg), "--ephemeris", str(out1)]) == 0
        assert main(["propagate", "--config", str(cfg), "--ephemeris", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_j2_vs_j2j3_with_zero_c30(self, tmp_path):
        cfg = _write_config(tmp_path / "run.ini")
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        assert main(["propagate", "--config", str(cfg), "--ephemeris", str(out1),
                     "--c30", "0.0", "--model", "j2"]) == 0
        assert main(["propagate", "--config", str(cfg), "--ephemeris", str(out2),
                     "--c30", "0.0", "--model", "j2j3"]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_flag_overrides_config(self, tmp_path):
        cfg = _write_config(tmp_path / "run.ini", duration=1800.0)
        out = tmp_path / "o.csv"
        assert main(["propagate", "--config", str(cfg), "--ephemeris", str(out),
                     "--duration", "0.0"]) == 0
        assert len(out.read_text().splitlines()) == 2

    def test_mean_elements_output(self, tmp_path):
        cfg = _write_config(tmp_path / "run.ini")
        out = tmp_path / "e.csv"
        mean = tmp_path / "m.csv"
        assert main(["propagate", "--config", str(cfg), "--ephemeris", str(out),
                     "--mean-elements", str(mean)]) == 0
        lines = mean.read_text().splitlines()
        assert lines[0] == "t,ell,g,h,L,G,H"
        assert len(lines) == 1 + 4

    def test_state_over_a_pole(self, tmp_path):
        # x = y = 0: a polar orbit at its highest latitude
        out = tmp_path / "pole.csv"
        assert main(["propagate", "--x", "0", "--y", "0", "--z", "7000", "--vx", "7.5",
                     "--vy", "0", "--vz", "0", "--duration", "600", "--step", "300",
                     "--ephemeris", str(out)]) == 0
        rows = [[float(v) for v in line.split(",")] for line in out.read_text().splitlines()[1:]]
        assert len(rows) == 3
        assert all(math.isfinite(v) for row in rows for v in row)

    @pytest.mark.parametrize("formulation", ["nonsingular", "low-inclination",
                                             "polar-nodal"])
    def test_formulation_selection(self, tmp_path, formulation):
        """The pipeline has one formulation: ``--formulation`` is rejected."""
        cfg = _write_config(tmp_path / "run.ini", duration=600.0, step=300.0)
        out = tmp_path / f"{formulation}.csv"
        with pytest.raises(SystemExit) as exc:
            main(["propagate", "--config", str(cfg), "--ephemeris", str(out),
                  "--formulation", formulation])
        assert exc.value.code == 1
        assert not out.exists()

    def test_golden_row(self, tmp_path):
        # frozen from the oracle-checked pipeline (criterion-5 verified build)
        cfg = _write_config(tmp_path / "run.ini", duration=0.0)
        out = tmp_path / "g.csv"
        assert main(["propagate", "--config", str(cfg), "--ephemeris", str(out)]) == 0
        row = [float(v) for v in out.read_text().splitlines()[1].split(",")]
        golden = [0.0,
                  -2862.0317444048746, 5299.026377768118, 2860.360601431336,
                  -6.269010181608034, -4.356572551214095, 2.0847309218156367]
        assert row == pytest.approx(golden, rel=1e-12, abs=1e-12)


@pytest.mark.parametrize("n", STREAM_SIZES + (86401,))
def test_streamed_files_equal_whole_array_files(tmp_path, n):
    """propagate writes, block by block, the bytes of the whole-array writer:
    sizes on both sides of the float/array switch and of the block counts,
    and the one-day 1 s grid."""
    cfg = _write_config(tmp_path / "run.ini", duration=float(n - 1), step=1.0)
    out, mean_out = tmp_path / "e.csv", tmp_path / "m.csv"
    assert main(["propagate", "--config", str(cfg), "--ephemeris", str(out),
                 "--mean-elements", str(mean_out), "--epoch", "12.5"]) == 0
    state = elements_to_cartesian(7000.0, 0.05, math.radians(30.0), 0.3, 0.7, 1.1)
    ts = 12.5 + 1.0 * np.arange(n)
    whole, mean_whole = tmp_path / "we.csv", tmp_path / "wm.csv"
    _write_ephemeris(str(whole), [(ts, ephemeris_array(state, 12.5, ts, EARTH))])
    mean = osculating_to_mean(state, EARTH)
    _write_ephemeris(str(mean_whole), [(ts, mean_elements_series(mean, 12.5, ts, EARTH))],
                     header="t,ell,g,h,L,G,H")
    assert out.read_bytes() == whole.read_bytes()
    assert mean_out.read_bytes() == mean_whole.read_bytes()


def test_propagate_memory_does_not_grow_with_the_states(tmp_path):
    """Traced peak of an in-process run, one day against four days at 1 s:
    the time grid (8 bytes per epoch) is all that grows; holding the (n, 6)
    states before writing them grew 55.9 bytes per epoch."""
    cfg = _write_config(tmp_path / "run.ini", step=1.0)
    out = str(tmp_path / "e.csv")
    argv = ["propagate", "--config", str(cfg), "--ephemeris", out]
    assert main(argv + ["--duration", "600"]) == 0  # warm: first-call allocations
    peaks = {}
    for days in (1, 4):
        tracemalloc.start()
        try:
            assert main(argv + ["--duration", str(86400.0 * days)]) == 0
            peaks[days] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    growth = (peaks[4] - peaks[1]) / (3 * 86400)
    assert growth <= 12.0, f"{growth:.1f} bytes per epoch"


@pytest.mark.skipif(sys.platform != "linux" or platform.libc_ver()[0] != "glibc",
                    reason="the heap trim threshold is a glibc setting")
def test_propagate_blocks_do_not_fault_the_heap_in_again(tmp_path):
    """Page faults of a one-day 1 s run in a fresh interpreter, after a
    warm-up run of the same size: 2-15 with the heap policy ``_kernels`` sets
    at import, 3 500-5 900 without it, when glibc gave every block's
    temporaries back and the next block faulted them in again.  A shorter
    warm-up leaves the blocks' first touches in the measured run (760-820
    faults after a one-row warm-up)."""
    out = tmp_path / "e.csv"
    probe = f"""
import os, resource, sys
from zonalprop.cli import main
sys.stdout = open(os.devnull, "w")
argv = ["propagate", "--config", {str(EXAMPLE_CONFIG)!r}, "--step", "1",
        "--ephemeris", {str(out)!r}]
main(argv + ["--duration", "86400"])
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
main(argv + ["--duration", "86400"])
sys.stderr.write(str(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before))
"""
    faults = int(_python(["-c", probe], check=True).stderr)
    assert faults < 300


#: start-up states of a fresh interpreter: the length of its working
#: directory's name and the number of extra environment variables.  Where
#: the top of glibc's heap lies after import depends on such state; on Linux
#: x86-64 with glibc and Python 3.11 the number of variables moved it
HEAP_LAYOUTS = ((1, 0), (2, 1), (17, 7), (42, 13))


@pytest.mark.skipif(sys.platform != "linux" or platform.libc_ver()[0] != "glibc",
                    reason="the dynamic mmap threshold is a glibc rule")
@pytest.mark.parametrize("name_length, extra_env", HEAP_LAYOUTS)
def test_dense_passes_do_not_fault_the_heap_in_again(tmp_path, name_length, extra_env):
    """Page faults of ephemeris_array passes over the six dense orbits (one
    day at 5 s) in a fresh interpreter, after a warm-up pass.  Without the
    allocation in ``_kernels``, glibc gave a block's temporaries back and the
    next block faulted them in again in three of these layouts, 2 300-2 600
    faults per pass; with it, 0 in each."""
    cwd = tmp_path / ("d" * name_length)
    cwd.mkdir()
    probe = f"""
import resource, sys
sys.path.insert(0, {str(PERFBENCH)!r})
import workloads
import zonalprop as zp
ts = workloads.dense_grid()
carts = [zp.CartesianState(*s) for s in workloads.orbit_set().values()]
def one_pass():
    for c in carts:
        zp.ephemeris_array(c, 0.0, ts, zp.EARTH)
one_pass()
faults = []
for _ in range(2):
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    one_pass()
    faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
sys.stderr.write(str(max(faults)))
"""
    env = {f"ZONALPROP_TEST_PAD{i}": "1" for i in range(extra_env)}
    faults = int(_python(["-c", probe], check=True, cwd=cwd, env=env).stderr)
    assert faults < 300


def _old_row(values, sep=","):
    """The per-row form the writer replaced: one ``{:.17g}`` per value."""
    return sep.join(f"{v:.17g}" for v in values) + "\n"


#: every finite double, with the extremes drawn explicitly as well
_doubles = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                     1.7e308, -1.7e308, 1.7976931348623157e308]))
_times = st.one_of(_doubles, st.integers(-2 ** 53, 2 ** 53).map(float))


class TestWriter:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(_times, st.lists(_doubles, min_size=6, max_size=6)),
                    min_size=1, max_size=20))
    def test_rows_match_per_value_format(self, table):
        ts = np.array([t for t, _ in table])
        rows = np.array([row for _, row in table])
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "e.csv")
            _write_ephemeris(path, [(ts, rows)])
            with open(path) as fh:
                text = fh.read()
        expected = "t,x,y,z,X,Y,Z\n" + "".join(
            _old_row([t] + list(row)) for t, row in zip(ts, rows))
        assert text == expected

    def test_block_edges_round_trip(self, tmp_path):
        n = 2 * EPOCH_BLOCK + 1
        rng = np.random.default_rng(5)
        ts = 0.1 * np.arange(n) - 7.0
        rows = rng.standard_normal((n, 6)) * 10.0 ** rng.integers(-300, 300, (n, 6))
        path = tmp_path / "e.csv"
        _write_ephemeris(str(path), [(ts, rows)])
        lines = path.read_text().splitlines()
        assert len(lines) == 1 + n
        back = np.loadtxt(path, delimiter=",", skiprows=1)
        assert np.array_equal(back[:, 0], ts)  # row order kept across blocks
        assert np.array_equal(back[:, 1:], rows)

    def test_example_config_golden_line(self, tmp_path):
        out = tmp_path / "g.csv"
        assert main(["propagate", "--config", str(EXAMPLE_CONFIG),
                     "--ephemeris", str(out)]) == 0
        assert out.read_text().splitlines()[1] == (
            "0,-2862.0317444048751,5299.0263777681175,2860.3606014313364,"
            "-6.2690101816080332,-4.3565725512140956,2.0847309218156367")

    def test_compare_table_matches_per_row_form(self):
        # the compare report's t / position / velocity error table, over one
        # block edge
        n = EPOCH_BLOCK + 3
        ts = 60.0 * np.arange(n) - 1800.0
        pos_err = np.abs(np.sin(ts)) * 1e-3 + 1e-9
        vel_err = pos_err * 1.1e-3
        fh = io.StringIO()
        _write_table(fh, (ts, pos_err, vel_err), " ")
        got = fh.getvalue().splitlines(keepends=True)
        want = [_old_row(r, " ") for r in zip(ts, pos_err, vel_err)]
        assert len(got) == n
        # first differing line only: a diff of the whole table is slow to print
        bad = next((i for i in range(n) if got[i] != want[i]), None)
        assert bad is None, (bad, got[bad], want[bad])


def _first_difference(got, want):
    """Index and text of the first differing line, or None: a diff of a whole
    table is slow to print."""
    got, want = got.splitlines(), want.splitlines()
    bad = next((i for i, (g, w) in enumerate(zip(got, want)) if g != w),
               None if len(got) == len(want) else min(len(got), len(want)))
    return None if bad is None else (bad, got[bad:bad + 1], want[bad:bad + 1])


def test_writer_exact_on_its_hard_cases():
    """The NumPy layout against ``%.17g`` where exact 17-digit rounding is
    hardest: both edges of the fixed-notation range, decade edges, ties,
    integers past 2**53 and the values that go through ``%`` instead."""
    rng = np.random.default_rng(20)
    n = 1_000_000
    sweep = 10.0 ** rng.uniform(-4.0, 16.0, n) * rng.choice([-1.0, 1.0], n)
    powers = 10.0 ** np.arange(-4, 17)
    firsts = np.outer(np.arange(1, 10), powers).ravel()  # 1e-4, ..., 9e16
    edges = np.concatenate([firsts] + [np.nextafter(firsts, d) for d in (0.0, np.inf)]
                           + [np.nextafter(np.nextafter(powers, 0.0), 0.0)])
    big = np.concatenate([2.0 ** 53 + np.arange(-8, 9), 1e16 - 2.0 * np.arange(1, 9)])
    halves = 2.0 ** 52 - np.arange(1, 9) + 0.5  # exact halves, last 17-digit place
    ties = 1e15 + np.arange(1, 33) * 0.125      # ...0.25, ...0.75: half-even ties
    nines = 1.0 - 2.0 ** -53 * np.arange(1, 9)  # carry through ...999 in the digits
    cli_small = [-5.1290452639046746e-05, 4.7088202634992804e-05, 8.239701409232247e-05]
    special = np.concatenate([edges, big, halves, ties, nines, [0.0, -0.0], cli_small])
    special = np.concatenate([special, -special])
    values = np.concatenate([special, sweep])
    values = np.concatenate([values, np.full(-len(values) % 8, 0.5)]).reshape(-1, 8)
    fh = io.StringIO()
    _write_table(fh, (values,), ",")
    want = ("%.17g," * 7 + "%.17g\n") * len(values) % tuple(values.ravel().tolist())
    assert _first_difference(fh.getvalue(), want) is None

    # the compare form: space-separated, with the values % formats
    ts = np.array([0.0, 1.0, 2.0, 3.0])
    errs = np.array([[math.nan, 1e-9], [math.inf, -math.inf], [5e-324, 1e300],
                     [1e16, 1.7976931348623157e308]])
    fh = io.StringIO()
    _write_table(fh, (ts, errs), " ")
    want = "".join(_old_row(row, " ") for row in np.column_stack([ts, errs]))
    assert _first_difference(fh.getvalue(), want) is None


def _mean_critical_flags(offset):
    """State flags of an orbit whose mean |1 - 5c^2| is about ``offset``:
    the short-period correction alone applied to mean elements at ``offset``."""
    L = math.sqrt(EARTH.mu * 7000.0)
    G = L * math.sqrt(1.0 - 0.05 ** 2)
    H = G * math.sqrt((1.0 - offset) / 5.0)
    state = _kernels.reconstruct_and_correct(0.0, 0.0, 0.0, L, G, H, EARTH.mu,
                                             EARTH.alpha, EARTH.c20, EARTH.c30, False, True)
    return [f"--{k}={v!r}" for k, v in zip(("x", "y", "z", "vx", "vy", "vz"), state)]


class TestExitCodes:
    def test_critical_inclination_exit_2(self, tmp_path):
        cfg = _write_config(tmp_path / "run.ini", inc_deg=63.435)
        rc = main(["propagate", "--config", str(cfg),
                   "--ephemeris", str(tmp_path / "x.csv")])
        assert rc == 2

    def test_retrograde_critical_exit_2(self, tmp_path):
        cfg = _write_config(tmp_path / "run.ini", inc_deg=116.565)
        rc = main(["propagate", "--config", str(cfg),
                   "--ephemeris", str(tmp_path / "x.csv")])
        assert rc == 2

    def test_missing_config_exit_1(self, tmp_path):
        rc = main(["propagate", "--config", str(tmp_path / "nope.ini")])
        assert rc == 1

    def test_missing_state_exit_1(self, tmp_path):
        cfg = tmp_path / "bad.ini"
        cfg.write_text("[gravity]\nmu = 398600.4418\n")
        rc = main(["propagate", "--config", str(cfg)])
        assert rc == 1

    def test_bad_model_exit_1(self, tmp_path):
        cfg = _write_config(tmp_path / "run.ini", model="j9")
        rc = main(["propagate", "--config", str(cfg),
                   "--ephemeris", str(tmp_path / "x.csv")])
        assert rc == 1

    def test_unknown_flag_exit_1(self, tmp_path, capsys):
        # exit status 2 is reserved for the critical-inclination guard
        cfg = _write_config(tmp_path / "run.ini")
        with pytest.raises(SystemExit) as exc:
            main(["propagate", "--config", str(cfg), "--no-such-flag"])
        assert exc.value.code == 1
        assert "--no-such-flag" in capsys.readouterr().err

    def test_non_finite_state_exit_1(self, tmp_path, capsys):
        cfg = _write_config(tmp_path / "run.ini")
        out = tmp_path / "x.csv"
        rc = main(["propagate", "--config", str(cfg), "--ephemeris", str(out), "--vz", "nan"])
        assert rc == 1
        assert "state component vz must be finite, got nan" in capsys.readouterr().err
        assert not out.exists()

    def test_overflowing_position_exit_1_without_traceback(self, tmp_path):
        # x**2 overflows a float; run in a fresh interpreter, where an
        # uncaught error would print its traceback to stderr
        out = tmp_path / "x.csv"
        res = _python(["-m", "zonalprop.cli", "propagate", "--x", "1e200", "--y", "0",
                       "--z", "0", "--vx", "0", "--vy", "7.5", "--vz", "0",
                       "--duration", "60", "--step", "60", "--ephemeris", str(out)])
        assert res.returncode == 1
        assert "error: position norm overflows" in res.stderr
        assert "Traceback" not in res.stderr
        assert not out.exists()

    @pytest.mark.parametrize("speed", [12.0, 1.0001 * math.sqrt(2.0 * EARTH.mu / 7000.0)],
                             ids=["12 km/s", "1.0001 escape speed"])
    def test_non_elliptic_state_exit_1(self, tmp_path, capsys, speed):
        cfg = _write_config(tmp_path / "run.ini")
        out = tmp_path / "x.csv"
        state = dict(zip(("x", "y", "z", "vx", "vy", "vz"),
                         (7000.0, 0.0, 0.0, 0.0, 0.8 * speed, 0.6 * speed)))
        rc = main(["propagate", "--config", str(cfg), "--ephemeris", str(out),
                   *[f"--{k}={v!r}" for k, v in state.items()]])
        assert rc == 1
        assert "error: state is not elliptic" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("value", ["nan", "-1", "0", "inf"])
    def test_invalid_critical_tol_exit_1(self, tmp_path, capsys, value):
        # each of these used to switch the guard off: the critical orbit ran
        cfg = _write_config(tmp_path / "run.ini", inc_deg=63.435)
        out = tmp_path / "x.csv"
        rc = main(["propagate", "--config", str(cfg), "--ephemeris", str(out),
                   f"--critical-tol={value}"])
        assert rc == 1
        assert "critical_tol must be finite and > 0" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.filterwarnings("error")  # no NumPy RuntimeWarning on the way
    @pytest.mark.parametrize("setting, value", [
        ("epoch", "inf"), ("epoch", "nan"),
        ("duration", "inf"), ("duration", "nan"),
        ("step", "inf"), ("step", "nan"),
    ])
    def test_non_finite_run_setting_exit_1(self, tmp_path, capsys, setting, value):
        cfg = _write_config(tmp_path / "run.ini")
        out = tmp_path / "x.csv"
        rc = main(["propagate", "--config", str(cfg), "--ephemeris", str(out),
                   f"--{setting}", value])
        assert rc == 1
        err = capsys.readouterr().err
        assert f"run setting {setting} must be finite, got {value}" in err
        assert not out.exists()

    @pytest.mark.parametrize("duration, step", [
        ("1e300", "1e-300"),                      # the ratio overflows to inf
        (str(float(cli.MAX_GRID_EPOCHS)), "1"),   # one epoch over the limit
    ])
    def test_oversized_grid_exit_1_without_allocating(self, tmp_path, capsys, monkeypatch,
                                                      duration, step):
        def no_grid(*args, **kwargs):
            raise AssertionError("the grid was allocated")
        monkeypatch.setattr(np, "arange", no_grid)
        cfg = _write_config(tmp_path / "run.ini")
        out = tmp_path / "x.csv"
        rc = main(["propagate", "--config", str(cfg), "--ephemeris", str(out),
                   "--duration", duration, "--step", step])
        assert rc == 1
        assert f"more than {cli.MAX_GRID_EPOCHS} epochs" in capsys.readouterr().err
        assert not out.exists()

    def test_overflowing_end_epoch_prints_only_the_error(self, tmp_path):
        # every setting is finite, but the grid's last time epoch + duration
        # is not: NumPy printed an overflow RuntimeWarning from the in-place
        # grid before the error line
        out = tmp_path / "x.csv"
        res = _python(["-m", "zonalprop.cli", "propagate", "--config", str(EXAMPLE_CONFIG),
                       "--epoch", "1e308", "--duration", "1e308", "--step", "1e306",
                       "--ephemeris", str(out)])
        assert res.returncode == 1
        assert res.stderr == "error: epoch + duration = 1e+308 + 1e+308 overflows a float\n"
        assert not out.exists()
        # a grid of huge but finite times is still built
        assert cli._time_grid(-1e308, 1e308, 1e306)[-1] == 0.0

    def test_advance_past_2_52_rad_exit_1(self, tmp_path, capsys):
        # a million rows of mean angles with no digits left used to be written
        out = tmp_path / "x.csv"
        rc = main(["propagate", "--config", str(EXAMPLE_CONFIG), "--ephemeris", str(out),
                   "--duration", "1e30", "--step", "1e24"])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: mean angle advance ") and "2**52 rad" in err
        assert not out.exists()

    def test_grid_limit_is_inclusive(self, monkeypatch):
        monkeypatch.setattr(cli, "MAX_GRID_EPOCHS", 100)
        assert len(cli._time_grid(5.0, 99.0, 1.0)) == 100
        with pytest.raises(ConfigError, match="more than 100 epochs"):
            cli._time_grid(5.0, 100.0, 1.0)

    def test_mean_critical_inclination_exit_2(self, tmp_path):
        # mean |1 - 5c^2| = 8e-4 inside the band, osculating one outside it
        cfg = _write_config(tmp_path / "run.ini")
        out = tmp_path / "x.csv"
        rc = main(["propagate", "--config", str(cfg), "--ephemeris", str(out),
                   *_mean_critical_flags(8e-4)])
        assert rc == 2
        assert not out.exists()

    @pytest.mark.parametrize("offset, flags, code", [
        (8e-4, ["--critical-tol=1e-5"], 0),
        (1.5e-3, ["--no-long-period", "--critical-tol=2e-3"], 2),
    ], ids=["narrower band admits", "wider band rejects"])
    def test_benchmark_guard_reads_critical_tol(self, tmp_path, offset, flags, code):
        # the benchmark's own guard used the default band whatever the flag:
        # the first state exited 2 and the second 0.  With the long-period
        # stage off only the benchmark's guard runs
        cfg = _write_config(tmp_path / "run.ini")
        report = tmp_path / "bench.txt"
        rc = main(["benchmark", "--config", str(cfg), "--report", str(report),
                   "--iterations", "0", *_mean_critical_flags(offset), *flags])
        assert rc == code
        assert report.exists() == (code == 0)

    @pytest.mark.parametrize("model, code", [("two-body", 0), ("j2", 2)])
    def test_critical_inclination_on_a_two_body_field(self, tmp_path, model, code):
        # with c20 = 0 every long-period term vanishes: no band to guard
        cfg = _write_config(tmp_path / "run.ini", inc_deg=63.4349, model=model)
        out = tmp_path / "x.csv"
        rc = main(["propagate", "--config", str(cfg), "--ephemeris", str(out)])
        assert rc == code
        assert out.exists() == (code == 0)

    @pytest.mark.parametrize("command, flag", [
        ("propagate", "--integrator-tol"), ("propagate", "--report"),
        ("compare", "--ephemeris"), ("compare", "--mean-elements"),
        ("benchmark", "--epoch"), ("benchmark", "--duration"), ("benchmark", "--step"),
        ("benchmark", "--integrator-tol"), ("benchmark", "--ephemeris"),
        ("benchmark", "--mean-elements"), ("benchmark", "--no-secular"),
    ])
    def test_flag_the_command_does_not_read_exit_1(self, tmp_path, capsys, monkeypatch,
                                                   command, flag):
        # each was accepted and silently dropped; the value parses as its
        # flag's type, so only the subcommand rejects it
        monkeypatch.chdir(tmp_path)
        value = str(tmp_path / "foreign.out") if flag in ("--report", "--ephemeris",
                                                           "--mean-elements") else "60"
        with pytest.raises(SystemExit) as exc:
            main([command, "--config", str(EXAMPLE_CONFIG), flag, value])
        assert exc.value.code == 1
        err = capsys.readouterr().err
        # the subcommand's own usage, which lists the flags it does take
        assert err.startswith(f"usage: zonalprop {command} ")
        assert f"zonalprop {command}: error: unrecognized arguments: {flag} " in err
        assert list(tmp_path.iterdir()) == []

    def test_one_config_with_every_key_runs_every_command(self, tmp_path, monkeypatch, capsys):
        # the INI file is shared: each subcommand accepts every key of the
        # table, the keys it does not read included
        text = (EXAMPLE_CONFIG.read_text().replace("# mean-elements", "mean-elements")
                .replace("# report", "report")
                .replace("duration = 5400.0", "duration = 600.0")
                .replace("iterations = 2000", "iterations = 20"))
        cfg = tmp_path / "all.ini"
        cfg.write_text(text)
        cp = cli._read_config(str(cfg))
        assert {(s, k) for s in cp.sections() for k in cp[s]} == set(cli.CONFIG_KEYS)
        monkeypatch.chdir(tmp_path)
        for command in ("propagate", "compare", "benchmark"):
            assert main([command, "--config", str(cfg)]) == 0
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "all.ini", "ephemeris.csv", "mean.csv", "report.txt"]
        assert capsys.readouterr().err == ""

    def test_help_exit_0(self):
        with pytest.raises(SystemExit) as exc:
            main(["propagate", "--help"])
        assert exc.value.code == 0

    @pytest.mark.parametrize("extra, name", [
        ("short_period = false\n", "short_period"),     # misspelt short-period
        ("formulation = nonsingular\n", "formulation"),  # removed options
        ("low-inc-threshold = 1e-3\n", "low-inc-threshold"),
        ("[output]\nephemris = x.csv\n", "ephemris"),
        ("[runs]\nduration = 60\n", "[runs]"),
        ("short-period = ture\n", "[run] short-period = 'ture'"),  # not a boolean
        ("long-period = 2\n", "[run] long-period = '2'"),
        ("secular = enabled\n", "[run] secular = 'enabled'"),
    ], ids=["short_period", "formulation", "low-inc-threshold", "ephemris", "runs",
            "boolean-ture", "boolean-2", "boolean-enabled"])
    def test_unknown_config_key_exit_1(self, tmp_path, capsys, extra, name):
        cfg = _write_config(tmp_path / "run.ini", extra=extra)
        out = tmp_path / "x.csv"
        rc = main(["propagate", "--config", str(cfg), "--ephemeris", str(out)])
        assert rc == 1
        assert not out.exists()
        assert name in capsys.readouterr().err

    @pytest.mark.parametrize("raw, expected", [
        ("off", False), ("no", False), ("0", False), ("On", True), ("YES", True),
    ])
    def test_config_booleans(self, tmp_path, raw, expected):
        cfg = _write_config(tmp_path / "run.ini", extra=f"short-period = {raw}\n")
        args = cli._parser().parse_args(["propagate", "--config", str(cfg)])
        settings = cli._settings(cli._read_config(args.config), args)
        assert settings.short_period is expected

    @pytest.mark.parametrize("command, line, raw, message", [
        ("propagate", "mu = 398600.4418", "mu = 398600.44l8",
         "[gravity] mu = '398600.44l8' is not a number"),
        ("propagate", "epoch = 0.0", "epoch = O.0", "[state] epoch = 'O.0' is not a number"),
        ("propagate", "step = 600.0", "step = 6O", "[run] step = '6O' is not a number"),
        ("propagate", "step = 600.0", "step = %(x)s", "[run] step = '%(x)s' is not a number"),
        ("compare", "model = j2j3", "model = j2j3\n[compare]\nj2-multipliers = 1,half",
         "[compare] j2-multipliers = '1,half' is not a comma-separated list"),
        ("benchmark", "model = j2j3", "model = j2j3\n[benchmark]\niterations = ten",
         "[benchmark] iterations = 'ten' is not an integer"),
    ], ids=["gravity", "state", "run", "run-interpolation", "compare", "benchmark"])
    def test_bad_number_names_its_key_exit_1(self, tmp_path, capsys, command, line, raw,
                                             message):
        cfg = _write_config(tmp_path / "run.ini")
        text = cfg.read_text()
        assert line in text
        cfg.write_text(text.replace(line, raw, 1))
        out = tmp_path / "out.txt"
        flag = "--ephemeris" if command == "propagate" else "--report"
        assert main([command, "--config", str(cfg), flag, str(out)]) == 1
        assert not out.exists()
        assert f"error: {message}" in capsys.readouterr().err

    def test_percent_in_value_is_literal(self, tmp_path, monkeypatch):
        # configparser's interpolation used to end a % in a value in an
        # InterpolationSyntaxError traceback
        cfg = tmp_path / "pct.ini"
        text = EXAMPLE_CONFIG.read_text()
        assert "ephemeris = ephemeris.csv" in text
        cfg.write_text(text.replace("ephemeris = ephemeris.csv", "ephemeris = run%1.csv"))
        monkeypatch.chdir(tmp_path)
        assert main(["propagate", "--config", str(cfg), "--duration", "60", "--step", "60"]) == 0
        assert len((tmp_path / "run%1.csv").read_text().splitlines()) == 3

    @pytest.mark.parametrize("raw", ["", "1", "1,0", "1,-0.5", "1,1", "1,nan", "1,inf"])
    def test_j2_multipliers_must_fit_a_slope_exit_1(self, tmp_path, capsys, raw):
        # an empty list used to end in a TypeError traceback and 0, a negative
        # or a single value in a LAPACK error from the log-log fit
        cfg = _write_config(tmp_path / "run.ini")
        report = tmp_path / "cmp.txt"
        assert main(["compare", "--config", str(cfg), "--report", str(report),
                     f"--j2-multipliers={raw}"]) == 1
        assert not report.exists()
        assert f"[compare] j2-multipliers = '{raw}' is not" in capsys.readouterr().err

    @pytest.mark.parametrize("raw", ["1e400", "2.5", "nan", "ten"])
    def test_iterations_must_be_an_integer_exit_1(self, tmp_path, capsys, raw):
        # int() of the text: 1e400 used to end in an OverflowError traceback,
        # 2.5 ran 2 iterations
        cfg = _write_config(tmp_path / "run.ini", extra=f"[benchmark]\niterations = {raw}\n")
        report = tmp_path / "bench.txt"
        assert main(["benchmark", "--config", str(cfg), "--report", str(report)]) == 1
        assert not report.exists()
        assert f"[benchmark] iterations = '{raw}' is not an integer" in capsys.readouterr().err

    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_iterations_must_not_be_negative_exit_1(self, tmp_path, capsys, source):
        # -3 used to run, exit 0 and leave the timing section out
        extra = "[benchmark]\niterations = -3\n" if source == "config" else ""
        cfg = _write_config(tmp_path / "run.ini", extra=extra)
        report = tmp_path / "bench.txt"
        flag = ["--iterations", "-3"] if source == "flag" else []
        assert main(["benchmark", "--config", str(cfg), "--report", str(report), *flag]) == 1
        assert not report.exists()
        assert "[benchmark] iterations must be >= 0, got -3" in capsys.readouterr().err

    def test_malformed_config_exit_1(self, tmp_path):
        cfg = _write_config(tmp_path / "run.ini", extra="[run]\nstep = 60\n")
        assert main(["propagate", "--config", str(cfg)]) == 1


class TestCompare:
    def test_two_body_report(self, tmp_path, capsys):
        cfg = _write_config(tmp_path / "run.ini", duration=1200.0, step=600.0)
        report = tmp_path / "cmp.txt"
        rc = main(["compare", "--config", str(cfg), "--report", str(report),
                   "--model", "two-body", "--j2-multipliers", "1,0.5"])
        assert rc == 0
        text = report.read_text()
        rms = float([l for l in text.splitlines()
                     if l.startswith("rms_position_error")][0].split("=")[1])
        assert rms < 1e-6  # integrator-tolerance level
        # c20 = 0: every lambda gave the same error and the slope read 0.000,
        # so the scaling table is left out, with a line saying why
        assert text.endswith("# no J2-inflation scaling: c20 = 0, so scaling J2 "
                             "changes nothing\n")
        assert "slope" not in text
        assert capsys.readouterr().out == f"wrote comparison report to {report}\n"

    def test_j2_report_has_the_scaling_table(self, tmp_path, capsys):
        cfg = _write_config(tmp_path / "run.ini", duration=1200.0, step=600.0)
        report = tmp_path / "cmp.txt"
        assert main(["compare", "--config", str(cfg), "--report", str(report),
                     "--model", "j2", "--j2-multipliers", "1,0.5"]) == 0
        lines = report.read_text().splitlines()
        assert lines[-5:-3] == ["# J2-inflation scaling (odd zonal off, one orbital period)",
                                "columns: lambda rms_position_error"]
        slope = float(lines[-1].removeprefix("slope = "))
        assert 1.5 < slope < 2.5
        assert capsys.readouterr().out.endswith(f"(scaling slope {slope:.3f})\n")

    @pytest.mark.parametrize("tol", ["nan", "inf", "0", "-1"])
    def test_bad_integrator_tol_exit_1(self, tmp_path, tol):
        # nan used to hang in the integrator, inf to report a meaningless
        # slope and 0 to run at SciPy's 100 eps; a fresh interpreter, so that
        # a hang ends in a timeout
        cfg = _write_config(tmp_path / "run.ini")
        report = tmp_path / "cmp.txt"
        res = _python(["-m", "zonalprop.cli", "compare", "--config", str(cfg),
                       "--report", str(report), f"--integrator-tol={tol}"], timeout=60)
        assert res.returncode == 1
        assert f"error: integrator tolerance must lie in [2.22e-14, 1e-06], got {float(tol)}" \
            in res.stderr
        assert not report.exists()

    def test_report_deterministic(self, tmp_path):
        cfg = _write_config(tmp_path / "run.ini", duration=600.0, step=300.0)
        r1 = tmp_path / "c1.txt"
        r2 = tmp_path / "c2.txt"
        args = ["compare", "--config", str(cfg), "--j2-multipliers", "1,0.5"]
        assert main(args + ["--report", str(r1)]) == 0
        assert main(args + ["--report", str(r2)]) == 0
        assert r1.read_bytes() == r2.read_bytes()


class TestBenchmarkCommand:
    def test_runs_and_writes(self, tmp_path):
        cfg = _write_config(tmp_path / "run.ini")
        report = tmp_path / "bench.txt"
        rc = main(["benchmark", "--config", str(cfg), "--report", str(report),
                   "--iterations", "20"])
        assert rc == 0
        text = report.read_text()
        assert "nonsingular_trig" in text
        assert "seconds per evaluation" in text

    def test_iterations_from_config(self, tmp_path):
        cfg = _write_config(tmp_path / "run.ini", extra="[benchmark]\niterations = 2000\n")
        report = tmp_path / "bench.txt"
        assert main(["benchmark", "--config", str(cfg), "--report", str(report)]) == 0
        assert "iterations = 2000" in report.read_text()

    def test_zero_iterations(self, tmp_path):
        cfg = _write_config(tmp_path / "run.ini")
        report = tmp_path / "bench0.txt"
        rc = main(["benchmark", "--config", str(cfg), "--report", str(report),
                   "--iterations", "0"])
        assert rc == 0
        assert "seconds per evaluation" not in report.read_text()


#: the propagator's API: everything else is imported from its submodule
API = ("ConfigError", "CriticalInclinationError",
       "EquatorialDecompositionError", "NonEllipticStateError", "ZonalPropError",
       "GravityField", "EARTH",
       "CartesianState", "DelaunayState", "NonsingularState",
       "cartesian_to_nonsingular", "nonsingular_to_cartesian",
       "PropagatorConfig", "MeanElements", "osculating_to_mean", "mean_to_osculating",
       "ephemeris", "ephemeris_array",
       "SecularRates", "secular_rates", "propagate_mean", "mean_motion", "orbital_period",
       "critical_inclination_guard")


def _python(args, check=False, timeout=None, cwd=None, env=None):
    """Run the interpreter with this checkout's ``src`` first on its path,
    in ``cwd`` and with the variables ``env`` added to the environment."""
    import zonalprop
    src = os.path.dirname(os.path.dirname(zonalprop.__file__))
    env = dict(os.environ, **(env or {}), PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          check=check, env=env, timeout=timeout, cwd=cwd)


def test_cli_import_leaves_scipy_out():
    # only compare needs the reference integrator and only benchmark the
    # benchmark: the CLI starts without either.  sympy and mpmath are test
    # dependencies only
    import zonalprop
    loaded = ("[m for m in ('scipy.integrate', 'zonalprop.benchmark', 'sympy', 'mpmath') "
              "if m in sys.modules]")
    probe = f"import sys, zonalprop; print({loaded}); import zonalprop.cli; print({loaded})"
    out = _python(["-c", probe], check=True)
    assert out.stdout.split() == ["[]", "[]"]
    assert len(API) == 24
    assert sorted(zonalprop.__all__) == sorted(API)
    assert all(hasattr(zonalprop, name) for name in API)
