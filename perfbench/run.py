"""zonalprop benchmark: three workloads, checked outputs, one JSON line.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload orbit-set-dense --seed 1 --seconds 10 --trace 0

Workloads (see WORKLOADS.md for why each exists and what it contains):

    orbit-set-dense    six fixed orbits, one day at 5 s, one ephemeris_array call each
    catalog-snapshot   20,000 seeded states, each asked for at one epoch
    cli-propagate      `zonalprop propagate` for one day at 1 s in a fresh interpreter
    all                the three above, each in its own interpreter

``--trace 0`` measures the end-to-end metrics with nothing wrapped; ``--trace
1`` wraps the layer boundaries (see layers.py) and reports per-layer metrics.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The library is
imported from ``src/`` of the checkout; nothing is installed.
"""

import os

# One thread for every numerical library, set before numpy is imported here
# and inherited by every interpreter this benchmark starts.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import importlib.metadata
import importlib.util
import json
import math
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
TMP_PARENT = os.path.join(ROOT, ".perfbench_tmp")
WORKLOADS = ("orbit-set-dense", "catalog-snapshot", "cli-propagate")
NPROC = len(os.sched_getaffinity(0))

#: fresh interpreters started per run to time set-up; the median is reported
SETUP_REPEATS = 7
#: iterations of the calibration loop, and its median time on the reference
#: host (2 shared vCPUs, Python 3.11); see ``calibration_s``
CAL_LOOPS = 30000
CAL_REF_S = 8.0e-3
#: while a child process is timed, a loop CAL_SAMPLE_DIV times shorter runs
#: every CAL_SAMPLE_PERIOD_S (see ``Clock.during``)
CAL_SAMPLE_DIV = 8
CAL_SAMPLE_PERIOD_S = 0.05
#: objects timed between two calibration loops in catalog-snapshot
CAL_BLOCK = 2000
#: untimed warm-up before a timed loop, so the first timed call does not pay
#: for lazy set-up or a CPU still waking up
WARMUP_S = 1.0
#: objects and epoch stride of the counted pass (counts are exact, so a
#: deterministic subset keeps the pass short)
COUNT_OBJECTS = 2000
COUNT_STRIDE = 20


class Result:
    """Metrics of one workload run plus its operation counts."""

    def __init__(self):
        self.metrics = {}
        self.attempted = 0
        self.failed = 0
        self.notes = []   # human-readable lines printed before the JSON line

    def put(self, name, value, unit):
        self.metrics[name] = {"value": float(value), "unit": unit}

    def note(self, text):
        self.notes.append(text)


# ---------------------------------------------------------------------------
# helpers shared by the workloads
# ---------------------------------------------------------------------------

def _child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _setup_seconds(probe):
    """Median time from spawning a fresh interpreter to the probe's 'ready'.

    One untimed probe runs first so that byte-code compilation of
    a fresh checkout is not counted.
    """
    def spawn():
        t0 = time.perf_counter()
        with subprocess.Popen([sys.executable, "-c", probe], stdout=subprocess.PIPE,
                              env=_child_env(), cwd=ROOT, text=True) as proc:
            ready = None
            for line in proc.stdout:
                if line.strip() == "ready":
                    ready = time.perf_counter() - t0
                    break
            proc.stdout.read()
            if proc.wait() != 0 or ready is None:
                raise RuntimeError("set-up probe failed")
        return ready

    spawn()
    clock = Clock()
    samples = [clock.time(spawn)[1] for _ in range(SETUP_REPEATS)]
    return statistics.median(samples) * clock.factor()


def _cal_kernel(x, y):
    s = math.sin(x)
    c = math.cos(y)
    return s * c + math.sqrt(1.0 + x * x), math.atan2(s, c)


def calibration_s(loops=CAL_LOOPS):
    """Time of a fixed pure-Python loop: calls, float arithmetic, math.

    The library's hot path is interpreter-bound code of the same kind, and a
    shared host changes the speed of both together.  A shorter loop's time
    is scaled to CAL_LOOPS iterations.
    """
    t0 = time.perf_counter()
    acc, x = 0.0, 0.3
    for _ in range(loops):
        a, b = _cal_kernel(x, acc)
        acc = 0.5 * a - b
        x = -x
    return (time.perf_counter() - t0) * CAL_LOOPS / loops


class Clock:
    """Times requests, with the calibration loop run around each of them.

    Times are multiplied by CAL_REF_S over a calibration time, so they read
    as seconds on a host where the loop takes CAL_REF_S.  The host's speed
    flips between fast and slow states that last about a second or more.
    A run's times are scaled by ``factor()``, the mean of many short
    calibrations: a request that spans several states pays their average.
    The calibrations run around each in-process request (``time``), or
    from a second thread while a child process runs (``during``).
    WORKLOADS.md has the measured gain.
    """

    def __init__(self):
        self.cal = []

    def calibrate(self):
        self.cal.append(calibration_s())

    def time(self, fn):
        """(fn(), its raw wall time), calibrating before and after."""
        self.calibrate()
        t0 = time.perf_counter()
        out = fn()
        dt = time.perf_counter() - t0
        self.calibrate()
        return out, dt

    def during(self, fn):
        """(fn(), its raw wall time), calibrating every CAL_SAMPLE_PERIOD_S
        from a second thread while fn runs.

        For a fn that waits for a child process on the same CPU: a request
        of seconds spans many of the host's fast and slow states, which
        calibrations before and after it sample too sparsely.  The short
        loops take a few percent of the CPU from the child, the same share
        in every run.  Use either this or ``time`` on one clock, not both.
        """
        stop = threading.Event()

        def sample():
            while not stop.wait(CAL_SAMPLE_PERIOD_S):
                self.cal.append(calibration_s(CAL_LOOPS // CAL_SAMPLE_DIV))

        sampler = threading.Thread(target=sample)
        sampler.start()
        try:
            return _timed(fn)
        finally:
            stop.set()
            sampler.join()

    def factor(self):
        return CAL_REF_S / statistics.fmean(self.cal)


def _spin(fn, seconds):
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        fn()


def _percentiles_us(values):
    import numpy as np
    p50, p99 = np.percentile(np.asarray(values) * 1e6, [50, 99])
    return p50, p99


def _orbit_set_outputs():
    import zonalprop as zp
    import workloads
    ts = workloads.dense_grid()
    states = workloads.orbit_set()
    return states, ts, {n: zp.ephemeris_array(zp.CartesianState(*s), 0.0, ts, zp.EARTH)
                        for n, s in states.items()}


def _accuracy(result, states, ts, outputs):
    """pos_err_m.<orbit>; rows beyond the gross-error limit fail."""
    import checks
    failed = 0
    for name, (err_m, bad) in checks.orbit_accuracy(states, outputs, ts).items():
        result.put(f"pos_err_m.{name}", err_m, "m")
        failed += int(bad.sum())
    return failed


def _library_probe():
    import workloads
    return ("import zonalprop as zp\n"
            f"zp.ephemeris_array(zp.CartesianState(*{workloads.LEO_STATE!r}), 0.0, [0.0], zp.EARTH)\n"
            "print('ready', flush=True)\n")


# ---------------------------------------------------------------------------
# orbit-set-dense
# ---------------------------------------------------------------------------

def dense(seed, seconds, trace):
    """Fixed inputs: the seed is not used."""
    import numpy as np
    import zonalprop as zp
    import workloads
    res = Result()
    if not trace:
        res.put("setup_s", _setup_seconds(_library_probe()), "s")
    states = workloads.orbit_set()
    ts = workloads.dense_grid()
    carts = {n: zp.CartesianState(*s) for n, s in states.items()}
    for n, c in carts.items():
        mean = zp.osculating_to_mean(c, zp.EARTH)
        res.note(f"orbit {n}: formulation={mean.formulation} "
                 f"chart={'retrograde' if mean.retrograde else 'prograde'}")

    def one_pass(timer):
        out, times = {}, {}
        for n, c in carts.items():
            out[n], times[n] = timer(lambda: zp.ephemeris_array(c, 0.0, ts, zp.EARTH))
        return out, times

    if trace:
        return _trace_run(
            res, seed, lambda: _timed(lambda: one_pass(_timed)[0]),
            lambda out: (_dense_bad(out, states), len(carts) * len(ts), 0),
            lambda: [zp.ephemeris_array(c, 0.0, ts[::COUNT_STRIDE], zp.EARTH)
                     for c in carts.values()])

    _spin(lambda: [zp.ephemeris_array(c, 0.0, ts[:1000], zp.EARTH) for c in carts.values()],
          WARMUP_S)
    clock = Clock()
    first, samples, passes, mismatched = None, {n: [] for n in carts}, 0, 0
    end = time.perf_counter() + seconds
    while passes == 0 or time.perf_counter() < end:
        out, times = one_pass(clock.time)
        passes += 1
        for n in carts:
            samples[n].append(times[n])
        if first is None:
            first = out
        else:
            mismatched += sum(int(np.any(out[n] != first[n], axis=1).sum()) for n in carts)
    res.put("peak_rss_mb", _peak_rss_mb(), "MB")

    typical = {n: statistics.fmean(v) * clock.factor() for n, v in samples.items()}
    res.put("epochs_per_s", len(carts) * len(ts) / sum(typical.values()), "1/s")
    p50, p99 = _percentiles_us(list(typical.values()))
    res.put("object_us_p50", p50, "us")
    res.put("object_us_p99", p99, "us")
    res.note(f"passes={passes}; latency samples: {len(carts)} orbit-day requests "
             f"(mean of {passes} passes each)")
    res.attempted = passes * len(carts) * len(ts)
    bad = _dense_bad(first, states) + _accuracy(res, states, ts, first)
    res.failed = min(res.attempted, passes * bad + mismatched)
    return res


def _dense_bad(outputs, states):
    import checks
    return sum(int(checks.bad_rows(outputs[n], states[n]).sum()) for n in states)


# ---------------------------------------------------------------------------
# catalog-snapshot
# ---------------------------------------------------------------------------

def catalog(seed, seconds, trace):
    import numpy as np
    import zonalprop as zp
    import workloads
    res = Result()
    if not trace:
        res.put("setup_s", _setup_seconds(_library_probe()), "s")
    states, epochs = workloads.catalog(seed)
    carts = [zp.CartesianState(*row) for row in states.tolist()]
    t0s = epochs.tolist()
    n = len(carts)
    now = [0.0]

    def one_pass(limit=n, end=None, clock=None):
        """Ask for objects [0, limit) once: (rows, seconds, rejected, raised).

        With a ``clock`` the calibration loop runs between blocks of
        CAL_BLOCK objects, and each block's times are scaled by the mean of
        the two calibrations around it (see ``Clock``); with ``end`` the
        pass stops after the first block that ends past it.
        """
        rows = np.full((limit, 6), np.nan)
        took = np.full(limit, np.nan)
        rejected = np.zeros(limit, dtype=bool)
        raised = np.zeros(limit, dtype=bool)
        eph, now_s = zp.ephemeris_array, time.perf_counter
        if clock is not None:
            clock.calibrate()
        for start in range(0, limit, CAL_BLOCK):
            stop = min(limit, start + CAL_BLOCK)
            for k in range(start, stop):
                t0 = now_s()
                try:
                    out = eph(carts[k], t0s[k], now, zp.EARTH)
                except zp.CriticalInclinationError:
                    took[k] = now_s() - t0
                    rejected[k] = True
                    continue
                except Exception as exc:  # any other error is a failed request
                    took[k] = now_s() - t0
                    raised[k] = True
                    if len(res.notes) < 20:
                        res.note(f"object {k} raised {exc!r}")
                    continue
                took[k] = now_s() - t0
                rows[k] = out[0]
            if clock is not None:
                clock.calibrate()
                took[start:stop] *= CAL_REF_S / statistics.fmean(clock.cal[-2:])
            if end is not None and now_s() > end:
                return rows[:stop], took[:stop], rejected[:stop], raised[:stop]
        return rows, took, rejected, raised

    shares = workloads.input_shares(states)
    if trace:
        def check(out):
            _, _, rejected, raised = out
            failed = int(_catalog_bad(out, states, carts, t0s).sum())
            return failed, n - int(rejected.sum()) - int(raised.sum()), int(rejected.sum())
        return _trace_run(res, seed, lambda: _timed(one_pass), check,
                          lambda: one_pass(limit=COUNT_OBJECTS))

    _spin(lambda: one_pass(limit=500), WARMUP_S)
    clock = Clock()
    end = time.perf_counter() + seconds
    first = one_pass(clock=clock)
    samples = np.full((1, n), np.nan)
    samples[0] = first[1]
    passes, attempted, mismatched = 1, n, 0
    while time.perf_counter() < end:
        rows, took, rejected, raised = one_pass(end=end, clock=clock)
        m = len(took)
        passes += 1
        attempted += m
        samples = np.vstack([samples, np.full(n, np.nan)])
        samples[-1, :m] = took
        same = np.all((rows == first[0][:m]) | (np.isnan(rows) & np.isnan(first[0][:m])), axis=1)
        mismatched += int(np.count_nonzero(~same | (rejected != first[2][:m])
                                           | (raised != first[3][:m])))
    res.put("peak_rss_mb", _peak_rss_mb(), "MB")

    _, _, rejected, raised = first
    delivered = n - int(rejected.sum()) - int(raised.sum())
    # per object the median of its calibrated times: a request lasts 50 us,
    # less than one interruption of the host, so a mean would count
    # interruptions; a block lasts 0.1 s, shorter than the host's fast and
    # slow states, so the calibrations around it tell which one it ran in
    typical = np.nanmedian(samples, axis=0)
    res.put("epochs_per_s", delivered / float(typical.sum()), "1/s")
    p50, p99 = _percentiles_us(typical)
    res.put("object_us_p50", p50, "us")
    res.put("object_us_p99", p99, "us")
    res.note(f"passes={passes} (last one partial); latency samples: {n} objects "
             f"(median of up to {passes} requests each; p99 has {n // 100} beyond it)")
    res.note("input shares: " + ", ".join(f"{k}={v:.4f}" for k, v in shares.items())
             + f", guard_rejected={rejected.mean():.4f}")

    bad = _catalog_bad(first, states, carts, t0s)
    requests = np.count_nonzero(~np.isnan(samples), axis=0)
    res.attempted = attempted
    res.failed = min(attempted, int(requests[bad].sum()) + mismatched)
    acc_states, ts, outputs = _orbit_set_outputs()
    res.failed += _accuracy(res, acc_states, ts, outputs)
    res.attempted += len(acc_states) * len(ts)
    return res


def _catalog_bad(first, states, carts, t0s):
    """Failed objects: raised, bad row, or epoch round trip beyond the limit."""
    import numpy as np
    import zonalprop as zp
    import checks
    rows, _, rejected, raised = first
    answered = ~rejected & ~raised
    bad = raised.copy()
    bad[answered] |= checks.bad_rows(rows[answered], states[answered])
    idx = np.flatnonzero(answered & ~bad)
    back = np.full((len(idx), 6), np.nan)
    for i, k in enumerate(idx):
        try:
            back[i] = zp.ephemeris_array(carts[k], t0s[k], [t0s[k]], zp.EARTH)[0]
        except Exception:  # the same state answered at t but not at t0: failed
            pass
    residual = checks.position_error_km(back, states[idx])
    bad[idx[~(residual <= checks.ROUND_TRIP_LIMIT_KM)]] = True
    return bad


# ---------------------------------------------------------------------------
# cli-propagate
# ---------------------------------------------------------------------------

CLI_MAIN = "import sys\nfrom zonalprop.cli import main\nsys.exit(main())\n"


def _cli_argv(path, extra=None):
    import workloads
    return ["propagate", "--config", os.path.join(ROOT, workloads.CLI_CONFIG),
            *(extra or workloads.CLI_ARGS), "--ephemeris", path]


def _cli_expected(ts):
    """In-process ephemeris for the CLI's config state on the grid ``ts``."""
    import zonalprop as zp
    import workloads
    state, epoch = workloads.cli_state(ROOT)
    return state, zp.ephemeris_array(zp.CartesianState(*state), epoch, ts, zp.EARTH)


def _cli_grid(n, step=1.0):
    import numpy as np
    import workloads
    _, epoch = workloads.cli_state(ROOT)
    return epoch + step * np.arange(n)


def _cli_bad(path, n, step=1.0):
    import checks
    ts = _cli_grid(n, step)
    state, expected = _cli_expected(ts)
    return checks.csv_mismatch(path, ts, expected) | checks.bad_rows(expected, state)


def cli(seed, seconds, trace):
    """Fixed inputs: the seed is not used."""
    import workloads
    res = Result()
    os.makedirs(TMP_PARENT, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix="cli-", dir=TMP_PARENT)
    try:
        if trace:
            return _cli_trace(res, seed, tmp)
        probe = ("from zonalprop.cli import main\n"
                 f"main({_cli_argv(os.path.join(tmp, 'probe.csv'), ['--duration', '0'])!r})\n"
                 "print('ready', flush=True)\n")
        res.put("setup_s", _setup_seconds(probe), "s")
        clock = Clock()
        walls, rss_kb, runs, failed = [], 0, 0, 0
        reference = os.path.join(tmp, "run0.csv")
        end = time.perf_counter() + seconds
        while runs == 0 or time.perf_counter() < end:
            path = reference if runs == 0 else os.path.join(tmp, "run.csv")
            with open(os.path.join(tmp, "stderr.txt"), "w") as err:
                def run_once():
                    p = subprocess.Popen([sys.executable, "-c", CLI_MAIN, *_cli_argv(path)],
                                         stdout=subprocess.DEVNULL, stderr=err,
                                         env=_child_env(), cwd=tmp)
                    _, status, rusage = os.wait4(p.pid, 0)
                    p.returncode = os.waitstatus_to_exitcode(status)
                    return p, rusage
                (proc, usage), wall = clock.during(run_once)
                walls.append(wall)
            rss_kb = max(rss_kb, usage.ru_maxrss)
            runs += 1
            if proc.returncode != 0:
                failed += workloads.CLI_ROWS
                with open(os.path.join(tmp, "stderr.txt")) as err:
                    res.note(f"cli run exited {proc.returncode}: {err.read().strip()}")
            elif path != reference and not _same_file(path, reference):
                failed += workloads.CLI_ROWS
                res.note("a later cli run wrote a different file than the first")
        res.put("peak_rss_mb", rss_kb / 1024.0, "MB")
        wall = statistics.fmean(walls) * clock.factor()
        res.put("epochs_per_s", workloads.CLI_ROWS / wall, "1/s")
        res.put("object_us_p50", wall * 1e6, "us")
        res.put("object_us_p99", wall * 1e6, "us")
        res.note(f"cli_wall_s = {wall:.4f} s (mean of {runs} runs)")
        res.attempted = runs * workloads.CLI_ROWS
        bad = runs * int(_cli_bad(reference, workloads.CLI_ROWS).sum())
        res.failed = min(res.attempted, failed + bad)
        acc_states, ts, outputs = _orbit_set_outputs()
        res.failed += _accuracy(res, acc_states, ts, outputs)
        res.attempted += len(acc_states) * len(ts)
        return res
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(TMP_PARENT)


def _same_file(a, b):
    import filecmp
    return filecmp.cmp(a, b, shallow=False)


def _cli_trace(res, seed, tmp):
    import io
    import workloads
    from zonalprop import cli as zcli
    path = os.path.join(tmp, "trace.csv")

    def quiet_main(argv):
        with contextlib.redirect_stdout(io.StringIO()):
            return zcli.main(argv)

    def check(code):
        rows = workloads.CLI_ROWS
        failed = rows if code != 0 else int(_cli_bad(path, rows).sum())
        return failed, rows, 0

    counted = ["--duration", "86400", "--step", str(float(COUNT_STRIDE))]
    return _trace_run(res, seed, lambda: _timed(lambda: quiet_main(_cli_argv(path))), check,
                      lambda: quiet_main(_cli_argv(os.path.join(tmp, "count.csv"), counted)),
                      rows_written=workloads.CLI_ROWS)


# ---------------------------------------------------------------------------
# traced and counted passes
# ---------------------------------------------------------------------------

def _timed(fn):
    t0 = time.perf_counter()
    out = fn()
    return out, time.perf_counter() - t0


def _trace_run(res, seed, one_pass, check, count_pass, rows_written=0):
    """Per-layer metrics from one traced pass, two counted passes and the
    edge probe.

    ``one_pass`` returns (output, seconds); the untraced time is the faster
    of two untraced passes around the traced one.  ``check(output)`` returns
    (failed results, states delivered, guard rejections) of the traced pass.
    """
    import layers as tr
    untraced = [one_pass()[1]]
    with tr.traced(tr.Timings()) as timings:
        out, traced_s = one_pass()
    untraced.append(one_pass()[1])
    failed, states_delivered, rejects = check(out)
    edge_failed, edge_attempted, edge_rejects = _edge_probe(res, seed)
    res.put("longperiod.guard_rejects", rejects + edge_rejects, "count")

    counts = []
    for _ in range(2):
        with tr.traced(tr.Counts()) as c:
            count_pass()
        counts.append(c)
    counts_equal = counts[0].key() == counts[1].key()
    if not counts_equal:
        res.note("the two counted passes disagree")

    attributed = 0.0
    for layer, name, _, _ in tr.BOUNDARIES:
        b = tr.boundary_name(layer, name)
        calls = timings.calls.get(b, 0)
        self_s = timings.self_s.get(b, 0.0)
        attributed += self_s
        res.put(f"{b}.calls", calls / states_delivered, "1/state")
        res.put(f"{b}.self_us", self_s / calls * 1e6 if calls else 0.0, "us")
        res.put(f"{b}.share", self_s / traced_s, "1")
        if layer == "cli":
            res.put(f"{b}.us_per_row", self_s / rows_written * 1e6 if rows_written else 0.0, "us")
            continue
        ccalls = counts[0].calls.get(b, 0)
        res.put(f"{b}.trig_per_call", counts[0].trig.get(b, 0) / ccalls if ccalls else 0.0, "1/call")
        res.put(f"{b}.sqrt_per_call", counts[0].sqrt.get(b, 0) / ccalls if ccalls else 0.0, "1/call")
    res.put("trace.absent_boundaries", len(timings.absent), "count")
    if timings.absent:
        res.note("absent boundaries: " + ", ".join(timings.absent))
    res.put("trace.overhead_frac", traced_s / min(untraced) - 1.0, "1")
    res.put("trace.unattributed_frac", (traced_s - attributed) / traced_s, "1")
    res.put("cli.import_s", _import_seconds("zonalprop.cli"), "s")
    paper_ok = _paper_pass_counts(res)

    # the traced results plus the two count-consistency checks
    res.attempted = states_delivered + rejects + edge_attempted + 2
    res.failed = failed + edge_failed + (not counts_equal) + (not paper_ok)
    return res


def _edge_probe(res, seed):
    """Round trips inside the edge bands the catalogue leaves out.

    Each probe state is asked for at t = 0 and at its own epoch.  A row
    that breaks N, or a round trip beyond ROUND_TRIP_LIMIT_KM, is the
    measured defect at that edge: it is counted in ``edges.<band>_misses``,
    not as a failure.  An error other than a guard rejection, or a row that
    is not finite, fails.  Returns (failed, attempted, guard rejections).
    """
    import numpy as np
    import zonalprop as zp
    import checks
    import workloads
    failed = attempted = rejects = 0
    for band, (states, epochs) in workloads.edge_probe(seed).items():
        misses = 0
        for state, t0 in zip(states, epochs.tolist()):
            attempted += 1
            cart = zp.CartesianState(*state)
            try:
                now = zp.ephemeris_array(cart, t0, [0.0], zp.EARTH)
                back = zp.ephemeris_array(cart, t0, [t0], zp.EARTH)
            except zp.CriticalInclinationError:
                rejects += 1
                continue
            except Exception as exc:  # any other error is a failed request
                failed += 1
                if len(res.notes) < 20:
                    res.note(f"edge probe {band} raised {exc!r}")
                continue
            rows = np.vstack([now, back])
            if not np.all(np.isfinite(rows)):
                failed += 1
            elif (checks.bad_rows(rows, state).any() or not
                  checks.position_error_km(back, state[None])[0] <= checks.ROUND_TRIP_LIMIT_KM):
                misses += 1
        res.put(f"edges.{band}_misses", misses, "count")
    return failed, attempted, rejects


def _import_seconds(module):
    """Median import time of ``module`` in fresh interpreters."""
    probe = ("import time\nt0 = time.perf_counter()\n"
             f"import {module}\nprint(time.perf_counter() - t0)\n")
    samples = []
    for _ in range(3):
        out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                             env=_child_env(), cwd=ROOT, check=True, timeout=120)
        samples.append(float(out.stdout.split()[-1]))
    return statistics.median(samples)


def _paper_pass_counts(res):
    """The paper's per-pass transcendental counts, nonsingular vs Delaunay series.

    Returns whether two passes gave the same counts.
    """
    import zonalprop as zp
    from zonalprop.benchmark import run_benchmark
    import workloads
    d = zp.osculating_to_mean(zp.CartesianState(*workloads.LEO_STATE), zp.EARTH).delaunay
    a, b = run_benchmark(d, zp.EARTH, iterations=0), run_benchmark(d, zp.EARTH, iterations=0)
    res.put("benchmark.nonsingular_pass.trig", a.nonsingular_trig, "count")
    res.put("benchmark.nonsingular_pass.sqrt", a.nonsingular_sqrt, "count")
    res.put("series.delaunay_pass.trig", a.delaunay_trig, "count")
    res.put("series.delaunay_pass.sqrt", a.delaunay_sqrt, "count")
    keys = ("nonsingular_trig", "nonsingular_sqrt", "delaunay_trig", "delaunay_sqrt")
    return all(getattr(a, k) == getattr(b, k) for k in keys)


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

RUNNERS = {"orbit-set-dense": dense, "catalog-snapshot": catalog, "cli-propagate": cli}


def environment():
    """Where the numbers were measured."""
    def version(pkg):
        try:
            return importlib.metadata.version(pkg)
        except importlib.metadata.PackageNotFoundError:
            return None
    return {
        "nproc": NPROC,
        "pinned_cpu": sorted(os.sched_getaffinity(0))[-1],
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "numba_available": importlib.util.find_spec("numba") is not None,
        "commit": _commit(),
    }


def _commit():
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head) as fh:
            ref = fh.read().strip()
        if ref.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", ref[5:])) as fh:
                return fh.read().strip()
        return ref
    except OSError:
        return "unknown (not a git checkout)"


def _print_result(workload, res):
    print(f"# {workload}")
    for line in res.notes:
        print(f"#   {line}")
    for name, m in res.metrics.items():
        print(f"{workload}  {name} = {m['value']:.6g} {m['unit']}")
    frac = res.failed / res.attempted if res.attempted else 0.0
    print(f"{workload}  failed_frac = {frac:.6g} ({res.failed} of {res.attempted})")
    print("env " + json.dumps(environment()))


def _run_all(args):
    """Each workload in its own fresh interpreter, one after the other."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for w in WORKLOADS:
        out = subprocess.run([sys.executable, os.path.abspath(__file__), "--workload", w,
                              "--seed", str(args.seed), "--seconds", str(args.seconds),
                              "--trace", str(args.trace)],
                             capture_output=True, text=True, cwd=ROOT)
        lines = out.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if out.returncode != 0 or not lines:
            sys.stderr.write(out.stderr)
            return out.returncode or 1
        part = json.loads(lines[-1])
        total["correct"] &= part["correct"]
        total["attempted"] += part["attempted"]
        total["failed"] += part["failed"]
        total["metrics"][w] = part["metrics"]
    print(json.dumps(total))
    return 0


def _pin_to_one_cpu():
    """Run this process and every interpreter it starts on one CPU, so that
    the calibration loop and the timed work share the same core."""
    cpus = sorted(os.sched_getaffinity(0))
    try:
        os.sched_setaffinity(0, {cpus[-1]})
    except OSError as exc:   # timing still works, only less steadily
        print(f"warning: cannot pin to one CPU: {exc}", file=sys.stderr)


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "zonalprop", "__init__.py")):
        print(f"error: no zonalprop sources under {SRC}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return _run_all(args)
    sys.path.insert(0, SRC)
    _pin_to_one_cpu()
    res = RUNNERS[args.workload](args.seed, args.seconds, bool(args.trace))
    _print_result(args.workload, res)
    print(json.dumps({"correct": res.failed == 0, "attempted": res.attempted,
                      "failed": res.failed, "metrics": res.metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
