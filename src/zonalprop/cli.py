"""Command-line interface: ephemeris generation, analytic-vs-numerical
comparison reports, and the correction-evaluation benchmark.

Configuration comes from an INI file (key = value sections); any flag given
on the command line overrides the file value.  Exit status is 0 on success,
2 when the critical-inclination guard rejects the orbit, 1 on other errors,
usage errors and unknown configuration sections or keys included.
"""

import argparse
import configparser
import math
import sys

import numpy as np

from ._kernels import EPOCH_BLOCK
from .errors import ConfigError, CriticalInclinationError, ZonalPropError
from .gravity import EARTH, GravityField
from .longperiod import CRITICAL_TOL
from .propagator import (PropagatorConfig, ephemeris_array, ephemeris_blocks,
                         mean_elements_series, osculating_to_mean)
from .secular import orbital_period
from .states import CartesianState

MODELS = ("two-body", "j2", "j2j3")

#: most epochs one run may ask for: ten million, 116 days at a 1 s step and
#: over a hundred times a one-day 1 s ephemeris.  The states are computed and
#: written block by block; the time grid is held whole, 8 bytes per epoch, so
#: this is 80 MB of grid and about 1.5 GB of CSV.  A longer span is split
#: over several runs.
MAX_GRID_EPOCHS = 10_000_000

#: the sections and keys the INI file may hold; any other is rejected, so a
#: misspelt key fails instead of silently leaving its default in force
CONFIG_KEYS = {
    "gravity": ("mu", "alpha", "c20", "c30"),
    "state": ("x", "y", "z", "vx", "vy", "vz", "epoch"),
    "run": ("duration", "step", "model", "short-period", "long-period", "secular",
            "critical-tol", "integrator-tol"),
    "compare": ("j2-multipliers",),
    "benchmark": ("iterations",),
    "output": ("ephemeris", "report", "mean-elements"),
}


def _fmt(x: float) -> str:
    return f"{x:.17g}"


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

def _read_config(path: str | None) -> configparser.ConfigParser:
    # values are literal: a % in a file name is kept, and %(key)s is not expanded
    cp = configparser.ConfigParser(inline_comment_prefixes=("#", ";"), interpolation=None)
    if path is not None:
        try:
            read = cp.read(path)
        except configparser.Error as exc:
            raise ConfigError(f"{path}: {exc}") from exc
        if not read:
            raise ConfigError(f"cannot read config file {path!r}")
    # a non-empty [DEFAULT] is checked first: its keys show up in every section
    for section in ([cp.default_section] if cp.defaults() else []) + cp.sections():
        if section not in CONFIG_KEYS:
            raise ConfigError(f"{path}: unknown section [{section}]; "
                              f"expected one of {', '.join(CONFIG_KEYS)}")
        unknown = [key for key in cp[section] if key not in CONFIG_KEYS[section]]
        if unknown:
            raise ConfigError(f"{path}: unknown key(s) {', '.join(unknown)} in "
                              f"[{section}]; expected {', '.join(CONFIG_KEYS[section])}")
    return cp


def _get(cp, section, key, override, default=None, cast=float):
    if override is not None:
        return override
    if cp.has_option(section, key):
        raw = cp.get(section, key).strip()
        if raw == "":
            return default
        if cast is bool:
            states = configparser.ConfigParser.BOOLEAN_STATES
            if raw.lower() not in states:
                raise ConfigError(f"[{section}] {key} = {raw!r} is not a boolean; "
                                  f"use one of {', '.join(states)}")
            return states[raw.lower()]
        try:
            return cast(raw)
        except ValueError:
            kind = "an integer" if cast is int else "a number"
            raise ConfigError(f"[{section}] {key} = {raw!r} is not {kind}") from None
    return default


def _build_field(cp, args) -> GravityField:
    mu = _get(cp, "gravity", "mu", args.mu, EARTH.mu)
    alpha = _get(cp, "gravity", "alpha", args.alpha, EARTH.alpha)
    c20 = _get(cp, "gravity", "c20", args.c20, EARTH.c20)
    c30 = _get(cp, "gravity", "c30", args.c30, EARTH.c30)
    return GravityField(mu=mu, alpha=alpha, c20=c20, c30=c30)


def _build_state(cp, args) -> CartesianState:
    vals = {}
    for key in ("x", "y", "z", "vx", "vy", "vz"):
        vals[key] = _get(cp, "state", key, getattr(args, key))
        if vals[key] is None:
            raise ConfigError(f"initial state component {key!r} is missing")
    return CartesianState(**vals)


def _build_run(cp, args):
    epoch = _get(cp, "state", "epoch", args.epoch, 0.0)
    duration = _get(cp, "run", "duration", args.duration, 0.0)
    step = _get(cp, "run", "step", args.step, 60.0)
    model = _get(cp, "run", "model", args.model, "j2j3", cast=str)
    if model not in MODELS:
        raise ConfigError(f"model must be one of {MODELS}, got {model!r}")
    config = PropagatorConfig(
        short_period=_get(cp, "run", "short-period", args.short_period, True, cast=bool),
        long_period=_get(cp, "run", "long-period", args.long_period, True, cast=bool),
        secular=_get(cp, "run", "secular", args.secular, True, cast=bool),
        critical_tol=_get(cp, "run", "critical-tol", args.critical_tol, CRITICAL_TOL),
    )
    tol = _get(cp, "run", "integrator-tol", args.integrator_tol, 1e-12)
    return epoch, duration, step, model, config, tol


def _time_grid(epoch: float, duration: float, step: float) -> np.ndarray:
    for name, value in (("epoch", epoch), ("duration", duration), ("step", step)):
        if not math.isfinite(value):
            raise ConfigError(f"run setting {name} must be finite, got {value}")
    if duration < 0.0 or step <= 0.0:
        raise ConfigError("duration must be >= 0 and step > 0")
    span = duration / step + 1e-9
    if not span < MAX_GRID_EPOCHS:  # false for an overflowing ratio too
        raise ConfigError(f"duration / step = {duration / step:.6g} asks for more than "
                          f"{MAX_GRID_EPOCHS} epochs; split the run")
    n = int(math.floor(span)) + 1
    # the grid's last time, as the in-place arithmetic below computes it
    if not math.isfinite(float(n - 1) * step + epoch):
        raise ConfigError(f"epoch + duration = {epoch} + {duration} overflows a float")
    # in place: the same bits as epoch + step * np.arange(n), one array
    ts = np.arange(n, dtype=float)
    ts *= step
    ts += epoch
    return ts


# ---------------------------------------------------------------------------
# CSV text: ``%.17g`` per value, formatted in NumPy blocks
# ---------------------------------------------------------------------------

#: rows formatted per block.  Measured with getrusage on the one-day 1 s
#: ephemeris (seven columns), streamed, after a warm-up run: 757 page faults
#: and 34.2 MB peak RSS at 512 rows, against 770 and 34.3 MB at 1024 and
#: 1 295 and 36.4 MB at 2048, where each block's temporaries are larger; the
#: CPU time of those three was within run-to-run noise (0.21-0.26 s over
#: three runs each).  At 256 rows the fixed cost of the NumPy calls per block
#: made it 10% slower
_WRITE_ROWS = 512

#: bytes per value on the canvas, 11 four-byte words: room for the sign, 16
#: integer digits ending at byte 19, '.' at byte 20, 20 fraction digits and
#: the separator
_SLOT = 44
_POINT = 20

#: Veltkamp's splitter for doubles, 2**27 + 1
_SPLIT = 134217729.0

#: 10**s as exact doubles (exact up to s = 22), and as int64 capped at 10**17
#: where only a zero multiplies the capped entries
_POW10 = np.array([float(10 ** s) for s in range(23)])
_POW10_INT = np.array([10 ** min(s, 17) for s in range(23)], dtype=np.int64)


def _digit_words():
    """Four-byte words indexed by a group's table code, and the place of each
    word's last non-zero digit (negative for an all-zero group).

    Codes 0..9999 are the digits of a 4-digit group, 10000..10999 are '.'
    followed by a 3-digit group, 11000..11009 are one digit and three pad
    bytes.  Built by broadcasting, which is fast enough to run at import.
    """
    ascii = np.arange(ord("0"), ord("9") + 1, dtype=np.uint8)
    digits = np.empty((10, 10, 10, 10, 4), dtype=np.uint8)
    digits[..., 0] = ascii[:, None, None, None]
    digits[..., 1] = ascii[:, None, None]
    digits[..., 2] = ascii[:, None]
    digits[..., 3] = ascii
    last = np.full((10, 10, 10, 10), -64, dtype=np.int8)
    last[1:] = 1
    last[:, 1:] = 2
    last[:, :, 1:] = 3
    last[:, :, :, 1:] = 4
    digits, last = digits.reshape(10_000, 4), last.ravel()
    dot3 = digits[:1000].copy()
    dot3[:, 0] = ord(".")
    one = np.full((10, 4), ord(" "), dtype=np.uint8)
    one[:, 0] = ascii
    words = np.concatenate([digits, dot3, one]).view(np.uint32).ravel()
    ones = np.where(ascii > ord("0"), 1, -64)
    return words, np.concatenate([last, last[:1000] - 1, ones]).astype(np.int8)


_WORDS, _LAST_DIGIT = _digit_words()
#: place in the fraction of the digit before each fraction word's first digit
_FRACTION_PLACE = np.array([0, 3, 7, 11, 15, 19], dtype=np.int8)[:, None]
#: row start * _SLOT + end holds the mask of the canvas bytes start..end
_RUN_MASK = ((np.arange(_SLOT)[None, None, :] >= np.arange(_SLOT)[:, None, None])
             & (np.arange(_SLOT)[None, None, :] <= np.arange(_SLOT)[None, :, None])
             ).reshape(_SLOT * _SLOT, _SLOT)


def _two_product(a, b):
    """Dekker's error-free product: a * b == p + e exactly (no overflow or
    underflow in the range it is used for)."""
    p = a * b
    t = _SPLIT * a
    ah = t - (t - a)
    al = a - ah
    t = _SPLIT * b
    bh = t - (t - b)
    bl = b - bh
    return p, ((ah * bh - p) + ah * bl + al * bh) + al * bl


def _scaled_significand(a, k):
    """a * 10**(16 - k) rounded half-even to an integer, exactly, and the step
    that moves k towards a's decimal exponent: -1, 0 or +1, by whether the
    exact product lies below, in or above [10**16, 10**17)."""
    p, e = _two_product(a, _POW10[16 - k])
    # in range p >= 10**16 > 2**53 is an even integer, so rounding p + e
    # half-even rounds e half-even
    n = p.astype(np.int64) + np.rint(e).astype(np.int64)
    below = (p < 1e16) | ((p == 1e16) & (e < 0.0))
    above = (p > 1e17) | ((p == 1e17) & (e >= 0.0))
    return n, above.astype(np.int64) - below


def _significands(a):
    """17-digit significands N and decimal exponents k of a in [1e-4, 1e16),
    so that N * 10**(k - 16) is a rounded to 17 significant digits, as
    ``%.17g`` rounds it."""
    k = np.floor(np.log10(a)).astype(np.int64)
    n, step = _scaled_significand(a, k)
    redo = np.flatnonzero(step)
    step = step[redo]
    while redo.size:  # log10 was one off next to a power of ten: only these again
        k[redo] += step
        n[redo], step = _scaled_significand(a[redo], k[redo])
        redo, step = redo[step != 0], step[step != 0]
    # n < 10**17: rounding never carries into the next decade, because no
    # double below a power of ten in this range lies within 5e-18 of it
    # (the closest, below 0.1, is 8.3e-17 away)
    return n, k


def _split4(x, out):
    """The four 4-digit groups of x < 10**16, most significant first, into
    the rows of out (scalar divisors, which NumPy divides fast)."""
    high = x // 100_000_000
    low = x - high * 100_000_000
    np.floor_divide(high, 10_000, out=out[0])
    np.subtract(high, out[0] * 10_000, out=out[1])
    np.floor_divide(low, 10_000, out=out[2])
    np.subtract(low, out[2] * 10_000, out=out[3])


def _format_block(values, seps) -> str:
    """``'%.17g' % v`` for each value, each followed by its separator byte.

    0 and 1e-4 <= |v| < 1e16, where ``%.17g`` prints fixed notation, are laid
    out in NumPy; every other value (exponent form, nan, inf) is formatted by
    ``%`` into its own slot.
    """
    n = values.size
    a = np.abs(values)
    fixed = (a >= 1e-4) & (a < 1e16)
    zero = a == 0.0
    work = np.where(fixed, a, 1.0)  # 1.0 stands in for zero and the values % formats
    big, k = _significands(work)
    if zero.any():
        big[zero], k[zero], work[zero] = 0, 0, 0.0
        fixed |= zero
    # digits before the point: a's integer part, which 17-digit rounding never
    # changes; the m = 16 - k digits after it, left-aligned in 20 places, split
    # into head (3 digits) and tail (17 digits)
    ipart = np.floor(work).astype(np.int64)
    m = 16 - k
    rest = big - ipart * _POW10_INT[m]
    cut = np.maximum(m - 3, 0)
    head = rest // _POW10_INT[cut]
    tail = (rest - head * _POW10_INT[cut]) * _POW10_INT[20 - np.maximum(m, 3)]
    head *= _POW10_INT[np.maximum(3 - m, 0)]

    # table codes of the 11 words, one row per word
    codes = np.empty((11, n), dtype=np.int64)
    codes[0] = 0
    _split4(ipart, codes[1:5])
    np.add(head, 10_000, out=codes[5])
    _split4(tail // 10, codes[6:10])
    np.add(tail % 10, 11_000, out=codes[10])
    # gathered word row by word row, then transposed: 2-3 times faster than
    # gathering through the transposed codes
    canvas = np.ascontiguousarray(_WORDS[codes].T).view(np.uint8)
    # fraction digits to print: up to the last non-zero one
    fraction = np.max(_LAST_DIGIT[codes[5:]] + _FRACTION_PLACE, axis=0)

    start = _POINT - 1 - np.maximum(k, 0)
    end = np.where(fraction > 0, _POINT + 1 + fraction, _POINT)
    neg = np.signbit(values) & fixed
    start -= neg
    base = np.arange(0, n * _SLOT, _SLOT)
    flat = canvas.reshape(-1)
    flat[(base + start)[neg]] = ord("-")

    other = np.flatnonzero(~fixed)
    if other.size:
        text = ((f"%-{_SLOT}.17g" * other.size) % tuple(values[other].tolist())).encode()
        slots = np.frombuffer(text, dtype=np.uint8).reshape(other.size, _SLOT)
        canvas[other] = slots
        start[other] = 0
        end[other] = np.count_nonzero(slots != ord(" "), axis=1)
    flat[base + end] = seps
    return canvas[np.take(_RUN_MASK, start * _SLOT + end, axis=0)].tobytes().decode("ascii")


def _write_table(fh, columns, sep: str) -> None:
    """Write the columns (1-D or 2-D arrays of one length) side by side, one
    line per row, each value as ``%.17g``: the bytes of ``_fmt`` per value.

    Formats ``_WRITE_ROWS`` rows per write, so memory stays bounded.
    """
    n = len(columns[0])
    seps = None
    for i in range(0, n, _WRITE_ROWS):
        block = np.column_stack([c[i:i + _WRITE_ROWS] for c in columns])
        if seps is None:
            row = np.full(block.shape[1], ord(sep), dtype=np.uint8)
            row[-1] = ord("\n")
            seps = np.tile(row, len(block))
        fh.write(_format_block(block.astype(float, copy=False).ravel(), seps[:block.size]))


def _write_ephemeris(path: str, blocks, header: str = "t,x,y,z,X,Y,Z") -> None:
    """CSV of rows against time, from (t, rows) blocks written in turn:
    Cartesian states by default, or mean elements with the header
    ``t,ell,g,h,L,G,H``.  Each block is written before the next is asked for."""
    with open(path, "w") as fh:
        fh.write(header + "\n")
        for ts, rows in blocks:
            _write_table(fh, (ts, rows), ",")


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _cmd_propagate(cp, args) -> int:
    field = _build_field(cp, args)
    state = _build_state(cp, args)
    epoch, duration, step, model, config, _ = _build_run(cp, args)
    field = field.restricted(model)
    ts = _time_grid(epoch, duration, step)
    # every check runs here, before a file is created
    states = ephemeris_blocks(state, epoch, ts, field, config)
    out = _get(cp, "output", "ephemeris", args.ephemeris, "ephemeris.csv", cast=str)
    _write_ephemeris(out, states)
    mean_path = _get(cp, "output", "mean-elements", args.mean_elements, None, cast=str)
    if mean_path:
        mean = osculating_to_mean(state, field, config)
        grid = (ts[i:i + EPOCH_BLOCK] for i in range(0, len(ts), EPOCH_BLOCK))
        _write_ephemeris(mean_path, ((t, mean_elements_series(mean, epoch, t, field, config))
                                     for t in grid), header="t,ell,g,h,L,G,H")
    print(f"wrote {len(ts)} ephemeris rows to {out}")
    return 0


def _slope_table(state, epoch, field, config, tol, multipliers):
    """RMS analytic-vs-numerical position error over one period per J2
    multiplier (odd zonal off, so the residual is the pure J2^2 one)."""
    from .oracle import integrate_grid
    rows = []
    for lam in multipliers:
        f_lam = field.scaled(j2_factor=lam).restricted("j2")
        mean = osculating_to_mean(state, f_lam, config)
        period = orbital_period(mean.delaunay.L, f_lam)
        ts = epoch + np.linspace(0.0, period, 200)
        ana = ephemeris_array(state, epoch, ts, f_lam, config)
        num = integrate_grid(state, epoch, ts, f_lam, tol)
        err = np.sqrt(np.mean(np.sum((ana[:, :3] - num[:, :3]) ** 2, axis=1)))
        rows.append((lam, err))
    lams = np.log([r[0] for r in rows])
    errs = np.log([r[1] for r in rows])
    slope = float(np.polyfit(lams, errs, 1)[0])
    return rows, slope


def _cmd_compare(cp, args) -> int:
    # the reference integrator needs SciPy: imported here so that the other
    # subcommands start without it
    from .oracle import integrate_grid
    field = _build_field(cp, args)
    state = _build_state(cp, args)
    epoch, duration, step, model, config, tol = _build_run(cp, args)
    field = field.restricted(model)
    ts = _time_grid(epoch, duration, step)
    raw = _get(cp, "compare", "j2-multipliers", args.j2_multipliers,
               "1,0.5,0.25,0.125", cast=str)
    try:
        multipliers = [float(v) for v in raw.split(",") if v.strip()]
    except ValueError:
        multipliers = []
    # the slope is fitted to log(lambda): two different positive values at least
    if len(set(multipliers)) < 2 or not all(0.0 < lam < math.inf for lam in multipliers):
        raise ConfigError(f"[compare] j2-multipliers = {raw!r} is not a comma-separated "
                          "list of two or more different positive numbers")
    ana = ephemeris_array(state, epoch, ts, field, config)
    num = integrate_grid(state, epoch, ts, field, tol)
    pos_err = np.sqrt(np.sum((ana[:, :3] - num[:, :3]) ** 2, axis=1))
    vel_err = np.sqrt(np.sum((ana[:, 3:] - num[:, 3:]) ** 2, axis=1))
    slope_rows, slope = (_slope_table(state, epoch, field, config, tol, multipliers)
                         if field.c20 else ((), None))

    out = _get(cp, "output", "report", args.report, "compare.txt", cast=str)
    with open(out, "w") as fh:
        fh.write("# analytic vs numerical comparison\n")
        fh.write(f"model = {model}\n")
        fh.write(f"integrator_tol = {_fmt(tol)}\n")
        fh.write("columns: t position_error velocity_error\n")
        _write_table(fh, (ts, pos_err, vel_err), " ")
        fh.write(f"rms_position_error = {_fmt(float(np.sqrt(np.mean(pos_err ** 2))))}\n")
        fh.write(f"max_position_error = {_fmt(float(pos_err.max()))}\n")
        fh.write(f"rms_velocity_error = {_fmt(float(np.sqrt(np.mean(vel_err ** 2))))}\n")
        fh.write(f"max_velocity_error = {_fmt(float(vel_err.max()))}\n")
        if slope is None:
            fh.write("# no J2-inflation scaling: c20 = 0, so scaling J2 changes nothing\n")
        else:
            fh.write("# J2-inflation scaling (odd zonal off, one orbital period)\n")
            fh.write("columns: lambda rms_position_error\n")
            _write_table(fh, (np.array(slope_rows),), " ")
            fh.write(f"slope = {slope:.3f}\n")
    scaling = "" if slope is None else f" (scaling slope {slope:.3f})"
    print(f"wrote comparison report to {out}{scaling}")
    return 0


def _cmd_benchmark(cp, args) -> int:
    # only this subcommand runs the benchmark: imported here so that the
    # others start without it
    from .benchmark import format_report, run_benchmark
    field = _build_field(cp, args)
    state = _build_state(cp, args)
    epoch, duration, step, model, config, _ = _build_run(cp, args)
    field = field.restricted(model)
    iterations = _get(cp, "benchmark", "iterations", args.iterations, 2000, cast=int)
    if iterations < 0:
        raise ConfigError(f"[benchmark] iterations must be >= 0, got {iterations}")
    mean = osculating_to_mean(state, field, config)
    report = run_benchmark(mean.delaunay, field, iterations)
    text = format_report(report)
    out = _get(cp, "output", "report", args.report, "benchmark.txt", cast=str)
    with open(out, "w") as fh:
        fh.write(text)
    print(text, end="")
    return 0


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="INI configuration file")
    g = p.add_argument_group("gravity")
    g.add_argument("--mu", type=float)
    g.add_argument("--alpha", type=float)
    g.add_argument("--c20", type=float)
    g.add_argument("--c30", type=float)
    s = p.add_argument_group("initial state (km, km/s)")
    for key in ("x", "y", "z", "vx", "vy", "vz"):
        s.add_argument(f"--{key}", type=float)
    s.add_argument("--epoch", type=float)
    r = p.add_argument_group("run")
    r.add_argument("--duration", type=float)
    r.add_argument("--step", type=float)
    r.add_argument("--model", choices=MODELS)
    r.add_argument("--short-period", action=argparse.BooleanOptionalAction, default=None)
    r.add_argument("--long-period", action=argparse.BooleanOptionalAction, default=None)
    r.add_argument("--secular", action=argparse.BooleanOptionalAction, default=None)
    r.add_argument("--critical-tol", type=float)
    r.add_argument("--integrator-tol", type=float)
    o = p.add_argument_group("output")
    o.add_argument("--ephemeris")
    o.add_argument("--report")
    o.add_argument("--mean-elements")


class _Parser(argparse.ArgumentParser):
    """Usage errors exit with status 1: status 2 means the critical-inclination
    guard rejected the orbit.  Subcommand parsers inherit this class."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _parser() -> argparse.ArgumentParser:
    p = _Parser(
        prog="zonalprop",
        description="Analytic J2+J3 zonal propagation with nonsingular "
                    "periodic corrections")
    sub = p.add_subparsers(dest="command", required=True)
    for name, help_text in (("propagate", "write an analytic ephemeris"),
                            ("compare", "compare against the numerical integrator"),
                            ("benchmark", "correction-evaluation benchmark")):
        sp = sub.add_parser(name, help=help_text)
        _add_common(sp)
        if name == "compare":
            sp.add_argument("--j2-multipliers",
                            help="comma-separated inflation factors for the slope table")
        if name == "benchmark":
            sp.add_argument("--iterations", type=int)
    return p


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        cp = _read_config(args.config)
        if args.command == "propagate":
            return _cmd_propagate(cp, args)
        if args.command == "compare":
            return _cmd_compare(cp, args)
        return _cmd_benchmark(cp, args)
    except CriticalInclinationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ZonalPropError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
