"""Command-line interface: ephemeris generation, analytic-vs-numerical
comparison reports, and the correction-evaluation benchmark.

Configuration comes from an INI file (key = value sections) that any
subcommand reads whole; each subcommand takes the flags of the settings it
reads (``CONFIG_KEYS``), and a flag overrides the file value.  Exit status
is 0 on success, 2 when the critical-inclination guard rejects the orbit, 1
on other errors, usage errors (a flag the subcommand does not read
included) and unknown configuration sections or keys included.
"""

import argparse
import configparser
import math
import sys

import numpy as np

from ._kernels import block_edges
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

#: the subcommands, and those of them that build a time grid
_ALL = ("propagate", "compare", "benchmark")
_GRID = ("propagate", "compare")


def _read_by(default, commands=_ALL):
    """{subcommand: default} for a setting the subcommands read."""
    return dict.fromkeys(commands, default)


#: every setting, the one list of them: (section, key) -> (cast, {subcommand
#: that reads it: its default}).  The INI file may hold any of these keys,
#: whatever the subcommand, and no other, so a misspelt key fails instead of
#: silently leaving its default in force.  Each subcommand takes the flag
#: ``--key`` of each setting it reads, and only those.  A cast that is a
#: tuple lists the values allowed
CONFIG_KEYS = {
    ("gravity", "mu"): (float, _read_by(EARTH.mu)),
    ("gravity", "alpha"): (float, _read_by(EARTH.alpha)),
    ("gravity", "c20"): (float, _read_by(EARTH.c20)),
    ("gravity", "c30"): (float, _read_by(EARTH.c30)),
    **{("state", key): (float, _read_by(None)) for key in ("x", "y", "z", "vx", "vy", "vz")},
    ("state", "epoch"): (float, _read_by(0.0, _GRID)),
    ("run", "duration"): (float, _read_by(0.0, _GRID)),
    ("run", "step"): (float, _read_by(60.0, _GRID)),
    ("run", "model"): (MODELS, _read_by("j2j3")),
    ("run", "short-period"): (bool, _read_by(True)),
    ("run", "long-period"): (bool, _read_by(True)),
    ("run", "secular"): (bool, _read_by(True)),
    ("run", "critical-tol"): (float, _read_by(CRITICAL_TOL)),
    ("run", "integrator-tol"): (float, _read_by(1e-12, ("compare",))),
    ("compare", "j2-multipliers"): (str, _read_by("1,0.5,0.25,0.125", ("compare",))),
    ("benchmark", "iterations"): (int, _read_by(2000, ("benchmark",))),
    ("output", "ephemeris"): (str, _read_by("ephemeris.csv", ("propagate",))),
    ("output", "report"): (str, {"compare": "compare.txt", "benchmark": "benchmark.txt"}),
    ("output", "mean-elements"): (str, _read_by(None, ("propagate",))),
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
    sections = dict.fromkeys(section for section, _ in CONFIG_KEYS)
    for section in ([cp.default_section] if cp.defaults() else []) + cp.sections():
        if section not in sections:
            raise ConfigError(f"{path}: unknown section [{section}]; "
                              f"expected one of {', '.join(sections)}")
        keys = [key for s, key in CONFIG_KEYS if s == section]
        unknown = [key for key in cp[section] if key not in keys]
        if unknown:
            raise ConfigError(f"{path}: unknown key(s) {', '.join(unknown)} in "
                              f"[{section}]; expected {', '.join(keys)}")
    return cp


def _get(cp, section, key, override, default, cast):
    if override is not None:
        return override
    raw = cp.get(section, key, fallback="").strip()
    if raw == "":
        return default
    if cast is bool:
        states = configparser.ConfigParser.BOOLEAN_STATES
        if raw.lower() not in states:
            raise ConfigError(f"[{section}] {key} = {raw!r} is not a boolean; "
                              f"use one of {', '.join(states)}")
        return states[raw.lower()]
    if isinstance(cast, tuple):
        if raw not in cast:
            raise ConfigError(f"{key} must be one of {cast}, got {raw!r}")
        return raw
    try:
        return cast(raw)
    except ValueError:
        kind = "an integer" if cast is int else "a number"
        raise ConfigError(f"[{section}] {key} = {raw!r} is not {kind}") from None


def _settings(cp, args) -> argparse.Namespace:
    """The settings ``args.command`` reads, by flag name (``short_period``):
    the flag if it was given, else the INI value, else the default."""
    values = {}
    for (section, key), (cast, defaults) in CONFIG_KEYS.items():
        if args.command in defaults:
            name = key.replace("-", "_")
            values[name] = _get(cp, section, key, getattr(args, name), defaults[args.command],
                                cast)
    return argparse.Namespace(**values)


def _orbit(s):
    """The field restricted to the model, the initial state and the
    propagator configuration of the settings ``s``."""
    field = GravityField(mu=s.mu, alpha=s.alpha, c20=s.c20, c30=s.c30)
    for key in ("x", "y", "z", "vx", "vy", "vz"):
        if getattr(s, key) is None:
            raise ConfigError(f"initial state component {key!r} is missing")
    state = CartesianState(s.x, s.y, s.z, s.vx, s.vy, s.vz)
    config = PropagatorConfig(short_period=s.short_period, long_period=s.long_period,
                              secular=s.secular, critical_tol=s.critical_tol)
    return field.restricted(s.model), state, config


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

def _cmd_propagate(s) -> int:
    field, state, config = _orbit(s)
    ts = _time_grid(s.epoch, s.duration, s.step)
    # every check runs here, before a file is created
    _write_ephemeris(s.ephemeris, ephemeris_blocks(state, s.epoch, ts, field, config))
    if s.mean_elements:
        mean = osculating_to_mean(state, field, config)
        edges = block_edges(len(ts))
        grid = (ts[lo:hi] for lo, hi in zip(edges[:-1], edges[1:]))
        _write_ephemeris(s.mean_elements,
                         ((t, mean_elements_series(mean, s.epoch, t, field, config))
                          for t in grid), header="t,ell,g,h,L,G,H")
    print(f"wrote {len(ts)} ephemeris rows to {s.ephemeris}")
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


def _cmd_compare(s) -> int:
    # the reference integrator needs SciPy: imported here so that the other
    # subcommands start without it
    from .oracle import integrate_grid
    field, state, config = _orbit(s)
    epoch, tol, raw = s.epoch, s.integrator_tol, s.j2_multipliers
    ts = _time_grid(epoch, s.duration, s.step)
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

    with open(s.report, "w") as fh:
        fh.write("# analytic vs numerical comparison\n")
        fh.write(f"model = {s.model}\n")
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
    print(f"wrote comparison report to {s.report}{scaling}")
    return 0


def _cmd_benchmark(s) -> int:
    # only this subcommand runs the benchmark: imported here so that the
    # others start without it
    from .benchmark import format_report, run_benchmark
    field, state, config = _orbit(s)
    if s.iterations < 0:
        raise ConfigError(f"[benchmark] iterations must be >= 0, got {s.iterations}")
    mean = osculating_to_mean(state, field, config)
    report = run_benchmark(mean.delaunay, field, s.iterations)
    text = format_report(report)
    with open(s.report, "w") as fh:
        fh.write(text)
    print(text, end="")
    return 0


#: each subcommand: the function that runs it and its help line
_COMMANDS = {
    "propagate": (_cmd_propagate, "write an analytic ephemeris"),
    "compare": (_cmd_compare, "compare against the numerical integrator"),
    "benchmark": (_cmd_benchmark, "correction-evaluation benchmark"),
}


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

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
    for name, (_, help_text) in _COMMANDS.items():
        sp = sub.add_parser(name, help=help_text, description=(
            "Each flag overrides the INI key of the same name.  Positions in km, "
            "velocities in km/s, times in s."))
        sp.set_defaults(parser=sp)
        sp.add_argument("--config", help="INI configuration file")
        groups = {}
        for (section, key), (cast, defaults) in CONFIG_KEYS.items():
            if name not in defaults:
                continue
            if section not in groups:
                groups[section] = sp.add_argument_group(f"[{section}]")
            if cast is bool:
                groups[section].add_argument(f"--{key}", action=argparse.BooleanOptionalAction)
            elif isinstance(cast, tuple):
                groups[section].add_argument(f"--{key}", choices=cast)
            else:
                groups[section].add_argument(f"--{key}", type=cast)
    return p


def main(argv=None) -> int:
    args, extra = _parser().parse_known_args(argv)
    if extra:
        # reported by the subcommand, whose usage lists the flags it takes
        args.parser.error(f"unrecognized arguments: {' '.join(extra)}")
    command = _COMMANDS[args.command][0]
    try:
        return command(_settings(_read_config(args.config), args))
    except CriticalInclinationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ZonalPropError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
