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
from .benchmark import format_report, run_benchmark
from .errors import ConfigError, CriticalInclinationError, ZonalPropError
from .gravity import EARTH, GravityField
from .longperiod import CRITICAL_TOL
from .propagator import (PropagatorConfig, ephemeris_array, mean_elements_series,
                         osculating_to_mean)
from .secular import orbital_period
from .states import CartesianState

MODELS = ("two-body", "j2", "j2j3")

#: most epochs one run may ask for: ten million, 116 days at a 1 s step and
#: over a hundred times a one-day 1 s ephemeris.  The whole (n, 6) float
#: ephemeris is held in memory before it is written, so this is about 0.5 GB
#: of states and 1.5 GB of CSV; a longer span is split over several runs.
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
    cp = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
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
        return cast(raw)
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
    return epoch + step * np.arange(int(math.floor(span)) + 1)


def _write_table(fh, columns, sep: str) -> None:
    """Write the columns (1-D or 2-D arrays of one length) side by side, one
    line per row, each value as ``%.17g``: the bytes of ``_fmt`` per value.

    Formats ``EPOCH_BLOCK`` rows per write, so memory stays bounded.
    """
    n = len(columns[0])
    for i in range(0, n, EPOCH_BLOCK):
        block = np.column_stack([c[i:i + EPOCH_BLOCK] for c in columns])
        row = sep.join(["%.17g"] * block.shape[1]) + "\n"
        fh.write((row * len(block)) % tuple(block.ravel().tolist()))


def _write_ephemeris(path: str, ts: np.ndarray, rows: np.ndarray,
                     header: str = "t,x,y,z,X,Y,Z") -> None:
    """CSV of the rows against time: Cartesian states by default, or mean
    elements with the header ``t,ell,g,h,L,G,H``."""
    with open(path, "w") as fh:
        fh.write(header + "\n")
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
    states = ephemeris_array(state, epoch, ts, field, config)
    out = _get(cp, "output", "ephemeris", args.ephemeris, "ephemeris.csv", cast=str)
    _write_ephemeris(out, ts, states)
    mean_path = _get(cp, "output", "mean-elements", args.mean_elements, None, cast=str)
    if mean_path:
        mean = osculating_to_mean(state, field, config)
        _write_ephemeris(mean_path, ts, mean_elements_series(mean, epoch, ts, field, config),
                         header="t,ell,g,h,L,G,H")
    print(f"wrote {len(ts)} ephemeris rows to {out}")
    return 0


def _slope_table(state, epoch, field, config, tol, multipliers):
    """RMS analytic-vs-numerical position error over one period per J2
    multiplier (odd zonal off, so the residual is the pure J2^2 one)."""
    from .oracle import integrate_grid
    rows = []
    for lam in multipliers:
        f_lam = GravityField(mu=field.mu, alpha=field.alpha,
                             c20=field.c20 * lam, c30=0.0)
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
    ana = ephemeris_array(state, epoch, ts, field, config)
    num = integrate_grid(state, epoch, ts, field, tol)
    pos_err = np.sqrt(np.sum((ana[:, :3] - num[:, :3]) ** 2, axis=1))
    vel_err = np.sqrt(np.sum((ana[:, 3:] - num[:, 3:]) ** 2, axis=1))

    raw = _get(cp, "compare", "j2-multipliers", args.j2_multipliers,
               "1,0.5,0.25,0.125", cast=str)
    multipliers = [float(v) for v in raw.split(",") if v.strip()]
    slope_rows, slope = _slope_table(state, epoch, field, config, tol, multipliers)

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
        fh.write("# J2-inflation scaling (odd zonal off, one orbital period)\n")
        fh.write("columns: lambda rms_position_error\n")
        _write_table(fh, (np.array(slope_rows),), " ")
        fh.write(f"slope = {slope:.3f}\n")
    print(f"wrote comparison report to {out} (scaling slope {slope:.3f})")
    return 0


def _cmd_benchmark(cp, args) -> int:
    field = _build_field(cp, args)
    state = _build_state(cp, args)
    epoch, duration, step, model, config, _ = _build_run(cp, args)
    field = field.restricted(model)
    iterations = int(_get(cp, "benchmark", "iterations", args.iterations, 2000))
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
