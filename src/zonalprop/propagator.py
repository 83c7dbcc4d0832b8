"""End-to-end analytic ephemeris pipeline.

osculating_to_mean:  Cartesian -> nonsingular -> inverse short-period
(evaluated at the osculating state) -> inverse long-period (evaluated at the
prime state) -> double-prime mean elements.

mean_to_osculating:  Kepler solve -> double-prime nonsingular state ->
direct long-period -> direct short-period -> Cartesian.

Every stage uses the full nonsingular forms of the corrections, so circular
and equatorial orbits need no special-casing; when the mean state is exactly
equatorial or circular the Delaunay angle split below is conventional
(f = 0 at e = 0, theta = 0 at s = 0) but every reconstructed output depends
only on the well-defined combinations, e.g. the mean longitude psi - phi.
The only excluded regime is the critical-inclination band of the
long-period stage, which runs when it is on and c20 != 0.
"""

import math
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from . import _kernels
from .errors import ConfigError, ZonalPropError
from .gravity import GravityField, check_small_params
from .longperiod import CRITICAL_TOL, critical_inclination_guard
from .secular import mean_angle_rates
from .states import (CartesianState, DelaunayState, cart_to_ns_checked, ellipse_elements,
                     elliptic_projections)


@dataclass(frozen=True)
class PropagatorConfig:
    """Pipeline switches and the critical-inclination tolerance.

    The periodic-correction stages and the perturbed secular terms can be
    toggled individually for diagnosis; with everything off the pipeline is
    an exact two-body propagator.  critical_tol must be finite and positive:
    0, a negative number or NaN would switch the guard off.
    """

    short_period: bool = True
    long_period: bool = True
    secular: bool = True
    critical_tol: float = CRITICAL_TOL

    def __post_init__(self):
        if not (math.isfinite(self.critical_tol) and self.critical_tol > 0.0):
            raise ConfigError(f"critical_tol must be finite and > 0, got {self.critical_tol}")


DEFAULT_CONFIG = PropagatorConfig()


@dataclass(frozen=True)
class MeanElements:
    """Double-prime mean elements plus reproducibility metadata."""

    delaunay: DelaunayState
    conventional_split: bool  # equatorial/circular angle split was conventional
    #: the one correction formulation the pipeline evaluates: a constant, not
    #: a field, kept readable because perfbench/run.py prints it per orbit
    formulation: ClassVar[str] = "nonsingular"

    @property
    def retrograde(self) -> bool:
        """Whether the psi* = theta - nu chart applies: exactly when H = N < 0."""
        return self.delaunay.H < 0.0


def osculating_to_mean(cart: CartesianState, field: GravityField,
                       config: PropagatorConfig = DEFAULT_CONFIG) -> MeanElements:
    """Strip the periodic corrections off an osculating Cartesian state.

    Raises NonEllipticStateError for a state with non-negative energy or
    e >= 1, before any correction runs.  With the long-period stage on and
    c20 != 0, raises CriticalInclinationError when the osculating or the
    mean inclination lies inside the critical band: the mean one is the
    ratio mean_to_osculating checks.  With c20 = 0 (and so c30 = 0) every
    long-period term vanishes, so the stage and its guard do not run.
    """
    ell, g, h, L, G, H, conventional = _mean_state(cart, field, config)
    return MeanElements(delaunay=DelaunayState(ell=ell, g=g, h=h, L=L, G=G, H=H),
                        conventional_split=conventional)


def _mean_state(cart: CartesianState, field: GravityField, config: PropagatorConfig):
    """osculating_to_mean on floats: (ell, g, h, L, G, H, conventional_split)."""
    psi, xi, chi, r, R, Theta, N = cart_to_ns_checked(cart)
    mu, alpha, c20, c30 = field.mu, field.alpha, field.c20, field.c30
    elliptic_projections(r, R, Theta, mu)
    check_small_params(Theta, field)
    with_long = config.long_period and c20 != 0.0
    if with_long:
        critical_inclination_guard(math.sqrt(max(0.0, 1.0 - (xi * xi + chi * chi))),
                                   config.critical_tol)
    if config.short_period:
        dpsi, dxi, dchi, dr, dR, dTh = _kernels.short_ns(xi, chi, r, R, Theta, mu, alpha, c20)
        psi, xi, chi, r, R, Theta = psi - dpsi, xi - dxi, chi - dchi, r - dr, R - dR, Theta - dTh
    if with_long:
        dpsi, dxi, dchi, dr, dR, dTh = _kernels.long_ns(xi, chi, r, R, Theta,
                                                        mu, alpha, c20, c30)
        psi, xi, chi, r, R, Theta = psi - dpsi, xi - dxi, chi - dchi, r - dr, R - dR, Theta - dTh
    equatorial = math.hypot(xi, chi) <= _kernels.EQUATORIAL_SIN
    theta = 0.0 if equatorial else math.atan2(xi, chi)
    h = theta - psi if N < 0.0 else psi - theta
    ell, g, h, L, G, H, circular = ellipse_elements(r, theta, h, R, Theta, N, mu)
    if with_long:
        critical_inclination_guard(abs(H / G), config.critical_tol)
    return ell, g, h, L, G, H, circular or equatorial


def mean_to_osculating(d: DelaunayState, field: GravityField,
                       config: PropagatorConfig = DEFAULT_CONFIG) -> CartesianState:
    """Rebuild the osculating Cartesian state from double-prime elements; the
    long-period stage and its guard run as in osculating_to_mean."""
    check_small_params(d.G, field)
    with_long = config.long_period and field.c20 != 0.0
    if with_long:
        critical_inclination_guard(abs(d.H / d.G), config.critical_tol)
    out = _kernels.reconstruct_and_correct(
        d.ell, d.g, d.h, d.L, d.G, d.H, field.mu, field.alpha, field.c20, field.c30,
        with_long, config.short_period)
    return CartesianState(*out)


def ephemeris(cart0: CartesianState, t0: float, ts, field: GravityField,
              config: PropagatorConfig = DEFAULT_CONFIG) -> list[CartesianState]:
    """Analytic ephemeris at the grid times ``ts``.

    One state per grid time, deterministic, each epoch independent of the
    grid order.  Returns CartesianState rows; use ephemeris_array for the
    raw (n, 6) array.
    """
    return [CartesianState(*row) for row in ephemeris_array(cart0, t0, ts, field, config)]


def _checked_grid(t0: float, ts) -> tuple[np.ndarray, float]:
    """The time grid as a contiguous float array and the largest |t - t0| on
    it; ZonalPropError unless the grid is one-dimensional, the epoch t0 and
    the grid are finite and no offset t - t0 overflows."""
    ts = np.ascontiguousarray(ts, dtype=float)
    if ts.ndim != 1:
        raise ZonalPropError("time grid must be one-dimensional")
    if not math.isfinite(t0):
        raise ZonalPropError(f"epoch t0 must be finite, got {t0}")
    # the offsets t - t0 are finite exactly when the extreme ones are (a NaN
    # t makes both NaN): two reductions and no temporary the size of the
    # grid.  Python floats, so an overflow is an inf here and not a warning
    lo = float(np.minimum.reduce(ts, initial=t0)) - t0
    hi = float(np.maximum.reduce(ts, initial=t0)) - t0
    if not (math.isfinite(lo) and math.isfinite(hi)):
        if np.logical_and.reduce(np.isfinite(ts)):
            raise ZonalPropError(f"time offset t - t0 overflows for t0 = {t0}")
        raise ZonalPropError("time grid must be finite")
    return ts, max(-lo, hi)


def _float_grid(t0: float, ts):
    """``_checked_grid`` on Python floats, for a list or tuple of 1 to
    ``ARRAY_MIN_EPOCHS - 1`` items that are each exactly a float or an int:
    (the grid as floats, the largest |t - t0|), raising what _checked_grid
    raises.  None for every other grid, which _checked_grid then takes."""
    if not ((type(ts) is list or type(ts) is tuple) and 0 < len(ts) < _kernels.ARRAY_MIN_EPOCHS):
        return None
    floats = True
    for t in ts:
        if type(t) is not float:
            if type(t) is not int:
                return None
            floats = False
    if not floats:
        # float() rounds and overflows as NumPy's conversion does
        ts = [float(t) for t in ts]
    if not math.isfinite(t0):
        raise ZonalPropError(f"epoch t0 must be finite, got {t0}")
    # once an offset is NaN or inf the span stays NaN or inf
    span = 0.0
    for t in ts:
        d = abs(t - t0)
        if d > span or d != d:
            span = d
    if not span < math.inf:
        if all(map(math.isfinite, ts)):
            raise ZonalPropError(f"time offset t - t0 overflows for t0 = {t0}")
        raise ZonalPropError("time grid must be finite")
    return ts, span


def _batch_args(cart0: CartesianState, t0: float, ts, field: GravityField,
                config: PropagatorConfig):
    """The grid checked in NumPy and the arguments of
    ``_kernels.ephemeris_batch`` between t0 and out."""
    ts, span = _checked_grid(t0, ts)
    return ts, _orbit_args(cart0, span, field, config)


def _orbit_args(cart0: CartesianState, span: float, field: GravityField,
                config: PropagatorConfig):
    """The arguments of ``_kernels.ephemeris_batch`` between t0 and out, for
    a checked grid whose largest |t - t0| is span: every check of an
    ephemeris request after the grid's runs here."""
    ell, g, h, L, G, H, _ = _mean_state(cart0, field, config)
    ldot, gdot, hdot = mean_angle_rates(L, G, H, field, config.secular, span)
    return (ell, g, h, L, G, H, ldot, gdot, hdot,
            field.mu, field.alpha, field.c20, field.c30,
            config.long_period and field.c20 != 0.0, config.short_period)


def ephemeris_array(cart0: CartesianState, t0: float, ts, field: GravityField,
                    config: PropagatorConfig = DEFAULT_CONFIG) -> np.ndarray:
    """Same as ephemeris, returning an (n, 6) float array.

    Grids of ``_kernels.ARRAY_MIN_EPOCHS`` epochs or more are evaluated in
    NumPy blocks, shorter ones epoch by epoch on floats; the two agree to
    about 1e-10 km in position.  A short grid given as a list or tuple whose
    items are each exactly a Python float or int (no bool, no NumPy scalar)
    is checked on floats too, and the request makes no NumPy call before
    the one that builds the result.  Every other grid (an ndarray, a nested
    list, a generator, ...) is checked in NumPy.  Both checks raise the same
    errors, and both paths give the same rows bit for bit.
    """
    grid = _float_grid(t0, ts)
    if grid is not None:
        ts, span = grid
        args = _orbit_args(cart0, span, field, config)
        return np.array(_kernels.ephemeris_batch(ts, t0, *args, None))
    ts, args = _batch_args(cart0, t0, ts, field, config)
    out = np.empty((ts.shape[0], 6), dtype=float)
    _kernels.ephemeris_batch(ts, t0, *args, out)
    return out


def ephemeris_blocks(cart0: CartesianState, t0: float, ts, field: GravityField,
                     config: PropagatorConfig = DEFAULT_CONFIG):
    """ephemeris_array one block at a time: an iterator of (t, states) pairs,
    t a view of the grid and states its (len(t), 6) rows.

    The grid, the state and the orbit are checked when this is called, so
    every error is raised before the first block is asked for.  The blocks
    are those of ``_kernels.block_edges``, and the rows are the bits
    ephemeris_array gives.  states is one buffer refilled for every block:
    copy it to keep it past the next step.
    """
    ts, args = _batch_args(cart0, t0, ts, field, config)
    return _blocks(ts, t0, args)


def _blocks(ts, t0, args):
    edges = _kernels.block_edges(ts.shape[0])
    buffer = np.empty((max(np.diff(edges)), 6), dtype=float)
    for lo, hi in zip(edges[:-1], edges[1:]):
        states = buffer[:hi - lo]
        _kernels.ephemeris_batch(ts[lo:hi], t0, *args, states)
        yield ts[lo:hi], states


def mean_elements_series(mean: MeanElements, t0: float, ts, field: GravityField,
                         config: PropagatorConfig = DEFAULT_CONFIG) -> np.ndarray:
    """Mean Delaunay elements at the grid times, as an (n, 6) array.

    The grid and the epoch are checked as ephemeris_array checks them.
    """
    ts, span = _checked_grid(t0, ts)
    dt = ts - t0
    d = mean.delaunay
    ldot, gdot, hdot = mean_angle_rates(d.L, d.G, d.H, field, config.secular, span)
    out = np.empty((dt.shape[0], 6), dtype=float)
    ell, out[:, 1], out[:, 2] = _kernels.mean_angles(d.ell, d.g, d.h, ldot, gdot, hdot, dt)
    out[:, 0] = _kernels.wrap_pi(ell)
    out[:, 3:] = (d.L, d.G, d.H)
    return out
