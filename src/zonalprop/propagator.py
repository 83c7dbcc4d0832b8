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
long-period stage, which runs when it is on and c20 != 0.  The two-body
propagator is the same pipeline on a field with c20 = c30 = 0
(``GravityField.restricted("two-body")``), where every correction and the
perturbation of every secular rate are exactly zero.
"""

import math
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from . import _kernels
from .errors import ConfigError, ZonalPropError, is_real
from .gravity import GravityField, check_small_params
from .longperiod import CRITICAL_TOL, critical_inclination_guard
from .secular import SecularRates, check_advance, mean_angle_rates
from .states import (CartesianState, DelaunayState, cart_to_ns_checked, check_finite,
                     ellipse_elements, elliptic_projections)


@dataclass(frozen=True)
class PropagatorConfig:
    """The long-period switch and the critical-inclination tolerance.

    The theory is the secular rates plus both periodic corrections.  Only
    the long-period stage can be switched off: inside the critical band it
    is the one way to an answer.  long_period must be a bool (Python's or
    NumPy's): a string such as "false" is true.  critical_tol must be a finite
    positive ``is_real``: 0, a negative number or NaN would switch the guard off.
    """

    long_period: bool = True
    critical_tol: float = CRITICAL_TOL

    def __post_init__(self):
        if not isinstance(self.long_period, (bool, np.bool_)):
            raise ConfigError(f"long_period must be a bool, got {self.long_period!r}")
        if not is_real(self.critical_tol) or not 0.0 < self.critical_tol < math.inf:
            raise ConfigError("critical_tol must be finite and > 0 (a real number), "
                              f"got {self.critical_tol!r}")


DEFAULT_CONFIG = PropagatorConfig()


@dataclass(frozen=True)
class MeanElements:
    """Double-prime mean elements, their secular rates and reproducibility metadata."""

    delaunay: DelaunayState
    rates: SecularRates  # fixed with the elements; every propagation of them reads these
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
    Raises mean_motion's ZonalPropError when mu^2 / L^3 of the mean state is
    not a positive finite double, as ephemeris_array does for that state, and
    ZonalPropError, naming it, when the corrections overflow into a mean
    state whose 1/a is not finite or into a rate that is not.
    """
    args, conventional = _mean_state(cart, field, config, 0.0)
    ell, g, h, L, G, H, ldot, gdot, hdot = args[:9]
    return MeanElements(delaunay=DelaunayState(ell=ell, g=g, h=h, L=L, G=G, H=H),
                        rates=SecularRates(ell_dot=ldot, g_dot=gdot, h_dot=hdot),
                        conventional_split=conventional)


def _mean_state(cart: CartesianState, field: GravityField, config: PropagatorConfig, span: float):
    """osculating_to_mean on floats, and every check of an ephemeris request
    after the grid's: (the arguments of ``_kernels.ephemeris_batch`` between
    t0 and out, conventional_split).  The one place that picks the rates
    (mean_angle_rates, checked for an advance over span) and with_long."""
    psi, xi, chi, r, R, Theta, N = cart_to_ns_checked(cart)
    mu, alpha, c20, c30 = field.mu, field.alpha, field.c20, field.c30
    elliptic_projections(r, R, Theta, mu)
    check_small_params(Theta, field)
    with_long = config.long_period and c20 != 0.0
    if with_long:
        critical_inclination_guard(abs(N) / Theta, config.critical_tol)
    dpsi, dxi, dchi, dr, dR, dTh = _kernels.short_ns(xi, chi, r, R, Theta, N, mu, alpha, c20)
    psi, xi, chi, r, R, Theta = psi - dpsi, xi - dxi, chi - dchi, r - dr, R - dR, Theta - dTh
    if with_long:
        dpsi, dxi, dchi, dr, dR, dTh = _kernels.long_ns(xi, chi, r, R, Theta, N,
                                                        mu, alpha, c20, c30)
        psi, xi, chi, r, R, Theta = psi - dpsi, xi - dxi, chi - dchi, r - dr, R - dR, Theta - dTh
    equatorial = math.hypot(xi, chi) <= _kernels.EQUATORIAL_SIN
    theta = 0.0 if equatorial else math.atan2(xi, chi)
    h = theta - psi if N < 0.0 else psi - theta
    ell, g, h, L, G, H, circular = ellipse_elements(r, theta, h, R, Theta, N, mu)
    if with_long:
        critical_inclination_guard(abs(H / G), config.critical_tol)
    ldot, gdot, hdot = mean_angle_rates(L, G, H, field, span)
    return ((ell, g, h, L, G, H, ldot, gdot, hdot, mu, alpha, c20, c30, with_long),
            circular or equatorial)


def mean_to_osculating(d: DelaunayState, field: GravityField,
                       config: PropagatorConfig = DEFAULT_CONFIG) -> CartesianState:
    """Rebuild the osculating Cartesian state from double-prime elements; the
    long-period stage and its guard run as in osculating_to_mean.  Raises
    ZonalPropError, naming it, for a state component that is not finite, and
    for actions so far out of range that the chain divides by an underflowed
    0 or takes the sqrt of a negative number."""
    check_small_params(d.G, field)
    with_long = config.long_period and field.c20 != 0.0
    if with_long:
        critical_inclination_guard(abs(d.H / d.G), config.critical_tol)
    try:
        out = _kernels.reconstruct_and_correct(d.ell, d.g, d.h, d.L, d.G, d.H, field.mu,
                                               field.alpha, field.c20, field.c30, with_long)
    except (ArithmeticError, ValueError) as exc:
        raise ZonalPropError(f"mean_to_osculating: the corrections fail at L = {d.L}, "
                             f"G = {d.G}, H = {d.H} ({exc})") from exc
    check_finite("mean_to_osculating: state component", ("x", "y", "z", "vx", "vy", "vz"), out)
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
    # ascontiguousarray would make a scalar a one-element grid
    try:
        ts = np.asarray(ts, dtype=float)
    except OverflowError:  # an int too large for a float
        raise ZonalPropError("time grid must be finite") from None
    if ts.ndim != 1:
        raise ZonalPropError("time grid must be one-dimensional")
    ts = np.ascontiguousarray(ts)
    try:
        finite = math.isfinite(t0)
    except OverflowError:  # an int too large for a float
        finite = False
    if not finite:
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
    """The grids ``_checked_grid`` would accept, taken on Python floats: a
    float t0 and a list or tuple of 1 to ``ARRAY_MIN_EPOCHS - 1`` items that
    are each exactly a float, with every offset t - t0 finite.  (The grid as
    given, the largest |t - t0|) for those, None for every other grid, which
    _checked_grid then takes and, where it must, rejects."""
    if not (type(t0) is float and (type(ts) is list or type(ts) is tuple)
            and 0 < len(ts) < _kernels.ARRAY_MIN_EPOCHS):
        return None
    # once an offset is NaN or inf the span stays NaN or inf
    span = 0.0
    for t in ts:
        if type(t) is not float:
            return None
        d = abs(t - t0)
        if d > span or d != d:
            span = d
    return (ts, span) if span < math.inf else None


def ephemeris_array(cart0: CartesianState, t0: float, ts, field: GravityField,
                    config: PropagatorConfig = DEFAULT_CONFIG) -> np.ndarray:
    """Same as ephemeris, returning an (n, 6) float array.

    Grids of ``_kernels.ARRAY_MIN_EPOCHS`` epochs or more are evaluated in
    NumPy blocks, shorter ones epoch by epoch on floats; the two agree to
    about 1e-10 km in position.  A float t0 and a short list or tuple of
    Python floats (no int, no bool, no NumPy scalar) with finite offsets are
    taken on floats (``_float_grid``), with no NumPy call before the
    ``np.empty`` that holds the result; every other grid is checked in NumPy
    (``_checked_grid``), which alone raises the grid errors.  Both give the
    same rows; the orbit check (``_mean_state``) follows.
    """
    ts, span = _float_grid(t0, ts) or _checked_grid(t0, ts)
    args, _ = _mean_state(cart0, field, config, span)
    out = np.empty((len(ts), 6))
    _kernels.ephemeris_batch(ts, t0, *args, out)
    return out


def ephemeris_blocks(cart0: CartesianState, t0: float, ts, field: GravityField,
                     config: PropagatorConfig = DEFAULT_CONFIG):
    """ephemeris_array one block at a time: an iterator of (t, states) pairs,
    t a view of the grid and states its (len(t), 6) rows.

    The grid (in NumPy, ``_checked_grid``), the state and the orbit
    (``_mean_state``) are checked when this is called, as ephemeris_array
    checks an ndarray grid, so every error is raised before the first block
    is asked for.  The blocks are those of ``_kernels.block_edges``, and the
    rows are the bits ephemeris_array gives.  states is one buffer refilled
    for every block: copy it to keep it past the next step.
    """
    ts, span = _checked_grid(t0, ts)
    return _blocks(ts, t0, _mean_state(cart0, field, config, span)[0])


def _blocks(ts, t0, args):
    edges = _kernels.block_edges(ts.shape[0])
    buffer = np.empty((max(np.diff(edges)), 6), dtype=float)
    for lo, hi in zip(edges[:-1], edges[1:]):
        states = buffer[:hi - lo]
        _kernels.ephemeris_batch(ts[lo:hi], t0, *args, states)
        yield ts[lo:hi], states


def mean_elements_series(mean: MeanElements, t0: float, ts) -> np.ndarray:
    """Mean Delaunay elements at the grid times, advanced at ``mean.rates``,
    as an (n, 6) array.

    The grid and the epoch are checked as ephemeris_array checks them, and
    the rates and the advance as propagate_mean checks them.
    """
    ts, span = _checked_grid(t0, ts)
    d, r = mean.delaunay, mean.rates
    check_advance("mean_elements_series:", r, "|t - t0|", span)
    dt = ts - t0
    out = np.empty((dt.shape[0], 6), dtype=float)
    ell, out[:, 1], out[:, 2] = _kernels.mean_angles(d.ell, d.g, d.h,
                                                     r.ell_dot, r.g_dot, r.h_dot, dt)
    out[:, 0] = _kernels.wrap_pi(ell)
    out[:, 3:] = (d.L, d.G, d.H)
    return out
