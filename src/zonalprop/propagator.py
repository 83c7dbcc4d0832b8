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
The only excluded regime is the critical-inclination band.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .errors import ZonalPropError
from .gravity import GravityField
from .gravity import small_params
from .longperiod import CRITICAL_TOL, critical_inclination_guard
from .secular import SecularRates, mean_motion, secular_rates
from .states import (CartesianState, DelaunayState, cartesian_to_nonsingular,
                     ellipse_to_delaunay)


@dataclass(frozen=True)
class PropagatorConfig:
    """Pipeline switches and the critical-inclination tolerance.

    The periodic-correction stages and the perturbed secular terms can be
    toggled individually for diagnosis; with everything off the pipeline is
    an exact two-body propagator.
    """

    short_period: bool = True
    long_period: bool = True
    secular: bool = True
    critical_tol: float = CRITICAL_TOL


DEFAULT_CONFIG = PropagatorConfig()


@dataclass(frozen=True)
class MeanElements:
    """Double-prime mean elements plus reproducibility metadata."""

    delaunay: DelaunayState
    retrograde: bool          # psi* chart was used
    formulation: str          # correction formulation evaluated: always "nonsingular"
    conventional_split: bool  # equatorial/circular angle split was conventional


def osculating_to_mean(cart: CartesianState, field: GravityField,
                       config: PropagatorConfig = DEFAULT_CONFIG) -> MeanElements:
    """Strip the periodic corrections off an osculating Cartesian state.

    With the long-period stage on, raises CriticalInclinationError when the
    osculating or the mean inclination lies inside the critical band: the
    mean one is the ratio mean_to_osculating checks.
    """
    ns = cartesian_to_nonsingular(cart)
    small_params(ns.Theta, field)  # validates the coefficient combination
    if config.long_period:
        critical_inclination_guard(ns.cos_inclination_abs, config.critical_tol)
    mu, alpha, c20, c30 = field.mu, field.alpha, field.c20, field.c30
    st = [ns.psi, ns.xi, ns.chi, ns.r, ns.R, ns.Theta]
    if config.short_period:
        d = _kernels.short_ns(st[1], st[2], st[3], st[4], st[5], mu, alpha, c20)
        st = [st[i] - d[i] for i in range(6)]
    if config.long_period:
        d = _kernels.long_ns(st[1], st[2], st[3], st[4], st[5], mu, alpha, c20, c30)
        st = [st[i] - d[i] for i in range(6)]
    psi, xi, chi, r, R, Theta = st
    equatorial = math.hypot(xi, chi) <= _kernels.EQUATORIAL_SIN
    theta = 0.0 if equatorial else math.atan2(xi, chi)
    h = theta - psi if ns.retrograde else psi - theta
    delaunay, circular = ellipse_to_delaunay(r, theta, h, R, Theta, ns.N, mu)
    if config.long_period:
        critical_inclination_guard(abs(delaunay.H / delaunay.G), config.critical_tol)
    return MeanElements(delaunay=delaunay, retrograde=ns.retrograde,
                        formulation="nonsingular", conventional_split=circular or equatorial)


def mean_to_osculating(d: DelaunayState, field: GravityField,
                       config: PropagatorConfig = DEFAULT_CONFIG) -> CartesianState:
    """Rebuild the osculating Cartesian state from double-prime elements."""
    retro = d.H < 0.0
    small_params(d.G, field)  # validates the coefficient combination
    if config.long_period:
        critical_inclination_guard(abs(d.H / d.G), config.critical_tol)
    out = _kernels.reconstruct_and_correct(
        d.ell, d.g, d.h, d.L, d.G, d.H, retro,
        field.mu, field.alpha, field.c20, field.c30,
        config.long_period, config.short_period)
    return CartesianState(*out)


def ephemeris(cart0: CartesianState, t0: float, ts, field: GravityField,
              config: PropagatorConfig = DEFAULT_CONFIG) -> list[CartesianState]:
    """Analytic ephemeris at the grid times ``ts``.

    One state per grid time, deterministic, each epoch independent of the
    grid order.  Returns CartesianState rows; use ephemeris_array for the
    raw (n, 6) array.
    """
    return [CartesianState(*row) for row in ephemeris_array(cart0, t0, ts, field, config)]


def ephemeris_array(cart0: CartesianState, t0: float, ts, field: GravityField,
                    config: PropagatorConfig = DEFAULT_CONFIG) -> np.ndarray:
    """Same as ephemeris, returning an (n, 6) float array.

    Grids of ``_kernels.ARRAY_MIN_EPOCHS`` epochs or more are evaluated in
    NumPy blocks, shorter ones epoch by epoch on floats; the two agree to
    about 1e-10 km in position.
    """
    ts = np.ascontiguousarray(ts, dtype=float)
    if ts.ndim != 1:
        raise ZonalPropError("time grid must be one-dimensional")
    if not np.all(np.isfinite(ts)):
        raise ZonalPropError("time grid must be finite")
    if not math.isfinite(t0):
        raise ZonalPropError(f"epoch t0 must be finite, got {t0}")
    mean = osculating_to_mean(cart0, field, config)
    d = mean.delaunay
    rates = _rates_for(d, field, config)
    out = np.empty((ts.shape[0], 6), dtype=float)
    _kernels.ephemeris_batch(ts, t0, d.ell, d.g, d.h, d.L, d.G, d.H,
                             rates.ell_dot, rates.g_dot, rates.h_dot,
                             mean.retrograde, field.mu, field.alpha,
                             field.c20, field.c30, config.long_period,
                             config.short_period, out)
    return out


def _rates_for(d: DelaunayState, field: GravityField,
               config: PropagatorConfig) -> SecularRates:
    if config.secular:
        return secular_rates(d.L, d.G, d.H, field)
    return SecularRates(ell_dot=mean_motion(d.L, field), g_dot=0.0, h_dot=0.0)


def mean_elements_series(mean: MeanElements, t0: float, ts, field: GravityField,
                         config: PropagatorConfig = DEFAULT_CONFIG) -> np.ndarray:
    """Mean Delaunay elements at the grid times, as an (n, 6) array."""
    dt = np.asarray(ts, dtype=float) - t0
    d = mean.delaunay
    rates = _rates_for(d, field, config)
    out = np.empty((dt.shape[0], 6), dtype=float)
    out[:, 0], out[:, 1], out[:, 2] = _kernels.mean_angles(
        d.ell, d.g, d.h, rates.ell_dot, rates.g_dot, rates.h_dot, dt)
    out[:, 3:] = (d.L, d.G, d.H)
    return out
