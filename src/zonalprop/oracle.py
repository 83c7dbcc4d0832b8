"""Independent verification machinery.

Nothing here is used by the analytic pipeline itself: the zonal potential
and energy (shells of ``secular.zonal_hamiltonian``) and exact numerical
integration of the J2+J3 equations of motion.  ``zonalprop compare`` and
``perfbench/checks.py`` measure the analytic theory against the
integration; the test suite uses all of it as an oracle.
"""

import math

import numpy as np
from scipy.integrate import solve_ivp

from .errors import ZonalPropError
from .gravity import GravityField
from .propagator import _checked_grid
from .secular import zonal_hamiltonian
from .states import CartesianState, cart_to_ns_checked


def zonal_potential(x: float, y: float, z: float, field: GravityField) -> float:
    """Potential energy per unit mass, central term plus degree 2 and 3 zonals."""
    r = math.sqrt(x * x + y * y + z * z)
    return zonal_hamiltonian(r, 0.0, 0.0, z / r, field.mu, field.alpha, field.c20, field.c30)


def zonal_acceleration(cart: CartesianState, field: GravityField) -> np.ndarray:
    """Closed-form gradient of the zonal potential (central term included)."""
    x, y, z = cart.x, cart.y, cart.z
    r2 = x * x + y * y + z * z
    if r2 <= 0.0:
        raise ZonalPropError("position norm must be positive")
    r = math.sqrt(r2)
    r5 = r2 * r2 * r
    mu = field.mu
    a2 = field.alpha * field.alpha
    z2_r2 = z * z / r2
    # degree 2
    c2 = 1.5 * mu * a2 * field.c20 / r5
    ax = -mu * x / (r2 * r) + c2 * x * (1.0 - 5.0 * z2_r2)
    ay = -mu * y / (r2 * r) + c2 * y * (1.0 - 5.0 * z2_r2)
    az = -mu * z / (r2 * r) + c2 * z * (3.0 - 5.0 * z2_r2)
    # degree 3
    c3 = 2.5 * mu * a2 * field.alpha * field.c30 / (r5 * r2)
    ax += -c3 * x * z * (7.0 * z2_r2 - 3.0)
    ay += -c3 * y * z * (7.0 * z2_r2 - 3.0)
    az += c3 * (6.0 * z * z - 7.0 * z2_r2 * z * z - 0.6 * r2)
    return np.array([ax, ay, az])


def zonal_energy(cart: CartesianState, field: GravityField) -> float:
    """Exact conserved energy v^2/2 + U of the zonal problem; raises as
    ``states.cart_to_ns_checked`` does (a rectilinear state included)."""
    _, xi, _, r, R, Theta, _ = cart_to_ns_checked(cart)
    return zonal_hamiltonian(r, R, Theta, xi, field.mu, field.alpha, field.c20, field.c30)


def _rhs(field: GravityField):
    def f(t, y):
        acc = zonal_acceleration(CartesianState(*y), field)
        return (y[3], y[4], y[5], acc[0], acc[1], acc[2])
    return f


#: DOP853 tolerances the reference integration accepts: SciPy raises any
#: tolerance below 100 eps to 100 eps, and above 1e-6 it is no reference
TOL_RANGE = (100.0 * np.finfo(float).eps, 1e-6)


def integrate(cart0: CartesianState, t0: float, t1: float, field: GravityField,
              tol: float = 1e-12) -> CartesianState:
    """``integrate_grid`` at the one time t1; at tol = 1e-12 the exact zonal
    energy drifts by less than 1e-10 relative over 100 orbits."""
    return CartesianState(*integrate_grid(cart0, t0, [t1], field, tol)[0].tolist())


def integrate_grid(cart0: CartesianState, t0: float, ts, field: GravityField,
                   tol: float = 1e-12) -> np.ndarray:
    """Reference trajectory sampled at the grid times; (n, 6) array.

    Adaptive 8th-order explicit Runge-Kutta (DOP853) with local error
    control at ``tol``, which must lie in ``TOL_RANGE`` (ZonalPropError
    otherwise, NaN and infinity included).  The grid may hold times on
    either side of t0, in any order and repeated: each side is integrated
    outwards from t0 through its distinct times in order, and the rows come
    back in the order of ``ts``.  A non-finite time or t0 raises
    ZonalPropError.
    """
    lo, hi = TOL_RANGE
    if not lo <= tol <= hi:
        raise ZonalPropError(f"integrator tolerance must lie in [{lo:.3g}, {hi:g}], got {tol}")
    ts, _ = _checked_grid(t0, ts)
    y0 = (cart0.x, cart0.y, cart0.z, cart0.vx, cart0.vy, cart0.vz)
    times, where = np.unique(ts, return_inverse=True)
    k = int(np.searchsorted(times, t0))  # times[:k] < t0 <= times[k:]
    rows = np.empty((times.size, 6))
    rows[k:] = _integrate_out(field, t0, y0, times[k:], tol)
    rows[:k] = _integrate_out(field, t0, y0, times[:k][::-1], tol)[::-1]
    return rows[where]


def _integrate_out(field: GravityField, t0: float, y0, t_eval: np.ndarray, tol: float):
    """States at the times t_eval, which run strictly away from t0 (the
    first may equal it)."""
    if t_eval.size == 0 or t_eval[-1] == t0:
        return np.tile(np.asarray(y0), (t_eval.size, 1))
    sol = solve_ivp(_rhs(field), (t0, t_eval[-1]), y0, method="DOP853",
                    rtol=tol, atol=tol, t_eval=t_eval, dense_output=False)
    if not sol.success:
        raise ZonalPropError(f"integration failed: {sol.message}")
    return sol.y.T
