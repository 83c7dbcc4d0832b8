"""Output checks.  Every function returns a boolean mask of failed rows.

None of them runs inside a timed region.
"""

import numpy as np

#: |N_row - N_0| / |h_0|; the theory carries N exactly (<= 4e-15 measured)
N_TOL = 1e-11
#: gross-error limit on the one-day error of the fixed orbit set against the
#: numerical reference; the first-order theory's own error there is km-level
ORBIT_ERR_LIMIT_KM = 10.0
#: limit on an object's osculating -> mean -> osculating round trip at its
#: epoch; the residual is O(J2^2), 3-15 m on ordinary orbits
ROUND_TRIP_LIMIT_KM = 1.0


def bad_rows(rows, state0):
    """Rows that are not finite or do not conserve N = x*vy - y*vx.

    ``rows`` is (n, 6); ``state0`` the osculating state they came from, one
    (6,) state for all rows or one per row.
    """
    rows = np.asarray(rows, dtype=float)
    s = np.asarray(state0, dtype=float)
    h0 = np.cross(s[..., :3], s[..., 3:])
    n_row = rows[:, 0] * rows[:, 4] - rows[:, 1] * rows[:, 3]
    with np.errstate(invalid="ignore"):
        drift = ~(np.abs(n_row - h0[..., 2]) <= N_TOL * np.linalg.norm(h0, axis=-1))
    return ~np.all(np.isfinite(rows), axis=1) | drift


def position_error_km(rows, reference):
    """Per-row position error against a reference trajectory."""
    return np.linalg.norm(np.asarray(rows)[:, :3] - np.asarray(reference)[:, :3], axis=1)


def orbit_accuracy(states, outputs, ts):
    """Per orbit: (max position error in m, mask of rows beyond the limit).

    The reference is ``oracle.integrate_grid`` (DOP853, tol 1e-12) at every
    epoch of the grid.
    """
    from zonalprop import EARTH, CartesianState
    from zonalprop.oracle import integrate_grid
    result = {}
    for name, state in states.items():
        ref = integrate_grid(CartesianState(*state), 0.0, ts, EARTH, 1e-12)
        err = position_error_km(outputs[name], ref)
        result[name] = (float(np.max(err)) * 1e3, ~(err <= ORBIT_ERR_LIMIT_KM))
    return result


def csv_mismatch(path, expected_ts, expected_rows):
    """Rows of an ephemeris CSV that differ from the expected grid and states.

    The CLI writes 17 significant digits, which round-trip a double exactly,
    so the comparison is exact.  A file that is missing, unparsable or of
    the wrong shape fails every row.
    """
    bad = np.ones(len(expected_ts), dtype=bool)
    try:
        data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    except (OSError, ValueError):
        return bad
    if data.shape == (len(expected_ts), 7):
        bad = (data[:, 0] != expected_ts) | np.any(data[:, 1:] != expected_rows, axis=1)
    return bad
