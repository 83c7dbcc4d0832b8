"""Inputs of the three workloads, made without calling the library.

Orbits are given as classical elements and turned into Cartesian states by
the two-body map below, so the inputs do not move when the library's own
conversions change.  Units are km, km/s and s throughout.
"""

import configparser
import math
import os

import numpy as np

MU = 398600.4418      # WGS84 GM, the library's EARTH field
RE = 6378.137         # WGS84 equatorial radius
GEO_A = 42164.0
DAY = 86400.0
DENSE_STEP = 5.0
CATALOG_SIZE = 20000
CLI_CONFIG = "example-config.ini"
CLI_ARGS = ("--duration", "86400", "--step", "1")
CLI_ROWS = 86401

#: sin^2 of 2 deg: below it the seed's ``auto`` formulation switches to the
#: low-inclination forms
LOW_INC_S2 = math.sin(math.radians(2.0)) ** 2
#: |1 - 5 cos^2 i| below this lies within about 2.9 deg of the critical
#: inclinations 63.43 and 116.57 deg
NEAR_CRITICAL = 0.2
#: states per edge band in ``edge_probe``
EDGE_PROBE_SIZE = 500

#: the osculating state of example-config.ini (LEO, a ~ 7000 km, e ~ 0.05)
LEO_STATE = (-2862.029705903647, 5299.0314424744465, 2860.3560741894516,
             -6.269006983824957, -4.356570481122381, 2.0847319694826436)


def elements_to_cartesian(a, e, cos_i, raan, argp, mean_anomaly):
    """Two-body Cartesian states from elements; every argument is an array.

    Inclination enters as its cosine so that 0 and 180 deg are exact.
    """
    a, e, cos_i, raan, argp, m = np.broadcast_arrays(
        *(np.asarray(v, dtype=float) for v in (a, e, cos_i, raan, argp, mean_anomaly)))
    ecc_anom = m + e * np.sin(m)
    for _ in range(60):
        ecc_anom = ecc_anom - (ecc_anom - e * np.sin(ecc_anom) - m) / (1.0 - e * np.cos(ecc_anom))
    nu = 2.0 * np.arctan2(np.sqrt(1.0 + e) * np.sin(0.5 * ecc_anom),
                          np.sqrt(1.0 - e) * np.cos(0.5 * ecc_anom))
    p = a * (1.0 - e * e)
    r = p / (1.0 + e * np.cos(nu))
    sin_i = np.sqrt(np.maximum(0.0, 1.0 - cos_i * cos_i))
    u = argp + nu
    co, so, cu, su = np.cos(raan), np.sin(raan), np.cos(u), np.sin(u)
    px, py, pz = co * cu - so * su * cos_i, so * cu + co * su * cos_i, su * sin_i
    qx, qy, qz = -co * su - so * cu * cos_i, -so * su + co * cu * cos_i, cu * sin_i
    vr = np.sqrt(MU / p) * e * np.sin(nu)
    vt = np.sqrt(MU / p) * (1.0 + e * np.cos(nu))
    return np.stack([r * px, r * py, r * pz,
                     vr * px + vt * qx, vr * py + vt * qy, vr * pz + vt * qz], axis=-1)


def _orbit(perigee_alt, apogee_radius, incl_deg, raan_deg, argp_deg, m_deg):
    rp = RE + perigee_alt
    a = 0.5 * (rp + apogee_radius)
    e = (apogee_radius - rp) / (apogee_radius + rp)
    return _from_a_e(a, e, incl_deg, raan_deg, argp_deg, m_deg)


def _from_a_e(a, e, incl_deg, raan_deg, argp_deg, m_deg):
    rad = math.radians
    return tuple(float(v) for v in elements_to_cartesian(
        a, e, math.cos(rad(incl_deg)), rad(raan_deg), rad(argp_deg), rad(m_deg)))


def orbit_set():
    """The six fixed orbits of orbit-set-dense, name -> Cartesian state at t = 0.

    No orbit lies near the critical inclination: accuracy there is the
    subject of an error map, where a correct fix turns a bad answer into a
    rejection that a per-orbit error cannot express.
    """
    return {
        "leo": LEO_STATE,
        "sso": _from_a_e(RE + 700.0, 0.001, 98.2, 30.0, 40.0, 50.0),
        "gto": _orbit(250.0, GEO_A, 27.0, 60.0, 178.0, 10.0),
        "geo": _from_a_e(GEO_A, 2e-4, 0.05, 75.0, 20.0, 100.0),
        "near-eq": _from_a_e(RE + 600.0, 0.01, 1.0, 120.0, 80.0, 200.0),
        "retro": _from_a_e(RE + 900.0, 0.02, 140.0, 200.0, 300.0, 30.0),
    }


def dense_grid():
    """One day at a 5 s step: 17281 epochs from t = 0."""
    return DENSE_STEP * np.arange(int(DAY / DENSE_STEP) + 1)


def in_edge_band(cos_i):
    """Inclinations where the round trip is measured to miss 1 km (WORKLOADS.md).

    Two bands: within about 2.9 deg of a critical inclination, where the
    guard admits orbits whose long-period terms blow up, and inside 2 deg of
    the equator but not on it, where the low-inclination forms miss by up to
    8 km at high eccentricity (exactly equatorial orbits are fine).
    """
    s2 = 1.0 - cos_i * cos_i
    return (np.abs(1.0 - 5.0 * cos_i * cos_i) < NEAR_CRITICAL) | ((s2 > 0.0) & (s2 < LOW_INC_S2))


def _states(rng, cos_i):
    """States for the given inclinations, epochs up to a day before t = 0."""
    size = len(cos_i)
    perigee_alt = rng.uniform(300.0, 2000.0, size)
    kind = rng.random(size)
    e = np.where(kind < 0.1, 0.0,
                 np.where(kind < 0.5, 10.0 ** rng.uniform(-6.0, -3.0, size),
                          rng.uniform(1e-3, 0.75, size)))
    a = (RE + perigee_alt) / (1.0 - e)
    angles = rng.uniform(0.0, 2.0 * math.pi, (3, size))
    return elements_to_cartesian(a, e, cos_i, *angles), -rng.uniform(0.0, DAY, size)


def catalog(seed, size=CATALOG_SIZE):
    """A synthetic catalogue: (states (n, 6), epochs t0 (n,)), all asked at t = 0.

    Perigee altitude is uniform in 300-2000 km.  A tenth of the objects are
    exactly circular, four tenths near-circular (e log-uniform in 1e-6..1e-3)
    and the rest have e uniform in 1e-3..0.75.  cos i is uniform in [-1, 1]
    outside the two edge bands of ``in_edge_band`` (``edge_probe`` covers
    those), and 2% each are exactly equatorial prograde and retrograde.  Each
    state was last updated up to one day before the common request time t = 0.
    """
    rng = np.random.default_rng(seed)
    cos_i = rng.uniform(-1.0, 1.0, size)
    edge = in_edge_band(cos_i)
    while edge.any():
        cos_i[edge] = rng.uniform(-1.0, 1.0, int(edge.sum()))
        edge = in_edge_band(cos_i)
    pick = rng.random(size)
    cos_i = np.where(pick < 0.02, 1.0, np.where(pick < 0.04, -1.0, cos_i))
    return _states(rng, cos_i)


def edge_probe(seed, size=EDGE_PROBE_SIZE):
    """States inside each edge band: {band: (states, epochs)}.

    Eccentricity, perigee and angles are drawn as in ``catalog``; the
    inclination is uniform in |1 - 5 cos^2 i| < NEAR_CRITICAL on either side
    of 90 deg, or log-uniform in 0.001-2 deg from the equator.
    """
    rng = np.random.default_rng([seed, 1])
    side = np.where(rng.random(size) < 0.5, -1.0, 1.0)
    c2 = rng.uniform(1.0 - NEAR_CRITICAL, 1.0 + NEAR_CRITICAL, size) / 5.0
    near_critical = _states(rng, side * np.sqrt(c2))
    side = np.where(rng.random(size) < 0.5, -1.0, 1.0)
    incl = np.radians(10.0 ** rng.uniform(-3.0, math.log10(2.0), size))
    near_equatorial = _states(rng, side * np.cos(incl))
    return {"near_critical": near_critical, "near_equatorial": near_equatorial}


def input_shares(states):
    """Shares of a state set that decide which branch the pipeline takes."""
    r, v = states[:, :3], states[:, 3:]
    h = np.cross(r, v)
    hn = np.linalg.norm(h, axis=1)
    cos_i = h[:, 2] / hn
    ecc = np.cross(v, h) / MU - r / np.linalg.norm(r, axis=1)[:, None]
    return {
        "low_inclination": float(np.mean(1.0 - cos_i * cos_i < LOW_INC_S2)),
        "retrograde": float(np.mean(h[:, 2] < 0.0)),
        "e_below_1e-3": float(np.mean(np.linalg.norm(ecc, axis=1) < 1e-3)),
    }


def cli_state(root):
    """The initial state and epoch that the CLI reads from its config file."""
    cp = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    if not cp.read(os.path.join(root, CLI_CONFIG)):
        raise FileNotFoundError(f"cannot read {CLI_CONFIG}")
    state = tuple(float(cp.get("state", k)) for k in ("x", "y", "z", "vx", "vy", "vz"))
    return state, float(cp.get("state", "epoch", fallback="0.0"))
