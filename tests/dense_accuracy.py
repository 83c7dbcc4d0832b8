"""One-day position error against the numerical reference of the
benchmark's six dense orbits, two critical-inclination orbits and a sample
of the benchmark's catalogue: the table ``test_dense_accuracy.py`` holds
the library to.

    PYTHONPATH=src python tests/dense_accuracy.py            # print the errors
    PYTHONPATH=src python tests/dense_accuracy.py --write    # rewrite the table

The dense orbits are those of the orbit-set-dense workload
(``perfbench/workloads.py``), asked for from t = 0.  The two critical
orbits lie at i = 63.4349 deg, inside the band where the long-period stage
is rejected, and are propagated without it (``long_period=False``), the
one way to an answer there.  The catalogue sample is drawn from
``workloads.catalog(1)``, the catalog-snapshot workload's catalogue, in
the draws ``CATALOG_DRAWS`` with seed ``SAMPLE_SEED``; each state is asked
for from its own epoch t0.  Every case runs over one day at a 300 s step,
and the error is the largest position difference on that grid from
``oracle.integrate_grid`` (DOP853 at tol 1e-12), in metres.  A change that
moves accuracy, either way, rewrites ``dense_accuracy.json`` and logs the
old and new numbers.
"""

import argparse
import importlib.util
import json
import math
import sys
from pathlib import Path

import numpy as np

from zonalprop import EARTH, CartesianState, PropagatorConfig, ephemeris_array
from zonalprop.oracle import integrate_grid

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ROOT / "perfbench" / "workloads.py"
TABLE = Path(__file__).resolve().parent / "dense_accuracy.json"
STEP = 300.0
DAY = 86400.0
TOL = 1e-12
#: sizes of the catalogue draws: successive draws from one generator seeded
#: with SAMPLE_SEED, each listed after the draws before it, so a draw
#: appended later keeps every earlier state.  Each reference takes
#: 0.03-0.07 s (2 CPUs, Python 3.11); the second draw spends what the float
#: right-hand side of the reference saved, so the table takes no longer
#: than it did with the first draw alone
CATALOG_DRAWS = (8, 8)
SAMPLE_SEED = 1
#: (a [km], e) of the critical-inclination orbits; ell 0.3, g 4.71, h 1.1
CRITICAL = {"critical-leo": (7000.0, 0.05), "critical-heo": (26600.0, 0.74)}
CRITICAL_INC_DEG = 63.4349
NO_LONG_PERIOD = PropagatorConfig(long_period=False)


def _workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return workloads


def cases():
    """{name: (Cartesian state, epoch t0, PropagatorConfig)}."""
    workloads = _workloads()
    out = {name: (state, 0.0, PropagatorConfig())
           for name, state in workloads.orbit_set().items()}
    cos_i = math.cos(math.radians(CRITICAL_INC_DEG))
    for name, (a, e) in CRITICAL.items():
        state = workloads.elements_to_cartesian(a, e, cos_i, 1.1, 4.71, 0.3)
        out[name] = (tuple(state.tolist()), 0.0, NO_LONG_PERIOD)
    states, epochs = workloads.catalog(1)
    rng = np.random.default_rng(SAMPLE_SEED)
    for size in CATALOG_DRAWS:
        for i in sorted(rng.choice(len(states), size, replace=False).tolist()):
            out[f"catalog-{i}"] = (tuple(states[i].tolist()), float(epochs[i]),
                                   PropagatorConfig())
    return out


def errors_m():
    """{case name: one-day maximum position error in m}."""
    steps = STEP * np.arange(int(DAY / STEP) + 1)
    out = {}
    for name, (state, t0, config) in cases().items():
        cart = CartesianState(*state)
        ts = t0 + steps
        diff = ephemeris_array(cart, t0, ts, EARTH, config)[:, :3] - integrate_grid(
            cart, t0, ts, EARTH, TOL)[:, :3]
        out[name] = float(np.max(np.linalg.norm(diff, axis=1))) * 1e3
    return out


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--write", action="store_true", help=f"rewrite {TABLE.name}")
    args = p.parse_args(argv)
    errors = errors_m()
    for name, err in errors.items():
        print(f"{name:14s} {err:.7g} m")
    if args.write:
        TABLE.write_text(json.dumps({k: float(f"{v:.7g}") for k, v in errors.items()},
                                    indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
