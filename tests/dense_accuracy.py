"""One-day position error of the benchmark's six dense orbits against the
numerical reference, the table ``test_dense_accuracy.py`` holds the
library to.

    PYTHONPATH=src python tests/dense_accuracy.py            # print the errors
    PYTHONPATH=src python tests/dense_accuracy.py --write    # rewrite the table

The orbits are those of the orbit-set-dense workload
(``perfbench/workloads.py``).  Each is asked for over one day from t = 0 at
a 300 s step, and the error is the largest position difference on that grid
from ``oracle.integrate_grid`` (DOP853 at tol 1e-12), in metres.  A change
that moves accuracy, either way, rewrites ``dense_accuracy.json`` and logs
the old and new numbers.
"""

import argparse
import importlib.util
import json
import sys
from pathlib import Path

import numpy as np

from zonalprop import EARTH, CartesianState, ephemeris_array
from zonalprop.oracle import integrate_grid

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ROOT / "perfbench" / "workloads.py"
TABLE = Path(__file__).resolve().parent / "dense_accuracy.json"
STEP = 300.0
DAY = 86400.0
TOL = 1e-12


def errors_m():
    """{orbit name: one-day maximum position error in m}."""
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    ts = STEP * np.arange(int(DAY / STEP) + 1)
    out = {}
    for name, state in workloads.orbit_set().items():
        cart = CartesianState(*state)
        diff = ephemeris_array(cart, 0.0, ts, EARTH)[:, :3] - integrate_grid(
            cart, 0.0, ts, EARTH, TOL)[:, :3]
        out[name] = float(np.max(np.linalg.norm(diff, axis=1))) * 1e3
    return out


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--write", action="store_true", help=f"rewrite {TABLE.name}")
    args = p.parse_args(argv)
    errors = errors_m()
    for name, err in errors.items():
        print(f"{name:8s} {err:.7g} m")
    if args.write:
        TABLE.write_text(json.dumps({k: float(f"{v:.7g}") for k, v in errors.items()},
                                    indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
