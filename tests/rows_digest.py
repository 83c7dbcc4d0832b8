"""sha256 digests of three outputs of the library, to check that a change
leaves every row bit for bit as it was.

    PYTHONPATH=src python tests/rows_digest.py            # full size
    PYTHONPATH=src python tests/rows_digest.py --small    # reduced size

Run it on two checkouts and compare the lines.  The outputs:

``dense``    the six orbits of the benchmark's orbit-set-dense workload
             (``perfbench/workloads.py``), one day at a 5 s step;
``catalog``  ``workloads.catalog(1, 3000)`` asked for at t = 0, one epoch
             per state; a rejected state contributes its error's repr;
``cli``      the bytes of ``zonalprop propagate --config example-config.ini``
             for one day at a 1 s step.

``--small`` runs the same outputs at a 600 s dense step, 200 catalogue
states and a 60 s CLI step.
"""

import argparse
import contextlib
import hashlib
import importlib.util
import io
import sys
import tempfile
from pathlib import Path

import numpy as np

from zonalprop import EARTH, CartesianState, ZonalPropError, ephemeris_array
from zonalprop.cli import main as cli_main

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ROOT / "perfbench" / "workloads.py"
EXAMPLE_CONFIG = ROOT / "example-config.ini"
DAY = 86400.0

FULL = {"dense_step": 5.0, "catalog_size": 3000, "cli_step": 1.0}
SMALL = {"dense_step": 600.0, "catalog_size": 200, "cli_step": 60.0}


def _workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return workloads


def _day(step):
    return step * np.arange(int(DAY / step) + 1)


def dense_digest(workloads, step):
    h = hashlib.sha256()
    ts = _day(step)
    for name, state in workloads.orbit_set().items():
        h.update(name.encode())
        h.update(ephemeris_array(CartesianState(*state), 0.0, ts, EARTH).tobytes())
    return h.hexdigest()


def catalog_digest(workloads, size):
    h = hashlib.sha256()
    states, epochs = workloads.catalog(1, size)
    for state, t0 in zip(states.tolist(), epochs.tolist()):
        try:
            h.update(ephemeris_array(CartesianState(*state), t0, [0.0], EARTH).tobytes())
        except ZonalPropError as err:
            h.update(repr(err).encode())
    return h.hexdigest()


def cli_digest(step):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "ephemeris.csv"
        argv = ["propagate", "--config", str(EXAMPLE_CONFIG), "--duration", str(DAY),
                "--step", str(step), "--ephemeris", str(path)]
        with contextlib.redirect_stdout(io.StringIO()):
            if cli_main(argv) != 0:
                raise RuntimeError(f"zonalprop {' '.join(argv)} failed")
        return hashlib.sha256(path.read_bytes()).hexdigest()


def digests(dense_step, catalog_size, cli_step):
    """{output name: sha256 hex digest} at the given sizes."""
    workloads = _workloads()
    return {"dense": dense_digest(workloads, dense_step),
            "catalog": catalog_digest(workloads, catalog_size),
            "cli": cli_digest(cli_step)}


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--small", action="store_true", help="reduced sizes, for a quick check")
    args = p.parse_args(argv)
    for name, digest in digests(**(SMALL if args.small else FULL)).items():
        print(f"{name:8s} {digest}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
