"""``tests/rows_digest.py``, the check that a change leaves rows unchanged,
runs and gives the same digests twice: once as the command, once in this
process."""

import os
import subprocess
import sys
from pathlib import Path

import rows_digest

SCRIPT = Path(rows_digest.__file__)


def test_rows_digest_is_repeatable():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SCRIPT.parent.parent / "src"), env.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, str(SCRIPT), "--small"], env=env, check=True,
                         capture_output=True, text=True).stdout
    printed = dict(line.split() for line in out.splitlines())
    assert printed == rows_digest.digests(**rows_digest.SMALL)
    assert sorted(printed) == ["catalog", "cli", "dense", "mean"]
    assert all(len(digest) == 64 for digest in printed.values())
