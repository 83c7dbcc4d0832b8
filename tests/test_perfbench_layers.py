"""Every layer boundary the benchmark traces still names a function here.

``perfbench/layers.py`` counts a boundary it cannot find as absent instead of
failing, so a renamed or removed hot-path function would silently blank that
layer's metrics.  The module is loaded by path and only its lookup is run.
"""

import importlib.util
from pathlib import Path

LAYERS = Path(__file__).resolve().parent.parent / "perfbench" / "layers.py"


def test_every_benchmark_boundary_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_layers", LAYERS)
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    found, absent = layers._resolve()
    assert absent == []
    assert len(found) == len(layers.BOUNDARIES)
