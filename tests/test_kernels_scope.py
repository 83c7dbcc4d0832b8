"""``_kernels`` holds the pipeline and nothing else.

Every function the module defines must run during one pass of the pipeline
or be a boundary the benchmark traces (``perfbench/layers.py``, loaded by
path, as ``test_perfbench_layers.py`` loads it).  A reference form that only
the tests or the benchmark call belongs in another module.  cos I has one
source, the carried integral: the kernels that read it take Theta and N.
"""

import ast
import importlib.util
import inspect
import sys
from pathlib import Path

import numpy as np

from zonalprop import EARTH, _kernels, ephemeris_array, mean_to_osculating, osculating_to_mean
from zonalprop.propagator import mean_elements_series
from test_array_path import LEO_STATE

LAYERS = Path(__file__).resolve().parent.parent / "perfbench" / "layers.py"


def _kernel_boundaries():
    spec = importlib.util.spec_from_file_location("perfbench_layers", LAYERS)
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    return {attr for _, _, module, attr in layers.BOUNDARIES if module == "_kernels"}


def _called(passes):
    """The code objects of every Python function the passes call."""
    codes = set()

    def record(frame, event, arg):
        if event == "call":
            codes.add(frame.f_code)

    sys.setprofile(record)
    try:
        for fn, args in passes:
            fn(*args)
    finally:
        sys.setprofile(None)
    return codes


def test_every_kernel_runs_in_the_pipeline_or_is_a_boundary():
    mean = osculating_to_mean(LEO_STATE, EARTH)
    called = _called((
        (osculating_to_mean, (LEO_STATE, EARTH)),
        (mean_to_osculating, (mean.delaunay, EARTH)),
        (ephemeris_array, (LEO_STATE, 0.0, [60.0], EARTH)),
        (ephemeris_array, (LEO_STATE, 0.0, 60.0 * np.arange(_kernels.ARRAY_MIN_EPOCHS), EARTH)),
        (mean_elements_series, (mean, 0.0, [60.0])),
    ))
    defined = {name: fn for name, fn in vars(_kernels).items()
               if inspect.isfunction(fn) and fn.__module__ == _kernels.__name__}
    assert _kernels.reconstruct_and_correct.__code__ in called
    boundaries = _kernel_boundaries()
    assert [name for name, fn in sorted(defined.items())
            if fn.__code__ not in called and name not in boundaries] == []


def test_cos_inclination_comes_from_theta_and_n():
    # the correction kernels and the Cartesian map read |cos I| as
    # |N| / max(Theta, |N|); none takes it, or recovers it, on its own
    params = {name: list(inspect.signature(getattr(_kernels, name)).parameters)
              for name in ("short_ns", "long_ns", "ns_to_cart")}
    for name, names in params.items():
        assert names.index("N") == names.index("Theta") + 1, name
    kernels = [name for name, fn in vars(_kernels).items()
               if inspect.isfunction(fn) and name.startswith(("short_", "long_"))]
    assert {"short_ns", "long_ns", "short_ns_low", "long_ns_low"} <= set(kernels)
    assert [name for name in kernels
            if "c" in inspect.signature(getattr(_kernels, name)).parameters] == []


def _namespace_reads():
    """The names the kernels read from a namespace: ``m.<name>`` and
    ``(_NUMPY if ... else _MATH).<name>``, found in ``_kernels``' source."""
    names = set()
    for node in ast.walk(ast.parse(Path(_kernels.__file__).read_text())):
        if not isinstance(node, ast.Attribute):
            continue
        owner = node.value
        if isinstance(owner, ast.IfExp):
            owner = owner.body
        if isinstance(owner, ast.Name) and owner.id in ("m", "_NUMPY"):
            names.add(node.attr)
    return names


def test_the_numpy_namespace_holds_what_the_kernels_read():
    # a name no kernel reads has no place in _NUMPY, and every name it
    # holds has a float twin here for the float path
    reads = _namespace_reads()
    assert sorted(vars(_kernels._NUMPY)) == sorted(reads)
    assert [name for name in sorted(reads) if not hasattr(_kernels._MATH, name)] == []
