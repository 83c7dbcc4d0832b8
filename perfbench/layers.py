"""Layer boundaries wrapped from outside the program.

Each boundary function is replaced, on every ``zonalprop`` module that binds
it, by a wrapper, and put back afterwards.  Without numba the ``_kernels``
functions call each other through module globals, so the wrappers also see
the calls made inside ``reconstruct_and_correct`` and ``ephemeris_batch``.
``wrap_pi`` is left out on purpose: four calls per epoch would raise the
trace overhead to about 40%.
"""

import importlib
import sys
import time
from contextlib import contextmanager

#: (layer, boundary, owning module, attribute); the layer is the module that
#: owns the formula in the package layout, even where the code is a kernel
BOUNDARIES = (
    ("anomaly", "kepler_u", "_kernels", "kepler_u"),
    ("anomaly", "anomaly_block", "_kernels", "anomaly_block"),
    ("longperiod", "long_ns", "_kernels", "long_ns"),
    ("longperiod", "long_ns_low", "_kernels", "long_ns_low"),
    ("longperiod", "critical_inclination_guard", "longperiod", "critical_inclination_guard"),
    ("shortperiod", "short_ns", "_kernels", "short_ns"),
    ("shortperiod", "short_ns_low", "_kernels", "short_ns_low"),
    ("states", "ns_to_cart", "_kernels", "ns_to_cart"),
    ("states", "cartesian_to_nonsingular", "states", "cartesian_to_nonsingular"),
    ("states", "cart_to_ns", "_kernels", "cart_to_ns"),
    ("secular", "secular_rates", "secular", "secular_rates"),
    ("propagator", "osculating_to_mean", "propagator", "osculating_to_mean"),
    ("propagator", "ephemeris_array", "propagator", "ephemeris_array"),
    ("propagator", "reconstruct_and_correct", "_kernels", "reconstruct_and_correct"),
    ("propagator", "ephemeris_batch", "_kernels", "ephemeris_batch"),
    ("cli", "write_ephemeris", "cli", "_write_ephemeris"),
)

#: the kernel module's math bindings, counted by kind
MATH_KINDS = {"sin": "trig", "cos": "trig", "atan2": "trig", "sqrt": "sqrt", "hypot": "sqrt"}

ROOT = "root"


def boundary_name(layer, name):
    return f"{layer}.{name}"


def _resolve():
    """(name, original function) for every boundary present in the package."""
    found, absent = [], []
    for layer, name, module, attr in BOUNDARIES:
        try:
            fn = getattr(importlib.import_module(f"zonalprop.{module}"), attr)
        except (ImportError, AttributeError):
            absent.append(boundary_name(layer, name))
            continue
        found.append((boundary_name(layer, name), fn))
    return found, absent


def _bindings(fn):
    """Every (module, attribute) in the loaded package bound to ``fn``."""
    out = []
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "zonalprop" or mod_name.startswith("zonalprop.")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is fn:
                out.append((mod, attr))
    return out


@contextmanager
def _patched(replacements):
    """Bind each (module, attribute) to its replacement; restore on exit."""
    saved = []
    try:
        for mod, attr, new in replacements:
            saved.append((mod, attr, getattr(mod, attr)))
            setattr(mod, attr, new)
        yield
    finally:
        for mod, attr, old in reversed(saved):
            setattr(mod, attr, old)


class Timings:
    """Calls and self time per boundary, and which boundaries are absent."""

    def __init__(self):
        self.calls = {}
        self.self_s = {}
        self.absent = []
        self._open = []   # child time accumulated by each open boundary

    def wrap(self, name, fn):
        calls, self_s, open_ = self.calls, self.self_s, self._open
        calls[name] = 0
        self_s[name] = 0.0
        clock = time.perf_counter

        def timed(*args, **kwargs):
            open_.append(0.0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                child = open_.pop()
                calls[name] += 1
                self_s[name] += dt - child
                if open_:
                    open_[-1] += dt
        return timed


class Counts:
    """Calls per boundary and the trig and sqrt calls made directly inside it."""

    def __init__(self):
        self.calls = {}
        self.trig = {ROOT: 0}
        self.sqrt = {ROOT: 0}
        self.absent = []
        self._open = [ROOT]

    def wrap(self, name, fn):
        calls, open_ = self.calls, self._open
        calls[name] = 0
        self.trig[name] = 0
        self.sqrt[name] = 0

        def entered(*args, **kwargs):
            calls[name] += 1
            open_.append(name)
            try:
                return fn(*args, **kwargs)
            finally:
                open_.pop()
        return entered

    def wrap_math(self, fn, kind):
        table, open_ = (self.trig if kind == "trig" else self.sqrt), self._open

        def counted(*args):
            table[open_[-1]] += 1
            return fn(*args)
        return counted

    def key(self):
        """Everything counted, for comparing two passes."""
        return (sorted(self.calls.items()), sorted(self.trig.items()), sorted(self.sqrt.items()))


@contextmanager
def traced(recorder):
    """Wrap every boundary with ``recorder.wrap``; with a ``Counts`` recorder
    also count the kernel module's math calls."""
    found, recorder.absent = _resolve()
    replacements = []
    for name, fn in found:
        wrapper = recorder.wrap(name, fn)
        replacements += [(mod, attr, wrapper) for mod, attr in _bindings(fn)]
    if isinstance(recorder, Counts):
        kernels = importlib.import_module("zonalprop._kernels")
        for attr, kind in MATH_KINDS.items():
            replacements.append((kernels, attr, recorder.wrap_math(getattr(kernels, attr), kind)))
    with _patched(replacements):
        yield recorder
