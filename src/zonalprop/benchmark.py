"""Correction-evaluation benchmark.

Compares the nonsingular correction path against the classic Delaunay
Fourier-series path on two axes:

* transcendental-function calls per evaluation, measured by rebinding the
  kernel module's math functions to counting wrappers for one float
  evaluation (deterministic), and
* wall time per evaluation on floats.

One "evaluation" is a full periodic-correction pass for one state, as the
pipeline runs it at one epoch: the long-period then short-period stage,
including each path's own anomaly handling (the nonsingular path evaluates
the equation of the center in closed form; the Delaunay path must solve the
Kepler equation for every series evaluation).  The nonsingular pass takes
|cos I| = |H|/G as given, like the pipeline, where it is constant along the
mean trajectory.
"""

import math
import time
from dataclasses import dataclass

from . import _kernels
from .gravity import GravityField
from .states import DelaunayState

TRIG_NAMES = ("sin", "cos", "atan2")
SQRT_NAMES = ("sqrt", "hypot")


class _Counter:
    __slots__ = ("trig", "sqrt")

    def __init__(self):
        self.trig = 0
        self.sqrt = 0


def _counting(fn, counter, kind):
    def wrapped(*args):
        if kind == "trig":
            counter.trig += 1
        else:
            counter.sqrt += 1
        return fn(*args)
    return wrapped


def _with_counters(fn, *args):
    """Run ``fn(*args)`` with the kernel module's math bindings instrumented."""
    counter = _Counter()
    saved = {}
    for name in TRIG_NAMES:
        saved[name] = getattr(_kernels, name)
        setattr(_kernels, name, _counting(saved[name], counter, "trig"))
    for name in SQRT_NAMES:
        saved[name] = getattr(_kernels, name)
        setattr(_kernels, name, _counting(saved[name], counter, "sqrt"))
    try:
        fn(*args)
    finally:
        for name, orig in saved.items():
            setattr(_kernels, name, orig)
    return counter


def _ns_path(xi, chi, r, R, Theta, c, mu, alpha, c20, c30):
    dl = _kernels.long_ns(xi, chi, r, R, Theta, mu, alpha, c20, c30, c)
    xi1, chi1 = xi + dl[1], chi + dl[2]
    r1, R1, Th1 = r + dl[3], R + dl[4], Theta + dl[5]
    return _kernels.short_ns(xi1, chi1, r1, R1, Th1, mu, alpha, c20)


def _delaunay_path(ell, g, L, G, H, mu, alpha, c20, c30):
    dl = _kernels.delaunay_long_series(g, L, G, H, mu, alpha, c20, c30)
    ell1, g1 = ell + dl[0], g + dl[1]
    L1, G1 = L + dl[3], G + dl[4]
    H1 = H + dl[5]
    return _kernels.delaunay_short_series(ell1, g1, L1, G1, H1, mu, alpha, c20)


@dataclass(frozen=True)
class BenchmarkReport:
    iterations: int
    nonsingular_trig: int
    nonsingular_sqrt: int
    delaunay_trig: int
    delaunay_sqrt: int
    nonsingular_time: float
    delaunay_time: float


def _time_loop(fn, args, iterations):
    if iterations <= 0:
        return 0.0
    fn(*args)  # warm-up
    t0 = time.perf_counter()
    for _ in range(iterations):
        fn(*args)
    return (time.perf_counter() - t0) / iterations


def run_benchmark(d: DelaunayState, field: GravityField,
                  iterations: int = 2000) -> BenchmarkReport:
    """Count and time both correction paths at the mean state ``d``."""
    from .longperiod import critical_inclination_guard
    critical_inclination_guard(d.H / d.G)
    mu, alpha, c20, c30 = field.mu, field.alpha, field.c20, field.c30
    eta = d.G / d.L
    e = math.sqrt(max(0.0, 1.0 - eta * eta))
    u = _kernels.kepler_u(d.ell, e)
    f = 2.0 * math.atan2(math.sqrt(1.0 + e) * math.sin(0.5 * u),
                         math.sqrt(1.0 - e) * math.cos(0.5 * u))
    a = d.L * d.L / mu
    r = a * (1.0 - e * math.cos(u))
    R = d.L * e * math.sin(u) / r
    theta = f + d.g
    cinc = d.H / d.G
    s = math.sqrt(max(0.0, 1.0 - cinc * cinc))
    xi = s * math.sin(theta)
    chi = s * math.cos(theta)

    ns_args = (xi, chi, r, R, d.G, abs(cinc), mu, alpha, c20, c30)
    del_args = (d.ell, d.g, d.L, d.G, d.H, mu, alpha, c20, c30)

    c_ns = _with_counters(_ns_path, *ns_args)
    c_del = _with_counters(_delaunay_path, *del_args)

    return BenchmarkReport(
        iterations=iterations,
        nonsingular_trig=c_ns.trig,
        nonsingular_sqrt=c_ns.sqrt,
        delaunay_trig=c_del.trig,
        delaunay_sqrt=c_del.sqrt,
        nonsingular_time=_time_loop(_ns_path, ns_args, iterations),
        delaunay_time=_time_loop(_delaunay_path, del_args, iterations),
    )


def format_report(report: BenchmarkReport) -> str:
    """Plain-text benchmark report."""
    lines = [
        "# correction-evaluation benchmark",
        f"iterations = {report.iterations}",
        "",
        "[transcendental calls per evaluation]",
        f"nonsingular_trig = {report.nonsingular_trig}",
        f"nonsingular_sqrt = {report.nonsingular_sqrt}",
        f"delaunay_trig = {report.delaunay_trig}",
        f"delaunay_sqrt = {report.delaunay_sqrt}",
    ]
    if report.iterations > 0:
        lines += [
            "",
            "[seconds per evaluation]",
            f"nonsingular = {report.nonsingular_time:.3e}",
            f"delaunay = {report.delaunay_time:.3e}",
        ]
    return "\n".join(lines) + "\n"
