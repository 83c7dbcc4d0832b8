"""Correction-evaluation benchmark.

Compares the nonsingular correction path against the classic Delaunay
Fourier-series path on two axes:

* transcendental-function calls per evaluation, counted by rebinding the
  math functions of ``_kernels`` (Kepler and the nonsingular kernels) and
  of this module (the series) to counting wrappers for one float evaluation
  (deterministic), and
* wall time per evaluation on floats.

One "evaluation" is a full periodic-correction pass for one state, as the
pipeline runs it at one epoch: the long-period then short-period stage,
including each path's own anomaly handling (the nonsingular path evaluates
the equation of the center in closed form; the Delaunay path must solve the
Kepler equation for every series evaluation).  The nonsingular pass takes
|cos I| = |H|/G as given, like the pipeline, where it is constant along the
mean trajectory.

The classical series are defined here, in the one module that runs them;
the tests' reference forms (``tests/reference_forms.py``) wrap them.
"""

import sys
import time
from collections import Counter
from dataclasses import dataclass
from math import atan2, cos, sin, sqrt

from . import _kernels
from .gravity import GravityField
from .longperiod import CRITICAL_TOL, critical_inclination_guard
from .states import DelaunayState, delaunay_to_polar, polar_to_nonsingular

#: the math bindings counted, by kind
_KINDS = {"sin": "trig", "cos": "trig", "atan2": "trig", "sqrt": "sqrt", "hypot": "sqrt"}


def _count_calls(fn, *args):
    """Run ``fn(*args)`` with the math bindings of ``_kernels`` and of this
    module counted; returns the calls by kind ("trig", "sqrt")."""
    counts = Counter()

    def counting(f, kind):
        def wrapped(*a):
            counts[kind] += 1
            return f(*a)
        return wrapped

    saved = [(module, name, vars(module)[name])
             for module in (_kernels, sys.modules[__name__])
             for name in _KINDS if name in vars(module)]
    try:
        for module, name, f in saved:
            setattr(module, name, counting(f, _KINDS[name]))
        fn(*args)
    finally:
        for module, name, f in saved:
            setattr(module, name, f)
    return counts


# ---------------------------------------------------------------------------
# classical Delaunay-element series, the baseline of the count
# ---------------------------------------------------------------------------

def delaunay_short_series(ell, g, L, G, H, mu, alpha, c20):
    """First-order short-period corrections to the Delaunay elements.

    The classical trigonometric-series form with arguments k*f + 2*m*g
    (k = 0..5, m = -1, 0, 1) plus equation-of-center terms.  Singular for
    e -> 0 (the 1/e coefficients), which is the known limitation of this
    formulation.
    """
    eta = G / L
    e2 = 1.0 - eta * eta
    e = sqrt(e2) if e2 > 0.0 else 0.0
    c = H / G
    c2 = c * c
    s2 = 1.0 - c2
    _, eps2, _ = _kernels.small_params(G, mu, alpha, c20)
    u = _kernels.kepler_u(ell, e)
    f = 2.0 * atan2(sqrt(1.0 + e) * sin(0.5 * u), sqrt(1.0 - e) * cos(0.5 * u))
    phi = (f - u) + e * sin(u)
    sf = sin(f)
    s2f = sin(2.0 * f)
    s3f = sin(3.0 * f)
    s2g = sin(2.0 * g)
    sfm = sin(f - 2.0 * g)
    sf1 = sin(f + 2.0 * g)
    sf2 = sin(2.0 * f + 2.0 * g)
    sf3 = sin(3.0 * f + 2.0 * g)
    sf4 = sin(4.0 * f + 2.0 * g)
    sf5 = sin(5.0 * f + 2.0 * g)
    cf = cos(f)
    c2f = cos(2.0 * f)
    c3f = cos(3.0 * f)
    c2g = cos(2.0 * g)
    cfm = cos(f - 2.0 * g)
    cf1 = cos(f + 2.0 * g)
    cf2 = cos(2.0 * f + 2.0 * g)
    cf3 = cos(3.0 * f + 2.0 * g)
    cf4 = cos(4.0 * f + 2.0 * g)
    cf5 = cos(5.0 * f + 2.0 * g)
    tc = 3.0 * c2 - 1.0
    eta2 = eta * eta
    dl = eps2 * eta * (
        tc * (e2 + 4.0 * eta2 + 8.0) / (4.0 * e) * sf
        + 1.5 * tc * s2f
        + 0.25 * e * tc * s3f
        - 2.25 * s2 * s2g
        + 0.375 * e * s2 * sfm
        - s2 * (e2 - 4.0 * eta2 + 8.0) / (8.0 * e) * 3.0 * sf1
        + s2 * (3.0 * e2 + 4.0 * eta2 + 24.0) / (8.0 * e) * sf3
        + 2.25 * s2 * sf4
        + 0.375 * e * s2 * sf5)
    dg = eps2 * (
        3.0 * (1.0 - 5.0 * c2) * phi
        - (63.0 * c2 * e2 + 12.0 * c2 * eta2 + 24.0 * c2
           - 13.0 * e2 - 4.0 * eta2 - 8.0) / (4.0 * e) * sf
        - 1.5 * tc * s2f
        - 0.25 * e * tc * s3f
        + 2.25 * s2 * s2g
        - 0.375 * e * s2 * sfm
        + 3.0 * (19.0 * c2 * e2 + 4.0 * c2 * eta2 - 8.0 * c2
                 - 11.0 * e2 - 4.0 * eta2 + 8.0) / (8.0 * e) * sf1
        + 1.5 * (5.0 * c2 - 3.0) * sf2
        + (23.0 * c2 * e2 + 4.0 * c2 * eta2 + 24.0 * c2
           - 15.0 * e2 - 4.0 * eta2 - 24.0) / (8.0 * e) * sf3
        - 2.25 * s2 * sf4
        - 0.375 * e * s2 * sf5)
    dh = eps2 * c * (6.0 * phi + 6.0 * e * sf - 3.0 * e * sf1 - 3.0 * sf2 - e * sf3)
    dLL = G * eps2 / (2.0 * eta * eta2) * (
        (-9.0 * c2 * e2 - 6.0 * c2 + 3.0 * e2 + eta * eta2 * (6.0 * c2 - 2.0) + 2.0)
        - 1.5 * e * tc * (e2 + 4.0) * cf
        - 3.0 * e2 * tc * c2f
        - 0.5 * e * e2 * tc * c3f
        - 4.5 * e2 * s2 * c2g
        - 0.75 * e * e2 * s2 * cfm
        - 2.25 * e * s2 * (e2 + 4.0) * cf1
        - 3.0 * s2 * (3.0 * e2 + 2.0) * cf2
        - 2.25 * e * s2 * (e2 + 4.0) * cf3
        - 4.5 * e2 * s2 * cf4
        - 0.75 * e * e2 * s2 * cf5)
    dGG = -G * eps2 * s2 * (3.0 * e * cf1 + 3.0 * cf2 + e * cf3)
    return dl, dg, dh, dLL, dGG, 0.0


def q1_polynomial(c):
    """The inclination polynomial q1 = (1 - 43 c^2 + 155 c^4 - 225 c^6) / 4
    at c = cos I, which only the long-period Delaunay series reads; the
    polynomials the nonsingular kernels read are ``_kernels.q_polynomials``."""
    c2 = c * c
    c4 = c2 * c2
    c6 = c4 * c2
    return 0.25 * (1.0 - 43.0 * c2 + 155.0 * c4 - 225.0 * c6)


def delaunay_long_series(g, L, G, H, mu, alpha, c20, c30):
    """First-order long-period corrections to the Delaunay elements."""
    eta = G / L
    e2 = 1.0 - eta * eta
    e = sqrt(e2) if e2 > 0.0 else 0.0
    c = H / G
    c2 = c * c
    s2 = 1.0 - c2
    s = sqrt(s2)
    _, eps2, eps3 = _kernels.small_params(G, mu, alpha, c20, c30)
    gc = 1.0 - 5.0 * c2
    w = (1.0 - 15.0 * c2) / gc
    q1 = q1_polynomial(c)
    q6 = _kernels.q_polynomials(c)[2]
    qg = 375.0 * c2 * c2 * c2 - 345.0 * c2 * c2 + 85.0 * c2 - 3.0
    sg = sin(g)
    cg = cos(g)
    s2g = sin(2.0 * g)
    c2g = cos(2.0 * g)
    eta2 = eta * eta
    dl = eta * eta2 * (-0.25 * eps2 * w * s2 * s2g + eps3 * s * cg / e)
    dg = (-eps2 * (4.0 * q1 * eta2 + qg) * s2g / (8.0 * gc * gc)
          + eps3 * ((2.0 * c2 - 1.0) * e2 - eta2 * s2) * cg / (e * s))
    dh = eps2 * q6 * e2 * s2g / (4.0 * gc * gc) - eps3 * (c / s) * e * cg
    dGG = G * (0.25 * eps2 * w * s2 * e2 * c2g + eps3 * s * e * sg)
    return dl, dg, dh, 0.0, dGG, 0.0


def _ns_path(xi, chi, r, R, Theta, c, mu, alpha, c20, c30):
    dl = _kernels.long_ns(xi, chi, r, R, Theta, mu, alpha, c20, c30, c)
    xi1, chi1 = xi + dl[1], chi + dl[2]
    r1, R1, Th1 = r + dl[3], R + dl[4], Theta + dl[5]
    return _kernels.short_ns(xi1, chi1, r1, R1, Th1, mu, alpha, c20)


def _delaunay_path(ell, g, L, G, H, mu, alpha, c20, c30):
    dl = delaunay_long_series(g, L, G, H, mu, alpha, c20, c30)
    ell1, g1 = ell + dl[0], g + dl[1]
    L1, G1 = L + dl[3], G + dl[4]
    H1 = H + dl[5]
    return delaunay_short_series(ell1, g1, L1, G1, H1, mu, alpha, c20)


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


def run_benchmark(d: DelaunayState, field: GravityField, iterations: int = 2000,
                  critical_tol: float = CRITICAL_TOL) -> BenchmarkReport:
    """Count and time both correction paths at the mean state ``d``.

    Both paths evaluate the long-period stage, whatever the field, so the
    critical-inclination guard runs at ``critical_tol``.
    """
    critical_inclination_guard(d.H / d.G, critical_tol)
    mu, alpha, c20, c30 = field.mu, field.alpha, field.c20, field.c30
    ns = polar_to_nonsingular(delaunay_to_polar(d, mu))
    ns_args = (ns.xi, ns.chi, ns.r, ns.R, ns.Theta, abs(d.H / d.G), mu, alpha, c20, c30)
    del_args = (d.ell, d.g, d.L, d.G, d.H, mu, alpha, c20, c30)

    c_ns = _count_calls(_ns_path, *ns_args)
    c_del = _count_calls(_delaunay_path, *del_args)

    return BenchmarkReport(
        iterations=iterations,
        nonsingular_trig=c_ns["trig"],
        nonsingular_sqrt=c_ns["sqrt"],
        delaunay_trig=c_del["trig"],
        delaunay_sqrt=c_del["sqrt"],
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
