import importlib.util
import math
import random
from pathlib import Path

import pytest

from zonalprop import (EARTH, CartesianState, DelaunayState, GravityField, ZonalPropError,
                       _kernels, benchmark, osculating_to_mean)
from zonalprop.benchmark import format_report, run_benchmark

MU = EARTH.mu
WORKLOADS = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"

#: the transcendental calls of one correction pass, as the paper counts them:
#: (nonsingular trig, nonsingular sqrt, Delaunay-series trig, Delaunay-series sqrt)
PASS_COUNTS = (1, 1, 32, 5)


def _mean_state():
    a, e, inc = 7100.0, 0.15, math.radians(40.0)
    L = math.sqrt(MU * a)
    G = L * math.sqrt(1.0 - e * e)
    return DelaunayState(ell=0.7, g=0.4, h=1.0, L=L, G=G, H=G * math.cos(inc))


def leo_mean_state():
    """The mean state of perfbench's LEO orbit, whose counts README quotes."""
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return osculating_to_mean(CartesianState(*workloads.LEO_STATE), EARTH).delaunay


def pass_counts(d):
    report = run_benchmark(d, EARTH, iterations=0)
    return (report.nonsingular_trig, report.nonsingular_sqrt,
            report.delaunay_trig, report.delaunay_sqrt)


class TestBenchmark:
    def test_undefined_eps3_raises_the_pipeline_error(self):
        # c20 = 0 with c30 != 0 raised a bare ZeroDivisionError from
        # small_params; the check the pipeline runs now comes first
        field = GravityField(mu=EARTH.mu, alpha=EARTH.alpha, c20=0.0, c30=1e-6)
        with pytest.raises(ZonalPropError, match="eps3 is undefined for c20 = 0 with c30 != 0"):
            run_benchmark(_mean_state(), field, iterations=0)

    def test_counts_deterministic(self):
        d = _mean_state()
        r1 = run_benchmark(d, EARTH, iterations=0)
        r2 = run_benchmark(d, EARTH, iterations=0)
        assert r1.nonsingular_trig == r2.nonsingular_trig
        assert r1.delaunay_trig == r2.delaunay_trig
        assert r1.nonsingular_sqrt == r2.nonsingular_sqrt
        assert r1.delaunay_sqrt == r2.delaunay_sqrt

    @pytest.mark.parametrize("state", [_mean_state, leo_mean_state], ids=["e0.15", "leo"])
    def test_pass_counts(self, state):
        # a counter that missed the series' own math bindings would read the
        # Delaunay pass as Kepler's calls alone
        assert pass_counts(state()) == PASS_COUNTS

    def test_counting_restores_the_math_bindings(self):
        bound = {(m, name): getattr(m, name) for m in (_kernels, benchmark)
                 for name in ("sin", "cos", "atan2", "sqrt")}

        def fail():
            _kernels.sin(0.0)
            raise RuntimeError("inside the counted pass")

        with pytest.raises(RuntimeError):
            benchmark._count_calls(fail)
        run_benchmark(_mean_state(), EARTH, iterations=0)
        assert all(getattr(m, name) is fn for (m, name), fn in bound.items())

    def test_nonsingular_strictly_cheaper(self):
        report = run_benchmark(_mean_state(), EARTH, iterations=0)
        assert report.nonsingular_trig < report.delaunay_trig
        assert (report.nonsingular_trig + report.nonsingular_sqrt
                < report.delaunay_trig + report.delaunay_sqrt)

    def test_zero_iterations_empty_timing(self):
        report = run_benchmark(_mean_state(), EARTH, iterations=0)
        assert report.nonsingular_time == 0.0
        text = format_report(report)
        assert "transcendental calls" in text
        assert "seconds per evaluation" not in text

    def test_timed_run(self):
        report = run_benchmark(_mean_state(), EARTH, iterations=50)
        text = format_report(report)
        assert "seconds per evaluation" in text
        assert report.nonsingular_time > 0.0
        assert report.delaunay_time > 0.0


def test_q1_of_the_delaunay_series():
    # q1 feeds only the long-period Delaunay series, so it is defined there
    assert benchmark.q1_polynomial(0.0) == 0.25
    assert benchmark.q1_polynomial(1.0) == -28.0  # (1 - 43 + 155 - 225) / 4
    assert benchmark.q1_polynomial(-1.0) == -28.0
    assert benchmark.q1_polynomial(0.5) == pytest.approx(
        0.25 * (1.0 - 43.0 / 4.0 + 155.0 / 16.0 - 225.0 / 64.0), abs=1e-15)


def _chart_test_states():
    """Seeded mean states, plus i = 0, 90 and 180 deg exactly at e 0 and 0.99."""
    rng = random.Random(36)
    states = []
    for _ in range(300):
        a, e = rng.uniform(6800.0, 42000.0), rng.uniform(0.0, 0.95)
        L = math.sqrt(MU * a)
        G = L * math.sqrt(1.0 - e * e)
        H = G * math.cos(math.radians(rng.uniform(0.0, 180.0)))
        states.append(DelaunayState(*(rng.uniform(-math.pi, math.pi) for _ in range(3)), L, G, H))
    for e in (0.0, 0.99):
        L = math.sqrt(MU * 8000.0)
        G = L * math.sqrt(1.0 - e * e)
        for H in (G, 0.0, -G):
            states += [DelaunayState(ell, 0.4, 1.0, L, G, H) for ell in (0.0, 2.0, math.pi)]
    return states


def test_benchmark_input_equals_the_polar_nodal_chart(monkeypatch):
    # the benchmark forms its nonsingular input with the pipeline's own maps
    # on the two-body field, where every correction is exactly zero; the
    # chart it replaced agrees in every component the pass reads.  xi and chi
    # are compared absolutely, r and Theta relative to themselves and R
    # relative to sqrt(mu / r).  The worst gap measured is 4.6e-16 on these
    # states and 4.7e-16 over 3 000 states of perfbench's catalogue
    from reference_forms import delaunay_to_polar, polar_to_nonsingular
    from zonalprop import cartesian_to_nonsingular, mean_to_osculating
    two_body = EARTH.restricted("two-body")
    worst = 0.0
    for d in _chart_test_states():
        ns = cartesian_to_nonsingular(mean_to_osculating(d, two_body))
        chart = polar_to_nonsingular(delaunay_to_polar(d, MU))
        gaps = (abs(ns.xi - chart.xi), abs(ns.chi - chart.chi),
                abs(ns.r - chart.r) / chart.r, abs(ns.Theta - chart.Theta) / chart.Theta,
                abs(ns.R - chart.R) / math.sqrt(MU / chart.r))
        worst = max(worst, *gaps)
    assert worst < 1e-13

    # and it is that input the benchmark passes to the counted pass
    seen = []
    monkeypatch.setattr(benchmark, "_ns_path", lambda *args: seen.append(args))
    d = _mean_state()
    run_benchmark(d, EARTH, iterations=0)
    ns = cartesian_to_nonsingular(mean_to_osculating(d, two_body))
    assert seen == [(ns.xi, ns.chi, ns.r, ns.R, ns.Theta, d.H,
                     EARTH.mu, EARTH.alpha, EARTH.c20, EARTH.c30)]
