import importlib.util
import math
from pathlib import Path

import pytest

from zonalprop import EARTH, CartesianState, DelaunayState, _kernels, benchmark, osculating_to_mean
from zonalprop.benchmark import format_report, run_benchmark

MU = EARTH.mu
WORKLOADS = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"

#: the transcendental calls of one correction pass, as the paper counts them:
#: (nonsingular trig, nonsingular sqrt, Delaunay-series trig, Delaunay-series sqrt)
PASS_COUNTS = (1, 2, 30, 7)


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
