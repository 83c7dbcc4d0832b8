import math

from zonalprop import EARTH, DelaunayState
from zonalprop.benchmark import format_report, run_benchmark

MU = EARTH.mu


def _mean_state():
    a, e, inc = 7100.0, 0.15, math.radians(40.0)
    L = math.sqrt(MU * a)
    G = L * math.sqrt(1.0 - e * e)
    return DelaunayState(ell=0.7, g=0.4, h=1.0, L=L, G=G, H=G * math.cos(inc))


class TestBenchmark:
    def test_counts_deterministic(self):
        d = _mean_state()
        r1 = run_benchmark(d, EARTH, iterations=0)
        r2 = run_benchmark(d, EARTH, iterations=0)
        assert r1.nonsingular_trig == r2.nonsingular_trig
        assert r1.delaunay_trig == r2.delaunay_trig
        assert r1.nonsingular_sqrt == r2.nonsingular_sqrt
        assert r1.delaunay_sqrt == r2.delaunay_sqrt

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
