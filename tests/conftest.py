"""Shared fixtures and state generators for the test suite."""

import collections
import math
from dataclasses import replace

import numpy as np
import pytest

from zonalprop import EARTH, CartesianState, DelaunayState, _kernels, nonsingular_to_cartesian
from reference_forms import PolarNodalState, delaunay_to_polar, polar_to_nonsingular

MU = EARTH.mu

#: the state fields a correction stage's six deltas apply to, in kernel order
NONSINGULAR_FIELDS = ("psi", "xi", "chi", "r", "R", "Theta")


def field_small_params(Theta, field):
    """``_kernels.small_params`` (p, eps2, eps3) with the constants of ``field``."""
    return _kernels.small_params(Theta, field.mu, field.alpha, field.c20, field.c30)


def elements_to_polar(a, e, inc, ell, g, h, mu=MU) -> PolarNodalState:
    """Polar-nodal state from Keplerian-style elements (angles in rad)."""
    L = math.sqrt(mu * a)
    G = L * math.sqrt(1.0 - e * e)
    H = G * math.cos(inc)
    return delaunay_to_polar(DelaunayState(ell=ell, g=g, h=h, L=L, G=G, H=H), mu)


def elements_to_cartesian(a, e, inc, ell, g, h, mu=MU) -> CartesianState:
    return nonsingular_to_cartesian(polar_to_nonsingular(
        elements_to_polar(a, e, inc, ell, g, h, mu)))


def random_polar_states(n, rng, e_range=(0.01, 0.7), i_range_deg=(5.0, 175.0),
                        avoid_critical=0.05, mu=MU):
    """Seeded sample of valid polar-nodal states away from the critical band."""
    out = []
    while len(out) < n:
        a = rng.uniform(6800.0, 30000.0)
        e = rng.uniform(*e_range)
        inc = math.radians(rng.uniform(*i_range_deg))
        if abs(1.0 - 5.0 * math.cos(inc) ** 2) < avoid_critical:
            continue
        ell = rng.uniform(-math.pi, math.pi)
        g = rng.uniform(-math.pi, math.pi)
        h = rng.uniform(-math.pi, math.pi)
        out.append(elements_to_polar(a, e, inc, ell, g, h, mu))
    return out


def add_deltas(ns, deltas, sign=1.0):
    """``ns`` with one correction stage's deltas (dpsi, dxi, dchi, dr, dR,
    dTheta) added (sign +1: the direct map, deltas evaluated at the mean
    state) or subtracted (sign -1: the inverse map, deltas evaluated at the
    osculating state).  There is no N slot: N is carried.
    """
    return replace(ns, **{name: getattr(ns, name) + sign * d
                          for name, d in zip(NONSINGULAR_FIELDS, deltas)})


def angle_diff(a, b):
    """Smallest difference between two angles."""
    return abs(math.atan2(math.sin(a - b), math.cos(a - b)))


def cart_distance(c1: CartesianState, c2: CartesianState) -> float:
    return math.sqrt((c1.x - c2.x) ** 2 + (c1.y - c2.y) ** 2 + (c1.z - c2.z) ** 2)


def loglog_slope(xs, ys) -> float:
    return float(np.polyfit(np.log(xs), np.log(ys), 1)[0])


@pytest.fixture(scope="session", autouse=True)
def _warm_kernels():
    """Evaluate the kernels once before any test, so first-call costs stay
    out of timed sections."""
    from zonalprop.benchmark import delaunay_long_series, delaunay_short_series
    from zonalprop.propagator import ephemeris_array
    cart = elements_to_cartesian(7000.0, 0.05, math.radians(30.0), 0.3, 0.7, 1.1)
    ephemeris_array(cart, 0.0, np.array([0.0, 10.0]), EARTH)
    delaunay_short_series(0.3, 0.7, 52000.0, 51900.0, 45000.0, MU, EARTH.alpha, EARTH.c20)
    delaunay_long_series(0.7, 52000.0, 51900.0, 45000.0, MU, EARTH.alpha, EARTH.c20, EARTH.c30)
    yield


class PassCounter:
    """The NumPy passes the kernels make on arrays: every ufunc call
    (operators, ``abs`` and unary minus included) and every array function,
    counted by NumPy name in ``by_name``.  The passes given no ``out``, which
    allocate their result, are counted again in ``allocating``.  Gathers and
    scatters, indexing or item assignment with an array index, and
    ``astype`` are counted apart in ``gathers`` ("getitem", "setitem",
    "astype"), so ``total`` keeps counting the ufuncs and array functions
    only."""

    def __init__(self):
        self.by_name = collections.Counter()
        self.allocating = collections.Counter()
        self.gathers = collections.Counter()
        by_name, allocating, gathers = self.by_name, self.allocating, self.gathers

        def plain(values):
            return [v.view(np.ndarray) if isinstance(v, Counted) else v for v in values]

        def counted(result):
            if isinstance(result, tuple):
                return tuple(counted(r) for r in result)
            return result.view(Counted) if isinstance(result, np.ndarray) else result

        def fancy(index):
            parts = index if isinstance(index, tuple) else (index,)
            return any(isinstance(part, (np.ndarray, list)) for part in parts)

        class Counted(np.ndarray):
            def __getitem__(self, index):
                if fancy(index):
                    gathers["getitem"] += 1
                return super().__getitem__(index)

            def __setitem__(self, index, value):
                if fancy(index):
                    gathers["setitem"] += 1
                super().__setitem__(index, value)

            def astype(self, *args, **kwargs):
                gathers["astype"] += 1
                return super().astype(*args, **kwargs)

            def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
                name = ufunc.__name__
                name = name if method == "__call__" else f"{name}.{method}"
                by_name[name] += 1
                if "out" in kwargs:
                    kwargs["out"] = tuple(plain(kwargs["out"]))
                else:
                    allocating[name] += 1
                return counted(getattr(ufunc, method)(*plain(inputs), **kwargs))

            def __array_function__(self, func, types, args, kwargs):
                by_name[func.__name__] += 1
                if kwargs.get("out") is None:
                    allocating[func.__name__] += 1
                return counted(func(*plain(args), **kwargs))

        self.array_type = Counted

    @property
    def total(self):
        return sum(self.by_name.values())

    @property
    def allocated(self):
        """The passes that allocated their result."""
        return sum(self.allocating.values())

    def clear(self):
        self.by_name.clear()
        self.allocating.clear()
        self.gathers.clear()

    def array(self, x):
        """``x`` as an array whose passes are counted."""
        return np.asarray(x).view(self.array_type)


@pytest.fixture
def numpy_passes(monkeypatch):
    """A ``PassCounter`` for the kernels.  ``_kernels`` takes NumPy for an
    argument whose type is ``_kernels.ndarray``; that name is rebound to the
    counter's ndarray subclass, so the kernels run unchanged, with every
    pass counted, on inputs made by ``numpy_passes.array``."""
    counter = PassCounter()
    monkeypatch.setattr(_kernels, "ndarray", counter.array_type)
    return counter
