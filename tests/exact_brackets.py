"""Exact Poisson brackets of the generating functions, for checking the
correction kernels without a step size.

The generating functions are ``reference_forms.v1_core`` (short period) and
``reference_forms.y1_core`` (long period) themselves, evaluated on sympy
symbols: their only functions are ``reference_forms``' ``sin``, ``cos`` and
``sqrt`` and, through ``_kernels.center_terms``, ``_kernels``' ``sqrt`` and
``atan2``, and those names are rebound to sympy's while the expression is
built.  The
brackets {q, V} over the polar-nodal pairs come from exact differentiation,
dq = +dV/dp and dp = -dV/dq, and the chain rule carries them into the
nonsingular set psi = theta +- nu, xi = s sin(theta), chi = s cos(theta),
s = sqrt(1 - N^2/Theta^2).  The kernels run on mpmath numbers at the same
states, with ``_kernels.sqrt`` and ``atan2`` rebound to mpmath's, so the two
sides differ only by the rounding of DPS-digit arithmetic.

The symbolic work is done once per process (``functools.cache``).
"""

import functools
from contextlib import contextmanager

import mpmath
import sympy

import reference_forms
from zonalprop import _kernels

#: decimal digits of the mpmath evaluations
DPS = 50
#: the polar-nodal variables, the canonical pairs (r, R), (theta, Theta), (nu, N)
POLAR = sympy.symbols("r theta nu R Theta N", real=True)
#: the field constants stay symbols, so nothing is rounded to 53 bits
FIELD = sympy.symbols("mu alpha c20 c30", real=True)


@contextmanager
def rebound(module, **functions):
    """Bind ``module``'s names to ``functions`` for the duration of the block."""
    saved = {name: getattr(module, name) for name in functions}
    for name, fn in functions.items():
        setattr(module, name, fn)
    try:
        yield
    finally:
        for name, fn in saved.items():
            setattr(module, name, fn)


@functools.cache
def generating_function(stage):
    """V1 ("short") or Y1 ("long") as a sympy expression in POLAR and FIELD,
    built by running ``reference_forms``' own core on symbols."""
    r, theta, _, R, Theta, N = POLAR
    mu, alpha, c20, c30 = FIELD
    with rebound(reference_forms, sin=sympy.sin, cos=sympy.cos, sqrt=sympy.sqrt), \
            rebound(_kernels, sqrt=sympy.sqrt, atan2=sympy.atan2):
        if stage == "short":
            v = reference_forms.v1_core(r, theta, R, Theta, N, mu, alpha, c20)
        else:
            v = reference_forms.y1_core(r, theta, R, Theta, N, mu, alpha, c20, c30)
    # the source's float literals are dyadic; as rationals they stay exact
    return v.xreplace({x: sympy.Rational(x) for x in v.atoms(sympy.Float)})


@functools.cache
def brackets(stage):
    """{q, V} for each polar-nodal variable q, keyed by its symbol."""
    v = generating_function(stage)
    r, theta, nu, R, Theta, N = POLAR
    return {r: v.diff(R), theta: v.diff(Theta), nu: v.diff(N),
            R: -v.diff(r), Theta: -v.diff(theta), N: -v.diff(nu)}


@functools.cache
def _image(stage):
    """(dtheta, dnu, dxi, dchi, dr, dR, dTheta) as one mpmath function of
    POLAR + FIELD; dxi and dchi by the chain rule."""
    b = brackets(stage)
    r, theta, nu, R, Theta, N = POLAR
    s = sympy.sqrt(1 - N ** 2 / Theta ** 2)

    def delta(f):
        return sum(f.diff(q) * dq for q, dq in b.items())

    exprs = [b[theta], b[nu], delta(s * sympy.sin(theta)), delta(s * sympy.cos(theta)),
             b[r], b[R], b[Theta]]
    return sympy.lambdify(POLAR + FIELD, exprs, modules="mpmath", cse=True)


def _mp_args(pn, field):
    return ([mpmath.mpf(x) for x in (pn.r, pn.theta, pn.nu, pn.R, pn.Theta, pn.N)],
            [mpmath.mpf(x) for x in (field.mu, field.alpha, field.c20, field.c30)])


def exact_deltas(stage, pn, field):
    """The exact (dpsi, dxi, dchi, dr, dR, dTheta) at ``pn``, as mpf.

    dpsi = dtheta + dnu in the prograde chart and dtheta - dnu in the
    retrograde one (psi* = theta - nu, picked by N < 0).
    """
    x, f = _mp_args(pn, field)
    with mpmath.workdps(DPS):
        dtheta, dnu, *rest = _image(stage)(*x, *f)
        return [dtheta - dnu if pn.N < 0.0 else dtheta + dnu, *rest]


def kernel_deltas(stage, pn, field, given_c=False):
    """``_kernels.short_ns`` or ``long_ns`` run on mpf at ``pn``'s nonsingular
    state; ``given_c`` passes c = |N|/Theta to ``long_ns``."""
    (r, theta, _, R, Theta, N), (mu, alpha, c20, c30) = _mp_args(pn, field)
    with mpmath.workdps(DPS), rebound(_kernels, sqrt=mpmath.sqrt, atan2=mpmath.atan2):
        s = mpmath.sqrt(1 - (N / Theta) ** 2)
        xi, chi = s * mpmath.sin(theta), s * mpmath.cos(theta)
        if stage == "short":
            return list(_kernels.short_ns(xi, chi, r, R, Theta, mu, alpha, c20))
        c = abs(N) / Theta if given_c else None
        return list(_kernels.long_ns(xi, chi, r, R, Theta, mu, alpha, c20, c30, c))


def worst_gap(stage, states, field, given_c=False):
    """max over ``states`` of max_i |kernel_i - exact_i| / max_j |exact_j|,
    with the deltas made dimensionless by (1, 1, 1, r, Theta/r, Theta)."""
    worst = mpmath.mpf(0)
    for pn in states:
        exact = exact_deltas(stage, pn, field)
        got = kernel_deltas(stage, pn, field, given_c)
        with mpmath.workdps(DPS):
            scale = (1, 1, 1, pn.r, mpmath.mpf(pn.Theta) / pn.r, pn.Theta)
            gaps = [abs(a - b) / k for a, b, k in zip(got, exact, scale)]
            size = max(abs(d) / k for d, k in zip(exact, scale))
            worst = max(worst, max(gaps) / size)
    return worst
