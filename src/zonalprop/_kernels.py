"""Kernels of the analytic zonal theory, one source for floats and arrays.

Each forward kernel (the mean-to-osculating chain) runs on Python floats
through ``math`` and on NumPy arrays through NumPy: it takes its functions
from ``_NUMPY`` when its first argument is an ndarray and from this module
(``_MATH``) otherwise.  That test is written out in each kernel because a
helper call would cost more than the test on floats.  The two namespaces
bind the same names, mostly ``math`` functions and their ufuncs; a sine and
cosine of one angle come from ``sincos``, which is ``math``'s sin and cos on
floats and, on arrays, the half-angle form from one vectorized tangent.
Branches on data are written as ``where``, ``maximum`` and ``minimum``, so
a lane of an array gets the value a float would.  Quantities that are
constant along one mean trajectory (e, a, sin I, |c| and the long-period
coefficients) are computed from the scalar arguments and stay scalars, so
on arrays they are computed once per call.  Angle-valued outputs follow one
rule: the true and eccentric anomalies are kept on matching branches so the
equation of the center never jumps by 2*pi.

The periodic-correction kernels evaluate the first-order generating-function
brackets in closed form: the Poisson brackets of ``reference.v1`` and
``reference.y1`` over the polar-nodal pairs, carried into the nonsingular
set by the chain rule.  The tests take those brackets exactly, on symbols,
and run these kernels on mpmath numbers (rebinding ``sqrt`` and ``atan2``
here) to compare them at 50 digits.

The module holds the pipeline, which evaluates only the full nonsingular
forms, and nothing else: every function here runs when a state is
converted or propagated (``tests/test_kernels_scope.py``), except the
low-inclination kernels ``short_ns_low`` and ``long_ns_low``.  The tests
compare the full forms with them through ``reference``; they stay here only
because the benchmark's layer trace (``perfbench/layers.py``) names them.
The classical Delaunay series live in ``benchmark``.

The Kepler solver is one Halley loop for every e < 1: it runs on |ell|,
where Kepler's function is increasing and convex, with each update clamped
to an interval that holds the root, and it calls libm once per step: the
cosine comes from the residual's own sine (``kepler_u``).

Formulas that other layers need too (the small parameters, the q
polynomials, the P coefficients, the Kepler solver, the anomalies, the
rotation factors, the point on the Kepler ellipse and the mean-angle
advance) are defined here once, with no second name in another module:
the other modules and the tests call them directly, so what the tests check
is what the pipeline computes.
"""

import sys
from math import atan2, copysign, cos, floor, hypot, pi, sin, sqrt
from types import SimpleNamespace

import numpy as np
from numpy import ndarray

TWO_PI = 2.0 * pi
HALF_PI = 0.5 * pi

# The heap policy for every caller, here where the block temporaries are
# allocated.  glibc's rule (M_MMAP_THRESHOLD, "dynamic mmap threshold"):
# freeing a mapped block raises the mmap threshold to its size and the trim
# threshold to twice it.  Freeing this 3 MiB buffer so keeps the 3-4 MB an
# ephemeris block frees on the heap for the next block, which may otherwise
# fault it in again (0 page faults per dense six-orbit pass, against about
# 7 300 in each of four start-up layouts tried).  Other C libraries ignore it; a caller's
# MALLOC_TRIM_THRESHOLD_ or MALLOC_MMAP_THRESHOLD_ turns the rule off and wins.
np.empty(3 << 20, dtype=np.uint8)

#: Kepler residual [rad] below which a lane counts as converged
KEPLER_TOL = 5e-15
#: below this eccentricity the orbit is treated as exactly circular
CIRCULAR_ECC = 1e-12
#: at or below this sin(I) the orbit counts as equatorial: the node and the
#: argument of latitude are undefined and their split is conventional
EQUATORIAL_SIN = 1e-12

#: grids with at least this many epochs are evaluated on arrays; below it the
#: fixed cost of the NumPy calls (about 0.3 ms per block) outweighs the gain
ARRAY_MIN_EPOCHS = 32
#: target epochs per array block.  A grid is cut into near-equal blocks of
#: about this size (see ``block_edges``), never more than 1.5 times it.  A
#: block makes 390-440 NumPy calls, each with a fixed cost of 0.5-1 us, so
#: larger blocks pay that cost less often.  The temporaries a block frees,
#: 2.9 MB at 8192 epochs and 4.3 MB at 12 287, stay under the 6 MiB trim
#: threshold set above, so the next block reuses them without page faults
EPOCH_BLOCK = 8192

# Float twins of the NumPy functions the kernels use.  Together with the math
# imports above they make this module the namespace for float inputs, so
# rebinding ``sin`` etc. here (call counting) reaches every float evaluation.
maximum = max
minimum = min
any_lane = bool


def where(cond, a, b):
    """Float twin of ``numpy.where``."""
    return a if cond else b


def sincos(x):
    """(sin x, cos x) on a float: this module's own ``sin`` and ``cos``."""
    return sin(x), cos(x)


def _sincos_half_angle(x):
    """(sin x, cos x) on an array from one tangent, t = tan(x/2):
    sin x = 2t / (1 + t^2) and cos x = (1 - t^2) / (1 + t^2).

    NumPy's float64 sin and cos run on scalar libm while its tan is
    vectorized, so one tan and six arithmetic ufuncs cost less than either
    call; the result stays within 2.2e-16 of them for |x| <= 3 pi.  tan is
    odd, so sin stays exactly odd and cos exactly even, and x = +-0 gives
    (+-0, 1).
    """
    t = np.tan(0.5 * x)
    t2 = t * t
    d = 1.0 + t2
    return (t + t) / d, (1.0 - t2) / d


_MATH = sys.modules[__name__]
_NUMPY = SimpleNamespace(sin=np.sin, cos=np.cos, sincos=_sincos_half_angle,
                         atan2=np.arctan2, sqrt=np.sqrt, hypot=np.hypot, floor=np.floor,
                         copysign=np.copysign,
                         maximum=np.maximum, minimum=np.minimum, where=np.where,
                         any_lane=np.any)


def wrap_pi(x):
    """Reduce an angle to (-pi, pi]; -0.0 gives +0.0 on floats and arrays alike."""
    m = _NUMPY if type(x) is ndarray else _MATH
    return x + TWO_PI * m.floor((pi - x) / TWO_PI)


def kepler_u(ell, e):
    """Solve u - e*sin(u) = ell for the eccentric anomaly, any scalar e < 1.

    Halley's method (Danby & Burkardt 1983) on a = |wrap_pi(ell)| in [0, pi],
    the root r then taking the sign of the reduced ell (so |u - ell| <= e).
    On [a, hi], hi = min(a + e, pi), which holds r, f(u) = u - e*sin(u) - a
    has f' = 1 - e*cos(u) > 0 and f'' = e*sin(u) >= 0.  The step
    f*f' / (f'^2 - f*f''/2) is Newton's f/f' divided by 1 - t/2 with
    t = f*f''/f'^2.  Below r, t <= 0.  Above r, f <= (u - r)*f' as f' grows,
    so t <= u*e*sin(u) / (1 - e*cos(u)) < 2: 2 - 2e*cos(u) - e*u*sin(u) is
    2(1 - e) > 0 at u = 0 and grows on [0, pi].  So every step is finite and
    heads for r (it may pass it), and clamping it to [a, hi] keeps u where
    these signs hold.  A lane stops once its residual is below KEPLER_TOL.

    Each step calls libm once: cos(u) = copysign(sqrt(1 - sin(u)^2), pi/2 - u)
    reuses the residual's sin(u), and the step reuses its e*sin(u).  sqrt is
    correctly rounded in ``math`` and in NumPy, so float and array roots are
    bitwise equal.  The error falls cubically near r.  The slowest case is
    e -> 1, a -> 0, where f ~ u^3/6 and a step from above r halves u.  From
    u0 = a + e*sin(a), the most steps any lane took in a sweep of a over
    [0, pi] and down to 1e-300: 1 at e <= 0.01, 3 at e = 0.73, 6 at
    e = 0.999 and 20 at e = 1 - 2**-53, under the loop's bound of 40.
    """
    m = _NUMPY if type(ell) is ndarray else _MATH
    ell = wrap_pi(ell)
    a = abs(ell)
    hi = m.minimum(a + e, pi)
    u = a + e * m.sin(a)
    for _ in range(40):
        s = m.sin(u)
        esu = e * s
        res = u - esu - a
        live = abs(res) >= KEPLER_TOL
        if not m.any_lane(live):
            break
        d = 1.0 - e * m.copysign(m.sqrt(1.0 - s * s), HALF_PI - u)
        u_next = m.maximum(m.minimum(u - res * d / (d * d - 0.5 * res * esu), hi), a)
        u = m.where(live, u_next, u)
    return m.copysign(u, ell)


def delaunay_orbit(ell, L, G, mu):
    """(r, R, f) on the Kepler ellipse of the actions (L, G) at mean anomaly ell.

    L and G are scalars; ell may be a float or an array.  The true anomaly f
    is on the branch of the eccentric anomaly (|f - ell| < pi):
    f = u + 2 atan2(beta sin u, 1 - beta cos u) with beta = e / (1 + eta),
    where 1 - beta cos u > 0, so sin u and cos u are the only other trig.
    """
    m = _NUMPY if type(ell) is ndarray else _MATH
    eta = G / L
    e2 = 1.0 - eta * eta
    e = m.sqrt(e2) if e2 > 0.0 else 0.0
    u = kepler_u(ell, e)
    su, cu = m.sincos(u)
    r = (L * L / mu) * (1.0 - e * cu)
    R = L * e * su / r
    beta = e / (1.0 + eta)
    f = u + 2.0 * m.atan2(beta * su, 1.0 - beta * cu)
    return r, R, f


def mean_angles(ell, g, h, ell_dot, g_dot, h_dot, dt):
    """The mean angles advanced by dt at the secular rates, each in (-pi, pi]."""
    return wrap_pi(ell + ell_dot * dt), wrap_pi(g + g_dot * dt), wrap_pi(h + h_dot * dt)


def small_params(Theta, mu, alpha, c20, c30=0.0):
    """(p, eps2, eps3) for angular momentum Theta.

    p = Theta^2/mu, eps2 = C20 (alpha/p)^2 / 4 and eps3 = (alpha/p)(C30/C20) / 2,
    which is 0 when C30 is (the caller rejects C20 = 0 with C30 != 0).  Plain
    arithmetic, so Theta may be a float or an array.
    """
    p = Theta * Theta / mu
    ap = alpha / p
    eps2 = 0.25 * c20 * ap * ap
    eps3 = 0.0 if c30 == 0.0 else ap * (0.5 * c30 / c20)
    return p, eps2, eps3


def center_terms(kappa, sigma):
    """(eta, f - u, e sin u) from the eccentricity-vector projections; the
    equation of the center is phi = (f - u) + e sin u.

    Closed forms in kappa = e cos f and sigma = e sin f, with one atan2 and
    no other trig: f - u = 2 atan2(sigma, 1 + eta + kappa) and
    e sin u = eta sigma / (1 + kappa).
    eta^2 = (1 - kappa)(1 + kappa) - sigma^2 keeps its digits as e -> 1,
    where 1 - e^2 would cancel.  All three are smooth in (kappa, sigma) down
    to e = 0, where they are (1, 0, 0), so no circular split is needed.
    """
    m = _NUMPY if type(kappa) is ndarray else _MATH
    eta = m.sqrt((1.0 - kappa) * (1.0 + kappa) - sigma * sigma)
    return eta, 2.0 * m.atan2(sigma, 1.0 + eta + kappa), eta * sigma / (1.0 + kappa)


def anomaly_block(kappa, sigma):
    """(e, eta, f, u, ell, phi) from the eccentricity-vector projections.

    f and u share a branch in (-pi, pi]; phi = f - ell is the equation of
    the center.  Below e = CIRCULAR_ECC the orbit is treated as exactly
    circular: e, f, u, ell and phi are 0 and eta is 1.

    eta, f - u and e sin u come from ``center_terms``.  As
    1 + kappa >= 1 - e > 0, u = f - (f - u) stays on f's branch, and
    circular lanes (kappa, sigma zeroed) give exact zeros.  This serves the
    callers that report f, u and ell (``states.ellipse_elements``); the
    short-period kernels and ``reference.v1`` need only eta and phi and call
    ``center_terms`` directly.
    """
    m = _NUMPY if type(kappa) is ndarray else _MATH
    e = m.hypot(kappa, sigma)
    circular = e < CIRCULAR_ECC
    e = m.where(circular, 0.0, e)
    kappa = m.where(circular, 0.0, kappa)
    sigma = m.where(circular, 0.0, sigma)
    eta, f_u, esu = center_terms(kappa, sigma)
    f = m.atan2(sigma, kappa)
    u = f - f_u
    return e, eta, f, u, u - esu, f_u + esu


# ---------------------------------------------------------------------------
# short-period corrections (J2 generating function)
# ---------------------------------------------------------------------------

def short_ns(xi, chi, r, R, Theta, mu, alpha, c20):
    """Nonsingular short-period deltas (dpsi, dxi, dchi, dr, dR, dTheta).

    c is recovered as +sqrt(1 - xi^2 - chi^2); in the retrograde chart the
    state components are already the mirrored (|c|) ones.  eta and the
    equation of the center phi come from ``center_terms``, which needs no
    circular split, so no other anomaly is computed.
    """
    m = _NUMPY if type(xi) is ndarray else _MATH
    p, eps2, _ = small_params(Theta, mu, alpha, c20)
    kappa = p / r - 1.0
    sigma = p * R / Theta
    eta, f_u, esu = center_terms(kappa, sigma)
    phi = f_u + esu
    xi2 = xi * xi
    chi2 = chi * chi
    xc = xi * chi
    xmc = xi2 - chi2
    s2 = xi2 + chi2
    t23 = 2.0 - 3.0 * s2
    c = m.sqrt(m.maximum(0.0, 1.0 - s2))
    c2 = c * c
    opc = 1.0 + c
    opk = 1.0 + kappa
    opk2 = opk * opk
    ope = 1.0 + eta
    k1 = 1.0 + 4.0 * kappa
    k3 = k1 + 2.0
    k3c2 = k3 * c2
    a1 = (1.0 - 3.0 * c2) * ((2.0 + kappa) / ope)
    b1 = 4.0 * chi2 + a1
    phi3 = (3.0 - 15.0 * c2) * phi
    dpsi = eps2 * (phi3 + 6.0 * c * phi
                   + sigma * (2.0 + 6.0 * c - 12.0 * c2 + a1 - (2.0 + 4.0 * c) / opc * xmc)
                   - (1.0 + 7.0 * c + (4.0 + 12.0 * c) * kappa) / opc * xc)
    dxi = eps2 * ((sigma * (b1 - 12.0 * c2) + phi3) * chi - (k1 * chi2 - k3c2) * xi)
    dchi = eps2 * ((k1 * xi2 - k3c2) * chi - (sigma * (b1 - 8.0 * c2) + phi3) * xi)
    dr = eps2 * p * (xmc + (1.0 + kappa / ope + 2.0 * eta / opk) * t23)
    dR = eps2 * (Theta / p) * (4.0 * opk2 * xc - sigma * (eta + opk2 / ope) * t23)
    dTh = eps2 * Theta * (k3 * xmc - 4.0 * sigma * xc)
    return dpsi, dxi, dchi, dr, dR, dTh


def short_ns_low(xi, chi, r, R, Theta, mu, alpha, c20):
    """Low-inclination limit of the nonsingular short-period deltas."""
    p, eps2, _ = small_params(Theta, mu, alpha, c20)
    kappa = p / r - 1.0
    sigma = p * R / Theta
    eta, f_u, esu = center_terms(kappa, sigma)
    phi = f_u + esu
    opk = 1.0 + kappa
    ope = 1.0 + eta
    w1 = (2.0 + kappa) / ope
    dpsi = -2.0 * eps2 * (3.0 * phi + (2.0 + w1) * sigma)
    dxi = eps2 * ((3.0 + 4.0 * kappa) * xi - 2.0 * (6.0 + w1) * sigma * chi - 12.0 * phi * chi)
    dchi = -eps2 * ((3.0 + 4.0 * kappa) * chi - 2.0 * (4.0 + w1) * sigma * xi - 12.0 * phi * xi)
    dr = 2.0 * eps2 * p * (1.0 + kappa / ope + 2.0 * eta / opk)
    dR = -2.0 * eps2 * (Theta / p) * sigma * (eta + opk * opk / ope)
    return dpsi, dxi, dchi, dr, dR, 0.0


# ---------------------------------------------------------------------------
# long-period corrections (J2^2 / J3 generating function)
# ---------------------------------------------------------------------------

def q_polynomials(c):
    """The inclination polynomials (q0, q1, q2, q3, q5, q6, ..., q15) at c = cos I.

    The one source of these coefficients for every long-period form.  Plain
    arithmetic, so c may be a float or an array.  The numbering has no q4;
    q6 is the deflated c (11 - 30 c^2 + 75 c^4), so q5 = c q6 and polar
    orbits (c = 0) stay regular.
    """
    c2 = c * c
    c4 = c2 * c2
    c6 = c4 * c2
    q0 = (1.0 - 15.0 * c2) * (1.0 - 5.0 * c2)
    t56 = 11.0 - 30.0 * c2 + 75.0 * c4
    return (q0,
            0.25 * (1.0 - 43.0 * c2 + 155.0 * c4 - 225.0 * c6),
            (1.0 - c2) * q0,
            0.25 * (1.0 + c2 + 35.0 * c4 + 75.0 * c6),
            c2 * t56,
            c * t56,
            0.25 * (1.0 + 3.0 * c2 - 5.0 * c4 + 225.0 * c6),
            0.25 * (1.0 - 45.0 * c2 + 195.0 * c4 - 375.0 * c6),
            0.25 * (1.0 + 75.0 * c4),
            0.25 * (1.0 - 40.0 * c2 + 75.0 * c4),
            2.0 * c2 * (6.0 - 25.0 * c2 + 75.0 * c4),
            10.0 * c2,
            q0 * (1.0 + c),
            0.25 * (1.0 - c) * (1.0 - 20.0 * c - 40.0 * c2 + 75.0 * c4),
            0.25 * (1.0 + 23.0 * c - 20.0 * c2 - 80.0 * c * c2 + 75.0 * c4 + 225.0 * c * c4))


def p_coefficients(kappa, sigma, q):
    """The P coefficients (p1, p2, p3, p4) of the nonsingular long-period
    corrections, from the tuple ``q`` returned by ``q_polynomials``."""
    q0, _, q2, _, _, _, q7, q8, q9, q10, q11, q12, _, _, _ = q
    ss = sigma * sigma
    return ((q2 + q7 * kappa) * kappa + q8 * ss,
            (q0 + q9 * kappa) * kappa + q10 * ss,
            q2 + q11 * kappa,
            q0 + q12 * kappa)


def long_ns(xi, chi, r, R, Theta, mu, alpha, c20, c30, c=None):
    """Nonsingular long-period deltas (dpsi, dxi, dchi, dr, dR, dTheta).

    Regular down to the equator; the only exclusion is the critical
    inclination (enforced by the caller).  ``c`` = |cos I| is recovered as
    +sqrt(1 - xi^2 - chi^2) unless given; at a mean state it is |H|/G, and
    with ``c`` and ``Theta`` scalars every inclination coefficient below is
    a scalar too.
    """
    m = _NUMPY if type(xi) is ndarray else _MATH
    p, eps2, eps3 = small_params(Theta, mu, alpha, c20, c30)
    kappa = p / r - 1.0
    sigma = p * R / Theta
    xi2 = xi * xi
    chi2 = chi * chi
    if c is None:
        s2 = xi2 + chi2
        c = m.sqrt(m.maximum(0.0, 1.0 - s2))
    else:
        s2 = 1.0 - c * c
    c2 = c * c
    g = 1.0 - 5.0 * c2
    q = q_polynomials(c)
    q6, q13, q14, q15 = q[5], q[12], q[13], q[14]
    p1, p2, p3, p4 = p_coefficients(kappa, sigma, q)
    # the eps-scaled prefactors, scalars when Theta and c are
    e2g = eps2 / (4.0 * g * g)
    e2w = eps2 * ((1.0 - 15.0 * c2) / (4.0 * g))
    opc = 1.0 + c
    opk = 1.0 + kappa
    k2 = 2.0 + kappa
    ss = sigma * sigma
    x2c = 2.0 * xi * chi
    cmx = chi2 - xi2
    u3 = 3.0 * chi2 - xi2
    v3 = 3.0 * xi2 - chi2
    sx = sigma * xi
    sc = sigma * chi
    sx2c = sigma * x2c
    scmx = sigma * cmx
    dpsi = ((-2.0 * e2g / opc) * (x2c * ((q13 + q14 * kappa) * kappa + q15 * ss)
                                  - scmx * (q13 - q6 * kappa))
            + (eps3 / opc) * ((2.0 + 2.0 * c + kappa) * chi - c * sx))
    dxi = (-e2g * ((p1 + p2 * u3) * xi - (p3 - p4 * v3) * sc)
           + 0.5 * eps3 * (2.0 * s2 + (1.0 + c2) * kappa + k2 * cmx))
    dchi = (e2g * ((p1 + p2 * v3) * chi + (p3 - p4 * u3) * sx)
            - eps3 * (c2 * sigma + 0.5 * k2 * x2c))
    dr = p * e2w * (sx2c + kappa * cmx) + p * eps3 * xi
    dR = (Theta / p) * opk * opk * (e2w * (scmx - kappa * x2c) + eps3 * chi)
    dTh = (Theta * e2w * ((kappa * kappa - ss) * cmx + 2.0 * kappa * sx2c)
           + Theta * eps3 * (kappa * xi - sc))
    return dpsi, dxi, dchi, dr, dR, dTh


def long_ns_low(xi, chi, r, R, Theta, mu, alpha, c20, c30):
    """Low-inclination limit of the nonsingular long-period deltas."""
    p, eps2, eps3 = small_params(Theta, mu, alpha, c20, c30)
    kappa = p / r - 1.0
    sigma = p * R / Theta
    k2s2 = kappa * kappa - sigma * sigma
    opk = 1.0 + kappa
    dpsi = 0.5 * eps3 * (chi * (4.0 + kappa) - xi * sigma)
    dxi = 0.875 * eps2 * (2.0 * kappa * sigma * chi - k2s2 * xi) + eps3 * kappa
    dchi = 0.875 * eps2 * (k2s2 * chi + 2.0 * kappa * sigma * xi) - eps3 * sigma
    dr = eps3 * xi * p
    dR = eps3 * opk * opk * chi * Theta / p
    dTh = eps3 * (kappa * xi - sigma * chi) * Theta
    return dpsi, dxi, dchi, dr, dR, dTh


# ---------------------------------------------------------------------------
# state transformations
# ---------------------------------------------------------------------------

def rotation_factors(xi, chi, c):
    """Rotation factors (t, tau, q) of the nonsingular <-> Cartesian map at
    |cos I| = c; regular for every c > -1, floats or arrays."""
    opc = 1.0 + c
    return 1.0 - xi * xi / opc, 1.0 - chi * chi / opc, xi * chi / opc


def ns_to_cart(psi, xi, chi, r, R, Theta, N, retro):
    """Nonsingular state to Cartesian; c = N/Theta per the carried integral.

    In the retrograde chart the rotation factors use |c| and the y components
    of the result change sign.  States coming out of the periodic corrections
    can sit off the xi^2 + chi^2 = 1 - c^2 shell by a second-order amount;
    (xi, chi) are projected back onto the shell of the carried N, and a
    Theta below |N| (near the equator) is raised to |N|, which keeps the
    output's polar angular momentum exactly equal to the integral.  A state
    with xi = chi = 0 stays there.
    """
    m = _NUMPY if type(psi) is ndarray else _MATH
    Theta = m.maximum(Theta, abs(N))
    cabs = abs(N) / Theta
    s2_shell = 1.0 - cabs * cabs
    s2_state = xi * xi + chi * chi
    scale = m.sqrt(s2_shell / m.where(s2_state > 0.0, s2_state, 1.0))
    xi = xi * scale
    chi = chi * scale
    t, tau, q = rotation_factors(xi, chi, cabs)
    sp, cp = m.sincos(psi)
    qc = q * cp
    qs = q * sp
    # the radial unit vector is (ux, uy, xi), the transverse one (-nx, -ny, chi)
    ux = t * cp + qs
    uy = t * sp - qc
    nx = qc + tau * sp
    ny = qs - tau * cp
    w = Theta / r
    x = r * ux
    y = r * uy
    z = r * xi
    vx = R * ux - w * nx
    vy = R * uy - w * ny
    vz = R * xi + w * chi
    if retro:
        y = -y
        vy = -vy
    return x, y, z, vx, vy, vz


def cart_to_ns(x, y, z, vx, vy, vz):
    """Cartesian to nonsingular; returns (psi, xi, chi, r, R, Theta, N, retro).

    The chart is picked by the sign of N: prograde for N >= 0, otherwise the
    retrograde (psi* = theta - nu) chart, realised by mirroring y.  Floats
    only: the osculating-to-mean direction converts one state at a time.
    """
    r = sqrt(x * x + y * y + z * z)
    R = (x * vx + y * vy + z * vz) / r
    N = x * vy - y * vx
    hx = y * vz - z * vy
    hy = z * vx - x * vz
    Theta = sqrt(hx * hx + hy * hy + N * N)
    xi = z / r
    chi = (r * vz - z * R) / Theta
    retro = N < 0.0
    ym = -y if retro else y
    cabs = abs(N) / Theta
    if cabs > 1.0:
        cabs = 1.0
    t, tau, q = rotation_factors(xi, chi, cabs)
    den = (t * t + q * q) * r
    sp = (x * q + ym * t) / den
    cp = (x * t - ym * q) / den
    psi = atan2(sp, cp)
    return psi, xi, chi, r, R, Theta, N, retro


# ---------------------------------------------------------------------------
# mean-to-osculating pipeline
# ---------------------------------------------------------------------------

def reconstruct_and_correct(ell, g, h, L, G, H, mu, alpha, c20, c30, with_long, with_short):
    """Mean Delaunay elements -> osculating Cartesian state.

    Kepler solve, direct long-period correction at the double-prime state,
    direct short-period correction at the prime state, both in the full
    nonsingular forms, then the rotation-free Cartesian map, in the psi*
    chart when H < 0.  The angles (ell, g, h) may be arrays over epochs of
    one mean trajectory; everything computed from (L, G, H) alone stays a
    scalar.
    """
    m = _NUMPY if type(ell) is ndarray else _MATH
    retro = H < 0.0
    r, R, f = delaunay_orbit(ell, L, G, mu)
    theta = f + g
    psi = theta - h if retro else theta + h
    cth = H / G
    sm2 = 1.0 - cth * cth
    sm = m.sqrt(sm2) if sm2 > 0.0 else 0.0
    st, ct = m.sincos(theta)
    # the double-prime state; each correction stage replaces it.  On arrays,
    # what a later stage no longer reads is deleted before that stage
    # allocates its own temporaries, for a lower peak per block: without these
    # deletions a one-day 1 s ``propagate`` peaked 0.7 MB higher in RSS and
    # took 925 page faults, not 757
    xi = sm * st
    chi = sm * ct
    del f, theta, st, ct
    Th = G
    if with_long:
        dpsi, dxi, dchi, dr, dR, dTh = long_ns(xi, chi, r, R, Th, mu, alpha, c20, c30, abs(cth))
        psi, xi, chi, r, R, Th = psi + dpsi, xi + dxi, chi + dchi, r + dr, R + dR, Th + dTh
        del dpsi, dxi, dchi, dr, dR, dTh
    if with_short:
        dpsi, dxi, dchi, dr, dR, dTh = short_ns(xi, chi, r, R, Th, mu, alpha, c20)
        psi, xi, chi, r, R, Th = psi + dpsi, xi + dxi, chi + dchi, r + dr, R + dR, Th + dTh
        del dpsi, dxi, dchi, dr, dR, dTh
    return ns_to_cart(psi, xi, chi, r, R, Th, H, retro)


def block_edges(n):
    """Row edges [0, ..., n] of the blocks an n-epoch grid is evaluated in.

    max(1, round(n / EPOCH_BLOCK)) blocks whose sizes differ by at most one:
    every block has the same fixed cost in NumPy calls, so a short tail
    block would cost nearly as much as a full one.
    """
    k = max(1, round(n / EPOCH_BLOCK))
    return [n * i // k for i in range(k + 1)]


def ephemeris_batch(ts, t0, ell0, g0, h0, L, G, H, ldot, gdot, hdot,
                    mu, alpha, c20, c30, with_long, with_short, out):
    """Fill ``out[i, :]`` with the osculating Cartesian state at ``ts[i]``.

    A grid of ARRAY_MIN_EPOCHS epochs or more runs through the kernels on
    arrays, one per block of ``block_edges``; a shorter one runs epoch by
    epoch on floats.  Either way each row depends on its own epoch only.
    """
    n = ts.shape[0]
    if n < ARRAY_MIN_EPOCHS:
        for i, t in enumerate(ts.tolist()):
            ell, g, h = mean_angles(ell0, g0, h0, ldot, gdot, hdot, t - t0)
            out[i] = reconstruct_and_correct(ell, g, h, L, G, H, mu, alpha, c20, c30,
                                             with_long, with_short)
        return out
    edges = block_edges(n)
    for lo, hi in zip(edges[:-1], edges[1:]):
        rows = slice(lo, hi)
        ell, g, h = mean_angles(ell0, g0, h0, ldot, gdot, hdot, ts[rows] - t0)
        state = reconstruct_and_correct(ell, g, h, L, G, H, mu, alpha, c20, c30,
                                        with_long, with_short)
        for k in range(6):
            out[rows, k] = state[k]
        del state  # before the next block allocates its own
    return out
