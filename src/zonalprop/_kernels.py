"""Kernels of the analytic zonal theory, one source for floats and arrays.

Each forward kernel (the mean-to-osculating chain) runs on Python floats
through ``math`` and on NumPy arrays through NumPy: it takes its functions
from ``_NUMPY`` when its first argument is an ndarray and from this module
(``_MATH``) otherwise.  That test is written out in each kernel because a
helper call would cost more than the test on floats.  ``_NUMPY`` binds
exactly the names the kernels read from a namespace, and this module binds
each of them too, mostly ``math`` functions and their ufuncs
(``tests/test_kernels_scope.py`` checks both).  A sine and cosine of one
angle come from ``sincos``, and the pair (e sin u, e cos u - 1) a Kepler
step reads from ``esincos``: ``math``'s sin and cos on floats and, on
arrays, the half-angle form from one vectorized tangent.
Branches on data are written as ``where``, ``maximum``, ``imin`` and
``imax``, so a lane of an array gets the value a float would.  Quantities
that are constant along one mean trajectory (e, a, sin I, |c| and the
long-period coefficients) are computed from the scalar arguments and stay
scalars, so on arrays they are computed once per call.  Angle-valued outputs
follow one rule: the true and eccentric anomalies are kept on matching
branches so the equation of the center never jumps by 2*pi.

On arrays a kernel writes only into arrays it allocated itself, never into
an argument (``tests/test_array_path.py`` runs them on read-only arrays).
Within that rule the kernels update their temporaries in place: NumPy reuses
a temporary by itself only from 256 KiB up (``NPY_MIN_ELIDE_BYTES``), and a
block of about 8192 epochs holds 64 KiB per array, so each arithmetic pass
written as an expression would allocate its result.  The updates are written
as augmented assignments (``x *= y``), which on floats compute what
``x = x * y`` does.  Each formula keeps its operations and their order; only
a * b = b * a, a + b = b + a and exact negations are used, such as
c - k y = (-k) y + c for a scalar k, so arrays and floats keep their bits.
The functions that an operator cannot write in place have twins in
``_NUMPY`` that write their result into their argument x: ``sqrt(x)``,
``floor(x)``, ``atan2(y, x)``, ``copysign(x, y)``, ``imin(x, y)`` and
``imax(x, y)``.  Here, for floats, the twins are the plain ``math``
functions and ``min`` and ``max``, so they add no Python call.
``maximum``, ``where`` and ``hypot`` allocate their result on arrays.  So
do the few passes that no exact rewrite puts in place, such as a - x for an
array x: a twin for them would add a call on floats, where an operator adds
none.

The periodic-correction kernels evaluate the first-order generating-function
brackets in closed form: the Poisson brackets of the polar-nodal generating
functions v1 and y1 (``tests/reference_forms.py``) over the polar-nodal
pairs, carried into the nonsingular set by the chain rule.  The tests take
those brackets exactly, on symbols, and run these kernels on mpmath numbers
(rebinding ``sqrt`` and ``atan2`` here) to compare them at 50 digits.

The module holds the pipeline, which evaluates only the full nonsingular
forms, and nothing else: every function here runs when a state is
converted or propagated (``tests/test_kernels_scope.py``), except the
low-inclination kernels ``short_ns_low`` and ``long_ns_low``.  The tests
compare the full forms with them through ``tests/reference_forms.py``; they
stay here only because the benchmark's layer trace (``perfbench/layers.py``)
names them.  The classical Delaunay series live in ``benchmark``.

Formulas that other layers need too (the small parameters, the q
polynomials the long-period kernels read, the P coefficients, the Kepler
solver, the anomalies, the rotation factors, the point on the Kepler
ellipse and the mean-angle advance) are defined here once, with no second
name in another module: the other modules and the tests call them
directly, so what the tests check is what the pipeline computes.
"""

import sys
from bisect import bisect_left
from math import atan2, copysign, cos, floor, hypot, inf, pi, sin, sqrt
from types import SimpleNamespace

import numpy as np
from numpy import ndarray

from .errors import NonEllipticStateError, position_norm_error

TWO_PI = 2.0 * pi
FIVE_PI2 = 5.0 * pi * pi
DBL_MIN = sys.float_info.min

# The heap policy for every caller, here where the block temporaries are
# allocated.  glibc's rule (M_MMAP_THRESHOLD, "dynamic mmap threshold"):
# freeing a mapped block of at most 32 MiB raises the mmap threshold to its
# size and the trim threshold to twice it.  Freeing this 16 MiB buffer so
# keeps on the heap both the 3-4 MB an ephemeris block frees for the next
# block and the results a caller drops while it holds others, which glibc
# would otherwise give back and fault in again.  README tabulates the page
# faults by buffer size: 16 MiB is the smallest that faults none while a
# caller keeps 24 orbits, and at 32 MiB glibc no longer adapts and trims at
# 128 KiB.  Untouched, the buffer adds nothing to the peak resident set.
# Other C libraries ignore it; a caller's MALLOC_TRIM_THRESHOLD_ or
# MALLOC_MMAP_THRESHOLD_ turns the rule off and wins.
np.empty(16 << 20, dtype=np.uint8)

#: bound [rad] on the Kepler residual |u - e sin(u) - ell| of ``kepler_u``
KEPLER_TOL = 5e-15
#: Halley steps ``kepler_u`` takes: KEPLER_STEPS[i] for e <= KEPLER_ECC[i]
#: (and above the entry before), the last entry above KEPLER_ECC[-1].  Each
#: is the fewest steps that brought every mean anomaly of a sweep to a
#: residual below 1.1e-15 at the band's upper edge (a over [0, pi] and
#: log-spaced down to 1e-320), plus one step above e = 0.999 and two above
#: 1 - 1e-6, where the slowest lanes sit at small a.  The sweep's worst
#: residual is 9.99e-16 on floats and on arrays alike
KEPLER_ECC = (0.012, 0.35, 0.85, 0.975, 0.995, 0.999, 0.9999, 1.0 - 1e-6)
KEPLER_STEPS = (1, 2, 3, 4, 5, 6, 8, 10, 22)
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
#: 2.9 MB at 8192 epochs and 4.3 MB at 12 287, stay under the 32 MiB trim
#: threshold set above, so the next block reuses them without page faults
EPOCH_BLOCK = 8192

# Float twins of the NumPy functions the kernels use.  Together with the math
# imports above they make this module the namespace for float inputs, so
# rebinding ``sin`` etc. here (call counting) reaches every float evaluation.
maximum = imax = max
imin = min


def where(cond, a, b):
    """Float twin of ``numpy.where``."""
    return a if cond else b


def sincos(x):
    """(sin x, cos x) on a float: this module's own ``sin`` and ``cos``."""
    return sin(x), cos(x)


def esincos(u, e):
    """(e sin u, e cos u - 1) on a float, the pair a Halley step of
    ``kepler_u`` reads: this module's own ``sin`` and ``cos``."""
    return e * sin(u), e * cos(u) - 1.0


def _half_angle(x, k, c):
    """(k sin x, k cos x + k - c) on an array from one tangent, t = tan(x/2):
    with q = 2k / (1 + t^2), k sin x = t q and k cos x = q - k.  k = c = 1
    gives (sin x, cos x); k = e and c = 1 + e give the (e sin u,
    e cos u - 1) of a Kepler step, the array ``esincos``.

    NumPy's float64 sin and cos run on scalar libm while its tan is
    vectorized, so one tan and five arithmetic ufuncs cost less than either
    call.  tan is odd, so the sine stays exactly odd and the cosine exactly
    even, and x = +-0 gives (+-0, 2k - c).  Two of the seven passes
    allocate, t and t^2; the others write into t (then the sine) and t^2
    (then q, then the cosine).
    """
    t = 0.5 * x
    np.tan(t, out=t)
    q = t * t
    q += 1.0
    np.divide(2.0 * k, q, out=q)
    t *= q
    q -= c
    return t, q


def _sincos_half_angle(x):
    """(sin x, cos x) on an array: ``_half_angle`` with k = c = 1, so
    sin x = 2t / (1 + t^2) and cos x = 2 / (1 + t^2) - 1, one division and
    seven passes.  The result stays within 3.4e-16 of NumPy's sin and cos
    for |x| <= 3 pi, and x = +-0 gives (+-0, 1) exactly."""
    return _half_angle(x, 1.0, 1.0)


_MATH = sys.modules[__name__]
_NUMPY = SimpleNamespace(
    sincos=_sincos_half_angle,
    esincos=lambda u, e: _half_angle(u, e, 1.0 + e),
    hypot=np.hypot, where=np.where, maximum=np.maximum,
    # the twins: each writes its result into its argument x
    sqrt=lambda x: np.sqrt(x, out=x), floor=lambda x: np.floor(x, out=x),
    atan2=lambda y, x: np.arctan2(y, x, out=x), copysign=lambda x, y: np.copysign(x, y, out=x),
    imin=lambda x, y: np.minimum(x, y, out=x), imax=lambda x, y: np.maximum(x, y, out=x))


def wrap_pi(x):
    """Reduce an angle to (-pi, pi]; -0.0 gives +0.0 on floats and arrays alike:
    x + 2 pi floor((pi - x) / (2 pi))."""
    m = _NUMPY if type(x) is ndarray else _MATH
    k = pi - x
    k /= TWO_PI
    k = m.floor(k)
    k *= TWO_PI
    k += x
    return k


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
    these signs hold.

    The start calls no libm function: u0 = a + e*S(a), clamped to hi, with
    Bhaskara's rational sine S(a) = 16w / (5 pi^2 - 4w), w = a(pi - a), which
    is within 1.7e-3 of sin(a) on [0, pi] and never above 1.  Each step reads
    (e*sin(u), e*cos(u) - 1) from one ``esincos`` call: on floats ``math``'s
    sin and cos, on arrays one vectorized tangent, t = tan(u/2) and
    q = 2e / (1 + t^2), e*sin(u) = t*q and e*cos(u) - 1 = q - (1 + e), as
    NumPy's float64 sin runs on scalar libm.  A start this close leaves a
    fixed, small number of steps (Markley 1995, CeMDA 63, 101): KEPLER_STEPS'
    entry for the scalar e, the same on every lane.  No lane tests its
    residual and no sine confirms the root.  The float and array roots are
    not bitwise equal, since their sines differ in the last bits, but both
    keep the residual below KEPLER_TOL, and |u_array - u_float| times the
    slope 1 - e*cos(u) stays within it (8.9e-16 in the tests' sweeps).
    """
    m = _NUMPY if type(ell) is ndarray else _MATH
    ell = wrap_pi(ell)
    a = abs(ell)
    hi = m.imin(a + e, pi)
    w = pi - a
    w *= a
    u = -4.0 * w
    u += FIVE_PI2
    w *= 16.0 * e
    w /= u
    w += a
    u = m.imin(w, hi)
    for _ in range(KEPLER_STEPS[bisect_left(KEPLER_ECC, e)]):
        # u - res d / (d^2 - res esu / 2) with d = 1 - e cos(u), here as
        # u + res nd / (nd^2 - res esu / 2) with nd = e cos(u) - 1 = -d
        esu, nd = m.esincos(u, e)
        res = u - esu
        res -= a
        esu *= 0.5 * res
        res *= nd
        nd *= nd
        nd -= esu
        res /= nd
        res += u
        u = m.imax(m.imin(res, hi), a)
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
    e = sqrt(e2) if e2 > 0.0 else 0.0
    u = kepler_u(ell, e)
    su, cu = m.sincos(u)
    r = -e * cu
    r += 1.0
    r *= L * L / mu
    R = L * e * su
    R /= r
    beta = e / (1.0 + eta)
    su *= beta
    cu *= -beta
    cu += 1.0
    f = m.atan2(su, cu)
    f *= 2.0
    f += u
    return r, R, f


def mean_angles(ell, g, h, ell_dot, g_dot, h_dot, dt):
    """The mean angles advanced by dt at the secular rates: g and h in
    (-pi, pi], ell not reduced, since ``kepler_u`` reduces it (a caller that
    reports ell applies ``wrap_pi``)."""
    ell_t = ell_dot * dt
    ell_t += ell
    g_t = g_dot * dt
    g_t += g
    h_t = h_dot * dt
    h_t += h
    return ell_t, wrap_pi(g_t), wrap_pi(h_t)


def small_params(Theta, mu, alpha, c20, c30=0.0):
    """(p, eps2, eps3) for angular momentum Theta.

    p = Theta^2/mu, eps2 = C20 (alpha/p)^2 / 4 and eps3 = (alpha/p)(C30/C20) / 2,
    which is 0 when C30 is (the caller rejects C20 = 0 with C30 != 0).  Plain
    arithmetic, so Theta may be a float or an array.
    """
    p = Theta * Theta
    p /= mu
    ap = alpha / p
    eps2 = 0.25 * c20 * ap
    eps2 *= ap
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
    opk = 1.0 + kappa
    eta = 1.0 - kappa
    eta *= opk
    eta -= sigma * sigma
    eta = m.sqrt(eta)
    f_u = eta + 1.0
    f_u += kappa
    f_u = m.atan2(sigma, f_u)
    f_u *= 2.0
    esu = eta * sigma
    esu /= opk
    return eta, f_u, esu


def anomaly_block(kappa, sigma):
    """(e, eta, f, u, ell, phi) from the eccentricity-vector projections.

    f and u share a branch in (-pi, pi]; phi = f - ell is the equation of
    the center.  Below e = CIRCULAR_ECC the orbit is treated as exactly
    circular: e, f, u, ell and phi are 0 and eta is 1.

    eta, f - u and e sin u come from ``center_terms``.  As
    1 + kappa >= 1 - e > 0, u = f - (f - u) stays on f's branch, and
    circular lanes (kappa, sigma zeroed) give exact zeros.  This serves the
    callers that report f, u and ell (``states.ellipse_elements``); the
    short-period kernels and the tests' ``v1`` need only eta and phi and
    call ``center_terms`` directly.
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

def short_ns(xi, chi, r, R, Theta, N, mu, alpha, c20):
    """Nonsingular short-period deltas (dpsi, dxi, dchi, dr, dR, dTheta).

    c = |cos I| is read off the carried integral, |N| / max(Theta, |N|), and
    sin^2 I off the state, xi^2 + chi^2; for N < 0 (the psi* chart) the
    state components are already the mirrored (|c|) ones.  eta and the
    equation of the center phi come from ``center_terms``, which needs no
    circular split, so no other anomaly is computed.
    """
    p, eps2, _ = small_params(Theta, mu, alpha, c20)
    kappa = p / r
    kappa -= 1.0
    sigma = p * R
    sigma /= Theta
    eta, phi, esu = center_terms(kappa, sigma)
    phi += esu
    del esu
    xi2 = xi * xi
    chi2 = chi * chi
    xc = xi * chi
    xmc = xi2 - chi2
    t23 = xi2
    t23 += chi2
    t23 *= -3.0
    t23 += 2.0
    # |N| / max(Theta, |N|) as min(|N| / Theta, 1), clamped in place; Theta is
    # a scalar when no long-period stage ran, so c's namespace clamps it
    c = abs(N) / Theta
    c = (_NUMPY if type(c) is ndarray else _MATH).imin(c, 1.0)
    c2 = c * c
    c12 = 12.0 * c2
    k1 = 4.0 * kappa
    k1 += 1.0
    k3 = k1 + 2.0
    k3c2 = k3 * c2
    ope = eta + 1.0
    a1 = -3.0 * c2
    a1 += 1.0
    a1 *= (kappa + 2.0) / ope
    phi3 = -15.0 * c2
    phi3 += 3.0
    phi3 *= phi
    s4 = 4.0 * sigma
    s4c2 = s4 * c2
    # 1/(1 + c) is the one division of the c-polynomials of dpsi:
    # (2 + 4c)/(1 + c) = 4 - 2/(1 + c), (1 + 7c)/(1 + c) = 7 - 6/(1 + c) and
    # (4 + 12c)/(1 + c) = 12 - 8/(1 + c)
    ioc = 1.0 / (c + 1.0)
    c6 = c
    c6 *= 6.0
    opk = kappa + 1.0
    eta2_opk = 2.0 * eta
    eta2_opk /= opk
    opk *= opk
    opk2 = opk
    # dxi = eps2 (A chi - B xi) and dchi = eps2 (C chi - D xi), where
    # C = B + k1 (xi^2 - chi^2) and D = A + 4 sigma c^2
    a_chi = 4.0 * chi2
    a_chi += a1
    a_chi -= c12
    a_chi *= sigma
    a_chi += phi3
    b_xi = chi2
    b_xi *= k1
    b_xi -= k3c2
    # dpsi = eps2 (phi3 + c6 phi + sigma (2 + c6 - c12 + a1 - (4 - 2 ioc) xmc)
    #              - ((7 - 6 ioc) + (12 - 8 ioc) kappa) xc)
    phi *= c6
    phi3 += phi
    c6 += 2.0
    c6 -= c12
    c6 += a1
    z = -2.0 * ioc
    z += 4.0
    z *= xmc
    c6 -= z
    c6 *= sigma
    phi3 += c6
    z = -6.0 * ioc
    z += 7.0
    ioc *= -8.0
    ioc += 12.0
    ioc *= kappa
    z += ioc
    z *= xc
    phi3 -= z
    phi3 *= eps2
    dpsi = phi3
    dxi = a_chi * chi
    dxi -= b_xi * xi
    dxi *= eps2
    k1 *= xmc
    b_xi += k1
    b_xi *= chi
    a_chi += s4c2
    a_chi *= xi
    b_xi -= a_chi
    b_xi *= eps2
    dchi = b_xi
    # dr = eps2 p (xmc + (1 + kappa/ope + 2 eta/opk) t23)
    kappa /= ope
    kappa += 1.0
    kappa += eta2_opk
    kappa *= t23
    kappa += xmc
    kappa *= eps2 * p
    dr = kappa
    # dR = eps2 (Theta/p) (4 opk^2 xc - sigma (eta + opk^2/ope) t23)
    ope = opk2 / ope
    ope += eta
    ope *= sigma
    ope *= t23
    opk2 *= 4.0
    opk2 *= xc
    opk2 -= ope
    opk2 *= Theta / p * eps2
    dR = opk2
    k3 *= xmc
    s4 *= xc
    k3 -= s4
    k3 *= eps2 * Theta
    dTh = k3
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
    """The inclination polynomials (q0, q2, q6, q7, ..., q15) at c = cos I.

    The one source of these coefficients for the long-period kernels.  Plain
    arithmetic, so c may be a float or an array.  The numbering has no q4,
    and only the polynomials ``long_ns`` and ``p_coefficients`` read are
    built: q1 feeds only the classical Delaunay series and is defined there
    (``benchmark.q1_polynomial``), and q3 and q5 = c q6 no formula reads.
    q6 is the deflated c (11 - 30 c^2 + 75 c^4), so polar orbits (c = 0)
    stay regular.
    """
    c2 = c * c
    c4 = c2 * c2
    c6 = c4 * c2
    q0 = (1.0 - 15.0 * c2) * (1.0 - 5.0 * c2)
    return (q0,
            (1.0 - c2) * q0,
            c * (11.0 - 30.0 * c2 + 75.0 * c4),
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
    q0, q2, _, q7, q8, q9, q10, q11, q12, _, _, _ = q
    ss = sigma * sigma
    p1 = q7 * kappa
    p1 += q2
    p1 *= kappa
    p1 += q8 * ss
    p2 = q9 * kappa
    p2 += q0
    p2 *= kappa
    ss *= q10
    p2 += ss
    p3 = q11 * kappa
    p3 += q2
    p4 = q12 * kappa
    p4 += q0
    return p1, p2, p3, p4


def long_ns(xi, chi, r, R, Theta, N, mu, alpha, c20, c30):
    """Nonsingular long-period deltas (dpsi, dxi, dchi, dr, dR, dTheta).

    Regular down to the equator; the only exclusion is the critical
    inclination (enforced by the caller).  c = |cos I| is read off the
    carried integral, |N| / max(Theta, |N|), as in ``short_ns``, and sin^2 I
    as 1 - c^2.  At a mean state Theta and N are the scalars G and H, so c
    and every inclination coefficient below are scalars too.
    """
    p, eps2, eps3 = small_params(Theta, mu, alpha, c20, c30)
    kappa = p / r
    kappa -= 1.0
    sigma = p / Theta * R  # p / Theta is a scalar at a mean state
    xi2 = xi * xi
    chi2 = chi * chi
    c = abs(N) / Theta
    c = (_NUMPY if type(c) is ndarray else _MATH).imin(c, 1.0)
    c2 = c * c
    s2 = 1.0 - c2
    g = 1.0 - 5.0 * c2
    q = q_polynomials(c)
    q6, q13, q14, q15 = q[2], q[9], q[10], q[11]
    p1, p2, p3, p4 = p_coefficients(kappa, sigma, q)
    # the eps-scaled prefactors, scalars when Theta and c are
    e2g = eps2 / (4.0 * g * g)
    e2w = eps2 * ((1.0 - 15.0 * c2) / (4.0 * g))
    opc = 1.0 + c
    k2 = kappa + 2.0
    x2c = 2.0 * xi
    x2c *= chi
    cmx = chi2 - xi2
    u3 = 3.0 * chi2
    u3 -= xi2
    v3 = xi2
    v3 *= 3.0
    v3 -= chi2
    sx = sigma * xi
    sc = sigma * chi
    scmx = sigma * cmx
    # w = (kappa + i sigma)(cmx - i x2c): its real and imaginary parts are
    # the brackets of dr and dR, and dTheta's bracket
    # (kappa^2 - sigma^2) cmx + 2 kappa sigma x2c is Re((kappa + i sigma) w)
    w_re = kappa * cmx
    w_re += sigma * x2c
    w_im = scmx - kappa * x2c
    # dpsi = (-2 e2g / opc) (x2c ((q13 + q14 kappa) kappa + q15 sigma^2)
    #                        - scmx (q13 - q6 kappa))
    #        + (eps3 / opc) ((2 + 2c + kappa) chi - c sx)
    dpsi = q14 * kappa
    dpsi += q13
    dpsi *= kappa
    t = q15 * sigma
    t *= sigma
    dpsi += t
    dpsi *= x2c
    t = -q6 * kappa
    t += q13
    scmx *= t
    dpsi -= scmx
    dpsi *= -2.0 * e2g / opc
    t = kappa + (2.0 + 2.0 * c)
    t *= chi
    t -= c * sx
    t *= eps3 / opc
    dpsi += t
    # dxi = -e2g ((p1 + p2 u3) xi - (p3 - p4 v3) sc)
    #       + eps3/2 (2 s2 + (1 + c2) kappa + k2 cmx)
    dxi = p2 * u3
    dxi += p1
    dxi *= xi
    t = p3 - p4 * v3
    t *= sc
    dxi -= t
    dxi *= -e2g
    t = (1.0 + c2) * kappa
    t += 2.0 * s2
    cmx *= k2
    t += cmx
    t *= 0.5 * eps3
    dxi += t
    # dchi = e2g ((p1 + p2 v3) chi + (p3 - p4 u3) sx) - eps3 (c2 sigma + k2 x2c / 2)
    p2 *= v3
    p2 += p1
    p2 *= chi
    p4 *= u3
    p3 -= p4
    p3 *= sx
    p2 += p3
    p2 *= e2g
    t = c2 * sigma
    k2 *= 0.5
    k2 *= x2c
    t += k2
    t *= eps3
    p2 -= t
    dchi = p2
    dr = p * e2w * w_re
    dr += p * eps3 * xi
    tp = Theta / p
    # dR = opk^2 ((tp e2w) w_im + (tp eps3) chi)
    dR = tp * e2w * w_im
    dR += tp * eps3 * chi
    opk = kappa + 1.0
    opk *= opk
    dR *= opk
    # dTheta = Theta e2w (kappa w_re - sigma w_im) + Theta eps3 (kappa xi - sc)
    w_re *= kappa
    w_im *= sigma
    w_re -= w_im
    w_re *= Theta * e2w
    kappa *= xi
    kappa -= sc
    kappa *= Theta * eps3
    w_re += kappa
    dTh = w_re
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
    """Rotation factors (t, tau, q) of the nonsingular -> Cartesian map at
    |cos I| = c; regular for every c > -1, floats or arrays."""
    opc = 1.0 + c
    return 1.0 - xi * xi / opc, 1.0 - chi * chi / opc, xi * chi / opc


def ns_to_cart(psi, xi, chi, r, R, Theta, N):
    """Nonsingular state to Cartesian; c = N/Theta per the carried integral.

    The sign of N is the chart: psi = theta + nu for N >= 0, psi* = theta - nu
    for N < 0.  The rotation factors use |c|, and for N < 0 the y components
    of the result change sign.  States coming out of the periodic corrections
    can sit off the xi^2 + chi^2 = 1 - c^2 shell by a second-order amount;
    (xi, chi) are projected back onto the shell of the carried N, and a
    Theta below |N| (near the equator) is raised to |N|, which keeps the
    output's polar angular momentum exactly equal to the integral.  A state
    with xi = chi = 0 stays there.
    """
    m = _NUMPY if type(psi) is ndarray else _MATH
    # Theta is the caller's, or a scalar when no correction stage ran, so the
    # clamp allocates
    Theta = m.maximum(Theta, abs(N))
    cabs = abs(N) / Theta
    s2_shell = 1.0 - cabs * cabs
    s2_state = xi * xi
    s2_state += chi * chi
    # s2_state is kept at or above the smallest normal double, where
    # s2_shell / s2_state cannot overflow: xi = chi = 0 stays 0, and
    # components below 1e-154 are scaled by a finite factor, not projected
    scale = m.sqrt(s2_shell / m.imax(s2_state, DBL_MIN))
    xi = xi * scale
    scale *= chi
    chi = scale
    t, tau, q = rotation_factors(xi, chi, cabs)
    sp, cp = m.sincos(psi)
    qc = q * cp
    qs = q
    qs *= sp
    # the radial unit vector is (ux, uy, xi), the transverse one (-nx, -ny, chi)
    ux = t * cp
    ux += qs
    uy = t
    uy *= sp
    uy -= qc
    nx = sp
    nx *= tau
    nx += qc
    cp *= tau
    ny = qs
    ny -= cp
    w = Theta / r
    x = r * ux
    y = r * uy
    z = r * xi
    vx = ux
    vx *= R
    nx *= w
    vx -= nx
    vy = uy
    vy *= R
    ny *= w
    vy -= ny
    vz = xi
    vz *= R
    chi *= w
    vz += chi
    if N < 0.0:
        y *= -1.0
        vy *= -1.0
    return x, y, z, vx, vy, vz


def cart_to_ns(x, y, z, vx, vy, vz):
    """Cartesian to nonsingular; returns (psi, xi, chi, r, R, Theta, N).

    The sign of N is the chart: psi = theta + nu for N >= 0, otherwise
    psi* = theta - nu, realised by mirroring y.  psi comes in closed form
    from the radial unit vector u and the transverse one w = (v - R u) r/Theta
    of the (mirrored) state: u_y - w_x and u_x + w_y are
    (1 + |c|) (sin psi, cos psi), so the angle needs no division and is
    regular over the poles.  ZonalPropError unless 0 < r**2 < inf (a sum of
    finite squares may overflow), then NonEllipticStateError for zero angular
    momentum; the caller checks that the components are finite.  Floats only:
    the osculating-to-mean direction converts one state at a time.
    """
    r2 = x * x + y * y + z * z
    if not 0.0 < r2 < inf:
        raise position_norm_error(r2)
    r = sqrt(r2)
    R = (x * vx + y * vy + z * vz) / r
    N = x * vy - y * vx
    hx = y * vz - z * vy
    hy = z * vx - x * vz
    Theta = sqrt(hx * hx + hy * hy + N * N)
    if Theta == 0.0:
        raise NonEllipticStateError("rectilinear orbit: angular momentum vanishes")
    xi = z / r
    chi = (r * vz - z * R) / Theta
    if N < 0.0:
        y = -y
        vy = -vy
    psi = atan2(Theta * y - r * (r * vx - R * x), Theta * x + r * (r * vy - R * y))
    return psi, xi, chi, r, R, Theta, N


# ---------------------------------------------------------------------------
# mean-to-osculating pipeline
# ---------------------------------------------------------------------------

def reconstruct_and_correct(ell, g, h, L, G, H, mu, alpha, c20, c30, with_long):
    """Mean Delaunay elements -> osculating Cartesian state.

    Kepler solve, direct long-period correction at the double-prime state
    (with ``with_long``), direct short-period correction at the prime state,
    both in the full nonsingular forms, then the rotation-free Cartesian
    map, in the psi* chart when H < 0.  The angles (ell, g, h) may be arrays
    over epochs of one mean trajectory; everything computed from (L, G, H)
    alone stays a scalar.
    """
    m = _NUMPY if type(ell) is ndarray else _MATH
    r, R, theta = delaunay_orbit(ell, L, G, mu)
    theta += g
    psi = theta - h if H < 0.0 else theta + h
    cth = H / G
    sm2 = 1.0 - cth * cth
    sm = sqrt(sm2) if sm2 > 0.0 else 0.0
    # the double-prime state; each correction stage adds its deltas to it, in
    # place on arrays: the state's arrays are this function's own, and the
    # kernels write into none of their arguments.  What a later stage no
    # longer reads is deleted before that stage allocates its own
    # temporaries, for a lower peak per block: without these deletions a
    # one-day 1 s ``propagate`` peaked 0.7 MB higher in RSS and took 925
    # page faults, not 757
    xi, chi = m.sincos(theta)
    xi *= sm
    chi *= sm
    del theta
    Th = G
    if with_long:
        dpsi, dxi, dchi, dr, dR, dTh = long_ns(xi, chi, r, R, Th, H, mu, alpha, c20, c30)
        psi += dpsi
        xi += dxi
        chi += dchi
        r += dr
        R += dR
        Th += dTh
        del dpsi, dxi, dchi, dr, dR, dTh
    dpsi, dxi, dchi, dr, dR, dTh = short_ns(xi, chi, r, R, Th, H, mu, alpha, c20)
    psi += dpsi
    xi += dxi
    chi += dchi
    r += dr
    R += dR
    Th += dTh
    del dpsi, dxi, dchi, dr, dR, dTh
    return ns_to_cart(psi, xi, chi, r, R, Th, H)


def block_edges(n):
    """Row edges [0, ..., n] of the blocks an n-epoch grid is evaluated in.

    max(1, round(n / EPOCH_BLOCK)) blocks whose sizes differ by at most one:
    every block has the same fixed cost in NumPy calls, so a short tail
    block would cost nearly as much as a full one.
    """
    k = max(1, round(n / EPOCH_BLOCK))
    return [n * i // k for i in range(k + 1)]


def ephemeris_batch(ts, t0, ell0, g0, h0, L, G, H, ldot, gdot, hdot,
                    mu, alpha, c20, c30, with_long, out):
    """Fill ``out[i, :]`` with the osculating Cartesian state at ``ts[i]``.

    A grid of ARRAY_MIN_EPOCHS epochs or more, an ndarray, runs through the
    kernels on arrays, one per block of ``block_edges``; a shorter one runs
    epoch by epoch on floats, a list or tuple as given and an ndarray through
    ``tolist()``.  Either way each row depends on its own epoch only.
    """
    n = len(ts)
    if n < ARRAY_MIN_EPOCHS:
        for i, t in enumerate(ts.tolist() if isinstance(ts, ndarray) else ts):
            ell, g, h = mean_angles(ell0, g0, h0, ldot, gdot, hdot, t - t0)
            out[i] = reconstruct_and_correct(ell, g, h, L, G, H, mu, alpha, c20, c30, with_long)
        return
    edges = block_edges(n)
    for lo, hi in zip(edges[:-1], edges[1:]):
        rows = slice(lo, hi)
        ell, g, h = mean_angles(ell0, g0, h0, ldot, gdot, hdot, ts[rows] - t0)
        state = reconstruct_and_correct(ell, g, h, L, G, H, mu, alpha, c20, c30, with_long)
        for k in range(6):
            out[rows, k] = state[k]
        del state  # before the next block allocates its own
