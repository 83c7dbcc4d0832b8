"""The critical-inclination guard of the long-period stage.

The long-period elimination divides by 1 - 5 cos^2 I, so the theory is
inapplicable in a band around the critical inclinations 63.43 deg and
116.57 deg.  The long-period corrections themselves are ``_kernels.long_ns``
(the pipeline's) and the reference forms in ``reference``.
"""

import math

from .errors import CriticalInclinationError, ZonalPropError

#: default half-width of the excluded band in |1 - 5 cos^2 I|
CRITICAL_TOL = 1e-3


def critical_inclination_guard(c: float, tol: float = CRITICAL_TOL) -> None:
    """Raise CriticalInclinationError inside the band |1 - 5 c^2| < tol.

    c^2 = 1/5 covers both the direct (63.43 deg) and retrograde (116.57 deg)
    critical inclinations.  This signals an inapplicable theory, not a
    numerical fault.  A non-finite c raises ZonalPropError, and so does a
    tol that is not finite and positive, which would switch the guard off.
    """
    if not math.isfinite(c):
        raise ZonalPropError(f"cos I must be finite, got {c}")
    if not 0.0 < tol < math.inf:
        raise ZonalPropError(f"critical-inclination tol must be finite and > 0, got {tol}")
    if abs(1.0 - 5.0 * c * c) < tol:
        inc = math.degrees(math.acos(max(-1.0, min(1.0, c))))
        raise CriticalInclinationError(
            f"inclination {inc:.4f} deg lies inside the critical band "
            f"|1 - 5 cos^2 I| < {tol}; the long-period theory diverges there")
