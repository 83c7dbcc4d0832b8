"""The critical-inclination guard of the long-period stage.

The long-period elimination divides by 1 - 5 cos^2 I, so the theory is
inapplicable in a band around the critical inclinations 63.43 deg and
116.57 deg.  The long-period corrections themselves are ``_kernels.long_ns``;
the tests keep their reference forms in ``tests/reference_forms.py``.
"""

import math

from .errors import CriticalInclinationError, ZonalPropError, is_real

#: default half-width of the excluded band in |1 - 5 cos^2 I|
CRITICAL_TOL = 1e-3


def critical_inclination_guard(c: float, tol: float = CRITICAL_TOL) -> None:
    """Raise CriticalInclinationError inside the band |1 - 5 c^2| < tol.

    c^2 = 1/5 covers both the direct (63.43 deg) and retrograde (116.57 deg)
    critical inclinations.  This signals an inapplicable theory, not a
    numerical fault.  ZonalPropError for a c or tol that is not a finite
    ``is_real`` number, or a tol <= 0, which would switch the guard off.
    """
    if not (isinstance(c, float) or is_real(c)) or not -math.inf < c < math.inf:
        raise ZonalPropError(f"cos I must be finite (a real number), got {c!r}")
    if not (isinstance(tol, float) or is_real(tol)) or not 0.0 < tol < math.inf:
        raise ZonalPropError(
            f"critical-inclination tol must be finite and > 0 (a real number), got {tol!r}")
    if abs(1.0 - 5.0 * c * c) < tol:
        inc = math.degrees(math.acos(max(-1.0, min(1.0, c))))
        raise CriticalInclinationError(
            f"inclination {inc:.4f} deg lies inside the critical band "
            f"|1 - 5 cos^2 I| < {tol}; the long-period theory diverges there")
