"""Gravity-field constants, perturbation small parameters, and the
inclination-polynomial tables shared by the periodic-correction formulas
(computed by ``_kernels.q_polynomials``, the one source of the q_j)."""

import math
from dataclasses import astuple, dataclass, replace

from . import _kernels
from .errors import ZonalPropError


@dataclass(frozen=True)
class GravityField:
    """Axisymmetric gravity model truncated at degree 3.

    mu    -- gravitational parameter [length^3 / time^2]
    alpha -- equatorial radius of the primary [length]
    c20   -- zonal coefficient C_{2,0} = -J2 (dimensionless)
    c30   -- zonal coefficient C_{3,0} = -J3 (dimensionless)
    """

    mu: float
    alpha: float
    c20: float
    c30: float

    def __post_init__(self):
        if not (self.mu > 0.0 and math.isfinite(self.mu)):
            raise ZonalPropError(f"mu must be positive and finite, got {self.mu}")
        if not (self.alpha > 0.0 and math.isfinite(self.alpha)):
            raise ZonalPropError(f"alpha must be positive and finite, got {self.alpha}")
        if not (abs(self.c20) < 1.0 and abs(self.c30) < 1.0):
            raise ZonalPropError("zonal coefficients must satisfy |c| < 1")

    @property
    def j2(self) -> float:
        return -self.c20

    @property
    def j3(self) -> float:
        return -self.c30

    def scaled(self, j2_factor: float = 1.0, j3_factor: float = 1.0) -> "GravityField":
        """Field with the zonal coefficients multiplied (inflation studies)."""
        return replace(self, c20=self.c20 * j2_factor, c30=self.c30 * j3_factor)

    def restricted(self, model: str) -> "GravityField":
        """Field truncated to 'two-body', 'j2', or 'j2j3'."""
        if model == "two-body":
            return replace(self, c20=0.0, c30=0.0)
        if model == "j2":
            return replace(self, c30=0.0)
        if model == "j2j3":
            return self
        raise ZonalPropError(f"unknown model {model!r}")


# Published Earth constants (WGS84 GM/radius, EGM96 J2/J3), km / s units.
EARTH = GravityField(
    mu=398600.4418,
    alpha=6378.137,
    c20=-1.08262668e-3,
    c30=2.5326564853e-6,
)


@dataclass(frozen=True)
class SmallParams:
    """Perturbation small parameters for a given angular momentum.

    eps2 = C20 (alpha/p)^2 / 4, eps3 = (alpha/p)(C30/C20) / 2, p = Theta^2/mu.
    """

    eps2: float
    eps3: float
    p: float


def small_params(Theta: float, field: GravityField) -> SmallParams:
    """Small parameters of the zonal perturbation for angular momentum Theta."""
    if not (Theta > 0.0 and math.isfinite(Theta)):
        raise ZonalPropError(f"Theta must be positive and finite, got {Theta}")
    if field.c20 == 0.0 and field.c30 != 0.0:
        raise ZonalPropError("eps3 is undefined for c20 = 0 with c30 != 0")
    p, eps2, eps3 = _kernels.small_params(Theta, field.mu, field.alpha, field.c20, field.c30)
    return SmallParams(eps2=eps2, eps3=eps3, p=p)


@dataclass(frozen=True)
class InclinationPolynomials:
    """The q_j polynomials in c = cos(I) used by the long-period corrections.

    The numbering has no q4.  q6 is stored in the deflated form
    c (11 - 30 c^2 + 75 c^4) so that q5 = c q6 holds and polar orbits
    (c = 0) stay regular.
    """

    q0: float
    q1: float
    q2: float
    q3: float
    q5: float
    q6: float
    q7: float
    q8: float
    q9: float
    q10: float
    q11: float
    q12: float
    q13: float
    q14: float
    q15: float


def q_polynomials(c: float) -> InclinationPolynomials:
    """Evaluate the inclination polynomials at c = cos(I), c in [-1, 1]."""
    return InclinationPolynomials(*_kernels.q_polynomials(c))


@dataclass(frozen=True)
class PCoefficients:
    """Combinations of q polynomials with the eccentricity projections."""

    p1: float
    p2: float
    p3: float
    p4: float


def p_coefficients(kappa: float, sigma: float, q: InclinationPolynomials) -> PCoefficients:
    """P coefficients entering the nonsingular long-period corrections."""
    return PCoefficients(*_kernels.p_coefficients(kappa, sigma, astuple(q)))
