"""Gravity-field constants and the check that the perturbation small
parameters exist; the small parameters themselves, like every other formula
of the theory, are computed in ``_kernels`` (``_kernels.small_params``)."""

import math
import sys
from dataclasses import dataclass, replace

from .errors import ZonalPropError, is_real


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
        for name, value in vars(self).items():
            if not is_real(value):
                raise ZonalPropError(f"{name} must be a real number, got {value!r}")
        # an int above the largest double is no finite double either
        if not 0.0 < self.mu <= sys.float_info.max:
            raise ZonalPropError(f"mu must be positive and finite, got {self.mu}")
        if not 0.0 < self.alpha <= sys.float_info.max:
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


def check_small_params(Theta: float, field: GravityField) -> None:
    """Raise ZonalPropError unless the small parameters exist for Theta in
    ``field``: Theta positive and finite, and not c20 = 0 with c30 != 0."""
    if not (Theta > 0.0 and math.isfinite(Theta)):
        raise ZonalPropError(f"Theta must be positive and finite, got {Theta}")
    if field.c20 == 0.0 and field.c30 != 0.0:
        raise ZonalPropError("eps3 is undefined for c20 = 0 with c30 != 0")
