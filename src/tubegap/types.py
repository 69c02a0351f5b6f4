"""Shared physical data types: fluid, duct geometry, samples, scattering data.

These are the only types shared between the model-based retrieval pipeline
and the finite-difference forward solver, which keeps the two sides
independent of each other's mathematics.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from tubegap.errors import DomainError


@dataclass(frozen=True)
class MediumProperties:
    """Background fluid in the duct.

    Attributes:
        rho0: density (kg/m^3)
        c0: sound speed (m/s)
    """

    rho0: float = 1.21
    c0: float = 343.0

    def __post_init__(self):
        if not (self.rho0 > 0 and math.isfinite(self.rho0)):
            raise DomainError(f"density must be positive, got {self.rho0}")
        if not (self.c0 > 0 and math.isfinite(self.c0)):
            raise DomainError(f"sound speed must be positive, got {self.c0}")

    @property
    def alpha(self) -> float:
        """Characteristic specific impedance rho0*c0 (Pa*s/m)."""
        return self.rho0 * self.c0


@dataclass(frozen=True)
class DuctGeometry:
    """Cylindrical duct with a coaxial sample disk and annular air gap.

    Attributes:
        r1: sample radius (m)
        r2: duct radius (m)
        t: sample thickness (m)
    """

    r1: float
    r2: float
    t: float

    def __post_init__(self):
        if not (0 < self.r1 < self.r2):
            raise DomainError(
                f"need 0 < r1 < r2, got r1={self.r1}, r2={self.r2}; "
                "a sample that fills the duct is handled by the classic "
                "full-duct retrieval instead"
            )
        if not (self.t > 0 and math.isfinite(self.t)):
            raise DomainError(f"thickness must be positive, got {self.t}")

    @property
    def s1(self) -> float:
        """Sample cross-section area (m^2)."""
        return math.pi * self.r1 ** 2

    @property
    def s2(self) -> float:
        """Full duct cross-section area (m^2)."""
        return math.pi * self.r2 ** 2

    @property
    def s3(self) -> float:
        """Annular gap cross-section area (m^2)."""
        return math.pi * (self.r2 ** 2 - self.r1 ** 2)


@dataclass(frozen=True)
class GapProperties:
    """Effective parameters of the annular air gap next to the sample.

    The gap behaves as air, so its refractive index is 1 and its acoustic
    impedance (pressure over volume velocity) is rho0*c0 divided by the
    gap area.
    """

    n2: complex
    z2: complex

    @classmethod
    def from_geometry(cls, geometry: DuctGeometry, medium: MediumProperties) -> "GapProperties":
        return cls(n2=1.0 + 0.0j, z2=medium.alpha / geometry.s3 + 0.0j)


@dataclass(frozen=True)
class MaterialSpec:
    """Effective description of the sample disk.

    n1 is the refractive index relative to the background fluid; z1 is the
    acoustic impedance in volume-velocity form (Pa*s/m^3), i.e. it already
    includes the sample cross-section.
    """

    n1: complex
    z1: complex

    def __post_init__(self):
        for name, value in (("refractive index", self.n1), ("impedance", self.z1)):
            if value == 0 or not cmath.isfinite(value):
                raise DomainError(f"sample {name} must be finite and nonzero, got {value}")

    def effective_density(self, geometry: DuctGeometry, medium: MediumProperties) -> complex:
        """Equivalent fluid density realizing (n1, z1) over the sample area."""
        return self.z1 * geometry.s1 * self.n1 / medium.c0

    def effective_bulk_modulus(self, geometry: DuctGeometry, medium: MediumProperties) -> complex:
        """Equivalent fluid bulk modulus realizing (n1, z1) over the sample area."""
        return self.z1 * geometry.s1 * medium.c0 / self.n1

    @classmethod
    def air(cls, geometry: DuctGeometry, medium: MediumProperties) -> "MaterialSpec":
        """The sample that is acoustically identical to the fluid it displaces."""
        return cls(n1=1.0 + 0.0j, z1=medium.alpha / geometry.s1 + 0.0j)


@dataclass(frozen=True)
class ScatteringData:
    """One measured or simulated frequency point.

    Attributes:
        f: frequency (Hz)
        transmission: complex transmission coefficient (transmitted over
            incident plane-wave pressure amplitude, referenced to the
            sample faces)
        reflection: complex reflection coefficient at the upstream face
    """

    f: float
    transmission: complex
    reflection: complex

    def __post_init__(self):
        if not (self.f > 0 and math.isfinite(self.f)):
            raise DomainError(f"frequency must be positive, got {self.f}")
        for name, value in (("transmission", self.transmission), ("reflection", self.reflection)):
            if not (math.isfinite(value.real) and math.isfinite(value.imag)):
                raise DomainError(f"{name} coefficient must be finite, got {value}")
