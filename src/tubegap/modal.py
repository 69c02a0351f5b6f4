"""Duct eigenmodes and interface radiation-coupling coefficients.

A rigid circular duct carries axisymmetric modes J0(k_n r) whose radial
wavenumbers k_n satisfy a zero-slope wall condition, i.e. k_n = x_n / r2
with x_n the roots of J1 (x_0 = 0 is the plane wave).  When a sample disk
and its surrounding air gap terminate on a duct cross-section, the
pressure each patch feels from the duct side is a modal sum over these
eigenmodes.  Averaging that sum over the two patches produces eight
coupling coefficients: a 2x2 matrix for the upstream face and a 2x2
matrix for the downstream face, relating patch-averaged pressures to
patch volume velocities.

Sign and branch conventions (fixed package-wide):

* time dependence exp(+i w t); a plane wave travelling toward +x is
  exp(-i k0 x), so transmission through an air layer of thickness t is
  exp(-i k0 t);
* propagating modes (k_n < k0) have real positive axial wavenumber
  beta_n = sqrt(k0^2 - k_n^2);
* evanescent modes (k_n > k0) take beta_n = -i sqrt(k_n^2 - k0^2), the
  branch on which an outgoing mode decays away from the interface and the
  reactive part of the radiation loading is mass-like (positive).  The
  finite-difference oracle in tubegap.fdfd independently confirms this
  choice via the round-trip tests.

J0 and J1 come from ``scipy.special``.  The first 127 roots of J1 are a
constant, equal bit for bit to ``scipy.special.jn_zeros(1, 127)``; that
covers twice the default truncation, and only larger ones call
``jn_zeros``.  The root tables are cached per truncation and the patch
integrals per geometry, so a sweep evaluates Bessel functions only once,
as whole-array expressions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.special import j0 as bessel_j0, j1 as bessel_j1, jn_zeros

from tubegap.errors import ConvergenceError, DomainError
from tubegap.types import DuctGeometry, MediumProperties

DEFAULT_MODE_COUNT = 64
# largest relative movement of a coupling coefficient when the truncation is
# doubled from n_modes/2 to n_modes; read at call time, so tests can patch it
SUM_TOLERANCE = 1e-3
# geometries whose patch integrals stay cached; fixed so that runs over many
# geometries (e.g. randomized draws) keep a bounded memory footprint
PATCH_CACHE_SIZE = 32


# jn_zeros(1, 127), copied bit for bit: the default truncation and its
# doubling after a ConvergenceError need no root search, which took 2-4 ms
# per process on a 2-core machine
_J1_ROOT_TABLE = np.array([
    3.8317059702075125, 7.015586669815619, 10.173468135062722, 13.323691936314223,
    16.470630050877634, 19.615858510468243, 22.760084380592772, 25.903672087618382,
    29.046828534916855, 32.189679910974405, 35.33230755008386, 38.474766234771614,
    41.61709421281445, 44.75931899765282, 47.90146088718545, 51.043535183571514,
    54.18555364106132, 57.32752543790101, 60.46945784534749, 63.61135669848123,
    66.75322673409849, 69.89507183749578, 73.03689522557383, 76.17869958464146,
    79.3204871754763, 82.46225991437356, 85.60401943635023, 88.7457671449263,
    91.88750425169499, 95.0292318080447, 98.17095073079078, 101.31266182303874,
    104.45436579128275, 107.59606325950917, 110.73775478089921, 113.87944084759499,
    117.02112189889243, 120.16279832814901, 123.30447048863572, 126.44613869851659,
    129.587803245104, 132.72946438850963, 135.871122364789, 139.0127773886597,
    142.15442965585902, 145.29607934519592, 148.43772662034223, 151.57937163140144,
    154.72101451628595, 157.8626554019303, 161.004294405362, 164.14593163464963,
    167.2875671897441, 170.42920116322662, 173.57083364097593, 176.71246470276375,
    179.8540944227884, 182.99572287015297, 186.1373501092955, 189.278976200376,
    192.4206011996257, 195.56222515966257, 198.70384812977704, 201.84547015619088,
    204.98709128229234, 208.12871154885005, 211.27033099420777, 214.41194965446198,
    217.5535675636242, 220.69518475376935, 223.83680125517174, 226.97841709642947,
    230.1200323045791, 233.26164690520062, 236.4032609225143, 239.54487437946986,
    242.6864872978287, 245.8280996982398, 248.96971160030992, 252.11132302266859,
    255.25293398302813, 258.3945444982395, 261.53615458434405, 264.6777642566215,
    267.81937352963456, 270.9609824172707, 274.1025909327807, 277.2441990888146,
    280.3858068974556, 283.5274143702514, 286.6690215182434, 289.8106283519944,
    292.9522348816139, 296.09384111678247, 299.23544706677416, 302.37705274047755,
    305.5186581464156, 308.6602632927644, 311.8018681873705, 314.94347283776716,
    318.0850772511904, 321.2266814345928, 324.36828539465785, 327.5098891378125,
    330.6514926702394, 333.7930959978886, 336.934699126488, 340.0763020615541,
    343.2179048084013, 346.35950737215103, 349.50110975774095, 352.6427119699324,
    355.7843140133188, 358.9259158923327, 362.06751761125264, 365.2091191742101,
    368.3507205851957, 371.4923218480648, 374.6339229665437, 377.77552394423464,
    380.91712478462097, 384.05872549107215, 387.2003260668482, 390.3419265151044,
    393.483526838895, 396.62512704117756, 399.7667271248168,
])
_J1_ROOT_TABLE.setflags(write=False)


@lru_cache(maxsize=PATCH_CACHE_SIZE)
def _j1_roots(n_modes: int) -> np.ndarray:
    """0 followed by the first ``n_modes - 1`` positive roots of J1 (read-only).

    Truncations beyond the table search their roots with ``jn_zeros``.
    """
    count = n_modes - 1
    positive = _J1_ROOT_TABLE[:count] if count <= len(_J1_ROOT_TABLE) else jn_zeros(1, count)
    roots = np.concatenate(([0.0], positive))
    roots.setflags(write=False)
    return roots


@dataclass(frozen=True)
class ModalBasis:
    """Radial eigenmode set of a rigid duct, truncated to ``n_modes``.

    Attributes:
        geometry: the duct the basis belongs to
        k: radial wavenumbers k_n = x_n / r2 (1/m), k[0] == 0
        wall_values: J0(k_n r2), the eigenmode normalization at the wall
    """

    geometry: DuctGeometry
    k: np.ndarray
    wall_values: np.ndarray

    @property
    def n_modes(self) -> int:
        return len(self.k)

    def axial_wavenumbers(self, f: float, medium: MediumProperties) -> np.ndarray:
        """Per-mode axial wavenumbers beta_n at frequency f.

        Real positive for propagating modes, -i*positive for evanescent
        ones (see module docstring for the branch rule).
        """
        k0 = 2.0 * math.pi * f / medium.c0
        diff = (k0 - self.k) * (k0 + self.k)
        on_cutoff = np.flatnonzero(np.abs(diff) < 1e-24 * k0 * k0)
        if on_cutoff.size:
            raise DomainError(
                f"frequency {f} Hz sits exactly on the cutoff of duct mode {on_cutoff[0]}"
            )
        root = np.sqrt(np.abs(diff))
        return np.where(diff > 0, root, -1j * root)


def duct_wavenumbers(geometry: DuctGeometry, n_modes: int) -> ModalBasis:
    """Build the radial eigenmode basis with ``n_modes`` modes.

    Mode 0 is the plane wave (k = 0); mode n has k_n = x_n / r2 with x_n
    the n-th positive root of J1.
    """
    if not isinstance(n_modes, int) or isinstance(n_modes, bool) or n_modes < 1:
        raise DomainError(f"mode count must be a positive integer, got {n_modes!r}")
    k = _j1_roots(n_modes) / geometry.r2
    wall = bessel_j0(k * geometry.r2)
    return ModalBasis(geometry=geometry, k=k, wall_values=wall)


def first_cutoff_frequency(geometry: DuctGeometry, medium: MediumProperties) -> float:
    """Cutoff of the first non-planar axisymmetric mode (Hz)."""
    return _j1_roots(2)[1] * medium.c0 / (2.0 * math.pi * geometry.r2)


def refuse_above_cutoff(freqs: list[float], geometry: DuctGeometry, medium: MediumProperties) -> None:
    """Raise DomainError naming the first frequency above the first duct
    cutoff, if any: there a second duct mode propagates, and plane-wave
    (T, R) no longer describe the scattering."""
    cutoff = first_cutoff_frequency(geometry, medium)
    first_bad = next((f for f in freqs if f > cutoff), None)
    if first_bad is not None:
        raise DomainError(
            f"sweep reaches {first_bad} Hz, above the first duct cutoff ({cutoff:.1f} Hz); "
            "set allow_above_cutoff (--allow-above-cutoff) to proceed anyway"
        )


def eigenmode(n: int, r: float, basis: ModalBasis) -> float:
    """Radial eigenmode profile, normalized to 1 at the duct wall."""
    if not 0 <= n < basis.n_modes:
        raise DomainError(f"mode index {n} outside basis of {basis.n_modes} modes")
    if not 0.0 <= r <= basis.geometry.r2:
        raise DomainError(f"radius {r} outside duct of radius {basis.geometry.r2}")
    return bessel_j0(basis.k[n] * r) / basis.wall_values[n]


def radial_integral(k: float, a: float, b: float) -> float:
    """Integral of J0(k r) * r dr from a to b.

    Closed form (r J1(k r) / k evaluated at the endpoints) for k > 0; the
    k = 0 case is handled analytically as (b^2 - a^2)/2 rather than as a
    numerical limit.
    """
    if not 0.0 <= a < b:
        raise DomainError(f"need 0 <= a < b, got a={a}, b={b}")
    if not math.isfinite(k):
        raise DomainError(f"radial wavenumber must be finite, got {k}")
    if k == 0.0:
        return 0.5 * (b * b - a * a)
    return (b * bessel_j1(k * b) - a * bessel_j1(k * a)) / k


@lru_cache(maxsize=PATCH_CACHE_SIZE, typed=True)
def _patch_integrals(
    geometry: DuctGeometry, n_modes: int
) -> tuple[ModalBasis, np.ndarray, np.ndarray]:
    """Basis plus per-mode disk and ring integrals of the normalized eigenmode.

    These depend only on the geometry and the truncation, so a sweep
    computes them once.  The returned arrays are shared between callers
    and therefore read-only.
    """
    basis = duct_wavenumbers(geometry, n_modes)
    r1, r2 = geometry.r1, geometry.r2
    # radial_integral's closed form over all modes; mode 0 (k = 0) separately
    k = basis.k[1:]
    inner = r1 * bessel_j1(k * r1)
    outer = r2 * bessel_j1(k * r2)
    disk = np.concatenate(([0.5 * r1 * r1], inner / k)) / basis.wall_values
    ring = np.concatenate(([0.5 * (r2 * r2 - r1 * r1)], (outer - inner) / k)) / basis.wall_values
    for array in (basis.k, basis.wall_values, disk, ring):
        array.setflags(write=False)
    return basis, disk, ring


@dataclass(frozen=True)
class CouplingCoefficients:
    """Radiation coupling of the (sample, gap) patches to the duct sides.

    ``upstream[i, j]`` is the averaged pressure on patch i at the upstream
    face produced per unit volume velocity of patch j, signed so that the
    interface balance reads  p_avg = p_blocked + upstream @ u  with all
    volume velocities measured toward +x.  ``downstream`` plays the same
    role at the exit face (where p_avg = downstream @ u, no incident
    drive).  Patch 0 is the sample disk, patch 1 the annular gap.

    With a single plane-wave mode these reduce to -+ rho0 c0 / S2 on every
    entry.  ``rel_change`` records the largest relative movement of any
    entry when the modal truncation is doubled from n_modes/2 to n_modes.
    """

    frequency: float
    upstream: np.ndarray
    downstream: np.ndarray
    rel_change: float
    above_cutoff: bool


def coupling_coefficients(
    geometry: DuctGeometry,
    medium: MediumProperties,
    f: float,
    n_modes: int = DEFAULT_MODE_COUNT,
) -> CouplingCoefficients:
    """Compute the eight patch-coupling coefficients at one frequency.

    Each coefficient is a modal sum of (prefactor) * (source-patch radial
    integral) * (receiver-patch radial integral) / (-i pi r2^2 beta_n);
    the radial integrals use the closed form of ``radial_integral``.

    Raises ConvergenceError if doubling the truncation from n_modes/2 to
    n_modes still moves any coefficient by more than ``SUM_TOLERANCE``
    (relative).  The modal tail decays like n^-3, so the partial sums
    converge quadratically in the truncation; the tolerance is chosen
    accordingly.
    """
    if not (f > 0 and math.isfinite(f)):
        raise DomainError(f"frequency must be positive, got {f}")
    basis, disk, ring = _patch_integrals(geometry, n_modes)
    r1, r2 = geometry.r1, geometry.r2
    omega = 2.0 * math.pi * f
    beta = basis.axial_wavenumbers(f, medium)
    green = 1.0 / (-1j * math.pi * r2 * r2 * beta)

    ring_sq = r2 * r2 - r1 * r1
    scale = 4j * medium.rho0 * omega
    # the prefactors stay Python complex scalars: numpy's complex-by-real
    # division rounds differently from Python's
    cross = scale / (r1 * r1 * ring_sq)
    pre = np.array([[scale / r1 ** 4, cross], [cross, scale / ring_sq ** 2]])
    patch = np.stack((disk, ring))
    terms = pre[:, :, None] * (patch[:, None, :] * patch[None, :, :]) * green
    running = np.cumsum(terms, axis=-1)

    half = n_modes // 2 if n_modes > 1 else 1
    upstream = running[:, :, -1]
    upstream_half = running[:, :, half - 1]
    downstream = -upstream
    rel_change = float(
        np.max(np.abs(upstream - upstream_half) / np.abs(upstream))
    )
    if n_modes > 1 and rel_change > SUM_TOLERANCE:
        raise ConvergenceError(
            f"modal sum moved by {rel_change:.3e} (> {SUM_TOLERANCE:.1e}) when "
            f"doubling the truncation to {n_modes} modes at {f} Hz"
        )
    above = f > first_cutoff_frequency(geometry, medium)
    return CouplingCoefficients(
        frequency=f,
        upstream=upstream,
        downstream=downstream,
        rel_change=rel_change,
        above_cutoff=above,
    )
