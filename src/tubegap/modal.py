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

Everything here is plain Python on floats and complex numbers, one
frequency at a time, so the averaged path never imports numpy: only a
process that runs the simulator pays that import (about 90 ms on a
2-core machine).  J0 and J1 are the package's own (``bessel_j0``,
``bessel_j1``); importing ``scipy.special`` would cost the command line
about 0.3 s per process, so no module of the package imports scipy.
Each call is one loop over its arguments that gives each the cheapest of
nine kernels for its band of x (see ``_kernels``): J1 at the 63 arguments
of a 64-mode geometry took 44-54 us and J0 at the 63 duct roots 41 us on
a 2-core machine.
The first 127 roots of J1 are a constant, equal bit for bit to
``scipy.special.jn_zeros(1, 127)``; that covers twice the default
truncation, and only larger ones search the roots past it, once per
truncation, from McMahon's expansion and one Newton step; the wall
values J0(x_n) are cached with them.  What a frequency's couplings need
of a geometry (the wavenumbers, the squared disk integrals and the three
patch weights) is one ``ModalBasis``, cached per radii and truncation, so
a fresh geometry costs one J1 evaluation over ``n_modes - 1`` arguments
and a sweep over one geometry costs no more.

``upstream_coupling`` sums one frequency's couplings.  Past the plane
wave, the ring's patch integral of each mode is minus the disk's, so the
four coefficients share one modal sum, real below the first cutoff: the
propagating modes and the evanescent ones, each in one pass with no
per-mode branch.  A point's couplings depend on nothing but that point.  The
array-returning helpers the acceptance suite reads (``ModalBasis.k``,
``coupling_coefficients``) import numpy when called.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from collections import namedtuple
from functools import lru_cache
from math import sqrt
from operator import mul

from tubegap.errors import ConvergenceError, DomainError
from tubegap.types import DuctGeometry, MediumProperties

TYPE_CHECKING = False  # typing.TYPE_CHECKING without importing typing
if TYPE_CHECKING:
    import numpy as np

DEFAULT_MODE_COUNT = 64
# largest relative movement of a coupling coefficient when the truncation is
# doubled from n_modes/2 to n_modes; read at call time, so tests can patch it
SUM_TOLERANCE = 1e-3
# radius pairs whose ModalBasis records, and truncations whose J1 roots and
# wall values, stay cached; fixed so that runs over many geometries (e.g.
# randomized draws) keep a bounded memory footprint
PATCH_CACHE_SIZE = 32

# J0 and J1 by the cheapest of nine kernels, one per band of |x|.  Below
# _HANKEL_FROM: Bessel's integral (DLMF 10.9.2) folded onto a quarter period,
#     J0(x) = (2/pi) int_0^{pi/2} cos(x sin tau) dtau,
#     J1(x) = (2/pi) int_0^{pi/2} sin(x sin tau) sin tau dtau,
# by the midpoint rule.  The integrands are smooth and periodic, so the rule
# converges exponentially (Trefethen & Weideman, SIAM Rev. 56(3), 2014): N
# nodes are the 4N-node rule on the full period, whose aliasing error is of
# the size of J_4N(x); each band has the fewest N for which |J_4N| is below
# 1e-17 at its end.  From _HANKEL_FROM on: Hankel's expansion (DLMF
# 10.17.3), its P and Q series as Horner chains in 1/x^2; each band keeps
# the fewest T = 2m terms whose first omitted term, sqrt(2/(pi x)) a_T(nu) /
# x^T, is below 1e-17 at its start.  Against mpmath the midpoint bands
# read at most 4.6e-16 absolute and the Hankel bands 5.6e-17 (6000 points
# below x = 300 and both sides of every switch); against scipy.special,
# 1.3e-15, which is scipy's own error near x = 257.
_HANKEL_FROM = 20.0
# |x| below _BAND_EDGES[0] is band 0, from _BAND_EDGES[i - 1] on band i; per
# band, N for the midpoint rule below _HANKEL_FROM, T for Hankel's from it
_BAND_EDGES = (12.0, 17.0, _HANKEL_FROM, 25.0, 35.0, 50.0, 80.0, 130.0)
_BAND_SIZES = (10, 12, 14, 24, 18, 14, 12, 10, 8)


def _kernels(nu: int):
    """Yield the constant pairs of J_nu's kernel on each band.

    Below _HANKEL_FROM, the N pairs (sin tau_j, w_j), with
    J_nu(x) = sum_j f(x sin tau_j) w_j / N and, for nu = 0, f = cos and
    w_j = 1, for nu = 1, f = sin and w_j = sin tau_j.  From it on, the T/2
    pairs (p_k, q_k), highest power first, with
    J_nu(x) = sqrt(1/x) ((P + Q) f(x) + (-1)^nu (P - Q) g(x)) and
    (f, g) = (cos, sin) for nu = 0, (sin, cos) for nu = 1, where
    P = sum_k p_k / x^2k and Q = sum_k q_k / x^(2k+1) are Hankel's P and Q
    (coefficients a_j(nu) from DLMF 10.17.1) over sqrt(pi), the phase
    (2 nu + 1) pi / 4 folded in: p_k = (-1)^k a_2k, q_k = (-1)^k a_2k+1.
    """
    a, signed = 1.0 / math.sqrt(math.pi), []
    for j in range(max(_BAND_SIZES)):
        signed.append(-a if j % 4 >= 2 else a)  # (-1)^(j // 2) a_j / sqrt(pi)
        a *= (4 * nu * nu - (2 * j + 1) ** 2) / (8 * j + 8)
    for start, count in zip((0.0,) + _BAND_EDGES, _BAND_SIZES):
        if start < _HANKEL_FROM:
            sines = [math.sin((j + 0.5) * (0.5 * math.pi / count)) for j in range(count)]
            yield tuple(zip(sines, sines if nu else [1.0] * count))
        else:
            yield tuple(zip(signed[count - 2::-2], signed[count - 1::-2]))


# per nu: the kernels, f, g and (-1)^nu
_KERNELS = ((tuple(_kernels(0)), math.cos, math.sin, 1.0),
            (tuple(_kernels(1)), math.sin, math.cos, -1.0))


def _bessel(nu: int, x) -> list:
    """J_nu at each finite real of the iterable ``x``, for nu = 0 or 1."""
    kernels, f, g, sign = _KERNELS[nu]
    values = []
    for v in x:
        ax = abs(v)
        kernel = kernels[bisect_right(_BAND_EDGES, ax)]
        if ax < _HANKEL_FROM:
            value = 0.0
            for s, w in kernel:
                value += f(ax * s) * w
            value /= len(kernel)
        else:
            inverse = 1.0 / ax
            y = inverse * inverse
            p = q = 0.0
            for c_p, c_q in kernel:  # Horner's rule in 1/x^2
                p = p * y + c_p
                q = q * y + c_q
            q *= inverse
            value = sqrt(inverse) * ((p + q) * f(ax) + sign * (p - q) * g(ax))
        values.append(-value if nu and v < 0 else value)  # J1 is odd
    return values


def bessel_j0(x) -> list[float]:
    """Bessel function J0 at each float of the iterable ``x``."""
    return _bessel(0, x)


def bessel_j1(x) -> list[float]:
    """Bessel function J1 at each float of the iterable ``x``."""
    return _bessel(1, x)


# scipy.special.jn_zeros(1, 127), copied bit for bit: the default truncation
# and its doubling after a ConvergenceError need no root search
_J1_ROOT_TABLE = (
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
)


# a cache of its own, not _modal_basis's: each fresh pair of radii would
# otherwise pay for J0 at the roots again (41 us of a 0.28 ms draw at 64 modes)
@lru_cache(maxsize=PATCH_CACHE_SIZE)
def _duct_roots(n_modes: int) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """0 and the first ``n_modes - 1`` positive roots of J1, and J0 at each:
    the eigenmode normalization at the wall, the same for every duct radius.

    Truncations beyond the table search the roots past it with
    ``_search_j1_roots``, once per truncation.
    """
    count = n_modes - 1
    positive = _J1_ROOT_TABLE[:count]
    if count > len(positive):
        positive += _search_j1_roots(len(positive) + 1, count)
    roots = (0.0, *positive)
    return roots, tuple(bessel_j0(roots))


def _search_j1_roots(first: int, last: int) -> tuple[float, ...]:
    """The positive roots of J1 numbered ``first`` to ``last`` (from 1).

    Root m starts from McMahon's expansion (DLMF 10.21.19 at nu = 1) to its
    1/a term, a - 3/(8a) with a = (m + 1/4) pi, and takes one Newton step
    on ``_bessel`` with J1' = J0 - J1/x.  Past the table (m >= 128) the
    start is within 12/(8a)^3 < 4e-10 of the root, and the step leaves
    about the square of that over 2x, below 1e-21; what remains is
    ``_bessel``'s rounding.  Roots 128-1100 are within 1 ulp of mpmath's
    30-digit roots, 972 of the 973 correctly rounded.
    """
    roots = []
    for m in range(first, last + 1):
        a = (m + 0.25) * math.pi
        x = a - 3.0 / (8.0 * a)
        j1 = _bessel(1, [x])[0]
        roots.append(x - j1 / (_bessel(0, [x])[0] - j1 / x))
    return tuple(roots)


class ModalBasis(namedtuple("ModalBasis", "wavenumbers squares w_disk w_cross w_ring")):
    """Radial eigenmode set of a rigid duct, truncated to ``n_modes``, and
    what a frequency's couplings need of the two radii.

    Attributes:
        wavenumbers: radial wavenumbers k_n = x_n / r2 (1/m), k_0 == 0
        squares: per mode n >= 1, the squared integral of the normalized
            eigenmode over the disk, the ring's too (its integral is minus
            the disk's)
        w_disk, w_cross, w_ring: 1/r1^4, 1/(r1^2 (r2^2 - r1^2)), 1/(r2^2 - r1^2)^2
    """

    __slots__ = ()

    @property
    def n_modes(self) -> int:
        return len(self.wavenumbers)

    @property
    def k(self) -> np.ndarray:
        """``wavenumbers`` as a numpy array (imports numpy)."""
        import numpy as np

        return np.array(self.wavenumbers)


@lru_cache(maxsize=PATCH_CACHE_SIZE, typed=True)
def _modal_basis(r1: float, r2: float, n_modes: int) -> ModalBasis:
    """``duct_wavenumbers``'s record, built once per sweep: none of it
    depends on the thickness or the frequency.  The mode count is checked
    here, so that only a cache miss pays for the check."""
    if not isinstance(n_modes, int) or isinstance(n_modes, bool) or n_modes < 1:
        raise DomainError(f"mode count must be a positive integer, got {n_modes!r}")
    roots, wall = _duct_roots(n_modes)
    wavenumbers = tuple(x / r2 for x in roots)
    k, wall = wavenumbers[1:], wall[1:]
    # radial_integral's closed form over the wall values.  The ring's outer
    # term r2 J1(k_n r2) is left out: k_n r2 are the roots of J1, so it is
    # roundoff (|J1(x_n)| of a few 1e-15)
    disk = [r1 * j / kn / w for j, kn, w in zip(bessel_j1([kn * r1 for kn in k]), k, wall)]
    ring_sq = r2 * r2 - r1 * r1
    return ModalBasis(wavenumbers=wavenumbers, squares=tuple(map(mul, disk, disk)),
                      w_disk=1.0 / r1 ** 4, w_cross=1.0 / (r1 * r1 * ring_sq),
                      w_ring=1.0 / ring_sq ** 2)


def duct_wavenumbers(geometry: DuctGeometry, n_modes: int) -> ModalBasis:
    """The radial eigenmode basis with ``n_modes`` modes, one cached record.

    Mode 0 is the plane wave (k = 0); mode n has k_n = x_n / r2 with x_n
    the n-th positive root of J1.
    """
    return _modal_basis(geometry.r1, geometry.r2, n_modes)


def first_cutoff_frequency(geometry: DuctGeometry, medium: MediumProperties) -> float:
    """Cutoff of the first non-planar axisymmetric mode (Hz)."""
    return _J1_ROOT_TABLE[0] * medium.c0 / (2.0 * math.pi * geometry.r2)


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
    j_a, j_b = bessel_j1([k * a, k * b])
    return (b * j_b - a * j_a) / k


class CouplingCoefficients(namedtuple("CouplingCoefficients",
                                      "frequency upstream downstream rel_change")):
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

    __slots__ = ()


def upstream_coupling(
    geometry: DuctGeometry,
    medium: MediumProperties,
    f: float,
    n_modes: int = DEFAULT_MODE_COUNT,
) -> tuple[tuple[tuple[complex, complex], tuple[complex, complex]], float]:
    """The upstream coupling matrix at frequency f, as nested (row, column)
    tuples, and its ``rel_change``; the downstream matrix is its negative
    (see ``CouplingCoefficients``).

    Each coefficient is a modal sum of (prefactor) * (source-patch radial
    integral) * (receiver-patch radial integral) / (-i pi r2^2 beta_n);
    the radial integrals use the closed form of ``radial_integral``.  The
    plane wave gives every entry the same term, and past it the ring's
    integral is minus the disk's, so the entries share one sum over modes
    n >= 1 of the disk's squared integral over beta_n, taken in two parts
    (up to n_modes/2 and beyond) whose second is the truncation change.

    Raises DomainError if f is not positive and finite or sits on a mode's
    cutoff, and ConvergenceError if doubling the truncation from n_modes/2
    to n_modes still moves any coefficient by more than ``SUM_TOLERANCE``
    (relative).  The modal tail decays like n^-3, so the partial sums
    converge quadratically in the truncation; the tolerance is chosen
    accordingly.
    """
    if not (f > 0 and math.isfinite(f)):
        raise DomainError(f"frequency must be positive, got {f}")
    r2 = geometry.r2
    basis = _modal_basis(geometry.r1, r2, n_modes)
    k, squares = basis.wavenumbers, basis.squares
    k0 = 2.0 * math.pi * f / medium.c0
    # modes 0 .. propagating - 1 propagate; only the two on either side of
    # k0 can sit on a cutoff, where beta_n = 0 and the frequency is refused
    propagating = bisect_left(k, k0)
    for mode, kn in enumerate(k[propagating - 1:propagating + 1], propagating - 1):
        if abs((k0 - kn) * (k0 + kn)) < 1e-24 * k0 * k0:
            raise DomainError(
                f"frequency {f} Hz sits exactly on the cutoff of duct mode {mode}")
    # squares_n / beta_n times i: i squares_n / beta_n for a propagating
    # mode, -squares_n / |beta_n| for an evanescent one; the sum up to
    # n_modes/2 and the rest, whose size is the truncation's change
    terms = [1j * q / sqrt((k0 - kn) * (k0 + kn))
             for q, kn in zip(squares[:propagating - 1], k[1:propagating])]
    terms += [-q / sqrt((kn - k0) * (kn + k0))
              for q, kn in zip(squares[propagating - 1:], k[propagating:])]
    half = max(n_modes // 2 - 1, 0)  # the modes past the plane wave n_modes/2 keeps
    change = sum(terms[half:])
    total = sum(terms[:half]) + change

    plane = 0.25j / k0
    w_disk, w_cross, w_ring = basis.w_disk, basis.w_cross, basis.w_ring
    disk, cross, ring = plane + w_disk * total, plane - w_cross * total, plane + w_ring * total
    moved = abs(change)
    try:
        rel_change = max(w_disk * moved / abs(disk), w_cross * moved / abs(cross),
                         w_ring * moved / abs(ring))
    except ZeroDivisionError:  # a zero coefficient has no relative change
        rel_change = math.nan
    if n_modes > 1 and rel_change > SUM_TOLERANCE:
        raise ConvergenceError(
            f"modal sum moved by {rel_change:.3e} (> {SUM_TOLERANCE:.1e}) when "
            f"doubling the truncation to {n_modes} modes at {f} Hz"
        )
    # 4i rho0 omega / (pi r2^2): the prefactor with the -i pi r2^2 beta_n of
    # the Green's function folded into the terms
    scale = 4j * medium.rho0 * (2.0 * math.pi * f) / (math.pi * r2 * r2)
    disk, cross, ring = scale * disk, scale * cross, scale * ring
    return ((disk, cross), (cross, ring)), rel_change


def coupling_coefficients(
    geometry: DuctGeometry,
    medium: MediumProperties,
    f: float,
    n_modes: int = DEFAULT_MODE_COUNT,
) -> CouplingCoefficients:
    """The eight patch-coupling coefficients at one frequency as numpy
    arrays (imports numpy): ``upstream_coupling`` with its refusals."""
    import numpy as np

    upstream, rel_change = upstream_coupling(geometry, medium, f, n_modes)
    upstream = np.array(upstream)
    return CouplingCoefficients(frequency=f, upstream=upstream, downstream=-upstream,
                                rel_change=rel_change)
