"""Axisymmetric frequency-domain finite-difference duct simulator.

This module is the package's independent verification path: it simulates
the physical scene (duct, sample disk, air gap, thin rigid sleeve) by
discretizing the axisymmetric Helmholtz equation

    d/dx( (1/rho) dp/dx ) + (1/r) d/dr( r (1/rho) dp/dr ) + w^2/kappa p = 0

on a staggered finite-volume grid, and extracts transmission/reflection
with a virtual four-microphone measurement (two microphones on each side
of the sample, decomposed as a symmetric reciprocal two-port, as in the
one-load method of ASTM E2611).
It deliberately shares nothing with the modal retrieval mathematics
except the plain geometry/medium/scattering containers, so agreement
between the two paths is a genuine cross-check.

Discretization notes:

* pressures live at cell centres (first radial centre at dr/2, so the
  axis needs no special casing: the r=0 face carries zero area);
* face fluxes use series transmissibility 2/(rho_L + rho_R), which is
  exact for piecewise-constant media;
* the sleeve between sample and gap is a zero-flux internal face, the
  rigid wall and the axis are natural zero-flux boundaries;
* both axial ends carry a PML of a fixed number of cells whose stretch
  s = kappa - i sigma/w grades quadratically with depth: sigma absorbs the
  outgoing plane wave at a rate independent of frequency, and the real
  stretch kappa (rising from 1 to ``PML_KAPPA_MAX``) steepens the decay of
  the evanescent duct modes, whose round trip to the rigid end wall is
  what the layer must suppress (the plane-wave residual drops out of the
  four-microphone decomposition below);
* virtual microphones record the cross-section average of the pressure,
  which projects out every non-planar duct mode: by mode orthogonality
  only the plane wave survives the average, so evanescent contamination
  near the sample cannot bias the decomposition;
* the downstream pair splits the field there into the transmitted wave
  and the wave the termination sends back; solving the two-port
  relations with both removes the PML's residual reflection from (T, R)
  exactly, instead of bounding it by the PML grading;
* the soft source is a uniform column of volume injection, which excites
  only the plane mode of the uniform duct section it sits in.

Time convention matches the rest of the package: exp(+i w t), so the
stretch s = kappa - i sigma/w absorbs outgoing waves.
"""

from __future__ import annotations

import cmath
import math
import warnings
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.special import jn_zeros

from tubegap.errors import DecompositionError, DomainError, ResolutionError
from tubegap.types import DuctGeometry, MaterialSpec, MediumProperties, ScatteringData

MIN_CELLS_PER_WAVELENGTH = 20
# first positive root of J1: the first non-planar duct mode cuts on at
# k r2 = J1_FIRST_ROOT (only the warnings below use it)
J1_FIRST_ROOT = float(jn_zeros(1, 1)[0])
# real stretch at the outer end of the PML (complex-frequency-shifted PML,
# Kuzuoglu & Mittra 1996); 30 over 80 cells puts the first evanescent
# mode's round trip to the end wall near 1e-22 at 2500 Hz on sample 1
PML_KAPPA_MAX = 30.0
# the stretch shortens the wavelength the grid sees by kappa, so a coarse
# grid caps kappa to keep this many cells per stretched wavelength at f_max
# (kappa = 30 on a 5.2 mm grid leaves 0.9 cells at 2500 Hz and reflected 1e-2
# of the plane wave; with 6 cells or more it stayed below 1.5e-6)
PML_MIN_STRETCHED_CELLS = 6.0
# largest tolerated round trip exp(-2 kappa_1 L) of the first evanescent
# mode; the energy defect it leaves is about half of it, and a thin sample
# amplifies that about 250-fold into Im(n1)
EVANESCENT_ROUND_TRIP_MAX = 1e-12


@dataclass(frozen=True)
class OracleSettings:
    """Numerical knobs for scene construction.

    The defaults aim at a few-per-mille scattering accuracy: ~33 cells
    per local wavelength, an 80-cell PML graded quadratically to a 1e-7
    theoretical plane-wave reflection and a real stretch of
    ``PML_KAPPA_MAX``, microphones one duct radius from the sample faces
    and half a radius apart.  The PML is ``pml_min_cells`` deep unless
    ``pml_wavelength_fraction`` of the wavelength at ``f_min`` is longer;
    ``f_min`` matters only in that case.
    """

    cells_per_wavelength: float = 33.0
    f_min: float = 300.0
    pml_wavelength_fraction: float = 0.0
    pml_reflection: float = 1e-7
    pml_min_cells: int = 80
    mic_standoff_radii: float = 1.0
    mic_spacing_radii: float = 0.5
    max_cells: int = 6_000_000


@dataclass(frozen=True)
class SimGrid:
    """Frozen simulation scene: grid, media maps, instrument positions."""

    geometry: DuctGeometry
    medium: MediumProperties
    dx: float
    dr: float
    nx: int
    nr: int
    x0: float                 # coordinate of the left domain face (x=0 is the upstream sample face)
    n_pml: int
    sigma_max: float
    kappa_max: float
    i_sample0: int
    n_sample_cells: int
    j_sleeve: int             # radial face index blocked over the sample span (0 = no sleeve)
    rho: np.ndarray           # (nx, nr) complex cell densities
    kappa: np.ndarray         # (nx, nr) complex cell bulk moduli
    i_mic_a: int
    i_mic_b: int
    i_mic_c: int
    i_mic_d: int
    i_src_up: int
    i_src_down: int

    @property
    def n_cells(self) -> int:
        return self.nx * self.nr

    def x_center(self, i: int) -> float:
        return self.x0 + (i + 0.5) * self.dx

    @property
    def r_centers(self) -> np.ndarray:
        return (np.arange(self.nr) + 0.5) * self.dr

    @property
    def domain_length(self) -> float:
        return self.nx * self.dx


@dataclass(frozen=True)
class PortRecord:
    """Complex pressures at the four virtual microphone planes.

    Positions are in the frame whose origin is the incidence-side sample
    face with +x pointing through the sample, so the upstream pair (a, b)
    sits at negative x and the downstream pair beyond x = t: microphone c
    (``x_downstream``) nearer the sample, microphone d
    (``x_downstream_d``) farther from it.  ``dx`` is the axial grid step
    the pressures were computed on; the decomposition uses it to
    calibrate out the grid's numerical dispersion (set it to 0 for data
    that has none, e.g. analytic constructions).
    """

    f: float
    x_upstream_a: float
    x_upstream_b: float
    x_downstream: float
    x_downstream_d: float
    p_upstream_a: complex
    p_upstream_b: complex
    p_downstream: complex
    p_downstream_d: complex
    residual: float
    dx: float = 0.0


def _snap_radial(r1: float, r2: float, dr_target: float) -> tuple[float, int, int]:
    """Choose dr so both radii land on faces within 0.5% of r2.

    Returns (dr, sleeve face index, cell count).  Prefers the candidate
    with the smallest snap error among sleeve counts near r1/dr_target.
    """
    m_guess = max(1, round(r1 / dr_target))
    best = None
    for m1 in range(max(1, m_guess - 25), m_guess + 26):
        dr = r1 / m1
        m2 = round(r2 / dr)
        if m2 <= m1:
            continue
        err = abs(m2 * dr - r2)
        if best is None or err < best[0] - 1e-15:
            best = (err, dr, m1, m2)
    if best is None or best[0] > 0.005 * r2:
        raise ResolutionError(
            f"cannot place both radii on the radial grid within 0.5%: r1={r1}, r2={r2}"
        )
    _, dr, m1, m2 = best
    return dr, m1, m2


def build_scene(
    material: MaterialSpec | None,
    geometry: DuctGeometry,
    f_max: float,
    medium: MediumProperties = MediumProperties(),
    settings: OracleSettings = OracleSettings(),
) -> SimGrid:
    """Construct the simulation grid for sweeps up to ``f_max``.

    ``material=None`` builds the empty duct (uniform air, no sleeve),
    used to validate the absorbing terminations.  Otherwise the sample
    disk covers 0 <= x <= t, r <= r1 with the material's equivalent fluid
    and a zero-flux sleeve face separates it from the air gap.
    """
    if not (f_max > 0 and math.isfinite(f_max)):
        raise DomainError(f"f_max must be positive, got {f_max}")
    ppw = max(settings.cells_per_wavelength, float(MIN_CELLS_PER_WAVELENGTH))
    index_mag = max(1.0, abs(material.n1)) if material is not None else 1.0
    wavelength_min = medium.c0 / (f_max * index_mag)
    dx_max = wavelength_min / ppw
    # the sample is always resolved by whole cells (dx adapts to t); the
    # infeasibility error lives in the total-cell budget below
    nt = max(1, math.ceil(geometry.t / dx_max))
    dx = geometry.t / nt

    dr, j_sleeve, nr = _snap_radial(geometry.r1, geometry.r2, dx)

    r2 = geometry.r2
    n_standoff = math.ceil(max(settings.mic_standoff_radii * r2, 2 * dx) / dx)
    n_spacing = math.ceil(max(settings.mic_spacing_radii * r2, 2 * dx) / dx)
    n_srcgap = math.ceil(max(1.0 * r2, 5 * dx) / dx)
    n_edge = math.ceil(max(0.5 * r2, 5 * dx) / dx)
    pml_len = max(
        settings.pml_wavelength_fraction * medium.c0 / settings.f_min,
        settings.pml_min_cells * dx,
    )
    n_pml = math.ceil(pml_len / dx)

    n_side = n_pml + n_edge + n_srcgap + n_spacing + n_standoff
    nx = n_side + nt + n_side
    if nx * nr > settings.max_cells:
        raise ResolutionError(
            f"scene needs {nx * nr} cells, above the budget of {settings.max_cells}; "
            "lower f_max or relax the settings"
        )
    i_sample0 = n_side
    x0 = -n_side * dx

    rho = np.full((nx, nr), medium.rho0, dtype=complex)
    kappa = np.full((nx, nr), medium.rho0 * medium.c0 ** 2, dtype=complex)
    sleeve = 0
    if material is not None:
        rho_eff = material.effective_density(geometry, medium)
        kappa_eff = material.effective_bulk_modulus(geometry, medium)
        rho[i_sample0:i_sample0 + nt, :j_sleeve] = rho_eff
        kappa[i_sample0:i_sample0 + nt, :j_sleeve] = kappa_eff
        sleeve = j_sleeve

    sigma_max = 3.0 * medium.c0 * math.log(1.0 / settings.pml_reflection) / (2.0 * n_pml * dx)
    kappa_max = min(PML_KAPPA_MAX, medium.c0 / (f_max * dx * PML_MIN_STRETCHED_CELLS))

    i_mic_b = i_sample0 - n_standoff
    i_mic_a = i_mic_b - n_spacing
    i_src_up = i_mic_a - n_srcgap
    return SimGrid(
        geometry=geometry, medium=medium, dx=dx, dr=dr, nx=nx, nr=nr, x0=x0,
        n_pml=n_pml, sigma_max=sigma_max, kappa_max=kappa_max,
        i_sample0=i_sample0, n_sample_cells=nt,
        j_sleeve=sleeve, rho=rho, kappa=kappa,
        i_mic_a=i_mic_a, i_mic_b=i_mic_b,
        i_mic_c=nx - 1 - i_mic_b, i_mic_d=nx - 1 - i_mic_a,
        i_src_up=i_src_up, i_src_down=nx - 1 - i_src_up,
    )


def _stretch(scene: SimGrid, positions: np.ndarray, omega: float) -> np.ndarray:
    """PML coordinate stretch s = kappa - i sigma/omega at the given x positions.

    Both kappa - 1 and sigma grow quadratically with the depth into the layer.
    """
    depth_left = (scene.x0 + scene.n_pml * scene.dx) - positions
    depth_right = positions - (scene.x0 + (scene.nx - scene.n_pml) * scene.dx)
    depth = np.maximum(0.0, np.maximum(depth_left, depth_right))
    grade = (depth / (scene.n_pml * scene.dx)) ** 2
    return 1.0 + (scene.kappa_max - 1.0) * grade - 1j * scene.sigma_max * grade / omega


def evanescent_round_trip(scene: SimGrid, f: float) -> float:
    """Amplitude exp(-2 kappa_1 L) the first evanescent duct mode keeps after
    running from a sample face to the rigid end wall and back.

    ``L`` is the stretched distance Re(integral of s dx): the air between
    the sample face and the PML plus the PML depth times the mean of
    kappa (the same on both sides).  Returns 1.0 at and above the first cutoff, where the mode no
    longer decays.
    """
    k_cut = J1_FIRST_ROOT / scene.geometry.r2
    k0 = 2.0 * math.pi * f / scene.medium.c0
    if k0 >= k_cut:
        return 1.0
    air = (scene.i_sample0 - scene.n_pml) * scene.dx
    pml = scene.n_pml * scene.dx * (1.0 + (scene.kappa_max - 1.0) / 3.0)
    return math.exp(-2.0 * math.sqrt(k_cut ** 2 - k0 ** 2) * (air + pml))


def _assemble(scene: SimGrid, f: float) -> sp.csc_matrix:
    nx, nr = scene.nx, scene.nr
    omega = 2.0 * math.pi * f
    x_faces = scene.x0 + np.arange(nx + 1) * scene.dx
    x_centers = scene.x0 + (np.arange(nx) + 0.5) * scene.dx
    s_face = _stretch(scene, x_faces, omega)
    s_cell = _stretch(scene, x_centers, omega)

    rho, kappa = scene.rho, scene.kappa
    idx = np.arange(nx * nr).reshape(nx, nr)
    rows, cols, vals = [], [], []
    diag = np.zeros((nx, nr), dtype=complex)

    # axial fluxes between columns i-1 and i (face stretch shared, cell
    # stretch belongs to the receiving row)
    tx = 2.0 / (rho[:-1, :] + rho[1:, :])          # (nx-1, nr)
    g = tx / (scene.dx ** 2 * s_face[1:-1, None])
    coup_from_left = g / s_cell[1:, None]
    coup_from_right = g / s_cell[:-1, None]
    rows.append(idx[1:, :].ravel())
    cols.append(idx[:-1, :].ravel())
    vals.append(coup_from_left.ravel())
    rows.append(idx[:-1, :].ravel())
    cols.append(idx[1:, :].ravel())
    vals.append(coup_from_right.ravel())
    diag[1:, :] -= coup_from_left
    diag[:-1, :] -= coup_from_right

    # radial fluxes between rings j-1 and j (face j at radius j*dr)
    r_face = np.arange(1, nr) * scene.dr
    r_cell = (np.arange(nr) + 0.5) * scene.dr
    tr = 2.0 / (rho[:, :-1] + rho[:, 1:])          # (nx, nr-1)
    if scene.j_sleeve > 0:
        i0, nt = scene.i_sample0, scene.n_sample_cells
        tr[i0:i0 + nt, scene.j_sleeve - 1] = 0.0   # rigid sleeve: no flux through r = r1
    coup_hi = r_face[None, :] * tr / (r_cell[None, 1:] * scene.dr ** 2)   # row of cell j
    coup_lo = r_face[None, :] * tr / (r_cell[None, :-1] * scene.dr ** 2)  # row of cell j-1
    rows.append(idx[:, 1:].ravel());  cols.append(idx[:, :-1].ravel()); vals.append(coup_hi.ravel())
    rows.append(idx[:, :-1].ravel()); cols.append(idx[:, 1:].ravel());  vals.append(coup_lo.ravel())
    diag[:, 1:] -= coup_hi
    diag[:, :-1] -= coup_lo

    diag += omega ** 2 / kappa
    rows.append(idx.ravel())
    cols.append(idx.ravel())
    vals.append(diag.ravel())
    a = sp.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(nx * nr, nx * nr),
    )
    return a.tocsc()


def _area_average(p: np.ndarray, scene: SimGrid, i: int) -> complex:
    weights = scene.r_centers
    return complex(np.sum(p[i, :] * weights) / np.sum(weights))


def _solve_field(scene: SimGrid, f: float, excite: str) -> tuple[np.ndarray, float]:
    if excite not in ("upstream", "downstream"):
        raise DomainError(f"excitation side must be upstream or downstream, got {excite!r}")
    a = _assemble(scene, f)
    b = np.zeros(scene.n_cells, dtype=complex)
    i_src = scene.i_src_up if excite == "upstream" else scene.i_src_down
    b[i_src * scene.nr:(i_src + 1) * scene.nr] = 1.0
    # the matrix is structurally symmetric, so order on A^T + A
    lu = spla.splu(a, permc_spec="MMD_AT_PLUS_A")
    p = lu.solve(b)
    residual = float(np.linalg.norm(a @ p - b) / np.linalg.norm(b))
    if not residual < 1e-9:
        raise ResolutionError(
            f"Helmholtz solve did not converge at {f} Hz (relative residual {residual:.2e})"
        )
    return p.reshape(scene.nx, scene.nr), residual


def solve_harmonic(scene: SimGrid, f: float, excite: str = "upstream") -> PortRecord:
    """Solve one frequency and return the four virtual microphone pressures.

    ``excite="downstream"`` drives the structure from the other side and
    reports the record in the mirrored frame (origin at the downstream
    face, +x toward the upstream end), so the same decomposition handles
    both directions; with this scene's symmetric instrument layout the
    mirrored microphone positions coincide with the upstream ones.
    """
    cutoff = J1_FIRST_ROOT * scene.medium.c0 / (2.0 * math.pi * scene.geometry.r2)
    if f > cutoff:
        warnings.warn(
            f"{f} Hz is above the first duct cutoff; the plane-wave "
            "decomposition ignores the propagating higher mode",
            stacklevel=2,
        )
    elif (round_trip := evanescent_round_trip(scene, f)) > EVANESCENT_ROUND_TRIP_MAX:
        warnings.warn(
            f"the first evanescent mode returns from the end walls with amplitude "
            f"{round_trip:.1e} at {f} Hz; build the scene with "
            "more PML cells or longer microphone standoffs",
            stacklevel=2,
        )
    p, residual = _solve_field(scene, f, excite)
    t = scene.geometry.t
    if excite == "upstream":
        xa, xb = scene.x_center(scene.i_mic_a), scene.x_center(scene.i_mic_b)
        xc, xd = scene.x_center(scene.i_mic_c), scene.x_center(scene.i_mic_d)
        mics = (scene.i_mic_a, scene.i_mic_b, scene.i_mic_c, scene.i_mic_d)
    else:
        # mirrored frame: x' = t - x
        xa, xb = t - scene.x_center(scene.i_mic_d), t - scene.x_center(scene.i_mic_c)
        xc, xd = t - scene.x_center(scene.i_mic_b), t - scene.x_center(scene.i_mic_a)
        mics = (scene.i_mic_d, scene.i_mic_c, scene.i_mic_b, scene.i_mic_a)
    pa, pb, pc, pd = (_area_average(p, scene, i) for i in mics)
    return PortRecord(
        f=f, x_upstream_a=xa, x_upstream_b=xb, x_downstream=xc, x_downstream_d=xd,
        p_upstream_a=pa, p_upstream_b=pb, p_downstream=pc, p_downstream_d=pd,
        residual=residual, dx=scene.dx,
    )


def solve_field(scene: SimGrid, f: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Full complex pressure field (x centers, r centers, p[nx, nr])."""
    p, _ = _solve_field(scene, f, "upstream")
    x = scene.x0 + (np.arange(scene.nx) + 0.5) * scene.dx
    return x, scene.r_centers.copy(), p


def grid_wavenumber(k0: float, dx: float) -> float:
    """Plane-wave wavenumber actually propagated by the second-order grid.

    Solves the discrete dispersion relation 2(cos(k dx) - 1)/dx^2 = -k0^2;
    equals k0 + k0 (k0 dx)^2 / 24 + ...  Falls back to k0 when dx = 0.
    """
    if dx <= 0.0:
        return k0
    arg = 1.0 - 0.5 * (k0 * dx) ** 2
    if arg <= -1.0:
        raise ResolutionError(f"grid step {dx} cannot propagate waves at k0={k0}")
    return math.acos(arg) / dx


def scattering_from_ports(
    record: PortRecord,
    geometry: DuctGeometry,
    medium: MediumProperties,
) -> ScatteringData:
    """Four-microphone decomposition referenced to the sample faces.

    Each microphone pair separates two counter-propagating plane waves:

        p(x) = A+ exp(-i k x) + A- exp(+i k x)              (upstream, x < 0)
        p(x) = B+ exp(-i k (x-t)) + B- exp(+i k (x-t))      (downstream, x > t)

    B- is whatever the downstream termination sends back.  For a
    symmetric reciprocal sample the two-port relations

        B+ = T A+ + R B-,    A- = R A+ + T B-

    then give T and R regardless of the terminations (the one-load
    method of ASTM E2611).  With B- = 0 they reduce to T = B+/A+ and
    R = A-/A+.

    k is the grid's numerical wavenumber (see ``grid_wavenumber``), which
    calibrates the air-path dispersion out of the virtual measurement.
    """
    k0 = 2.0 * math.pi * record.f / medium.c0
    k = grid_wavenumber(k0, record.dx)
    t = geometry.t
    a_plus, a_minus = _split_waves(
        k0, k, record.f, "upstream",
        (record.x_upstream_a, record.p_upstream_a), (record.x_upstream_b, record.p_upstream_b),
    )
    b_plus, b_minus = _split_waves(
        k0, k, record.f, "downstream",
        (record.x_downstream - t, record.p_downstream),
        (record.x_downstream_d - t, record.p_downstream_d),
    )
    det = a_plus * a_plus - b_minus * b_minus
    transmission = (b_plus * a_plus - a_minus * b_minus) / det
    reflection = (a_minus * a_plus - b_plus * b_minus) / det
    return ScatteringData(f=record.f, transmission=complex(transmission), reflection=complex(reflection))


def _split_waves(
    k0: float, k: float, f: float, side: str,
    mic1: tuple[float, complex], mic2: tuple[float, complex],
) -> tuple[complex, complex]:
    """Amplitudes (P+, P-) of p(x) = P+ exp(-i k x) + P- exp(+i k x) from two
    microphones given as (position, pressure), ``mic2`` at the larger x."""
    (x1, p1), (x2, p2) = mic1, mic2
    d = x2 - x1
    if d <= 0:
        raise DomainError(f"{side} microphones must be ordered along +x")
    nearest = round(k0 * d / math.pi) * math.pi
    if abs(k0 * d - nearest) < 0.05 * math.pi:
        raise DecompositionError(
            f"{side} microphone spacing {d:.4f} m is within 5% of a half-wavelength "
            f"multiple at {f} Hz; the decomposition is singular"
        )
    m = np.array(
        [
            [cmath.exp(-1j * k * x1), cmath.exp(1j * k * x1)],
            [cmath.exp(-1j * k * x2), cmath.exp(1j * k * x2)],
        ]
    )
    plus, minus = np.linalg.solve(m, np.array([p1, p2]))
    return complex(plus), complex(minus)
