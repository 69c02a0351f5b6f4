"""Axisymmetric frequency-domain finite-difference duct simulator.

This module is the package's independent verification path: it simulates
the physical scene (duct, sample disk, air gap, thin rigid sleeve) by
discretizing the axisymmetric Helmholtz equation

    d/dx( (1/rho) dp/dx ) + (1/r) d/dr( r (1/rho) dp/dr ) + w^2/kappa p = 0

on a staggered finite-volume grid, and extracts transmission/reflection
from the plane-mode amplitudes of the solved field on both sides of the
sample.
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
* the scene is the sample's columns plus ``TERMINATION_AIR_COLUMNS`` air
  columns on each side.  Beyond them the duct is uniform air, where the
  discrete field separates into the eigenvectors V of the discrete radial
  operator, and mode n steps from one column to the next by the factor
  mu_n, the outgoing or decaying root of
  mu + 1/mu = 2 - dx^2 (k0^2 - lambda_n).  Each end column therefore
  sees the exact discrete Dirichlet-to-Neumann condition
  p_ghost = V diag(mu) V^-1 p_end (Givoli & Keller, J. Comput. Phys. 82,
  1989; Arnold & Ehrhardt, J. Comput. Phys. 145, 1998): nothing returns
  from the terminations, so no absorbing layer is needed;
* the upstream end is driven by the discrete plane wave exp(-i k x), k the
  grid wavenumber.  The area average of a column projects out every
  non-planar duct mode (they are orthogonal to the constant mode 0), so
  the averages of the scattered field in the two end columns are the
  reflected and transmitted plane-wave amplitudes; referencing them to
  the sample faces with the same k calibrates the air path's numerical
  dispersion out of (T, R).

Only the diagonal (w^2/kappa minus the face couplings) and the two
termination blocks depend on the frequency.  ``build_scene`` therefore
assembles the face couplings once, as the scene's stencil: a CSC matrix
whose pattern already holds explicit zero slots for the diagonal and both
end blocks.  Each frequency copies the stencil's values, writes its own
into those slots, and factors the result.

Usage: ``scene = build_scene(material, geometry, f_max, medium)`` once per
sweep, then ``solve_harmonic(scene, f)`` returns (T, R) at each frequency.

Time convention matches the rest of the package: exp(+i w t), so
exp(-i k x) travels toward +x.
"""

from __future__ import annotations

import cmath
import math
import warnings
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg import eigh_tridiagonal
from scipy.special import jn_zeros

from tubegap.errors import DomainError, ResolutionError
from tubegap.types import DuctGeometry, MaterialSpec, MediumProperties, ScatteringData

# ~33 cells per local wavelength aims at a few-per-mille scattering accuracy
DEFAULT_CELLS_PER_WAVELENGTH = 33.0
MIN_CELLS_PER_WAVELENGTH = 20
# scene size above which build_scene refuses (ResolutionError)
MAX_CELLS = 6_000_000
# air columns between each sample face and the modal termination; the
# termination is exact, so one is enough (four give the same (T, R) to 1.3e-13)
TERMINATION_AIR_COLUMNS = 1
# first positive root of J1: the first non-planar duct mode cuts on at
# k r2 = J1_FIRST_ROOT (only the warning below uses it)
J1_FIRST_ROOT = float(jn_zeros(1, 1)[0])


@dataclass(frozen=True)
class SimGrid:
    """Frozen simulation scene: grid, media maps, radial modes of the terminations."""

    geometry: DuctGeometry
    medium: MediumProperties
    dx: float
    dr: float
    nx: int
    nr: int
    x0: float                 # coordinate of the left domain face (x=0 is the upstream sample face)
    i_sample0: int
    n_sample_cells: int
    j_sleeve: int             # radial face index blocked over the sample span (0 = no sleeve)
    rho: np.ndarray           # (nx, nr) complex cell densities
    kappa: np.ndarray         # (nx, nr) complex cell bulk moduli
    radial_eigenvalues: np.ndarray   # (nr,) lambda_n of the uniform-air radial operator, lambda_0 = 0
    radial_modes: np.ndarray         # (nr, nr) V, mode n in column n; column 0 is constant
    radial_modes_inv: np.ndarray     # (nr, nr) V^-1
    # the frequency-independent part of the operator, shared by every solve (read-only)
    stencil: sp.csc_matrix           # (nx*nr, nx*nr) face couplings, with explicit zeros at the
                                     # sleeve faces, the diagonal and both end blocks
    axial_coupling: np.ndarray       # (nx-1, nr) coupling of columns i and i+1
    radial_coupling_hi: np.ndarray   # (nx, nr-1) coupling of ring j to ring j-1, in the row of ring j
    radial_coupling_lo: np.ndarray   # (nx, nr-1) coupling of ring j-1 to ring j, in the row of ring j-1
    diagonal_slots: np.ndarray       # (nx*nr,) positions of the diagonal in stencil.data
    end_block_slots: np.ndarray      # (2, nr*nr) positions of the upstream and downstream
                                     # termination blocks in stencil.data, row-major
    area_weights: np.ndarray         # (nr,) ring-centre radii, the weights of a column's area average

    @property
    def n_pml(self) -> int:
        """Absorbing-layer columns: none, the modal terminations are exact."""
        return 0

    def x_center(self, i: int) -> float:
        return self.x0 + (i + 0.5) * self.dx


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


def _radial_basis(nr: int, dr: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Eigenpairs of the uniform-air radial operator L: -L v_n = lambda_n v_n.

    L is self-adjoint in the area weight r, so sqrt(r) L / sqrt(r) is a
    symmetric tridiagonal matrix with orthonormal eigenvectors U; then
    V = U / sqrt(r) and V^-1 = (U sqrt(r))^T.  Mode 0 is set to the
    constant vector with lambda_0 = 0 exactly, and the other modes are
    re-orthogonalized against it: the eigensolver's roundoff in lambda_0,
    about 1e-9, would otherwise leave an energy defect of 2e-11 at 300 Hz
    on sample 2.
    Returns (lambda, V, V^-1).
    """
    r = (np.arange(nr) + 0.5) * dr
    r_face = np.arange(1, nr) * dr
    root_r = np.sqrt(r)
    face_sum = np.zeros(nr)
    face_sum[:-1] += r_face
    face_sum[1:] += r_face
    lam, u = eigh_tridiagonal(face_sum / (r * dr ** 2), -r_face / (dr ** 2 * root_r[:-1] * root_r[1:]))
    lam[0] = 0.0
    u[:, 0] = root_r / np.linalg.norm(root_r)
    u[:, 1:] -= np.outer(u[:, 0], u[:, 0] @ u[:, 1:])
    u[:, 1:] /= np.linalg.norm(u[:, 1:], axis=0)
    modes = u / root_r[:, None]
    modes[:, 0] = 1.0 / np.linalg.norm(root_r)
    return lam, modes, (u * root_r[:, None]).T


def _stencil(
    rho: np.ndarray, dx: float, dr: float, i_sample0: int, n_sample_cells: int, j_sleeve: int
) -> dict[str, np.ndarray | sp.csc_matrix]:
    """The frequency-independent part of the operator and the area-average
    weights, as ``SimGrid`` fields.

    Face fluxes use series transmissibility; a rigid sleeve keeps its faces
    as explicit zeros.  The diagonal and the two dense termination blocks
    get explicit zero slots, so one COO -> CSC conversion fixes the sparsity
    pattern of every frequency's operator (sparse addition would drop the
    zeros and change it).  All arrays are read-only.
    """
    nx, nr = rho.shape
    n = nx * nr
    idx = np.arange(n).reshape(nx, nr)

    # axial fluxes between columns i-1 and i
    g = 2.0 / ((rho[:-1, :] + rho[1:, :]) * dx ** 2)     # (nx-1, nr)
    # radial fluxes between rings j-1 and j (face j at radius j*dr)
    r_face = np.arange(1, nr) * dr
    r_cell = (np.arange(nr) + 0.5) * dr
    tr = 2.0 / (rho[:, :-1] + rho[:, 1:])          # (nx, nr-1)
    if j_sleeve > 0:
        tr[i_sample0:i_sample0 + n_sample_cells, j_sleeve - 1] = 0.0   # rigid sleeve: no flux through r = r1
    coup_hi = r_face[None, :] * tr / (r_cell[None, 1:] * dr ** 2)   # row of cell j
    coup_lo = r_face[None, :] * tr / (r_cell[None, :-1] * dr ** 2)  # row of cell j-1

    # each termination block couples every pair of cells in its end column
    ends = idx[[0, -1]]
    block_rows, block_cols = np.repeat(ends, nr, axis=1), np.tile(ends, nr)
    rows = [idx[1:, :], idx[:-1, :], idx[:, 1:], idx[:, :-1], idx, block_rows]
    cols = [idx[:-1, :], idx[1:, :], idx[:, :-1], idx[:, 1:], idx, block_cols]
    vals = [g, g, coup_hi, coup_lo, np.zeros(n + block_rows.size)]
    stencil = sp.coo_matrix(
        (np.concatenate([v.ravel() for v in vals]),
         (np.concatenate([r.ravel() for r in rows]), np.concatenate([c.ravel() for c in cols]))),
        shape=(n, n),
    ).tocsc()
    # canonical CSC stores entries by column, then row: their keys ascend
    keys = np.repeat(np.arange(n), np.diff(stencil.indptr)) * n + stencil.indices
    fields = {
        "axial_coupling": g,
        "radial_coupling_hi": coup_hi,
        "radial_coupling_lo": coup_lo,
        "diagonal_slots": np.searchsorted(keys, idx.ravel() * (n + 1)),
        "end_block_slots": np.searchsorted(keys, block_cols * n + block_rows),
        "area_weights": r_cell,
    }
    for array in (stencil.data, stencil.indices, stencil.indptr, *fields.values()):
        array.setflags(write=False)
    return {"stencil": stencil, **fields}


def build_scene(
    material: MaterialSpec | None,
    geometry: DuctGeometry,
    f_max: float,
    medium: MediumProperties = MediumProperties(),
    cells_per_wavelength: float = DEFAULT_CELLS_PER_WAVELENGTH,
) -> SimGrid:
    """Construct the simulation grid for sweeps up to ``f_max``.

    ``material=None`` builds the empty duct (uniform air, no sleeve),
    used to validate the terminations.  Otherwise the sample disk covers
    0 <= x <= t, r <= r1 with the material's equivalent fluid and a
    zero-flux sleeve face separates it from the air gap.  The axial step
    resolves the shortest wavelength at ``f_max`` (in the sample, if its
    index exceeds 1) by ``cells_per_wavelength`` cells; fewer than
    ``MIN_CELLS_PER_WAVELENGTH`` raise ``DomainError``.
    """
    if not (f_max > 0 and math.isfinite(f_max)):
        raise DomainError(f"f_max must be positive, got {f_max}")
    ppw = cells_per_wavelength
    if not (ppw >= MIN_CELLS_PER_WAVELENGTH and math.isfinite(ppw)):
        raise DomainError(f"cells_per_wavelength must be finite and at least "
                          f"{MIN_CELLS_PER_WAVELENGTH}, got {ppw}")
    index_mag = max(1.0, abs(material.n1)) if material is not None else 1.0
    wavelength_min = medium.c0 / (f_max * index_mag)
    dx_max = wavelength_min / ppw
    # the sample is always resolved by whole cells (dx adapts to t); the
    # infeasibility error lives in the total-cell budget below
    nt = max(1, math.ceil(geometry.t / dx_max))
    dx = geometry.t / nt

    dr, j_sleeve, nr = _snap_radial(geometry.r1, geometry.r2, dx)

    i_sample0 = TERMINATION_AIR_COLUMNS
    nx = nt + 2 * i_sample0
    if nx * nr > MAX_CELLS:
        raise ResolutionError(
            f"scene needs {nx * nr} cells, above the budget of {MAX_CELLS}; "
            "lower f_max or cells_per_wavelength"
        )

    rho = np.full((nx, nr), medium.rho0, dtype=complex)
    kappa = np.full((nx, nr), medium.rho0 * medium.c0 ** 2, dtype=complex)
    sleeve = 0
    if material is not None:
        rho_eff = material.effective_density(geometry, medium)
        kappa_eff = material.effective_bulk_modulus(geometry, medium)
        rho[i_sample0:i_sample0 + nt, :j_sleeve] = rho_eff
        kappa[i_sample0:i_sample0 + nt, :j_sleeve] = kappa_eff
        sleeve = j_sleeve

    lam, modes, modes_inv = _radial_basis(nr, dr)
    return SimGrid(
        geometry=geometry, medium=medium, dx=dx, dr=dr, nx=nx, nr=nr, x0=-i_sample0 * dx,
        i_sample0=i_sample0, n_sample_cells=nt,
        j_sleeve=sleeve, rho=rho, kappa=kappa,
        radial_eigenvalues=lam, radial_modes=modes, radial_modes_inv=modes_inv,
        **_stencil(rho, dx, dr, i_sample0, nt, sleeve),
    )


def _termination(scene: SimGrid, k0: float) -> np.ndarray:
    """Column-to-column map M = V diag(mu) V^-1 of an outgoing field in uniform air.

    mu_n = exp(-2i asin(dx sqrt(q_n) / 2)) with q_n = k0^2 - lambda_n solves
    mu + 1/mu = 2 - dx^2 q_n; the branch sqrt(q) = -i sqrt(-q) for q < 0
    makes the evanescent modes decay (0 < mu < 1), and the propagating ones
    get |mu| = 1 with the outgoing phase.
    """
    q = k0 ** 2 - scene.radial_eigenvalues
    root = np.where(q >= 0.0, np.sqrt(np.abs(q)), -1j * np.sqrt(np.abs(q)))
    mu = np.exp(-2j * np.arcsin(0.5 * scene.dx * root))
    return (scene.radial_modes * mu) @ scene.radial_modes_inv


def _assemble(scene: SimGrid, f: float, termination: np.ndarray) -> sp.csc_matrix:
    """The operator at frequency f: a copy of the scene's stencil with the
    diagonal, omega^2/kappa minus each cell's face couplings, and the two
    termination blocks written into their slots."""
    omega = 2.0 * math.pi * f
    diag = omega ** 2 / scene.kappa
    diag[1:, :] -= scene.axial_coupling
    diag[:-1, :] -= scene.axial_coupling
    diag[:, 1:] -= scene.radial_coupling_hi
    diag[:, :-1] -= scene.radial_coupling_lo
    stencil = scene.stencil
    data = stencil.data.copy()
    data[scene.diagonal_slots] = diag.ravel()
    # modal terminations: flux through each end face to the ghost column
    # beyond it, p_ghost = M p_end (the drive's known part is on the right-hand side)
    data[scene.end_block_slots] += (
        (termination - np.eye(scene.nr)) / (scene.medium.rho0 * scene.dx ** 2)
    ).ravel()
    return sp.csc_matrix((data, stencil.indices, stencil.indptr), shape=stencil.shape)


def _area_average(p: np.ndarray, scene: SimGrid, i: int) -> complex:
    weights = scene.area_weights
    return complex(np.sum(p[i, :] * weights) / np.sum(weights))


def _solve_field(scene: SimGrid, f: float) -> tuple[np.ndarray, float]:
    """Total field p[nx, nr] for a unit plane wave incident from upstream,
    and the grid wavenumber k of that wave."""
    k0 = 2.0 * math.pi * f / scene.medium.c0
    k = grid_wavenumber(k0, scene.dx)
    termination = _termination(scene, k0)
    a = _assemble(scene, f, termination)
    # total = incident + scattered beyond the driven end, and only the
    # scattered part leaves through the termination:
    # p_ghost = inc_ghost + M (p_end - inc_end)
    x_in = scene.x_center(0)
    inc_end = np.full(scene.nr, cmath.exp(-1j * k * x_in))
    inc_ghost = np.full(scene.nr, cmath.exp(-1j * k * (x_in - scene.dx)))
    b = np.zeros(scene.nx * scene.nr, dtype=complex)
    b[:scene.nr] = -(inc_ghost - termination @ inc_end) / (scene.medium.rho0 * scene.dx ** 2)
    # the matrix is structurally symmetric, so order on A^T + A
    lu = spla.splu(a, permc_spec="MMD_AT_PLUS_A")
    p = lu.solve(b)
    residual = float(np.linalg.norm(a @ p - b) / np.linalg.norm(b))
    if not residual < 1e-9:
        raise ResolutionError(
            f"Helmholtz solve did not converge at {f} Hz (relative residual {residual:.2e})"
        )
    return p.reshape(scene.nx, scene.nr), k


def solve_harmonic(scene: SimGrid, f: float) -> ScatteringData:
    """Solve one frequency and return (T, R) referenced to the sample faces.

    The end columns' area averages are the scattered field R exp(+i k x)
    upstream (after subtracting the incident wave) and T exp(-i k (x - t))
    downstream, x = 0 at the incidence-side face and k the grid wavenumber.
    """
    cutoff = J1_FIRST_ROOT * scene.medium.c0 / (2.0 * math.pi * scene.geometry.r2)
    if f > cutoff:
        warnings.warn(
            f"{f} Hz is above the first duct cutoff; the plane-wave "
            "read-out ignores the propagating higher mode",
            stacklevel=2,
        )
    p, k = _solve_field(scene, f)
    x_in, x_out = scene.x_center(0), scene.x_center(scene.nx - 1)
    incident_in = cmath.exp(-1j * k * x_in)
    reflection = (_area_average(p, scene, 0) - incident_in) * incident_in
    transmission = _area_average(p, scene, -1) * cmath.exp(1j * k * (x_out - scene.geometry.t))
    return ScatteringData(f=f, transmission=complex(transmission), reflection=complex(reflection))


def solve_field(scene: SimGrid, f: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Full complex pressure field (x centers, r centers, p[nx, nr])."""
    p, _ = _solve_field(scene, f)
    x = scene.x0 + (np.arange(scene.nx) + 0.5) * scene.dx
    return x, scene.area_weights.copy(), p


def grid_wavenumber(k0: float, dx: float) -> float:
    """Plane-wave wavenumber actually propagated by the second-order grid.

    Solves the discrete dispersion relation 2(cos(k dx) - 1)/dx^2 = -k0^2
    as k = 2 asin(k0 dx / 2) / dx, which keeps full precision at small
    k0 dx; equals k0 + k0 (k0 dx)^2 / 24 + ...
    """
    half = 0.5 * k0 * dx
    if half > 1.0:
        raise ResolutionError(f"grid step {dx} cannot propagate waves at k0={k0}")
    return 2.0 * math.asin(half) / dx
