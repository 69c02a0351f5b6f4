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
* the scene is ``[air | nt sample columns | air]``: the sample's columns
  plus one air column on each side.  Beyond them the duct is uniform air,
  where the discrete field separates into the eigenvectors V of the
  discrete radial operator, and mode n steps from one column to the next
  by the factor mu_n, the outgoing or decaying root of
  mu + 1/mu = 2 - dx^2 (k0^2 - lambda_n).  Each end column therefore
  sees the exact discrete Dirichlet-to-Neumann condition
  p_ghost = V diag(mu) V^-1 p_end (Givoli & Keller, J. Comput. Phys. 82,
  1989; Arnold & Ehrhardt, J. Comput. Phys. 145, 1998): nothing returns
  from the terminations, so no absorbing layer is needed, and one air
  column per side is enough (more would only hold the outgoing
  continuation of the field);
* the upstream end is driven by mode 0 (lambda_0 = 0), the grid's plane
  wave, which steps by mu_0 = sigma_0^2: a unit wave at the upstream face
  is 1/sigma_0 in the end column, half a cell outside, and sigma_0^-3 in
  its ghost.  A column's area average projects out every non-planar duct
  mode (orthogonal to the constant mode 0), so the end columns' averages
  of the scattered field, referenced to the sample faces by the same
  sigma_0, are R and T with the air path's numerical dispersion removed.

Solution method.  The same separation holds inside the sample span: the
sleeve decouples the disk from the annulus and both media are uniform
along x, so the span's columns share one radial eigenbasis W, block-
diagonal over disk and annulus (the discrete form of mode matching), in
which each mode is a tridiagonal chain across the sample columns, coupled
to the air columns beside the span only at its ends.  ``build_scene``
computes W and P = W^-1 V once.  Per frequency, the chains reduce the span
to a Schur complement on those two air columns, whose even and odd parts
decouple by the scene's mirror symmetry about x = t/2; as the face
coupling is constant on each block of W, each part is the dense system
(P diag(air) - diag(h) P) u = W^-1 drive, formed in O(nr^2), and its LU
is the frequency's only O(nr^3) work.  ``solve_sweep`` stacks all
elementwise work over blocks of frequencies and keeps each point's matrix
products its own, so a point's (T, R) has the same bits in any sweep;
``sweep_fields`` yields each point's field beside its (T, R).
Each field is checked against the five-point operator with its
terminations, built from the media maps alone; a relative residual of
1e-9 or more raises ``ResolutionError`` naming the first failing frequency.

Usage: ``scene = build_scene(material, geometry, f_max, medium)`` once per
sweep, then ``solve_sweep(scene, freqs)`` returns (T, R) at each frequency.
The module is the package's only numpy user and imports numpy inside its
functions, so importing it (and the command line) costs no numpy import;
building a scene does.

Time convention matches the rest of the package: exp(+i w t), so
exp(-i k x) travels toward +x.
"""

from __future__ import annotations

import math
import warnings
from collections import namedtuple
from collections.abc import Iterator

from tubegap.errors import DomainError, ResolutionError
from tubegap.types import DuctGeometry, MaterialSpec, MediumProperties, ScatteringData

TYPE_CHECKING = False  # typing.TYPE_CHECKING without importing typing
if TYPE_CHECKING:
    import numpy as np

# ~33 cells per local wavelength aims at a few-per-mille scattering accuracy
DEFAULT_CELLS_PER_WAVELENGTH = 33.0
MIN_CELLS_PER_WAVELENGTH = 20
# cell count, or dense nr x nr array size, above which build_scene refuses (ResolutionError)
MAX_CELLS = 6_000_000
# points sweep_fields solves in one stacked pass
SWEEP_BLOCK = 64


class SimGrid(namedtuple("SimGrid", (
        "medium f_max dx dr nx nr n_sample_cells j_sleeve rho kappa radial_eigenvalues "
        "radial_modes span_eigenvalues span_modes span_modes_inv "
        "span_air_modes area_weights"))):
    """Frozen simulation scene: grid, media maps, radial modes of the
    terminations and of the sample span.  All arrays are read-only.

    Column 0 and column nx - 1 are uniform air; columns 1..n_sample_cells
    hold the sample, whose upstream face is x = 0.

    Attributes:
        f_max: the highest frequency the grid is sized for
        dx, dr, nx, nr: cell sizes and counts along x and r
        j_sleeve: radial face index blocked over the sample span (0 = no sleeve)
        rho, kappa: (nx, nr) complex cell densities and bulk moduli
        radial_eigenvalues: (nr,) lambda_n of the uniform-air radial
            operator, lambda_0 = 0
        radial_modes: (nr, nr) V, mode n in column n (column 0 is
            constant), orthonormal in the area weights r: V^-1 = (r V)^T
        span_eigenvalues: (nr,) lambda_m of the sample columns' radial
            operator times rho
        span_modes, span_modes_inv: (nr, nr) W, block-diagonal: mode m
            lies in the block (disk or annulus) of ring m; and W^-1
        span_air_modes: (nr, nr) P = W^-1 V, the air's radial modes in W (real)
        area_weights: (nr,) ring-centre radii, the weights of a column's
            area average
    """

    __slots__ = ()

    @property
    def n_pml(self) -> int:
        """Absorbing-layer columns: none, the modal terminations are exact."""
        return 0

    def x_center(self, i: int | np.ndarray) -> float | np.ndarray:
        """Centre of column i (or of each column in an index array); -1 is
        the ghost column beyond the upstream end."""
        return -self.dx + (i + 0.5) * self.dx


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


def _radial_basis(first: int, last: int, dr: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Eigenpairs of the radial operator L of rings first..last-1 with no
    flux through either bounding face: -L v_n = lambda_n v_n.

    L is self-adjoint in the area weight r, so sqrt(r) L / sqrt(r) is a
    symmetric tridiagonal matrix with orthonormal eigenvectors U; then
    V = U / sqrt(r) and V^-1 = (U sqrt(r))^T.  Mode 0 is set to the
    constant vector with lambda_0 = 0 exactly, and the other modes are
    re-orthogonalized against it: the eigensolver's roundoff in lambda_0,
    about 1e-9, would otherwise leave an energy defect of 2e-11 at 300 Hz
    on sample 2.
    Returns (lambda, V, V^-1).
    """
    import numpy as np

    r = (np.arange(first, last) + 0.5) * dr
    r_face = np.arange(first + 1, last) * dr
    root_r = np.sqrt(r)
    face_sum = np.zeros(r.size)
    face_sum[:-1] += r_face
    face_sum[1:] += r_face
    off = -r_face / (dr ** 2 * root_r[:-1] * root_r[1:])
    lam, u = np.linalg.eigh(np.diag(face_sum / (r * dr ** 2)) + np.diag(off, 1) + np.diag(off, -1))
    lam[0] = 0.0
    u[:, 0] = root_r / np.linalg.norm(root_r)
    u[:, 1:] -= np.outer(u[:, 0], u[:, 0] @ u[:, 1:])
    u[:, 1:] /= np.linalg.norm(u[:, 1:], axis=0)
    modes = u / root_r[:, None]
    modes[:, 0] = 1.0 / np.linalg.norm(root_r)
    return lam, modes, (u * root_r[:, None]).T


def _span_basis(nr: int, j_sleeve: int, dr: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(lambda, W, W^-1) of the sample columns: the sleeve face j_sleeve
    splits the rings into the disk and the annulus, each with its own
    basis (one block of all rings without a sleeve).  Dividing lambda by a
    block's density gives the eigenvalues of its radial operator."""
    import numpy as np

    lam = np.empty(nr)
    modes, modes_inv = np.zeros((nr, nr)), np.zeros((nr, nr))
    for first, last in ((0, j_sleeve), (j_sleeve, nr)):
        if last > first:
            block = slice(first, last)
            lam[block], modes[block, block], modes_inv[block, block] = _radial_basis(first, last, dr)
    return lam, modes, modes_inv


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
    ``MIN_CELLS_PER_WAVELENGTH`` raise ``DomainError`` and too many cells ``ResolutionError``.
    """
    import numpy as np

    if not (f_max > 0 and math.isfinite(f_max)):
        raise DomainError(f"f_max must be positive, got {f_max}")
    ppw = cells_per_wavelength
    if not (ppw >= MIN_CELLS_PER_WAVELENGTH and math.isfinite(ppw)):
        raise DomainError(f"cells_per_wavelength must be finite and at least "
                          f"{MIN_CELLS_PER_WAVELENGTH}, got {ppw}")
    index_mag = max(1.0, abs(material.n1)) if material is not None else 1.0
    wavelength_min = medium.c0 / (f_max * index_mag)
    dx_max = wavelength_min / ppw
    # the sample is always resolved by whole cells (dx adapts to t); a t beyond the cell
    # budget is refused first, as t / dx_max may overflow or dx_max underflow to 0
    if geometry.t > MAX_CELLS * dx_max:
        raise ResolutionError(f"the {geometry.t} m sample needs more than {MAX_CELLS} cells "
                              f"of {dx_max:.3g} m; lower f_max or cells_per_wavelength")
    nt = max(1, math.ceil(geometry.t / dx_max))
    dx = geometry.t / nt

    dr, j_sleeve, nr = _snap_radial(geometry.r1, geometry.r2, dx)

    nx = nt + 2
    # the radial bases and the per-frequency blocks are dense nr x nr arrays
    if max(nx * nr, nr * nr) > MAX_CELLS:
        raise ResolutionError(
            f"scene needs {nx * nr} cells and {nr * nr} radial-basis entries, "
            f"above the budget of {MAX_CELLS}; lower f_max or cells_per_wavelength"
        )

    rho = np.full((nx, nr), medium.rho0, dtype=complex)
    kappa = np.full((nx, nr), medium.rho0 * medium.c0 ** 2, dtype=complex)
    sleeve = 0
    if material is not None:
        rho_eff = material.effective_density(geometry, medium)
        kappa_eff = material.effective_bulk_modulus(geometry, medium)
        rho[1:-1, :j_sleeve] = rho_eff
        kappa[1:-1, :j_sleeve] = kappa_eff
        sleeve = j_sleeve

    lam, modes, _ = _radial_basis(0, nr, dr)
    span_lam, span_modes, span_modes_inv = _span_basis(nr, sleeve, dr)
    fields = {
        "rho": rho, "kappa": kappa,
        "radial_eigenvalues": lam, "radial_modes": modes,
        "span_eigenvalues": span_lam, "span_modes": span_modes, "span_modes_inv": span_modes_inv,
        "span_air_modes": span_modes_inv @ modes,
        "area_weights": (np.arange(nr) + 0.5) * dr,
    }
    for array in fields.values():
        array.setflags(write=False)
    return SimGrid(
        medium=medium, f_max=f_max, dx=dx, dr=dr, nx=nx, nr=nr,
        n_sample_cells=nt, j_sleeve=sleeve, **fields,
    )


def _termination_factors(scene: SimGrid, k0: float | np.ndarray) -> np.ndarray:
    """Half-step factors sigma_n of an outgoing field in uniform air (a row
    per frequency for a column of k0): mode n steps from one column to the
    next by mu_n = sigma_n^2, and the termination map is M = V diag(mu) V^-1.

    sigma_n = exp(-i asin(dx sqrt(q_n) / 2)) with q_n = k0^2 - lambda_n, so
    mu solves mu + 1/mu = 2 - dx^2 q_n; the branch sqrt(q) = -i sqrt(-q) for
    q < 0 makes the evanescent modes decay (0 < mu < 1), and the propagating
    ones get |mu| = 1 with the outgoing phase.
    """
    import numpy as np

    q = k0 ** 2 - scene.radial_eigenvalues
    root = np.where(q >= 0.0, np.sqrt(np.abs(q)), -1j * np.sqrt(np.abs(q)))
    return np.exp(-1j * np.arcsin(0.5 * scene.dx * root))


def _apply_operator(scene: SimGrid, omega, mu, p: np.ndarray) -> np.ndarray:
    """The five-point operator with both terminations, applied cell by cell
    to p[..., nx, nr] and built from the media maps alone: face fluxes use
    series transmissibility, and the sleeve face carries none over the
    sample columns.  Each end column's scattered ghost is M p_end, with
    M = V diag(mu) V^-1, V^-1 = (r V)^T and mu[..., nr] the air modes' steps."""
    import numpy as np

    rho, dx, dr, r, v = scene.rho, scene.dx, scene.dr, scene.area_weights, scene.radial_modes
    out = omega ** 2 / scene.kappa * p
    flux = 2.0 / ((rho[:-1] + rho[1:]) * dx ** 2) * np.diff(p, axis=-2)
    out[..., :-1, :] += flux
    out[..., 1:, :] -= flux
    # radius-weighted flux through face j (at j dr, between rings j-1 and j)
    flux = 2.0 * np.arange(1, r.size) / ((rho[:, :-1] + rho[:, 1:]) * dr) * np.diff(p, axis=-1)
    if scene.j_sleeve > 0:
        flux[..., 1:-1, scene.j_sleeve - 1] = 0.0
    out[..., :-1] += flux / r[:-1]
    out[..., 1:] -= flux / r[1:]
    ends = p[..., [0, -1], :]
    ghosts = ((ends * r) @ v * mu[..., None, :]) @ v.T
    out[..., [0, -1], :] += (ghosts - ends) / (scene.medium.rho0 * dx ** 2)
    return out


def _solve_fields(scene: SimGrid, freqs: list[float]) -> tuple[np.ndarray, np.ndarray]:
    """Total fields p[point, nx, nr] for a unit plane wave incident on the
    upstream face at each frequency, and that wave's half-step factor sigma_0."""
    import numpy as np

    medium, dx, nr, nt = scene.medium, scene.dx, scene.nr, scene.n_sample_cells
    omega = 2.0 * math.pi * np.array(freqs)
    k0 = omega / medium.c0
    sigma = _termination_factors(scene, k0[:, None])
    mu = sigma * sigma
    v = scene.radial_modes
    w, w_inv = scene.span_modes, scene.span_modes_inv

    # the sample span in its radial modes: mode m has the medium of ring m,
    # chain coupling c between sample columns and g across the sample faces
    rho, kappa = scene.rho[1], scene.kappa[1]
    c = 1.0 / (rho * dx ** 2)
    g = 2.0 / ((scene.rho[0] + rho) * dx ** 2)
    diag = np.stack([omega[:, None] ** 2 / kappa - scene.span_eigenvalues / rho - 2.0 * c] * nt, 1)
    diag[:, 0] += c - g
    diag[:, -1] += c - g
    # chain[:, i] = (T^-1 e_0)[i] per mode, T the chain's tridiagonal matrix:
    # ratios x_i / x_(i-1) from the far end back, then their running product
    steps = np.empty_like(diag)
    ratio = 0.0
    for i in range(nt - 1, 0, -1):
        ratio = steps[:, i] = -c / (diag[:, i] + c * ratio)
    steps[:, 0] = 1.0 / (diag[:, 0] + c * ratio)
    chain = np.cumprod(steps, axis=1)

    # Schur complement onto the air columns beside the span: V diag(air) V^-1
    # (the air's radial operator and exact termination) minus W diag(h) W^-1
    # from the span, h = g + g^2 (chain[0] +/- chain[-1]) for the even and odd
    # parts (T is persymmetric); in x = V u and rows of W^-1, P = W^-1 V:
    # (P diag(air) - diag(h) P) u = W^-1 drive, as g is constant on W's blocks
    air = (k0[:, None] ** 2 - scene.radial_eigenvalues + (mu - 1.0) / dx ** 2) / medium.rho0
    near, far = g * g * chain[:, 0], g * g * chain[:, -1]
    h = g + np.stack([near + far, near - far], axis=1)
    span_air, system = scene.span_air_modes, np.empty((2, nr, nr), dtype=complex)
    # W^-1 of a constant column of ones, which is V's mode 0 over V[0, 0]
    span_ones = span_air[:, :1] / v[0, 0]
    # total = incident + scattered beyond the upstream column, and only the scattered
    # part leaves: p_ghost = inc_ghost + M (p_0 - inc_0); this is its known part, a
    # constant column, as the incident wave is mode 0 at 1/sigma_0 in the end column
    # and sigma_0^-3 in its ghost, and M maps it to 1/sigma_0 * mu_0 = sigma_0
    sigma_0 = sigma[:, 0]
    drive = (sigma_0 - sigma_0 ** -3) / (medium.rho0 * dx ** 2)
    p = np.empty((len(freqs), scene.nx, nr), complex)
    for n in range(len(freqs)):
        np.subtract(span_air * air[n], h[n, :, :, None] * span_air, out=system)
        even, odd = np.linalg.solve(system, drive[n] * span_ones)[..., 0] @ v.T
        p[n, 0], p[n, -1] = 0.5 * (even + odd), 0.5 * (even - odd)
        from_in, from_out = g * (w_inv @ p[n, 0]), g * (w_inv @ p[n, -1])
        p[n, 1:-1] = -(chain[n] * from_in + chain[n, ::-1] * from_out) @ w.T

    # the residual of the full operator
    residual = _apply_operator(scene, omega[:, None, None], mu, p)
    residual[:, 0] -= drive[:, None]
    residual = np.linalg.norm(residual, axis=(1, 2)) / (np.abs(drive) * math.sqrt(nr))
    for f, value in zip(freqs, residual):
        if not value < 1e-9:
            raise ResolutionError(
                f"Helmholtz solve did not converge at {f} Hz (relative residual {value:.2e})")
    return p, sigma_0


def sweep_fields(scene: SimGrid, freqs) -> Iterator[tuple[ScatteringData, tuple]]:
    """Solve each frequency and yield its (T, R), referenced to the sample
    faces, with its full complex pressure field (x centers, r centers,
    p[nx, nr]); the field axes are the same two arrays for every point.

    The end columns sit half a cell outside the sample faces: their area
    averages are 1/sigma_0 + R sigma_0 upstream and T sigma_0 downstream.
    ``SWEEP_BLOCK`` points are solved at a time, fewer if their fields would
    hold more than ``MAX_CELLS`` cells; a point's (T, R) and field have the
    same bits in any sweep.  Before any solve, a frequency that is not
    positive and finite raises ``DomainError``, and one above the scene's
    ``f_max`` ``ResolutionError``; each one where the scene's mode 1
    propagates warns.
    """
    import numpy as np

    freqs = [float(f) for f in freqs]
    for f in freqs:
        if not (f > 0 and math.isfinite(f)):
            raise DomainError(f"frequency must be positive, got {f}")
        if f > scene.f_max:
            raise ResolutionError(f"{f} Hz is above the {scene.f_max} Hz the scene was built for")
    for f in freqs:
        k0 = 2.0 * math.pi * f / scene.medium.c0
        if k0 * k0 > scene.radial_eigenvalues[1]:
            warnings.warn(f"{f} Hz is above the first duct cutoff; the plane-wave "
                          "read-out ignores the propagating higher mode", stacklevel=2)
    size = max(1, min(SWEEP_BLOCK, MAX_CELLS // (scene.nx * scene.nr)))
    x, r = scene.x_center(np.arange(scene.nx)), scene.area_weights.copy()
    for start in range(0, len(freqs), size):
        block = freqs[start:start + size]
        p, sigma_0 = _solve_fields(scene, block)
        averages = np.sum(p[:, [0, -1]] * scene.area_weights, axis=-1) / np.sum(scene.area_weights)
        for f, s, (upstream, downstream), field in zip(block, sigma_0, averages, p):
            point = ScatteringData(f, complex(downstream / s), complex((upstream - 1 / s) / s))
            yield point, (x, r, field)


def solve_sweep(scene: SimGrid, freqs) -> list[ScatteringData]:
    """(T, R) at each frequency of ``freqs``: the points of ``sweep_fields``."""
    return [point for point, _ in sweep_fields(scene, freqs)]

