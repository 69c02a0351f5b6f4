"""Mode-matching reference solution for the sleeved bilayer duct scene.

Independent test oracle: expands the field in exact continuum eigenmodes
of each region (duct / sample disk / gap annulus), enforces pressure and
axial-velocity continuity at the two faces, and returns the plane-wave
transmission/reflection pair.  Uses scipy Bessel functions and numpy
linear algebra only, so it shares no code with either the retrieval
model or the finite-difference solver it arbitrates between.

Radial integrals are Lommel's closed forms (Watson, *Treatise on Bessel
Functions*, 5.11).  Disk and annulus mode counts follow their widths
r1 : (r2 - r1), since at an edge the limit of mode matching depends on
that ratio (Lee, Jones & Campbell, IEEE T-MTT 19(6), 1971).

Conventions match the package: time dependence exp(+i w t), incident
wave exp(-i k0 x), sample spanning 0 <= x <= t.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.optimize import brentq
from scipy.special import j0, j1, jn_zeros, y0, y1


def _annulus_modes(r1: float, r2: float, count: int) -> np.ndarray:
    """Radial wavenumbers of rigid-rigid annulus modes (first is 0)."""

    def cross(mu):
        return j1(mu * r1) * y1(mu * r2) - j1(mu * r2) * y1(mu * r1)

    grid = np.linspace(0.5, (count + 4) * math.pi / (r2 - r1), 40 * (count + 4))
    vals = cross(grid)
    brackets = np.flatnonzero(vals[:-1] * vals[1:] < 0)[: count - 1]
    if len(brackets) < count - 1:
        raise RuntimeError("annulus mode search exhausted the scan grid")
    return np.array([0.0] + [brentq(cross, grid[i], grid[i + 1], xtol=1e-14) for i in brackets])


def _annulus_functions(mu: np.ndarray, r: float, r1: float) -> tuple[np.ndarray, np.ndarray]:
    """Annulus mode Z0 = J0(mu r) Y1(mu r1) - Y0(mu r) J1(mu r1) and its
    order-1 partner Z1 (d/dr Z0 = -mu Z1); the mode mu = 0 is Z0 = 1, Z1 = 0."""
    m = np.where(mu > 0, mu, 1.0)
    z0 = j0(m * r) * y1(m * r1) - y0(m * r) * j1(m * r1)
    z1 = j1(m * r) * y1(m * r1) - y1(m * r) * j1(m * r1)
    return np.where(mu > 0, z0, 1.0), np.where(mu > 0, z1, 0.0)


def _lommel(a: np.ndarray, b: np.ndarray, r: float, w0: np.ndarray, w1: np.ndarray) -> np.ndarray:
    """Lommel's antiderivative at r of r J0(a r) W0(b r) for every pair (a, b):
    r [a J1(a r) W0 - b J0(a r) W1] / (a^2 - b^2), or r^2/2 (J0 W0 + J1 W1)
    at a = b.  W0 is an order-0 cylinder function with d/dr W0(b r) =
    -b W1(b r); w0, w1 are their values at r."""
    a, b = a[:, None], b[None, :]
    ja0, ja1 = j0(a * r), j1(a * r)
    same = np.isclose(a, b, rtol=1e-9, atol=0.0)
    unequal = r * (a * ja1 * w0 - b * ja0 * w1) / np.where(same, 1.0, a * a - b * b)
    return np.where(same, r * r / 2.0 * (ja0 * w0 + ja1 * w1), unequal)


def radial_basis(r1: float, r2: float, n_modes: int, n_disk: int | None = None,
                 n_annulus: int | None = None):
    """Radial modes of the scene and their integrals, all in closed form.

    The duct carries n_modes modes; the disk and the annulus carry n_disk and
    n_annulus, by default round(n_modes r1 / r2) and the rest.  One disk mode
    and one annulus mode (both constants) make the paper's averaged model at
    n_modes duct modes.  Returns the duct, disk and annulus wavenumbers, the
    projections of the duct modes (rows) on the disk then annulus modes
    (columns), the duct mode norms and the disk then annulus mode norms.
    """
    if n_disk is None:
        n_disk = round(n_modes * r1 / r2)
    if n_annulus is None:
        n_annulus = n_modes - n_disk
    roots = jn_zeros(1, max(n_modes, n_disk) - 1)
    kd = np.concatenate([[0.0], roots[: n_modes - 1]]) / r2
    kdisk = np.concatenate([[0.0], roots[: n_disk - 1]]) / r1
    mus = _annulus_modes(r1, r2, n_annulus)
    z_in, z_out = _annulus_functions(mus, r1, r1), _annulus_functions(mus, r2, r1)
    cross = np.hstack([
        _lommel(kd, kdisk, r1, j0(kdisk * r1), j1(kdisk * r1)),
        _lommel(kd, mus, r2, *z_out) - _lommel(kd, mus, r1, *z_in),
    ])
    norm = np.concatenate([r1 * r1 / 2.0 * j0(kdisk * r1) ** 2,
                           (r2 * r2 * z_out[0] ** 2 - r1 * r1 * z_in[0] ** 2) / 2.0])
    return kd, kdisk, mus, cross, r2 * r2 / 2.0 * j0(kd * r2) ** 2, norm


def _decaying(k2: np.ndarray) -> np.ndarray:
    """Axial wavenumbers on the outgoing/decaying branch for exp(+iwt)."""
    q = np.sqrt(np.asarray(k2, dtype=complex))
    return np.where((q.imag > 0) | ((q.imag == 0) & (q.real < 0)), -q, q)


def solve_bilayer_scene(
    r1: float, r2: float, t: float, rho0: float, c0: float,
    rho_disk: complex, c_disk: complex, f: float, n_modes: int = 56,
    n_disk: int | None = None, n_annulus: int | None = None,
) -> tuple[complex, complex]:
    """Plane-wave (T, R) of the duct + sleeved (disk | annulus) sample,
    with n_modes duct modes and the disk and annulus modes of ``radial_basis``
    (by default as many sample modes as duct modes)."""
    om = 2 * math.pi * f
    k0 = om / c0
    kd, kdisk, mus, cross, duct_norm, norm = radial_basis(r1, r2, n_modes, n_disk, n_annulus)
    beta = _decaying(k0 * k0 - kd * kd)
    q = _decaying(np.concatenate([(om / c_disk) ** 2 - kdisk ** 2, k0 * k0 - mus ** 2]))
    rho = np.concatenate([np.full(len(kdisk), rho_disk), np.full(len(mus), rho0)])
    e = np.exp(-1j * q * t)
    flux = cross * (q / rho)
    duct = np.diag(beta / rho0 * duct_norm)
    rhs = np.concatenate([-cross[0], [-k0 / rho0 * duct_norm[0]], np.zeros(n_modes - 1)])

    # Sample modes carry A exp(-iqx) + B exp(iq(x - t)), so no entry grows
    # with t.  By mirror symmetry the sum (s = 1) and difference (s = -1) of
    # the continuity conditions at x = 0 and x = t (pressure on the sample
    # modes, velocity on the duct modes) decouple for (R + sT, A + sB).
    even, odd = (
        np.linalg.solve(np.block([[cross.T, np.diag(-norm * (1 + s * e))],
                                  [-duct, -flux * (1 - s * e)]]), rhs)[0]
        for s in (1, -1)
    )
    return complex((even - odd) / 2), complex((even + odd) / 2)
