"""The mode-matching referee (mm_reference.py): its closed-form radial
integrals against adaptive quadrature, its convergence in the mode count, and
its one-mode-per-region limit, the paper's averaged model."""

import cmath

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import j0, j1, y0, y1

from mm_reference import radial_basis, solve_bilayer_scene
from tubegap.retrieval import forward_averaged_sweep
from tubegap.types import GapProperties, MaterialSpec

# n1 and z1/z2 of the two benchmark samples (configs/sample1.cfg, sample2.cfg)
SAMPLES = {"sample1": (5.0, 15.0), "sample2": (7.0, 10.0)}


def _quad(fn, lo, hi):
    return quad(fn, lo, hi, epsabs=1e-17, epsrel=1e-10, limit=400)[0]


@pytest.mark.parametrize("sample", SAMPLES)
def test_closed_forms_match_quad(sample, request):
    """Cross integrals and norms at 112 modes, the most the suite uses, up to
    the highest annulus order (47 on sample 1, 29 on sample 2); the closed
    forms agreed with quad to 1.5e-19 absolute and 2.3e-15 relative."""
    geometry = request.getfixturevalue(f"{sample}_geometry")
    r1, r2 = geometry.r1, geometry.r2
    kd, kdisk, mus, cross, duct_norm, norm = radial_basis(r1, r2, 112)
    n_disk, n_ann = len(kdisk), len(mus)
    assert (len(kd), n_disk + n_ann) == (112, 112)

    def annulus(mu):
        if mu == 0.0:
            return lambda r: 1.0
        return lambda r: j0(mu * r) * y1(mu * r1) - y0(mu * r) * j1(mu * r1)

    for n in (0, 1, 7, 111):
        for m in (0, 1, n_disk - 1):
            exact = _quad(lambda r: j0(kd[n] * r) * j0(kdisk[m] * r) * r, 0.0, r1)
            assert cross[n, m] == pytest.approx(exact, rel=1e-9, abs=1e-16)
        for l in (0, 1, 12, n_ann - 1):
            z = annulus(mus[l])
            exact = _quad(lambda r: j0(kd[n] * r) * z(r) * r, r1, r2)
            assert cross[n, n_disk + l] == pytest.approx(exact, rel=1e-9, abs=1e-16)
    for l in (0, 1, 12, n_ann - 1):
        z = annulus(mus[l])
        exact = _quad(lambda r: z(r) ** 2 * r, r1, r2)
        assert norm[n_disk + l] == pytest.approx(exact, rel=1e-9, abs=1e-16)
    for m in (0, 1, n_disk - 1):
        exact = _quad(lambda r: j0(kdisk[m] * r) ** 2 * r, 0.0, r1)
        assert norm[m] == pytest.approx(exact, rel=1e-9, abs=1e-16)
    exact = _quad(lambda r: j0(kd[111] * r) ** 2 * r, 0.0, r2)
    assert duct_norm[111] == pytest.approx(exact, rel=1e-9, abs=1e-16)


@pytest.mark.parametrize("sample", SAMPLES)
def test_referee_converges(sample, request, medium):
    """Doubling the width-proportional mode count from 56 to 112 moves (T, R)
    by at most 1.4e-5 on sample 1 and 3.8e-5 on sample 2 (measured)."""
    geometry = request.getfixturevalue(f"{sample}_geometry")
    n1, z_ratio = SAMPLES[sample]
    z2 = GapProperties.from_geometry(geometry, medium).z2
    material = MaterialSpec(n1=n1, z1=z_ratio * z2)
    rho = material.effective_density(geometry, medium)
    c = cmath.sqrt(material.effective_bulk_modulus(geometry, medium) / rho)
    for f in (300.0, 1000.0, 2500.0):
        args = (geometry.r1, geometry.r2, geometry.t, medium.rho0, medium.c0, rho, c, f)
        t56, r56 = solve_bilayer_scene(*args, n_modes=56)
        t112, r112 = solve_bilayer_scene(*args, n_modes=112)
        assert abs(t56 - t112) < 1e-4
        assert abs(r56 - r112) < 1e-4


@pytest.mark.parametrize("sample", SAMPLES)
def test_referee_with_one_disk_and_one_annulus_mode_is_the_averaged_model(sample, request,
                                                                          medium):
    """One constant mode in the disk and one in the annulus, with 64 duct
    modes, is the paper's averaged model at its default truncation: the
    referee reproduced ``forward_averaged_sweep`` to 7.4e-16 (sample 1) and
    7.7e-16 (sample 2) over the configs' 45 points (measured), against the
    8x8 interface system that model then solved."""
    geometry = request.getfixturevalue(f"{sample}_geometry")
    n1, z_ratio = SAMPLES[sample]
    z2 = GapProperties.from_geometry(geometry, medium).z2
    material = MaterialSpec(n1=n1, z1=z_ratio * z2)
    rho = material.effective_density(geometry, medium)
    c = cmath.sqrt(material.effective_bulk_modulus(geometry, medium) / rho)
    freqs = np.linspace(300.0, 2500.0, 45).tolist()
    model = forward_averaged_sweep(material.n1, material.z1, geometry, medium, freqs,
                                   n_modes=64)
    for point in model:
        t, r = solve_bilayer_scene(geometry.r1, geometry.r2, geometry.t, medium.rho0,
                                   medium.c0, rho, c, point.f, n_modes=64, n_disk=1,
                                   n_annulus=1)
        assert abs(t - point.transmission) < 2e-15
        assert abs(r - point.reflection) < 2e-15
