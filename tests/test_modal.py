"""Duct eigenmodes, radial integrals, and the radiation-coupling matrices."""

from functools import lru_cache

import mpmath
import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import j0 as scipy_j0

from tubegap import modal
from tubegap.errors import ConvergenceError, DomainError
from tubegap.modal import (
    PATCH_CACHE_SIZE,
    _patch_integrals,
    coupling_coefficients,
    duct_wavenumbers,
    eigenmode,
    first_cutoff_frequency,
    radial_integral,
)
from tubegap.types import DuctGeometry

REFERENCE_DPS = 30


@lru_cache(maxsize=None)
def mp_j1_roots(count):
    """The first ``count`` positive roots of J1 from mpmath, at 30 digits."""
    with mpmath.workdps(REFERENCE_DPS):
        return tuple(mpmath.besseljzero(1, n) for n in range(1, count + 1))


def mp_coupling_upstream(geometry, medium, f, n_modes):
    """Truncated modal sums of the upstream coupling matrix, in mpmath only.

    Independent of the package's Bessel source: roots, J0, J1 and the
    per-mode patch integrals are evaluated at 30 digits.
    """
    with mpmath.workdps(REFERENCE_DPS):
        r1, r2 = mpmath.mpf(geometry.r1), mpmath.mpf(geometry.r2)
        omega = 2 * mpmath.pi * mpmath.mpf(f)
        k0 = omega / mpmath.mpf(medium.c0)
        ring_sq = r2 ** 2 - r1 ** 2
        scale = 4j * mpmath.mpf(medium.rho0) * omega
        pre = [[scale / r1 ** 4, scale / (r1 ** 2 * ring_sq)],
               [scale / (r1 ** 2 * ring_sq), scale / ring_sq ** 2]]
        total = [[mpmath.mpc(0), mpmath.mpc(0)], [mpmath.mpc(0), mpmath.mpc(0)]]
        for n in range(n_modes):
            if n == 0:
                kn, wall = mpmath.mpf(0), mpmath.mpf(1)
                patch = (r1 ** 2 / 2, ring_sq / 2)
            else:
                x = mp_j1_roots(n_modes - 1)[n - 1]
                kn, wall = x / r2, mpmath.besselj(0, x)
                inner = r1 * mpmath.besselj(1, kn * r1)
                outer = r2 * mpmath.besselj(1, x)
                patch = (inner / kn / wall, (outer - inner) / kn / wall)
            diff = k0 ** 2 - kn ** 2
            beta = mpmath.sqrt(diff) if diff > 0 else -1j * mpmath.sqrt(-diff)
            green = 1 / (-1j * mpmath.pi * r2 ** 2 * beta)
            for i in range(2):
                for j in range(2):
                    total[i][j] += pre[i][j] * patch[i] * patch[j] * green
        return np.array([[complex(v) for v in row] for row in total])


class TestWavenumbers:
    def test_first_radial_wavenumber(self, sample1_geometry):
        basis = duct_wavenumbers(sample1_geometry, 2)
        assert basis.k[0] == 0.0
        assert basis.k[1] == pytest.approx(54.7386, abs=1e-3)

    def test_first_cutoff(self, sample1_geometry, medium):
        assert first_cutoff_frequency(sample1_geometry, medium) == pytest.approx(2988.0, abs=1.0)

    def test_plane_wave_basis(self, sample1_geometry):
        basis = duct_wavenumbers(sample1_geometry, 1)
        assert basis.n_modes == 1
        assert basis.k[0] == 0.0

    def test_axial_branch(self, sample1_geometry, medium):
        basis = duct_wavenumbers(sample1_geometry, 4)
        beta = basis.axial_wavenumbers(1000.0, medium)
        assert beta[0].imag == 0.0 and beta[0].real > 0
        # evanescent modes sit on the -i branch (decaying, mass-like loading)
        assert np.all(beta[1:].real == 0.0)
        assert np.all(beta[1:].imag < 0.0)

    def test_mode_count_validation(self, sample1_geometry):
        with pytest.raises(DomainError):
            duct_wavenumbers(sample1_geometry, 0)

    def test_roots_match_mpmath(self, sample1_geometry):
        """k_n r2 are the J1 roots to 1e-13 relative over a 128-mode basis."""
        basis = duct_wavenumbers(sample1_geometry, 128)
        assert basis.k[0] == 0.0
        ref = np.array([float(x) for x in mp_j1_roots(127)])
        roots = basis.k[1:] * sample1_geometry.r2
        assert np.max(np.abs(roots - ref) / ref) < 1e-13


class TestEigenmode:
    def test_plane_mode_is_unity(self, sample1_geometry):
        basis = duct_wavenumbers(sample1_geometry, 3)
        for r in (0.0, 0.03, 0.07):
            assert eigenmode(0, r, basis) == pytest.approx(1.0)

    def test_wall_normalization(self, sample1_geometry):
        basis = duct_wavenumbers(sample1_geometry, 3)
        assert eigenmode(1, sample1_geometry.r2, basis) == pytest.approx(1.0, abs=1e-12)
        assert eigenmode(2, sample1_geometry.r2, basis) == pytest.approx(1.0, abs=1e-12)

    def test_axis_value(self, sample1_geometry):
        basis = duct_wavenumbers(sample1_geometry, 2)
        assert eigenmode(1, 0.0, basis) == pytest.approx(-2.4829, abs=1e-4)

    def test_out_of_duct_rejected(self, sample1_geometry):
        basis = duct_wavenumbers(sample1_geometry, 2)
        with pytest.raises(DomainError):
            eigenmode(1, 0.08, basis)
        with pytest.raises(DomainError):
            eigenmode(5, 0.01, basis)


class TestRadialIntegral:
    def test_plane_mode_closed_form(self):
        assert radial_integral(0.0, 0.0, 0.04) == pytest.approx(0.04 ** 2 / 2, rel=1e-15)

    def test_vanishes_at_mode_root(self, sample1_geometry):
        basis = duct_wavenumbers(sample1_geometry, 2)
        b = sample1_geometry.r2
        assert abs(radial_integral(basis.k[1], 0.0, b)) < 1e-10 * b * b

    def test_against_adaptive_quadrature(self):
        """Closed form vs scipy quadrature on 20 random (k, a, b) triples."""
        rng = np.random.default_rng(11)
        for _ in range(20):
            a = rng.uniform(0.0, 0.05)
            b = a + rng.uniform(0.005, 0.05)
            k = rng.uniform(0.5, 400.0)
            ref, err = quad(lambda r: scipy_j0(k * r) * r, a, b, epsabs=1e-14, epsrel=1e-13)
            assert radial_integral(k, a, b) == pytest.approx(ref, rel=1e-8, abs=1e-14)

    def test_validation(self):
        with pytest.raises(DomainError):
            radial_integral(1.0, 0.05, 0.04)
        for k in (float("nan"), float("inf"), -float("inf")):
            with pytest.raises(DomainError):
                radial_integral(k, 0.0, 0.04)


class TestCouplingCoefficients:
    def test_plane_wave_truncation_closed_form(self, sample1_geometry, medium):
        coup = coupling_coefficients(sample1_geometry, medium, 1234.0, n_modes=1)
        expected = -medium.alpha / sample1_geometry.s2
        assert np.allclose(coup.upstream, expected, rtol=1e-12)
        assert np.allclose(coup.downstream, -expected, rtol=1e-12)

    def test_reciprocity_and_mirror(self, medium):
        rng = np.random.default_rng(5)
        for _ in range(6):
            r2 = rng.uniform(0.03, 0.12)
            geom = DuctGeometry(r1=rng.uniform(0.3, 0.9) * r2, r2=r2, t=rng.uniform(0.002, 0.05))
            f = rng.uniform(100.0, 0.9 * first_cutoff_frequency(geom, medium))
            coup = coupling_coefficients(geom, medium, f)
            up, down = coup.upstream, coup.downstream
            # B = C and F = G
            assert abs(up[0, 1] - up[1, 0]) <= 1e-12 * abs(up[0, 1])
            assert abs(down[0, 1] - down[1, 0]) <= 1e-12 * abs(down[0, 1])
            # downstream face mirrors the upstream one with opposite sign
            assert np.all(np.abs(up + down) <= 1e-12 * np.abs(up))

    def test_radiation_resistance_and_mass_reactance(self, sample1_geometry, medium):
        coup = coupling_coefficients(sample1_geometry, medium, 1000.0)
        z = -coup.upstream  # impedance seen radiating upstream
        assert z[0, 0].real > 0
        assert z[0, 0].imag > 0  # evanescent loading is inertial under exp(+iwt)

    def test_truncation_convergence_is_second_order(self, sample1_geometry, medium):
        """Partial sums converge ~ N^-2 (terms decay like n^-3).

        The measured movement when doubling 50 -> 100 modes is ~6e-5
        relative, so tests pin the rate, not a fixed tiny constant.
        """
        changes = {}
        for n_modes in (32, 64, 128, 256):
            coup = coupling_coefficients(sample1_geometry, medium, 1000.0, n_modes=n_modes)
            changes[n_modes] = coup.rel_change
        assert changes[64] < 1e-3
        for a, b in ((32, 64), (64, 128), (128, 256)):
            ratio = changes[a] / changes[b]
            assert 2.5 < ratio < 6.5  # ~4x per doubling

    def test_convergence_tolerance_enforced(self, sample1_geometry, medium, monkeypatch):
        monkeypatch.setattr(modal, "SUM_TOLERANCE", 1e-9)
        with pytest.raises(ConvergenceError):
            coupling_coefficients(sample1_geometry, medium, 1000.0, n_modes=64)

    def test_above_cutoff_flag(self, sample1_geometry, medium):
        assert coupling_coefficients(sample1_geometry, medium, 3200.0).above_cutoff
        assert not coupling_coefficients(sample1_geometry, medium, 1000.0).above_cutoff

    def test_frequency_validation(self, sample1_geometry, medium):
        with pytest.raises(DomainError):
            coupling_coefficients(sample1_geometry, medium, -5.0)

    # sample 1 at the default truncation, and r1/r2 = 0.9 at 128 modes
    @pytest.mark.parametrize("r1, n_modes", [(0.040, 64), (0.063, 128)])
    @pytest.mark.parametrize("f", [300.0, 1300.0, 2500.0])
    def test_matches_mpmath_modal_sums(self, medium, r1, n_modes, f):
        """All four coefficients agree with a 30-digit evaluation of the same
        truncated sums to 1e-13 relative (measured worst 1.8e-15)."""
        geom = DuctGeometry(r1=r1, r2=0.070, t=0.0052)
        coup = coupling_coefficients(geom, medium, f, n_modes=n_modes)
        ref = mp_coupling_upstream(geom, medium, f, n_modes)
        assert np.max(np.abs(coup.upstream - ref) / np.abs(ref)) < 1e-13

    def test_patch_cache_bounded_and_transparent(self, medium, monkeypatch):
        """A warm geometry cache gives bit-identical coefficients, and it
        keeps at most PATCH_CACHE_SIZE geometries however many are used."""
        geoms = [DuctGeometry(r1=0.03 + 1e-4 * i, r2=0.07, t=0.005)
                 for i in range(PATCH_CACHE_SIZE + 3)]
        monkeypatch.setattr(modal, "SUM_TOLERANCE", 1.0)
        _patch_integrals.cache_clear()
        cold = coupling_coefficients(geoms[0], medium, 900.0, n_modes=4)
        warm = coupling_coefficients(geoms[0], medium, 900.0, n_modes=4)
        assert np.array_equal(cold.upstream, warm.upstream)
        for geom in geoms:
            coupling_coefficients(geom, medium, 900.0, n_modes=4)
        assert _patch_integrals.cache_info().currsize == PATCH_CACHE_SIZE
