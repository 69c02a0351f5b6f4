"""Finite-difference oracle: grid building, measurement chain, physics checks."""

import cmath
import math
import warnings

import numpy as np
import pytest

from mm_reference import solve_bilayer_scene
from tubegap.errors import DecompositionError, ResolutionError
from tubegap.fdfd import (
    MIN_CELLS_PER_WAVELENGTH,
    OracleSettings,
    PortRecord,
    build_scene,
    evanescent_round_trip,
    grid_wavenumber,
    scattering_from_ports,
    solve_field,
    solve_harmonic,
)
from tubegap.types import MaterialSpec

FAST = OracleSettings(cells_per_wavelength=20, f_min=500.0)


@pytest.fixture(scope="module")
def sample1_material(sample1_geometry, medium):
    from tubegap.types import GapProperties

    z2 = GapProperties.from_geometry(sample1_geometry, medium).z2
    return MaterialSpec(n1=5.0 + 0j, z1=15.0 * z2)


@pytest.fixture(scope="module")
def default_scene(sample1_material, sample1_geometry, medium):
    return build_scene(sample1_material, sample1_geometry, 2500.0, medium=medium)


class TestBuildScene:
    def test_resolution_rule(self, sample1_geometry, medium, sample1_material):
        scene = build_scene(sample1_material, sample1_geometry, 2500.0, medium=medium)
        wavelength_min = medium.c0 / (2500.0 * abs(sample1_material.n1))
        assert scene.dx <= wavelength_min / MIN_CELLS_PER_WAVELENGTH
        # thickness resolved exactly by whole cells
        assert scene.n_sample_cells * scene.dx == pytest.approx(sample1_geometry.t, rel=1e-12)

    def test_radii_snap(self, sample2_geometry, medium):
        scene = build_scene(MaterialSpec(n1=7.0, z1=1e5), sample2_geometry, 2500.0, medium=medium)
        assert scene.j_sleeve * scene.dr == pytest.approx(sample2_geometry.r1, rel=5e-3)
        assert scene.nr * scene.dr == pytest.approx(sample2_geometry.r2, rel=5e-3)

    def test_air_scene_differs_only_by_sleeve(self, sample1_geometry, medium):
        air = MaterialSpec.air(sample1_geometry, medium)
        scene_air = build_scene(air, sample1_geometry, 1000.0, medium=medium, settings=FAST)
        scene_empty = build_scene(None, sample1_geometry, 1000.0, medium=medium, settings=FAST)
        assert np.allclose(scene_air.rho, scene_empty.rho, rtol=1e-14)
        assert np.allclose(scene_air.kappa, scene_empty.kappa, rtol=1e-14)
        assert scene_empty.j_sleeve == 0 and scene_air.j_sleeve > 0

    def test_cell_budget_enforced(self, sample1_geometry, medium, sample1_material):
        tiny = OracleSettings(max_cells=1000)
        with pytest.raises(ResolutionError):
            build_scene(sample1_material, sample1_geometry, 2500.0, medium=medium, settings=tiny)

    def test_mirror_symmetric_instruments(self, sample1_geometry, medium, sample1_material):
        scene = build_scene(sample1_material, sample1_geometry, 1500.0, medium=medium, settings=FAST)
        t = sample1_geometry.t
        assert scene.x_center(scene.i_mic_c) == pytest.approx(t - scene.x_center(scene.i_mic_b))
        assert scene.x_center(scene.i_mic_d) == pytest.approx(t - scene.x_center(scene.i_mic_a))

    def test_microphone_placement_invariants(self, sample1_geometry, medium, sample1_material):
        """Mics sit in homogeneous air, outside the PML, at least one duct
        radius away from the sample faces."""
        scene = build_scene(sample1_material, sample1_geometry, 2000.0, medium=medium, settings=FAST)
        r2, t = sample1_geometry.r2, sample1_geometry.t
        near_dx = 1.5 * scene.dx
        for i in (scene.i_mic_a, scene.i_mic_b):
            assert scene.x_center(i) <= -(r2 - near_dx)
            assert i >= scene.n_pml
        for i in (scene.i_mic_c, scene.i_mic_d):
            assert scene.x_center(i) >= t + r2 - near_dx
            assert i < scene.nx - scene.n_pml
        for i in (scene.i_mic_a, scene.i_mic_b, scene.i_mic_c, scene.i_mic_d):
            assert np.allclose(scene.rho[i, :], medium.rho0)


class TestDecomposition:
    def test_synthetic_two_wave_field(self, sample1_geometry, medium):
        """P+ = 1, P- = 0.5 sampled at x = -0.30, -0.25 recovers R = 0.5,
        T = 0.25, also when the downstream termination sends a wave back."""
        f = 500.0
        k0 = 2 * math.pi * f / medium.c0
        t = sample1_geometry.t
        xa, xb, xc, xd = -0.30, -0.25, t + 0.2, t + 0.25
        trans, refl = 0.25, 0.5
        # B- = 0: anechoic termination; B- != 0: an imperfect one
        for b_minus in (0.0, 0.3 * cmath.exp(0.7j)):
            a_minus = refl + trans * b_minus
            b_plus = trans + refl * b_minus

            def upstream(x):
                return cmath.exp(-1j * k0 * x) + a_minus * cmath.exp(1j * k0 * x)

            def downstream(x):
                return b_plus * cmath.exp(-1j * k0 * (x - t)) + b_minus * cmath.exp(1j * k0 * (x - t))

            rec = PortRecord(
                f=f, x_upstream_a=xa, x_upstream_b=xb, x_downstream=xc, x_downstream_d=xd,
                p_upstream_a=upstream(xa), p_upstream_b=upstream(xb),
                p_downstream=downstream(xc), p_downstream_d=downstream(xd),
                residual=0.0, dx=0.0,
            )
            sd = scattering_from_ports(rec, sample1_geometry, medium)
            assert sd.reflection == pytest.approx(refl, abs=1e-12), b_minus
            assert sd.transmission == pytest.approx(trans, abs=1e-12), b_minus

    def test_pure_incident_wave(self, sample1_geometry, medium):
        f = 800.0
        k0 = 2 * math.pi * f / medium.c0
        xa, xb = -0.3, -0.26
        xc, xd = sample1_geometry.t + 0.15, sample1_geometry.t + 0.19
        rec = PortRecord(
            f=f, x_upstream_a=xa, x_upstream_b=xb, x_downstream=xc, x_downstream_d=xd,
            p_upstream_a=cmath.exp(-1j * k0 * xa), p_upstream_b=cmath.exp(-1j * k0 * xb),
            p_downstream=cmath.exp(-1j * k0 * xc), p_downstream_d=cmath.exp(-1j * k0 * xd),
            residual=0.0, dx=0.0,
        )
        sd = scattering_from_ports(rec, sample1_geometry, medium)
        assert abs(sd.reflection) < 1e-12
        # transmitted phase compensated to the exit face
        assert sd.transmission == pytest.approx(
            cmath.exp(-1j * k0 * sample1_geometry.t), abs=1e-12
        )

    def test_half_wavelength_spacing_rejected(self, sample1_geometry, medium):
        """Either microphone pair at a half-wavelength spacing is singular."""
        f = 500.0
        wavelength = medium.c0 / f
        upstream = PortRecord(
            f=f, x_upstream_a=-0.3 - wavelength / 2, x_upstream_b=-0.3,
            x_downstream=0.3, x_downstream_d=0.34,
            p_upstream_a=1.0, p_upstream_b=1.0, p_downstream=1.0, p_downstream_d=1.0,
            residual=0.0, dx=0.0,
        )
        downstream = PortRecord(
            f=f, x_upstream_a=-0.34, x_upstream_b=-0.3,
            x_downstream=0.3, x_downstream_d=0.3 + wavelength / 2,
            p_upstream_a=1.0, p_upstream_b=1.0, p_downstream=1.0, p_downstream_d=1.0,
            residual=0.0, dx=0.0,
        )
        for rec in (upstream, downstream):
            with pytest.raises(DecompositionError):
                scattering_from_ports(rec, sample1_geometry, medium)

    def test_grid_wavenumber_expansion(self):
        k0, dx = 20.0, 0.001
        expected = k0 * (1 + (k0 * dx) ** 2 / 24)
        assert grid_wavenumber(k0, dx) == pytest.approx(expected, rel=1e-6)
        assert grid_wavenumber(k0, 0.0) == k0


class TestEmptyAndAirScenes:
    def test_empty_duct_magnitude_ratio(self, sample1_geometry, medium):
        """Lossless uniform duct: mic magnitudes agree to 1e-4 (PML bound)."""
        scene = build_scene(None, sample1_geometry, 2500.0, medium=medium, settings=FAST)
        for f in (600.0, 1500.0, 2500.0):
            rec = solve_harmonic(scene, f)
            assert abs(abs(rec.p_downstream / rec.p_upstream_b) - 1) < 1e-4
            assert rec.residual < 1e-9

    def test_air_sample_transparent(self, sample1_geometry, medium):
        air = MaterialSpec.air(sample1_geometry, medium)
        scene = build_scene(air, sample1_geometry, 2500.0, medium=medium, settings=FAST)
        for f in (600.0, 2500.0):
            sd = scattering_from_ports(solve_harmonic(scene, f), sample1_geometry, medium)
            assert abs(abs(sd.transmission) - 1) < 1e-3
            assert abs(sd.reflection) < 1e-3

    def test_above_cutoff_warns(self, sample1_geometry, medium):
        scene = build_scene(None, sample1_geometry, 3500.0, medium=medium, settings=FAST)
        with pytest.warns(UserWarning):
            solve_harmonic(scene, 3200.0)


class TestScenePhysics:
    def test_energy_conservation_lossless(self, sample1_geometry, medium, sample1_material):
        scene = build_scene(sample1_material, sample1_geometry, 1800.0, medium=medium, settings=FAST)
        for f in (700.0, 1800.0):
            sd = scattering_from_ports(solve_harmonic(scene, f), sample1_geometry, medium)
            assert abs(sd.transmission) ** 2 + abs(sd.reflection) ** 2 == pytest.approx(
                1.0, abs=5e-3
            )

    def test_reciprocity(self, sample1_geometry, medium, sample1_material):
        scene = build_scene(sample1_material, sample1_geometry, 1500.0, medium=medium, settings=FAST)
        f = 1200.0
        sd_up = scattering_from_ports(solve_harmonic(scene, f), sample1_geometry, medium)
        sd_down = scattering_from_ports(
            solve_harmonic(scene, f, excite="downstream"), sample1_geometry, medium
        )
        assert sd_down.transmission == pytest.approx(sd_up.transmission, abs=1e-3)

    def test_field_dump_shape(self, sample1_geometry, medium):
        scene = build_scene(None, sample1_geometry, 800.0, medium=medium, settings=FAST)
        x, r, p = solve_field(scene, 800.0)
        assert p.shape == (scene.nx, scene.nr)
        assert len(x) == scene.nx and len(r) == scene.nr

    def test_mode_matching_oracle_sanity(self, sample1_geometry, medium):
        """The reference oracle itself: an air disk must be transparent."""
        f = 900.0
        t_ref, r_ref = solve_bilayer_scene(
            sample1_geometry.r1, sample1_geometry.r2, sample1_geometry.t,
            medium.rho0, medium.c0, medium.rho0, medium.c0, f,
            n_duct=30, n_disk=15, n_ann=15,
        )
        k0t = 2 * math.pi * f / medium.c0 * sample1_geometry.t
        assert t_ref == pytest.approx(cmath.exp(-1j * k0t), abs=1e-8)
        assert abs(r_ref) < 1e-8

    def test_matches_mode_matching_reference(self, sample1_geometry, medium, sample1_material):
        """Independent continuum oracle: exact modal solution of the same
        scene agrees with the grid solution to a few parts in 1e3."""
        f = 1000.0
        scene = build_scene(sample1_material, sample1_geometry, 2500.0, medium=medium)
        sd = scattering_from_ports(solve_harmonic(scene, f), sample1_geometry, medium)
        rho_disk = sample1_material.effective_density(sample1_geometry, medium)
        kappa_disk = sample1_material.effective_bulk_modulus(sample1_geometry, medium)
        c_disk = cmath.sqrt(kappa_disk / rho_disk)
        t_ref, r_ref = solve_bilayer_scene(
            sample1_geometry.r1, sample1_geometry.r2, sample1_geometry.t,
            medium.rho0, medium.c0, rho_disk, c_disk, f,
            n_duct=50, n_disk=25, n_ann=25,
        )
        assert sd.transmission == pytest.approx(t_ref, abs=2e-3)
        assert sd.reflection == pytest.approx(r_ref, abs=2e-3)

    def test_oracle_is_independent_of_model_modules(self):
        """The simulator must not import the modal or retrieval machinery."""
        import tubegap.fdfd as fdfd_module

        source = open(fdfd_module.__file__).read()
        assert "tubegap.modal" not in source
        assert "tubegap.retrieval" not in source


class TestTerminations:
    """The fixed-depth PML: (T, R) must not depend on it."""

    def test_termination_drops_out(self, default_scene, sample1_material, sample1_geometry, medium):
        """An 80-cell PML gives the (T, R) of a half-wavelength (770-cell) one."""
        long_pml = OracleSettings(pml_wavelength_fraction=0.5, f_min=300.0)
        scene_long = build_scene(
            sample1_material, sample1_geometry, 2500.0, medium=medium, settings=long_pml
        )
        assert scene_long.n_pml > 5 * default_scene.n_pml
        for f in (600.0, 2500.0):
            sd = scattering_from_ports(solve_harmonic(default_scene, f), sample1_geometry, medium)
            sd_long = scattering_from_ports(solve_harmonic(scene_long, f), sample1_geometry, medium)
            assert sd.transmission == pytest.approx(sd_long.transmission, abs=1e-12)
            assert sd.reflection == pytest.approx(sd_long.reflection, abs=1e-12)

    def test_evanescent_return_suppressed(self, default_scene, sample1_geometry, medium):
        """Lossless energy balance at the top of the band, where the first
        evanescent mode decays slowest; without the real stretch the mode's
        return from the end walls leaves a defect of about 4e-8."""
        sd = scattering_from_ports(solve_harmonic(default_scene, 2500.0), sample1_geometry, medium)
        assert abs(abs(sd.transmission) ** 2 + abs(sd.reflection) ** 2 - 1.0) <= 1e-12

    def test_evanescent_guard(self, default_scene, sample1_material, sample1_geometry, medium):
        short = OracleSettings(pml_min_cells=5, mic_standoff_radii=0.1, mic_spacing_radii=0.1)
        scene_short = build_scene(
            sample1_material, sample1_geometry, 2500.0, medium=medium, settings=short
        )
        assert evanescent_round_trip(scene_short, 2500.0) > 1e-6
        with pytest.warns(UserWarning, match="evanescent"):
            solve_harmonic(scene_short, 2500.0)
        assert evanescent_round_trip(default_scene, 2500.0) < 1e-20
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            solve_harmonic(default_scene, 2500.0)

    def test_grid_refinement(self, default_scene, sample1_material, sample1_geometry, medium):
        """Richardson check: refining dx from 7.4e-4 to 4.0e-4 m moves |T|
        and |R| by at most 1.5e-3 (measured 1.48e-3, |R| at 2400 Hz)."""
        fine = build_scene(
            sample1_material, sample1_geometry, 2500.0, medium=medium,
            settings=OracleSettings(cells_per_wavelength=66),
        )
        assert fine.dx < 0.55 * default_scene.dx
        for f in (600.0, 1500.0, 2400.0):
            sd = scattering_from_ports(solve_harmonic(default_scene, f), sample1_geometry, medium)
            sd_fine = scattering_from_ports(solve_harmonic(fine, f), sample1_geometry, medium)
            assert abs(abs(sd.transmission) - abs(sd_fine.transmission)) <= 1.5e-3, f
            assert abs(abs(sd.reflection) - abs(sd_fine.reflection)) <= 1.5e-3, f
