"""Finite-difference oracle: grid building, (T, R) read-out, physics checks."""

import cmath
import functools
import math
import re
import warnings
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import tubegap.fdfd as fdfd_module
from mm_reference import solve_bilayer_scene
from tubegap.config import RunConfig
from tubegap.errors import DomainError, ResolutionError
from tubegap.fdfd import (
    MIN_CELLS_PER_WAVELENGTH,
    SimGrid,
    build_scene,
    solve_sweep,
    sweep_fields,
)
from tubegap.retrieval import forward_averaged_sweep, retrieve_sweep
from tubegap.types import DuctGeometry, GapProperties, MaterialSpec, MediumProperties

# the coarsest scene build_scene accepts, for checks that need no accuracy
fast_scene = functools.partial(build_scene, cells_per_wavelength=MIN_CELLS_PER_WAVELENGTH)


def grid_wavenumber(k0, dx):
    """The wavenumber of the second-order grid's plane wave, the root of
    2 (cos(k dx) - 1) / dx^2 = -k0^2, computed here independently of the simulator."""
    return 2.0 * math.asin(0.5 * k0 * dx) / dx


@pytest.fixture(scope="module")
def sample1_material(sample1_geometry, medium):
    z2 = GapProperties.from_geometry(sample1_geometry, medium).z2
    return MaterialSpec(n1=5.0 + 0j, z1=15.0 * z2)


@pytest.fixture(scope="module")
def lossy_sample2_material(sample2_geometry, medium):
    z2 = GapProperties.from_geometry(sample2_geometry, medium).z2
    return MaterialSpec(n1=7.0 - 0.8j, z1=(10.0 + 3.0j) * z2)


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

    @pytest.mark.parametrize("name, grid", [("sample1", (7, 32, 56)), ("sample2", (14, 102, 140)),
                                            ("air", (2, 4, 7))], ids=["sample1", "sample2", "air"])
    def test_shipped_scenes_snap_inside_the_window(self, name, grid):
        """The default scenes of the shipped configurations (and so of the
        acceptance samples) keep their (sample cells, sleeve face, rings):
        each snaps at a sleeve count within 25 of r1/dx."""
        config = RunConfig.from_file(Path(__file__).resolve().parents[1] / "configs"
                                     / f"{name}.cfg")
        geometry = config.geometry()
        scene = build_scene(config.material(), geometry, max(config.sweep_frequencies()),
                            medium=config.medium())
        assert (scene.n_sample_cells, scene.j_sleeve, scene.nr) == grid
        assert abs(scene.j_sleeve - round(geometry.r1 / scene.dx)) <= 25

    @pytest.mark.parametrize("f_max", [500.0, 1000.0])
    def test_radii_snap_past_the_window(self, medium, f_max, monkeypatch):
        """A 1.4 mm gap (r1 = 68.6 mm, r2 = 70 mm) snaps within 0.5% of r2
        at no sleeve count within 25 of r1/dx at these f_max; 49 of 50 rings
        of 1.4 mm snap exactly, so the search goes on to them, and the
        lossless scene builds and solves.  The next best, 40 of 41 rings, is
        0.45% off; a budget of 40^2 entries stops the search before either."""
        geometry = DuctGeometry(r1=0.0686, r2=0.070, t=0.0052)
        air = MaterialSpec.air(geometry, medium)
        scene = build_scene(air, geometry, f_max, medium=medium)
        assert round(geometry.r1 / scene.dx) + 25 < 49
        assert (scene.j_sleeve, scene.nr) == (49, 50)
        assert scene.dr == pytest.approx(0.0014, rel=1e-12)
        (point,) = solve_sweep(scene, [f_max])
        assert abs(point.transmission) ** 2 + abs(point.reflection) ** 2 == pytest.approx(1.0)
        monkeypatch.setattr(fdfd_module, "MAX_CELLS", 40 ** 2)
        with pytest.raises(ResolutionError, match="cannot place both radii"):
            build_scene(air, geometry, f_max, medium=medium)

    def test_air_scene_differs_only_by_sleeve(self, sample1_geometry, medium):
        air = MaterialSpec.air(sample1_geometry, medium)
        scene_air = fast_scene(air, sample1_geometry, 1000.0, medium=medium)
        scene_empty = fast_scene(None, sample1_geometry, 1000.0, medium=medium)
        assert np.allclose(scene_air.rho, scene_empty.rho, rtol=1e-14)
        assert np.allclose(scene_air.kappa, scene_empty.kappa, rtol=1e-14)
        assert scene_empty.j_sleeve == 0 and scene_air.j_sleeve > 0

    def test_cell_budget_enforced(self, sample1_geometry, medium, sample1_material, monkeypatch):
        # the default sample-1 scene is 9 x 56 = 504 cells
        monkeypatch.setattr(fdfd_module, "MAX_CELLS", 500)
        with pytest.raises(ResolutionError):
            build_scene(sample1_material, sample1_geometry, 2500.0, medium=medium)

    def test_radial_basis_budget_enforced(self, sample1_geometry, medium, sample1_material,
                                          monkeypatch):
        """The dense nr x nr radial bases count against the budget too: the
        default sample-1 scene has 504 cells but nr^2 = 3136 entries."""
        monkeypatch.setattr(fdfd_module, "MAX_CELLS", 3000)
        with pytest.raises(ResolutionError, match="504 cells and 3136"):
            build_scene(sample1_material, sample1_geometry, 2500.0, medium=medium)

    @pytest.mark.parametrize("f_max, ppw, message", [
        *(pytest.param(1000.0, ppw, "cells_per_wavelength", id=str(ppw))
          for ppw in (MIN_CELLS_PER_WAVELENGTH - 1, -5.0, math.nan, math.inf)),
        *(pytest.param(f_max, fdfd_module.DEFAULT_CELLS_PER_WAVELENGTH,
                       f"f_max must be positive, got {f_max}$", id=f"f_max={f_max}")
          for f_max in (0.0, -2500.0, math.nan, math.inf))])
    def test_resolution_below_minimum_rejected(self, sample1_geometry, medium, f_max, ppw,
                                               message):
        """Too coarse or non-finite resolutions are refused, not silently
        raised, and so is an f_max that is not positive and finite."""
        with pytest.raises(DomainError, match=message):
            build_scene(None, sample1_geometry, f_max, medium=medium, cells_per_wavelength=ppw)

    def test_mirror_symmetric_instruments(self, sample1_geometry, medium, sample1_material):
        """The two read-out columns mirror each other about x = t/2."""
        scene = fast_scene(sample1_material, sample1_geometry, 1500.0, medium=medium)
        t = sample1_geometry.t
        assert scene.x_center(0) == pytest.approx(t - scene.x_center(scene.nx - 1))

    def test_end_columns_are_uniform_air(self, sample1_geometry, medium, sample1_material):
        """The terminations assume uniform air: the end columns hold none of
        the sample and lie outside 0 <= x <= t."""
        scene = fast_scene(sample1_material, sample1_geometry, 2000.0, medium=medium)
        t = sample1_geometry.t
        assert scene.nx == scene.n_sample_cells + 2
        assert scene.x_center(0) < 0 and scene.x_center(scene.nx - 1) > t
        for i in (0, scene.nx - 1):
            assert np.all(scene.rho[i, :] == medium.rho0)
            assert np.all(scene.kappa[i, :] == medium.rho0 * medium.c0 ** 2)


def dense_operator(scene, f, pad=0):
    """The operator at f written out cell by cell from the discretization:
    w^2/kappa on the diagonal, a series-transmissibility coupling to each
    axial and radial neighbour (zero through the sleeve), and the
    termination's (M - I)/(rho0 dx^2) over each end column.  ``pad`` adds
    that many uniform-air columns (copies of the scene's end columns)
    before each termination."""
    nr, dx, dr = scene.nr, scene.dx, scene.dr
    rho, kappa = (np.pad(a, ((pad, pad), (0, 0)), mode="edge") for a in (scene.rho, scene.kappa))
    nx = scene.nx + 2 * pad
    omega = 2 * math.pi * f
    a = np.zeros((nx * nr, nx * nr), dtype=complex)
    # the scene is [air | sample columns | air]
    sample_columns = range(pad + 1, pad + 1 + scene.n_sample_cells)
    for i in range(nx):
        for j in range(nr):
            c = i * nr + j
            diag = omega ** 2 / kappa[i, j]
            for i2 in (i - 1, i + 1):
                if 0 <= i2 < nx:
                    coupling = 2.0 / ((rho[min(i, i2), j] + rho[max(i, i2), j]) * dx ** 2)
                    a[c, i2 * nr + j] = coupling
                    diag -= coupling
            for j2 in (j - 1, j + 1):
                if 0 <= j2 < nr:
                    face = max(j, j2)       # the face between the rings, at radius face * dr
                    blocked = face == scene.j_sleeve and i in sample_columns
                    t = 0.0 if blocked else 2.0 / (rho[i, face - 1] + rho[i, face])
                    coupling = face * dr * t / ((j + 0.5) * dr * dr ** 2)
                    a[c, i * nr + j2] = coupling
                    diag -= coupling
            a[c, c] = diag
    block = (termination_map(scene, f) - np.eye(nr)) / (scene.medium.rho0 * dx ** 2)
    for i in (0, nx - 1):
        end = slice(i * nr, (i + 1) * nr)
        a[end, end] += block
    return a


def step_factors(scene, f):
    """mu_n = sigma_n^2, each air mode's step from one column to the next."""
    return fdfd_module._termination_factors(scene, 2 * math.pi * f / scene.medium.c0) ** 2


def termination_map(scene, f):
    """M = V diag(mu) V^-1, the ghost column of an outgoing field, with V^-1
    inverted here rather than taken from the basis's weighted transpose."""
    return (scene.radial_modes * step_factors(scene, f)) @ np.linalg.inv(scene.radial_modes)


def dense_field(scene, f, pad=0):
    """The field from np.linalg.solve on the dense operator, driven by the
    discrete plane wave through the upstream termination, in the scene's
    columns (``pad`` as in ``dense_operator``)."""
    k = grid_wavenumber(2 * math.pi * f / scene.medium.c0, scene.dx)
    x_end = scene.x_center(-pad)
    inc_end = np.full(scene.nr, cmath.exp(-1j * k * x_end))
    inc_ghost = np.full(scene.nr, cmath.exp(-1j * k * (x_end - scene.dx)))
    nx = scene.nx + 2 * pad
    b = np.zeros(nx * scene.nr, dtype=complex)
    b[:scene.nr] = termination_map(scene, f) @ inc_end - inc_ghost
    b /= scene.medium.rho0 * scene.dx ** 2
    p = np.linalg.solve(dense_operator(scene, f, pad), b).reshape(nx, scene.nr)
    return p[pad:pad + scene.nx]


def lossless_index15(geometry, medium):
    """Lossless n1 = 15: the sample's half-wave resonance, near 2.2 kHz on a
    5.2 mm sample, lies inside the band."""
    z2 = GapProperties.from_geometry(geometry, medium).z2
    return MaterialSpec(n1=15.0 + 0j, z1=15.0 * z2)


def operator_matrix(scene, f):
    """The operator the residual check applies, column by column."""
    omega, mu = 2 * math.pi * f, step_factors(scene, f)
    columns = []
    for c in range(scene.nx * scene.nr):
        unit = np.zeros(scene.nx * scene.nr, dtype=complex)
        unit[c] = 1.0
        out = fdfd_module._apply_operator(scene, omega, mu, unit.reshape(scene.nx, scene.nr))
        columns.append(out.ravel())
    return np.array(columns).T


class TestStencil:
    """The five-point stencil with its terminations, as the residual check
    applies it cell by cell, and the per-scene arrays it reads."""

    @pytest.fixture(params=["empty", "sample"])
    def small_scene(self, request, sample1_geometry, sample1_material, medium):
        material = None if request.param == "empty" else sample1_material
        scene = fast_scene(material, sample1_geometry, 1500.0, medium=medium)
        assert scene.nx * scene.nr <= 250
        return scene

    @pytest.mark.parametrize("f", [700.0, 1500.0])
    def test_operator_matches_cell_by_cell_assembly(self, small_scene, f):
        """Every entry, to roundoff (the two sum a cell's terms in different orders)."""
        a = operator_matrix(small_scene, f)
        expected = dense_operator(small_scene, f)
        assert np.array_equal(a != 0, expected != 0)
        assert np.max(np.abs(a - expected)) <= 1e-14 * np.max(np.abs(expected))

    def test_only_frequency_slots_change(self, small_scene):
        """Only the diagonal and the two termination blocks depend on f."""
        nx, nr = small_scene.nx, small_scene.nr
        changed = operator_matrix(small_scene, 700.0) != operator_matrix(small_scene, 1500.0)
        allowed = np.eye(nx * nr, dtype=bool)
        for i in (0, nx - 1):
            allowed[i * nr:(i + 1) * nr, i * nr:(i + 1) * nr] = True
        assert np.all(np.diag(changed))
        assert not np.any(changed & ~allowed)

    def test_stacked_fields_apply_one_by_one(self, small_scene):
        """A stack of fields, each with its own frequency and termination,
        gives each field's own result, as the sweep's residual check needs."""
        rng = np.random.default_rng(5)
        shape = (2, small_scene.nx, small_scene.nr)
        p = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        omega = 2 * math.pi * np.array([700.0, 1500.0])
        mu = np.stack([step_factors(small_scene, f) for f in (700.0, 1500.0)])
        stacked = fdfd_module._apply_operator(small_scene, omega[:, None, None], mu, p)
        for n in range(2):
            alone = fdfd_module._apply_operator(small_scene, omega[n], mu[n], p[n])
            assert np.allclose(stacked[n], alone, rtol=1e-14, atol=0)

    def test_solve_leaves_stencil_untouched(self, small_scene):
        """Every array the scene holds, the span's basis among them, is
        read-only and identical after solves."""
        names = [name for name in SimGrid._fields
                 if isinstance(getattr(small_scene, name), np.ndarray)]
        assert {"rho", "kappa", "span_modes", "area_weights"} <= set(names)
        before = [getattr(small_scene, name).copy() for name in names]
        for f in (700.0, 1500.0):
            solve_sweep(small_scene, [f])
        for name, old in zip(names, before):
            new = getattr(small_scene, name)
            assert not new.flags.writeable, name
            assert old.tobytes() == new.tobytes(), name


class TestSweep:
    """solve_sweep against its points solved alone, bit for bit."""

    @pytest.mark.parametrize("material, geometry, build, f_max, points, nr", [
        ("sample1_material", "sample1_geometry", build_scene, 2500.0, 45, 56),
        ("lossy_sample2_material", "sample2_geometry", build_scene, 2500.0, 12, 140),
        (None, "sample1_geometry", fast_scene, 2500.0, 12, 7),
        ("sample1_material", "sample1_geometry", fast_scene, 1500.0, fdfd_module.SWEEP_BLOCK + 3, 7),
    ], ids=["sample1", "lossy_sample2", "empty_duct", "longer_than_one_block"])
    def test_points_alone(self, request, medium, material, geometry, build, f_max, points, nr):
        scene = build(material and request.getfixturevalue(material),
                      request.getfixturevalue(geometry), f_max, medium=medium)
        assert scene.nr == nr
        freqs = np.linspace(300.0, f_max, points)
        swept = solve_sweep(scene, freqs)
        assert [sd.f for sd in swept] == list(freqs)
        for sd, f in zip(swept, freqs):
            alone = solve_sweep(scene, [f])[0]
            assert (sd.transmission, sd.reflection) == (alone.transmission, alone.reflection), f

    def test_blocks_fit_the_cell_budget(self, sample1_geometry, sample1_material, medium,
                                        monkeypatch):
        """Blocks shrink so that their fields hold at most MAX_CELLS cells."""
        scene = fast_scene(sample1_material, sample1_geometry, 1500.0, medium=medium)
        freqs = np.linspace(300.0, 1500.0, 10)
        expected = solve_sweep(scene, freqs)
        blocks = []
        solve_fields = fdfd_module._solve_fields

        def recorded(scene, block):
            blocks.append(len(block))
            return solve_fields(scene, block)

        monkeypatch.setattr(fdfd_module, "MAX_CELLS", 3 * scene.nx * scene.nr + 1)
        monkeypatch.setattr(fdfd_module, "_solve_fields", recorded)
        assert solve_sweep(scene, freqs) == expected
        assert blocks == [3, 3, 3, 1]

    def test_wrong_basis_names_first_frequency(self, default_scene):
        """The residual check builds its operator from the media maps, not
        from the modal data the solve uses, so a span basis with eigenvalues
        0.1% off fails it (relative residual 3.5e-5 on sample 1 at 1 kHz),
        and the refusal names the sweep's first frequency."""
        wrong = default_scene._replace(
            span_eigenvalues=default_scene.span_eigenvalues * (1 + 1e-3))
        with pytest.raises(ResolutionError, match=r"at 1000\.0 Hz \(relative residual"):
            solve_sweep(wrong, [1000.0, 1500.0, 2000.0])

    def test_above_cutoff_warns_per_point(self, sample1_geometry, medium):
        """One warning per point above the scene's own first cutoff (2951 Hz
        on this 7-ring scene), as solving the points one by one gives."""
        scene = fast_scene(None, sample1_geometry, 3500.0, medium=medium)
        freqs = [2000.0, 3000.0, 3200.0, 3400.0]
        with warnings.catch_warnings(record=True) as swept:
            warnings.simplefilter("always")
            solve_sweep(scene, freqs)
        with warnings.catch_warnings(record=True) as alone:
            warnings.simplefilter("always")
            for f in freqs:
                solve_sweep(scene, [f])
        assert [str(w.message) for w in swept] == [str(w.message) for w in alone]
        assert [str(w.message).split(" Hz")[0] for w in swept] == ["3000.0", "3200.0", "3400.0"]
        assert {w.category for w in swept} == {UserWarning}

    @pytest.mark.parametrize("geometry", ["sample1_geometry", "sample2_geometry"])
    def test_warning_starts_at_the_scenes_first_cutoff(self, geometry, medium, request):
        """The warning starts where the scene's own mode 1 propagates,
        k0^2 > lambda_1, which is where the terminations let it propagate:
        2951 Hz on the sample-1 duct's 7 rings and 2989.8 Hz on the sample-2
        duct's 48, either side of the continuum's 2988.2 Hz."""
        scene = fast_scene(None, request.getfixturevalue(geometry), 3500.0, medium=medium)
        cutoff = math.sqrt(scene.radial_eigenvalues[1]) * medium.c0 / (2 * math.pi)
        assert abs(cutoff - 2988.2) > 1.0
        below, above = cutoff * (1 - 1e-9), cutoff * (1 + 1e-9)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            solve_sweep(scene, [below, above])
        assert [str(w.message).split(" Hz")[0] for w in caught] == [str(above)]
        for f, propagating in ((below, False), (above, True)):
            sigma = fdfd_module._termination_factors(scene, 2 * math.pi * f / medium.c0)
            assert (abs(abs(sigma[1]) - 1.0) < 1e-12) == propagating, f

    def test_refuses_frequencies_above_f_max(self, sample1_geometry, sample1_material, medium,
                                             monkeypatch):
        """A scene built for 500 Hz refuses 2500 Hz before any solve, naming
        both frequencies, and solves f_max itself."""
        scene = build_scene(sample1_material, sample1_geometry, 500.0, medium=medium)
        assert scene.f_max == 500.0
        calls = []
        solve_fields = fdfd_module._solve_fields
        monkeypatch.setattr(fdfd_module, "_solve_fields",
                            lambda *args: calls.append(args) or solve_fields(*args))
        with pytest.raises(ResolutionError, match=r"2500\.0 Hz .* 500\.0 Hz"):
            solve_sweep(scene, [400.0, 500.0, 2500.0])
        assert calls == []
        assert [sd.f for sd in solve_sweep(scene, [400.0, 500.0])] == [400.0, 500.0]

    @pytest.mark.parametrize("f", [0.0, float("nan"), float("inf"), -5.0])
    def test_refuses_non_positive_frequencies(self, sample1_geometry, medium, monkeypatch, f):
        """Zero, NaN, infinity and negative frequencies raise DomainError
        before any solve."""
        air = MaterialSpec.air(sample1_geometry, medium)
        scene = build_scene(air, sample1_geometry, 2500.0, medium=medium)
        monkeypatch.setattr(fdfd_module, "_solve_fields", None)
        with pytest.raises(DomainError, match=f"frequency must be positive, got {f}$"):
            solve_sweep(scene, [500.0, f])

    def test_empty_sweep(self, default_scene):
        assert solve_sweep(default_scene, []) == []


class TestIndependentSolve:
    """The modal solve against np.linalg.solve on the cell-by-cell operator."""

    @staticmethod
    def assert_matches_dense(scene, freqs):
        for f in freqs:
            _, _, p = next(sweep_fields(scene, [f]))[1]
            expected = dense_field(scene, f)
            assert np.linalg.norm(p - expected) <= 1e-10 * np.linalg.norm(expected), f

    @pytest.mark.parametrize("material, geometry, f_max, freqs", [
        (None, "sample1_geometry", 1500.0, (300.0, 1500.0)),
        ("sample1_material", "sample1_geometry", 2500.0, (300.0, 1300.0, 2500.0)),
        ("lossy_sample2_material", "sample2_geometry", 1500.0, (400.0, 1500.0)),
    ], ids=["empty_duct", "sample1", "lossy_sample2"])
    def test_matches_dense(self, request, medium, material, geometry, f_max, freqs):
        scene = fast_scene(material and request.getfixturevalue(material),
                           request.getfixturevalue(geometry), f_max, medium=medium)
        self.assert_matches_dense(scene, freqs)

    def test_four_air_columns(self, sample1_geometry, sample1_material, medium):
        """The field outside the sample is the outgoing continuation: with
        three more uniform-air columns before each termination (four in
        all), the dense solve gives the same field in the scene's columns."""
        scene = fast_scene(sample1_material, sample1_geometry, 1500.0, medium=medium)
        assert scene.nx == scene.n_sample_cells + 2
        for f in (300.0, 1500.0):
            _, _, p = next(sweep_fields(scene, [f]))[1]
            expected = dense_field(scene, f, pad=3)
            assert np.linalg.norm(p - expected) <= 1e-10 * np.linalg.norm(expected), f

    def test_across_sample_resonance(self, medium):
        """Lossless n1 = 15 through the half-wave resonance, where the span's
        tridiagonal chains come closest to singular: on this scene (14 x 35
        cells) the smallest singular value of a chain falls to 7e-6 of its
        largest between 2191 and 2192 Hz."""
        geometry = DuctGeometry(r1=0.012, r2=0.0175, t=0.0052)
        scene = fast_scene(lossless_index15(geometry, medium), geometry, 2500.0, medium=medium)
        assert (scene.nx, scene.nr) == (14, 35)
        self.assert_matches_dense(scene, np.linspace(2180.0, 2200.0, 41))

    def test_resonance_sweep_conserves_energy(self, sample1_geometry, medium):
        """The full sample-1 scene at n1 = 15, 1500-2500 Hz: every point passes
        the residual check and conserves energy."""
        scene = build_scene(lossless_index15(sample1_geometry, medium), sample1_geometry,
                            2500.0, medium=medium)
        for f in np.linspace(1500.0, 2500.0, 51):
            sd = solve_sweep(scene, [f])[0]
            assert abs(abs(sd.transmission) ** 2 + abs(sd.reflection) ** 2 - 1.0) <= 1e-12, f

    def test_span_basis_diagonalizes_each_block(self, sample1_geometry, sample1_material, medium):
        """W is block-diagonal over disk and annulus, W^-1 W = I, and each
        block's mode 0 is the constant with eigenvalue 0."""
        scene = fast_scene(sample1_material, sample1_geometry, 1500.0, medium=medium)
        w, w_inv, j = scene.span_modes, scene.span_modes_inv, scene.j_sleeve
        assert np.all(w[:j, j:] == 0) and np.all(w[j:, :j] == 0)
        assert np.allclose(w_inv @ w, np.eye(scene.nr), atol=1e-12)
        for block in (slice(0, j), slice(j, scene.nr)):
            assert scene.span_eigenvalues[block][0] == 0.0
            column = w[block, block][:, 0]
            assert np.all(column == column[0])


class TestDecomposition:
    def test_plane_wave_factor_precision(self, default_scene, medium):
        """sigma_0 = exp(-i k dx / 2), the half-step factor of the grid's plane
        wave, against 30-digit mpmath on the default sample-1 grid step: the
        factor and the wavenumber k its phase carries, both to 1e-14 relative
        (an acos(1 - (k0 dx)^2 / 2) form of k lost 2.4e-13 at 300 Hz)."""
        dx = default_scene.dx
        with mpmath.workdps(30):
            for f in (300.0, 2500.0):
                k0 = 2 * math.pi * f / medium.c0
                sigma_0 = fdfd_module._termination_factors(default_scene, k0)[0]
                half_phase = mpmath.asin(mpmath.mpf(k0) * mpmath.mpf(dx) / 2)
                assert abs(sigma_0 - mpmath.exp(-1j * half_phase)) <= 1e-14, f
                assert abs(-cmath.phase(sigma_0) / half_phase - 1) <= 1e-14, f


@functools.lru_cache(maxsize=None)
def scaled_sample1(s):
    """Sample 1 (n1 = 5, z1 = 15 z2) on 9 points from 300 to 2500 Hz, with
    every length times s and every frequency over s: the averaged and the
    simulated (T, R), each one's retrieved (n1, z1/z2), and the
    simulator's grid indices (nx, j_sleeve, nr)."""
    medium = MediumProperties(rho0=1.21, c0=343.0)
    geometry = DuctGeometry(r1=0.040 * s, r2=0.070 * s, t=0.0052 * s)
    z2 = GapProperties.from_geometry(geometry, medium).z2
    freqs = [f / s for f in np.linspace(300.0, 2500.0, 9).tolist()]
    averaged = forward_averaged_sweep(5.0, 15.0 * z2, geometry, medium, freqs)
    scene = build_scene(MaterialSpec(n1=5.0, z1=15.0 * z2), geometry, max(freqs), medium=medium)
    simulated = solve_sweep(scene, freqs)
    retrieved = [[(r.n1, r.z1 / z2) for r in retrieve_sweep(data, geometry, medium)]
                 for data in (averaged, simulated)]
    return averaged, simulated, retrieved, (scene.nx, scene.j_sleeve, scene.nr)


@settings(max_examples=25, deadline=None, database=None, derandomize=True)
@given(exponent=st.floats(-3.0, 1.0))
@example(exponent=-3.0)
@example(exponent=math.log10(3.7))
@example(exponent=1.0)
def test_dimensional_scaling(exponent):
    """(T, R) depend only on k0 r2, r1/r2, t/r2, n1 and z1/z2: every length
    times s = 10^exponent and every frequency over s leave them unchanged,
    the averaged ones to 1e-14 and the simulator's, on the same grid
    indices, to 2e-12, and the (n1, z1/z2) retrieved from them to 1e-12 and
    3e-10 relative.  The worst over 900 draws of the same range were
    9.0e-16, 1.8e-13, 7.9e-14 and 2.8e-11."""
    base_averaged, base_simulated, base_retrieved, base_grid = scaled_sample1(1.0)
    averaged, simulated, retrieved, grid = scaled_sample1(10.0 ** exponent)
    assert grid == base_grid
    for data, base, bound in ((averaged, base_averaged, 1e-14),
                              (simulated, base_simulated, 2e-12)):
        assert max(max(abs(a.transmission - b.transmission), abs(a.reflection - b.reflection))
                   for a, b in zip(data, base)) <= bound
    for points, base, bound in zip(retrieved, base_retrieved, (1e-12, 3e-10)):
        assert max(abs(value - reference) / abs(reference)
                   for point, reference_point in zip(points, base)
                   for value, reference in zip(point, reference_point)) <= bound


class TestEmptyAndAirScenes:
    def test_empty_duct_magnitude_ratio(self, sample1_geometry, medium):
        """Lossless uniform duct: T is the grid's own plane-wave phase over
        the sample span, exp(-i k t) with k the grid wavenumber, and R = 0,
        to roundoff, since the terminations return nothing.  This checks the
        incident-wave subtraction and the referencing to both faces."""
        scene = fast_scene(None, sample1_geometry, 2500.0, medium=medium)
        for f in (600.0, 1500.0, 2500.0):
            sd = solve_sweep(scene, [f])[0]
            k = grid_wavenumber(2 * math.pi * f / medium.c0, scene.dx)
            assert sd.f == f
            assert sd.transmission == pytest.approx(cmath.exp(-1j * k * sample1_geometry.t),
                                                    abs=1e-12), f
            assert abs(sd.reflection) < 1e-12, f

    def test_air_sample_transparent(self, sample1_geometry, medium):
        air = MaterialSpec.air(sample1_geometry, medium)
        scene = fast_scene(air, sample1_geometry, 2500.0, medium=medium)
        for f in (600.0, 2500.0):
            sd = solve_sweep(scene, [f])[0]
            assert abs(abs(sd.transmission) - 1) < 1e-3
            assert abs(sd.reflection) < 1e-3


class TestScenePhysics:
    def test_energy_conservation_lossless(self, sample1_geometry, medium, sample1_material):
        scene = fast_scene(sample1_material, sample1_geometry, 1800.0, medium=medium)
        for f in (700.0, 1800.0):
            sd = solve_sweep(scene, [f])[0]
            assert abs(sd.transmission) ** 2 + abs(sd.reflection) ** 2 == pytest.approx(
                1.0, abs=5e-3
            )

    def test_field_dump_shape(self, sample1_geometry, medium):
        scene = fast_scene(None, sample1_geometry, 800.0, medium=medium)
        x, r, p = next(sweep_fields(scene, [800.0]))[1]
        assert p.shape == (scene.nx, scene.nr)
        assert len(x) == scene.nx and len(r) == scene.nr

    def test_mode_matching_oracle_sanity(self, sample1_geometry, medium):
        """The reference oracle itself: an air disk must be transparent."""
        f = 900.0
        t_ref, r_ref = solve_bilayer_scene(
            sample1_geometry.r1, sample1_geometry.r2, sample1_geometry.t,
            medium.rho0, medium.c0, medium.rho0, medium.c0, f,
            n_modes=30,
        )
        k0t = 2 * math.pi * f / medium.c0 * sample1_geometry.t
        assert t_ref == pytest.approx(cmath.exp(-1j * k0t), abs=1e-8)
        assert abs(r_ref) < 1e-8

    def test_matches_mode_matching_reference(self, sample1_geometry, medium, sample1_material):
        """Independent continuum oracle: exact modal solution of the same
        scene agrees with the grid solution to a few parts in 1e3 (9.5e-4
        measured with 56 modes split in proportion to the region widths)."""
        f = 1000.0
        scene = build_scene(sample1_material, sample1_geometry, 2500.0, medium=medium)
        sd = solve_sweep(scene, [f])[0]
        rho_disk = sample1_material.effective_density(sample1_geometry, medium)
        kappa_disk = sample1_material.effective_bulk_modulus(sample1_geometry, medium)
        c_disk = cmath.sqrt(kappa_disk / rho_disk)
        t_ref, r_ref = solve_bilayer_scene(
            sample1_geometry.r1, sample1_geometry.r2, sample1_geometry.t,
            medium.rho0, medium.c0, rho_disk, c_disk, f,
            n_modes=56,
        )
        assert sd.transmission == pytest.approx(t_ref, abs=2e-3)
        assert sd.reflection == pytest.approx(r_ref, abs=2e-3)

    def test_oracle_is_independent_of_model_modules(self):
        """The simulator must not import the modal or retrieval machinery."""
        import tubegap.fdfd as fdfd_module

        source = open(fdfd_module.__file__).read()
        assert "tubegap.modal" not in source
        assert "tubegap.retrieval" not in source
        assert re.search(r"^\s*(import|from)\s+scipy\b", source, re.MULTILINE) is None


class TestTerminations:
    """The modal terminations: (T, R) must not depend on where they sit."""

    def test_termination_drops_out(self, default_scene, sample2_geometry, medium):
        """One air column before each termination is enough: the solved field
        equals, in the scene's columns, the dense solve with three more
        uniform-air columns on each side (measured at most 6.5e-14 on
        sample 1 and 1.8e-14 on lossy sample 2, relative)."""
        z2 = GapProperties.from_geometry(sample2_geometry, medium).z2
        lossy = MaterialSpec(n1=7.0 - 0.8j, z1=(10.0 + 3.0j) * z2)
        assert default_scene.nx == default_scene.n_sample_cells + 2
        for scene in (default_scene, fast_scene(lossy, sample2_geometry, 2500.0, medium=medium)):
            for f in (600.0, 2500.0):
                _, _, p = next(sweep_fields(scene, [f]))[1]
                expected = dense_field(scene, f, pad=3)
                assert np.linalg.norm(p - expected) <= 1e-10 * np.linalg.norm(expected), f

    def test_evanescent_return_suppressed(self, default_scene, sample1_geometry, medium):
        """Lossless energy balance at the top of the band, where the first
        evanescent mode decays slowest: the terminations sit one cell from
        the sample faces, so any return of that mode would show here."""
        sd = solve_sweep(default_scene, [2500.0])[0]
        assert abs(abs(sd.transmission) ** 2 + abs(sd.reflection) ** 2 - 1.0) <= 1e-12

    def test_exact_plane_mode(self, sample2_geometry, medium):
        """Mode 0 of the terminations is exactly the constant with lambda_0 = 0,
        so lossless sample 2 conserves energy at both band edges (the
        eigensolver's own lambda_0, about 1e-9, left 2e-11 at 300 Hz)."""
        z2 = GapProperties.from_geometry(sample2_geometry, medium).z2
        material = MaterialSpec(n1=7.0 + 0j, z1=10.0 * z2)
        scene = build_scene(material, sample2_geometry, 2500.0, medium=medium)
        assert scene.radial_eigenvalues[0] == 0.0
        assert np.all(scene.radial_modes[:, 0] == scene.radial_modes[0, 0])
        for f in (300.0, 2500.0):
            sd = solve_sweep(scene, [f])[0]
            defect = abs(abs(sd.transmission) ** 2 + abs(sd.reflection) ** 2 - 1.0)
            assert defect <= 1e-12, f

    def test_grid_refinement(self, default_scene, sample1_material, sample1_geometry, medium):
        """Richardson check: refining dx from 7.4e-4 to 4.0e-4 m moves |T|
        and |R| by at most 1.5e-3 (measured 1.48e-3, |R| at 2400 Hz)."""
        fine = build_scene(
            sample1_material, sample1_geometry, 2500.0, medium=medium,
            cells_per_wavelength=66,
        )
        assert fine.dx < 0.55 * default_scene.dx
        for f in (600.0, 1500.0, 2400.0):
            sd = solve_sweep(default_scene, [f])[0]
            sd_fine = solve_sweep(fine, [f])[0]
            assert abs(abs(sd.transmission) - abs(sd_fine.transmission)) <= 1.5e-3, f
            assert abs(abs(sd.reflection) - abs(sd_fine.reflection)) <= 1.5e-3, f
