"""Sweep-level behaviour: round trips, branch tracking, degeneracy, conventions."""

import cmath
import math

import numpy as np
import pytest

from tubegap import modal
from tubegap.errors import DomainError
from tubegap.retrieval import (
    RetrievalConfig,
    classic_retrieve,
    forward_averaged_sweep,
    retrieve_sweep,
)
from tubegap.types import DuctGeometry, GapProperties, ScatteringData


def roundtrip(n1, z1, geometry, medium, freqs, config=RetrievalConfig()):
    sweep = forward_averaged_sweep(n1, z1, geometry, medium, freqs)
    return retrieve_sweep(sweep, geometry, medium, config)


class TestAveragedRoundTrip:
    def test_air_sample(self, sample1_geometry, medium):
        z_air = medium.alpha / sample1_geometry.s1
        freqs = [300.0, 900.0, 1700.0, 2500.0]
        for r in roundtrip(1.0, z_air, sample1_geometry, medium, freqs):
            assert r.n1 == pytest.approx(1.0, abs=1e-6)
            assert r.z1 * sample1_geometry.s1 / medium.alpha == pytest.approx(1.0, abs=1e-6)

    def test_sample1_parameters(self, sample1_geometry, medium, sample1_z2):
        freqs = list(np.linspace(300.0, 2500.0, 9))
        for r in roundtrip(5.0, 15.0 * sample1_z2, sample1_geometry, medium, freqs):
            assert r.n1 == pytest.approx(5.0, rel=1e-10)
            assert r.z1 / sample1_z2 == pytest.approx(15.0, rel=1e-10)
            assert r.residual < 1e-10

    def test_random_lossy_draws(self, sample1_geometry, medium, sample1_z2):
        """Inversion reproduces random lossy parameters to 1e-8."""
        rng = np.random.default_rng(2024)
        for _ in range(25):
            n1 = rng.uniform(1.0, 10.0) * (1.0 - 1j * rng.uniform(0.0, 0.2))
            z1 = rng.uniform(0.5, 20.0) * sample1_z2
            f = float(rng.uniform(300.0, 2800.0))
            r = roundtrip(n1, z1, sample1_geometry, medium, [f])[0]
            assert abs(r.n1 - n1) / abs(n1) < 1e-8
            assert abs(r.z1 - z1) / abs(z1) < 1e-8

    def test_passivity_signs(self, sample1_geometry, medium, sample1_z2):
        """Absorbing samples keep Re(z1) >= 0 and decay-consistent Im(n1).

        Under the package convention (air transmission exp(-i k0 t)) an
        absorbing sample has Im(n1) <= 0.
        """
        rng = np.random.default_rng(77)
        for _ in range(10):
            n1 = rng.uniform(1.5, 8.0) * (1.0 - 1j * rng.uniform(0.01, 0.2))
            z1 = rng.uniform(1.0, 15.0) * sample1_z2
            f = float(rng.uniform(400.0, 2500.0))
            r = roundtrip(n1, z1, sample1_geometry, medium, [f])[0]
            assert r.z1.real >= -1e-9
            assert r.n1.imag <= 1e-9


class TestForwardAveraged:
    def test_air_is_pure_delay(self, sample1_geometry, medium):
        z_air = medium.alpha / sample1_geometry.s1
        for f in (400.0, 1300.0, 2500.0):
            d = forward_averaged_sweep(1.0, z_air, sample1_geometry, medium, [f])[0]
            k0t = 2 * math.pi * f / medium.c0 * sample1_geometry.t
            assert d.transmission == pytest.approx(cmath.exp(-1j * k0t), abs=1e-10)
            assert abs(d.reflection) < 1e-10

    def test_lossless_energy_conservation(self, sample1_geometry, medium, sample1_z2):
        for f in (350.0, 1200.0, 2500.0):
            d = forward_averaged_sweep(
                6.0, 12.0 * sample1_z2, sample1_geometry, medium, [f]
            )[0]
            assert abs(d.transmission) ** 2 + abs(d.reflection) ** 2 == pytest.approx(
                1.0, abs=1e-10
            )

    def test_degenerate_layer_matrix_rejected(self, medium):
        from tubegap.errors import DegenerateSampleError
        from tubegap.retrieval import TransferMatrix, tr_from_transfer_matrix

        alpha = medium.alpha
        m = TransferMatrix(m11=0.0, m12=1j * alpha, m21=-1j / alpha, m22=0.0)
        with pytest.raises(DegenerateSampleError):
            tr_from_transfer_matrix(m, medium)


class TestBranchTracking:
    def test_fold_crossing(self, medium):
        """Sample thick enough that arccos folds inside the sweep."""
        geometry = DuctGeometry(r1=0.04, r2=0.07, t=0.05)
        z2 = GapProperties.from_geometry(geometry, medium).z2.real
        freqs = list(np.linspace(300.0, 2500.0, 61))
        results = roundtrip(3.0, 8.0 * z2, geometry, medium, freqs)
        assert max(abs(r.n1 - 3.0) / 3.0 for r in results) < 1e-6
        branches = {(r.branch_m, r.sign_choice) for r in results}
        assert (0, 1) in branches and (1, -1) in branches

    def test_branch_continuity_bound(self, medium):
        geometry = DuctGeometry(r1=0.04, r2=0.07, t=0.05)
        z2 = GapProperties.from_geometry(geometry, medium).z2.real
        freqs = list(np.linspace(300.0, 2500.0, 61))
        results = roundtrip(3.0, 8.0 * z2, geometry, medium, freqs)
        for prev, cur in zip(results, results[1:]):
            k0 = 2 * math.pi * cur.f / medium.c0
            assert abs(cur.n1 - prev.n1) < math.pi / (k0 * geometry.t) / 2

    def test_branch_seed_override(self, sample1_geometry, medium, sample1_z2):
        sweep = forward_averaged_sweep(5.0, 15.0 * sample1_z2, sample1_geometry, medium, [800.0])
        k0t = 2 * math.pi * 800.0 / medium.c0 * sample1_geometry.t
        seeded = retrieve_sweep(
            sweep, sample1_geometry, medium, RetrievalConfig(branch_seed=1)
        )[0]
        assert seeded.branch_m == 1
        assert seeded.n1 == pytest.approx(5.0 + 2 * math.pi / k0t, rel=1e-9)


class TestDegenerateHandling:
    def test_half_wave_point_interpolated(self, medium):
        geometry = DuctGeometry(r1=0.04, r2=0.07, t=0.05)
        z2 = GapProperties.from_geometry(geometry, medium).z2.real
        n1 = 5.0
        f_degenerate = medium.c0 / (2 * n1 * geometry.t)
        freqs = sorted(set(np.linspace(300.0, 1200.0, 41)) | {f_degenerate})
        results = roundtrip(n1, 8.0 * z2, geometry, medium, list(freqs))
        flagged = [r for r in results if "interpolated" in r.flags]
        assert len(flagged) == 1
        assert flagged[0].f == pytest.approx(f_degenerate)
        assert flagged[0].n1 == pytest.approx(n1, rel=1e-4)
        clean = [r for r in results if "interpolated" not in r.flags]
        assert max(abs(r.n1 - n1) / n1 for r in clean) < 1e-8

    def test_validation_errors(self, sample1_geometry, medium):
        with pytest.raises(DomainError):
            retrieve_sweep([], sample1_geometry, medium)
        pts = [
            ScatteringData(f=500.0, transmission=0.9, reflection=0.1),
            ScatteringData(f=400.0, transmission=0.9, reflection=0.1),
        ]
        with pytest.raises(DomainError):
            retrieve_sweep(pts, sample1_geometry, medium)

    def test_all_degenerate_sweep_rejected(self, medium):
        """A sweep consisting only of half-wave resonances cannot be filled."""
        geometry = DuctGeometry(r1=0.04, r2=0.07, t=0.05)
        z2 = GapProperties.from_geometry(geometry, medium).z2.real
        n1 = 5.0
        f_degenerate = medium.c0 / (2 * n1 * geometry.t)
        sweep = forward_averaged_sweep(n1, 8.0 * z2, geometry, medium, [f_degenerate])
        with pytest.raises(DomainError, match="degenerate"):
            retrieve_sweep(sweep, geometry, medium)

    def test_energy_conserved_through_interior(self, sample1_geometry, medium, sample1_z2):
        """Lossless solve: power entering region B equals power leaving it."""
        from tubegap.retrieval import retrieve_point

        sweep = forward_averaged_sweep(
            5.0, 15.0 * sample1_z2, sample1_geometry, medium, [700.0, 2100.0]
        )
        for point in sweep:
            state, _, _, _ = retrieve_point(point, sample1_geometry, medium)
            flux_in = (
                state.p1_in * state.u1_in.conjugate()
                + state.p2_in * state.u2_in.conjugate()
            ).real
            flux_out = (
                state.p1_out * state.u1_out.conjugate()
                + state.p2_out * state.u2_out.conjugate()
            ).real
            assert flux_in == pytest.approx(flux_out, rel=1e-6)

    def test_above_cutoff_needs_override(self, sample1_geometry, medium, sample1_z2):
        sweep = forward_averaged_sweep(
            2.0, 5.0 * sample1_z2, sample1_geometry, medium, [2500.0, 3100.0]
        )
        with pytest.raises(DomainError):
            retrieve_sweep(sweep, sample1_geometry, medium)
        results = retrieve_sweep(
            sweep, sample1_geometry, medium, RetrievalConfig(allow_above_cutoff=True)
        )
        assert "above_cutoff" in results[1].flags


class TestClassicRetrieve:
    def test_air(self, medium):
        t = 0.01
        k0 = 2 * math.pi * 700.0 / medium.c0
        data = ScatteringData(f=700.0, transmission=cmath.exp(-1j * k0 * t), reflection=0.0)
        r = classic_retrieve(data, t, medium)
        assert r.n1 == pytest.approx(1.0, abs=1e-10)
        assert r.z1 == pytest.approx(medium.alpha, rel=1e-10)

    def test_dense_layer_exact(self, medium):
        """Forward single layer with n = 5, z/alpha = 3, inverted exactly."""
        n, z_ratio = 5.0, 3.0
        z = z_ratio * medium.alpha
        t = 0.004
        for f in (300.0, 1100.0, 2400.0):
            k0 = 2 * math.pi * f / medium.c0
            theta = k0 * n * t
            m11 = cmath.cos(theta)
            m12 = 1j * z * cmath.sin(theta)
            m21 = 1j * cmath.sin(theta) / z
            alpha = medium.alpha
            denom = m11 + m12 / alpha + alpha * m21 + m11
            data = ScatteringData(
                f=f, transmission=2.0 / denom,
                reflection=(m11 + m12 / alpha - alpha * m21 - m11) / denom,
            )
            r = classic_retrieve(data, t, medium)
            assert r.n1 == pytest.approx(n, rel=1e-10)
            assert r.z1 == pytest.approx(z, rel=1e-10)

    def test_evanescent_band_sign(self, medium):
        """m11 real > 1 (tunnelling): index comes out positive imaginary."""
        t = 0.01
        f = 600.0
        nu = 2.0  # n = i nu
        k0 = 2 * math.pi * f / medium.c0
        z = 2.0 * medium.alpha
        theta = k0 * (1j * nu) * t
        m11 = cmath.cos(theta)
        m12 = 1j * z * cmath.sin(theta)
        m21 = 1j * cmath.sin(theta) / z
        assert m11.real > 1
        alpha = medium.alpha
        denom = m11 + m12 / alpha + alpha * m21 + m11
        data = ScatteringData(
            f=f, transmission=2.0 / denom,
            reflection=(m11 + m12 / alpha - alpha * m21 - m11) / denom,
        )
        r = classic_retrieve(data, t, medium)
        assert r.n1.imag > 0
        assert r.n1 == pytest.approx(1j * nu, rel=1e-10)
        assert r.z1.real >= 0

    def test_matches_gap_model_when_gap_is_tiny(self, medium, monkeypatch):
        """Nearly full-duct sample (r1/r2 = 0.999): the gap pipeline
        approaches the classic inversion (through the averaged forward
        model; the gap formulation is singular at exact equality).

        The thin annulus makes the modal sums converge slowly, hence the
        raised truncation and relaxed doubling tolerance.
        """
        geometry = DuctGeometry(r1=0.999 * 0.07, r2=0.07, t=0.01)
        n1 = 4.0
        z1 = 3.0 * medium.alpha / geometry.s1    # specific ratio 3 over the disk
        monkeypatch.setattr(modal, "SUM_TOLERANCE", 0.05)
        sweep = forward_averaged_sweep(n1, z1, geometry, medium, [900.0], n_modes=1024)
        config = RetrievalConfig(n_modes=1024)
        gap_result = retrieve_sweep(sweep, geometry, medium, config)[0]
        classic = classic_retrieve(sweep[0], geometry.t, medium)
        assert classic.n1 == pytest.approx(gap_result.n1, rel=2e-2)
        # classic returns the specific impedance over the full duct section
        assert classic.z1 == pytest.approx(gap_result.z1 * geometry.s1, rel=2e-2)
