"""Sweep-level behaviour: round trips, branch tracking, degeneracy, conventions."""

import cmath
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from tubegap import modal
from tubegap import retrieval as retrieval_module
from tubegap.errors import ConvergenceError, DomainError, IllConditionedSystemError
from tubegap.retrieval import (
    MAX_PHASE_ULP,
    RetrievalConfig,
    forward_averaged_sweep,
    retrieve_sweep,
    transfer_matrix_from_tr,
)
from tubegap.types import DuctGeometry, GapProperties, ScatteringData
from test_retrieval_core import face_fields, measured_halves


def roundtrip(n1, z1, geometry, medium, freqs, config=RetrievalConfig()):
    sweep = forward_averaged_sweep(n1, z1, geometry, medium, freqs)
    return retrieve_sweep(sweep, geometry, medium, config)


class TestAveragedRoundTrip:
    def test_sample1_parameters(self, sample1_geometry, medium, sample1_z2):
        freqs = list(np.linspace(300.0, 2500.0, 9))
        for r in roundtrip(5.0, 15.0 * sample1_z2, sample1_geometry, medium, freqs):
            assert r.n1 == pytest.approx(5.0, rel=1e-10)
            assert r.z1 / sample1_z2 == pytest.approx(15.0, rel=1e-10)
            assert r.residual < 1e-10

    @pytest.mark.parametrize("n1", [-5.0 - 0.1j, -5.0, -3.0 - 1.0j, -9.0])
    def test_negative_index(self, n1, sample1_geometry, medium, sample1_z2):
        """A passive negative-index sample (Re z1 > 0, Re n1 < 0) keeps its
        sign through the round trip, to criterion 3's 1e-8, instead of coming
        back as the active n1 = 5 + 0.1i."""
        z1 = 15.0 * sample1_z2 * (1.0 - 0.05j)
        freqs = list(np.linspace(300.0, 2500.0, 45))
        for r in roundtrip(n1, z1, sample1_geometry, medium, freqs):
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


class TestRoundTripProperty:
    """The averaged round trip over drawn geometries, lossy materials and
    sweeps of 1-150 points reproduces (n1, z1) to the criterion-3 bound,
    1e-8, at every point whose condition number is at most 1e8.

    The condition number is the relative sensitivity of (n1, z1) to the
    measured half reflections, so it grows without bound near an isolated
    frequency where the retrieval turns singular, while the half systems'
    own conditioning, which the solve bounds, stays moderate.  The pinned
    example has such a point: at 6391.4 Hz, 0.92 of the first cutoff of a
    30 mm duct, the condition number is 1.5e12 and n1 comes back 2.1e-4
    off (z1 6.8e-4), and alone at 6391.5 Hz it is 6.2e9 and 2.5e-7.  The
    sweep's other 120 points, all at or below 1e8, came back within 3.1e-11."""

    @settings(max_examples=100, deadline=None, database=None, derandomize=True)
    @given(ratio=st.floats(0.3, 0.9, exclude_min=True, exclude_max=True),
           r2=st.floats(0.03, 0.1), t=st.floats(0.002, 0.010),
           n1_re=st.floats(1.2, 12.0), n1_loss=st.floats(0.002, 0.1),
           z1_ratio=st.floats(1.0, 30.0), z1_loss=st.floats(0.01, 0.3),
           start=st.floats(0.05, 0.95), span=st.floats(0.05, 1.0),
           points=st.integers(1, 150))
    @example(ratio=0.375, r2=0.03, t=0.01, n1_re=2.0, n1_loss=0.0625, z1_ratio=1.0,
             z1_loss=0.25, start=0.5, span=1.0, points=121)
    def test_averaged_round_trip(self, medium, ratio, r2, t, n1_re, n1_loss, z1_ratio,
                                 z1_loss, start, span, points):
        geometry = DuctGeometry(r1=ratio * r2, r2=r2, t=t)
        z2 = GapProperties.from_geometry(geometry, medium).z2.real
        n1, z1 = n1_re * (1.0 - 1j * n1_loss), z1_ratio * z2 * (1.0 - 1j * z1_loss)
        cutoff = modal.first_cutoff_frequency(geometry, medium)
        # Re(n1) k0 t < pi at the first point, so the automatic seed (branch 0)
        # holds; each later point takes the branch nearest its predecessor's n1
        f_lo = start * min(medium.c0 / (2.0 * n1_re * t), 0.9 * cutoff)
        f_hi = min(f_lo * (1.0 + 4.0 * span), 0.95 * cutoff)
        freqs = np.linspace(f_lo, f_hi, points).tolist() if points > 1 else [f_lo]
        for r in roundtrip(n1, z1, geometry, medium, freqs):
            if r.condition_number <= 1e8:
                assert abs(r.n1 - n1) <= 1e-8 * abs(n1), r
                assert abs(r.z1 - z1) <= 1e-8 * abs(z1), r


class TestConditionNumber:
    """``condition_number`` is the relative condition number of (n1, z1)
    with respect to the half reflections G+- = R +- T."""

    @pytest.mark.parametrize("sample, n1, z_ratio, dominant", [
        ("sample1", 5.0 - 0.2j, 15.0 - 1.0j, "z1"), ("sample2", 7.0 - 0.1j, 10.0 - 0.5j, "z1"),
        ("sample1", 5.0 - 10.0j, 15.0 - 1.0j, "n1")])
    def test_matches_central_differences(self, sample, n1, z_ratio, dominant, medium, request):
        """max over y in (n1, z1) of sum |dy/dG| |G| / |y|, against central
        differences of relative step 1e-6 in each G, which agreed to 1.1e-8
        (measured) at these well-conditioned points.  z1's sensitivity is
        the larger one unless the sample's phase has a large imaginary
        part, as in the third, very lossy sample."""
        geometry = request.getfixturevalue(f"{sample}_geometry")
        z2 = GapProperties.from_geometry(geometry, medium).z2.real
        freqs = [300.0, 900.0, 1300.0, 2100.0, 2500.0]
        sweep = forward_averaged_sweep(n1, z_ratio * z2, geometry, medium, freqs)
        h = 1e-6

        def retrieved(f, g_plus, g_minus, m):
            point = ScatteringData(f, (g_plus - g_minus) / 2, (g_plus + g_minus) / 2)
            r = retrieve_sweep([point], geometry, medium, RetrievalConfig(branch_seed=m))[0]
            return np.array([r.n1, r.z1])

        for d, r in zip(sweep, retrieve_sweep(sweep, geometry, medium)):
            g_plus, g_minus = d.reflection + d.transmission, d.reflection - d.transmission
            # central differences in log G: (dy/dG) G
            d_plus = (retrieved(d.f, g_plus * (1 + h), g_minus, r.branch_m)
                      - retrieved(d.f, g_plus * (1 - h), g_minus, r.branch_m)) / (2 * h)
            d_minus = (retrieved(d.f, g_plus, g_minus * (1 + h), r.branch_m)
                       - retrieved(d.f, g_plus, g_minus * (1 - h), r.branch_m)) / (2 * h)
            sensitivity = (abs(d_plus) + abs(d_minus)) / abs(np.array([r.n1, r.z1]))
            assert r.condition_number < 1e3
            assert r.condition_number == pytest.approx(max(sensitivity), rel=1e-6)
            assert ("n1", "z1")[sensitivity.argmax()] == dominant

    def test_pinned_singular_point_reports_its_sensitivity(self, medium):
        """The property test's pinned point at 6391.4 Hz, where (n1, z1) come
        back 2.1e-4 and 6.8e-4 off, reports a condition number of 1.5e12
        (measured), where the half systems' own was below 1e6."""
        geometry = DuctGeometry(r1=0.01125, r2=0.03, t=0.01)
        z2 = GapProperties.from_geometry(geometry, medium).z2.real
        n1, z1 = 2.0 * (1.0 - 0.0625j), z2 * (1.0 - 0.25j)
        cutoff = modal.first_cutoff_frequency(geometry, medium)
        f_lo = 0.5 * min(medium.c0 / (2.0 * 2.0 * geometry.t), 0.9 * cutoff)
        freqs = np.linspace(f_lo, min(5.0 * f_lo, 0.95 * cutoff), 121).tolist()
        results = roundtrip(n1, z1, geometry, medium, freqs)
        worst = max(results, key=lambda r: abs(r.n1 - n1))
        assert worst.f == pytest.approx(6391.4, abs=0.05)
        assert abs(worst.n1 - n1) > 1e-8 * abs(n1)
        assert worst.condition_number >= 1e11
        (point,) = [d for d in forward_averaged_sweep(n1, z1, geometry, medium, freqs)
                    if d.f == worst.f]
        _, _, own = retrieval_module._solve_halves(*measured_halves(point, geometry, medium))
        assert own < 1e6


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

    @pytest.mark.parametrize("z1", [0.0, math.nan])
    def test_zero_or_nan_impedance_rejected(self, sample1_geometry, medium, z1):
        """The sample check of ``MaterialSpec`` refuses them, where a division
        by zero or numpy's LinAlgError ended the call before."""
        with pytest.raises(DomainError, match="impedance must be finite and nonzero"):
            forward_averaged_sweep(5.0, z1, sample1_geometry, medium, [1000.0])

    def test_degenerate_layer_matrix_rejected(self, medium):
        from tubegap.errors import DegenerateSampleError
        from tubegap.retrieval import TransferMatrix, tr_from_transfer_matrix

        alpha = medium.alpha
        m = TransferMatrix(m11=0.0, m12=1j * alpha, m21=-1j / alpha, m22=0.0)
        with pytest.raises(DegenerateSampleError):
            tr_from_transfer_matrix(m, medium)


class TestBranchTracking:
    def test_fold_crossing(self, medium):
        """Sample thick enough that the tracker moves from branch 0 to
        branch 1 inside the sweep, with n1 moving less than a quarter of a
        branch step, pi / (2 k0 t), between neighbouring points."""
        geometry = DuctGeometry(r1=0.04, r2=0.07, t=0.05)
        z2 = GapProperties.from_geometry(geometry, medium).z2.real
        freqs = list(np.linspace(300.0, 2500.0, 61))
        results = roundtrip(3.0, 8.0 * z2, geometry, medium, freqs)
        assert max(abs(r.n1 - 3.0) / 3.0 for r in results) < 1e-6
        branches = {(r.branch_m, r.sign_choice) for r in results}
        assert (0, 1) in branches and (1, -1) in branches
        for prev, cur in zip(results, results[1:]):
            k0 = 2 * math.pi * cur.f / medium.c0
            assert abs(cur.n1 - prev.n1) < math.pi / (k0 * geometry.t) / 2

    def test_step_across_several_branches(self, medium):
        """Two points whose phases lie three branches apart: the second takes
        the branch nearest the first point's n1, however far it is."""
        geometry = DuctGeometry(r1=0.04, r2=0.07, t=0.05)
        z2 = GapProperties.from_geometry(geometry, medium).z2.real
        first, second = roundtrip(8.0, 8.0 * z2, geometry, medium, [300.0, 2700.0])
        assert (first.branch_m, second.branch_m) == (0, 3)
        for r in (first, second):
            assert abs(r.n1 - 8.0) <= 1e-8 * 8.0
            assert abs(r.z1 - 8.0 * z2) <= 1e-8 * 8.0 * z2

    def test_branch_seed_override(self, sample1_geometry, medium, sample1_z2):
        sweep = forward_averaged_sweep(5.0, 15.0 * sample1_z2, sample1_geometry, medium, [800.0])
        k0t = 2 * math.pi * 800.0 / medium.c0 * sample1_geometry.t
        seeded = retrieve_sweep(
            sweep, sample1_geometry, medium, RetrievalConfig(branch_seed=1)
        )[0]
        assert seeded.branch_m == 1
        assert seeded.n1 == pytest.approx(5.0 + 2 * math.pi / k0t, rel=1e-9)

    @pytest.mark.parametrize("seed", [0.5, 1.0, True])
    def test_branch_seed_must_be_an_integer(self, seed):
        """A float or a bool seed is refused, not taken as a branch number."""
        with pytest.raises(DomainError, match="branch seed must be an integer"):
            RetrievalConfig(branch_seed=seed)

    def test_integral_branch_seed_types_accepted(self, sample1_geometry, medium, sample1_z2):
        """Any integer type seeds as the int it converts to."""
        sweep = forward_averaged_sweep(5.0 - 0.1j, 15.0 * sample1_z2, sample1_geometry, medium,
                                       [500.0, 600.0])
        config = RetrievalConfig(branch_seed=np.int64(1))
        assert type(config.branch_seed) is int
        seeded = retrieve_sweep(sweep, sample1_geometry, medium, config)
        assert seeded == retrieve_sweep(sweep, sample1_geometry, medium,
                                        RetrievalConfig(branch_seed=1))
        assert [type(r.branch_m) for r in seeded] == [int, int]

    def test_one_arctangent_per_point(self, sample1_geometry, medium, sample1_z2, monkeypatch):
        """Every branch candidate of a point shares that point's one
        arctangent, seed and continuity points alike; no inverse cosine is
        taken."""
        freqs = list(np.linspace(300.0, 2500.0, 45))
        sweep = forward_averaged_sweep(5.0, 15.0 * sample1_z2, sample1_geometry, medium, freqs)
        calls, arctan = [], cmath.atan

        def counting_arctan(x):
            calls.append(x)
            return arctan(x)

        def no_acos(x):
            raise AssertionError("inverse cosine taken")

        monkeypatch.setattr(retrieval_module.cmath, "atan", counting_arctan)
        monkeypatch.setattr(retrieval_module.cmath, "acos", no_acos)
        results = retrieve_sweep(sweep, sample1_geometry, medium)
        assert len(results) == 45
        assert len(calls) == 45


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

    def test_sweep_starting_on_half_wave_point(self, medium):
        """A degenerate first point has no left neighbour: it takes its right
        neighbour's values, and the sweep stays on the seeded branch."""
        geometry = DuctGeometry(r1=0.04, r2=0.07, t=0.05)
        z2 = GapProperties.from_geometry(geometry, medium).z2.real
        n1 = 5.0
        f_degenerate = medium.c0 / (2 * n1 * geometry.t)
        freqs = [f_degenerate + 100.0 * i for i in range(5)]
        results = roundtrip(n1, 8.0 * z2, geometry, medium, freqs, RetrievalConfig(branch_seed=1))
        assert results[0].flags == ("degenerate_impedance", "interpolated")
        assert (results[0].n1, results[0].z1) == (results[1].n1, results[1].z1)
        assert all("interpolated" not in r.flags for r in results[1:])
        assert max(abs(r.n1 - n1) for r in results) < 1e-8

    def test_degenerate_index_point_interpolated(self, sample1_geometry, medium, sample1_z2):
        """A point whose phase extraction is degenerate is flagged and filled
        linearly from its neighbours, on the branch of the point before it.
        The second of three points is replaced by the data of a disk whose
        even and odd half impedances are equal, Z1+ = Z1- = Z: the
        arctangent's argument -i Z1-/z1 is then at its pole -i."""
        freqs = [800.0, 1000.0, 1400.0]
        sweep = forward_averaged_sweep(5.0 - 0.2j, (15.0 - 1.0j) * sample1_z2,
                                       sample1_geometry, medium, freqs)
        upstream, _ = modal.upstream_coupling(sample1_geometry, medium, 1000.0)
        k0 = 2.0 * math.pi * 1000.0 / medium.c0
        sample = [(1.0, 0.0, -15.0 * sample1_z2 * (1.0 - 0.1j), 0.0)] * 2  # p1 = Z u1
        gap = GapProperties.from_geometry(sample1_geometry, medium)
        rows = retrieval_module._half_rows(sample, k0, gap, sample1_geometry.t)
        u, _, _ = retrieval_module._solve_halves(rows, upstream, 1000.0)
        even, odd = sum(u[0]), sum(u[1])
        scale = medium.alpha / sample1_geometry.s2
        sweep[1] = ScatteringData(1000.0, scale * (odd - even), 1.0 - scale * (even + odd))
        lo, mid, hi = retrieve_sweep(sweep, sample1_geometry, medium)
        assert (lo.flags, mid.flags, hi.flags) == ((), ("degenerate_index", "interpolated"), ())
        w = (1000.0 - 800.0) / (1400.0 - 800.0)
        assert mid.n1 == lo.n1 + (hi.n1 - lo.n1) * w
        assert mid.z1 == lo.z1 + (hi.z1 - lo.z1) * w
        assert (mid.branch_m, mid.sign_choice) == (lo.branch_m, lo.sign_choice)

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
        freqs = [700.0, 2100.0]
        sweep = forward_averaged_sweep(5.0, 15.0 * sample1_z2, sample1_geometry, medium, freqs)
        for point in sweep:
            rows, upstream, _ = halves = measured_halves(point, sample1_geometry, medium)
            u, _, _ = retrieval_module._solve_halves(*halves)
            p, _ = retrieval_module._pressures(rows, upstream, u)
            p1_in, p2_in, p1_out, p2_out, u1_in, u2_in, u1_out, u2_out = face_fields(p, u)
            flux_in = (p1_in * u1_in.conjugate() + p2_in * u2_in.conjugate()).real
            flux_out = (p1_out * u1_out.conjugate() + p2_out * u2_out.conjugate()).real
            assert flux_in == pytest.approx(flux_out, rel=1e-6)

    def test_above_cutoff_is_flagged_not_refused(self, sample1_geometry, medium, sample1_z2):
        """The library flags a point past the first duct cutoff (2988.2 Hz)
        and retrieves it like any other; only the command line refuses."""
        sweep = forward_averaged_sweep(
            2.0, 5.0 * sample1_z2, sample1_geometry, medium, [2500.0, 3100.0]
        )
        results = retrieve_sweep(sweep, sample1_geometry, medium)
        assert [r.flags for r in results] == [(), ("above_cutoff",)]
        assert all(abs(r.n1 - 2.0) < 1e-8 for r in results)


class TestPhaseBound:
    """A layer phase whose float spacing exceeds ``MAX_PHASE_ULP`` no longer
    carries its value: the forward model and the retrieval refuse the
    sample's and the gap's phase just past the bound, naming the frequency,
    and compute both just inside it."""

    # the smallest phase past the bound: a power of two, where the spacing doubles
    EDGE = 2.0 ** (math.floor(math.log2(MAX_PHASE_ULP)) + 53)
    F = 300.0

    def test_edge_is_the_bound(self):
        assert math.ulp(self.EDGE) > MAX_PHASE_ULP >= math.ulp(math.nextafter(self.EDGE, 0.0))

    def check(self, sweep, scale):
        """``sweep()`` is refused past the bound and finite inside it."""
        if scale > 1:
            with pytest.raises(IllConditionedSystemError, match=f"rad, at {self.F} Hz$"):
                sweep()
        else:
            _, first, second, *_ = sweep()[0]  # (T, R) or (n1, z1)
            assert cmath.isfinite(first) and cmath.isfinite(second)

    @pytest.mark.parametrize("scale", [0.99, 1.01])
    @pytest.mark.parametrize("layer", ["sample", "gap"])
    def test_forward(self, medium, sample1_z2, layer, scale):
        k0 = 2.0 * math.pi * self.F / medium.c0
        phase = scale * self.EDGE
        t, n1 = (0.0052, phase / (k0 * 0.0052)) if layer == "sample" else (phase / k0, 0.5)
        geometry = DuctGeometry(r1=0.040, r2=0.070, t=t)
        self.check(lambda: forward_averaged_sweep(n1, 15.0 * sample1_z2, geometry, medium,
                                                  [self.F]), scale)

    @pytest.mark.parametrize("scale", [0.99, 1.01])
    @pytest.mark.parametrize("layer", ["sample", "gap"])
    def test_retrieval(self, sample1_geometry, medium, sample1_z2, layer, scale):
        """The sample's phase theta = phase + 2 pi m through the branch seed m."""
        k0 = 2.0 * math.pi * self.F / medium.c0
        phase = scale * self.EDGE
        if layer == "sample":
            t, seed = 0.0052, round(phase / (2.0 * math.pi))
        else:
            t, seed = phase / k0, None
        geometry = DuctGeometry(r1=0.040, r2=0.070, t=t)
        data = forward_averaged_sweep(5.0, 15.0 * sample1_z2, sample1_geometry, medium, [self.F])
        self.check(lambda: retrieve_sweep(data, geometry, medium,
                                          RetrievalConfig(branch_seed=seed)), scale)


class TestLongSweep:
    """A 150-point sweep: every point's couplings, half systems and results
    are that point's own."""

    FREQS = np.linspace(300.0, 2500.0, 150).tolist()

    def test_long_sweep_equals_its_points(self, sample1_geometry, medium, sample1_z2):
        n1, z1 = 5.0 - 0.2j, (15.0 - 1.0j) * sample1_z2
        sweep = forward_averaged_sweep(n1, z1, sample1_geometry, medium, self.FREQS)
        singles = [forward_averaged_sweep(n1, z1, sample1_geometry, medium, [f])[0]
                   for f in self.FREQS]
        as_bytes = lambda data: np.array([(d.transmission, d.reflection) for d in data]).tobytes()
        assert as_bytes(sweep) == as_bytes(singles)
        results = retrieve_sweep(sweep, sample1_geometry, medium)
        single_results = [retrieve_sweep([point], sample1_geometry, medium)[0]
                          for point in sweep]
        fields = lambda rs: np.array([(r.n1, r.z1, r.condition_number, r.residual)
                                      for r in rs]).tobytes()
        assert fields(results) == fields(single_results)
        assert [(r.branch_m, r.sign_choice, r.flags) for r in results] == [
            (r.branch_m, r.sign_choice, r.flags) for r in single_results]

    def test_one_coupling_per_point(self, sample1_geometry, medium, sample1_z2, monkeypatch):
        """One coupling sum and one half solve per point, forward and
        inverse, in the sweep's order."""
        coupling, solve = retrieval_module.upstream_coupling, retrieval_module._solve_halves
        couplings, solves = [], []

        def counting_coupling(geometry, medium, f, n_modes):
            couplings.append(f)
            return coupling(geometry, medium, f, n_modes)

        def counting_solve(rows, upstream, f):
            solves.append(f)
            return solve(rows, upstream, f)

        monkeypatch.setattr(retrieval_module, "upstream_coupling", counting_coupling)
        monkeypatch.setattr(retrieval_module, "_solve_halves", counting_solve)
        sweep = forward_averaged_sweep(5.0, 15.0 * sample1_z2, sample1_geometry, medium,
                                       self.FREQS)
        assert couplings == solves == self.FREQS
        retrieve_sweep(sweep, sample1_geometry, medium)
        assert couplings == solves == 2 * self.FREQS

    def test_convergence_error_names_first_point_above(self, sample1_geometry, medium,
                                                       sample1_z2, monkeypatch):
        """The bound sits between two points' rel_change, so the first point
        above it lies inside the sweep; the couplings themselves, the
        forward sweep and the retrieval all name it."""
        sweep = forward_averaged_sweep(5.0, 15.0 * sample1_z2, sample1_geometry, medium,
                                       self.FREQS)
        rel_change = np.array([modal.upstream_coupling(sample1_geometry, medium, f)[1]
                               for f in self.FREQS])
        # rel_change grows with frequency up to about 2000 Hz here
        limit = 0.5 * (rel_change[69] + rel_change[70])
        first = int(np.flatnonzero(rel_change > limit)[0])
        assert first == 70
        assert (rel_change[:first] <= limit).all()
        monkeypatch.setattr(modal, "SUM_TOLERANCE", limit)
        match = f"at {self.FREQS[first]} Hz$"
        with pytest.raises(ConvergenceError, match=match):
            for f in self.FREQS:
                modal.upstream_coupling(sample1_geometry, medium, f)
        with pytest.raises(ConvergenceError, match=match):
            forward_averaged_sweep(5.0, 15.0 * sample1_z2, sample1_geometry, medium, self.FREQS)
        with pytest.raises(ConvergenceError, match=match):
            retrieve_sweep(sweep, sample1_geometry, medium)


class TestNearlyFullDuct:
    def test_matches_gap_model_when_gap_is_tiny(self, medium, monkeypatch):
        """Nearly full-duct sample (r1/r2 = 0.999): the gap pipeline
        approaches the classic full-duct inversion of the layer matrix,
        n = arccos(m11) / (k0 t) and z = sqrt(m12 / m21) (through the
        averaged forward model; the gap formulation is singular at exact
        equality).

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
        matrix = transfer_matrix_from_tr(sweep[0], medium)
        k0 = 2.0 * math.pi * sweep[0].f / medium.c0
        assert cmath.acos(matrix.m11) / (k0 * geometry.t) == pytest.approx(gap_result.n1,
                                                                           rel=2e-2)
        # the layer matrix gives the specific impedance over the full duct section
        assert cmath.sqrt(matrix.m12 / matrix.m21) == pytest.approx(
            gap_result.z1 * geometry.s1, rel=2e-2)
