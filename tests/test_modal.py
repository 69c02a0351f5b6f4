"""Duct eigenmodes, their J1 root table, radial integrals, and the
radiation-coupling matrices."""

import math
from functools import lru_cache

import mpmath
import numpy as np
import pytest
from scipy.special import jn_zeros

from tubegap import modal
from tubegap.errors import ConvergenceError, DomainError
from tubegap.modal import (
    DEFAULT_MODE_COUNT,
    PATCH_CACHE_SIZE,
    _duct_roots,
    _modal_basis,
    coupling_coefficients,
    duct_wavenumbers,
    first_cutoff_frequency,
    radial_integral,
    upstream_coupling,
)
from tubegap.types import DuctGeometry

REFERENCE_DPS = 30


@lru_cache(maxsize=None)
def mp_j1_roots(count):
    """The first ``count`` positive roots of J1 from mpmath, at 30 digits."""
    with mpmath.workdps(REFERENCE_DPS):
        return tuple(mpmath.besseljzero(1, n) for n in range(1, count + 1))


@lru_cache(maxsize=None)
def mp_j1_roots_past_table(last):
    """Roots 128 to ``last`` of mpmath's J1 at 30 digits: one Newton step
    from McMahon's expansion to its 1/a^7 term, which starts within 1e-22
    of each root.  Checked against ``mpmath.besseljzero`` at both ends
    only: it takes about 10 ms a root, some 10 s for all of them."""
    with mpmath.workdps(REFERENCE_DPS):
        roots = []
        for m in range(128, last + 1):
            b = 1 / (8 * (m + mpmath.mpf(1) / 4) * mpmath.pi)
            x = 1 / (8 * b) - 3 * b + 12 * b ** 3 - mpmath.mpf(113184) / 15 * b ** 5 \
                + mpmath.mpf(374632128) / 105 * b ** 7
            j1 = mpmath.besselj(1, x)
            roots.append(x - j1 / (mpmath.besselj(0, x) - j1 / x))
        for m in (128, last):
            assert abs(roots[m - 128] - mpmath.besseljzero(1, m)) < mpmath.mpf(10) ** -25
        return tuple(roots)


def bits(upstream, rel_change):
    """The bits of an upstream coupling matrix and its ``rel_change``."""
    return [float.hex(v) for row in upstream for z in row for v in (z.real, z.imag)] + \
        [float.hex(rel_change)]


def per_point_upstream(geometry, medium, f, n_modes):
    """``upstream_coupling`` as one comprehension over the modes with a
    per-term branch on k_n > k0 and the patch weights computed per call,
    from the same squared patch integrals; valid off the cutoffs, with no
    convergence check."""
    r1, r2 = geometry.r1, geometry.r2
    basis = duct_wavenumbers(geometry, n_modes)
    k, squares = basis.wavenumbers, basis.squares
    k0 = 2.0 * math.pi * f / medium.c0
    terms = [-q / math.sqrt((kn - k0) * (kn + k0)) if kn > k0
             else 1j * q / math.sqrt((k0 - kn) * (k0 + kn)) for q, kn in zip(squares, k[1:])]
    half = max(n_modes // 2 - 1, 0)
    change = sum(terms[half:])
    total = sum(terms[:half]) + change
    ring_sq = r2 * r2 - r1 * r1
    w_disk, w_cross, w_ring = 1.0 / r1 ** 4, 1.0 / (r1 * r1 * ring_sq), 1.0 / ring_sq ** 2
    plane = 0.25j / k0
    disk, cross, ring = plane + w_disk * total, plane - w_cross * total, plane + w_ring * total
    moved = abs(change)
    rel_change = max(w_disk * moved / abs(disk), w_cross * moved / abs(cross),
                     w_ring * moved / abs(ring))
    scale = 4j * medium.rho0 * (2.0 * math.pi * f) / (math.pi * r2 * r2)
    disk, cross, ring = scale * disk, scale * cross, scale * ring
    return ((disk, cross), (cross, ring)), rel_change


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
    def test_first_cutoff(self, sample1_geometry, medium):
        assert first_cutoff_frequency(sample1_geometry, medium) == pytest.approx(2988.0, abs=1.0)

    def test_roots_match_mpmath(self, sample1_geometry):
        """k_n r2 are the J1 roots to 1e-13 relative over a 128-mode basis."""
        basis = duct_wavenumbers(sample1_geometry, 128)
        assert basis.k[0] == 0.0
        ref = np.array([float(x) for x in mp_j1_roots(127)])
        roots = basis.k[1:] * sample1_geometry.r2
        assert np.max(np.abs(roots - ref) / ref) < 1e-13


class TestJ1Roots:
    """The roots behind the duct eigenmodes: the plane wave (x_0 = 0)
    followed by the positive roots of J1, a constant copy of ``jn_zeros`` up
    to 127 roots and a search from McMahon's expansion beyond; and the
    mode-count validation in front of them."""

    def test_table_is_jn_zeros(self):
        """The constant table equals jn_zeros bit for bit, for every
        truncation it serves (up to 128 modes)."""
        for n in range(1, 129):
            positive = jn_zeros(1, n - 1) if n > 1 else np.zeros(0)
            expected = np.concatenate(([0.0], positive))
            assert np.array(_duct_roots(n)[0]).tobytes() == expected.tobytes(), n

    def test_searched_roots_within_an_ulp_of_mpmath(self):
        """Every root past the table, 128 to 1100, is within 1 ulp of the
        root of mpmath's J1 at 30 digits."""
        roots = _duct_roots(1101)[0][128:]
        reference = mp_j1_roots_past_table(1100)
        assert len(roots) == len(reference) == 973
        for m, (x, ref) in enumerate(zip(roots, reference), 128):
            assert abs(mpmath.mpf(x) - ref) <= math.ulp(x), m

    def test_roots_searched_once_per_truncation(self, medium, monkeypatch):
        """Two fresh geometries at 200 modes share one search, for the 72
        roots past the constant table."""
        calls = []
        search = modal._search_j1_roots

        def counting_search(first, last):
            calls.append((first, last))
            return search(first, last)

        monkeypatch.setattr(modal, "_search_j1_roots", counting_search)
        _duct_roots.cache_clear()
        for r2 in (0.0731, 0.0737):
            geometry = DuctGeometry(r1=0.031, r2=r2, t=0.0052)
            coupling_coefficients(geometry, medium, 700.0, n_modes=200)
        assert calls == [(128, 199)]

    @pytest.mark.parametrize("bad", [0, -3, 2.5])
    def test_count_validation(self, bad):
        with pytest.raises(DomainError):
            duct_wavenumbers(DuctGeometry(r1=0.040, r2=0.070, t=0.0052), bad)


class TestRadialIntegral:
    def test_plane_mode_closed_form(self):
        assert radial_integral(0.0, 0.0, 0.04) == pytest.approx(0.04 ** 2 / 2, rel=1e-15)

    def test_vanishes_at_mode_root(self, sample1_geometry):
        basis = duct_wavenumbers(sample1_geometry, 2)
        b = sample1_geometry.r2
        assert abs(radial_integral(basis.k[1], 0.0, b)) < 1e-10 * b * b

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
        with pytest.raises(ConvergenceError, match="at 1000.0 Hz$"):
            coupling_coefficients(sample1_geometry, medium, 1000.0, n_modes=64)

    def test_frequency_validation(self, sample1_geometry, medium):
        for bad in (-5.0, math.nan, 0.0, math.inf):
            with pytest.raises(DomainError, match=f"got {bad}$"):
                coupling_coefficients(sample1_geometry, medium, bad)

    def test_cutoff_names_frequency_and_mode(self, sample1_geometry, medium):
        basis = duct_wavenumbers(sample1_geometry, 2)
        on_cutoff = float(basis.k[1] * medium.c0 / (2.0 * math.pi))
        with pytest.raises(DomainError, match=f"{on_cutoff} Hz .* duct mode 1$"):
            coupling_coefficients(sample1_geometry, medium, on_cutoff)

    # sample 1 at the default truncation and at 22 modes, and r1/r2 = 0.9 at
    # 128 modes; 2950 Hz lies just below the first duct cutoff (2988.2 Hz),
    # where the evanescent terms decay slowest, and 4 and 6 kHz above the
    # first and the second cutoff
    @pytest.mark.parametrize("r1, n_modes", [(0.040, 64), (0.040, 22), (0.063, 128)])
    @pytest.mark.parametrize("f", [300.0, 1300.0, 2500.0, 2950.0, 4000.0, 6000.0])
    def test_matches_mpmath_modal_sums(self, medium, monkeypatch, r1, n_modes, f):
        """All four coefficients agree with a 30-digit evaluation of the same
        truncated sums to 1e-13 relative (measured worst 6.1e-15, at 2950 Hz,
        where rounding k0 costs as much)."""
        monkeypatch.setattr(modal, "SUM_TOLERANCE", math.inf)
        geom = DuctGeometry(r1=r1, r2=0.070, t=0.0052)
        coup = coupling_coefficients(geom, medium, f, n_modes=n_modes)
        ref = mp_coupling_upstream(geom, medium, f, n_modes)
        assert np.max(np.abs(coup.upstream - ref) / np.abs(ref)) < 1e-13

    def test_patch_cache_bounded_and_transparent(self, medium, monkeypatch):
        """A warm geometry cache gives bit-identical coefficients, and it
        keeps at most PATCH_CACHE_SIZE geometries however many are used; the
        roots keep at most PATCH_CACHE_SIZE truncations."""
        geoms = [DuctGeometry(r1=0.03 + 1e-4 * i, r2=0.07, t=0.005)
                 for i in range(PATCH_CACHE_SIZE + 3)]
        monkeypatch.setattr(modal, "SUM_TOLERANCE", 1.0)
        _modal_basis.cache_clear()
        cold = coupling_coefficients(geoms[0], medium, 900.0, n_modes=4)
        warm = coupling_coefficients(geoms[0], medium, 900.0, n_modes=4)
        assert np.array_equal(cold.upstream, warm.upstream)
        for geom in geoms:
            coupling_coefficients(geom, medium, 900.0, n_modes=4)
        assert _modal_basis.cache_info().currsize == PATCH_CACHE_SIZE
        _duct_roots.cache_clear()
        for n_modes in range(1, PATCH_CACHE_SIZE + 4):
            duct_wavenumbers(geoms[0], n_modes)
        assert _duct_roots.cache_info().currsize == PATCH_CACHE_SIZE

    def test_patch_cache_ignores_thickness(self, medium):
        """The record depends on the radii and the truncation only, so a
        second thickness at the same radii is a cache hit, and
        ``duct_wavenumbers`` returns the record the couplings use."""
        _modal_basis.cache_clear()
        records = []
        for t in (0.005, 0.008):
            geometry = DuctGeometry(r1=0.04, r2=0.07, t=t)
            coupling_coefficients(geometry, medium, 900.0)
            records.append(duct_wavenumbers(geometry, DEFAULT_MODE_COUNT))
        assert records[0] is records[1]
        assert _modal_basis.cache_info().misses == 1


class TestCouplingIdentity:
    """The per-geometry record's precomputed weights and squares, the
    negation of the evanescent terms and the split of the modal sum at the
    last propagating mode give the couplings of the per-point expression
    bit for bit."""

    @pytest.mark.parametrize("n_modes", [2, 64, 200])
    def test_equals_per_point_expression(self, medium, monkeypatch, n_modes):
        """Below the first duct cutoff, between the first two and above the
        second, for three radius ratios; 200 modes is past the root table."""
        monkeypatch.setattr(modal, "SUM_TOLERANCE", math.inf)
        for r1 in (0.021, 0.040, 0.066):
            geometry = DuctGeometry(r1=r1, r2=0.070, t=0.0052)
            cutoffs = [x * medium.c0 / (2.0 * math.pi * geometry.r2)
                       for x in _duct_roots(3)[0][1:]]
            freqs = [50.0, 1234.5, 0.999 * cutoffs[0], 1.001 * cutoffs[0],
                     0.5 * (cutoffs[0] + cutoffs[1]), 0.999 * cutoffs[1], 1.001 * cutoffs[1],
                     9000.0, 25000.0]
            for f in freqs:
                assert bits(*upstream_coupling(geometry, medium, f, n_modes)) == \
                    bits(*per_point_upstream(geometry, medium, f, n_modes)), (r1, f)

