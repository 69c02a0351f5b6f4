"""The package's own J0 and J1 (``tubegap.modal.bessel_j0``/``bessel_j1``)
against scipy.special and mpmath, and the number of Bessel evaluations a
fresh geometry costs."""

import math

import mpmath
import numpy as np
import pytest
from scipy.special import j0 as scipy_j0, j1 as scipy_j1

from tubegap import modal
from tubegap.modal import (
    _J1_ROOT_TABLE,
    _duct_roots,
    _modal_basis,
    bessel_j0,
    bessel_j1,
    coupling_coefficients,
)
from tubegap.types import DuctGeometry


class TestAccuracy:
    def test_against_scipy_on_a_dense_grid(self):
        x = np.linspace(0.0, 900.0, 200001)
        assert np.max(np.abs(np.array(bessel_j0(x.tolist())) - scipy_j0(x))) <= 2e-15
        assert np.max(np.abs(np.array(bessel_j1(x.tolist())) - scipy_j1(x))) <= 2e-15

    @pytest.mark.parametrize("ratio", [0.3, 0.57, 0.95, 0.99])
    def test_at_the_patch_arguments(self, ratio):
        """The 63 arguments k_n r1 of a 64-mode geometry, formed as
        ``_modal_basis`` forms them."""
        r2 = 0.070
        r1 = ratio * r2
        x = [root / r2 * r1 for root in _duct_roots(64)[0][1:]]
        assert np.max(np.abs(np.array(bessel_j1(x)) - scipy_j1(x))) <= 1e-15

    def test_wall_values_at_the_root_table(self):
        wall = np.array(bessel_j0(_J1_ROOT_TABLE))
        assert np.max(np.abs(wall - scipy_j0(_J1_ROOT_TABLE))) <= 1e-15

    def test_against_mpmath_across_the_cutoff(self):
        """Both sides of the switch from Bessel's integral to Hankel's
        expansion, and a few points far from it."""
        cut = modal._HANKEL_FROM
        x = [0.0, 1e-8, 0.5, 2.404825557695773, 3.8317059702075125, 11.0,
             cut - 0.5, math.nextafter(cut, 0.0), cut, cut + 1e-6, cut + 0.5,
             60.0, 333.3, 899.0]
        for nu, ours in ((0, bessel_j0), (1, bessel_j1)):
            with mpmath.workdps(30):
                ref = np.array([float(mpmath.besselj(nu, mpmath.mpf(v))) for v in x])
            assert np.max(np.abs(np.array(ours(x)) - ref)) <= 1e-15, nu


class TestBands:
    """Each switch point of the kernel, on both sides, and each band's node
    or term count against its own rule, so that an edit of the band tables
    cannot loosen the accuracy silently."""

    @pytest.mark.parametrize("start", modal._BAND_EDGES)
    def test_against_mpmath_at_each_switch(self, start):
        x = [start, math.nextafter(start, 0.0)]
        for nu, ours in ((0, bessel_j0), (1, bessel_j1)):
            with mpmath.workdps(30):
                ref = np.array([float(mpmath.besselj(nu, mpmath.mpf(v))) for v in x])
            assert np.max(np.abs(np.array(ours(x)) - ref)) <= 1e-15, nu

    def test_midpoint_node_counts(self):
        """Below x = 20 each band has the fewest nodes N whose aliasing term
        |J_4N(x)| is below 1e-17 at the band's end."""
        ends = [end for end in modal._BAND_EDGES if end <= modal._HANKEL_FROM]
        assert ends[-1] == modal._HANKEL_FROM
        with mpmath.workdps(30):
            for end, nodes in zip(ends, modal._BAND_SIZES):
                assert abs(mpmath.besselj(4 * nodes, end)) < 1e-17, end
                assert abs(mpmath.besselj(4 * nodes - 4, end)) >= 1e-17, end

    def test_hankel_term_counts(self):
        """From x = 20 on each band keeps the fewest even number of terms T
        whose first omitted term, sqrt(2/(pi x)) |a_T(nu)| / x^T, is below
        1e-17 at the band's start for both orders."""

        def omitted(terms, x):
            with mpmath.workdps(30):
                x = mpmath.mpf(x)
                return max(abs(mpmath.fprod((4 * nu * nu - (2 * j - 1) ** 2) / (8 * mpmath.mpf(j))
                                            for j in range(1, terms + 1)))
                           * mpmath.sqrt(2 / (mpmath.pi * x)) / x ** terms for nu in (0, 1))

        starts = (0.0,) + modal._BAND_EDGES
        bands = [(start, terms) for start, terms in zip(starts, modal._BAND_SIZES)
                 if start >= modal._HANKEL_FROM]
        assert bands[0][0] == modal._HANKEL_FROM and len(bands) == 6
        for start, terms in bands:
            assert terms % 2 == 0 and omitted(terms, start) < 1e-17, start
            assert omitted(terms - 2, start) >= 1e-17, start


class TestShapes:
    @pytest.mark.parametrize("fn", [bessel_j0, bessel_j1])
    def test_scalar_and_0d_inputs_give_scalars(self, fn):
        """Each element, a float, an int or a numpy scalar, gives one float,
        the same whatever else the call holds."""
        values = [3.0, 30.0, np.float64(3.0), np.float64(30.0), 7]
        out = fn(values)
        assert isinstance(out, list) and len(out) == len(values)
        for value, element in zip(values, out):
            assert isinstance(element, float)
            assert element == fn([float(value)])[0]

    @pytest.mark.parametrize("fn, ref", [(bessel_j0, scipy_j0), (bessel_j1, scipy_j1)])
    def test_unsorted_and_shaped_inputs(self, fn, ref):
        """Unsorted arguments on both sides of the cutoff, from any iterable,
        and negative ones (J0 even, J1 odd) give each element its own value."""
        x = [40.0, 0.0, 3.0, -30.0, 700.0, -2.5]
        for given in (x, tuple(x), iter(x), np.array(x)):
            assert np.max(np.abs(np.array(fn(given)) - ref(x))) <= 1e-15
        assert fn([]) == []


class TestCallCounts:
    """Only the sample radius makes a Bessel evaluation depend on the
    geometry: one J1 call per fresh geometry, and J0 at the duct roots once
    per truncation."""

    @pytest.fixture
    def calls(self, monkeypatch):
        log = []

        def counted(name, fn):
            def wrapper(x):
                log.append((name, np.size(x)))
                return fn(x)
            return wrapper

        monkeypatch.setattr(modal, "bessel_j0", counted("j0", modal.bessel_j0))
        monkeypatch.setattr(modal, "bessel_j1", counted("j1", modal.bessel_j1))
        return log

    def test_one_j1_call_per_fresh_geometry(self, medium, calls):
        coupling_coefficients(DuctGeometry(r1=0.031, r2=0.07, t=0.005), medium, 900.0)
        calls.clear()
        _modal_basis.cache_clear()
        geometry = DuctGeometry(r1=0.0412, r2=0.07, t=0.005)
        for f in (500.0, 900.0, 1300.0):
            coupling_coefficients(geometry, medium, f)
        assert calls == [("j1", 63)]

    def test_wall_values_once_per_truncation(self, medium, calls):
        _duct_roots.cache_clear()
        _modal_basis.cache_clear()
        for r1 in (0.040, 0.045):
            coupling_coefficients(DuctGeometry(r1=r1, r2=0.07, t=0.005), medium, 900.0,
                                  n_modes=48)
        assert calls == [("j0", 48), ("j1", 47), ("j1", 47)]
