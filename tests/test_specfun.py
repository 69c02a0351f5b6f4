"""The J1 root table behind the duct eigenmodes.

``tubegap.modal`` takes J0 and J1 from ``scipy.special``.  Its root
table is the plane wave (x_0 = 0) followed by the positive roots of J1: a
constant copy of ``jn_zeros`` up to 127 roots, ``jn_zeros`` itself beyond,
cached per truncation.  These checks guard that table and the mode-count
validation in front of it; the roots are compared with mpmath in
``tests/test_modal.py``.
"""

import numpy as np
import pytest
from scipy.special import j1 as bessel_j1, jn_zeros

from tubegap.errors import DomainError
from tubegap.modal import _j1_roots, duct_wavenumbers
from tubegap.types import DuctGeometry


class TestRoots:
    def test_plane_wave_only(self):
        assert _j1_roots(1).tolist() == [0.0]

    def test_first_roots(self):
        expected = [0.0, 3.8317059702, 7.0155866698, 10.1734681351]
        assert np.allclose(_j1_roots(4), expected, atol=1e-9)

    def test_two_entries(self):
        assert _j1_roots(2)[1] == pytest.approx(3.8317059702, abs=1e-9)

    def test_residual_below_tolerance(self):
        for x in _j1_roots(21)[1:]:
            assert abs(bessel_j1(x)) < 1e-12

    def test_ordering_and_spacing(self):
        roots = _j1_roots(25)
        assert roots[0] == 0.0
        assert np.all(np.diff(roots) > 2.0)

    def test_interlacing(self):
        """Each positive root carries exactly one sign change, and the arches
        between consecutive roots have constant, alternating sign."""
        roots = _j1_roots(12)
        for root in roots[1:]:
            signs = np.sign(bessel_j1(np.linspace(root - 1.0, root + 1.0, 400)))
            assert np.count_nonzero(np.diff(signs) != 0) == 1
        for n, (lo, hi) in enumerate(zip(roots[1:], roots[2:]), start=1):
            signs = set(np.sign(bessel_j1(np.linspace(lo + 0.05, hi - 0.05, 200))))
            assert signs == {(-1.0) ** n}

    def test_table_is_jn_zeros(self):
        """The constant table and the jn_zeros fallback beyond it equal
        jn_zeros bit for bit, for every truncation up to 200 modes."""
        for n in range(1, 201):
            positive = jn_zeros(1, n - 1) if n > 1 else np.zeros(0)
            expected = np.concatenate(([0.0], positive))
            assert _j1_roots(n).tobytes() == expected.tobytes(), n

    def test_deterministic(self):
        """A fresh evaluation equals the cached table, bit for bit."""
        assert np.array_equal(_j1_roots.__wrapped__(9), _j1_roots(9))

    @pytest.mark.parametrize("bad", [0, -3, 2.5])
    def test_count_validation(self, bad):
        with pytest.raises(DomainError):
            duct_wavenumbers(DuctGeometry(r1=0.040, r2=0.070, t=0.0052), bad)
