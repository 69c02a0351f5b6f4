"""Shared container types and their invariants."""

import pytest

from tubegap.errors import DomainError
from tubegap.types import DuctGeometry, GapProperties, MaterialSpec, MediumProperties, ScatteringData


def test_geometry_areas_partition(sample1_geometry):
    g = sample1_geometry
    assert g.s1 + g.s3 == pytest.approx(g.s2, rel=1e-15)


def test_geometry_rejects_full_duct():
    with pytest.raises(DomainError):
        DuctGeometry(r1=0.07, r2=0.07, t=0.01)
    with pytest.raises(DomainError):
        DuctGeometry(r1=0.08, r2=0.07, t=0.01)
    with pytest.raises(DomainError):
        DuctGeometry(r1=0.04, r2=0.07, t=0.0)


def test_medium_alpha(medium):
    assert medium.alpha == pytest.approx(1.21 * 343.0)
    with pytest.raises(DomainError):
        MediumProperties(rho0=-1.0)


def test_gap_properties(sample1_geometry, medium):
    gap = GapProperties.from_geometry(sample1_geometry, medium)
    assert gap.n2 == 1.0
    assert gap.z2.imag == 0.0
    assert gap.z2.real == pytest.approx(medium.alpha / sample1_geometry.s3)


def test_air_material_maps_to_background(sample1_geometry, medium):
    air = MaterialSpec.air(sample1_geometry, medium)
    assert air.effective_density(sample1_geometry, medium) == pytest.approx(medium.rho0)
    assert air.effective_bulk_modulus(sample1_geometry, medium) == pytest.approx(
        medium.rho0 * medium.c0 ** 2
    )


@pytest.mark.parametrize("n1, z1", [
    (0.0, 1e5), (0j, 1e5), (5.0, 0.0), (complex("nan"), 1e5), (5.0, complex(1e5, float("inf"))),
])
def test_material_rejects_zero_or_non_finite(n1, z1):
    with pytest.raises(DomainError):
        MaterialSpec(n1=n1, z1=z1)


def test_material_accepts_imaginary_index():
    assert MaterialSpec(n1=2j, z1=1e5).n1 == 2j


def test_scattering_data_validation():
    with pytest.raises(DomainError):
        ScatteringData(f=-10.0, transmission=1.0, reflection=0.0)
    with pytest.raises(DomainError):
        ScatteringData(f=100.0, transmission=complex("inf"), reflection=0.0)
