"""Shared container types and their invariants."""

import math

import pytest

from tubegap.errors import DomainError
from tubegap.fdfd import SimGrid
from tubegap.modal import CouplingCoefficients, ModalBasis
from tubegap.retrieval import FieldState, RetrievalConfig, RetrievedProperties, TransferMatrix
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


def test_geometry_rejects_infinite_duct():
    """The modal sums would divide by an infinite duct's zero wavenumbers,
    and its first cutoff would read 0 Hz."""
    with pytest.raises(DomainError, match="duct radius must be finite, got inf"):
        DuctGeometry(r1=0.04, r2=math.inf, t=0.005)


def test_medium_alpha(medium):
    assert medium.alpha == pytest.approx(1.21 * 343.0)
    with pytest.raises(DomainError):
        MediumProperties(rho0=-1.0)


def test_gap_properties(sample1_geometry, medium):
    gap = GapProperties.from_geometry(sample1_geometry, medium)
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


# each record, two valid values of each of its fields in order, and for a
# validated record one bad field value and the start of its refusal
RECORDS = [
    (MediumProperties, {"rho0": (1.21, 1.2), "c0": (343.0, 340.0)},
     ({"c0": -1.0}, "sound speed must be positive")),
    (DuctGeometry, {"r1": (0.04, 0.03), "r2": (0.07, 0.08), "t": (0.005, 0.006)},
     ({"t": 0.0}, "thickness must be positive")),
    (GapProperties, {"z2": (3e4 + 0j, 2e4 + 0j)}, None),
    (MaterialSpec, {"n1": (5 - 0.1j, 4 + 0j), "z1": (1e5 + 0j, 2e5 - 1j)},
     ({"n1": 0j}, "sample refractive index must be finite")),
    (ScatteringData, {"f": (500.0, 600.0), "transmission": (0.5 + 0.1j, 0.4j),
                      "reflection": (0.2j, -0.1 + 0j)},
     ({"f": 0.0}, "frequency must be positive")),
    (RetrievalConfig, {"n_modes": (12, 16), "branch_seed": (None, 2)},
     ({"branch_seed": 0.5}, "branch seed must be an integer")),
    (RetrievedProperties, {"f": (500.0, 600.0), "n1": (5 - 0.1j, 4 + 0j),
                           "z1": (1e5 + 0j, 2e5 + 0j), "branch_m": (0, 1), "sign_choice": (1, -1),
                           "condition_number": (12.0, 30.0), "residual": (1e-16, 2e-16),
                           "flags": ((), ("interpolated",))}, None),
    (TransferMatrix, {"m11": (1 + 0j, 2j), "m12": (3j, 4 + 0j), "m21": (0.5j, 0.25 + 0j),
                      "m22": (1 + 0j, 2j)}, None),
    (FieldState, {name: (1j, 2 + 0j) for name in
                  "p1_in p2_in p1_out p2_out u1_in u2_in u1_out u2_out".split()}, None),
    (ModalBasis, {"wavenumbers": ((0.0, 52.6), (0.0,)), "squares": ((1e-6,), ()),
                  "w_disk": (4e5, 5e5), "w_cross": (2e5, 3e5), "w_ring": (1e5, 2e5)}, None),
    (CouplingCoefficients, {"frequency": (500.0, 600.0), "upstream": (((1j, 2j), (3j, 4j)), ()),
                            "downstream": (((-1j, -2j), (-3j, -4j)), ()),
                            "rel_change": (1e-9, 2e-9)}, None),
    (SimGrid, {name: (i, -1 - i) for i, name in enumerate(SimGrid._fields)}, None),
]


@pytest.mark.parametrize("record, fields, bad", RECORDS, ids=[r[0].__name__ for r in RECORDS])
def test_record_api(record, fields, bad):
    """Keyword construction, no assignment, equality and repr per field,
    and each validated record's refusal."""
    values = {name: pair[0] for name, pair in fields.items()}
    built = record(**values)
    assert repr(built) == f"{record.__name__}({', '.join(f'{k}={v!r}' for k, v in values.items())})"
    assert built == record(**values)
    for name, (value, other) in fields.items():
        assert getattr(built, name) == value
        assert record(**{**values, name: other}) != built, name
        with pytest.raises(AttributeError):
            setattr(built, name, other)
    with pytest.raises(AttributeError):
        built.extra = 1
    if bad is not None:
        change, message = bad
        with pytest.raises(DomainError, match=message):
            record(**{**values, **change})
