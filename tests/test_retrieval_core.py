"""Transfer-matrix inversion, the 8x8 interface system, and field extraction."""

import cmath
import math

import numpy as np
import pytest

from tubegap.errors import (
    IllConditionedSystemError,
    SingularMeasurementError,
)
from tubegap.modal import coupling_coefficients
from tubegap.retrieval import (
    DegenerateFieldsError,
    FieldState,
    TransferMatrix,
    assemble_system,
    impedance_from_fields,
    index_from_fields,
    solve_fields,
    tr_from_transfer_matrix,
    transfer_matrix_from_tr,
)
from tubegap.types import GapProperties, ScatteringData


def random_tr(rng):
    """A finite scattering pair with T != 0 (not necessarily passive)."""
    t = complex(rng.normal(), rng.normal()) * 0.5
    while abs(t) < 1e-3:
        t = complex(rng.normal(), rng.normal()) * 0.5
    r = complex(rng.normal(), rng.normal()) * 0.4
    return t, r


class TestTransferMatrix:
    def test_transparent_sample(self, medium):
        m = transfer_matrix_from_tr(ScatteringData(f=500.0, transmission=1.0, reflection=0.0), medium)
        assert m.m11 == pytest.approx(1.0)
        assert m.m22 == pytest.approx(1.0)
        assert abs(m.m12) < 1e-14 and abs(m.m21) < 1e-14

    def test_pure_phase_layer(self, medium):
        theta = 0.7
        data = ScatteringData(f=500.0, transmission=cmath.exp(-1j * theta), reflection=0.0)
        m = transfer_matrix_from_tr(data, medium)
        alpha = medium.alpha
        assert m.m11 == pytest.approx(math.cos(theta), abs=1e-12)
        assert m.m12 == pytest.approx(1j * alpha * math.sin(theta), abs=1e-12 * alpha)
        assert m.m21 == pytest.approx(1j * math.sin(theta) / alpha, abs=1e-12 / alpha)

    def test_round_trip_and_constraints(self, medium):
        """100 random pairs: inversion satisfies the layer constraints and
        the forward map reproduces the inputs."""
        rng = np.random.default_rng(17)
        for _ in range(100):
            t, r = random_tr(rng)
            m = transfer_matrix_from_tr(ScatteringData(f=900.0, transmission=t, reflection=r), medium)
            scale = max(abs(m.m11), 1.0)
            assert abs(m.m11 - m.m22) <= 1e-10 * scale
            assert abs(m.determinant() - 1.0) <= 1e-10
            t2, r2 = tr_from_transfer_matrix(m, medium)
            assert t2 == pytest.approx(t, abs=1e-12)
            assert r2 == pytest.approx(r, abs=1e-12)

    def test_matrix_to_tr_identity(self, medium):
        m = TransferMatrix(m11=1.0, m12=0.0, m21=0.0, m22=1.0)
        t, r = tr_from_transfer_matrix(m, medium)
        assert t == pytest.approx(1.0) and abs(r) < 1e-15

    def test_air_slab_is_transparent(self, medium):
        k0t = 0.31
        alpha = medium.alpha
        m = TransferMatrix(
            m11=math.cos(k0t), m12=1j * alpha * math.sin(k0t),
            m21=1j * math.sin(k0t) / alpha, m22=math.cos(k0t),
        )
        t, r = tr_from_transfer_matrix(m, medium)
        assert abs(t) == pytest.approx(1.0, abs=1e-12)
        assert abs(r) < 1e-14
        assert t == pytest.approx(cmath.exp(-1j * k0t), abs=1e-12)

    def test_quarter_wave_layer(self, medium):
        alpha = medium.alpha
        m = TransferMatrix(m11=0.0, m12=1j * alpha, m21=1j / alpha, m22=0.0)
        t, r = tr_from_transfer_matrix(m, medium)
        # direct arithmetic: T = 2/(0 + i + i + 0) = -i, R = 0
        assert t == pytest.approx(-1j, abs=1e-14)
        assert abs(r) < 1e-14

    def test_zero_transmission_rejected(self, medium):
        with pytest.raises(SingularMeasurementError):
            transfer_matrix_from_tr(ScatteringData(f=100.0, transmission=0.0, reflection=0.5), medium)


class TestAssembleSystem:
    @pytest.fixture
    def parts(self, sample1_geometry, medium):
        coup = coupling_coefficients(sample1_geometry, medium, 1000.0)
        data = ScatteringData(f=1000.0, transmission=0.9 - 0.3j, reflection=0.1 + 0.2j)
        matrix = transfer_matrix_from_tr(data, medium)
        return matrix, coup

    def test_rhs_is_blocked_pressure_drive(self, parts, sample1_geometry, medium):
        matrix, coup = parts
        _, y = assemble_system(matrix, sample1_geometry, medium, coup)
        assert np.array_equal(y, np.array([0, 0, 2, 2, 0, 0, 0, 0], dtype=complex))

    def test_disk_radiation_row(self, parts, sample1_geometry, medium):
        matrix, coup = parts
        q, _ = assemble_system(matrix, sample1_geometry, medium, coup)
        a_c, b_c = coup.upstream[0]
        expected = np.array([1, 0, 0, 0, -a_c, -b_c, 0, 0])
        assert np.allclose(q[2], expected, rtol=0, atol=0)

    def test_other_radiation_rows(self, parts, sample1_geometry, medium):
        matrix, coup = parts
        q, _ = assemble_system(matrix, sample1_geometry, medium, coup)
        c_c, d_c = coup.upstream[1]
        (e_c, f_c), (g_c, h_c) = coup.downstream
        expected = np.array([
            [0, 1, 0, 0, -c_c, -d_c, 0, 0],
            [0, 0, 1, 0, 0, 0, -e_c, -f_c],
            [0, 0, 0, 1, 0, 0, -g_c, -h_c],
        ])
        assert np.allclose(q[3:6], expected, rtol=0, atol=0)

    def test_gap_layer_row_consistent_signs(self, parts, sample1_geometry, medium):
        matrix, coup = parts
        q, _ = assemble_system(matrix, sample1_geometry, medium, coup)
        gap = GapProperties.from_geometry(sample1_geometry, medium)
        k0 = 2 * math.pi * 1000.0 / medium.c0
        theta2 = k0 * gap.n2 * sample1_geometry.t
        cos2, sin2 = cmath.cos(theta2), cmath.sin(theta2)
        expected = np.array([
            [0, 1, 0, -cos2, 0, 0, 0, -1j * gap.z2 * sin2],
            [0, 0, 0, -1j / gap.z2 * sin2, 0, 1, 0, -cos2],
        ])
        assert np.allclose(q[6:], expected, rtol=0, atol=0)


class TestSolveFields:
    def test_identity_system(self):
        y = np.array([0, 0, 2, 2, 0, 0, 0, 0], dtype=complex)
        state = solve_fields(np.eye(8, dtype=complex), y)
        assert np.allclose(state.vector, y)
        assert state.residual < 1e-15
        assert state.condition_number == pytest.approx(1.0)

    def test_constructed_solution(self):
        rng = np.random.default_rng(3)
        q = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8)) + 4 * np.eye(8)
        w_true = rng.normal(size=8) + 1j * rng.normal(size=8)
        state = solve_fields(q, q @ w_true)
        assert np.allclose(state.vector, w_true, rtol=1e-12)
        assert state.residual < 1e-12

    def test_singular_system_rejected(self):
        q = np.zeros((8, 8), dtype=complex)
        q[:, 0] = 1.0
        with pytest.raises(IllConditionedSystemError):
            solve_fields(q, np.ones(8, dtype=complex), frequency=777.0)

    def test_condition_gate(self):
        # two almost linearly dependent columns: equilibration cannot help
        rng = np.random.default_rng(9)
        q = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
        q[:, 7] = q[:, 6] * (1.0 + 1e-14)
        with pytest.raises(IllConditionedSystemError) as err:
            solve_fields(q, np.ones(8, dtype=complex), frequency=432.1)
        assert err.value.frequency == 432.1


def layer_fields(n1, z1, k0, t, p_out=1.0 + 0j, u_out=0.0 + 0j):
    """Exact single-layer fields for the extraction-formula tests."""
    theta = k0 * n1 * t
    p_in = cmath.cos(theta) * p_out + 1j * z1 * cmath.sin(theta) * u_out
    u_in = 1j / z1 * cmath.sin(theta) * p_out + cmath.cos(theta) * u_out
    return FieldState(
        p1_in=p_in, p2_in=0.0, p1_out=p_out, p2_out=0.0,
        u1_in=u_in, u2_in=0.0, u1_out=u_out, u2_out=0.0,
    )


class TestExtraction:
    def test_impedance_single_layer_construction(self):
        # z = 2 with total phase 1.5 across the layer
        state = layer_fields(3.0, 2.0, k0=0.5, t=1.0)
        assert state.p1_in == pytest.approx(cmath.cos(1.5))
        assert state.u1_in == pytest.approx(0.5j * cmath.sin(1.5))
        assert impedance_from_fields(state) == pytest.approx(2.0, abs=1e-12)

    def test_index_single_layer_construction(self):
        state = layer_fields(3.0, 2.0, k0=0.5, t=1.0)
        assert index_from_fields(state, k0=0.5, t=1.0) == pytest.approx(3.0, abs=1e-12)

    def test_scale_invariance(self):
        rng = np.random.default_rng(23)
        state = layer_fields(4.0 - 0.3j, 2.5 + 0.4j, k0=0.8, t=0.7, u_out=0.2 - 0.1j)
        z_ref = impedance_from_fields(state)
        n_ref = index_from_fields(state, k0=0.8, t=0.7)
        for _ in range(10):
            s = complex(rng.normal(), rng.normal())
            scaled = FieldState(
                *(getattr(state, name) * s
                  for name in ("p1_in", "p2_in", "p1_out", "p2_out",
                               "u1_in", "u2_in", "u1_out", "u2_out"))
            )
            assert impedance_from_fields(scaled) == pytest.approx(z_ref, rel=1e-12)
            assert index_from_fields(scaled, k0=0.8, t=0.7) == pytest.approx(n_ref, rel=1e-12)

    def test_face_swap_invariance(self):
        state = layer_fields(4.0, 2.5, k0=0.8, t=0.7, u_out=0.2 + 0.05j)
        swapped = FieldState(
            p1_in=state.p1_out, p2_in=state.p2_out, p1_out=state.p1_in, p2_out=state.p2_in,
            u1_in=state.u1_out, u2_in=state.u2_out, u1_out=state.u1_in, u2_out=state.u2_in,
        )
        assert impedance_from_fields(swapped) == pytest.approx(
            impedance_from_fields(state), rel=1e-12
        )
        assert index_from_fields(swapped, k0=0.8, t=0.7) == pytest.approx(
            index_from_fields(state, k0=0.8, t=0.7), rel=1e-12
        )

    def test_transparent_limit_and_branches(self):
        state = FieldState(
            p1_in=1.0, p2_in=0.0, p1_out=1.0, p2_out=0.0,
            u1_in=0.5, u2_in=0.0, u1_out=0.5, u2_out=0.0,
        )
        # equal fields on both faces: ratio = 1, so n = 2 pi m / (k0 t)
        assert index_from_fields(state, k0=2.0, t=0.25) == pytest.approx(0.0, abs=1e-12)
        assert index_from_fields(state, k0=2.0, t=0.25, branch_m=1) == pytest.approx(
            4 * math.pi, abs=1e-12
        )

    def test_branch_arithmetic(self):
        state = layer_fields(3.0, 2.0, k0=0.5, t=1.0)
        n0 = index_from_fields(state, k0=0.5, t=1.0)
        n1 = index_from_fields(state, k0=0.5, t=1.0, branch_m=1)
        assert n1 - n0 == pytest.approx(2 * math.pi / 0.5, abs=1e-12)

    def test_half_wave_degeneracy_flagged(self):
        # theta = pi with live fields: u_in = -u_out, so the velocity
        # contrast collapses while the velocities themselves stay O(1)
        state = layer_fields(2.0, 3.0, k0=math.pi / 2, t=1.0, u_out=0.4 + 0.1j)
        with pytest.raises(DegenerateFieldsError):
            impedance_from_fields(state)

    def test_impedance_sign_convention(self):
        state = layer_fields(3.0, 2.0, k0=0.5, t=1.0)
        z = impedance_from_fields(state)
        assert z.real >= 0

    def test_energy_conservation_through_lossless_layer(self):
        """Power flux is identical on the two faces of a lossless layer."""
        for u_out in (0.0, 0.3 - 0.2j):
            state = layer_fields(3.7, 1.9, k0=0.9, t=0.6, u_out=u_out)
            flux_in = (state.p1_in * state.u1_in.conjugate()).real
            flux_out = (state.p1_out * state.u1_out.conjugate()).real
            assert flux_in == pytest.approx(flux_out, rel=1e-6, abs=1e-12)
