"""Transfer-matrix inversion, the mirror-half interface systems, and field extraction."""

import cmath
import math
import warnings

import numpy as np
import pytest

import tubegap.retrieval as retrieval_module
from tubegap.errors import (
    DomainError,
    IllConditionedSystemError,
    SingularMeasurementError,
)
from tubegap.modal import coupling_coefficients, upstream_coupling
from tubegap.retrieval import (
    MAX_CONDITION,
    DegenerateFieldsError,
    FieldState,
    TransferMatrix,
    impedance_from_fields,
    index_from_fields,
    retrieve_sweep,
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
    def test_pure_phase_layer(self, medium):
        """T = exp(-i theta), R = 0 is the layer matrix of an air slab of phase
        theta, to ``tol`` (times alpha for m12, over alpha for m21); theta = 0,
        a transparent sample, is the identity exactly."""
        alpha = medium.alpha
        for theta, tol in ((0.0, 0.0), (0.7, 1e-12)):
            data = ScatteringData(f=500.0, transmission=cmath.exp(-1j * theta), reflection=0.0)
            m = transfer_matrix_from_tr(data, medium)
            assert m.m11 == pytest.approx(math.cos(theta), abs=tol)
            assert m.m22 == pytest.approx(math.cos(theta), abs=tol)
            assert m.m12 == pytest.approx(1j * alpha * math.sin(theta), abs=tol * alpha)
            assert m.m21 == pytest.approx(1j * math.sin(theta) / alpha, abs=tol / alpha)

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

    def test_air_slab_is_transparent(self, medium):
        """An air slab's layer matrix, the identity at k0 t = 0, gives
        T = exp(-i k0 t) and R = 0."""
        alpha = medium.alpha
        for k0t in (0.0, 0.31):
            m = TransferMatrix(
                m11=math.cos(k0t), m12=1j * alpha * math.sin(k0t),
                m21=1j * math.sin(k0t) / alpha, m22=math.cos(k0t),
            )
            t, r = tr_from_transfer_matrix(m, medium)
            assert abs(t) == pytest.approx(1.0, abs=1e-12)
            assert abs(r) < 1e-15
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


def measured_halves(point, geometry, medium):
    """The measured half systems of one sweep point as ``retrieve_sweep``
    builds them: the rows, the upstream couplings and the frequency."""
    upstream, _ = upstream_coupling(geometry, medium, point.f)
    weights = (geometry.s1 / geometry.s2, geometry.s3 / geometry.s2, medium.alpha / geometry.s2)
    rows, _ = retrieval_module._measured_rows(
        point, geometry, medium, GapProperties.from_geometry(geometry, medium), weights)
    return rows, upstream, point.f


def face_fields(p, u):
    """The upstream-driven fields on both faces, in ``FieldState``'s order, from
    the solved halves (each driven by a unit blocked pressure): their sum on
    the upstream face, their difference on the downstream one."""
    (pe1, pe2), (po1, po2) = p
    (ue1, ue2), (uo1, uo2) = u
    return [pe1 + po1, pe2 + po2, pe1 - po1, pe2 - po2,
            ue1 + uo1, ue2 + uo2, uo1 - ue1, uo2 - ue2]


def assert_row(terms, rhs):
    """sum(terms) == rhs to 1e-13 of the largest term."""
    scale = max(max(abs(term) for term in terms), abs(rhs))
    assert abs(sum(terms) - rhs) <= 1e-13 * scale, (sum(terms), rhs)


class TestInterfaceRows:
    """The mirror halves of a measured point recombine into fields that
    satisfy each of the paper's eight interface rows: the measured layer
    matrix on the area-averaged totals, the four duct radiation rows with a
    blocked-pressure drive of 2 upstream, and the gap's layer rows."""

    @pytest.fixture
    def parts(self, sample1_geometry, medium):
        """The one-point halves' rows and fields, the recombined face fields,
        and the scalar couplings and layer matrix of the same point."""
        coup = coupling_coefficients(sample1_geometry, medium, 1000.0)
        data = ScatteringData(f=1000.0, transmission=0.9 - 0.3j, reflection=0.1 + 0.2j)
        rows, upstream, f = measured_halves(data, sample1_geometry, medium)
        assert np.shape(rows) == (2, 2, 4) and np.shape(upstream) == (2, 2)
        u, _, _ = retrieval_module._solve_halves(rows, upstream, f)
        p, _ = retrieval_module._pressures(rows, upstream, u)
        state = FieldState(*face_fields(p, u))
        return rows, p, u, state, coup, transfer_matrix_from_tr(data, medium)

    def test_rhs_is_blocked_pressure_drive(self, parts):
        _, p, u, _, coup, _ = parts
        for half in range(2):
            for k in range(2):
                (c1, c2) = coup.upstream[k]
                assert_row([p[half][k], -c1 * u[half][0], -c2 * u[half][1]], 1.0)

    def test_disk_radiation_row(self, parts):
        _, _, _, w, coup, _ = parts
        a_c, b_c = coup.upstream[0]
        assert_row([w.p1_in, -a_c * w.u1_in, -b_c * w.u2_in], 2.0)

    def test_other_radiation_rows(self, parts):
        _, _, _, w, coup, _ = parts
        c_c, d_c = coup.upstream[1]
        (e_c, f_c), (g_c, h_c) = coup.downstream
        assert_row([w.p2_in, -c_c * w.u1_in, -d_c * w.u2_in], 2.0)
        assert_row([w.p1_out, -e_c * w.u1_out, -f_c * w.u2_out], 0.0)
        assert_row([w.p2_out, -g_c * w.u1_out, -h_c * w.u2_out], 0.0)

    def test_gap_layer_row_consistent_signs(self, parts, sample1_geometry, medium):
        rows, _, _, w, _, _ = parts
        gap = GapProperties.from_geometry(sample1_geometry, medium)
        k0 = 2 * math.pi * 1000.0 / medium.c0
        theta2 = k0 * sample1_geometry.t
        cos2, sin2 = cmath.cos(theta2), cmath.sin(theta2)
        assert_row([w.p2_in, -cos2 * w.p2_out, -1j * gap.z2 * sin2 * w.u2_out], 0.0)
        assert_row([w.u2_in, -1j / gap.z2 * sin2 * w.p2_out, -cos2 * w.u2_out], 0.0)
        # each half's gap row in homogeneous form: no tan or cot divided through
        half_s, half_c = cmath.sin(theta2 / 2), cmath.cos(theta2 / 2)
        assert rows[0][1] == pytest.approx([0, half_s, 0, 1j * gap.z2 * half_c], rel=1e-15)
        assert rows[1][1] == pytest.approx([0, half_c, 0, -1j * gap.z2 * half_s], rel=1e-15)

    def test_measured_layer_rows(self, parts, sample1_geometry):
        _, _, _, w, _, m = parts
        s1, s2, s3 = sample1_geometry.s1, sample1_geometry.s2, sample1_geometry.s3
        p_in, p_out = (s1 * w.p1_in + s3 * w.p2_in) / s2, (s1 * w.p1_out + s3 * w.p2_out) / s2
        v_in, v_out = (w.u1_in + w.u2_in) / s2, (w.u1_out + w.u2_out) / s2
        assert_row([p_in, -m.m11 * p_out, -m.m12 * v_out], 0.0)
        assert_row([v_in, -m.m21 * p_out, -m.m22 * v_out], 0.0)


def unit_rows(b):
    """Rows whose substituted system, with zero couplings, is A = b in both
    halves, driven by y = (1, 1)."""
    (b00, b01), (b10, b11) = b
    rows = [[[-1.0, 0.0, b00, b01], [0.0, -1.0, b10, b11]] for _ in range(2)]
    return rows, [[0j, 0j], [0j, 0j]]


class TestHalfSolves:
    """``_solve_halves``: Cramer's rule on each half's column-equilibrated
    2x2 system, with its condition number; ``_pressures`` on its rows."""

    def test_identity_system(self):
        rows, upstream = unit_rows([[1.0, 0.0], [0.0, 1.0]])
        u, _, cond = retrieval_module._solve_halves(rows, upstream, 500.0)
        p, residual = retrieval_module._pressures(rows, upstream, u)
        assert u == ((1, 1), (1, 1)) and p == ((1, 1), (1, 1))
        assert residual < 1e-15
        assert cond == pytest.approx(1.0)

    def test_constructed_solution(self):
        rng = np.random.default_rng(3)
        rows = rng.normal(size=(2, 2, 4)) + 1j * rng.normal(size=(2, 2, 4))
        upstream = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        u, response, cond = retrieval_module._solve_halves(rows.tolist(), upstream.tolist(), 500.0)
        p, residual = retrieval_module._pressures(rows.tolist(), upstream.tolist(), u)
        a = rows[..., :2] @ upstream + rows[..., 2:]
        y = -rows[..., :2].sum(axis=-1)
        assert np.allclose(u, np.linalg.solve(a, y[..., None])[..., 0], rtol=1e-12)
        assert np.allclose(response, np.linalg.solve(a, np.array([1.0, 0.0])), rtol=1e-12)
        assert np.allclose(p, 1.0 + (upstream @ np.array(u)[..., None])[..., 0], rtol=1e-12)
        assert residual < 1e-12
        # the condition number is numpy's of the column-equilibrated halves
        equilibrated = a / np.abs(a).max(axis=-2, keepdims=True)
        assert cond == pytest.approx(np.linalg.cond(equilibrated).max(), rel=1e-12)
        # a perturbed u leaves the layer rows' residual A du in the pressures' residual
        du = 1e-6 * (rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
        _, residual = retrieval_module._pressures(rows.tolist(), upstream.tolist(),
                                                  (np.array(u) + du).tolist())
        expected = np.sqrt(0.5 * (np.abs(a @ du[..., None]) ** 2).sum(axis=(-2, -1)).max())
        assert residual == pytest.approx(expected, rel=1e-6, abs=0)

    def test_singular_system_rejected(self):
        rows, upstream = unit_rows([[0.0, 1.0], [0.0, 2.0]])
        with pytest.raises(IllConditionedSystemError, match="777.0 Hz"):
            retrieval_module._solve_halves(rows, upstream, 777.0)

    def test_singular_half_refused_without_warning(self, monkeypatch):
        """Nonzero columns with a zero determinant: refused on the infinite
        condition number and, with the bound lifted, as singular; either way
        naming f, and with no floating-point warning."""
        rows, upstream = unit_rows([[1.0, 1.0], [1.0, 1.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(IllConditionedSystemError,
                               match="condition number inf .* 1700.0 Hz"):
                retrieval_module._solve_halves(rows, upstream, 1700.0)
            monkeypatch.setattr(retrieval_module, "MAX_CONDITION", math.inf)
            with pytest.raises(IllConditionedSystemError, match="singular at 1700.0 Hz"):
                retrieval_module._solve_halves(rows, upstream, 1700.0)

    def test_non_finite_column_refused(self):
        rows, upstream = unit_rows([[math.inf, 0.0], [0.0, 1.0]])
        with pytest.raises(IllConditionedSystemError,
                           match="non-finite column at 1300.0 Hz"):
            retrieval_module._solve_halves(rows, upstream, 1300.0)

    def test_condition_gate(self):
        # two almost linearly dependent columns: equilibration cannot help
        rng = np.random.default_rng(9)
        b = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        b[:, 1] = b[:, 0] * (1.0 + 1e-14)
        rows, upstream = unit_rows(b.tolist())
        with pytest.raises(IllConditionedSystemError, match="432.1 Hz"):
            retrieval_module._solve_halves(rows, upstream, 432.1)

    def test_condition_bound_is_the_module_constant(self, sample1_geometry, medium, monkeypatch):
        """A real sample-1 point passes under MAX_CONDITION and is refused,
        naming its frequency, once the bound drops below its condition."""
        data = [ScatteringData(f=900.0, transmission=0.8 - 0.5j, reflection=0.2 + 0.1j)]
        halves = measured_halves(data[0], sample1_geometry, medium)
        _, _, cond = retrieval_module._solve_halves(*halves)
        assert 1.0 < cond < MAX_CONDITION
        monkeypatch.setattr(retrieval_module, "MAX_CONDITION", cond / 2)
        with pytest.raises(IllConditionedSystemError, match="900.0 Hz"):
            retrieval_module._solve_halves(*halves)
        with pytest.raises(IllConditionedSystemError, match="900.0 Hz"):
            retrieve_sweep(data, sample1_geometry, medium)


def test_overflowing_magnitude_is_a_non_finite_column():
    """An entry whose magnitude overflows the float range although its parts
    are finite (abs raises OverflowError) is refused as a non-finite column."""
    rows, upstream = unit_rows([[complex(1.5e308, 1.5e308), 0.0], [0.0, 1.0]])
    with pytest.raises(IllConditionedSystemError, match="non-finite column at 1300.0 Hz"):
        retrieval_module._solve_halves(rows, upstream, 1300.0)


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
        """z = 2 and n = 3 with total phase 1.5 across the layer: the helpers
        give both back, and branch 1 adds 2 pi / (k0 t) to n."""
        state = layer_fields(3.0, 2.0, k0=0.5, t=1.0)
        assert state.p1_in == pytest.approx(cmath.cos(1.5))
        assert state.u1_in == pytest.approx(0.5j * cmath.sin(1.5))
        assert impedance_from_fields(state) == pytest.approx(2.0, abs=1e-12)
        n0 = index_from_fields(state, k0=0.5, t=1.0)
        assert n0 == pytest.approx(3.0, abs=1e-12)
        n1 = index_from_fields(state, k0=0.5, t=1.0, branch_m=1)
        assert n1 - n0 == pytest.approx(2 * math.pi / 0.5, abs=1e-12)

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

    @pytest.mark.parametrize("sign", [0, 2, -1.5])
    def test_index_sign_must_be_plus_or_minus_one(self, sign):
        state = layer_fields(3.0, 2.0, k0=0.5, t=1.0)
        with pytest.raises(DomainError, match=f"sign must be \\+1 or -1, got {sign}"):
            index_from_fields(state, k0=0.5, t=1.0, sign=sign)

    def test_half_wave_degeneracy_flagged(self):
        # theta = pi with live fields: u_in = -u_out, so the velocity
        # contrast collapses while the velocities themselves stay O(1)
        state = layer_fields(2.0, 3.0, k0=math.pi / 2, t=1.0, u_out=0.4 + 0.1j)
        with pytest.raises(DegenerateFieldsError):
            impedance_from_fields(state)

    @pytest.mark.parametrize("helper", ["impedance", "index"])
    @pytest.mark.parametrize("factor", [0.9, 1.1])
    def test_point_terms_degenerate_where_the_helpers_raise(self, helper, factor):
        """Half fields at ``factor`` times a helper's degeneracy bound: the
        sweep's ``_point_terms`` flags the impedance or the index exactly
        where ``impedance_from_fields`` or ``index_from_fields`` raises on
        the same faces' fields, and only inside the bound."""
        pe, po, ue = 0.7 - 0.2j, 0.3 + 0.4j, 1.0 + 0j
        if helper == "impedance":
            # u- = i s: |u+ u-| / max(|u_in|, |u_out|)^2 = s / (1 + s^2) = factor 1e-6 / 4
            target = factor * 2.5e-7
            uo = 2j * target / (1.0 + math.sqrt(1.0 - 4.0 * target * target))
        else:
            # p- = p+ u- (1 + d) / u+: |p+ u- - p- u+| = factor 1e-12 / 2 of the cross scale
            uo = 0.5 + 0.3j
            cross = max(abs(pe + pe * uo) * abs(uo - ue), abs(pe - pe * uo) * abs(ue + uo))
            po = pe * uo * (1.0 + factor * 5e-13 * cross / abs(pe * uo) * (0.6 + 0.8j))
        p, u = ((pe, 0j), (po, 0j)), ((ue, 0j), (uo, 0j))
        _, _, bad_z, bad_n, _, _ = retrieval_module._point_terms(
            p, u, ((0j, 0j), (0j, 0j)), (0.1, 0.2), (1.0, 1.0), (1.0, 1.0, 1.0))
        state = FieldState(*face_fields(p, u))

        def raises(extract, *args):
            try:
                extract(state, *args)
            except DegenerateFieldsError:
                return True
            return False

        assert bad_z == raises(impedance_from_fields)
        assert bad_n == raises(index_from_fields, 1.0, 1.0)
        inside = factor < 1.0
        assert (bad_z, bad_n) == (inside and helper == "impedance", inside and helper == "index")
