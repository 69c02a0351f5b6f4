"""Effective-parameter retrieval for a sample narrower than its duct.

Pipeline per frequency point:

1. invert the measured transmission/reflection pair into the 2x2 transfer
   matrix of the composite (sample + gap) layer, using the symmetry
   (equal diagonal) and reciprocity (unit determinant) constraints;
2. assemble the 8x8 interface system coupling the patch-averaged
   pressures and volume velocities on both faces of the sample and gap
   to the duct radiation loading and to the gap's known layer behaviour;
3. solve it with partial pivoting and read the sample's refractive index
   and acoustic impedance off the sample-patch fields.

The sweep driver adds inverse-cosine branch tracking across frequency and
interpolation over isolated degenerate points (half-wave resonances of
the sample, where the closed-form extraction is singular).

All operations follow the package sign conventions (see tubegap.modal):
time dependence exp(+i w t), volume velocities measured toward +x, and
plane-wave transmission through air of thickness t equal to
exp(-i k0 t).  Under this convention a passive absorbing sample has
Re(z1) >= 0 and Im(n1) <= 0.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, replace

import numpy as np

from tubegap.errors import (
    DegenerateSampleError,
    DomainError,
    IllConditionedSystemError,
    SingularMeasurementError,
    TubegapError,
)
from tubegap.modal import (
    DEFAULT_MODE_COUNT,
    CouplingCoefficients,
    coupling_coefficients,
    refuse_above_cutoff,
)
from tubegap.types import DuctGeometry, GapProperties, MediumProperties, ScatteringData

# largest condition number of the equilibrated interface system solve_fields accepts
MAX_CONDITION = 1e12


class DegenerateFieldsError(TubegapError):
    """The field combination needed by an extraction formula vanished."""


@dataclass(frozen=True)
class TransferMatrix:
    """2x2 layer matrix mapping (pressure, velocity) at x=0 to those at x=t.

    m11 and m22 are dimensionless, m12 is a specific impedance (Pa*s/m),
    m21 a specific admittance; velocities are area-averaged particle
    velocities.  A symmetric reciprocal layer has m11 == m22 and unit
    determinant.
    """

    m11: complex
    m12: complex
    m21: complex
    m22: complex

    def determinant(self) -> complex:
        return self.m11 * self.m22 - self.m12 * self.m21


@dataclass(frozen=True)
class FieldState:
    """Patch-averaged interface pressures and volume velocities.

    Suffix ``_in`` refers to the upstream face (x = 0), ``_out`` to the
    downstream face (x = t); patch 1 is the sample disk, patch 2 the air
    gap.  Velocities are volume velocities (m^3/s) measured toward +x.
    """

    p1_in: complex
    p2_in: complex
    p1_out: complex
    p2_out: complex
    u1_in: complex
    u2_in: complex
    u1_out: complex
    u2_out: complex
    condition_number: float = math.nan
    residual: float = math.nan

    @classmethod
    def from_vector(cls, w: np.ndarray, condition_number=math.nan, residual=math.nan):
        return cls(*map(complex, w), condition_number=condition_number, residual=residual)

    @property
    def vector(self) -> np.ndarray:
        return np.array(
            [
                self.p1_in,
                self.p2_in,
                self.p1_out,
                self.p2_out,
                self.u1_in,
                self.u2_in,
                self.u1_out,
                self.u2_out,
            ]
        )


@dataclass(frozen=True)
class RetrievedProperties:
    """Retrieval output for one frequency point."""

    f: float
    n1: complex
    z1: complex
    branch_m: int
    sign_choice: int
    condition_number: float = math.nan
    residual: float = math.nan
    flags: tuple[str, ...] = ()


@dataclass(frozen=True)
class RetrievalConfig:
    """Knobs for the sweep driver.

    n_modes is the modal truncation of the coupling sums, whose
    convergence bound is the constant ``tubegap.modal.SUM_TOLERANCE``.
    branch_seed fixes the inverse-cosine branch at the first sweep point;
    the automatic seed (None) assumes the first point lies on branch 0,
    which holds whenever f_min < c0 / (2 |n1| t).
    """

    n_modes: int = DEFAULT_MODE_COUNT
    branch_seed: int | None = None
    allow_above_cutoff: bool = False


def transfer_matrix_from_tr(data: ScatteringData, medium: MediumProperties) -> TransferMatrix:
    """Invert a (transmission, reflection) pair into the layer matrix.

    The inversion uses the symmetry and reciprocity constraints to pin all
    four entries:

        m11 = m22 = (1 - R^2 + T^2) / (2 T)
        m12 = alpha * ((1 + R)^2 - T^2) / (2 T)
        m21 = ((1 - R)^2 - T^2) / (2 T alpha)

    Substituting the result back into the forward formulas reproduces the
    input pair to roundoff.
    """
    t_coef, r_coef = complex(data.transmission), complex(data.reflection)
    if t_coef == 0:
        raise SingularMeasurementError(
            f"transmission is zero at {data.f} Hz; the layer matrix is unbounded"
        )
    alpha = medium.alpha
    m11 = (1.0 - r_coef * r_coef + t_coef * t_coef) / (2.0 * t_coef)
    m12 = alpha * ((1.0 + r_coef) ** 2 - t_coef * t_coef) / (2.0 * t_coef)
    m21 = ((1.0 - r_coef) ** 2 - t_coef * t_coef) / (2.0 * t_coef * alpha)
    return TransferMatrix(m11=m11, m12=m12, m21=m21, m22=m11)


def tr_from_transfer_matrix(matrix: TransferMatrix, medium: MediumProperties) -> tuple[complex, complex]:
    """Forward map from a layer matrix to (transmission, reflection)."""
    alpha = medium.alpha
    a = matrix.m11 + matrix.m12 / alpha
    b = alpha * matrix.m21 + matrix.m22
    denom = a + b
    scale = max(abs(a), abs(b), 1.0)
    if abs(denom) < 1e-14 * scale:
        raise DegenerateSampleError(
            "layer matrix maps to an unbounded scattering response "
            f"(denominator {denom})"
        )
    return 2.0 / denom, (a - b) / denom


def _interface_rows(
    geometry: DuctGeometry,
    medium: MediumProperties,
    coupling: CouplingCoefficients,
) -> np.ndarray:
    """The six interface rows shared by the retrieval and the forward model.

    Rows 1-4 are the duct radiation conditions on each patch of each face
    (their blocked-pressure drive sits on the callers' right-hand sides);
    rows 5-6 are the known air-gap layer linking its two faces.  Unknown
    ordering as in ``FieldState.vector``.
    """
    gap = GapProperties.from_geometry(geometry, medium)
    k0 = 2.0 * math.pi * coupling.frequency / medium.c0
    theta2 = k0 * gap.n2 * geometry.t
    cos2, sin2 = cmath.cos(theta2), cmath.sin(theta2)
    (a_c, b_c), (c_c, d_c) = coupling.upstream
    (e_c, f_c), (g_c, h_c) = coupling.downstream
    return np.array(
        [
            [1.0, 0.0, 0.0, 0.0, -a_c, -b_c, 0.0, 0.0],
            [0.0, 1.0, 0.0, 0.0, -c_c, -d_c, 0.0, 0.0],
            [0.0, 0.0, 1.0, 0.0, 0.0, 0.0, -e_c, -f_c],
            [0.0, 0.0, 0.0, 1.0, 0.0, 0.0, -g_c, -h_c],
            [0.0, 1.0, 0.0, -cos2, 0.0, 0.0, 0.0, -1j * gap.z2 * sin2],
            [0.0, 0.0, 0.0, -1j / gap.z2 * sin2, 0.0, 1.0, 0.0, -cos2],
        ],
        dtype=complex,
    )


def assemble_system(
    matrix: TransferMatrix,
    geometry: DuctGeometry,
    medium: MediumProperties,
    coupling: CouplingCoefficients,
) -> tuple[np.ndarray, np.ndarray]:
    """Build the 8x8 interface system Q and its right-hand side Y.

    Unknown ordering: [p1_in, p2_in, p1_out, p2_out, u1_in, u2_in, u1_out,
    u2_out].  Rows 1-2 encode the measured layer matrix acting on the
    area-weighted total pressure/velocity; rows 3-8 are the shared
    interface rows (``_interface_rows``) at ``coupling.frequency``, with
    the blocked-pressure drive 2 on the upstream radiation rows.  Every
    row follows the package-wide +x velocity / exp(+i w t) convention,
    under which forward simulation and retrieval are exact inverses.
    """
    s1, s2, s3 = geometry.s1, geometry.s2, geometry.s3
    q = np.vstack(
        [
            # layer matrix acting on the area-averaged totals
            [[-s1 / s2, -s3 / s2, matrix.m11 * s1 / s2, matrix.m11 * s3 / s2,
              0.0, 0.0, matrix.m12 / s2, matrix.m12 / s2],
             [0.0, 0.0, matrix.m21 * s1 / s2, matrix.m21 * s3 / s2,
              -1.0 / s2, -1.0 / s2, matrix.m22 / s2, matrix.m22 / s2]],
            _interface_rows(geometry, medium, coupling),
        ]
    )
    y = np.array([0.0, 0.0, 2.0, 2.0, 0.0, 0.0, 0.0, 0.0], dtype=complex)
    return q, y


def solve_fields(q: np.ndarray, y: np.ndarray, frequency: float | None = None) -> FieldState:
    """Solve Q w = Y by LU with partial pivoting and verify the residual.

    The raw system mixes pressures (order 1 Pa) with volume velocities
    (order 1/z2 m^3/s), so its unscaled condition number mostly measures
    that unit gap.  Columns are therefore equilibrated to unit max-norm
    before factorizing; the reported condition number is that of the
    equilibrated system, which is what actually bounds the solution
    error, and above ``MAX_CONDITION`` raises IllConditionedSystemError.
    The residual is still measured on the original system.
    """
    col_scale = np.max(np.abs(q), axis=0)
    if np.any(col_scale == 0):
        raise IllConditionedSystemError(
            "interface system has an identically zero column", frequency=frequency
        )
    q_eq = q / col_scale
    cond = float(np.linalg.cond(q_eq))
    if not math.isfinite(cond) or cond > MAX_CONDITION:
        raise IllConditionedSystemError(
            f"interface system condition number {cond:.3e} exceeds {MAX_CONDITION:.1e}"
            + (f" at {frequency} Hz" if frequency is not None else ""),
            frequency=frequency,
        )
    try:
        w = np.linalg.solve(q_eq, y) / col_scale
    except np.linalg.LinAlgError as exc:
        raise IllConditionedSystemError(
            f"interface system is singular: {exc}", frequency=frequency
        ) from exc
    residual = float(np.linalg.norm(q @ w - y) / np.linalg.norm(y))
    return FieldState.from_vector(w, condition_number=cond, residual=residual)


def _positive_real_sqrt(value: complex) -> complex:
    """Square root on the branch with Re >= 0 (Im >= 0 breaking ties)."""
    root = cmath.sqrt(value)
    if root.real < 0 or (root.real == 0 and root.imag < 0):
        root = -root
    return root


def impedance_from_fields(state: FieldState) -> complex:
    """Sample impedance from its patch fields on the two faces.

    z1 = sqrt((p_in^2 - p_out^2) / (u_in^2 - u_out^2)), root chosen with
    Re(z1) >= 0.  The formula is homogeneous of degree zero in the fields
    and symmetric under swapping the faces.  Raises DegenerateFieldsError
    at half-wave resonances, where numerator and denominator both vanish.
    """
    num = state.p1_in * state.p1_in - state.p1_out * state.p1_out
    den = state.u1_in * state.u1_in - state.u1_out * state.u1_out
    u_scale = max(abs(state.u1_in), abs(state.u1_out)) ** 2
    if abs(den) <= 1e-6 * u_scale:
        raise DegenerateFieldsError(
            "velocity contrast between the sample faces vanished "
            "(half-wave resonance); impedance is indeterminate here"
        )
    return _positive_real_sqrt(num / den)


def index_from_fields(
    state: FieldState,
    k0: float,
    t: float,
    branch_m: int = 0,
    sign: int = 1,
) -> complex:
    """Sample refractive index from its patch fields on the two faces.

    n1 = (sign * arccos(ratio) + 2 pi m) / (k0 t) with
    ratio = (p_in u_in + p_out u_out) / (p_in u_out + p_out u_in), using
    the principal complex inverse cosine.
    """
    if sign not in (1, -1):
        raise DomainError(f"sign must be +1 or -1, got {sign}")
    num = state.p1_in * state.u1_in + state.p1_out * state.u1_out
    den = state.p1_in * state.u1_out + state.p1_out * state.u1_in
    scale = max(
        abs(state.p1_in) * abs(state.u1_out), abs(state.p1_out) * abs(state.u1_in), 1e-300
    )
    if abs(den) <= 1e-12 * scale:
        raise DegenerateFieldsError(
            "cross pressure-velocity product between the faces vanished; "
            "index is indeterminate here"
        )
    ratio = num / den
    return (sign * cmath.acos(ratio) + 2.0 * math.pi * branch_m) / (k0 * t)


def _index_candidates(state, k0, t, m_values):
    """All (n1, m, sign) branch candidates for one frequency point."""
    out = []
    for m in m_values:
        for sign in (1, -1):
            n1 = index_from_fields(state, k0, t, branch_m=m, sign=sign)
            out.append((n1, m, sign))
    return out


def retrieve_point(
    data: ScatteringData,
    geometry: DuctGeometry,
    medium: MediumProperties,
    config: RetrievalConfig = RetrievalConfig(),
) -> tuple[FieldState, complex | None, complex | None, tuple[str, ...]]:
    """Solve the interface system for one point and extract raw properties.

    Returns the solved fields, the impedance and the branch-0/+ index (or
    None where an extraction formula is degenerate), and the flags raised.
    Branch selection happens at sweep level.
    """
    flags: list[str] = []
    matrix = transfer_matrix_from_tr(data, medium)
    coupling = coupling_coefficients(geometry, medium, data.f, n_modes=config.n_modes)
    if coupling.above_cutoff:
        flags.append("above_cutoff")
    q, y = assemble_system(matrix, geometry, medium, coupling)
    state = solve_fields(q, y, frequency=data.f)
    try:
        z1 = impedance_from_fields(state)
    except DegenerateFieldsError:
        z1 = None
        flags.append("degenerate_impedance")
    k0 = 2.0 * math.pi * data.f / medium.c0
    try:
        n1 = index_from_fields(state, k0, geometry.t, branch_m=0, sign=1)
    except DegenerateFieldsError:
        n1 = None
        flags.append("degenerate_index")
    return state, z1, n1, tuple(flags)


def retrieve_sweep(
    data: list[ScatteringData],
    geometry: DuctGeometry,
    medium: MediumProperties,
    config: RetrievalConfig = RetrievalConfig(),
) -> list[RetrievedProperties]:
    """Retrieve (n1, z1) over an ordered frequency sweep.

    Branch resolution: the first non-degenerate point is assigned branch
    ``config.branch_seed`` (0 if None) with the sign that makes
    Re(n1) >= 0; every following point picks the (branch, sign) pair that
    keeps n1 closest to its predecessor.  Points where the extraction is
    degenerate are filled by linear interpolation from their neighbours
    and marked with an "interpolated" flag.
    """
    if not data:
        raise DomainError("empty sweep")
    freqs = [d.f for d in data]
    if any(f2 <= f1 for f1, f2 in zip(freqs, freqs[1:])):
        raise DomainError("sweep frequencies must be strictly increasing")
    if not config.allow_above_cutoff:
        refuse_above_cutoff(freqs, geometry, medium)

    seed_m = config.branch_seed if config.branch_seed is not None else 0
    results: list[RetrievedProperties | None] = []
    prev_n1: complex | None = None
    prev_m, prev_sign = seed_m, 1
    for point in data:
        state, z1, n1_raw, flags = retrieve_point(point, geometry, medium, config)
        k0 = 2.0 * math.pi * point.f / medium.c0
        if z1 is None or n1_raw is None:
            results.append(
                RetrievedProperties(
                    f=point.f, n1=math.nan, z1=math.nan, branch_m=prev_m,
                    sign_choice=prev_sign, condition_number=state.condition_number,
                    residual=state.residual, flags=flags,
                )
            )
            continue
        if prev_n1 is None:
            candidates = _index_candidates(state, k0, geometry.t, (seed_m,))
            viable = [c for c in candidates if c[0].real >= 0] or candidates
            n1, m, sign = max(viable, key=lambda c: (c[0].real, c[0].imag))
        else:
            m_values = range(prev_m - 2, prev_m + 3)
            candidates = _index_candidates(state, k0, geometry.t, m_values)
            n1, m, sign = min(candidates, key=lambda c: abs(c[0] - prev_n1))
        prev_n1, prev_m, prev_sign = n1, m, sign
        results.append(
            RetrievedProperties(
                f=point.f, n1=n1, z1=z1, branch_m=m, sign_choice=sign,
                condition_number=state.condition_number, residual=state.residual,
                flags=flags,
            )
        )

    return _fill_degenerate_points(results)


def _fill_degenerate_points(results: list[RetrievedProperties]) -> list[RetrievedProperties]:
    """Linear interpolation of n1, z1 over flagged degenerate points."""
    valid = [i for i, r in enumerate(results) if not _is_degenerate(r)]
    if not valid:
        raise DomainError("every sweep point is degenerate; nothing to interpolate from")
    filled = list(results)
    for i, r in enumerate(results):
        if not _is_degenerate(r):
            continue
        left = max((j for j in valid if j < i), default=None)
        right = min((j for j in valid if j > i), default=None)
        if left is None or right is None:
            src = results[right if left is None else left]
            n1, z1 = src.n1, src.z1
        else:
            lo, hi = results[left], results[right]
            w = (r.f - lo.f) / (hi.f - lo.f)
            n1 = lo.n1 + (hi.n1 - lo.n1) * w
            z1 = lo.z1 + (hi.z1 - lo.z1) * w
        filled[i] = replace(r, n1=n1, z1=z1, flags=r.flags + ("interpolated",))
    return filled


def _is_degenerate(r: RetrievedProperties) -> bool:
    return "degenerate_impedance" in r.flags or "degenerate_index" in r.flags


def classic_retrieve(
    data: ScatteringData,
    t: float,
    medium: MediumProperties,
    branch_m: int = 0,
) -> RetrievedProperties:
    """Single-layer retrieval for a sample that fills the whole duct.

    Standard full-duct inversion: n = (sign * arccos(m11) + 2 pi m)/(k0 t)
    and z = sqrt(m12 / m21) with Re(z) >= 0; z here is the specific
    impedance (Pa*s/m) of the layer, since no cross-section partition is
    involved.  The sign of the inverse cosine is fixed by requiring the
    reconstructed m12 = i z sin(k0 n t) to match the measured one, which
    also makes Im(n) >= 0 in lossless evanescent bands.
    """
    if not (t > 0 and math.isfinite(t)):
        raise DomainError(f"thickness must be positive, got {t}")
    matrix = transfer_matrix_from_tr(data, medium)
    k0 = 2.0 * math.pi * data.f / medium.c0
    if matrix.m21 == 0:
        raise DegenerateFieldsError("m21 vanished; impedance is indeterminate here")
    z = _positive_real_sqrt(matrix.m12 / matrix.m21)
    theta = cmath.acos(matrix.m11)
    best_sign, best_err = 1, math.inf
    for sign in (1, -1):
        reconstructed = 1j * z * cmath.sin(sign * theta)
        err = abs(reconstructed - matrix.m12)
        if err < best_err:
            best_sign, best_err = sign, err
    n = (best_sign * theta + 2.0 * math.pi * branch_m) / (k0 * t)
    return RetrievedProperties(
        f=data.f, n1=n, z1=z, branch_m=branch_m, sign_choice=best_sign
    )


def forward_averaged(
    n1: complex,
    z1: complex,
    geometry: DuctGeometry,
    medium: MediumProperties,
    coupling: CouplingCoefficients,
) -> tuple[complex, complex]:
    """Scattering coefficients predicted by the averaged interface model.

    Solves the same eight interface unknowns as the retrieval, but with
    the sample described by its known (n1, z1) layer behaviour instead of
    a measured transfer matrix: rows are the shared interface rows
    (``_interface_rows``: the four duct radiation conditions, with a
    unit-amplitude blocked-pressure drive upstream, and the gap layer) at
    ``coupling.frequency``, then the sample layer.  Then

        T = alpha * (u1_out + u2_out) / S2
        R = 1 - alpha * (u1_in + u2_in) / S2

    Feeding the result back through the retrieval reproduces (n1, z1) to
    solver precision, which the test suite exercises heavily.
    """
    f = coupling.frequency
    k0 = 2.0 * math.pi * f / medium.c0
    theta1 = k0 * n1 * geometry.t
    c1, s1_ = cmath.cos(theta1), cmath.sin(theta1)
    q = np.vstack(
        [
            _interface_rows(geometry, medium, coupling),
            [[1.0, 0.0, -c1, 0.0, 0.0, 0.0, -1j * z1 * s1_, 0.0],
             [0.0, 0.0, -1j / z1 * s1_, 0.0, 1.0, 0.0, -c1, 0.0]],
        ]
    )
    y = np.array([2.0, 2.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0], dtype=complex)
    state = solve_fields(q, y, frequency=f)
    alpha = medium.alpha
    t_coef = alpha * (state.u1_out + state.u2_out) / geometry.s2
    r_coef = 1.0 - alpha * (state.u1_in + state.u2_in) / geometry.s2
    return t_coef, r_coef


def forward_averaged_sweep(
    n1: complex,
    z1: complex,
    geometry: DuctGeometry,
    medium: MediumProperties,
    freqs: list[float],
    n_modes: int = DEFAULT_MODE_COUNT,
) -> list[ScatteringData]:
    """Averaged-model scattering data over a frequency list."""
    out = []
    for f in freqs:
        coupling = coupling_coefficients(geometry, medium, f, n_modes=n_modes)
        t_coef, r_coef = forward_averaged(n1, z1, geometry, medium, coupling)
        out.append(ScatteringData(f=f, transmission=t_coef, reflection=r_coef))
    return out
