"""Effective-parameter retrieval for a sample narrower than its duct.

Pipeline per frequency sweep:

1. invert each measured transmission/reflection pair into the 2x2 transfer
   matrix of the composite (sample + gap) layer, using the symmetry
   (equal diagonal) and reciprocity (unit determinant) constraints;
2. assemble one 8x8 interface system per point, coupling the patch-averaged
   pressures and volume velocities on both faces of the sample and gap
   to the duct radiation loading and to the gap's known layer behaviour;
   the couplings and interface rows of ``SWEEP_BLOCK`` points at a time
   are stacked numpy expressions, so a long sweep's memory stays bounded;
3. solve the whole stack in one call with partial pivoting and read each
   point's refractive index and acoustic impedance off its sample fields.

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

from tubegap.errors import (DegenerateSampleError, DomainError, IllConditionedSystemError,
                            SingularMeasurementError, TubegapError)
from tubegap.modal import (
    DEFAULT_MODE_COUNT,
    coupling_stack,
    first_cutoff_frequency,
    refuse_above_cutoff,
)
from tubegap.types import (DuctGeometry, GapProperties, MaterialSpec, MediumProperties,
                           ScatteringData)

# largest condition number of the equilibrated interface system solve_fields accepts
MAX_CONDITION = 1e12
# sweep points whose couplings and interface rows are stacked at once; fixed, so
# that a long sweep's temporaries stay the size of one block's
SWEEP_BLOCK = 64


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
    # squares by multiplication: an overflow gives inf, where ** 2 raises
    m12 = alpha * ((1.0 + r_coef) * (1.0 + r_coef) - t_coef * t_coef) / (2.0 * t_coef)
    m21 = ((1.0 - r_coef) * (1.0 - r_coef) - t_coef * t_coef) / (2.0 * t_coef * alpha)
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


# the constant entries of the six interface rows; _interface_rows writes the
# couplings and the gap layer over its zeros
_INTERFACE_ONES = np.array(
    [
        [1, 0, 0, 0, 0, 0, 0, 0],
        [0, 1, 0, 0, 0, 0, 0, 0],
        [0, 0, 1, 0, 0, 0, 0, 0],
        [0, 0, 0, 1, 0, 0, 0, 0],
        [0, 1, 0, 0, 0, 0, 0, 0],
        [0, 0, 0, 0, 0, 1, 0, 0],
    ],
    dtype=complex,
)
_INTERFACE_ONES.setflags(write=False)


def _interface_rows(
    rows: np.ndarray,
    freqs: list[float],
    geometry: DuctGeometry,
    medium: MediumProperties,
    gap: GapProperties,
    n_modes: int,
) -> None:
    """Write the six interface rows at each of ``freqs`` into ``rows``, an
    (nf, 6, 8) slice of a stack; the retrieval and the forward model share them.

    Rows 1-4 are the duct radiation conditions on each patch of each face,
    from one ``coupling_stack`` call (their blocked-pressure drive sits on
    the callers' right-hand sides); rows 5-6 are the known air-gap layer
    linking its two faces.  Unknown ordering as in ``FieldState``'s fields.
    """
    upstream, _ = coupling_stack(geometry, medium, freqs, n_modes)
    rows[:] = _INTERFACE_ONES
    rows[:, 0:2, 4:6] = -upstream
    rows[:, 2:4, 6:8] = upstream  # minus the downstream coupling
    for row, f in zip(rows, freqs):
        # per point in Python: numpy's complex cos and sin may round differently
        theta2 = 2.0 * math.pi * f / medium.c0 * gap.n2 * geometry.t
        cos2, sin2 = cmath.cos(theta2), cmath.sin(theta2)
        row[4, 3] = row[5, 7] = -cos2
        row[4, 7] = -1j * gap.z2 * sin2
        row[5, 3] = -1j / gap.z2 * sin2


def _sample_rows(n1: complex, z1: complex, k0: float, t: float) -> list[list[complex]]:
    """The sample layer's two rows, in ``FieldState``'s field order:

        p1_in = cos(k0 n1 t) p1_out + i z1 sin(k0 n1 t) u1_out
        u1_in = i/z1 sin(k0 n1 t) p1_out + cos(k0 n1 t) u1_out
    """
    theta1 = k0 * n1 * t
    c1, s1_ = cmath.cos(theta1), cmath.sin(theta1)
    return [[1.0, 0.0, -c1, 0.0, 0.0, 0.0, -1j * z1 * s1_, 0.0],
            [0.0, 0.0, -1j / z1 * s1_, 0.0, 1.0, 0.0, -c1, 0.0]]


def assemble_system(
    data: list[ScatteringData],
    geometry: DuctGeometry,
    medium: MediumProperties,
    n_modes: int = DEFAULT_MODE_COUNT,
) -> tuple[np.ndarray, np.ndarray]:
    """Build the (nf, 8, 8) stack of interface systems Q and the (nf, 8) Y,
    ``SWEEP_BLOCK`` points at a time.  The first block with a failing point
    raises: first for an unusable measurement (in sweep order), then for
    the couplings (see ``coupling_stack``).

    Unknown ordering: [p1_in, p2_in, p1_out, p2_out, u1_in, u2_in, u1_out,
    u2_out].  Rows 1-2 encode the point's measured layer matrix acting on
    the area-weighted total pressure/velocity; rows 3-8 are the shared
    interface rows (``_interface_rows``) at its frequency, with the
    blocked-pressure drive 2 on the upstream radiation rows.  Every row
    follows the package-wide +x velocity / exp(+i w t) convention, under
    which forward simulation and retrieval are exact inverses.
    """
    s1, s2, s3 = geometry.s1, geometry.s2, geometry.s3
    gap = GapProperties.from_geometry(geometry, medium)
    q = np.empty((len(data), 8, 8), dtype=complex)
    for start in range(0, len(data), SWEEP_BLOCK):
        block = data[start:start + SWEEP_BLOCK]
        q_block = q[start:start + SWEEP_BLOCK]
        measured = []
        for point in block:
            matrix = transfer_matrix_from_tr(point, medium)
            # layer matrix acting on the area-averaged totals
            measured.append([
                [-s1 / s2, -s3 / s2, matrix.m11 * s1 / s2, matrix.m11 * s3 / s2,
                 0.0, 0.0, matrix.m12 / s2, matrix.m12 / s2],
                [0.0, 0.0, matrix.m21 * s1 / s2, matrix.m21 * s3 / s2,
                 -1.0 / s2, -1.0 / s2, matrix.m22 / s2, matrix.m22 / s2]])
        q_block[:, :2] = measured
        _interface_rows(q_block[:, 2:], [point.f for point in block], geometry, medium, gap,
                        n_modes)
    y = np.zeros((len(data), 8), dtype=complex)
    y[:, 2:4] = 2.0
    return q, y


def solve_fields(q: np.ndarray, y: np.ndarray,
                 freqs: list[float]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Solve the stack Q w = Y by LU with partial pivoting, in one call, and
    return the (nf, 8) fields w, in ``FieldState``'s order, with each point's
    condition number and relative residual.

    The raw system mixes pressures (order 1 Pa) with volume velocities
    (order 1/z2 m^3/s), so its unscaled condition number mostly measures
    that unit gap.  Columns are therefore equilibrated to unit max-norm
    before factorizing; the reported condition number is that of the
    equilibrated system, which is what actually bounds the solution
    error, and above ``MAX_CONDITION`` raises IllConditionedSystemError, as
    does a zero or non-finite column.  Each refusal names the frequency of
    the first point it refuses.  The residual is measured on the raw system.
    """
    col_scale = np.abs(q).max(axis=1)
    usable = (col_scale > 0) & (col_scale < math.inf)
    if not usable.all():
        f = freqs[(~usable.all(axis=1)).argmax()]
        raise IllConditionedSystemError(
            f"interface system has a zero or non-finite column at {f} Hz", f)
    q_eq = q / col_scale[:, None, :]
    # the 2-norm condition number, as np.linalg.cond gives it, without its overhead;
    # the largest singular value is positive, so an exactly singular system gives inf
    singular = np.linalg.svd(q_eq, compute_uv=False)
    with np.errstate(divide="ignore"):
        cond = singular[:, 0] / singular[:, -1]
    within = cond <= MAX_CONDITION
    if not within.all():
        i = (~within).argmax()
        raise IllConditionedSystemError(
            f"interface system condition number {cond[i]:.3e} exceeds {MAX_CONDITION:.1e} "
            f"at {freqs[i]} Hz", freqs[i])
    try:
        w = np.linalg.solve(q_eq, y[..., None])[..., 0] / col_scale
    except np.linalg.LinAlgError as exc:
        # the stacked solve does not say which point failed: name the worst conditioned
        f = freqs[cond.argmax()]
        raise IllConditionedSystemError(
            f"interface system is singular at {f} Hz: {exc}", f) from exc
    r = (q @ w[..., None])[..., 0] - y
    residual = np.sqrt(np.square(np.abs(r)).sum(axis=1) / np.square(np.abs(y)).sum(axis=1))
    return w, cond, residual


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


def _index_phase(state: FieldState) -> complex:
    """Principal complex arccos(ratio) with
    ratio = (p_in u_in + p_out u_out) / (p_in u_out + p_out u_in), the
    sample's phase thickness k0 n1 t up to its sign and branch.  Raises
    DegenerateFieldsError where the ratio's denominator vanishes.
    """
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
    return cmath.acos(num / den)


def index_from_fields(
    state: FieldState,
    k0: float,
    t: float,
    branch_m: int = 0,
    sign: int = 1,
) -> complex:
    """Sample refractive index from its patch fields on the two faces.

    n1 = (sign * arccos(ratio) + 2 pi m) / (k0 t) with the ratio and the
    principal complex inverse cosine of ``_index_phase``.
    """
    if sign not in (1, -1):
        raise DomainError(f"sign must be +1 or -1, got {sign}")
    return (sign * _index_phase(state) + 2.0 * math.pi * branch_m) / (k0 * t)


def retrieve_sweep(
    data: list[ScatteringData],
    geometry: DuctGeometry,
    medium: MediumProperties,
    config: RetrievalConfig = RetrievalConfig(),
) -> list[RetrievedProperties]:
    """Retrieve (n1, z1) over an ordered frequency sweep.

    Branch resolution: the first non-degenerate point is assigned branch
    ``config.branch_seed`` (0 if None) with the inverse-cosine sign whose
    n1 best satisfies the sample layer's relation
    p1_in = cos(k0 n1 t) p1_out + i z1 sin(k0 n1 t) u1_out, with the
    retrieved z1 (Re z1 >= 0), so a passive negative-index sample keeps
    Re(n1) < 0; every following point picks the (branch, sign) pair that
    keeps n1 closest to its predecessor.  Each point takes one inverse
    cosine, shared by all its candidates.  Points above the first duct
    cutoff are flagged "above_cutoff"; points where the extraction is
    degenerate are filled by linear interpolation from their neighbours
    and marked with an "interpolated" flag.
    """
    if not data:
        raise DomainError("empty sweep")
    freqs = [d.f for d in data]
    for i, (f1, f2) in enumerate(zip(freqs, freqs[1:]), start=1):
        if f2 <= f1:
            raise DomainError(f"sweep frequencies must be strictly increasing: point {i} "
                              f"(counting from 0) is {f2} Hz, after {f1} Hz")
    if not config.allow_above_cutoff:
        refuse_above_cutoff(freqs, geometry, medium)
    cutoff = first_cutoff_frequency(geometry, medium)

    seed_m = config.branch_seed or 0
    results: list[RetrievedProperties] = []
    prev_n1: complex | None = None
    prev_m, prev_sign = seed_m, 1
    missing: list[int] = []
    q, y = assemble_system(data, geometry, medium, config.n_modes)
    w, cond, residual = solve_fields(q, y, freqs)
    for i, point in enumerate(data):
        state = FieldState(*w[i].tolist())
        flags = ["above_cutoff"] if point.f > cutoff else []
        try:
            z1 = impedance_from_fields(state)
        except DegenerateFieldsError:
            z1 = None
            flags.append("degenerate_impedance")
        try:
            theta = _index_phase(state)
        except DegenerateFieldsError:
            theta = None
            flags.append("degenerate_index")
        if z1 is None or theta is None:
            # filled in later from the neighbours; keeps the last branch
            missing.append(i)
            n1, z1, m, sign = math.nan, math.nan, prev_m, prev_sign
        else:
            k0 = 2.0 * math.pi * point.f / medium.c0
            m_values = (seed_m,) if prev_n1 is None else range(prev_m - 2, prev_m + 3)
            candidates = [((sign * theta + 2.0 * math.pi * m) / (k0 * geometry.t), m, sign)
                          for m in m_values for sign in (1, -1)]
            if prev_n1 is None:
                # the seed branch's two candidates differ in the sign of sin(k0 n1 t),
                # which the sample layer's first row fixes given z1 (Re z1 >= 0)
                n1, m, sign = min(candidates, key=lambda c: abs(
                    np.array(_sample_rows(c[0], z1, k0, geometry.t)[0]) @ w[i]))
            else:
                n1, m, sign = min(candidates, key=lambda c: abs(c[0] - prev_n1))
            prev_n1, prev_m, prev_sign = n1, m, sign
        results.append(RetrievedProperties(
            f=point.f, n1=n1, z1=z1, branch_m=m, sign_choice=sign,
            condition_number=float(cond[i]), residual=float(residual[i]), flags=tuple(flags)))

    _fill_degenerate_points(results, missing)
    return results


def _fill_degenerate_points(results: list[RetrievedProperties], missing: list[int]) -> None:
    """Linear interpolation of n1, z1, in place, over the points at the increasing
    indices ``missing`` from their nearest other points; an edge copies its neighbour."""
    valid = sorted(set(range(len(results))).difference(missing))
    if not valid:
        raise DomainError("every sweep point is degenerate; nothing to interpolate from")
    for i in missing:
        r = results[i]
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
        results[i] = replace(r, n1=n1, z1=z1, flags=r.flags + ("interpolated",))


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
    best_sign = min((1, -1), key=lambda sign: abs(1j * z * cmath.sin(sign * theta) - matrix.m12))
    n = (best_sign * theta + 2.0 * math.pi * branch_m) / (k0 * t)
    return RetrievedProperties(
        f=data.f, n1=n, z1=z, branch_m=branch_m, sign_choice=best_sign
    )


def forward_averaged_sweep(
    n1: complex,
    z1: complex,
    geometry: DuctGeometry,
    medium: MediumProperties,
    freqs: list[float],
    n_modes: int = DEFAULT_MODE_COUNT,
) -> list[ScatteringData]:
    """Scattering data predicted by the averaged interface model over ``freqs``.

    Solves the retrieval's stack of interface systems, but with the sample
    described by its known (n1, z1) layer behaviour instead of a measured
    transfer matrix: rows are the shared interface rows (``_interface_rows``:
    the four duct radiation conditions, with a unit-amplitude blocked-pressure
    drive upstream, and the gap layer) at each point's frequency, then the
    sample layer.  Then

        T = alpha * (u1_out + u2_out) / S2
        R = 1 - alpha * (u1_in + u2_in) / S2

    Feeding the result back through the retrieval reproduces (n1, z1) to
    solver precision, which the test suite exercises heavily.  A zero or
    non-finite n1 or z1 raises DomainError, and a sample phase k0 n1 t
    whose cosine overflows raises IllConditionedSystemError.
    """
    MaterialSpec(n1=n1, z1=z1)
    gap = GapProperties.from_geometry(geometry, medium)
    q = np.empty((len(freqs), 8, 8), dtype=complex)
    for start in range(0, len(freqs), SWEEP_BLOCK):
        block = freqs[start:start + SWEEP_BLOCK]
        q_block = q[start:start + SWEEP_BLOCK]
        _interface_rows(q_block[:, :6], block, geometry, medium, gap, n_modes)
        sample = []
        for f in block:
            k0 = 2.0 * math.pi * f / medium.c0
            try:
                sample.append(_sample_rows(n1, z1, k0, geometry.t))
            except OverflowError as exc:
                raise IllConditionedSystemError(
                    f"the sample's phase k0*n1*t = {k0 * n1 * geometry.t:.4g} overflows at {f} Hz",
                    f) from exc
        q_block[:, 6:] = sample
    y = np.zeros((len(freqs), 8), dtype=complex)
    y[:, :2] = 2.0
    w, _, _ = solve_fields(q, y, freqs)
    alpha = medium.alpha
    # Python complex arithmetic per point: numpy's complex division rounds differently
    return [ScatteringData(f, alpha * (u1_out + u2_out) / geometry.s2,
                           1.0 - alpha * (u1_in + u2_in) / geometry.s2)
            for f, (u1_in, u2_in, u1_out, u2_out) in zip(freqs, w[:, 4:].tolist())]
