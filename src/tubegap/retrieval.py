"""Effective-parameter retrieval for a sample narrower than its duct.

The paper's model couples the patch-averaged pressures p and volume
velocities u on both faces of the sample disk (patch 1) and the air gap
(patch 2) through eight linear equations per frequency.  The scene and a
symmetric reciprocal layer are mirror-symmetric about the sample's
mid-plane, so these split exactly into a mirror-even and a mirror-odd
half.  Each half, driven by a unit blocked pressure, couples the upstream
face's p = (p1, p2) and u = (u1, u2) through the duct radiation rows
p = 1 + C u (``tubegap.modal.coupling_stack``), the gap row with half
impedance Zg+ = -i z2 cot(k0 t/2) or Zg- = i z2 tan(k0 t/2), and a sample
row: the measured (1 - G) P = rho0 c0 (1 + G) V on the area-averaged
totals, G = R + T or R - T, or in the forward model the known sample's
Z1+ = -i z1 cot(theta/2) or Z1- = i z1 tan(theta/2), theta = k0 n1 t.
Rows stay homogeneous (sin(theta/2) p + i z cos(theta/2) u = 0), so no
pole of tan, cot or 1/(1 - G) is divided through.  Substituting
p = 1 + C u leaves a 2x2 system per half, solved by Cramer's rule as
numpy arrays over ``SWEEP_BLOCK`` points at a time.  Then
T = rho0 c0 (U- - U+) / S2 and R = 1 - rho0 c0 (U+ + U-) / S2 with
U = u1 + u2, and the retrieval reads z1^2 = Z1+ Z1- and
tan(theta/2) = -i Z1- / z1 off Z1 = p1 / u1: one arctangent per point.
The sweep driver tracks theta's branch 2 pi m across frequency and
interpolates over isolated degenerate points (half-wave resonances).

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

# largest column-equilibrated condition number of a half system _solve_halves accepts
MAX_CONDITION = 1e12
# sweep points whose couplings and half systems are stacked at once; fixed, so
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
    """Retrieval output for one frequency point.

    condition_number is the relative condition number of (n1, z1) with
    respect to the half reflections G+- = R +- T, the larger over y = n1,
    z1 of sum |dy/dG| |G| / |y| (infinite at degenerate points): roundoff
    eps in (T, R) moves (n1, z1) by about eps times it.  ``MAX_CONDITION``
    bounds another number, each half system's own conditioning.
    """

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
    branch_seed fixes the branch m of the sample's phase at the first
    sweep point; the automatic seed (None) assumes the first point lies on
    branch 0, which holds whenever f_min < c0 / (2 |n1| t).
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


# turns a 2x2 matrix's transposed flip into its adjugate
_ADJUGATE = np.array([[1.0, -1.0], [-1.0, 1.0]])


def _layer_rows(rows: np.ndarray, z, theta) -> None:
    """Write into ``rows``, an (nf, 2, 2) view [point, half, (p, u)] of one
    patch's coefficients, a uniform layer's (impedance z, phase thickness
    theta) homogeneous half rows: sin(theta/2) p + i z cos(theta/2) u = 0
    (even) and cos(theta/2) p - i z sin(theta/2) u = 0 (odd)."""
    half = 0.5 * theta
    s, c = np.sin(half), np.cos(half)
    rows[:, 0, 0], rows[:, 0, 1] = s, 1j * z * c
    rows[:, 1, 0], rows[:, 1, 1] = c, -1j * z * s


def _half_rows(k0: np.ndarray, geometry: DuctGeometry, medium: MediumProperties) -> np.ndarray:
    """The (nf, 2, 2, 4) stack [point, half (even, odd), row, coefficient] of
    each half's rows at the wavenumbers k0, homogeneous in (p1, p2, u1, u2):
    row 0, the sample's, left zero for the caller, and row 1, the gap's."""
    gap = GapProperties.from_geometry(geometry, medium)
    rows = np.zeros((len(k0), 2, 2, 4), dtype=complex)
    _layer_rows(rows[:, :, 1, 1::2], gap.z2, k0 * (gap.n2 * geometry.t))
    return rows


def _measured_rows(data: list[ScatteringData], geometry: DuctGeometry,
                   medium: MediumProperties) -> tuple[np.ndarray, np.ndarray]:
    """``_half_rows`` with the measured rows (1 - G) P - alpha (1 + G) V = 0,
    P = (s1 p1 + s3 p2) / S2 and V = (u1 + u2) / S2, and the (nf, 2) half
    reflections G = R + T (even) and R - T (odd)."""
    s2 = geometry.s2
    gamma = np.array([(d.reflection + d.transmission, d.reflection - d.transmission)
                      for d in data])
    k0 = (2.0 * math.pi / medium.c0) * np.array([d.f for d in data])
    rows = _half_rows(k0, geometry, medium)
    rows[:, :, 0, :2] = (1.0 - gamma)[..., None] * np.array([geometry.s1 / s2, geometry.s3 / s2])
    rows[:, :, 0, 2:] = ((-medium.alpha / s2) * (1.0 + gamma))[..., None]
    return rows, gamma


@np.errstate(all="ignore")
def _solve_halves(rows: np.ndarray, upstream: np.ndarray,
                  freqs: list[float]) -> tuple[np.ndarray, ...]:
    """Solve both mirror halves of every point of a block in one elementwise pass.

    With p = 1 + C u (``upstream`` C), each row a.p + b.u = 0 of ``rows``
    (``_half_rows``' layout) reads (a C + b) u = -(a1 + a2): a 2x2 system
    A u = y per half, column-equilibrated to unit max-norm and solved by
    Cramer's rule.  Returns u [point, half, patch], the response A^-1 [1, 0]
    and per point the larger over its halves of the equilibrated
    sigma_max / sigma_min.  Raises IllConditionedSystemError, naming the
    first failing point, at a zero or non-finite column, a condition number
    above ``MAX_CONDITION`` or a singular half.
    """
    c = upstream[:, None]
    a = (rows[..., 0, None] * c[:, :, None, 0] + rows[..., 1, None] * c[:, :, None, 1]
         + rows[..., 2:])
    size = np.abs(a)
    scale = np.maximum(size[:, :, 0], size[:, :, 1])[:, :, None]
    a /= scale
    det = a[..., 0, 0] * a[..., 1, 1] - a[..., 0, 1] * a[..., 1, 0]
    # sigma_max / sigma_min = r + sqrt(r^2 - 1) with r = |A|_F^2 / (2 |det A|)
    ratio = np.square(size / scale).sum(axis=(2, 3)) / (2.0 * np.abs(det))
    cond = ratio + np.sqrt(np.maximum(ratio * ratio - 1.0, 0.0))
    cond = np.maximum(cond[:, 0], cond[:, 1])
    if not cond.max() <= MAX_CONDITION:
        usable = ((scale > 0) & (scale < math.inf)).all(axis=(1, 2, 3))
        if not usable.all():
            f = freqs[(~usable).argmax()]
            raise IllConditionedSystemError(
                f"interface system has a zero or non-finite column at {f} Hz", f)
        i = (~(cond <= MAX_CONDITION)).argmax()
        raise IllConditionedSystemError(
            f"interface system condition number {cond[i]:.3e} exceeds {MAX_CONDITION:.1e} "
            f"at {freqs[i]} Hz", freqs[i])
    # A^-1 = D^-1 adj(A_eq) / det(A_eq), with D the column scales
    inverse = (a[..., ::-1, ::-1].swapaxes(2, 3) * _ADJUGATE
               / (det[..., None, None] * scale.swapaxes(2, 3)))
    u = -(inverse * (rows[..., 0] + rows[..., 1])[:, :, None]).sum(axis=3)
    if not np.isfinite(u.sum()):
        i = (~np.isfinite(u).all(axis=(1, 2))).argmax()
        raise IllConditionedSystemError(f"interface system is singular at {freqs[i]} Hz", freqs[i])
    return u, inverse[..., 0], cond


def _pressures(rows: np.ndarray, upstream: np.ndarray,
               u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The pressures p = 1 + C u, laid out as u, and per point the larger
    over its halves of |r| / |y| over the four unscaled rows: p - C u = 1
    and the two layer rows a.p + b.u = 0."""
    c = upstream[:, None]
    coupled = c[..., 0] * u[..., 0, None] + c[..., 1] * u[..., 1, None]
    p = 1.0 + coupled
    layer = (rows * np.concatenate([p, u], axis=2)[:, :, None]).sum(axis=3)
    r2 = np.square(np.abs(np.concatenate([(p - coupled) - 1.0, layer], axis=2))).sum(axis=2)
    return p, np.sqrt(0.5 * np.maximum(r2[:, 0], r2[:, 1]))


def impedance_from_fields(state: FieldState) -> complex:
    """Sample impedance from its patch fields on the two faces.

    z1 = sqrt((p_in^2 - p_out^2) / (u_in^2 - u_out^2)), root chosen with
    Re(z1) >= 0 (Im >= 0 breaking ties).  The formula is homogeneous of
    degree zero in the fields and symmetric under swapping the faces.
    Raises DegenerateFieldsError at half-wave resonances, where numerator
    and denominator both vanish.
    """
    num = state.p1_in * state.p1_in - state.p1_out * state.p1_out
    den = state.u1_in * state.u1_in - state.u1_out * state.u1_out
    u_scale = max(abs(state.u1_in), abs(state.u1_out)) ** 2
    if abs(den) <= 1e-6 * u_scale:
        raise DegenerateFieldsError(
            "velocity contrast between the sample faces vanished "
            "(half-wave resonance); impedance is indeterminate here"
        )
    root = cmath.sqrt(num / den)
    return -root if root.real < 0 or (root.real == 0 and root.imag < 0) else root


def index_from_fields(
    state: FieldState,
    k0: float,
    t: float,
    branch_m: int = 0,
    sign: int = 1,
) -> complex:
    """Sample refractive index from its patch fields on the two faces.

    n1 = (sign * arccos(ratio) + 2 pi m) / (k0 t), with the principal
    complex inverse cosine of
    ratio = (p_in u_in + p_out u_out) / (p_in u_out + p_out u_in), the
    sample's phase thickness k0 n1 t up to its sign and branch.  Raises
    DegenerateFieldsError where the ratio's denominator vanishes.
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
    return (sign * cmath.acos(num / den) + 2.0 * math.pi * branch_m) / (k0 * t)


def _point_terms(p: list, u: list, response: list, gamma: list, coupling: list, z1: complex,
                 x: complex, phase: complex, weights: tuple) -> tuple[bool, bool, float, float]:
    """One point's degeneracy flags (impedance, phase) and the factors
    sum |d ln Z1 / dG| |G| and |s| of its condition number; p, u and the
    responses are [even, odd] lists of [patch 1, patch 2].

    Degenerate: a zero or non-finite z1 or phase, or the tests of
    ``impedance_from_fields`` and ``index_from_fields`` on the faces' fields
    (u_in = u+ + u-, u_out = u- - u+), with u_in^2 - u_out^2 = 4 u+ u- and
    p_in u_out + p_out u_in = 2 (p+ u- - p- u+).  Implicitly, du/dG =
    A^-1 [P + alpha V, 0], d ln Z1 = dp1/p1 - du1/u1, d ln z1 is the halves'
    mean d ln Z1 and d theta = s (d ln Z1- - d ln Z1+), s = x Z1+ / (Z1+ - Z1-).
    """
    (pe, po), (ue, uo) = (p[0][0], p[1][0]), (u[0][0], u[1][0])
    u_in, u_out = abs(ue + uo), abs(uo - ue)
    bad_z = (abs(ue * uo) <= 2.5e-7 * max(u_in, u_out) ** 2
             or not (z1 and cmath.isfinite(z1)))
    cross = max(abs(pe + po) * u_out, abs(pe - po) * u_in, 1e-300)
    bad_n = abs(pe * uo - po * ue) <= 5e-13 * cross or not cmath.isfinite(phase)
    s1, s3, k = weights
    spread = 0.0
    for (p1, p2), (u1, u2), (d1, d2), g in zip(p, u, response, gamma):
        drive = s1 * p1 + s3 * p2 + k * (u1 + u2)
        spread += abs(((coupling[0] * d1 + coupling[1] * d2) / p1 - d1 / u1) * drive * g)
    z_even, z_odd = pe / ue, po / uo
    return bad_z, bad_n, spread, abs(x * z_even / (z_even - z_odd))


def retrieve_sweep(
    data: list[ScatteringData],
    geometry: DuctGeometry,
    medium: MediumProperties,
    config: RetrievalConfig = RetrievalConfig(),
) -> list[RetrievedProperties]:
    """Retrieve (n1, z1) over an ordered frequency sweep.

    Each point gives z1 (Re z1 >= 0) and the principal phase
    2 arctan(-i Z1-/z1) of theta = k0 n1 t, whose sign is ``sign_choice``;
    theta = phase + 2 pi m, with m = ``config.branch_seed`` (0 if None) at
    the first non-degenerate point and then the m within two of the
    predecessor's that keeps n1 closest to the predecessor's.  Points above
    the first duct cutoff are flagged "above_cutoff"; degenerate points are
    filled by linear interpolation from their neighbours, flagged "interpolated".
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

    weights = (geometry.s1 / geometry.s2, geometry.s3 / geometry.s2, medium.alpha / geometry.s2)
    seed_m = config.branch_seed or 0
    results: list[RetrievedProperties] = []
    prev_n1: complex | None = None
    prev_m, prev_sign = seed_m, 1
    missing: list[int] = []
    for start in range(0, len(data), SWEEP_BLOCK):
        block = freqs[start:start + SWEEP_BLOCK]
        upstream, _ = coupling_stack(geometry, medium, block, config.n_modes)
        with np.errstate(all="ignore"):
            rows, gamma = _measured_rows(data[start:start + SWEEP_BLOCK], geometry, medium)
            u, response, _ = _solve_halves(rows, upstream, block)
            p, residual = _pressures(rows, upstream, u)
            half_z = p[..., 0] / u[..., 0]
            z1s = np.sqrt(half_z[:, 0] * half_z[:, 1])
            x = -1j * half_z[:, 1] / z1s
            phases = 2.0 * np.arctan(x)
        for f, z1, x_point, phase, *point, res in zip(
                block, z1s.tolist(), x.tolist(), phases.tolist(), p.tolist(), u.tolist(),
                response.tolist(), gamma.tolist(), upstream[:, 0].tolist(), residual.tolist()):
            bad_z, bad_n, spread, slope = _point_terms(*point, z1, x_point, phase, weights)
            flags = [name for name, on in (("above_cutoff", f > cutoff),
                                           ("degenerate_impedance", bad_z),
                                           ("degenerate_index", bad_n)) if on]
            if bad_z or bad_n:
                # filled in later from the neighbours; keeps the last branch
                missing.append(len(results))
                n1, z1, m, sign, cond = math.nan, math.nan, prev_m, prev_sign, math.inf
            else:
                k0t = 2.0 * math.pi * f / medium.c0 * geometry.t
                m = seed_m
                if prev_n1 is not None:
                    nearest = round((prev_n1 * k0t - phase).real / (2.0 * math.pi))
                    m = min(max(nearest, prev_m - 2), prev_m + 2)
                theta = phase + 2.0 * math.pi * m
                n1, sign = theta / k0t, 1 if phase.real >= 0 else -1
                cond = spread * max(0.5, slope / abs(theta)) if theta else math.inf
                prev_n1, prev_m, prev_sign = n1, m, sign
            results.append(RetrievedProperties(
                f=f, n1=n1, z1=z1, branch_m=m, sign_choice=sign, condition_number=cond,
                residual=res, flags=tuple(flags)))

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


def forward_averaged_sweep(
    n1: complex,
    z1: complex,
    geometry: DuctGeometry,
    medium: MediumProperties,
    freqs: list[float],
    n_modes: int = DEFAULT_MODE_COUNT,
) -> list[ScatteringData]:
    """Scattering data predicted by the averaged interface model over ``freqs``.

    Solves the retrieval's half systems with the known (n1, z1) layer's rows
    (``_layer_rows`` at theta = k0 n1 t) in place of the measured ones,
    ``SWEEP_BLOCK`` points at a time; T = alpha (U- - U+) / S2 and
    R = 1 - alpha (U+ + U-) / S2 with U = u1 + u2.  Feeding the result back
    through the retrieval reproduces (n1, z1) to solver precision.  A zero
    or non-finite n1 or z1 raises DomainError, and a sample phase k0 n1 t
    whose cosine overflows raises IllConditionedSystemError.
    """
    MaterialSpec(n1=n1, z1=z1)
    scale = medium.alpha / geometry.s2
    out = []
    for start in range(0, len(freqs), SWEEP_BLOCK):
        block = freqs[start:start + SWEEP_BLOCK]
        upstream, _ = coupling_stack(geometry, medium, block, n_modes)
        k0 = (2.0 * math.pi / medium.c0) * np.array(block)
        rows = _half_rows(k0, geometry, medium)
        with np.errstate(over="ignore", invalid="ignore"):
            _layer_rows(rows[:, :, 0, 0::2], z1, k0 * (n1 * geometry.t))
        u, _, _ = _solve_halves(rows, upstream, block)
        even, odd = u[:, 0, 0] + u[:, 0, 1], u[:, 1, 0] + u[:, 1, 1]
        out += map(ScatteringData, block, (scale * (odd - even)).tolist(),
                   (1.0 - scale * (even + odd)).tolist())
    return out
