"""Effective-parameter retrieval for a sample narrower than its duct.

The paper's model couples the patch-averaged pressures p and volume
velocities u on both faces of the sample disk (patch 1) and the air gap
(patch 2) through eight linear equations per frequency.  The scene and a
symmetric reciprocal layer are mirror-symmetric about the sample's
mid-plane, so these split exactly into a mirror-even and a mirror-odd
half.  Each half, driven by a unit blocked pressure, couples the upstream
face's p = (p1, p2) and u = (u1, u2) through the duct radiation rows
p = 1 + C u (``tubegap.modal.upstream_coupling``), the gap row with half
impedance Zg+ = -i z2 cot(k0 t/2) or Zg- = i z2 tan(k0 t/2), and a sample
row: the measured (1 - G) P = rho0 c0 (1 + G) V on the area-averaged
totals, G = R + T or R - T, or in the forward model the known sample's
Z1+ = -i z1 cot(theta/2) or Z1- = i z1 tan(theta/2), theta = k0 n1 t.
Rows stay homogeneous (sin(theta/2) p + i z cos(theta/2) u = 0), so no
pole of tan, cot or 1/(1 - G) is divided through.  Substituting
p = 1 + C u leaves a 2x2 system per half, solved by Cramer's rule in
plain Python, one point at a time: a point's results do not depend on
its sweep, and the averaged path imports no numpy.  Then
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
import operator
from collections import namedtuple

from tubegap.errors import (DegenerateSampleError, DomainError, IllConditionedSystemError,
                            SingularMeasurementError, TubegapError)
from tubegap.modal import (
    DEFAULT_MODE_COUNT,
    first_cutoff_frequency,
    upstream_coupling,
)
from tubegap.types import (DuctGeometry, GapProperties, MaterialSpec, MediumProperties,
                           ScatteringData)

# largest column-equilibrated condition number of a half system _solve_halves accepts
MAX_CONDITION = 1e12
# largest spacing of floats (ulp, rad) at a layer phase that the model accepts, a
# millionth of pi: past it the phase no longer carries its value modulo 2 pi
MAX_PHASE_ULP = 1e-6 * math.pi
_NAN = complex(math.nan, math.nan)


class DegenerateFieldsError(TubegapError):
    """The field combination needed by an extraction formula vanished."""


class TransferMatrix(namedtuple("TransferMatrix", "m11 m12 m21 m22")):
    """2x2 layer matrix mapping (pressure, velocity) at x=0 to those at x=t.

    m11 and m22 are dimensionless, m12 is a specific impedance (Pa*s/m),
    m21 a specific admittance; velocities are area-averaged particle
    velocities.  A symmetric reciprocal layer has m11 == m22 and unit
    determinant.
    """

    __slots__ = ()

    def determinant(self) -> complex:
        return self.m11 * self.m22 - self.m12 * self.m21


class FieldState(namedtuple("FieldState", "p1_in p2_in p1_out p2_out u1_in u2_in u1_out u2_out")):
    """Patch-averaged interface pressures and volume velocities.

    Suffix ``_in`` refers to the upstream face (x = 0), ``_out`` to the
    downstream face (x = t); patch 1 is the sample disk, patch 2 the air
    gap.  Velocities are volume velocities (m^3/s) measured toward +x.
    """

    __slots__ = ()


class RetrievedProperties(namedtuple(
        "RetrievedProperties",
        "f n1 z1 branch_m sign_choice condition_number residual flags")):
    """Retrieval output for one frequency point: frequency f (Hz), n1, z1,
    the branch m and sign (+-1) of theta = k0 n1 t, then condition_number,
    residual and flags (a tuple of strings).

    condition_number is the relative condition number of (n1, z1) with
    respect to the half reflections G+- = R +- T, the larger over y = n1,
    z1 of sum |dy/dG| |G| / |y| (infinite at degenerate points): roundoff
    eps in (T, R) moves (n1, z1) by about eps times it.  ``MAX_CONDITION``
    bounds another number, each half system's own conditioning.
    """

    __slots__ = ()


class RetrievalConfig(namedtuple("RetrievalConfig", "n_modes branch_seed")):
    """Knobs for the sweep driver.

    n_modes is the modal truncation of the coupling sums, whose
    convergence bound is the constant ``tubegap.modal.SUM_TOLERANCE``.
    branch_seed fixes the branch m of the sample's phase at the first
    sweep point; the automatic seed (None) assumes the first point lies on
    branch 0, which holds whenever f_min < c0 / (2 |n1| t).  A seed must
    be an integer (any type ``operator.index`` takes, but not a bool).
    """

    __slots__ = ()

    def __new__(cls, n_modes: int = DEFAULT_MODE_COUNT, branch_seed: int | None = None):
        if branch_seed is not None:
            if isinstance(branch_seed, bool) or not hasattr(branch_seed, "__index__"):
                raise DomainError(f"branch seed must be an integer, got {branch_seed!r}")
            branch_seed = operator.index(branch_seed)
        return super().__new__(cls, n_modes, branch_seed)


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


def _layer_rows(z, theta) -> tuple[tuple[complex, complex], tuple[complex, complex]]:
    """A uniform layer's (impedance z, phase thickness theta) homogeneous
    half rows as (p, u) coefficients: sin(theta/2) p + i z cos(theta/2) u = 0
    (even) and cos(theta/2) p - i z sin(theta/2) u = 0 (odd).  A phase whose
    sine overflows, or an infinite real one (the gap's k0 t), gives infinite
    rows, which ``_solve_halves`` refuses."""
    half = 0.5 * theta
    try:
        s, c = cmath.sin(half), cmath.cos(half)
    except (OverflowError, ValueError):
        s = c = complex(math.inf, math.inf)
    return (s, 1j * z * c), (c, -1j * z * s)


def _check_phases(f: float, *phases: float) -> None:
    """Raise IllConditionedSystemError naming f if the spacing of floats at
    a finite real phase exceeds ``MAX_PHASE_ULP``; an infinite one is left to
    ``_solve_halves``' non-finite column check."""
    for phase in phases:
        spacing = math.ulp(phase)
        if MAX_PHASE_ULP < spacing < math.inf:
            raise IllConditionedSystemError(
                f"phase {phase:.4g} rad has a float spacing of {spacing:.3g} rad, above "
                f"{MAX_PHASE_ULP:.3g} rad, at {f} Hz")


def _half_rows(sample, k0: float, gap: GapProperties, t: float) -> tuple:
    """Each half's (even, odd) two rows, homogeneous in (p1, p2, u1, u2):
    the sample's, one 4-tuple per half in ``sample``, and the gap's at the
    wavenumber k0."""
    (even_p, even_u), (odd_p, odd_u) = _layer_rows(gap.z2, k0 * t)
    even, odd = sample
    return (even, (0.0, even_p, 0.0, even_u)), (odd, (0.0, odd_p, 0.0, odd_u))


def _measured_rows(data: ScatteringData, geometry: DuctGeometry, medium: MediumProperties,
                   gap: GapProperties, weights: tuple) -> tuple[tuple, tuple[complex, complex]]:
    """``_half_rows`` with the measured rows (1 - G) P - alpha (1 + G) V = 0,
    P = (s1 p1 + s3 p2) / S2 and V = (u1 + u2) / S2, and the half
    reflections G = R + T (even) and R - T (odd); ``weights`` are
    (s1, s3, alpha) / S2."""
    disk, ring, volume = weights
    g_even = data.reflection + data.transmission
    g_odd = data.reflection - data.transmission
    v_even, v_odd = -volume * (1.0 + g_even), -volume * (1.0 + g_odd)
    sample = (((1.0 - g_even) * disk, (1.0 - g_even) * ring, v_even, v_even),
              ((1.0 - g_odd) * disk, (1.0 - g_odd) * ring, v_odd, v_odd))
    k0 = (2.0 * math.pi / medium.c0) * data.f
    _check_phases(data.f, k0 * geometry.t)
    return _half_rows(sample, k0, gap, geometry.t), (g_even, g_odd)


def _solve_halves(rows, upstream, f: float) -> tuple[tuple, tuple, float]:
    """Solve both mirror halves of the point at frequency f.

    With p = 1 + C u (``upstream`` C), each row a.p + b.u = 0 of ``rows``
    (``_half_rows``' layout) reads (a C + b) u = -(a1 + a2): a 2x2 system
    A u = y per half, column-equilibrated to unit max-norm and solved by
    Cramer's rule.  Returns u [half][patch], the responses A^-1 [1, 0] in
    the same layout and the larger over the halves of the equilibrated
    sigma_max / sigma_min.  Raises IllConditionedSystemError naming f at a
    zero or non-finite column, a condition number above ``MAX_CONDITION``
    or a singular half.
    """
    (c00, c01), (c10, c11) = upstream
    u, response, cond = [], [], 0.0
    for (p1, p2, v1, v2), (q1, q2, w1, w2) in rows:
        a00, a01 = p1 * c00 + p2 * c10 + v1, p1 * c01 + p2 * c11 + v2
        a10, a11 = q1 * c00 + q2 * c10 + w1, q1 * c01 + q2 * c11 + w2
        try:
            h00, h01, h10, h11 = abs(a00), abs(a01), abs(a10), abs(a11)
        except OverflowError:  # a magnitude beyond the float range
            h00 = h01 = h10 = h11 = math.inf
        # the column scales; every entry must be finite and no column zero
        s0 = h00 if h00 > h10 else h10
        s1 = h01 if h01 > h11 else h11
        if not (s0 > 0.0 and s1 > 0.0 and math.isfinite(h00 + h01 + h10 + h11)):
            raise IllConditionedSystemError(
                f"interface system has a zero or non-finite column at {f} Hz")
        a00, a01, a10, a11 = a00 / s0, a01 / s1, a10 / s0, a11 / s1
        det = a00 * a11 - a01 * a10
        if not det:
            cond = math.inf
            u.append((math.nan, math.nan))
            continue
        # sigma_max / sigma_min = r + sqrt(r^2 - 1) with r = |A|_F^2 / (2 |det A|)
        h00, h01, h10, h11 = h00 / s0, h01 / s1, h10 / s0, h11 / s1
        ratio = (h00 * h00 + h01 * h01 + h10 * h10 + h11 * h11) / (2.0 * abs(det))
        cond = max(cond, ratio + math.sqrt(max(ratio * ratio - 1.0, 0.0)))
        # A^-1 = D^-1 adj(A_eq) / det(A_eq), with D the column scales
        inverse = 1.0 / det
        i00, i01 = a11 * inverse / s0, -a01 * inverse / s0
        i10, i11 = -a10 * inverse / s1, a00 * inverse / s1
        y0, y1 = p1 + p2, q1 + q2
        u.append((-(i00 * y0 + i01 * y1), -(i10 * y0 + i11 * y1)))
        response.append((i00, i10))
    if not cond <= MAX_CONDITION:
        raise IllConditionedSystemError(
            f"interface system condition number {cond:.3e} exceeds {MAX_CONDITION:.1e} "
            f"at {f} Hz")
    (u0, u1), (u2, u3) = u
    if not cmath.isfinite(u0 + u1 + u2 + u3):
        raise IllConditionedSystemError(f"interface system is singular at {f} Hz")
    return tuple(u), tuple(response), cond


def _pressures(rows, upstream, u) -> tuple[tuple, float]:
    """The pressures p = 1 + C u, laid out as u, and the larger over the
    halves of |r| / |y| over the four unscaled rows: p - C u = 1 and the two
    layer rows a.p + b.u = 0."""
    (c00, c01), (c10, c11) = upstream
    p, worst = [], 0.0
    for ((a1, a2, b1, b2), (e1, e2, g1, g2)), (u1, u2) in zip(rows, u):
        coupled1, coupled2 = c00 * u1 + c01 * u2, c10 * u1 + c11 * u2
        p1, p2 = 1.0 + coupled1, 1.0 + coupled2
        m1, m2 = abs((p1 - coupled1) - 1.0), abs((p2 - coupled2) - 1.0)
        m3 = abs(a1 * p1 + a2 * p2 + b1 * u1 + b2 * u2)
        m4 = abs(e1 * p1 + e2 * p2 + g1 * u1 + g2 * u2)
        worst = max(worst, m1 * m1 + m2 * m2 + m3 * m3 + m4 * m4)
        p.append((p1, p2))
    return tuple(p), math.sqrt(0.5 * worst)


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


def _point_terms(p, u, response, gamma, coupling, weights: tuple) -> tuple:
    """One point's z1 = sqrt(Z1+ Z1-), principal phase 2 arctan(x) with
    x = -i Z1- / z1, degeneracy flags (impedance, phase), and the factors
    sum |d ln Z1 / dG| |G| and |s| of its condition number (infinite at a
    degenerate point); p, u and the responses are [even, odd] pairs of
    [patch 1, patch 2], ``coupling`` the first row of the upstream couplings.

    Degenerate: a zero or non-finite z1 or phase, or the tests of
    ``impedance_from_fields`` and ``index_from_fields`` on the faces' fields
    (u_in = u+ + u-, u_out = u- - u+), with u_in^2 - u_out^2 = 4 u+ u- and
    p_in u_out + p_out u_in = 2 (p+ u- - p- u+).  Implicitly, du/dG =
    A^-1 [P + alpha V, 0], d ln Z1 = dp1/p1 - du1/u1, d ln z1 is the halves'
    mean d ln Z1 and d theta = s (d ln Z1- - d ln Z1+), s = x Z1+ / (Z1+ - Z1-).
    """
    (pe, pe2), (po, po2) = p
    (ue, ue2), (uo, uo2) = u
    try:
        z_even, z_odd = pe / ue, po / uo
        z1 = cmath.sqrt(z_even * z_odd)
        x = -1j * z_odd / z1
    except ZeroDivisionError:  # a zero velocity or z1: degenerate
        z_even = z_odd = z1 = x = _NAN
    try:
        phase = 2.0 * cmath.atan(x)
    except ValueError:  # x = +-i, the poles of arctan
        phase = _NAN
    u_in, u_out = abs(ue + uo), abs(uo - ue)
    bad_z = (abs(ue * uo) <= 2.5e-7 * max(u_in, u_out) ** 2
             or not (z1 and cmath.isfinite(z1)))
    cross = max(abs(pe + po) * u_out, abs(pe - po) * u_in, 1e-300)
    bad_n = abs(pe * uo - po * ue) <= 5e-13 * cross or not cmath.isfinite(phase)
    if bad_z or bad_n:
        return z1, phase, bad_z, bad_n, math.inf, math.inf
    s1, s3, k = weights
    c1, c2 = coupling
    (de, de2), (do, do2) = response
    g_even, g_odd = gamma
    spread = (abs(((c1 * de + c2 * de2) / pe - de / ue) * (s1 * pe + s3 * pe2 + k * (ue + ue2))
                  * g_even)
              + abs(((c1 * do + c2 * do2) / po - do / uo) * (s1 * po + s3 * po2 + k * (uo + uo2))
                    * g_odd))
    difference = z_even - z_odd
    return z1, phase, False, False, spread, abs(x * z_even / difference) if difference else math.inf


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
    the first non-degenerate point and then the m that keeps n1 closest to
    the predecessor's, however many branches the step crosses.  Points above
    the first duct cutoff are retrieved, flagged "above_cutoff"; degenerate
    points are filled by linear interpolation from their neighbours, flagged
    "interpolated".  A gap phase k0 t or a theta whose float spacing exceeds
    ``MAX_PHASE_ULP`` raises IllConditionedSystemError naming the point's f.
    """
    if not data:
        raise DomainError("empty sweep")
    freqs = [d.f for d in data]
    for i, (f1, f2) in enumerate(zip(freqs, freqs[1:]), start=1):
        if f2 <= f1:
            raise DomainError(f"sweep frequencies must be strictly increasing: point {i} "
                              f"(counting from 0) is {f2} Hz, after {f1} Hz")
    cutoff = first_cutoff_frequency(geometry, medium)

    weights = (geometry.s1 / geometry.s2, geometry.s3 / geometry.s2, medium.alpha / geometry.s2)
    gap = GapProperties.from_geometry(geometry, medium)
    seed_m = config.branch_seed or 0
    results: list[RetrievedProperties] = []
    prev_n1: complex | None = None
    prev_m, prev_sign = seed_m, 1
    missing: list[int] = []
    for point in data:
        f = point.f
        upstream, _ = upstream_coupling(geometry, medium, f, config.n_modes)
        rows, gamma = _measured_rows(point, geometry, medium, gap, weights)
        u, response, _ = _solve_halves(rows, upstream, f)
        p, residual = _pressures(rows, upstream, u)
        z1, phase, bad_z, bad_n, spread, slope = _point_terms(p, u, response, gamma,
                                                              upstream[0], weights)
        flags = ("above_cutoff",) if f > cutoff else ()
        if bad_z or bad_n:
            flags += ("degenerate_impedance",) if bad_z else ()
            flags += ("degenerate_index",) if bad_n else ()
            # filled in later from the neighbours; keeps the last branch
            missing.append(len(results))
            n1, z1, m, sign, cond = math.nan, math.nan, prev_m, prev_sign, math.inf
        else:
            k0t = 2.0 * math.pi * f / medium.c0 * geometry.t
            m = seed_m
            if prev_n1 is not None:
                m = round((prev_n1 * k0t - phase).real / (2.0 * math.pi))
            theta = phase + 2.0 * math.pi * m
            _check_phases(f, theta.real)
            n1, sign = theta / k0t, 1 if phase.real >= 0 else -1
            cond = spread * max(0.5, slope / abs(theta)) if theta else math.inf
            prev_n1, prev_m, prev_sign = n1, m, sign
        results.append(RetrievedProperties(f, n1, z1, m, sign, cond, residual, flags))

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
        results[i] = r._replace(n1=n1, z1=z1, flags=r.flags + ("interpolated",))


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
    (``_layer_rows`` at theta = k0 n1 t) in place of the measured ones, one
    point at a time; T = alpha (U- - U+) / S2 and R = 1 - alpha (U+ + U-) / S2
    with U = u1 + u2.  Feeding the result back through the retrieval
    reproduces (n1, z1) to solver precision.  A zero or non-finite n1 or z1
    raises DomainError; a sample phase k0 n1 t whose cosine overflows, or a
    real part of it or a gap phase k0 t whose float spacing exceeds
    ``MAX_PHASE_ULP``, raises IllConditionedSystemError.
    """
    MaterialSpec(n1=n1, z1=z1)
    scale = medium.alpha / geometry.s2
    gap, t = GapProperties.from_geometry(geometry, medium), geometry.t
    out = []
    for f in freqs:
        upstream, _ = upstream_coupling(geometry, medium, f, n_modes)
        k0 = (2.0 * math.pi / medium.c0) * f
        theta = k0 * (n1 * t)
        _check_phases(f, theta.real, k0 * t)
        (even_p, even_u), (odd_p, odd_u) = _layer_rows(z1, theta)
        rows = _half_rows(((even_p, 0.0, even_u, 0.0), (odd_p, 0.0, odd_u, 0.0)), k0, gap, t)
        u, _, _ = _solve_halves(rows, upstream, f)
        even, odd = u[0][0] + u[0][1], u[1][0] + u[1][1]
        out.append(ScatteringData(f, scale * (odd - even), 1.0 - scale * (even + odd)))
    return out
