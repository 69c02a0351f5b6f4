"""Acceptance suite: one test per criterion, at the stated tolerances.

Criteria 1, 2, 6 and 7 feed the independent finite-difference simulation
of the physical scene into the model-based retrieval.

Criteria 1 and 2 are implemented faithfully at their stated 1%/2%
tolerances and are expected to FAIL: the median n1 error is about 16%
(sample 1) and 15% (sample 2), and it is systematic (16% already at
300 Hz).  Two independent solutions of the scene, the grid solver and a
continuum mode-matching expansion (tests/mm_reference.py, closed-form
radial integrals, mode counts in proportion to the region widths),
agree with each other in (T, R) to 2.8e-4 (300 Hz) to 2.9e-3 (2500 Hz)
on sample 1 and 2.7e-4 to 2.5e-3 on sample 2, while the
averaged interface model sits 3.5e-3 (300 Hz) to 6e-2 (2500 Hz) away
from them; the retrieval's thin-sample sensitivity turns that into the
~16% parameter offset.  The model's piston-averaged interface coupling
is an approximation, not exact physics, at these sample parameters.
Criterion 3 requires the same default retrieval to invert the averaged
model to 1e-8, so no change to that retrieval can pass criteria 1-2 as
well; closing them needs a separate exact-scene retrieval path.  See
tests/test_fdfd.py::TestScenePhysics::test_matches_mode_matching_reference
for the referee measurement.

Criterion 6 passes: the simulator's exact discrete modal terminations
return nothing into the scene, so the lossless sweeps conserve energy
to roundoff and the retrieved Im(n1) stays at the 1e-11 level.
"""

import cmath
import math
import statistics
import time

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import j0 as scipy_j0, j1 as scipy_j1

from tubegap.fdfd import build_scene, solve_sweep
from tubegap.modal import coupling_coefficients, duct_wavenumbers, radial_integral
from tubegap.retrieval import (
    FieldState,
    forward_averaged_sweep,
    impedance_from_fields,
    index_from_fields,
    retrieve_sweep,
    tr_from_transfer_matrix,
    transfer_matrix_from_tr,
)
from tubegap.types import (
    DuctGeometry,
    GapProperties,
    MaterialSpec,
    MediumProperties,
    ScatteringData,
)

MEDIUM = MediumProperties(rho0=1.21, c0=343.0)
SAMPLE1 = DuctGeometry(r1=0.040, r2=0.070, t=0.0052)
SAMPLE2 = DuctGeometry(r1=0.051, r2=0.070, t=0.008)
SWEEP = [float(f) for f in np.linspace(300.0, 2500.0, 45)]


def z2_of(geometry):
    return GapProperties.from_geometry(geometry, MEDIUM).z2.real


def report(criterion: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}", flush=True)


def fdfd_roundtrip(geometry, n1_true, z_ratio_true):
    z2 = z2_of(geometry)
    material = MaterialSpec(n1=n1_true + 0j, z1=z_ratio_true * z2 + 0j)
    scene = build_scene(material, geometry, max(SWEEP), medium=MEDIUM)
    data = solve_sweep(scene, SWEEP)
    results = retrieve_sweep(data, geometry, MEDIUM)
    clean = [r for r in results if "interpolated" not in r.flags]
    n_errs = [abs(r.n1.real - n1_true) / n1_true for r in clean]
    z_errs = [abs(abs(r.z1 / z2) - z_ratio_true) / z_ratio_true for r in clean]
    return results, data, n_errs, z_errs


@pytest.fixture(scope="module")
def sample1_fdfd():
    start = time.monotonic()
    out = fdfd_roundtrip(SAMPLE1, 5.0, 15.0)
    return (*out, time.monotonic() - start)


@pytest.fixture(scope="module")
def sample2_fdfd():
    return fdfd_roundtrip(SAMPLE2, 7.0, 10.0)


def test_criterion_1_sample1_fdfd_roundtrip(sample1_fdfd):
    """Sample 1 (r1=40mm, t=5.2mm, n1=5, z1/z2=15): median <= 1%, max <= 2%."""
    results, data, n_errs, z_errs, elapsed = sample1_fdfd
    med_n, med_z = statistics.median(n_errs), statistics.median(z_errs)
    max_n, max_z = max(n_errs), max(z_errs)
    ok = med_n <= 0.01 and med_z <= 0.01 and max_n <= 0.02 and max_z <= 0.02
    detail = (
        f"n1 median {med_n:.3%} / max {max_n:.3%}, |z1/z2| median {med_z:.3%} / "
        f"max {max_z:.3%}, runtime {elapsed:.0f}s"
    )
    report("1 (sample-1 FDFD round trip)", ok, detail)
    assert elapsed <= 600.0, f"runtime bound exceeded: {elapsed:.0f}s"
    assert ok, (
        f"{detail}. The retrieval reproduces the averaged interface model "
        "exactly (criterion 3), but the model's piston-averaged radiation "
        "coupling deviates from exact scene physics at these parameters; an "
        "independent mode-matching solution confirms the simulated (T, R) "
        "to 3e-4-3e-3 while the model sits 3.5e-3-6e-2 away. See the "
        "module docstring."
    )


def test_criterion_2_sample2_fdfd_roundtrip(sample2_fdfd):
    """Sample 2 (r1=51mm, t=8mm, n1=7, z1/z2=10): same bounds."""
    results, data, n_errs, z_errs = sample2_fdfd
    med_n, med_z = statistics.median(n_errs), statistics.median(z_errs)
    max_n, max_z = max(n_errs), max(z_errs)
    ok = med_n <= 0.01 and med_z <= 0.01 and max_n <= 0.02 and max_z <= 0.02
    detail = (
        f"n1 median {med_n:.3%} / max {max_n:.3%}, |z1/z2| median {med_z:.3%} / "
        f"max {max_z:.3%}"
    )
    report("2 (sample-2 FDFD round trip)", ok, detail)
    assert ok, f"{detail}. Same root cause as criterion 1; see module docstring."


def test_criterion_3_averaged_self_consistency():
    """retrieve(forward_averaged) == identity to 1e-8 for 50 random draws."""
    z2 = z2_of(SAMPLE1)
    rng = np.random.default_rng(321)
    start = time.monotonic()
    worst = 0.0
    for _ in range(50):
        n1 = rng.uniform(1.0, 10.0) * (1.0 - 1j * rng.uniform(0.0, 0.2))
        z1 = rng.uniform(0.5, 20.0) * z2
        f = float(rng.uniform(300.0, 2800.0))
        data = forward_averaged_sweep(n1, z1, SAMPLE1, MEDIUM, [f])
        r = retrieve_sweep(data, SAMPLE1, MEDIUM)[0]
        worst = max(worst, abs(r.n1 - n1) / abs(n1), abs(r.z1 - z1) / abs(z1))
    elapsed = time.monotonic() - start
    ok = worst < 1e-8 and elapsed <= 5.0
    report("3 (averaged self-consistency)", ok,
           f"worst relative error {worst:.2e}, runtime {elapsed:.2f}s")
    assert worst < 1e-8
    assert elapsed <= 5.0


def test_criterion_4_air_sample():
    """Air sample: averaged path to 1e-6, simulated path to 0.5%."""
    z_air = MEDIUM.alpha / SAMPLE1.s1
    freqs = [float(f) for f in np.linspace(300.0, 2500.0, 12)]
    avg = retrieve_sweep(
        forward_averaged_sweep(1.0, z_air, SAMPLE1, MEDIUM, freqs), SAMPLE1, MEDIUM
    )
    worst_avg = max(
        max(abs(r.n1 - 1.0), abs(r.z1 * SAMPLE1.s1 / MEDIUM.alpha - 1.0)) for r in avg
    )

    air = MaterialSpec.air(SAMPLE1, MEDIUM)
    scene = build_scene(air, SAMPLE1, max(freqs), medium=MEDIUM)
    data = solve_sweep(scene, freqs)
    sim = retrieve_sweep(data, SAMPLE1, MEDIUM)
    worst_sim = max(
        max(abs(r.n1 - 1.0), abs(r.z1 * SAMPLE1.s1 / MEDIUM.alpha - 1.0)) for r in sim
    )
    ok = worst_avg < 1e-6 and worst_sim < 5e-3
    report("4 (air sample)", ok,
           f"averaged worst {worst_avg:.2e} (bound 1e-6), simulated worst "
           f"{worst_sim:.2e} (bound 5e-3)")
    assert worst_avg < 1e-6
    assert worst_sim < 5e-3


def test_criterion_5_invariant_suite():
    """Structural identities at their stated tolerances."""
    failures = []

    coup = coupling_coefficients(SAMPLE1, MEDIUM, 1000.0)
    up, down = coup.upstream, coup.downstream
    if not abs(up[0, 1] - up[1, 0]) <= 1e-12 * abs(up[0, 1]):
        failures.append("B != C")
    if not abs(down[0, 1] - down[1, 0]) <= 1e-12 * abs(down[0, 1]):
        failures.append("F != G")
    if not np.all(np.abs(up + down) <= 1e-12 * np.abs(up)):
        failures.append("E..H != -(A..D)")

    plane = coupling_coefficients(SAMPLE1, MEDIUM, 1000.0, n_modes=1)
    target = -MEDIUM.alpha / SAMPLE1.s2
    if not np.all(np.abs(plane.upstream - target) <= 1e-12 * abs(target)):
        failures.append("plane-wave truncation closed form")

    rng = np.random.default_rng(55)
    for _ in range(20):
        a = rng.uniform(0.0, 0.05)
        b = a + rng.uniform(0.005, 0.05)
        k = rng.uniform(0.5, 400.0)
        ref, _ = quad(lambda r: scipy_j0(k * r) * r, a, b, epsabs=1e-14, epsrel=1e-13)
        if abs(radial_integral(k, a, b) - ref) > 1e-8 * max(abs(ref), 1e-12):
            failures.append(f"radial integral mismatch at k={k:.2f}")
            break

    roots = duct_wavenumbers(SAMPLE1, 21).k[1:] * SAMPLE1.r2
    if any(abs(scipy_j1(x)) >= 1e-12 for x in roots):
        failures.append("Bessel root residual >= 1e-12")

    for _ in range(100):
        t_c = complex(rng.normal(), rng.normal()) * 0.5
        if abs(t_c) < 1e-3:
            continue
        r_c = complex(rng.normal(), rng.normal()) * 0.4
        m = transfer_matrix_from_tr(
            ScatteringData(f=800.0, transmission=t_c, reflection=r_c), MEDIUM
        )
        if abs(m.m11 - m.m22) > 1e-10 * max(abs(m.m11), 1.0) or abs(m.determinant() - 1) > 1e-10:
            failures.append("transfer-matrix constraints")
            break
        t_back, r_back = tr_from_transfer_matrix(m, MEDIUM)
        if abs(t_back - t_c) > 1e-10 or abs(r_back - r_c) > 1e-10:
            failures.append("transfer-matrix round trip")
            break

    z2 = z2_of(SAMPLE1)
    sweep = forward_averaged_sweep(4.0, 9.0 * z2, SAMPLE1, MEDIUM, [700.0, 1900.0])
    for r in retrieve_sweep(sweep, SAMPLE1, MEDIUM):
        if not r.residual < 1e-10:
            failures.append(f"solver residual {r.residual:.1e} at {r.f} Hz")

    theta, z1 = 1.1, 2.4 - 0.3j
    p_out, u_out = 1.0 + 0.2j, 0.35 - 0.15j
    base = FieldState(
        p1_in=cmath.cos(theta) * p_out + 1j * z1 * cmath.sin(theta) * u_out,
        p2_in=0.0, p1_out=p_out, p2_out=0.0,
        u1_in=1j / z1 * cmath.sin(theta) * p_out + cmath.cos(theta) * u_out,
        u2_in=0.0, u1_out=u_out, u2_out=0.0,
    )
    z_ref = impedance_from_fields(base)
    n_ref = index_from_fields(base, k0=1.0, t=1.1)
    for _ in range(10):
        s = complex(rng.normal(), rng.normal())
        if abs(s) < 1e-3:
            continue
        scaled = FieldState(
            *(getattr(base, name) * s
              for name in ("p1_in", "p2_in", "p1_out", "p2_out",
                           "u1_in", "u2_in", "u1_out", "u2_out"))
        )
        if abs(impedance_from_fields(scaled) - z_ref) > 1e-10 * abs(z_ref):
            failures.append("impedance scale invariance")
            break
        if abs(index_from_fields(scaled, k0=1.0, t=1.1) - n_ref) > 1e-10 * abs(n_ref):
            failures.append("index scale invariance")
            break

    ok = not failures
    report("5 (invariant suite)", ok, "all identities hold" if ok else "; ".join(failures))
    assert ok, failures


def test_criterion_6_energy_and_passivity(sample1_fdfd, sample2_fdfd):
    """Lossless FDFD energy within 5e-3; |Im(n1)| <= 1e-9 on acceptance sweeps.

    Under exp(+i w t) a passive sample has Im(n1) <= 0, so on these
    lossless sweeps the lower bound rules out spurious absorption and the
    upper bound rules out gain (a passivity violation).
    """
    results1, data1, *_ = sample1_fdfd
    results2, data2, *_ = sample2_fdfd
    energy_defect = max(
        abs(abs(d.transmission) ** 2 + abs(d.reflection) ** 2 - 1.0)
        for d in data1 + data2
    )
    energy_ok = energy_defect < 5e-3

    z_air = MEDIUM.alpha / SAMPLE1.s1
    averaged_air = retrieve_sweep(
        forward_averaged_sweep(1.0, z_air, SAMPLE1, MEDIUM, SWEEP[:10]), SAMPLE1, MEDIUM
    )
    worst_im = min(
        min(r.n1.imag for r in results1),
        min(r.n1.imag for r in results2),
        min(r.n1.imag for r in averaged_air),
    )
    max_im = max(
        max(r.n1.imag for r in results1),
        max(r.n1.imag for r in results2),
        max(r.n1.imag for r in averaged_air),
    )
    passivity_ok = worst_im >= -1e-9
    no_gain_ok = max_im <= 1e-9
    ok = energy_ok and passivity_ok and no_gain_ok
    report("6 (energy/passivity)", ok,
           f"max energy defect {energy_defect:.2e} (bound 5e-3), "
           f"min Im(n1) {worst_im:.2e} (bound -1e-9), "
           f"max Im(n1) {max_im:.2e} (bound +1e-9)")
    assert energy_ok, f"energy defect {energy_defect:.2e}"
    assert passivity_ok, (
        f"min Im(n1) = {worst_im:.2e} < -1e-9: spurious absorption retrieved "
        "from a lossless sample; the sweeps' energy defect is "
        f"{energy_defect:.2e}, and the thin sample amplifies any defect in "
        "(T, R) about 250-fold in Im(n1)."
    )
    assert no_gain_ok, (
        f"max Im(n1) = {max_im:.2e} > +1e-9: the retrieval reports gain "
        "(a passivity violation) for a lossless sample; the sweeps' energy "
        f"defect is {energy_defect:.2e}."
    )


def test_criterion_7_branch_continuity(sample1_fdfd, sample2_fdfd):
    """No unwrapped index jump above pi/(k0 t)/2 between adjacent points."""
    worst_margin = math.inf
    for geometry, results in ((SAMPLE1, sample1_fdfd[0]), (SAMPLE2, sample2_fdfd[0])):
        for prev, cur in zip(results, results[1:]):
            k0 = 2 * math.pi * cur.f / MEDIUM.c0
            bound = math.pi / (k0 * geometry.t) / 2
            jump = abs(cur.n1 - prev.n1)
            worst_margin = min(worst_margin, bound - jump)
            assert jump <= bound, f"jump {jump:.3f} exceeds {bound:.3f} at {cur.f} Hz"
    report("7 (branch continuity)", True, f"worst margin to the bound {worst_margin:.2f}")
