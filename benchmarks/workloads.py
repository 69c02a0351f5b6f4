"""The three benchmark workloads: seeded inputs, timed work, correctness gates.

Each workload turns ``--seed`` into fresh inputs for every round (config
files or argument values), runs the round through tubegap's public API
or its CLI, and then checks the round's outputs.  ``run`` returns the
seconds the program worked, one entry per stretch of work between the
pauses it makes (where the runner probes the machine's speed);
``inputs`` and ``check`` run outside the clock.  Each CLI command runs
in a fresh process (``cli_child.py``), the way a user runs ``tubegap``,
so nothing the program keeps in memory is shared between commands or
rounds.

Why each workload exists:

* ``sweep_averaged`` -- the CLI round trip on sample 1 (45 points): the
  main end-to-end run, dominated by the modal coupling coefficients.
  Every point shares one geometry, so per-geometry caching shows here.
* ``draws_averaged`` -- single-point round trips, each with a fresh
  geometry, material and frequency: the same modal work with nothing
  shared between points, so per-geometry caching and frequency batching
  are bypassed (the predicted change for them is none).
* ``sweep_fdfd`` -- the CLI simulator forward sweep plus retrieval on
  sample 1: sparse LU factorization dominates, so PML, ordering and
  memory changes show here, with both averaged workloads as controls.
"""

from __future__ import annotations

import cmath
import contextlib
import io
import json
import math
import resource
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from tracing import Tracer, Wrappers
from tubegap import cli, retrieval
from tubegap.datafiles import read_results_csv, read_tr_csv
from tubegap.errors import ConvergenceError, TubegapError
from tubegap.modal import DEFAULT_MODE_COUNT
from tubegap.types import DuctGeometry, MediumProperties

RHO0, C0 = 1.21, 343.0
SAMPLE1 = {"r1": 0.040, "r2": 0.070, "t": 0.0052}
BAND = (300.0, 2500.0)
GRID_STEP = 50.0          # the 45-point sample-1 sweep: 300, 350, ..., 2500 Hz

REL_TOL = 1e-8            # acceptance criterion 3 (averaged round trip)
TR_TOL = 1e-6             # allowed (T, R) movement for FDFD setting changes
ENERGY_TOL = 5e-3         # acceptance criterion 6 (lossless energy defect)

# The default 64-mode truncation stops converging at r1/r2 = 0.92 (first
# ConvergenceError in a scan of r1/r2 from 0.895 in steps of 0.0025, at
# 100 Hz to 95% of the duct cutoff).  draws_averaged accepts that error at
# or above this ratio as the program refusing the input, and then does what
# the error asks: it runs the draw again at twice the truncation, which
# converges over the whole draw range.  Anywhere else an error is a gate miss.
CONVERGENCE_RATIO = 0.915
RETRY_MODES = 2 * DEFAULT_MODE_COUNT
GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0

BENCH = Path(__file__).resolve().parent
REFERENCE = BENCH / "reference" / "sample1_fdfd_tr.csv"
CHILD = BENCH / "cli_child.py"


@dataclass
class Outcome:
    """Checked result of one round."""

    points: int
    failed: int = 0                                   # raised an error or missed a gate
    refused: int = 0                                  # passed, but only on a retry
    misses: list[str] = field(default_factory=list)   # wrong or missing outputs
    errors: dict[str, int] = field(default_factory=dict)


def gap_impedance(r1: float, r2: float) -> float:
    """rho0 c0 / S3: plane-wave volume-velocity impedance of the air gap."""
    return RHO0 * C0 / (math.pi * (r2 * r2 - r1 * r1))


def write_config(path: Path, values: dict[str, object]) -> Path:
    path.write_text("".join(f"{key} = {value!r}\n" for key, value in values.items()))
    return path


def run_cli(argv: list[str]) -> tuple[int, str]:
    """Run the CLI in process, keeping its console output out of ours."""
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        code = cli.main(argv)
    return code, sink.getvalue()


def process_peak_rss_mb() -> float:
    """Peak resident memory of this process's own program image.

    Linux carries the parent's peak over into a child's ru_maxrss when the
    child execs, so a small child would report its parent's size; the
    VmHWM line of /proc/self/status counts only the memory mapped since.
    """
    try:
        for line in Path("/proc/self/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_child(argv: list[str], tracer: Tracer | None = None) -> dict:
    """One CLI command in a fresh process; its spans go to `tracer`, if given."""
    proc = subprocess.run([sys.executable, str(CHILD), "1" if tracer else "0", *argv],
                          capture_output=True, text=True, timeout=170)
    if proc.returncode != 0:
        raise RuntimeError(f"tubegap {argv[0]} crashed: {proc.stderr.strip()[-2000:]}")
    child = json.loads(proc.stdout.strip().splitlines()[-1])
    if tracer is not None:
        tracer.merge(child["spans"], child["counts"])
    return child


def _rel(a: complex, b: complex) -> float:
    return abs(a - b) / abs(b)


def check_properties(rows, freqs, n1, z1) -> list[str]:
    """Retrieved rows (dicts with f, n1, z1) against the generating values."""
    by_f = {r["f"]: r for r in rows}
    misses = [] if len(by_f) == len(rows) == len(freqs) else [
        f"results hold {len(rows)} rows for {len(freqs)} frequencies"]
    for f in freqs:
        r = by_f.get(f)
        if r is None:
            misses.append(f"{f} Hz: missing from the results")
            continue
        err = max(_rel(r["n1"], n1), _rel(r["z1"], z1))
        if not err <= REL_TOL:
            misses.append(f"{f} Hz: relative error {err:.2e} > {REL_TOL:.0e}")
    return misses


def read_reference(path: Path = REFERENCE) -> dict[float, tuple[complex, complex]]:
    """(T, R) by frequency from the recorded FDFD reference sweep."""
    table = {}
    for line in path.read_text().splitlines():
        if not line or line.startswith("#") or line.startswith("f_hz"):
            continue
        f, re_t, im_t, re_r, im_r = (float(x) for x in line.split(","))
        table[f] = (complex(re_t, im_t), complex(re_r, im_r))
    return table


def check_scattering(data, freqs, reference) -> list[str]:
    """FDFD (T, R) against the reference, plus the lossless energy balance."""
    by_f = {d.f: d for d in data}
    misses = [] if len(by_f) == len(data) == len(freqs) else [
        f"forward file holds {len(data)} rows for {len(freqs)} frequencies"]
    for f in freqs:
        d = by_f.get(f)
        if d is None or f not in reference:
            misses.append(f"{f} Hz: missing from the forward file or the reference")
            continue
        t_ref, r_ref = reference[f]
        dev = max(abs(d.transmission - t_ref), abs(d.reflection - r_ref))
        if not dev <= TR_TOL:
            misses.append(f"{f} Hz: (T, R) moved {dev:.2e} from the reference")
        defect = abs(abs(d.transmission) ** 2 + abs(d.reflection) ** 2 - 1.0)
        if not defect <= ENERGY_TOL:
            misses.append(f"{f} Hz: energy defect {defect:.2e} > {ENERGY_TOL:.0e}")
    return misses


@dataclass(frozen=True)
class CliRound:
    """Inputs of one CLI round: its config file and what the outputs must hold."""

    config: Path
    freqs: list[float]
    n1: complex = 0j
    z1: complex = 0j


class _CliSweep:
    """A CLI forward sweep then retrieval, one fresh process per command."""

    name = ""
    method = ""

    def __init__(self, seed: int, workdir: Path, points: int) -> None:
        self.rng = np.random.default_rng(seed)
        self.workdir = workdir
        self.points = points
        self.tr = workdir / f"{self.name}_tr.csv"
        self.props = workdir / f"{self.name}_props.csv"
        self._peak_rss_mb = 0.0

    def config(self, k: int, values: dict[str, object]) -> Path:
        return write_config(self.workdir / f"{self.name}_{k}.cfg", values)

    def run(self, rnd: CliRound, tracer: Tracer | None = None, pause=None):
        """Seconds each command took, and each command's (exit code, output).

        `pause`, if given, is called between the two commands.
        """
        for path in (self.tr, self.props):
            path.unlink(missing_ok=True)
        cfg = str(rnd.config)
        seconds, result = [], []
        for argv in (["forward", "--config", cfg, "--method", self.method,
                      "--output", str(self.tr)],
                     ["retrieve", "--config", cfg, "--input", str(self.tr),
                      "--output", str(self.props)]):
            if seconds and pause:
                pause()
            child = run_child(argv, tracer)
            seconds.append(child["seconds"])
            self._peak_rss_mb = max(self._peak_rss_mb, child["peak_rss_mb"])
            result.append((child["code"], child["output"]))
        return seconds, result

    def peak_rss_mb(self) -> float:
        """Largest peak resident memory of the command processes."""
        return self._peak_rss_mb

    def check(self, rnd: CliRound, result) -> Outcome:
        outcome = Outcome(points=len(rnd.freqs))
        outcome.misses = [f"cli exit {code}: {text.strip()}" for code, text in result if code]
        if outcome.misses:
            outcome.failed = outcome.points
            return outcome
        outcome.misses = self.check_outputs(rnd)
        outcome.failed = min(outcome.points, len(outcome.misses))
        return outcome


class SweepAveraged(_CliSweep):
    """`forward --method averaged` then `retrieve` on sample 1, through the CLI."""

    name = "sweep_averaged"
    method = "averaged"

    def __init__(self, seed: int, workdir: Path, points: int = 45) -> None:
        super().__init__(seed, workdir, points)

    def inputs(self, k: int) -> CliRound:
        rng = self.rng
        # a fresh lossy sample-1 material per round; Re(n1) k0 t stays below
        # pi over the band, so every point lies on branch 0
        n1 = complex(rng.uniform(4.0, 6.0), -rng.uniform(0.01, 0.5))
        ratio = rng.uniform(10.0, 20.0) * (1.0 - 1j * rng.uniform(0.0, 0.2))
        z1 = ratio * gap_impedance(SAMPLE1["r1"], SAMPLE1["r2"])
        config = self.config(k, {
            "geometry.r1": SAMPLE1["r1"], "geometry.r2": SAMPLE1["r2"],
            "geometry.t": SAMPLE1["t"],
            "material.n1_re": n1.real, "material.n1_im": n1.imag,
            "material.z1_re": z1.real, "material.z1_im": z1.imag,
            "sweep.start": BAND[0], "sweep.stop": BAND[1], "sweep.count": self.points,
        })
        return CliRound(config, [float(f) for f in np.linspace(*BAND, self.points)], n1, z1)

    def check_outputs(self, rnd: CliRound) -> list[str]:
        return check_properties(read_results_csv(self.props), rnd.freqs, rnd.n1, rnd.z1)


@dataclass(frozen=True)
class Draw:
    geometry: DuctGeometry
    n1: complex
    z1: complex
    f: float


@dataclass(frozen=True)
class Trip:
    """One draw's round trip: its result or error, and the error of a first try."""

    result: object
    refusal: TubegapError | None = None


class DrawsAveraged:
    """Independent single-point averaged round trips through the public API."""

    name = "draws_averaged"

    def __init__(self, seed: int, workdir: Path, batch: int = 20) -> None:
        self.rng = np.random.default_rng(seed)
        self.batch = batch
        self.medium = MediumProperties(rho0=RHO0, c0=C0)
        self.u0 = self.rng.uniform()

    def _draw(self, u: float) -> Draw:
        rng = self.rng
        r2 = 0.070
        r1 = (0.3 + 0.65 * u) * r2
        t = rng.uniform(0.002, 0.010)
        n1 = rng.uniform(1.0, 10.0) * (1.0 - 1j * rng.uniform(0.0, 0.2))
        z1 = rng.uniform(0.5, 20.0) * gap_impedance(r1, r2) * (1.0 - 1j * rng.uniform(0.0, 0.2))
        cutoff = 3.8317059702075125 * C0 / (2.0 * math.pi * r2)   # first J1 root
        branch0 = C0 / (2.0 * n1.real * t)                        # Re(n1) k0 t = pi
        f = rng.uniform(100.0, 0.95 * min(cutoff, branch0))
        return Draw(DuctGeometry(r1=r1, r2=r2, t=t), n1, z1, f)

    def inputs(self, k: int) -> list[Draw]:
        # r1/r2 is uniform on (0.3, 0.95), taken from a golden-ratio sequence
        # with a seeded start: it sets the cost of the Bessel sums and whether
        # the modal sum converges, so every round gets the same spread of it
        # and every run nearly the same share of unconverged draws.
        first = k * self.batch
        return [self._draw((self.u0 + GOLDEN * j) % 1.0)
                for j in range(first, first + self.batch)]

    def roundtrip(self, d: Draw, n_modes: int = DEFAULT_MODE_COUNT):
        data = retrieval.forward_averaged_sweep(
            d.n1, d.z1, d.geometry, self.medium, [d.f], n_modes=n_modes)
        config = retrieval.RetrievalConfig(n_modes=n_modes)
        return retrieval.retrieve_sweep(data, d.geometry, self.medium, config)[0]

    def run(self, draws: list[Draw], tracer: Tracer | None = None, pause=None):
        """Seconds the round trips took (one stretch, no pause), and each one's Trip.

        A draw the program refuses with ConvergenceError runs again at
        RETRY_MODES, as a user would; the retry counts in the time.
        """
        out = []
        with Wrappers(tracer) if tracer else contextlib.nullcontext():
            t0 = time.perf_counter()
            for d in draws:
                try:
                    out.append(Trip(self.roundtrip(d)))
                except ConvergenceError as refusal:
                    try:
                        out.append(Trip(self.roundtrip(d, RETRY_MODES), refusal))
                    except TubegapError as exc:
                        out.append(Trip(exc, refusal))
                except TubegapError as exc:
                    out.append(Trip(exc))
            seconds = time.perf_counter() - t0
        return [seconds], out

    def peak_rss_mb(self) -> float:
        return process_peak_rss_mb()

    def check(self, draws: list[Draw], trips: list[Trip]) -> Outcome:
        outcome = Outcome(points=len(draws))
        for d, trip in zip(draws, trips):
            ratio = d.geometry.r1 / d.geometry.r2
            where = f"{d.f} Hz, r1/r2 {ratio:.4f}"
            for error in (trip.refusal, trip.result):
                if isinstance(error, TubegapError):
                    kind = type(error).__name__
                    outcome.errors[kind] = outcome.errors.get(kind, 0) + 1
            r = trip.result
            if trip.refusal is not None and ratio < CONVERGENCE_RATIO:
                miss = [f"{where}: ConvergenceError: {trip.refusal}"]
            elif isinstance(r, TubegapError):
                miss = [f"{where}: {type(r).__name__}: {r}"]
            else:
                miss = check_properties([{"f": r.f, "n1": r.n1, "z1": r.z1}],
                                        [d.f], d.n1, d.z1)
            if miss:
                outcome.misses += miss
                outcome.failed += 1
            elif trip.refusal is not None:
                outcome.refused += 1
        return outcome


def fdfd_starts(points: int) -> list[float]:
    """Sweep starts whose `points`-point sweep to 2500 Hz lies on the reference grid."""
    starts = []
    start = BAND[0]
    while start < BAND[1]:
        step = (BAND[1] - start) / (points - 1)
        if step % GRID_STEP == 0:
            starts.append(start)
        start += GRID_STEP
    return starts


class SweepFdfd(_CliSweep):
    """`forward --method fdfd` then `retrieve` on lossless sample 1, through the CLI.

    The seed picks which band points each round simulates.  Every choice
    keeps the scene of the recorded reference (f_max 2500 Hz, PML sized
    for 300 Hz), so each point's (T, R) is comparable with it.
    """

    name = "sweep_fdfd"
    method = "fdfd"

    def __init__(self, seed: int, workdir: Path, points: int = 6) -> None:
        super().__init__(seed, workdir, points)
        self.starts = fdfd_starts(points)
        self.reference = read_reference()

    def inputs(self, k: int) -> CliRound:
        start = self.starts[int(self.rng.integers(len(self.starts)))]
        config = self.config(k, fdfd_config(start, self.points))
        return CliRound(config, [float(f) for f in np.linspace(start, BAND[1], self.points)])

    def check_outputs(self, rnd: CliRound) -> list[str]:
        misses = check_scattering(read_tr_csv(self.tr), rnd.freqs, self.reference)
        rows = read_results_csv(self.props)
        misses += [f"{r['f']} Hz: retrieved n1 or z1 is not finite" for r in rows
                   if not (cmath.isfinite(r["n1"]) and cmath.isfinite(r["z1"]))]
        if len(rows) != len(rnd.freqs):
            misses.append(f"retrieval returned {len(rows)} rows for {len(rnd.freqs)} points")
        return misses


def fdfd_config(start: float, points: int) -> dict[str, object]:
    return {
        "geometry.r1": SAMPLE1["r1"], "geometry.r2": SAMPLE1["r2"], "geometry.t": SAMPLE1["t"],
        "material.n1_re": 5.0, "material.z1_over_z2": 15.0,
        "sweep.start": start, "sweep.stop": BAND[1], "sweep.count": points,
        "oracle.f_min": BAND[0],
    }


WORKLOADS = {w.name: w for w in (SweepAveraged, DrawsAveraged, SweepFdfd)}
