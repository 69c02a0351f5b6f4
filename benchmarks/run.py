"""tubegap benchmark: one workload per run, in a fresh process.

    python3 benchmarks/run.py --workload sweep_averaged --seed 1 --seconds 30 --trace 0
    python3 benchmarks/run.py --workload all        # every workload, one table

Run from the root of a source checkout; the package is imported from
its ``src/`` directory.  With ``--trace 0`` the last line of output is a
JSON object with the end-to-end metrics; with ``--trace 1`` it holds the
per-layer metrics of a traced run.  Results, with the machine and source
they were measured on, are also written to ``benchmarks/out/``.  See
``benchmarks/README.md``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

# Pin BLAS and OpenMP pools before numpy is first imported, here and in
# every child process, so runs do not depend on the machine's core count.
THREADS = "1"
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = THREADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
DEFAULT_SEED = 1

# Size of one round per workload (points or draws) and the number of fresh
# interpreters set-up time is measured in: full runs, and the minimum the
# benchmark's own test uses.
SIZES = {
    "full": {"sweep_averaged": 45, "draws_averaged": 20, "sweep_fdfd": 6, "setup": 5},
    "min": {"sweep_averaged": 3, "draws_averaged": 2, "sweep_fdfd": 2, "setup": 1},
}
END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "ok_share": "fraction"}

# Time in a fresh interpreter to import the package and CLI, plus the
# warm-up its first point pays: a one-point averaged round trip run
# twice, the first run's excess over the second being lazy set-up.
_SETUP_CHILD = """
import contextlib, io, json, sys, time
t0 = time.perf_counter()
import tubegap, tubegap.cli
t1 = time.perf_counter()
argv = sys.argv[1:]
with contextlib.redirect_stdout(io.StringIO()):
    codes = [tubegap.cli.main(argv)]
    t2 = time.perf_counter()
    codes.append(tubegap.cli.main(argv))
    t3 = time.perf_counter()
print(json.dumps({"import_s": t1 - t0, "first_s": t2 - t1, "second_s": t3 - t2, "codes": codes}))
"""


# Machine-speed probe.  The shared host this benchmark was measured on
# changes speed by up to 1.8x within a minute, and every process on it
# slows together (README, "Machine speed"): raw medians of ten runs spread
# by up to 33%, more than the 0.25 bound.  Two fixed kernels that run no
# tubegap code, a pure-Python float loop and sparse LUs of a fixed 2-D
# Laplacian, are timed before the first round, between the two commands of
# a CLI round, and after each round.  Each command's (or draws round's)
# time is divided by the mean of the machine's slowdowns probed either side
# of it, against a reference machine where the kernels take REF_PY_S and
# REF_LU_S.  A single short reading jitters, so each takes about 0.25 s.
# Raw times are kept in the run record.
REF_PY_S = 0.036
REF_LU_S = 0.240


def _py_kernel() -> float:
    x, y = 0.0, 1.0
    for _ in range(360_000):
        x = x * 0.999 + y * 1.0001
        y = y * 0.5 + 0.25
    return x


class SpeedProbe:
    def __init__(self) -> None:
        import scipy.sparse as sp
        from scipy.sparse.linalg import splu

        lap = sp.diags([-1.0, 2.001, -1.0], [-1, 0, 1], shape=(48, 48))
        self._matrix = (sp.kron(sp.eye(48), lap) + sp.kron(lap, sp.eye(48))).tocsc()
        self._matrix = self._matrix.astype(complex)
        self._splu = splu

    def slowdown(self) -> float:
        """Current time of the kernels over their reference time (geometric mean)."""
        t0 = time.perf_counter()
        _py_kernel()
        t1 = time.perf_counter()
        for _ in range(24):
            self._splu(self._matrix)
        t2 = time.perf_counter()
        return math.sqrt((t1 - t0) / REF_PY_S * (t2 - t1) / REF_LU_S)


def scaled(times: list[float], slowdowns: list[float]) -> list[float]:
    """Each time over the mean of the slowdowns probed just before and after it."""
    return [t / ((slowdowns[k] + slowdowns[k + 1]) / 2) for k, t in enumerate(times)]


def git_sha() -> str | None:
    """HEAD of the checkout, read from its own .git (no search of parent dirs)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def machine_info() -> dict[str, object]:
    import numpy
    import scipy

    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    cpu = platform.processor()
    try:
        cpu = next(line.split(":", 1)[1].strip()
                   for line in Path("/proc/cpuinfo").read_text().splitlines()
                   if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {
        "git_sha": git_sha(),
        "src_sha256": digest.hexdigest()[:16],
        "nproc": os.cpu_count(),
        "blas_threads": int(THREADS),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def setup_argv(workdir: Path) -> list[str]:
    """A one-point averaged round trip on a geometry no workload uses."""
    from workloads import BAND, write_config

    cfg = write_config(workdir / "setup.cfg", {
        "geometry.r1": 0.030, "geometry.r2": 0.070, "geometry.t": 0.004,
        "material.n1_re": 5.0, "material.z1_over_z2": 15.0,
        "sweep.start": BAND[0], "sweep.count": 1,
    })
    return ["roundtrip", "--config", str(cfg), "--method", "averaged"]


def measure_setup(workdir: Path, repeats: int,
                  probe: SpeedProbe) -> tuple[list[float], list[float]]:
    """Import time plus first-point warm-up, in each of `repeats` fresh interpreters.

    Returns the raw times and the machine's slowdowns, probed before each
    interpreter starts and after the last one ends.
    """
    samples, slowdowns = [], []
    for _ in range(repeats):
        slowdowns.append(probe.slowdown())
        proc = subprocess.run(
            [sys.executable, "-c", _SETUP_CHILD, *setup_argv(workdir)],
            cwd=ROOT, env={**os.environ, "PYTHONPATH": str(SRC)},
            capture_output=True, text=True, timeout=120,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
        times = json.loads(proc.stdout.strip().splitlines()[-1])
        if times["codes"] != [0, 0]:
            raise RuntimeError(f"set-up round trip exited {times['codes']}")
        samples.append(times["import_s"] + max(0.0, times["first_s"] - times["second_s"]))
    slowdowns.append(probe.slowdown())
    return samples, slowdowns


def run_rounds(workload, seconds: float, tracer=None,
               probe: SpeedProbe | None = None) -> tuple[list[dict], list, list[float]]:
    """Rounds, each with fresh inputs, until the next one would pass `seconds`.

    With a probe, the machine's slowdown is probed before the first round,
    at each pause the workload makes within a round, and after each round;
    a round's `scaled_s` is its time at reference machine speed.  With a
    tracer, rounds alternate untraced and traced, so the traced run also
    measures the tracing overhead; wrappers exist only in traced rounds.
    """
    rounds, outcomes = [], []
    slowdowns = [probe.slowdown()] if probe else []
    pause = (lambda: slowdowns.append(probe.slowdown())) if probe else None
    min_rounds = 2 if tracer is not None else 1
    start = time.perf_counter()
    k = 0
    while True:
        t0 = time.perf_counter()
        inputs = workload.inputs(k)
        traced = tracer is not None and k % 2 == 1
        if traced:
            tracer.run_id = k
        first = len(slowdowns) - 1
        segments, result = workload.run(inputs, tracer if traced else None, pause)
        outcome = workload.check(inputs, result)
        record = {"round": k, "wall_s": sum(segments), "traced": traced,
                  "points": outcome.points, "failed": outcome.failed}
        if probe:
            slowdowns.append(probe.slowdown())
            record["scaled_s"] = sum(scaled(segments, slowdowns[first:]))
        rounds.append(record)
        outcomes.append(outcome)
        k += 1
        elapsed = time.perf_counter()
        if k >= min_rounds and elapsed - start + (elapsed - t0) > seconds:
            return rounds, outcomes, slowdowns


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["sweep_averaged", "draws_averaged", "sweep_fdfd", "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--size", choices=sorted(SIZES), default="full",
                        help="round size; 'min' is for the benchmark's own test")
    args = parser.parse_args(argv)

    if not (SRC / "tubegap" / "__init__.py").is_file():
        print(f"error: no tubegap sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path[:0] = [str(SRC), str(BENCH)]
    import tubegap

    if Path(tubegap.__file__).resolve().parent != SRC / "tubegap":
        print(f"error: imported tubegap from {tubegap.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from tracing import LAYER_METRICS, Tracer, median_metrics, round_metrics
    from workloads import WORKLOADS

    info = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "size": args.size, **machine_info()}
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir()
    try:
        size = SIZES[args.size]
        workload = WORKLOADS[args.workload](args.seed, workdir, size[args.workload])
        # the probe times end-to-end metrics only; traced runs report raw times
        probe = None if args.trace else SpeedProbe()
        setup = measure_setup(workdir, size["setup"], probe) if probe else None
        tracer = Tracer() if args.trace else None
        rounds, outcomes, slowdowns = run_rounds(workload, args.seconds, tracer, probe)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(o.points for o in outcomes)
    failed = sum(o.failed for o in outcomes)
    refused = sum(o.refused for o in outcomes)
    misses = [m for o in outcomes for m in o.misses]
    errors: dict[str, int] = {}
    for o in outcomes:
        for kind, n in o.errors.items():
            errors[kind] = errors.get(kind, 0) + n
    # no time counts from a run whose every round missed a gate
    clean = [not o.misses for o in outcomes]
    raw_wall_s = [r["wall_s"] for r, ok in zip(rounds, clean) if ok]

    if args.trace == 0:
        wall_s = [r["scaled_s"] for r, ok in zip(rounds, clean) if ok]
        values = {
            "wall_s": statistics.median(wall_s) if wall_s else None,
            "setup_s": statistics.median(scaled(*setup)),
            "peak_rss_mb": workload.peak_rss_mb(),
            "ok_share": (attempted - failed - refused) / attempted,
        }
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END.items()}
    else:
        traced = [r["round"] for r in rounds if r["traced"]]
        values = median_metrics([round_metrics(tracer, k) for k in traced])
        values["trace.overhead_s"] = (
            statistics.median(r["wall_s"] for r in rounds if r["traced"])
            - statistics.median(r["wall_s"] for r in rounds if not r["traced"]))
        units = {**LAYER_METRICS, "trace.overhead_s": "s"}
        metrics = {name: {"value": values[name], "unit": units[name]} for name in units}
        tracer.write(OUT / f"spans_{args.workload}.csv")

    result = {"correct": not misses, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    record = {**info, "failed_share": failed / attempted,
              "refused_share": refused / attempted, "errors": errors,
              "raw_wall_s": statistics.median(raw_wall_s) if raw_wall_s else None,
              "slowdowns": slowdowns,
              "raw_setup_s": setup and statistics.median(setup[0]),
              "setup_times": setup and setup[0], "setup_slowdowns": setup and setup[1],
              "misses": misses[:20], "rounds": rounds, **result}
    (OUT / f"{args.workload}_seed{args.seed}_trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n")
    print("# info " + json.dumps(info))
    print(f"# rounds {len(rounds)}, points {attempted}, failed {failed} "
          f"(failed_share {failed / attempted:.4f} fraction), solved only on a retry "
          f"{refused} (refused_share {refused / attempted:.4f} fraction), errors {errors}")
    for miss in misses[:5]:
        print(f"# gate miss: {miss}")
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Each workload in its own fresh process; one table of every metric."""
    status = 0
    for name in ("sweep_averaged", "draws_averaged", "sweep_fdfd"):
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace), "--size", args.size],
            cwd=ROOT, capture_output=True, text=True, timeout=900,
        )
        if proc.returncode != 0:
            print(f"{name}: exit {proc.returncode}\n{proc.stderr}")
            status = 1
            continue
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        share = result["failed"] / result["attempted"]
        print(f"{name}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']}")
        print(f"  {'failed_share':<28} {share:>14.6g} fraction")
        for metric, entry in result["metrics"].items():
            value = "none" if entry["value"] is None else f"{entry['value']:.6g}"
            print(f"  {metric:<28} {value:>14} {entry['unit']}")
        status = status or (0 if result["correct"] else 1)
    return status


if __name__ == "__main__":
    sys.exit(main())
