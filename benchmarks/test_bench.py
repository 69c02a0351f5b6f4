"""Fast checks of the benchmark itself (about half a minute).

    python3 -m pytest benchmarks/test_bench.py -q

Every workload runs at minimum size, untraced and traced, and must
report each metric BENCHMARK.json names; corrupted outputs must trip the
correctness gates; and the benchmark must refuse to run without sources.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import run  # noqa: E402  (pins BLAS threads before numpy loads)
import workloads  # noqa: E402
from tubegap.errors import ConvergenceError, DomainError  # noqa: E402
from tubegap.types import ScatteringData  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "benchmarks" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", [w["name"] for w in SPEC["workloads"]])
def test_reports_every_metric(name, trace):
    proc = _run("--workload", name, "--seed", "3", "--seconds", "1",
                "--trace", str(trace), "--size", "min")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and 0 <= result["failed"] <= result["attempted"]
    expected = SPEC["end_to_end"] if trace == 0 else SPEC["per_layer"]
    assert {m["name"]: m["unit"] for m in expected} == {
        k: v["unit"] for k, v in result["metrics"].items()}
    values = {k: v["value"] for k, v in result["metrics"].items()}
    if trace == 0:
        assert all(v > 0 for v in values.values())
    elif name.endswith("_averaged"):
        assert all(v == 0 for k, v in values.items() if k.startswith("fdfd."))
        assert values["specfun.bessel_calls"] > 0
    else:
        assert values["fdfd.factor_s"] > 0 and values["fdfd.lu_fill_nnz"] > 0


def test_refuses_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run("--workload", "draws_averaged", "--seconds", "1", "--size", "min",
                cwd=tmp_path)
    assert proc.returncode != 0
    assert not proc.stdout.strip()


def _rewrite_column(path: Path, column: str, change) -> None:
    lines = path.read_text().splitlines()
    header = next(i for i, l in enumerate(lines) if not l.startswith("#"))
    col = lines[header].split(",").index(column)
    for i in range(header + 1, len(lines)):
        parts = lines[i].split(",")
        parts[col] = repr(change(float(parts[col])))
        lines[i] = ",".join(parts)
    path.write_text("\n".join(lines) + "\n")


def test_corrupted_n1_trips_sweep_gate(tmp_path):
    workload = workloads.SweepAveraged(seed=3, workdir=tmp_path, points=3)
    rnd = workload.inputs(0)
    _, result = workload.run(rnd)
    assert workload.check(rnd, result).misses == []
    _rewrite_column(workload.props, "re_n1", lambda v: v * (1.0 + 1e-7))
    outcome = workload.check(rnd, result)
    assert outcome.failed == 3 and len(outcome.misses) == 3


def test_rounds_get_fresh_inputs(tmp_path):
    sweep = workloads.SweepAveraged(seed=3, workdir=tmp_path, points=3)
    first, second = sweep.inputs(0), sweep.inputs(1)
    assert first.config != second.config and first.n1 != second.n1
    draws = workloads.DrawsAveraged(seed=3, workdir=tmp_path, batch=4)
    geometries = {d.geometry for k in range(3) for d in draws.inputs(k)}
    assert len(geometries) == 12


def test_corrupted_n1_trips_draws_gate(tmp_path):
    workload = workloads.DrawsAveraged(seed=3, workdir=tmp_path, batch=4)
    draws = workload.inputs(0)
    _, trips = workload.run(draws)
    assert workload.check(draws, trips).misses == []
    bad = [dataclasses.replace(t, result=dataclasses.replace(t.result, n1=t.result.n1 * (1.0 + 1e-7)))
           for t in trips]
    outcome = workload.check(draws, bad)
    assert outcome.failed == len(trips) and len(outcome.misses) == len(trips)


def test_refused_draw_is_retried_with_more_modes(tmp_path):
    workload = workloads.DrawsAveraged(seed=3, workdir=tmp_path, batch=1)
    draw = workload.inputs(0)[0]
    r2 = draw.geometry.r2
    # above the 64-mode limit: the default truncation does not converge here
    hard = dataclasses.replace(draw, geometry=dataclasses.replace(draw.geometry, r1=0.94 * r2),
                               f=1500.0, n1=complex(draw.n1.real / 4, draw.n1.imag))
    with pytest.raises(ConvergenceError):
        workload.roundtrip(hard)
    _, trips = workload.run([hard])
    assert isinstance(trips[0].refusal, ConvergenceError)
    outcome = workload.check([hard], trips)
    assert outcome.misses == [] and outcome.failed == 0 and outcome.refused == 1


def test_draws_gate_accepts_only_the_known_refusal(tmp_path):
    workload = workloads.DrawsAveraged(seed=3, workdir=tmp_path, batch=1)
    draw = workload.inputs(0)[0]
    r2 = draw.geometry.r2
    _, trips = workload.run([draw])
    solved = trips[0].result

    def outcome(ratio, trip):
        d = dataclasses.replace(draw, geometry=dataclasses.replace(draw.geometry, r1=ratio * r2))
        return workload.check([d], [trip])

    refusal = ConvergenceError("modal sum did not converge")
    known = outcome(0.93, workloads.Trip(solved, refusal))
    assert known.failed == 0 and known.refused == 1 and known.misses == []
    for ratio, trip in [(0.90, workloads.Trip(solved, refusal)),
                        (0.93, workloads.Trip(refusal, refusal)),
                        (0.93, workloads.Trip(DomainError("frequency out of range")))]:
        unexpected = outcome(ratio, trip)
        assert unexpected.failed == 1 and unexpected.refused == 0
        assert len(unexpected.misses) == 1


def test_corrupted_tr_trips_fdfd_gate(tmp_path):
    workload = workloads.SweepFdfd(seed=3, workdir=tmp_path, points=2)
    rnd = workload.inputs(0)
    _, result = workload.run(rnd)
    assert workload.check(rnd, result).misses == []
    _rewrite_column(workload.tr, "re_t", lambda v: v + 2e-6)
    outcome = workload.check(rnd, result)
    assert outcome.failed == 2
    assert all("moved" in m for m in outcome.misses)


def test_energy_defect_trips_fdfd_gate():
    f = 2500.0
    t_ref, r_ref = workloads.read_reference()[f]
    leaky = ScatteringData(f=f, transmission=t_ref * 0.99, reflection=r_ref)
    reference = {f: (leaky.transmission, leaky.reflection)}
    misses = workloads.check_scattering([leaky], [f], reference)
    assert len(misses) == 1 and "energy defect" in misses[0]
