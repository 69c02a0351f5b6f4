"""Spans around calls into each tubegap layer, recorded from outside the package.

Only the traced run installs the wrappers.  Each wrapper replaces one
name at the site where the program looks it up (a module attribute,
resolved at call time), records a span around the call and is removed
again when the traced round ends.  A site whose name no longer exists,
because a later change renamed or removed it, is skipped: the metrics it
feeds then read 0.

Spans are kept in memory as ``(name, start, end, parent, run_id)`` and
written out once, when the run ends.  A CLI command runs in a process of
its own (``cli_child.py``), which records its spans there and hands them
back to the run's tracer.  A span's self time is its duration
minus the time covered by its child spans; the program is single
threaded, so children never overlap.
"""

from __future__ import annotations

import functools
import importlib
import os
import statistics
import time
from pathlib import Path


class Tracer:
    """In-memory span and counter store for one benchmark run."""

    def __init__(self) -> None:
        self.spans: list[list] = []      # [name, start, end, parent index, run id]
        self.counts: list[tuple] = []    # (name, value, run id)
        self.run_id = 0
        self._stack: list[int] = []

    def begin(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.run_id])
        self._stack.append(index)
        return index

    def end(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    def count(self, name: str, value: float) -> None:
        self.counts.append((name, value, self.run_id))

    def merge(self, spans: list, counts: list) -> None:
        """Add another process's spans and counters to the current run."""
        base = len(self.spans)
        for name, start, end, parent, _ in spans:
            self.spans.append([name, start, end, parent + base if parent >= 0 else -1,
                               self.run_id])
        self.counts += [(name, value, self.run_id) for name, value, _ in counts]

    def write(self, path: Path) -> None:
        """Dump every span as CSV, times relative to the first span."""
        t0 = self.spans[0][1] if self.spans else 0.0
        lines = ["name,start_s,end_s,parent,run_id"]
        for name, start, end, parent, run_id in self.spans:
            lines.append(f"{name},{start - t0:.9f},{end - t0:.9f},{parent},{run_id}")
        path.write_text("\n".join(lines) + "\n")


def _timed(tracer: Tracer, span: str, fn, after=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        index = tracer.begin(span)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.end(index)
        return result if after is None else after(tracer, args, result)
    return wrapper


class _TimedLU:
    """Proxy for a SuperLU factor that times each triangular solve."""

    def __init__(self, lu, tracer: Tracer) -> None:
        self._lu = lu
        self._tracer = tracer

    def solve(self, *args, **kwargs):
        index = self._tracer.begin("fdfd.lu_solve")
        try:
            return self._lu.solve(*args, **kwargs)
        finally:
            self._tracer.end(index)

    def __getattr__(self, name):
        return getattr(self._lu, name)


# Hooks run after a wrapped call returns, outside its span, and return
# the value the caller receives.

def _after_splu(tracer, args, lu):
    # SuperLU's own count of stored L+U entries; reading it costs nothing,
    # unlike materializing lu.L and lu.U.
    tracer.count("fdfd.lu_fill_nnz", lu.nnz)
    return _TimedLU(lu, tracer)


def _after_scene(tracer, args, scene):
    tracer.count("fdfd.cells", scene.nx * scene.nr)
    tracer.count("fdfd.pml_columns", 2 * scene.n_pml)
    return scene


def _after_file(tracer, args, result):
    tracer.count("datafiles.bytes", os.path.getsize(args[0]))
    return result


def _after_sidecar(tracer, args, result):
    tracer.count("datafiles.bytes", os.path.getsize(str(args[0]) + ".meta"))
    return result


# (module, attribute path at the lookup site, span name, hook run after the call)
SITES = [
    ("tubegap.cli", "main", "cli.main", None),
    # Bessel calls made by the modal layer
    ("tubegap.modal", "bessel_j0", "specfun.bessel", None),
    ("tubegap.modal", "bessel_j1", "specfun.bessel", None),
    # coupling coefficients, as the retrieval layer looks them up
    ("tubegap.retrieval", "coupling_coefficients", "modal.coupling", None),
    ("tubegap.retrieval", "transfer_matrix_from_tr", "retrieval.transfer_matrix", None),
    ("tubegap.retrieval", "assemble_system", "retrieval.assemble", None),
    ("tubegap.retrieval", "solve_fields", "retrieval.solve", None),
    ("tubegap.retrieval", "impedance_from_fields", "retrieval.extract", None),
    ("tubegap.retrieval", "index_from_fields", "retrieval.extract", None),
    ("tubegap.retrieval", "retrieve_point", "retrieval.point", None),
    ("tubegap.retrieval", "forward_averaged", "retrieval.forward_point", None),
    ("tubegap.retrieval", "retrieve_sweep", "retrieval.sweep", None),
    ("tubegap.retrieval", "forward_averaged_sweep", "retrieval.sweep", None),
    ("tubegap.cli", "retrieve_sweep", "retrieval.sweep", None),
    ("tubegap.cli", "forward_averaged_sweep", "retrieval.sweep", None),
    # the simulator, as the CLI looks it up
    ("tubegap.cli", "build_scene", "fdfd.build_scene", _after_scene),
    ("tubegap.cli", "solve_harmonic", "fdfd.solve_harmonic", None),
    ("tubegap.cli", "scattering_from_ports", "fdfd.ports", None),
    ("tubegap.fdfd", "spla.splu", "fdfd.factor", _after_splu),
    # data files, as the CLI looks them up
    ("tubegap.cli", "read_tr_csv", "datafiles.io", _after_file),
    ("tubegap.cli", "write_tr_csv", "datafiles.io", _after_file),
    ("tubegap.cli", "write_results_csv", "datafiles.io", _after_file),
    ("tubegap.cli", "write_sidecar", "datafiles.io", _after_sidecar),
]


class Wrappers:
    """Context manager that installs every wrapper in SITES and undoes them."""

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self._undo: list[tuple] = []

    def __enter__(self) -> "Wrappers":
        for module_name, path, span, after in SITES:
            try:
                owner = importlib.import_module(module_name)
            except ImportError:
                continue
            *parents, attr = path.split(".")
            for part in parents:
                owner = getattr(owner, part, None)
            fn = getattr(owner, attr, None) if owner is not None else None
            if fn is None:
                continue
            setattr(owner, attr, _timed(self.tracer, span, fn, after))
            self._undo.append((owner, attr, fn))
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, fn in reversed(self._undo):
            setattr(owner, attr, fn)
        self._undo.clear()


# Spans whose self time is charged to each layer's self_s metric.
_SELF_SPANS = {
    "modal.self_s": ("modal.coupling",),
    "retrieval.self_s": ("retrieval.sweep", "retrieval.point", "retrieval.forward_point"),
    "fdfd.self_s": ("fdfd.build_scene", "fdfd.solve_harmonic", "fdfd.ports"),
    "cli.self_s": ("cli.main",),
}
# Inclusive span times.
_TIME_SPANS = {
    "specfun.bessel_s": ("specfun.bessel",),
    "modal.coupling_s": ("modal.coupling",),
    "retrieval.transfer_matrix_s": ("retrieval.transfer_matrix",),
    "retrieval.assemble_s": ("retrieval.assemble",),
    "retrieval.solve_s": ("retrieval.solve",),
    "retrieval.extract_s": ("retrieval.extract",),
    "fdfd.build_scene_s": ("fdfd.build_scene",),
    "fdfd.solve_harmonic_s": ("fdfd.solve_harmonic",),
    "fdfd.factor_s": ("fdfd.factor",),
    "fdfd.lu_solve_s": ("fdfd.lu_solve",),
    "fdfd.ports_s": ("fdfd.ports",),
    "datafiles.io_s": ("datafiles.io",),
}
# Span counts.
_CALL_SPANS = {
    "specfun.bessel_calls": ("specfun.bessel",),
    "modal.coupling_calls": ("modal.coupling",),
    "retrieval.points": ("retrieval.point", "retrieval.forward_point"),
    "retrieval.solve_calls": ("retrieval.solve",),
}
# Counters: summed per round, or the largest value seen in the round.
_SUM_COUNTS = ("datafiles.bytes",)
_MAX_COUNTS = ("fdfd.cells", "fdfd.pml_columns", "fdfd.lu_fill_nnz")

LAYER_METRICS = {
    **{name: "s" for name in _SELF_SPANS},
    **{name: "s" for name in _TIME_SPANS},
    **{name: "count" for name in _CALL_SPANS},
    **{name: "count" for name in _SUM_COUNTS + _MAX_COUNTS},
}


def round_metrics(tracer: Tracer, run_id: int) -> dict[str, float]:
    """Per-layer metrics of one traced round (zeros for layers it never entered)."""
    spans = [(i, s) for i, s in enumerate(tracer.spans) if s[4] == run_id]
    child_time: dict[int, float] = {}
    for _, (name, start, end, parent, _) in spans:
        if parent >= 0:
            child_time[parent] = child_time.get(parent, 0.0) + (end - start)
    total: dict[str, float] = {}
    own: dict[str, float] = {}
    calls: dict[str, int] = {}
    for i, (name, start, end, _, _) in spans:
        total[name] = total.get(name, 0.0) + (end - start)
        own[name] = own.get(name, 0.0) + (end - start) - child_time.get(i, 0.0)
        calls[name] = calls.get(name, 0) + 1
    out: dict[str, float] = {}
    for metric, names in _SELF_SPANS.items():
        out[metric] = sum(own.get(n, 0.0) for n in names)
    for metric, names in _TIME_SPANS.items():
        out[metric] = sum(total.get(n, 0.0) for n in names)
    for metric, names in _CALL_SPANS.items():
        out[metric] = sum(calls.get(n, 0) for n in names)
    for metric in _SUM_COUNTS:
        out[metric] = sum(v for n, v, r in tracer.counts if n == metric and r == run_id)
    for metric in _MAX_COUNTS:
        out[metric] = max((v for n, v, r in tracer.counts if n == metric and r == run_id),
                          default=0)
    return out


def median_metrics(per_round: list[dict[str, float]]) -> dict[str, float]:
    """Median of each per-layer metric over the traced rounds."""
    return {name: statistics.median(r[name] for r in per_round) for name in LAYER_METRICS}
