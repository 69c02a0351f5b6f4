"""Record the FDFD (T, R) reference that the sweep_fdfd gate compares against.

    python3 benchmarks/record_reference.py

Simulates lossless sample 1 at all 45 band points (300, 350, ..., 2500 Hz)
through the CLI, in the scene every sweep_fdfd run uses (f_max 2500 Hz,
PML sized for 300 Hz), and writes benchmarks/reference/sample1_fdfd_tr.csv.
Re-record only when a change is meant to move (T, R); the gate allows
1e-6 of movement per point.
"""

from __future__ import annotations

import sys
import tempfile
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import run  # noqa: E402  (pins BLAS threads before numpy loads)
from workloads import BAND, GRID_STEP, REFERENCE, fdfd_config, run_cli, write_config  # noqa: E402


def main() -> int:
    points = int((BAND[1] - BAND[0]) / GRID_STEP) + 1
    with tempfile.TemporaryDirectory(dir=BENCH) as tmp:
        cfg = write_config(Path(tmp) / "reference.cfg", fdfd_config(BAND[0], points))
        out = Path(tmp) / "tr.csv"
        code, text = run_cli(["forward", "--config", str(cfg), "--method", "fdfd",
                              "--output", str(out)])
        if code != 0:
            print(text, file=sys.stderr)
            return code
        body = out.read_text().splitlines()
    info = run.machine_info()
    header = [
        "# FDFD reference for the sweep_fdfd gate: lossless sample 1, default oracle",
        "# settings with oracle.f_min = 300, recorded by benchmarks/record_reference.py",
        f"# source git {info['git_sha']}, src sha256 {info['src_sha256']}",
    ]
    REFERENCE.parent.mkdir(exist_ok=True)
    REFERENCE.write_text("\n".join(header + [l for l in body if not l.startswith("#")]) + "\n")
    print(f"wrote {points} points -> {REFERENCE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
