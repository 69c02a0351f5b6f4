"""Command-line front end.

Subcommands:

* ``retrieve``  - invert a measured/simulated T,R sweep file into n1, z1
* ``forward``   - generate a T,R sweep (fast averaged model or the
  finite-difference simulator)
* ``roundtrip`` - forward then retrieve, report per-frequency errors
* ``modes``     - print the duct mode table (wavenumbers, cutoffs)

Exit codes: 0 success, 1 validation or file failure, 2 numerical failure.
"""

from __future__ import annotations

import argparse
import math
import statistics
import sys
from pathlib import Path

import numpy as np

from tubegap import __version__
from tubegap.config import RunConfig, parse_value
from tubegap.datafiles import (
    read_tr_csv,
    write_field_csv,
    write_results_csv,
    write_sidecar,
    write_tr_csv,
)
from tubegap.errors import ConfigError, DomainError, TubegapError
from tubegap.fdfd import build_scene, solve_field, solve_harmonic
from tubegap.modal import duct_wavenumbers, first_cutoff_frequency, refuse_above_cutoff
from tubegap.retrieval import forward_averaged_sweep, retrieve_sweep
from tubegap.types import GapProperties


def _common_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", help="configuration file (key = value lines)")
    sub.add_argument(
        "--set",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="override a config value (repeatable; wins over the file)",
    )


def _overrides(args: argparse.Namespace) -> dict[str, str]:
    out: dict[str, str] = {}
    for item in args.set:
        if "=" not in item:
            raise ConfigError(f"--set expects KEY=VALUE, got {item!r}")
        key, value = item.split("=", 1)
        out[key.strip()] = value.strip()
    # numeric flags stay strings here, so a malformed one fails in the
    # config's parser (exit 1) like a malformed --set
    for flag, key in (("modes", "modal.count"), ("tolerance", "roundtrip.tolerance"),
                      ("branch_seed", "branch.seed")):
        if getattr(args, flag, None) is not None:
            out[key] = getattr(args, flag)
    if getattr(args, "allow_above_cutoff", False):
        out["retrieve.allow_above_cutoff"] = "true"
    return out


def _load_config(args: argparse.Namespace) -> RunConfig:
    return RunConfig.from_file(args.config, overrides=_overrides(args))


def _refuse_unwritable(*paths: str | None) -> None:
    """Refuse, before any work, an output path that is a folder or whose
    folder does not exist.  Callers list a data file's ``.meta`` sidecar
    too, so that a sidecar path that is a folder is refused before the
    data file is written."""
    for path in map(Path, filter(None, paths)):
        if path.is_dir():
            raise ConfigError(f"cannot write {path}: it is a folder")
        if not path.parent.is_dir():
            raise ConfigError(f"cannot write {path}: its folder does not exist")


def cmd_retrieve(args: argparse.Namespace) -> int:
    _refuse_unwritable(args.output, args.output + ".meta")
    config = _load_config(args)
    data = read_tr_csv(args.input)
    geometry, medium = config.geometry(), config.medium()
    settings = config.retrieval()
    if len(data) == 1:
        print("warning: single-frequency sweep; branch unwrapping is undetermined, "
              f"using seed m={settings.branch_seed or 0}", file=sys.stderr)
    results = retrieve_sweep(data, geometry, medium, settings)
    gap = GapProperties.from_geometry(geometry, medium)
    write_results_csv(args.output, results, gap.z2, comments=["retrieved effective properties"])
    write_sidecar(args.output, config.dump(), {"tool": f"tubegap {__version__}", "command": "retrieve"})
    flagged = sum(1 for r in results if r.flags)
    print(f"retrieved {len(results)} frequencies -> {args.output} ({flagged} flagged)")
    return 0


def _forward_data(config: RunConfig, method: str):
    geometry, medium = config.geometry(), config.medium()
    material = config.material()
    freqs = config.sweep_frequencies()
    settings = config.retrieval()
    if not settings.allow_above_cutoff:
        refuse_above_cutoff(freqs, geometry, medium)
    phase = 2.0 * math.pi * freqs[0] / medium.c0 * material.n1.real * geometry.t
    if abs(phase) > math.pi:
        seed = round(phase / (2.0 * math.pi))
        print(f"warning: k0*|Re(n1)|*t = {abs(phase):.4g} > pi at the first sweep point, {freqs[0]} Hz; "
              "the sample is past branch 0 there, where retrieval's automatic seed starts, "
              f"so retrieve on branch {seed}: --branch-seed {seed} (--set branch.seed={seed})",
              file=sys.stderr)
    if method == "averaged":
        data = forward_averaged_sweep(material.n1, material.z1, geometry, medium, freqs,
                                      n_modes=settings.n_modes)
        return data, None
    scene = build_scene(material, geometry, max(freqs), medium=medium,
                        cells_per_wavelength=float(config.values["oracle.cells_per_wavelength"]))
    data = [solve_harmonic(scene, f) for f in freqs]
    return data, scene


def cmd_forward(args: argparse.Namespace) -> int:
    if args.dump_field and args.method != "fdfd":
        raise ConfigError(f"--dump-field needs --method fdfd, got --method {args.method}")
    _refuse_unwritable(args.output, args.output + ".meta", args.dump_field)
    config = _load_config(args)
    data, scene = _forward_data(config, args.method)
    write_tr_csv(args.output, data, comments=[f"forward sweep, method={args.method}"])
    write_sidecar(args.output, config.dump(), {"tool": f"tubegap {__version__}",
                                               "command": f"forward --method {args.method}"})
    if args.dump_field:
        x, r, p = solve_field(scene, data[-1].f)
        write_field_csv(args.dump_field, x, r, p)
        print(f"dumped pressure field at {data[-1].f} Hz -> {args.dump_field}")
    print(f"wrote {len(data)} frequencies -> {args.output}")
    return 0


def cmd_roundtrip(args: argparse.Namespace) -> int:
    config = _load_config(args)
    geometry, medium = config.geometry(), config.medium()
    material = config.material()
    gap = GapProperties.from_geometry(geometry, medium)
    tolerance = float(config.values["roundtrip.tolerance"])
    methods = ["averaged", "fdfd"] if args.method == "both" else [args.method]
    worst_of_all = 0.0
    for method in methods:
        data, _ = _forward_data(config, method)
        results = retrieve_sweep(data, geometry, medium, config.retrieval())
        n_errs, z_errs = [], []
        print(f"== method={method}")
        print(f"{'f_hz':>9} {'re_n1':>10} {'|z1/z2|':>10} {'n1_err':>9} {'z1_err':>9} flags")
        for r in results:
            n_err = abs(r.n1 - material.n1) / abs(material.n1)
            z_err = abs(abs(r.z1 / gap.z2) - abs(material.z1 / gap.z2)) / abs(material.z1 / gap.z2)
            tag = ",".join(r.flags)
            print(f"{r.f:9.1f} {r.n1.real:10.4f} {abs(r.z1/gap.z2):10.4f} "
                  f"{n_err:9.2e} {z_err:9.2e} {tag}")
            if "interpolated" not in r.flags:
                n_errs.append(n_err)
                z_errs.append(z_err)
        for name, errs in (("n1", n_errs), ("z1/z2", z_errs)):
            print(f"   {name}: median {statistics.median(errs):.3e}, max {max(errs):.3e}")
            worst_of_all = max(worst_of_all, statistics.median(errs))
    if worst_of_all > tolerance:
        print(f"FAIL: median error {worst_of_all:.3e} exceeds tolerance {tolerance:.3e}")
        return 2
    print(f"PASS: all medians within {tolerance:.3e}")
    return 0


def cmd_modes(args: argparse.Namespace) -> int:
    config = _load_config(args)
    geometry, medium = config.geometry(), config.medium()
    basis = duct_wavenumbers(geometry, int(config.values["modal.count"]))
    query = None if args.freq is None else parse_value("--freq", args.freq, float)
    print(f"duct radius {geometry.r2} m, sound speed {medium.c0} m/s, "
          f"{basis.n_modes} modes")
    header = f"{'n':>4} {'x_n':>12} {'k_n (1/m)':>12} {'cutoff (Hz)':>12}"
    if query is not None:
        header += f" state at {query} Hz"
    print(header)
    for n in range(basis.n_modes):
        kn = basis.k[n]
        cutoff = kn * medium.c0 / (2.0 * np.pi)
        row = f"{n:4d} {kn * geometry.r2:12.6f} {kn:12.4f} {cutoff:12.1f}"
        if query is not None:
            row += "  propagating" if query > cutoff or n == 0 else "  evanescent"
        print(row)
    print(f"first non-planar cutoff: {first_cutoff_frequency(geometry, medium):.1f} Hz")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tubegap",
        description="Effective-parameter retrieval for duct samples with an air gap",
    )
    parser.add_argument("--version", action="version", version=f"tubegap {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("retrieve", help="invert a T,R sweep file into n1, z1")
    _common_flags(p)
    p.add_argument("--input", required=True, help="T,R sweep CSV")
    p.add_argument("--output", required=True, help="results CSV to write")
    p.add_argument("--branch-seed", help="inverse-cosine branch at the first point")
    p.add_argument("--modes", help="modal truncation")
    p.add_argument("--allow-above-cutoff", action="store_true")
    p.set_defaults(func=cmd_retrieve)

    p = sub.add_parser("forward", help="generate a T,R sweep")
    _common_flags(p)
    p.add_argument("--method", choices=["averaged", "fdfd"], default="averaged")
    p.add_argument("--output", required=True)
    p.add_argument("--modes")
    p.add_argument("--allow-above-cutoff", action="store_true")
    p.add_argument("--dump-field", help="also dump the last frequency's pressure field (fdfd)")
    p.set_defaults(func=cmd_forward)

    p = sub.add_parser("roundtrip", help="forward then retrieve, report errors")
    _common_flags(p)
    p.add_argument("--method", choices=["averaged", "fdfd", "both"], default="averaged")
    p.add_argument("--tolerance", help="median relative error bound")
    p.add_argument("--modes")
    p.add_argument("--allow-above-cutoff", action="store_true")
    p.set_defaults(func=cmd_roundtrip)

    p = sub.add_parser("modes", help="print the duct mode table")
    _common_flags(p)
    p.add_argument("--modes", help="how many modes to list")
    p.add_argument("--freq", help="mark propagating/evanescent at this frequency")
    p.set_defaults(func=cmd_modes)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, DomainError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except TubegapError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
