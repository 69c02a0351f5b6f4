"""Command-line front end.

Subcommands:

* ``retrieve``  - invert a measured/simulated T,R sweep file into n1, z1
* ``forward``   - generate a T,R sweep (fast averaged model or the
  finite-difference simulator)
* ``roundtrip`` - forward then retrieve, report per-frequency errors
* ``modes``     - print the duct mode table (wavenumbers, cutoffs)

Exit codes: 0 success, 1 validation or file failure, 2 numerical failure
or a usage error (a ``usage:`` line, then an ``error:`` line, and no work).
"""

from __future__ import annotations

import errno
import math
import os
import stat
import sys
import warnings
from types import SimpleNamespace

from tubegap import __version__
from tubegap.config import RunConfig, parse_value
from tubegap.datafiles import (file_name, read_tr_csv, write_field_csv, write_results_csv,
                               write_sidecar, write_tr_csv)
from tubegap.errors import ConfigError, DomainError, TubegapError
# kept at module level: imported in _forward_data, its ~3 ms compile would run inside the command
from tubegap.fdfd import build_scene, sweep_fields
from tubegap.modal import duct_wavenumbers, first_cutoff_frequency, refuse_above_cutoff
from tubegap.retrieval import forward_averaged_sweep, retrieve_sweep
from tubegap.types import GapProperties


def _overrides(args: SimpleNamespace) -> dict[str, str]:
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


def _load_config(args: SimpleNamespace) -> RunConfig:
    return RunConfig.from_file(args.config, overrides=_overrides(args))


def _stat(name: str) -> os.stat_result | None:
    """``os.stat(name)``: None where the name or a folder on it is missing,
    loops or is not a folder, any other ``OSError`` raised."""
    try:
        return os.stat(name)
    except OSError as exc:
        if exc.errno not in (errno.ENOENT, errno.ENOTDIR, errno.EBADF, errno.ELOOP):
            raise
        return None
    except ValueError:  # an embedded null byte
        return None


def _refuse_unwritable(inputs: tuple[str | None, ...], *paths: str | None) -> None:
    """Refuse, before any work, an output path that is empty, is a folder,
    whose folder does not exist, that names one of the command's ``inputs``
    or that an earlier output of the command takes, by name or, for a file
    that exists, through a symbolic or hard link.  Callers list a data
    file's ``.meta`` sidecar too, so that a sidecar path that is a folder or
    an input is refused before the data file is written."""
    if "" in paths:
        raise ConfigError("cannot write to an empty path")
    taken = [(os.path.abspath(name), _stat(name), "it is an input of this command")
             for name in (file_name(p) for p in inputs if p is not None)]
    for path in (file_name(p) for p in paths if p is not None):
        found = _stat(path)
        if found is not None and stat.S_ISDIR(found.st_mode):
            raise ConfigError(f"cannot write {path}: it is a folder")
        folder = _stat(os.path.dirname(path) or ".")
        if folder is None or not stat.S_ISDIR(folder.st_mode):
            raise ConfigError(f"cannot write {path}: its folder does not exist")
        absolute = os.path.abspath(path)
        for name, held, reason in taken:
            if name == absolute or (found is not None and held is not None
                                    and os.path.samestat(found, held)):
                raise ConfigError(f"cannot write {path}: {reason}")
        taken.append((absolute, found, "another output of this command goes there"))


def cmd_retrieve(args: SimpleNamespace) -> int:
    _refuse_unwritable((args.config, args.input), args.output, args.output + ".meta")
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
    write_sidecar(args.output, config.dump(), "retrieve")
    flagged = sum(1 for r in results if r.flags)
    print(f"retrieved {len(results)} frequencies -> {args.output} ({flagged} flagged)")
    return 0


def _forward_data(config: RunConfig, method: str):
    """The forward sweep's (T, R) and, for ``fdfd``, the last frequency's
    field (x, r, p) from the same solve (None for ``averaged``)."""
    geometry, medium = config.geometry(), config.medium()
    material = config.material()
    freqs = config.sweep_frequencies()
    settings = config.retrieval()
    if not settings.allow_above_cutoff:
        refuse_above_cutoff(freqs, geometry, medium)
    # associated as the model's k0 * (n1 * t); an infinite phase fails in the sweep
    phase = (2.0 * math.pi / medium.c0) * freqs[0] * (material.n1.real * geometry.t)
    if math.pi < abs(phase) < math.inf:
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
    data, field = [], None
    # the scene's own mode 1 may propagate below the continuum's cutoff
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always" if settings.allow_above_cutoff else "error", UserWarning)
        try:
            for point, field in sweep_fields(scene, freqs):
                data.append(point)
        except UserWarning as exc:
            raise DomainError(f"on the simulator's grid, {exc}; set allow_above_cutoff "
                              "(--allow-above-cutoff) to proceed anyway") from None
    for caught_warning in caught:
        print(f"warning: {caught_warning.message}", file=sys.stderr)
    return data, field


def cmd_forward(args: SimpleNamespace) -> int:
    if args.dump_field and args.method != "fdfd":
        raise ConfigError(f"--dump-field needs --method fdfd, got --method {args.method}")
    _refuse_unwritable((args.config,), args.output, args.output + ".meta", args.dump_field)
    config = _load_config(args)
    data, field = _forward_data(config, args.method)
    write_tr_csv(args.output, data, comments=[f"forward sweep, method={args.method}"])
    write_sidecar(args.output, config.dump(), f"forward --method {args.method}")
    if args.dump_field:
        write_field_csv(args.dump_field, *field)
        print(f"dumped pressure field at {data[-1].f} Hz -> {args.dump_field}")
    print(f"wrote {len(data)} frequencies -> {args.output}")
    return 0


def cmd_roundtrip(args: SimpleNamespace) -> int:
    config = _load_config(args)
    geometry, medium = config.geometry(), config.medium()
    material = config.material()
    gap = GapProperties.from_geometry(geometry, medium)
    tolerance = float(config.values["roundtrip.tolerance"])
    if tolerance < 0:
        raise ConfigError(f"roundtrip.tolerance must not be negative, got {tolerance}")
    methods = ["averaged", "fdfd"] if args.method == "both" else [args.method]
    # every method's refusals come before the first table
    runs = [(method, retrieve_sweep(_forward_data(config, method)[0], geometry, medium,
                                    config.retrieval())) for method in methods]
    worst_of_all = 0.0
    for method, results in runs:
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
            ranked = sorted(errs)
            median = (ranked[(len(ranked) - 1) // 2] + ranked[len(ranked) // 2]) / 2
            print(f"   {name}: median {median:.3e}, max {max(errs):.3e}")
            worst_of_all = max(worst_of_all, median)
    if worst_of_all > tolerance:
        print(f"FAIL: median error {worst_of_all:.3e} exceeds tolerance {tolerance:.3e}")
        return 2
    print(f"PASS: all medians within {tolerance:.3e}")
    return 0


def cmd_modes(args: SimpleNamespace) -> int:
    config = _load_config(args)
    geometry, medium = config.geometry(), config.medium()
    basis = duct_wavenumbers(geometry, int(config.values["modal.count"]))
    query = None if args.freq is None else parse_value("--freq", args.freq, float)
    if query is not None and query <= 0:
        raise ConfigError(f"--freq must be positive, got {query}")
    print(f"duct radius {geometry.r2} m, sound speed {medium.c0} m/s, "
          f"{basis.n_modes} modes")
    header = f"{'n':>4} {'x_n':>12} {'k_n (1/m)':>12} {'cutoff (Hz)':>12}"
    if query is not None:
        header += f" state at {query} Hz"
    print(header)
    for n in range(basis.n_modes):
        kn = basis.wavenumbers[n]
        cutoff = kn * medium.c0 / (2.0 * math.pi)
        row = f"{n:4d} {kn * geometry.r2:12.6f} {kn:12.4f} {cutoff:12.1f}"
        if query is not None:
            row += "  propagating" if query > cutoff or n == 0 else "  evanescent"
        print(row)
    print(f"first non-planar cutoff: {first_cutoff_frequency(geometry, medium):.1f} Hz")
    return 0


# The command table: each command's handler, one-line help and long
# options.  An option's kind is "value" (default None), "required" (a
# value that must be given), "flag" (default False), "append" (repeatable,
# kept in order; default []) or a tuple of choices, the first the default.
_COMMON = {"--config": ("value", "configuration file (key = value lines)"),
           "--set": ("append", "override a config value (repeatable; wins over the file)")}
_SWEEP = {"--modes": ("value", "modal truncation"),
          "--allow-above-cutoff": ("flag", "allow a sweep above the first duct cutoff")}
COMMANDS = {
    "retrieve": (cmd_retrieve, "invert a T,R sweep file into n1, z1", {
        **_COMMON, "--input": ("required", "T,R sweep CSV"),
        "--output": ("required", "results CSV to write"),
        "--branch-seed": ("value", "branch m of the phase k0 n1 t at the first point"), **_SWEEP}),
    "forward": (cmd_forward, "generate a T,R sweep", {
        **_COMMON, "--method": (("averaged", "fdfd"), "forward model"),
        "--output": ("required", "T,R sweep CSV to write"), **_SWEEP,
        "--dump-field": ("value", "also dump the last frequency's pressure field (fdfd)")}),
    "roundtrip": (cmd_roundtrip, "forward then retrieve, report errors", {
        **_COMMON, "--method": (("averaged", "fdfd", "both"), "forward model"),
        "--tolerance": ("value", "median relative error bound"), **_SWEEP}),
    "modes": (cmd_modes, "print the duct mode table", {
        **_COMMON, "--modes": ("value", "how many modes to list"),
        "--freq": ("value", "mark propagating/evanescent at this frequency")}),
}
# the bare program, which takes a command or one of these options
_TOP = (None, "Effective-parameter retrieval for duct samples with an air gap",
        {"--version": ("flag", "print the version and exit")})


class _UsageError(Exception):
    """A command line that does not fit ``COMMANDS``: (command, message)."""


def _spell(name: str, kind: str | tuple[str, ...]) -> str:
    if isinstance(kind, tuple):
        return f"{name} {{{','.join(kind)}}}"
    meta = "KEY=VALUE" if kind == "append" else name[2:].upper().replace("-", "_")
    return name if kind == "flag" else f"{name} {meta}"


def _help(command: str, full: bool = True) -> str:
    """The usage line of ``tubegap [command]`` and, if ``full``, its help."""
    _, about, options = COMMANDS.get(command, _TOP)
    required = [_spell(n, k) for n, (k, _) in options.items() if k == "required"]
    usage = " ".join(["usage: tubegap", command or f"{{{','.join(COMMANDS)}}}", *required, "[options]"])
    if not full:
        return usage
    rows = [] if command else [(n, text) for n, (_, text, _) in COMMANDS.items()]
    rows += [("-h, --help", "print this help and exit")]
    rows += [(_spell(n, k), text) for n, (k, text) in options.items()]
    return "\n".join([usage, "", about, ""] + [f"  {a:<30} {b}" for a, b in rows])


def _parse(argv: list[str]) -> SimpleNamespace | None:
    """The namespace ``argv`` parses to against ``COMMANDS``, or None once
    the help or version asked for is printed; ``_UsageError`` if it does not fit."""
    command = argv[0] if argv and argv[0] in COMMANDS else ""
    words = argv[1:] if command else argv
    if "-h" in words or any(len(w) > 2 and "--help".startswith(w) for w in words):
        print(_help(command))
        return None
    if not command:
        if not any(len(w) > 2 and "--version".startswith(w) for w in words):
            raise _UsageError("", f"expected a command, got {argv[0]!r}" if argv else "expected a command")
        print(f"tubegap {__version__}")
        return None
    handler, _, options = COMMANDS[command]
    values = {n: k[0] if isinstance(k, tuple) else {"flag": False, "append": []}.get(k)
              for n, (k, _) in options.items()}
    # --name=value is --name value, and a flag given a value leaves it stray;
    # otherwise a value is the next word unless that begins with "--"
    tokens = iter([part for w in words for part in (w.split("=", 1) if w[:2] == "--" else [w])])
    for token in tokens:
        hits = [n for n in options if n.startswith(token)] if token[:2] == "--" else []
        if len(hits) != 1:
            raise _UsageError(command, f"ambiguous option {token}: {', '.join(hits)}" if hits
                              else f"unrecognized argument {token!r}")
        name, kind = hits[0], options[hits[0]][0]
        value = True if kind == "flag" else next(tokens, "--")
        if value is not True and value.startswith("--"):
            raise _UsageError(command, f"{name} needs a value")
        if isinstance(kind, tuple) and value not in kind:
            raise _UsageError(command, f"{name} must be one of {', '.join(kind)}, got {value!r}")
        values[name] = values[name] + [value] if kind == "append" else value
    missing = [n for n, (k, _) in options.items() if k == "required" and values[n] is None]
    if missing:
        raise _UsageError(command, f"missing required {', '.join(missing)}")
    return SimpleNamespace(func=handler, **{n[2:].replace("-", "_"): v for n, v in values.items()})


def main(argv: list[str] | None = None) -> int:
    try:
        args = _parse(sys.argv[1:] if argv is None else argv)
        code = 0 if args is None else args.func(args)
        sys.stdout.flush()      # a reader that closed early fails here, not at exit
        return code
    except BrokenPipeError:
        # the reader is gone: end quietly, stdout on devnull for the flush at exit
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except _UsageError as exc:
        command, message = exc.args
        print(_help(command, full=False), f"tubegap {command}".rstrip() + f": error: {message}",
              sep="\n", file=sys.stderr)
        return 2
    except (ConfigError, DomainError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except TubegapError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
