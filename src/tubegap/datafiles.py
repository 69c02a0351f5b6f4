"""CSV data files for scattering sweeps, retrieval results and field dumps.

All files are plain CSV with one header row; lines starting with ``#``
are comments.  Complex quantities are stored as separate Re/Im columns.
Floats are written with 17 significant digits so that a write/read round
trip reproduces every value bit for bit, and nothing time- or
machine-dependent goes into the data files (run metadata lives in a
``<name>.meta`` sidecar).  Every table goes through one writer and one
reader, which reports each defect as ``path:line: reason``.
"""

from __future__ import annotations

import os

from tubegap import __version__
from tubegap.errors import ConfigError, TubegapError
from tubegap.retrieval import RetrievedProperties
from tubegap.types import ScatteringData

TYPE_CHECKING = False  # typing.TYPE_CHECKING without importing typing
if TYPE_CHECKING:
    from pathlib import Path

TR_COLUMNS = ["f_hz", "re_t", "im_t", "re_r", "im_r"]
RESULT_COLUMNS = ["f_hz", "re_n1", "im_n1", "re_z1", "im_z1", "z1_over_z2_mag", "branch_m", "sign",
                  "condition_number", "flags"]
FIELD_COLUMNS = ["x_m", "r_m", "re_p", "im_p"]


def file_name(path: str | Path) -> str:
    """The name ``pathlib.Path(path)`` would open, without importing
    pathlib: repeated slashes and ``.`` components dropped (two leading
    slashes kept, as POSIX allows), ``.`` for an empty path.  A name with a
    null byte, which no file can have, raises ``ConfigError``."""
    name = os.fspath(path)
    if "\0" in name:
        raise ConfigError(f"{name!r}: a file name cannot hold a null byte")
    body = name.lstrip("/")
    lead = len(name) - len(body)
    root = "//" if lead == 2 else "/" if lead else ""
    return root + "/".join(part for part in body.split("/") if part not in ("", ".")) or "."


def _write_text(path: str | Path, text: str) -> None:
    with open(file_name(path), "w") as out:
        out.write(text)


def _write_table(path: str | Path, columns: list[str], rows, comments=()) -> None:
    """Comments, the header, then one line per row; string cells are
    written as they are, numbers with 17 significant digits."""
    lines = [f"# {c}" for c in comments]
    lines.append(",".join(columns))
    for row in rows:
        lines.append(",".join(c if isinstance(c, str) else format(float(c), ".17g") for c in row))
    _write_text(path, "\n".join(lines) + "\n")


def read_text(path: str | Path) -> str:
    """The text of a file; undecodable bytes raise a ``ConfigError`` naming it."""
    try:
        with open(file_name(path)) as source:
            return source.read()
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not a text file ({exc})") from exc


def _read_table(path: str | Path, columns: list[str], parse) -> list:
    """``parse(cells)`` of every data row, after checking the header and
    the column count.  A ``ValueError`` from ``parse`` becomes a
    ``ConfigError`` naming the line: a package error keeps its own
    reason, any other one reads as a non-numeric value."""
    rows = []
    header_seen = False
    for lineno, line in enumerate(read_text(path).splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        cells = [c.strip() for c in stripped.split(",")]
        if not header_seen:
            if cells != columns:
                raise ConfigError(
                    f"{path}:{lineno}: expected header {','.join(columns)!r}, got {stripped!r}"
                )
            header_seen = True
            continue
        if len(cells) != len(columns):
            raise ConfigError(f"{path}:{lineno}: expected {len(columns)} columns, got {len(cells)}")
        try:
            rows.append(parse(cells))
        except ValueError as exc:
            reason = exc if isinstance(exc, TubegapError) else f"non-numeric value in {stripped!r}"
            raise ConfigError(f"{path}:{lineno}: {reason}") from exc
    if not header_seen:
        raise ConfigError(f"{path}: no header row found")
    if not rows:
        raise ConfigError(f"{path}: no data rows")
    return rows


def write_tr_csv(path: str | Path, data: list[ScatteringData], comments: list[str] = ()) -> None:
    rows = (
        (d.f, d.transmission.real, d.transmission.imag, d.reflection.real, d.reflection.imag)
        for d in data
    )
    _write_table(path, TR_COLUMNS, rows, comments)


def _tr_row(cells: list[str]) -> ScatteringData:
    f, re_t, im_t, re_r, im_r = map(float, cells)
    return ScatteringData(f=f, transmission=complex(re_t, im_t), reflection=complex(re_r, im_r))


def read_tr_csv(path: str | Path) -> list[ScatteringData]:
    """Parse a scattering sweep file, reporting the line of any defect."""
    return _read_table(path, TR_COLUMNS, _tr_row)


def write_results_csv(
    path: str | Path,
    results: list[RetrievedProperties],
    z2: complex,
    comments: list[str] = (),
) -> None:
    rows = (
        (r.f, r.n1.real, r.n1.imag, r.z1.real, r.z1.imag, abs(r.z1 / z2),
         str(r.branch_m), str(r.sign_choice), r.condition_number, ";".join(r.flags))
        for r in results
    )
    _write_table(path, RESULT_COLUMNS, rows, comments)


def _result_row(cells: list[str]) -> dict:
    f, re_n1, im_n1, re_z1, im_z1, ratio, branch_m, sign, condition_number, flags = cells
    return {
        "f": float(f),
        "n1": complex(float(re_n1), float(im_n1)),
        "z1": complex(float(re_z1), float(im_z1)),
        "z1_over_z2_mag": float(ratio),
        "branch_m": int(branch_m),
        "sign": int(sign),
        "condition_number": float(condition_number),
        "flags": tuple(p for p in flags.split(";") if p),
    }


def read_results_csv(path: str | Path) -> list[dict]:
    """Read a results file back as dict rows (floats, ints, flag tuple)."""
    return _read_table(path, RESULT_COLUMNS, _result_row)


def write_sidecar(path: str | Path, config_dump: str, command: str) -> None:
    """``<path>.meta``: the tool and its version, the command that wrote
    ``path`` and the resolved configuration; deliberately timestamp-free."""
    lines = ["# run metadata", f"tool = tubegap {__version__}", f"command = {command}",
             "# resolved configuration", config_dump.rstrip("\n")]
    _write_text(str(path) + ".meta", "\n".join(lines) + "\n")


def write_field_csv(path: str | Path, x, r, p) -> None:
    """Raster dump of a complex pressure field as x, r, Re p, Im p rows."""
    rows = (
        (xv, rv, p[i, j].real, p[i, j].imag) for i, xv in enumerate(x) for j, rv in enumerate(r)
    )
    _write_table(path, FIELD_COLUMNS, rows)
