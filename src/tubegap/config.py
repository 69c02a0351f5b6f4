"""Run configuration: flat dotted keys from a text file, flags win.

A config file is plain text, one ``key = value`` per line, ``#`` comments.
Example::

    # sample-1 run
    geometry.r1 = 0.040
    geometry.r2 = 0.070
    geometry.t  = 0.0052
    material.n1_re = 5
    material.z1_over_z2 = 15
    sweep.start = 300
    sweep.stop = 2500
    sweep.count = 45

Unknown keys are rejected so typos fail loudly, and so are values that do
not parse as the key's type (floats must be finite), from the file and
from overrides alike.  The medium, modal and oracle defaults come from
the modules that own them.
"""

from __future__ import annotations

import math

from tubegap.datafiles import read_text
from tubegap.errors import ConfigError
from tubegap.fdfd import DEFAULT_CELLS_PER_WAVELENGTH
from tubegap.modal import DEFAULT_MODE_COUNT
from tubegap.retrieval import RetrievalConfig
from tubegap.types import DuctGeometry, GapProperties, MaterialSpec, MediumProperties

TYPE_CHECKING = False  # typing.TYPE_CHECKING without importing typing
if TYPE_CHECKING:
    from pathlib import Path

# every key: (type, default, or None where the key has no default)
_KEYS: dict[str, tuple[type, object]] = {
    "medium.rho0": (float, MediumProperties().rho0),
    "medium.c0": (float, MediumProperties().c0),
    "geometry.r1": (float, None),
    "geometry.r2": (float, None),
    "geometry.t": (float, None),
    "modal.count": (int, DEFAULT_MODE_COUNT),
    "branch.seed": (int, None),
    "sweep.start": (float, 300.0),
    "sweep.stop": (float, 2500.0),
    "sweep.count": (int, 45),
    "material.n1_re": (float, None),
    "material.n1_im": (float, 0.0),
    "material.z1_over_z2": (float, None),
    "material.z1_re": (float, None),
    "material.z1_im": (float, 0.0),
    "oracle.cells_per_wavelength": (float, DEFAULT_CELLS_PER_WAVELENGTH),
    # accepted and ignored: the simulator no longer sizes anything from the
    # lowest frequency, but benchmarks/workloads.fdfd_config still passes
    # it; remove it with ROADMAP item 1 (benchmark housekeeping)
    "oracle.f_min": (float, None),
    "retrieve.allow_above_cutoff": (bool, False),
    "roundtrip.tolerance": (float, 0.01),
}


def parse_value(name: str, raw: str, kind: type) -> bool | int | float:
    """Parse ``raw`` as ``kind`` (bool, int or finite float); ``ConfigError``
    names ``name`` (a config key or a CLI flag) when it does not parse."""
    expected = "a finite float" if kind is float else kind.__name__
    raw = raw.strip()
    try:
        if kind is bool:
            low = raw.lower()
            if low in ("true", "yes", "1", "on"):
                return True
            if low in ("false", "no", "0", "off"):
                return False
            raise ValueError(raw)
        if kind is int:
            return int(raw)
        value = float(raw)
        if not math.isfinite(value):
            raise ValueError(raw)
        return value
    except ValueError as exc:
        raise ConfigError(f"cannot parse {name} = {raw!r} as {expected}") from exc


class RunConfig:
    """Resolved configuration for one CLI run: ``values`` maps each set key
    to its parsed value."""

    def __init__(self, values: dict[str, object]) -> None:
        self.values = values

    @classmethod
    def from_file(cls, path: str | Path | None, overrides: dict[str, str] | None = None) -> "RunConfig":
        values = {key: default for key, (_, default) in _KEYS.items() if default is not None}
        if path is not None:
            text = read_text(path)
            for lineno, line in enumerate(text.splitlines(), start=1):
                stripped = line.split("#", 1)[0].strip()
                if not stripped:
                    continue
                if "=" not in stripped:
                    raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {line!r}")
                key, raw = (part.strip() for part in stripped.split("=", 1))
                if key not in _KEYS:
                    raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
                values[key] = parse_value(key, raw, _KEYS[key][0])
        for key, raw in (overrides or {}).items():
            if key not in _KEYS:
                raise ConfigError(f"override: unknown key {key!r}")
            values[key] = parse_value(key, raw, _KEYS[key][0])
        return cls(values=values)

    def require(self, key: str) -> object:
        if key not in self.values:
            raise ConfigError(f"missing required config key {key!r}")
        return self.values[key]

    # --- domain object builders -------------------------------------
    def medium(self) -> MediumProperties:
        return MediumProperties(
            rho0=float(self.values["medium.rho0"]), c0=float(self.values["medium.c0"])
        )

    def geometry(self) -> DuctGeometry:
        return DuctGeometry(
            r1=float(self.require("geometry.r1")),
            r2=float(self.require("geometry.r2")),
            t=float(self.require("geometry.t")),
        )

    def material(self) -> MaterialSpec:
        n1 = complex(float(self.require("material.n1_re")), float(self.values["material.n1_im"]))
        if "material.z1_re" in self.values and "material.z1_over_z2" in self.values:
            raise ConfigError("set either material.z1_over_z2 or material.z1_re, not both")
        if "material.z1_re" not in self.values and self.values["material.z1_im"] != 0.0:
            raise ConfigError("material.z1_im needs material.z1_re (it would be ignored)")
        if "material.z1_re" in self.values:
            z1 = complex(float(self.values["material.z1_re"]), float(self.values["material.z1_im"]))
        elif "material.z1_over_z2" in self.values:
            gap = GapProperties.from_geometry(self.geometry(), self.medium())
            z1 = float(self.values["material.z1_over_z2"]) * gap.z2
        else:
            raise ConfigError("material needs either material.z1_over_z2 or material.z1_re")
        return MaterialSpec(n1=n1, z1=z1)

    def retrieval(self) -> RetrievalConfig:
        return RetrievalConfig(
            n_modes=int(self.values["modal.count"]),
            branch_seed=(int(self.values["branch.seed"]) if "branch.seed" in self.values else None),
        )

    def sweep_frequencies(self) -> list[float]:
        start = float(self.values["sweep.start"])
        stop = float(self.values["sweep.stop"])
        count = int(self.values["sweep.count"])
        if not (0 < start < stop) or count < 1:
            raise ConfigError(f"bad sweep: start={start} stop={stop} count={count}")
        if count == 1:
            return [start]
        # numpy.linspace's points, bit for bit: start + i * step, then stop itself
        step = (stop - start) / (count - 1)
        return [start + i * step for i in range(count - 1)] + [stop]

    def dump(self) -> str:
        """Canonical text form (sorted keys), used for the run sidecar."""
        lines = [f"{key} = {self.values[key]}" for key in sorted(self.values)]
        return "\n".join(lines) + "\n"
