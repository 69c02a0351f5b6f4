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
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from tubegap.errors import ConfigError
from tubegap.fdfd import DEFAULT_CELLS_PER_WAVELENGTH
from tubegap.modal import DEFAULT_MODE_COUNT
from tubegap.retrieval import RetrievalConfig
from tubegap.types import DuctGeometry, GapProperties, MaterialSpec, MediumProperties

_SCHEMA: dict[str, type] = {
    "medium.rho0": float,
    "medium.c0": float,
    "geometry.r1": float,
    "geometry.r2": float,
    "geometry.t": float,
    "modal.count": int,
    "branch.seed": int,
    "sweep.start": float,
    "sweep.stop": float,
    "sweep.count": int,
    "material.n1_re": float,
    "material.n1_im": float,
    "material.z1_over_z2": float,
    "material.z1_re": float,
    "material.z1_im": float,
    "oracle.cells_per_wavelength": float,
    # accepted and ignored: the simulator no longer sizes anything from the
    # lowest frequency, but benchmarks/workloads.fdfd_config still passes
    # it; remove it with ROADMAP item 1 (benchmark housekeeping)
    "oracle.f_min": float,
    "retrieve.allow_above_cutoff": bool,
    "roundtrip.tolerance": float,
}

_DEFAULTS: dict[str, object] = {
    "medium.rho0": MediumProperties().rho0,
    "medium.c0": MediumProperties().c0,
    "modal.count": DEFAULT_MODE_COUNT,
    "sweep.start": 300.0,
    "sweep.stop": 2500.0,
    "sweep.count": 45,
    "material.n1_im": 0.0,
    "material.z1_im": 0.0,
    "oracle.cells_per_wavelength": DEFAULT_CELLS_PER_WAVELENGTH,
    "retrieve.allow_above_cutoff": False,
    "roundtrip.tolerance": 0.01,
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


@dataclass
class RunConfig:
    """Resolved configuration for one CLI run."""

    values: dict[str, object] = field(default_factory=dict)

    @classmethod
    def from_file(cls, path: str | Path | None, overrides: dict[str, str] | None = None) -> "RunConfig":
        values = dict(_DEFAULTS)
        if path is not None:
            text = Path(path).read_text()
            for lineno, line in enumerate(text.splitlines(), start=1):
                stripped = line.split("#", 1)[0].strip()
                if not stripped:
                    continue
                if "=" not in stripped:
                    raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {line!r}")
                key, raw = (part.strip() for part in stripped.split("=", 1))
                if key not in _SCHEMA:
                    raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
                values[key] = parse_value(key, raw, _SCHEMA[key])
        for key, raw in (overrides or {}).items():
            if key not in _SCHEMA:
                raise ConfigError(f"override: unknown key {key!r}")
            values[key] = parse_value(key, raw, _SCHEMA[key])
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
            allow_above_cutoff=bool(self.values["retrieve.allow_above_cutoff"]),
        )

    def sweep_frequencies(self) -> list[float]:
        start = float(self.values["sweep.start"])
        stop = float(self.values["sweep.stop"])
        count = int(self.values["sweep.count"])
        if not (0 < start < stop) or count < 1:
            raise ConfigError(f"bad sweep: start={start} stop={stop} count={count}")
        if count == 1:
            return [start]
        return [float(f) for f in np.linspace(start, stop, count)]

    def dump(self) -> str:
        """Canonical text form (sorted keys), used for the run sidecar."""
        lines = [f"{key} = {self.values[key]}" for key in sorted(self.values)]
        return "\n".join(lines) + "\n"
