"""Effective acoustic parameter retrieval for duct samples with an air gap.

The package has two independent halves:

* a model-based retrieval pipeline (``tubegap.retrieval`` on top of
  ``tubegap.modal``, with its own Bessel functions) that inverts measured
  complex transmission/reflection pairs into the sample's effective
  refractive index and acoustic impedance; the paper's eight interface
  equations per frequency split into two mirror-symmetric 2x2 systems,
  solved in closed form, one point at a time, in plain Python;
* a finite-difference frequency-domain simulator (``tubegap.fdfd``)
  that produces transmission/reflection data for the same scene from
  first principles, used to verify the retrieval end to end.

Only the simulator uses numpy, and it imports numpy inside its
functions: importing the package, or the command line, loads no numpy,
and neither do the averaged model and the retrieval.  The records are
namedtuples, so no ``dataclasses`` (nor ``inspect``) loads either, and no
module imports ``typing`` or ``pathlib``: annotation-only imports sit
behind a plain ``TYPE_CHECKING = False`` and files are opened by name.
``import tubegap.cli`` took 26-30 ms without a bytecode cache on a 2-core
host whose ``site`` already loads both modules.

The top level exports the sweep workflow (``__all__``); the building
blocks are imported from their own modules.
"""

__version__ = "0.1.0"

from tubegap.errors import (
    ConfigError,
    ConvergenceError,
    DegenerateSampleError,
    DomainError,
    IllConditionedSystemError,
    ResolutionError,
    SingularMeasurementError,
    TubegapError,
)
from tubegap.types import (
    DuctGeometry,
    GapProperties,
    MaterialSpec,
    MediumProperties,
    ScatteringData,
)
from tubegap.retrieval import (
    RetrievalConfig,
    RetrievedProperties,
    forward_averaged_sweep,
    retrieve_sweep,
)
from tubegap.fdfd import SimGrid, build_scene, solve_sweep, sweep_fields

__all__ = [
    "ConfigError", "ConvergenceError", "DegenerateSampleError", "DomainError",
    "IllConditionedSystemError", "ResolutionError", "SingularMeasurementError", "TubegapError",
    "DuctGeometry", "GapProperties", "MaterialSpec", "MediumProperties", "ScatteringData",
    "RetrievalConfig", "RetrievedProperties", "forward_averaged_sweep", "retrieve_sweep",
    "SimGrid", "build_scene", "solve_sweep", "sweep_fields",
]
