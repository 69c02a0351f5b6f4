"""Effective acoustic parameter retrieval for duct samples with an air gap.

The package has two independent halves:

* a model-based retrieval pipeline (``tubegap.retrieval`` on top of
  ``tubegap.modal``, which evaluates its Bessel functions with numpy)
  that inverts measured complex transmission/reflection pairs into the
  sample's effective refractive index and acoustic impedance; the paper's
  eight interface equations per frequency split into two mirror-symmetric
  2x2 systems, solved in closed form over a sweep's points at once;
* a finite-difference frequency-domain simulator (``tubegap.fdfd``)
  that produces transmission/reflection data for the same scene from
  first principles, used to verify the retrieval end to end.
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
from tubegap.modal import (
    CouplingCoefficients,
    ModalBasis,
    coupling_coefficients,
    duct_wavenumbers,
    first_cutoff_frequency,
    radial_integral,
)
from tubegap.retrieval import (
    DegenerateFieldsError,
    FieldState,
    RetrievalConfig,
    RetrievedProperties,
    TransferMatrix,
    classic_retrieve,
    forward_averaged_sweep,
    impedance_from_fields,
    index_from_fields,
    retrieve_sweep,
    tr_from_transfer_matrix,
    transfer_matrix_from_tr,
)
from tubegap.fdfd import (SimGrid, build_scene, grid_wavenumber, solve_field, solve_harmonic,
                          solve_sweep, sweep_fields)

__all__ = [name for name in dir() if not name.startswith("_")]
