"""Effective acoustic parameter retrieval for duct samples with an air gap.

The package has two independent halves:

* a model-based retrieval pipeline (``tubegap.retrieval`` on top of
  ``tubegap.modal``, whose Bessel functions come from ``scipy.special``)
  that inverts measured complex transmission/reflection pairs into the
  sample's effective refractive index and acoustic impedance by solving
  an 8x8 interface system;
* a finite-difference frequency-domain simulator (``tubegap.fdfd``)
  that produces transmission/reflection data for the same scene from
  first principles, used to verify the retrieval end to end.
"""

__version__ = "0.1.0"

from tubegap.errors import (
    ConfigError,
    ConvergenceError,
    DecompositionError,
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
    eigenmode,
    first_cutoff_frequency,
    radial_integral,
)
from tubegap.retrieval import (
    DegenerateFieldsError,
    FieldState,
    RetrievalConfig,
    RetrievedProperties,
    TransferMatrix,
    assemble_system,
    classic_retrieve,
    forward_averaged,
    forward_averaged_sweep,
    impedance_from_fields,
    index_from_fields,
    retrieve_point,
    retrieve_sweep,
    solve_fields,
    tr_from_transfer_matrix,
    transfer_matrix_from_tr,
)
from tubegap.fdfd import (
    OracleSettings,
    PortRecord,
    SimGrid,
    build_scene,
    grid_wavenumber,
    scattering_from_ports,
    solve_field,
    solve_harmonic,
)

__all__ = [name for name in dir() if not name.startswith("_")]
