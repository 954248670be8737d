"""Choi-type positive maps on qutrits: positivity classification, facial
structure of the parameter body, spanning properties, optimality probes and
optimal PPTES witnesses for the type-{6,8} edge states."""

from .errors import (
    InternalConsistencyError,
    NoDetectingChoiceError,
    NonHermitianError,
    NotAFaceError,
    NotPositiveMapError,
    OutOfRangeError,
    ThetaOutOfRangeError,
    UndecidedError,
    UnsupportedCaseError,
    UnsupportedThetaError,
)
from .faces import (
    FaceKind,
    FaceLabel,
    PropertyRow,
    boundary_parametrization,
    classify_face,
    classify_faces,
    face_properties,
)
from .linalg import hermitian_eigenvalues, partial_transpose
from .maps import MapParams, choi_matrix, cp_threshold, edge_state, pairing_value
from .optimality import (
    CooptimalitySubtraction,
    OptimalityClassification,
    OptimalityProbeReport,
    classify_optimality,
    cooptimality_subtraction,
    optimality_probe,
    subtraction_budget,
)
from .positivity import (
    BlockPositivityCertificate,
    BlockPositivityReport,
    block_positivity_oracle,
    certify_block_positivity,
    is_completely_copositive,
    is_completely_positive,
    is_positive,
)
from .spanning import SpanningReport, has_cospanning_property, has_spanning_property
from .witness import (
    WitnessSpec,
    alpha_range,
    build_witness,
    solve_beta_gamma,
    witness_matrix,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
