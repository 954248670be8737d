"""Choi-type positive maps on qutrits: positivity classification, facial
structure of the parameter body, spanning properties, optimality probes and
optimal PPTES witnesses for the type-{6,8} edge states."""

from .errors import (
    ConstraintViolatedError,
    InternalConsistencyError,
    NegativeInputError,
    NoDetectingChoiceError,
    NonHermitianError,
    NotAFaceError,
    NotApplicableError,
    NotPositiveMapError,
    OutOfRangeError,
    ThetaOutOfRangeError,
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
from .linalg import (
    determinant,
    hermitian_eigenvalues,
    kron,
    numeric_rank,
    partial_transpose,
)
from .maps import (
    MapParams,
    apply_map,
    choi_matrix,
    cp_threshold,
    edge_state,
    pairing,
    pairing_value,
    phase_circulant,
    subtraction_generator,
)
from .optimality import (
    CooptimalitySubtraction,
    OptimalityClassification,
    OptimalityProbeReport,
    classify_optimality,
    cooptimality_subtraction,
    optimality_probe,
    orthocomplement_basis,
    subtraction_budget,
    vertex_optimality_analytic,
)
from .positivity import (
    BlockPositivityReport,
    FormCoefficients,
    IndecomposabilityCertificate,
    block_positivity_oracle,
    cubic_form,
    cubic_form_gradient,
    form_coefficients,
    indecomposability_certificate,
    is_completely_copositive,
    is_completely_positive,
    is_positive,
    stationary_form_determinant,
)
from .spanning import (
    ProductVector,
    SpanningReport,
    has_cospanning_property,
    has_spanning_property,
    kernel_family,
    kernel_membership,
)
from .witness import (
    WitnessSpec,
    alpha_range,
    build_witness,
    edge_kernel_vectors,
    equal_subtraction_restriction,
    solve_beta_gamma,
    witness_matrix,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
