"""Numerical laboratory for finite PT-symmetric lattice Hamiltonians.

Builds open-chain and ring models with antisymmetric couplings, computes
their complex spectra, maps the reality domains of the coupling parameter
t, locates exceptional points, and constructs metric operators Theta
solving H^T Theta = Theta H together with their positivity intervals.
"""

from .custom import evaluate, infer_validity, load_custom_model, parse_expression
from .domains import (
    DomainReport,
    EPKind,
    EPLocation,
    RealityProfile,
    degeneracy_order,
    domain_report,
    locate_coalescence_ep,
    maximal_jordan_block,
    reality_islands,
    reality_profile,
    refine_reality_boundary,
)
from .errors import (
    BracketError,
    BrokenPhaseError,
    ConsistencyError,
    DegenerateSpectrumError,
    EpNotFoundError,
    ExprError,
    InvalidSpecError,
    ModelDomainError,
    ModelFileError,
    NumericalError,
    OracleError,
    PtLatticeError,
    SolverError,
    TrackingError,
)
from .lattice import (
    Topology,
    build_matrix,
    is_pt_symmetric,
    parity,
)
from .intertwiner import (
    SolutionBasis,
    intertwiner_bases,
    intertwiner_basis,
    intertwiner_residual,
    unvec_sym,
    vec_sym,
)
from .metrics import (
    MetricCandidate,
    MetricProvenance,
    MetricSection,
    PositivityReport,
    positivity_interval,
    reference_metric_ec4,
    reference_metric_ec4_eigenvalues,
    reference_metric_ec4_strong,
    spectral_metric,
    tracked_positivity_boundary,
)
from .models import Model, ModelFamily, get_family, iter_families, model_names
from .spectra import (
    EigenPair,
    Phase,
    PtPhase,
    Spectrum,
    count_real,
    ec4_closed_form,
    ec4_pair_vectors,
    eigenvalues,
    left_right_pairs,
    matching_distance,
    min_pairwise_gap,
    pt_phase,
    sweep_eigenvalues,
    vector_angle,
)

__all__ = [
    "BracketError",
    "BrokenPhaseError",
    "ConsistencyError",
    "DegenerateSpectrumError",
    "DomainReport",
    "EPKind",
    "EPLocation",
    "EigenPair",
    "EpNotFoundError",
    "ExprError",
    "InvalidSpecError",
    "MetricCandidate",
    "MetricProvenance",
    "MetricSection",
    "Model",
    "ModelDomainError",
    "ModelFamily",
    "ModelFileError",
    "NumericalError",
    "OracleError",
    "Phase",
    "PositivityReport",
    "PtLatticeError",
    "PtPhase",
    "RealityProfile",
    "SolutionBasis",
    "SolverError",
    "Spectrum",
    "Topology",
    "TrackingError",
    "build_matrix",
    "charpoly_coefficients",
    "count_real",
    "degeneracy_order",
    "domain_report",
    "ec4_closed_form",
    "ec4_pair_vectors",
    "eigenvalues",
    "eigenvalues_charpoly_oracle",
    "evaluate",
    "get_family",
    "infer_validity",
    "intertwiner_bases",
    "intertwiner_basis",
    "intertwiner_residual",
    "is_pt_symmetric",
    "iter_families",
    "left_right_pairs",
    "load_custom_model",
    "locate_coalescence_ep",
    "matching_distance",
    "maximal_jordan_block",
    "min_pairwise_gap",
    "model_names",
    "model_oracle_eigenvalues",
    "parity",
    "parse_expression",
    "positivity_interval",
    "pt_phase",
    "reality_islands",
    "reality_profile",
    "reference_metric_ec4",
    "reference_metric_ec4_eigenvalues",
    "reference_metric_ec4_strong",
    "refine_reality_boundary",
    "spectral_metric",
    "sweep_eigenvalues",
    "tracked_positivity_boundary",
    "unvec_sym",
    "vec_sym",
    "vector_angle",
]

# The characteristic-polynomial oracle needs mpmath, which takes longer to
# import than the rest of the package; it loads on first use.
_ORACLE_NAMES = (
    "charpoly_coefficients",
    "eigenvalues_charpoly_oracle",
    "model_oracle_eigenvalues",
)


def __getattr__(name):
    if name in _ORACLE_NAMES:
        from . import charpoly

        return getattr(charpoly, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
