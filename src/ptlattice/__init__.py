"""Numerical laboratory for finite PT-symmetric lattice Hamiltonians.

Builds open-chain and ring models with antisymmetric couplings, computes
their complex spectra, maps the reality domains of the coupling parameter
t, locates exceptional points, and constructs metric operators Theta
solving H^T Theta = Theta H together with their positivity intervals.

``import ptlattice`` loads no submodule.  Each public name is served from
the submodule that defines it, which is imported on first access, so a
caller pays only for what it uses: numpy loads with the first matrix, and
mpmath only with the exact-entry oracle, which builds a model's entries at
50 digits.
"""

from importlib import import_module

__version__ = "0.1.0"

# Submodule -> the public names it defines.
_EXPORTS = {
    "charpoly": (
        "charpoly_coefficients",
        "eigenvalues_charpoly_oracle",
        "model_oracle_eigenvalues",
    ),
    "custom": ("evaluate", "infer_validity", "load_custom_model", "parse_expression"),
    "domains": (
        "DomainReport",
        "EPKind",
        "EPLocation",
        "degeneracy_order",
        "domain_report",
        "locate_coalescence_ep",
        "maximal_jordan_block",
        "reality_islands",
        "refine_reality_boundary",
    ),
    "errors": (
        "BracketError",
        "BrokenPhaseError",
        "ConsistencyError",
        "DegenerateSpectrumError",
        "EpNotFoundError",
        "ExprError",
        "InvalidSpecError",
        "ModelDomainError",
        "ModelFileError",
        "NumericalError",
        "OracleError",
        "PtLatticeError",
        "SolverError",
        "TrackingError",
    ),
    "intertwiner": (
        "SolutionBasis",
        "intertwiner_bases",
        "intertwiner_basis",
        "intertwiner_residual",
        "unvec_sym",
        "vec_sym",
    ),
    "lattice": ("Topology", "build_matrix", "is_pt_symmetric", "parity"),
    "metrics": (
        "MetricCandidate",
        "MetricProvenance",
        "MetricSection",
        "PositivityReport",
        "positivity_interval",
        "reference_metric_ec4",
        "reference_metric_ec4_eigenvalues",
        "reference_metric_ec4_strong",
        "spectral_metric",
        "tracked_positivity_boundary",
    ),
    "models": ("Model", "ModelFamily", "get_family", "iter_families", "model_names"),
    "spectra": (
        "EigenPair",
        "Phase",
        "PtPhase",
        "Spectrum",
        "count_real",
        "ec4_closed_form",
        "ec4_pair_vectors",
        "eigenvalues",
        "left_right_pairs",
        "matching_distance",
        "min_pairwise_gap",
        "pt_phase",
        "sweep_eigenvalues",
        "vector_angle",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{module}"), name)
    globals()[name] = value  # later lookups find it without this call
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
