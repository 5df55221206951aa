"""Best uniform (minimax) approximation of finite data sets.

Fits a linear combination of basis functions to points so that the largest
(optionally weighted) absolute residual is as small as possible, by solving
a linear program; exposes the dual certificate of optimality and the
equioscillation structure of the solution.
"""

from .basis import (
    BasisFunction,
    BasisSet,
    design_matrix,
    format_basis_spec,
    parse_basis_spec,
)
from .certificates import (
    CertificateReport,
    DualCertificate,
    check_active_point_count,
    check_two_sided,
    extract_certificate,
    verify_identities,
)
from .equioscillation import (
    ImprovementCheck,
    LagrangePolynomial,
    PerturbationStep,
    ReferenceSet,
    alternation_pattern,
    lagrange_interpolate,
    one_sided_construction,
    perturbation_step,
    strict_improvement_check,
)
from .errors import (
    DegenerateCase,
    DimensionError,
    DimensionMismatch,
    DuplicateNodeError,
    EquifitError,
    EvaluationError,
    NoCandidate,
    NumericFailure,
    ParseError,
    PreconditionError,
    SolverError,
    TooLarge,
)
from .fitting import FitResult, ProblemInstance, fit, objective_value
from .lp import LpSolution
from .oracle import OracleResult, brute_force_fit

__version__ = "0.1.0"

__all__ = [
    "BasisFunction",
    "BasisSet",
    "CertificateReport",
    "DegenerateCase",
    "DimensionError",
    "DimensionMismatch",
    "DualCertificate",
    "DuplicateNodeError",
    "EquifitError",
    "EvaluationError",
    "FitResult",
    "ImprovementCheck",
    "LagrangePolynomial",
    "LpSolution",
    "NoCandidate",
    "NumericFailure",
    "OracleResult",
    "ParseError",
    "PerturbationStep",
    "PreconditionError",
    "ProblemInstance",
    "ReferenceSet",
    "SolverError",
    "TooLarge",
    "alternation_pattern",
    "brute_force_fit",
    "check_active_point_count",
    "check_two_sided",
    "design_matrix",
    "extract_certificate",
    "fit",
    "format_basis_spec",
    "lagrange_interpolate",
    "objective_value",
    "one_sided_construction",
    "parse_basis_spec",
    "perturbation_step",
    "strict_improvement_check",
    "verify_identities",
]
