"""Boundary Schwarz-Pick and Pick matrices for finite Blaschke products.

The package computes boundary Schwarz-Pick matrices of finite Blaschke
products by three independent routes (the realization route also inside the
disk), builds Pick matrices from raw boundary jet data, and decides whether
a set of boundary contact conditions pins the product down uniquely within
the Schur class, emitting machine-checkable certificates either way.
"""

from .blaschke import (
    BlaschkeProduct,
    evaluate,
    level_set,
    make_blaschke,
    poles,
    taylor_jet,
)
from .errors import (
    BlaschkePickError,
    CoincidentPoints,
    ConstantNotUnimodular,
    ConvergenceFailure,
    DegenerateDenominator,
    Inconclusive,
    InsufficientJet,
    PoleEvaluation,
    PrincipalNotPD,
    RankMismatch,
    RootFindingFailure,
    SingularResolvent,
    ZeroOnOrOutsideDisk,
)
from .hermitian import HermitianReport, make_report, schur_complement
from .pick import (
    AdmissibilityReport,
    Completion,
    JetData,
    admissible,
    complete_to_pd,
    corner_value,
    extract_data,
)
from .realization import (
    UnitaryRealization,
    check_minimality,
    realize,
    resolvent_rows,
    sp_via_realization,
    transfer_eval,
    unitarity_defect,
)
from .schwarz_pick import (
    RadialDiagnostics,
    SchwarzPickMatrix,
    psi_matrix,
    sp_boundary_radial,
    sp_boundary_structured,
)
from .uniqueness import (
    ContactProblem,
    NonUniqueCertificate,
    Tolerances,
    UniqueCertificate,
    Verdict,
    criterion,
    decide,
    derivative_orders,
    matches_jets,
)

__version__ = "0.1.0"

__all__ = [
    "AdmissibilityReport",
    "BlaschkePickError",
    "BlaschkeProduct",
    "CoincidentPoints",
    "Completion",
    "ConstantNotUnimodular",
    "ContactProblem",
    "ConvergenceFailure",
    "DegenerateDenominator",
    "HermitianReport",
    "Inconclusive",
    "InsufficientJet",
    "JetData",
    "NonUniqueCertificate",
    "PoleEvaluation",
    "PrincipalNotPD",
    "RadialDiagnostics",
    "RankMismatch",
    "RootFindingFailure",
    "SchwarzPickMatrix",
    "SingularResolvent",
    "Tolerances",
    "UnitaryRealization",
    "UniqueCertificate",
    "Verdict",
    "ZeroOnOrOutsideDisk",
    "admissible",
    "check_minimality",
    "complete_to_pd",
    "corner_value",
    "criterion",
    "decide",
    "derivative_orders",
    "evaluate",
    "extract_data",
    "level_set",
    "make_blaschke",
    "make_report",
    "matches_jets",
    "poles",
    "psi_matrix",
    "realize",
    "resolvent_rows",
    "schur_complement",
    "sp_boundary_radial",
    "sp_boundary_structured",
    "sp_via_realization",
    "taylor_jet",
    "transfer_eval",
    "unitarity_defect",
]
