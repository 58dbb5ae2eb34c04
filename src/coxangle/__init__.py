"""Exact minimal angles of spherical Tits diagrams.

Requests use closed forms: angular distances from the diagonal of the
inverse Cartan matrix, opposition from a type table and folds from
positive-root counts. Minimal angles are classified against the pi/3
threshold without ever touching floating point. The rational root-system
realizations (realize) serve weyl_orbit and the test oracles.

The name coxangle.fold is the function fold, which this package root
binds over the submodule of the same name; the module itself is
sys.modules["coxangle.fold"].
"""

from .angle import PI, PI_OVER_2, PI_OVER_3, Angle, Verdict, verdict_against_pi_over_3
from .diagram import (
    AutGroup,
    CoxeterDiagram,
    Permutation,
    builtin,
    classify,
    component_of,
    new_diagram,
    orbits,
    restrict,
    type_name,
)
from .errors import (
    CoxangleError,
    DimensionMismatch,
    DuplicateLabel,
    InvalidEntry,
    InvalidTitsDiagram,
    NonCrystallographic,
    NotAnAutomorphism,
    NotSpherical,
    NontrivialGamma,
    OrbitBudgetExceeded,
    OrderBudgetExceeded,
    RankOutOfRange,
    UnknownNode,
    UnknownType,
    ZeroRelativeRank,
)
from .fold import FoldResult, fold, fold_tits
from .geometry import Realization, realize, reflect
from .tits import (
    CatalogEntry,
    TitsDiagram,
    ValidationReport,
    Violation,
    admissibility,
    angular_distance,
    enumerate_indices,
    minimal_angle,
    minimal_angle_report,
    rank_one_subdiagrams,
    reference_catalog,
    relative_rank,
    tits_diagram,
    validate,
)
from .weyl import (
    OrthogonalElement,
    element_order,
    group_order,
    longest_element,
    opposition,
    orbit_size,
    weyl_orbit,
)

__version__ = "0.1.0"

__all__ = [
    "Angle",
    "AutGroup",
    "CatalogEntry",
    "CoxeterDiagram",
    "CoxangleError",
    "DimensionMismatch",
    "DuplicateLabel",
    "FoldResult",
    "InvalidEntry",
    "InvalidTitsDiagram",
    "NonCrystallographic",
    "NotAnAutomorphism",
    "NotSpherical",
    "NontrivialGamma",
    "OrbitBudgetExceeded",
    "OrderBudgetExceeded",
    "OrthogonalElement",
    "PI",
    "PI_OVER_2",
    "PI_OVER_3",
    "Permutation",
    "RankOutOfRange",
    "Realization",
    "TitsDiagram",
    "UnknownNode",
    "UnknownType",
    "ValidationReport",
    "Verdict",
    "Violation",
    "ZeroRelativeRank",
    "admissibility",
    "angular_distance",
    "builtin",
    "classify",
    "component_of",
    "element_order",
    "enumerate_indices",
    "fold",
    "fold_tits",
    "group_order",
    "longest_element",
    "minimal_angle",
    "minimal_angle_report",
    "new_diagram",
    "opposition",
    "orbit_size",
    "orbits",
    "rank_one_subdiagrams",
    "realize",
    "reference_catalog",
    "reflect",
    "relative_rank",
    "restrict",
    "tits_diagram",
    "type_name",
    "validate",
    "verdict_against_pi_over_3",
    "weyl_orbit",
]
