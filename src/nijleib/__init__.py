"""Exact-arithmetic engine for Nijenhuis operators on Leibniz algebras.

Structure constants, operators, and module actions use rational arithmetic
throughout; every verification verb returns either a pass or an explicit
counterexample certificate.
"""

from ._record import replace
from .algebra import (
    Counterexample,
    LeibnizAlgebra,
    Representation,
    adjoint_representation,
    catalog_get,
    catalog_nijenhuis_pairs,
    check_leibniz,
    check_representation,
    trivial_representation,
)
from .bundles import (
    TOOL_VERSION,
    AlgebraBundle,
    parse_algebra_bundle,
    serialize_algebra_bundle,
)
from .cochain import (
    Cochain,
    NLACochain,
    coboundary_matrix,
    cohomology_dims,
    chain_map_diagnostic,
    cocycle_membership,
    delta,
)
from .deformation import (
    FormalIsomorphism,
    TruncatedDeformation,
    equivalence_check,
    infinitesimal,
    residual_report,
    twist_by_isomorphism,
)
from .errors import (
    BundleError,
    CatalogError,
    NijleibError,
    PreconditionError,
    ResourceLimitError,
    ShapeError,
)
from .extensions import (
    CocyclePair,
    ExtensionDatum,
    Section,
    build_extension,
    section_difference_class,
    section_to_cocycle,
    transport_cocycle_via_isomorphism,
)
from .linalg import Matrix, format_rational, frac, kernel_basis, parse_rational, rank
from .operators import (
    OperatorKind,
    check_operator,
    correspondence_suite,
    induced_bracket,
    induced_representation,
    is_nijenhuis,
    modified_rota_baxter,
    nijenhuis,
    operator_defect,
    rota_baxter,
    rota_baxter_weighted,
    search_operators_grid,
)

__version__ = TOOL_VERSION

__all__ = [
    "AlgebraBundle",
    "BundleError",
    "CatalogError",
    "Cochain",
    "CocyclePair",
    "Counterexample",
    "ExtensionDatum",
    "FormalIsomorphism",
    "LeibnizAlgebra",
    "Matrix",
    "NLACochain",
    "NijleibError",
    "OperatorKind",
    "PreconditionError",
    "Representation",
    "ResourceLimitError",
    "Section",
    "ShapeError",
    "TOOL_VERSION",
    "TruncatedDeformation",
    "adjoint_representation",
    "build_extension",
    "catalog_get",
    "catalog_nijenhuis_pairs",
    "chain_map_diagnostic",
    "check_leibniz",
    "check_operator",
    "check_representation",
    "coboundary_matrix",
    "cocycle_membership",
    "cohomology_dims",
    "correspondence_suite",
    "delta",
    "equivalence_check",
    "format_rational",
    "frac",
    "induced_bracket",
    "induced_representation",
    "infinitesimal",
    "is_nijenhuis",
    "kernel_basis",
    "modified_rota_baxter",
    "nijenhuis",
    "operator_defect",
    "parse_algebra_bundle",
    "parse_rational",
    "rank",
    "replace",
    "residual_report",
    "rota_baxter",
    "rota_baxter_weighted",
    "search_operators_grid",
    "section_difference_class",
    "section_to_cocycle",
    "serialize_algebra_bundle",
    "transport_cocycle_via_isomorphism",
    "trivial_representation",
    "twist_by_isomorphism",
]
