"""chebflag: exact coefficients of Chebyshev-type rational quotients,
eventual-positivity classification, and combinatorial cross-checks."""

from .series import (
    IntPolynomial,
    TruncatedSeries,
    poly_add,
    poly_mul,
    poly_prod,
    series_div_unit,
)
from .chebpoly import (
    Partition,
    p_coeff_closed,
    p_poly,
    root_brackets,
)
from .pathcomb import (
    DyckConstraint,
    DyckPath,
    StripWalk,
    continuant_det,
    dyck_count,
    dyck_counts,
    dyck_to_walk,
    enumerate_dyck,
    enumerate_matchings,
    enumerate_strip_walks,
    full_height_count,
    matching_count,
    strip_walk_count,
    strip_walk_count_dfs,
    strip_walk_counts,
    walk_to_dyck,
)
from .quotient import (
    CoefficientReport,
    PositivityClass,
    QuotientSpec,
    classify,
    coefficient_index,
    default_order,
    expand,
    make_spec,
    multiplicities,
    multiplicity,
    positivity_threshold,
    signed_coefficient,
)
from .families import (
    FamilyModel,
    FamilyQuery,
    PairDecomposition,
    VerificationError,
    family_multiplicity,
    family_kind_of,
    family_quotient,
    find_pair_decomposition,
    product_model_coeff,
)

__version__ = "0.1.0"
