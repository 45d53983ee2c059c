"""latcurve: exact counting of lattice points on plane algebraic curves.

Covers the integer points of a curve segment by auxiliary curves found
through rank deficiency of a monomial-evaluation matrix, counts through
resultant intersections, and verifies everything against a brute-force
sweep.  Also builds extremal strictly convex lattice configurations.
"""

from .branch import (
    AlgebraicBranch,
    BranchError,
    DegenerateLevelSetError,
    GraphDecomposition,
    IntervalPartition,
    LevelSetContactError,
    Piece,
    branch_from_point,
    branch_integer_point,
    branch_value_bracket,
    branch_value_rational,
    graph_decompose,
    hk_sequence,
    large_interval_check,
    level_set_abscissas,
    partition_by_bounds,
    taylor_coefficients,
)
from .counting import (
    CommonComponentError,
    CountingError,
    CountReport,
    LineFactorError,
    bezout_intersect,
    brute_force_count,
    default_delta,
    default_ell,
    determinant_method_count,
)
from .detmethod import (
    BoundMatrixTooLarge,
    CoverCertificate,
    DerivativeBoundSpec,
    LatticePoint,
    curve_budget,
    extract_cover_curve,
    fj_derivative_bound,
    greedy_cover,
    interpolation_determinant_bound,
    monomial_matrix,
    segment_coverable,
)
from .exactlinalg import (
    integer_determinant,
    integer_kth_root_ceiling,
    matrix_rank,
    ryser_permanent,
)
from .jarnik import (
    ConvexCoverReport,
    JarnikConfiguration,
    TaylorOracle,
    convex_cover_count,
    convex_slope_check,
    jarnik_construct,
    jarnik_taylor_oracle,
    polynomial_taylor_oracle,
    smoothed_taylor,
    smoothed_value,
    verify_smoothing,
)
from .monomials import MonomialSet, PunctureError, full_set, non_divisibility_guard, punctured_set
from .poly2 import (
    BiPoly,
    IngestionError,
    PolyParseError,
    ResultantDomainError,
    corner_index,
    divides,
    ingestion_check,
    parse,
    partial,
    resultant_eliminating_y,
)
from .unipoly import (
    RefinementLimitError,
    RootInterval,
    UniPoly,
    ZeroPolynomialError,
    count_real_roots,
    integer_roots,
    isolate_real_roots,
    refine_root,
)

__version__ = "0.1.0"
