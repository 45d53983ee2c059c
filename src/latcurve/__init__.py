"""latcurve: exact counting of lattice points on plane algebraic curves.

Covers the integer points of a curve segment by auxiliary curves found
through rank deficiency of a monomial-evaluation matrix, counts through
resultant intersections, and verifies everything against a brute-force
sweep.  Also builds extremal strictly convex lattice configurations.

The top level exports the documented API: `parse`, the two counts and
their `CountReport`, the structured errors, and the convex-configuration
construction with its certificates.  Everything else is read from its
module, such as `latcurve.branch` or `latcurve.unipoly`.
"""

from .branch import BranchError
from .counting import (
    CommonComponentError,
    CountingError,
    CountReport,
    LineFactorError,
    brute_force_count,
    determinant_method_count,
)
from .jarnik import convex_slope_check, jarnik_construct, verify_smoothing
from .poly2 import IngestionError, PolyParseError, parse

__version__ = "0.1.0"
