"""A seeded slice of the census class: curves of degree <= 3 whose ten
coefficients, one per monomial x^i y^j with i + j <= 3, lie in {-1, 0, 1}.
Coefficient vector v (0 <= v < 3^10) gives monomial k the coefficient
d_k - 1, d_k the k-th base-3 digit of v, with the monomials ordered by
degree and then by falling power of x."""

import random
from collections import Counter

from latcurve import determinant_method_count
from latcurve.poly2 import BiPoly

MONOMIALS = [(i, d - i) for d in range(4) for i in range(d, -1, -1)]


def census_curve(v: int) -> BiPoly:
    """The curve of coefficient vector v."""
    terms = {}
    for m in MONOMIALS:
        v, digit = divmod(v, 3)
        terms[m] = digit - 1
    return BiPoly(terms)


def test_census_slice_matches_oracle_and_metamorphic_counts():
    """50 vectors drawn by `random.Random(1).sample(range(3**10), 50)` at
    N = 20 with the oracle on: the outcome counts are pinned, as the seeded
    fuzz pins its own, and every curve whose total equals the oracle's gives
    that total again, with the oracle off, as F(y, x), -F and 3*F."""
    n_box = 20
    outcomes = Counter()
    for v in random.Random(1).sample(range(3**10), 50):
        f = census_curve(v)
        try:
            report = determinant_method_count(f, n_box)
        except Exception as exc:  # a rejection is an outcome to count
            outcomes[type(exc).__name__] += 1
            continue
        if report.total != report.oracle_total:
            outcomes["mismatch"] += 1
            continue
        outcomes["equal"] += 1
        for g in (f.swap_xy(), -f, f * 3):
            assert determinant_method_count(g, n_box, compare_oracle=False).total == report.total, (v, g)
    assert outcomes == {"equal": 45, "BranchError": 5}
