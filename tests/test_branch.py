"""Branch machinery: implicit derivative recurrence, level sets, partitions,
and the box decomposition."""

import dataclasses
import fractions
import importlib.util
import math
import random
import sys
from collections import Counter
from fractions import Fraction
from math import ceil, floor
from pathlib import Path

import pytest

from latcurve.branch import (
    AlgebraicBranch,
    BranchError,
    DegenerateLevelSetError,
    Piece,
    branch_integer_point,
    branch_integer_points,
    branch_value_bracket,
    certified_orders,
    graph_decompose,
    hk_sequence,
    large_interval_check,
    level_set_abscissas,
    partition_by_bounds,
)
from latcurve.counting import (
    LineFactorError,
    brute_force_count,
    default_delta,
    default_ell,
    determinant_method_count,
)
from latcurve.detmethod import LatticePoint
from latcurve.monomials import punctured_set
from latcurve.poly2 import (
    BiPoly,
    IngestionError,
    corner_index,
    eliminant,
    ingestion_check,
    parse,
    partial,
    resultant_eliminating_y,
)
from latcurve import branch as branch_module
from latcurve import counting as counting_module
from latcurve import poly2 as poly2_module
from latcurve import unipoly as unipoly_module
from latcurve.unipoly import (
    RootInterval,
    _int_mul,
    count_real_roots,
    integer_roots,
    isolate_real_roots,
    primitive_ints,
    refine_root,
    root_slots,
    sign_at_root,
    slot_runs,
    squarefree_part,
    sturm_chain,
)

from fraction_bipoly import FractionBiPoly, evaluate_bipoly
from fraction_unipoly import UniPoly
import reference_helpers
from reference_helpers import (
    all_real_roots,
    branch_from_point,
    branch_sign,
    branch_value_rational,
    crossing_level_set,
    integer_hull,
    integer_in,
    latbench_workloads,
    ranked_root_slot,
    reduce_modulo,
    refine_clear_of,
    refine_disjoint,
    root_slot,
    series_taylor,
    taylor_coefficients,
)


FIXTURES = {
    "elliptic": parse("y^2 - x^3 - x - 1"),
    "hyperbola": parse("x*y - 12"),
    "circle": parse("x^2 + y^2 - 25"),
}

BRANCH_POINTS = {
    "elliptic": [(0, 1), (2, Fraction(-1, 1) * 0 + 0), (0, -1)],  # placeholder fixed below
    "hyperbola": [(3, 4), (4, 3), (2, 6), (12, 1)],
    "circle": [(3, 4), (4, 3), (0, 5), (3, -4)],
}
BRANCH_POINTS["elliptic"] = [(0, 1), (0, -1), (2, Fraction(-11, 1))]


def _rational_points(curve):
    """Rational points with nonzero y-derivative for the identity suite."""
    pts = []
    for x0, y0 in {
        "y^2 - x^3 - x - 1": [(0, 1), (0, -1), (Fraction(-3, 4), Fraction(11, 8)* 0 + Fraction(-1, 8) * 0)],
    }.get(curve.pretty(), []):
        pts.append((x0, y0))
    return pts


# -- H_k recurrence ---------------------------------------------------------------


def test_hk_examples():
    hk = hk_sequence(parse("y^2 - x^3"), 2)
    assert hk[0] == parse("-3*x^2")
    assert hk[1] == parse("-24*x*y^2 + 18*x^4")
    hk2 = hk_sequence(parse("y - x^2"), 2)
    assert hk2[0] == parse("-2*x")
    assert hk2[1] == parse("-2")


def test_hk_first_is_x_derivative():
    for curve in FIXTURES.values():
        assert hk_sequence(curve, 1)[0] == partial(curve, "x")


@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_hk_degree_bound(name):
    curve = FIXTURES[name]
    d = curve.degree
    for k, hk in enumerate(hk_sequence(curve, 8), start=1):
        if not hk.is_zero():
            assert hk.degree <= (k - 1) * (2 * d - 3) + d - 1


@pytest.mark.parametrize(
    "name,points",
    [
        ("elliptic", [(0, 1), (0, -1), (1, Fraction(0))]),
        ("hyperbola", [(3, 4), (4, 3), (2, 6)]),
        ("circle", [(3, 4), (4, 3), (0, 5)]),
    ],
)
def test_hk_identity_exact(name, points):
    """H_k(x0,y0) + F_y(x0,y0)^(2k-1) * k! * c_k = 0 with series-oracle c_k."""
    import math

    curve = FIXTURES[name]
    fy = partial(curve, "y")
    for x0, y0 in points:
        if evaluate_bipoly(curve, x0, y0) != 0:
            continue  # only genuine curve points participate
        fy0 = evaluate_bipoly(fy, x0, y0)
        if fy0 == 0:
            continue
        cs = series_taylor(curve, Fraction(x0), Fraction(y0), 6)
        for k, hk in enumerate(hk_sequence(curve, 6), start=1):
            lhs = evaluate_bipoly(hk, x0, y0) + fy0 ** (2 * k - 1) * math.factorial(k) * cs[k]
            assert lhs == 0


def fraction_hk(curve, kmax):
    """H_1..H_kmax by the recurrence in the `Fraction` term-dict reference
    arithmetic, which shares no operator with `BiPoly`."""
    f = FractionBiPoly(curve.terms)
    fx, fy = f.partial("x"), f.partial("y")
    mixed = fy * fx.partial("y") - fx * fy.partial("y")
    out = [fx]
    for k in range(1, kmax):
        h = out[-1]
        out.append(fy * fy * h.partial("x") - fy * fx * h.partial("y") - h * mixed * (2 * k - 1))
    return out


def _positive_ratio(a, b):
    """The positive rational t with a == t * b, else None; a, b nonzero, and
    both `BiPoly`s or both `UniPoly`s."""
    if isinstance(a, BiPoly):
        j = next(iter(b.terms))
        t = Fraction(a.terms.get(j, 0)) / b.terms[j]
    else:
        t = a.leading / b.leading
    return t if t > 0 and a == b * t else None


def _random_rational_curve(rng):
    """A curve of degree 1-3 with rational coefficients, often scaled by a
    non-unit rational so that it is not primitive."""
    while True:
        deg = rng.randint(1, 3)
        terms = {}
        for _ in range(rng.randint(2, 6)):
            j1 = rng.randint(0, deg)
            terms[(j1, rng.randint(0, deg - j1))] = Fraction(rng.randint(-7, 7), rng.choice([1, 1, 2, 3, 5]))
        curve = BiPoly(terms) * rng.choice([1, 1, 6, -4, Fraction(3, 14), Fraction(-1, 9)])
        if curve.degree >= 1:
            return curve


def test_hk_integer_recurrence_matches_fraction_recurrence():
    rng = random.Random(2718)
    kinds = {"rational": 0, "non_primitive": 0}
    for _ in range(120):
        curve = _random_rational_curve(rng)
        assert [h.terms for h in hk_sequence(curve, 5)] == [h.terms for h in fraction_hk(curve, 5)], curve
        kinds["rational"] += curve.content.denominator != 1
        kinds["non_primitive"] += curve.content.denominator == 1 and curve != curve.primitive_integer()
    for text in ("y^2 - x^3", "(1/2)*y^2 - (3/4)*x", "6*x*y - 12", "y - 2", "x^4 - y"):
        curve = parse(text)
        assert [h.terms for h in hk_sequence(curve, 6)] == [h.terms for h in fraction_hk(curve, 6)], text
    assert min(kinds.values()) >= 20, kinds


def fraction_reduced(ref, curve):
    """lc_y(F)^E * ref mod F in y for an even E, in the `Fraction` term-dict
    reference arithmetic: one step per y-degree from deg_y ref down to deg_y
    F, each multiplying by lc_y(F), then one more when their number is odd;
    ref itself below deg_y F.  `reduce_modulo` skips that last factor when
    lc_y(F) is a positive constant, which changes R by a positive factor."""
    f = FractionBiPoly(curve.terms)
    n = curve.degree_y()
    lc = FractionBiPoly({(j1, 0): c for (j1, j2), c in f.terms.items() if j2 == n})
    m = max((j2 for _, j2 in ref.terms), default=-1)
    if m < n:
        return ref, 0
    r = ref
    for d in range(m, n - 1, -1):
        top = FractionBiPoly({(j1, d - n): c for (j1, j2), c in r.terms.items() if j2 == d})
        r = lc * r - top * f
    e = m - n + 1
    return (r * lc, e + 1) if e % 2 else (r, e)


def test_level_curves_are_positive_multiples_of_fraction_construction():
    """`_level_resultant`'s reduced level curve and eliminant against H_i +
    F_y^(2i-1) * (i! * c) built in the `Fraction` term-dict reference
    arithmetic, its reduction modulo the curve and its resultant."""
    rng = random.Random(1414)
    checked = degenerate = 0
    while checked < 150:
        curve = _random_rational_curve(rng)
        if curve.degree_y() < 1:
            continue
        fy = FractionBiPoly(curve.terms).partial("y")
        for i in (1, 2, 3):
            for c in (Fraction(0), Fraction(rng.randint(-9, 9), rng.randint(1, 7)), Fraction(rng.randint(1, 40))):
                ref = fraction_hk(curve, i)[-1] + fy ** (2 * i - 1) * (math.factorial(i) * c)
                ref_res = None
                if ref.terms:
                    if any(j2 for _, j2 in ref.terms):
                        ref_res = resultant_eliminating_y(curve, BiPoly(ref.terms))
                    else:
                        ref_res = UniPoly(ref.swap_xy().at_x(0))
                if ref_res is None or ref_res.is_zero():
                    with pytest.raises(DegenerateLevelSetError):
                        branch_module._level_resultant(curve, i, *c.as_integer_ratio())
                    degenerate += 1
                    continue
                level = branch_module._level_curve(curve, i, *c.as_integer_ratio())
                res = branch_module._level_resultant(curve, i, *c.as_integer_ratio())
                # R == lc^E * ref mod F, E even, deg_y R < deg_y F
                ref_reduced, e = fraction_reduced(ref, curve)
                assert e % 2 == 0 and level.degree_y() < curve.degree_y()
                if not any(j2 for _, j2 in ref.terms):
                    assert level.degree_y() < 1, (curve, i, c)
                assert level.content == 1 and _positive_ratio(level, BiPoly(ref_reduced.terms)) is not None, (curve, i, c)
                assert math.gcd(*res) == 1 and res[-1] != 0
                want = primitive_ints(ref_res.coeffs)
                _assert_eliminant_matches(curve, level, res, max(j2 for _, j2 in ref.terms), want)
                checked += 1
    assert degenerate >= 5


def _unreduced_level_curve(curve, i, c):
    """H_i + F_y^(2i-1) * (i! * c), with no reduction modulo the curve."""
    return hk_sequence(curve, i)[-1] + partial(curve, "y") ** (2 * i - 1) * (math.factorial(i) * c)


def _unreduced_eliminant(curve, i, c):
    """The level-set eliminant by the route with no reduction: the primitive
    resultant of the curve and the unreduced level curve, or that curve's own
    row when it is free of y."""
    level = _unreduced_level_curve(curve, i, c)
    if level.is_zero():
        raise DegenerateLevelSetError("level curve vanishes")
    if level.degree_y() < 1:
        return _primitive_tuple(level.rows[0])
    res = primitive_ints(resultant_eliminating_y(curve, level).coeffs)
    if not res:
        raise DegenerateLevelSetError("eliminant vanishes")
    return _primitive_tuple(res)


def _primitive_tuple(p):
    g = math.gcd(*p)
    return tuple(v // g for v in p)


def _eliminant_case_curve(rng):
    """A curve of y-degree >= 1 from one of four kinds: random degree 1-3
    rational curves, and integer curves with leading y-coefficient a positive
    constant, a negative constant or a polynomial in x."""
    kind = rng.choice(["random", "positive", "negative", "polynomial"])
    if kind == "random":
        while True:
            curve = _random_rational_curve(rng)
            if curve.degree_y() >= 1:
                return curve
    n = rng.randint(1, 3)
    terms = {(rng.randint(0, 2), rng.randint(0, n - 1)): rng.randint(-6, 6) for _ in range(rng.randint(1, 4))}
    if kind == "polynomial":
        terms[(rng.randint(1, 2), n)] = rng.choice([-3, -1, 1, 2])
        terms[(0, n)] = rng.randint(-3, 3)
    else:
        terms[(0, n)] = rng.randint(1, 4) * (1 if kind == "positive" else -1)
    return BiPoly(terms)


def _shed_lead_factors(curve, p):
    """The integer polynomial p with prim(lc_y curve) divided out for as long
    as it divides exactly, and the number of factors shed."""
    lead, out, shed = UniPoly(primitive_ints(curve.rows[-1])), UniPoly(p), 0
    while lead.degree >= 1:
        quotient, rem = divmod(out, lead)
        if not rem.is_zero():
            break
        out, shed = quotient, shed + 1
    # Gauss's lemma: the quotient by a primitive integer factor is integral
    return [int(v) for v in out.coeffs], shed


def _assert_eliminant_matches(curve, reduced, res, deg_l, want):
    """`_level_resultant`'s (R, eliminant) against a primitive integer
    multiple `want` of Res_y(F, L), or of L's row when it is free of y, for
    a level curve L of y-degree deg_l: the number of factors of
    prim(lc_y F) shed from `want`.

    With R - lc^e * L a multiple of F, Res_y(F, R) = lc_y(F)^(deg_y R -
    deg_y L) * lc^(e * deg_y F) * Res_y(F, L), lc = prim(lc_y F).  So once
    prim(lc_y F) is shed from both, the primitive eliminants are equal;
    for a negative constant lc_y(F) the sign is (-1)^(deg_y R - deg_y L).
    An R free of y is its own eliminant, and Res_y(F, L) is a power of it
    up to factors of lc_y(F): their squarefree parts agree."""
    want, shed = _shed_lead_factors(curve, want)
    if reduced.degree_y() < 1:
        got = _shed_lead_factors(curve, res)[0]
        assert _positive_lead(squarefree_part(tuple(got))) == _positive_lead(squarefree_part(tuple(want))), curve
        return shed
    lead = curve.rows[-1]
    if len(lead) == 1 and lead[0] < 0 and (reduced.degree_y() - deg_l) % 2:
        want = [-v for v in want]
    assert res == tuple(want), curve
    return shed


def _positive_lead(p):
    """p with a positive leading coefficient."""
    return tuple(p) if p[-1] > 0 else tuple(-v for v in p)


def _check_level_eliminant(curve, i, c):
    """`_level_resultant` of (curve, i, c) against the unreduced route by
    `_assert_eliminant_matches`, or both raising on a degenerate level: the
    kinds of the case, as a set."""
    try:
        want = _unreduced_eliminant(curve, i, c)
    except DegenerateLevelSetError:
        with pytest.raises(DegenerateLevelSetError):
            branch_module._level_resultant(curve, i, *c.as_integer_ratio())
        return {"degenerate"}
    reduced = branch_module._level_curve(curve, i, *c.as_integer_ratio())
    res = branch_module._level_resultant(curve, i, *c.as_integer_ratio())
    deg_l = _unreduced_level_curve(curve, i, c).degree_y()
    kinds = {_lead_kind(curve)}
    if _assert_eliminant_matches(curve, reduced, res, deg_l, want):
        kinds.add("sheds_lead_factor")
    if reduced.degree_y() < 1 <= deg_l:
        kinds.add("reduced_free_of_y")
    return kinds


def test_level_eliminant_matches_unreduced_route():
    """On 1000 seeded (curve, i, c), and on three curves with a constant
    lc_y(F) = A at the level c = -g_i / (n A) where the top rows of the
    level curve cancel (g the row of y^(n-1) in F), `_level_resultant`'s
    eliminant equals the route with no reduction once the factors of
    prim(lc_y F) are shed from both, and a degenerate case raises on both
    sides.  A y-free R sheds them too: on `5*x^2*y - 2` (lc_y F = 5*x^2)
    at c = 38, R is free of y and the eliminants of orders 5 and 10 have
    degrees 8 and 12, against 22 and 42 with the factors left in."""
    curve = parse("5*x^2*y - 2")
    for i, degree in ((5, 8), (10, 12)):
        reduced = branch_module._level_curve(curve, i, 38, 1)
        res = branch_module._level_resultant(curve, i, 38, 1)
        assert reduced.degree_y() < 1 and len(res) - 1 == degree
        assert _check_level_eliminant(curve, i, Fraction(38)) >= {"reduced_free_of_y"}
    for text, i in (("y^2 + x*y - x^3", 1), ("y^2 + x^2*y - x", 2), ("2*y^3 - x^2*y^2 + y - 5*x", 2)):
        curve = parse(text)
        lead, g = curve.rows[-1][0], curve.rows[-2]
        drop = Fraction(-g[i], curve.degree_y() * lead)
        assert _unreduced_level_curve(curve, i, drop).degree_y() < (2 * i - 1) * (curve.degree_y() - 1), text
        _check_level_eliminant(curve, i, drop)
    rng = random.Random(4242)
    seen = dict.fromkeys(
        ("positive_lead", "negative_lead", "polynomial_lead", "reduced_free_of_y", "degenerate", "sheds_lead_factor"), 0
    )
    for _ in range(1000):
        curve = _eliminant_case_curve(rng)
        i = rng.choice([1, 1, 2, 2, 3])
        c = rng.choice([Fraction(0), Fraction(rng.randint(-9, 9), rng.randint(1, 7)), Fraction(rng.randint(1, 40))])
        for kind in _check_level_eliminant(curve, i, c):
            seen[kind] += 1
    assert min(seen.values()) >= 20, seen


def _reduced_up_to_lead_power(curve, p, e):
    """`reduce_modulo(curve, p)`'s R times prim(lc_y curve)^(e - E) for its
    documented exponent E: e's remainder up to a positive factor."""
    n, lead = curve.degree_y(), curve.rows[-1]
    reduced, _ = reduce_modulo(curve, p)
    exponent = max(p.degree_y() - n + 1, 0)
    if not (len(lead) == 1 and lead[0] > 0):
        exponent += exponent % 2
    assert e >= exponent
    if len(lead) == 1:
        return reduced
    lc = BiPoly({(j, 0): v for j, v in enumerate(primitive_ints(lead))})
    return lc ** (e - exponent) * reduced


def _zero_or_positive_ratio(a, b):
    return a.is_zero() and b.is_zero() or not b.is_zero() and _positive_ratio(a, b) is not None


def _check_reduced_level_parts(curve, i, c):
    """The reduced parts of order i against `reduce_modulo` of H_i, of
    i! * F_y^(2i-1) and of the level curves at 0 and c (the one shared
    factor)."""
    parts = branch_module._reduced_level_parts(curve, i)
    assert parts.e % 2 == 0 and parts.a.degree_y() < curve.degree_y() and parts.b.degree_y() < curve.degree_y()
    hk = hk_sequence(curve, i)[-1]
    fy_pow = partial(curve, "y") ** (2 * i - 1) * math.factorial(i)
    assert _zero_or_positive_ratio(parts.a, _reduced_up_to_lead_power(curve, hk, parts.e)), (curve, i)
    assert _zero_or_positive_ratio(parts.b, _reduced_up_to_lead_power(curve, fy_pow, parts.e)), (curve, i)
    for level_c in (Fraction(0), c):
        level = hk + fy_pow * level_c
        want = _reduced_up_to_lead_power(curve, level, parts.e)
        assert _zero_or_positive_ratio(parts.a + parts.b * level_c, want), (curve, i, level_c)
    return parts


def test_reduced_level_parts_match_reduce_modulo():
    """`_reduced_level_parts` of orders 1-6 on seeded curves with a positive,
    negative and polynomial leading coefficient in y, and of order 15 on
    three named curves, against the unreduced H_i and i! * F_y^(2i-1)
    reduced by `reduce_modulo`."""
    rng = random.Random(1717)
    seen = {"positive_lead": 0, "negative_lead": 0, "polynomial_lead": 0}
    for _ in range(60):
        curve = _eliminant_case_curve(rng)
        for i in range(1, 7):
            c = Fraction(rng.randint(-9, 9), rng.randint(1, 7)) or Fraction(1)
            _check_reduced_level_parts(curve, i, c)
            seen[_lead_kind(curve)] += 1
    assert min(seen.values()) >= 10, seen
    for text in ("x*y^2 + y - 1", "x*y - 12", "x - 7*y^5"):
        parts = _check_reduced_level_parts(parse(text), 15, Fraction(-3, 2))
    # ROADMAP item 3 measured 43 y-rows in the unreduced H_15 of x - 7*y^5
    assert len(parts.a.rows) <= 3


# -- taylor coefficients -----------------------------------------------------------


def test_taylor_examples():
    e = parse("y^2 - x^3 - x - 1")
    br = branch_from_point(e, 0, 1, (Fraction(-1, 2), 5))
    assert taylor_coefficients(br, 0, 2) == [1, Fraction(1, 2), Fraction(-1, 8)]
    p = parse("y - x^2")
    br2 = branch_from_point(p, 3, 9, (0, 10))
    assert taylor_coefficients(br2, 3, 3) == [9, 6, 1, 0]
    h = parse("x*y - 12")
    br3 = branch_from_point(h, 3, 4, (1, 12))
    assert taylor_coefficients(br3, 3, 2) == [4, Fraction(-4, 3), Fraction(4, 9)]


def test_taylor_matches_series_oracle():
    for name, pts in (("elliptic", [(0, 1)]), ("hyperbola", [(3, 4), (2, 6)]), ("circle", [(3, 4)])):
        curve = FIXTURES[name]
        for x0, y0 in pts:
            br = branch_from_point(curve, x0, y0, (x0, x0))
            assert taylor_coefficients(br, x0, 5) == series_taylor(
                curve, Fraction(x0), Fraction(y0), 5
            )


def test_taylor_rejects_irrational_point():
    c = parse("x^2 + y^2 - 25")
    br = branch_from_point(c, 3, 4, (1, Fraction(7, 2)))
    with pytest.raises(BranchError):
        taylor_coefficients(br, 2, 2)  # y = sqrt(21) is irrational


def test_taylor_rejects_vertical_point():
    c = parse("x^2 + y^2 - 25")
    with pytest.raises(BranchError):
        branch_from_point(c, 5, 0, (4, 5))  # vertical tangent at the seed
    br = branch_from_point(c, 3, 4, (3, 5))
    with pytest.raises(BranchError):
        taylor_coefficients(br, 5, 1)  # root structure degenerates at x = 5


def test_branch_domain_end_on_a_leading_coefficient_root():
    """A closed domain with a root of a non-constant lc_y(F) at either end is
    rejected; one that stops short of the root is accepted."""
    end_error = "leading coefficient in y vanishes at a domain end"
    # lc_y(x*y - 12) = x: the branch y = 12/x has no value at x = 0
    hyperbola = parse("x*y - 12")
    for seed, domain in (((3, 4), (0, 12)), ((-3, -4), (-12, 0))):
        with pytest.raises(BranchError, match=end_error):
            branch_from_point(hyperbola, *seed, domain)
    inner = branch_from_point(hyperbola, 3, 4, (Fraction(1, 2), 12))
    assert branch_value_rational(inner, 6) == 2
    assert branch_integer_point(inner, 12) == LatticePoint(12, 1)
    assert taylor_coefficients(inner, 3, 2) == [4, Fraction(-4, 3), Fraction(4, 9)]
    # lc_y(x*y^2 + y - 1) = x: the branch through (0, 1) stays finite there,
    # while a second root of the column comes in from infinity for x > 0
    curve = parse("x*y^2 + y - 1")
    with pytest.raises(BranchError, match=end_error):
        branch_from_point(curve, 0, 1, (0, 2))
    with pytest.raises(BranchError, match=end_error):
        branch_from_point(curve, 2, Fraction(1, 2), (0, 2))
    br = branch_from_point(curve, 2, Fraction(1, 2), (Fraction(1, 8), 2))
    assert branch_sign(br, 2, parse("2*y - 1")) == 0
    # a constant lc_y(F) puts no condition on the ends
    circle = branch_from_point(FIXTURES["circle"], 3, 4, (-4, 4))
    assert branch_value_rational(circle, -4) == 3


# -- branch values ----------------------------------------------------------------------


def test_branch_value_identification():
    c = parse("x^2 + y^2 - 25")
    top = branch_from_point(c, 3, 4, (1, Fraction(7, 2)))
    bottom = branch_from_point(c, 3, -4, (1, Fraction(7, 2)))
    assert branch_value_rational(top, 3) == 4
    assert branch_value_rational(bottom, 3) == -4
    b = branch_value_bracket(top, 2)
    assert b.lo * b.lo <= 21 <= b.hi * b.hi or (b.lo <= 0 <= b.hi)
    assert branch_value_rational(top, 2) is None
    assert branch_integer_point(top, 3) == LatticePoint(3, 4)
    assert branch_integer_point(top, 2) is None


def test_branch_value_at_the_construction_abscissa():
    """A branch is its curve, domain and root index: at the point it was
    built from, its bracket isolates the column's root of that index, as at
    every other abscissa: exact when y0 is an integer, and otherwise a
    bracket of y0's unit gap with y0 strictly inside.  The rational value
    and Taylor data still read y0."""
    seeds = (
        ("x^2 + y^2 - 25", 3, 4, (1, Fraction(7, 2))),
        ("x^2 + y^2 - 25", 3, -4, (1, Fraction(7, 2))),
        ("x*y - 12", 3, 4, (1, 12)),
        ("y^2 - x^3 - x - 1", 0, 1, (Fraction(-1, 2), 5)),
        ("x*y^2 + y - 1", 2, Fraction(1, 2), (Fraction(1, 8), 2)),
        ("8*y^3 - 3*x", Fraction(1, 3), Fraction(1, 2), (Fraction(1, 9), 40)),
    )
    for text, x0, y0, domain in seeds:
        br = branch_from_point(parse(text), x0, y0, domain)
        bracket = branch_value_bracket(br, x0)
        u = br.curve.int_column(Fraction(x0))
        assert reference_helpers._same_root(bracket, all_real_roots(u)[br.root_index]), text
        if Fraction(y0).denominator == 1:
            assert bracket.lo == bracket.hi == y0, text
        else:
            assert bracket.lo < y0 < bracket.hi and floor(bracket.lo) == floor(y0) == ceil(bracket.hi) - 1, text
        assert branch_value_rational(br, x0) == y0, text
        assert taylor_coefficients(br, x0, 2)[0] == y0, text


def test_branch_integer_point_near_integer():
    # sqrt(10^12 + 1) lies within 10^-6 of the integer 10^6
    c = parse("y^2 - x - 1000000000000")
    k = 2 * 10**6 + 1  # f(k) = 10^6 + 1 on the upper branch
    top = branch_from_point(c, 0, 10**6, (0, k))
    bottom = branch_from_point(c, 0, -(10**6), (0, k))
    assert branch_integer_point(top, 0) == LatticePoint(0, 10**6)
    assert branch_integer_point(top, k) == LatticePoint(k, 10**6 + 1)
    assert branch_integer_point(bottom, k) == LatticePoint(k, -(10**6) - 1)
    assert branch_integer_point(top, 1) is None
    assert branch_integer_point(bottom, 1) is None


def test_branch_integer_point_errors():
    # x = 3 is a vertical line of (x - 3)(y - x): the column polynomial is zero
    c = parse("(x - 3)*(y - x)")
    br = AlgebraicBranch(c, 0, 1, (Fraction(0), Fraction(5)))
    assert branch_integer_point(br, 2) == LatticePoint(2, 2)
    with pytest.raises(BranchError, match="vertical line"):
        branch_integer_point(br, 3)
    with pytest.raises(BranchError, match="outside the branch domain"):
        branch_integer_point(br, 6)
    # the domain test is exact at a rational and at an integer end
    line = parse("y - x")
    for lo, hi in ((Fraction(-7, 2), Fraction(5)), (Fraction(-3), Fraction(9, 4))):
        on = AlgebraicBranch(line, 0, 1, (lo, hi))
        for k in (ceil(lo), floor(hi)):
            assert branch_integer_point(on, k) == LatticePoint(k, k)
        for k in (ceil(lo) - 1, floor(hi) + 1):
            with pytest.raises(BranchError, match="outside the branch domain"):
                branch_integer_point(on, k)
    # two values of x^2 + y^2 = 25 at x = 3, none at x = 6
    circle = parse("x^2 + y^2 - 25")
    wide = AlgebraicBranch(circle, 1, 2, (Fraction(0), Fraction(6)))
    assert branch_integer_point(wide, 3) == LatticePoint(3, 4)
    with pytest.raises(BranchError, match="root structure changed"):
        branch_integer_point(wide, 6)
    # a root index that the root count does not hold is no branch
    with pytest.raises(BranchError, match="root index outside the root count"):
        branch_integer_point(AlgebraicBranch(circle, 2, 2, (0, 4)), 3)


def test_value_bracket_and_point_share_the_column_checks():
    """`branch_value_bracket` and `branch_integer_point` read a column
    through one checked walk, so each raises the same `BranchError` for an
    abscissa outside the domain, a changed root count, a vertical line and
    a root index outside the count, including a negative one."""
    circle = parse("x^2 + y^2 - 25")
    cases = (
        (AlgebraicBranch(circle, 1, 2, (0, 4)), 5, "outside the branch domain"),
        (AlgebraicBranch(circle, 1, 2, (0, 6)), 6, "root structure changed"),
        (AlgebraicBranch(parse("(x - 3)*(y - x)"), 0, 1, (0, 5)), 3, "vertical line"),
        (AlgebraicBranch(circle, 2, 2, (0, 4)), 3, "root index outside the root count"),
        (AlgebraicBranch(circle, -1, 2, (0, 4)), 3, "root index outside the root count"),
    )
    for br, k, message in cases:
        for read in (branch_integer_point, branch_value_bracket):
            with pytest.raises(BranchError, match=message):
                read(br, k)
    bracket = branch_value_bracket(AlgebraicBranch(circle, 1, 2, (0, 4)), 3)
    assert bracket.lo == bracket.hi == 4


def _point_or_error(fn):
    try:
        return fn()
    except BranchError as exc:
        return ("BranchError", str(exc))


# conics and hyperbolas whose columns are quadratic or linear in y: square,
# non-square and zero discriminants, either sign of the leading coefficient
COLUMN_CURVES = (
    ("x^2 + y^2 - 625", 30),
    ("x^2 + y^2 - 1000", 35),
    ("x^2 - 2*y^2 - 1", 40),
    ("2*y^2 - x^2 - 7", 30),
    ("x*y - 36", 40),
    ("x*y + 3*x - 2*y - 60", 40),
    ("3*y^2 - x + 18*y", 60),
    ("-y^2 + 4*x*y - x^2 - 5", 30),
    ("x^2 - x*y + y^2 - 3*x - 49", 30),
)


def test_branch_integer_point_matches_bracket_reference():
    """The rank search against the isolating bracket and `integer_in` on every
    integer abscissa of the branches of random curves and of conics and
    hyperbolas, one abscissa past each end included."""
    rng = random.Random(43)
    curves = []
    while len(curves) < 150:
        deg = rng.randint(1, 3)
        terms = {}
        for _ in range(rng.randint(1, 5)):
            j1 = rng.randint(0, deg)
            terms[(j1, rng.randint(0, deg - j1))] = rng.randint(-6, 6)
        curve = BiPoly(terms)
        if curve.degree >= 1:
            curves.append((curve, rng.randint(1, 40)))
    curves += [(parse(text), n) for text, n in COLUMN_CURVES]
    columns = hits = 0
    discriminants = {"linear": 0, "square": 0, "nonsquare": 0, "zero": 0, "negative": 0}
    for curve, n in curves:
        try:
            branches = graph_decompose(curve, n).branches
        except (BranchError, IngestionError):
            continue
        for br in branches:
            # one abscissa past each end checks agreement on the domain error
            for k in range(math.ceil(br.domain[0]) - 1, math.floor(br.domain[1]) + 2):

                def reference():
                    y = integer_in(branch_value_bracket(br, k))
                    return None if y is None else LatticePoint(k, y)

                got = _point_or_error(lambda: branch_integer_point(br, k))
                assert got == _point_or_error(reference), (curve.pretty(), n, br, k)
                columns += 1
                hits += isinstance(got, LatticePoint)
                col = br.curve.int_column(k)
                if len(col) == 2:
                    discriminants["linear"] += 1
                elif len(col) == 3:
                    disc = col[1] ** 2 - 4 * col[0] * col[2]
                    discriminants[
                        "negative" if disc < 0 else "zero" if disc == 0
                        else "square" if math.isqrt(disc) ** 2 == disc else "nonsquare"
                    ] += 1
    assert columns > 1000 and hits > 50
    assert min(discriminants.values()) >= 3, discriminants


def test_integer_point_searches_leave_shared_caches_alone():
    c = parse("x^2 + y^2 - 250000")
    br = branch_from_point(c, 300, 400, (0, 350))
    before = (sturm_chain.cache_info(), squarefree_part.cache_info())
    hits = [p for k in range(351) if (p := branch_integer_point(br, k)) is not None]
    assert LatticePoint(300, 400) in hits and LatticePoint(0, 500) in hits
    assert integer_roots(c.int_column(140), 0, 500) == [480]
    assert integer_roots(primitive_ints((UniPoly([3, 0, -1]) * UniPoly([-7, 1]) ** 2).coeffs)) == [7]
    assert (sturm_chain.cache_info(), squarefree_part.cache_info()) == before


def _abscissa_loop(br, a, b):
    """The reference search: `branch_integer_point` at every abscissa."""
    return [p for k in range(a, b + 1) if (p := branch_integer_point(br, k)) is not None]


def _fuzz_style_curves(rng, count):
    """`count` curves drawn as `scripts/fuzz.py` draws them (degree 2 or 3, two
    to five terms, |c| <= 6) with a box N in 20..80."""
    coeffs = [c for c in range(-6, 7) if c]
    out = []
    while len(out) < count:
        deg = rng.choice([2, 3])
        j1 = rng.randint(0, deg)
        terms = {(j1, deg - j1): rng.choice(coeffs)}
        for _ in range(rng.randint(1, 4)):
            j1 = rng.randint(0, deg)
            terms[(j1, rng.randint(0, deg - j1))] = rng.choice(coeffs)
        curve = BiPoly(terms)
        if curve.degree >= 2:
            out.append((curve.pretty(), rng.randint(20, 80)))
    return out


def test_row_search_matches_the_abscissa_loop():
    """`branch_integer_points` against the abscissa loop on every piece of
    the pipeline's partitions of the integer hulls of flat branches: two
    seed-1 rounds of the latbench `partition` and `columns` families at
    their own N (at most 500), circles, hyperbolas, curves with slopes that
    tend to 1, and 120 fuzz-style curves.  Every abscissa's column has
    `root_count` distinct real roots, which is what lets the row search
    check the count only at the columns it reads.  Since |f'| < 1, the
    value range of every piece of two or more points is shorter than the
    piece, so each takes the row search: increasing, decreasing and within
    one unit, with points at a piece end among its hits.  One-point pieces
    keep the loop, and so does a branch built directly as flat whose values
    span more integers than its abscissas, the parabola y = x^2."""
    workloads = latbench_workloads()
    cases = [(c.text, c.n_box) for name in ("partition", "columns") for row in workloads[name].rounds(1, 2) for c in row]
    cases += [(f"x^2 + y^2 - {m}", 60) for m in (625, 1000, 1105, 2000, 3250)]
    cases += [(f"x*y - {m}", 80) for m in (36, 360, 720, 1200)]
    cases += [(f"x^2 - y^2 - {m}", 60) for m in (7, 15, 24)] + [("-3*x^3 - 6*x^2*y + 4*y^3 + x*y", 60)]
    cases += _fuzz_style_curves(random.Random(71), 120)
    seen = dict.fromkeys(("increasing", "decreasing", "level", "one_point", "row_hits", "end_hits"), 0)
    for text, n_box in cases:
        try:
            # the count rejects a line inside the box before it searches a point
            counting_module._reject_lines_in_box(parse(text), parse(text).swap_xy(), n_box)
            partitions = list(_pipeline_partitions(text, n_box))
        except (BranchError, IngestionError, LineFactorError):
            continue
        for br, _, part in partitions:
            assert br.flat
            for piece in part.pieces:
                a, b = piece.lo, piece.hi
                for k in range(a, b + 1):
                    assert ranked_root_slot(br.curve.int_column(k), br.root_index)[0] == br.root_count
                want = _abscissa_loop(br, a, b)
                assert branch_integer_points(br, a, b) == want, (text, n_box, br, a, b)
                if a == b:
                    seen["one_point"] += 1
                    continue
                (ca, ea), (cb, eb) = (ranked_root_slot(br.curve.int_column(k), br.root_index)[1] for k in (a, b))
                assert max(ca - (not ea), cb - (not eb)) - min(ca, cb) < b - a
                seen["increasing" if cb > ca else "decreasing" if cb < ca else "level"] += 1
                seen["row_hits"] += len(want)
                seen["end_hits"] += sum(p.x in (a, b) for p in want)
    assert min(seen.values()) >= 3, seen
    steep = AlgebraicBranch(parse("y - x^2"), 0, 1, (0, 12), flat=True)
    assert branch_integer_points(steep, 2, 12) == _abscissa_loop(steep, 2, 12) == [
        LatticePoint(k, k * k) for k in range(2, 13)
    ]


def _dense_curves(rng, degree, count, bound=50):
    """`count` seeded curves with every monomial of total degree at most
    `degree`, coefficients in [-bound, bound]."""
    monomials = [(i, j) for i in range(degree + 1) for j in range(degree + 1 - i)]
    return [BiPoly({m: rng.randint(-bound, bound) for m in monomials}).pretty() for _ in range(count)]


def _fx_locus(curve):
    """The x-locus of F_x on the curve: Res_y(F, F_x), or F_x's own row when
    it is free of y; None when F_x is constant, so that f' never vanishes."""
    fx = partial(curve, "x")
    if fx.degree_y() >= 1:
        return eliminant(curve, fx)
    return fx.rows[0] if fx.degree_x() >= 1 else None


def test_flat_branches_are_monotone_on_their_closed_domains():
    """Every `flat` branch that `graph_decompose` returns keeps the promise
    that `branch_integer_points` relies on: f is monotone on its closed
    domain, since the F_x locus has no root there.  Checked on two seed-1
    rounds of the latbench `partition` and `columns` families and on 300
    fuzz-style curves.  A branch built directly as flat that turns inside
    its domain breaks it: the upper arc of the circle x^2 + y^2 = 25 on
    [-3, 3] has |f'| <= 3/4 but turns at x = 0, and the row search, reading
    only the values between f(-3) = f(3) = 4, loses (0, 5)."""
    workloads = latbench_workloads()
    cases = [(c.text, c.n_box) for name in ("partition", "columns") for row in workloads[name].rounds(1, 2) for c in row]
    cases += _fuzz_style_curves(random.Random(72), 300)
    checked = Counter()
    for text, n_box in cases:
        try:
            branches = graph_decompose(ingestion_check(parse(text)), n_box).branches
        except (BranchError, IngestionError):
            continue
        for br in branches:
            if not br.flat:
                continue
            locus = _fx_locus(br.curve)
            assert locus is None or count_real_roots(locus, *br.domain) == 0, (text, n_box, br)
            checked["constant" if locus is None else "locus"] += 1
    assert checked["locus"] >= 100, checked
    circle = parse("x^2 + y^2 - 25")
    turning = AlgebraicBranch(circle, 1, 2, (-3, 3), flat=True)
    assert count_real_roots(_fx_locus(circle), -3, 3) == 1
    assert branch_integer_points(turning, -3, 3) == [LatticePoint(-3, 4), LatticePoint(3, 4)]
    assert branch_integer_points(dataclasses.replace(turning, flat=False), -3, 3) == [
        LatticePoint(-3, 4),
        LatticePoint(0, 5),
        LatticePoint(3, 4),
    ]


def test_frame_critical_slots_match_the_isolated_loci(monkeypatch):
    """`_decompose_frame` reads its critical slots by the integer walk
    (`root_slots` over [0, N]).  The slots it cuts into cells are those
    that the isolation of every frame cut and box-edge column over [0, N]
    gives, one reference `root_slot` per bracket: on both frames of
    two seed-1 rounds of the latbench families, 60 fuzz-style curves and
    seeded dense quartics and quintics with |c| <= 50 at N = 100."""
    workloads = latbench_workloads()
    cases = [(c.text, c.n_box) for name in ("partition", "columns") for row in workloads[name].rounds(1, 2) for c in row]
    cases += _fuzz_style_curves(random.Random(73), 60)
    rng = random.Random(74)
    dense = [text for degree in (4, 5) for text in _dense_curves(rng, degree, 6)]
    cases += [(text, 100) for text in dense]
    cut = []
    monkeypatch.setattr(branch_module, "slot_runs", lambda slots, lo, hi: cut.append(slots) or slot_runs(slots, lo, hi))
    seen = dict.fromkeys(("exact", "gap", "dense"), 0)
    for text, n_box in cases:
        try:
            curve = ingestion_check(parse(text))
        except IngestionError:
            continue
        for frame in (curve, curve.swap_xy()):
            if frame.degree_y() < 1:
                continue
            cut.clear()
            try:
                branch_module._decompose_frame(frame, n_box, False)
            except BranchError:
                continue
            loci = list(branch_module._frame_loci(frame).cuts)
            loci += [e for e in (frame.swap_xy().int_column(v) for v in (0, n_box)) if len(e) >= 2]
            want = sorted({root_slot(r) for p in loci for r in isolate_real_roots(p, 0, n_box)})
            assert cut[0] == want, (text, n_box, frame)
            seen["exact"] += any(exact for _, exact in want)
            seen["gap"] += any(not exact for _, exact in want)
            seen["dense"] += text in dense
    assert min(seen.values()) >= 10, seen


def test_root_slots_match_the_bracket_reference(monkeypatch):
    """`root_slots(p, lo, hi)` against the reference `root_slot` of each
    `isolate_real_roots` bracket over [lo, hi], the integer root bound
    standing in for an end that is None.  The cases are seeded products
    with clustered roots in one unit gap, double roots at and between
    integers and x^m factors, over ranges that end at a root, one unit
    short of one, across 0 or nowhere; and the level-set eliminants of two
    seed-1 `partition` rounds over their hulls, among them hulls whose
    eliminant has several roots in (lo - 1, lo), just below where the walk
    starts."""
    rng = random.Random(47)
    seen = Counter()

    def check(p, lo, hi):
        bound = unipoly_module._int_root_bound(p)
        a, b = -bound if lo is None else lo, bound if hi is None else hi
        want = [root_slot(r) for r in isolate_real_roots(p, a, b)] if a <= b else []
        assert root_slots(p, lo, hi) == want, (p, lo, hi)
        below = a <= b and len([r for r in isolate_real_roots(p, a - 1, a) if r.hi < a]) or 0
        seen["several_below_lo"] += below >= 2
        seen["root_below_lo"] += below >= 1
        seen["root_above_hi"] += a <= b and any(r.lo > b for r in isolate_real_roots(p, b, b + 1))
        seen["root_at_lo"] += (a, True) in want
        seen["root_at_hi"] += (b, True) in want
        seen["cluster"] += any(x == y == z and not x[1] for x, y, z in zip(want, want[1:], want[2:]))
        seen["unbounded"] += lo is None or hi is None

    def factor(a):
        kind = rng.randrange(5)
        if kind == 0:
            return [-a, 1]
        if kind == 1:  # a double root at the integer a
            seen["double_at"] += 1
            return [a * a, -2 * a, 1]
        if kind == 2:  # a double root at a + 1/2
            seen["double_between"] += 1
            return _int_mul([-(2 * a + 1), 2], [-(2 * a + 1), 2])
        if kind == 3:  # three to five rational roots in (a, a + 1)
            q = rng.choice([7, 10, 16])
            out = [1]
            for j in rng.sample(range(1, q), rng.randint(3, 5)):
                out = _int_mul(out, [-(q * a + j), q])
            return out
        return [(10 * a + 5) ** 2 - 2, -20 * (10 * a + 5), 100]  # a + 1/2 +- sqrt(2)/10

    for _ in range(400):
        centres = [rng.randint(-15, 15) for _ in range(rng.randint(1, 3))]
        p = [rng.choice([1, -1, 3])]
        for a in centres:
            p = _int_mul(p, factor(a))
        if len(p) < 4:
            p = _int_mul(p, [1, 0, 1])
        if rng.random() < 0.25:
            p = [0] * rng.randint(1, 3) + p
            seen["x_power"] += 1
            check(p, rng.randint(-6, 0), rng.randint(0, 6))
        ends = [None] + [c + d for c in centres for d in (0, 1, -1)]
        for _ in range(3):
            lo, hi = rng.choice(ends), rng.choice(ends)
            if lo is not None and hi is not None and lo > hi:
                lo, hi = hi, lo
            check(p, lo, hi)
    eliminants = []
    record = branch_module.level_set_abscissas

    def recorded(br, i, p, q):
        eliminants.append((branch_module._level_resultant(br.curve, i, p, q), *br.domain))
        return record(br, i, p, q)

    monkeypatch.setattr(branch_module, "level_set_abscissas", recorded)
    for row in latbench_workloads()["partition"].rounds(1, 2):
        for case in row:
            determinant_method_count(parse(case.text), case.n_box, compare_oracle=False)
    before = seen["several_below_lo"]
    for e, lo, hi in eliminants:
        check(e, lo, hi)
    assert len(eliminants) >= 10 and seen["several_below_lo"] - before >= 5, (len(eliminants), seen)
    assert min(seen.values()) >= 10, seen


def test_row_search_raises_on_a_horizontal_line():
    """A zero row F(x, m) means the curve holds the line y = m; the search
    raises there instead of skipping the row.  The smallest root of
    (8y - 2x - 1)(y - 2) runs from 1/8 at x = 0 to 2, so rows 1 and 2 are
    searched, and row 2 vanishes."""
    br = AlgebraicBranch(parse("(8*y - 2*x - 1)*(y - 2)"), 0, 2, (0, 15), flat=True)
    with pytest.raises(BranchError, match="horizontal line y = 2"):
        branch_integer_points(br, 0, 15)


def test_branch_sign_exact():
    c = parse("x*y - 12")
    br = branch_from_point(c, 3, 4, (1, 12))
    assert branch_sign(br, 3, parse("y - 4")) == 0
    assert branch_sign(br, 3, parse("y - 3")) == 1
    assert branch_sign(br, 6, parse("y - 3")) == -1
    assert branch_sign(br, 4, parse("x*y - 12")) == 0  # on the curve


def test_branch_sign_matches_fraction_evaluation():
    """branch_sign on integer columns against the `Fraction` value p(x0, f(x0))
    at rational branch points, zero signs included."""
    rng = random.Random(31)
    circle = parse("x^2 + y^2 - 1")
    upper = branch_from_point(circle, Fraction(3, 5), Fraction(4, 5), (0, Fraction(99, 100)))
    cubic = parse("8*y^3 - 3*x")
    real_cube_root = branch_from_point(cubic, Fraction(1, 3), Fraction(1, 2), (Fraction(1, 9), 40))
    points = []
    for t in {Fraction(a, b) for b in range(2, 9) for a in range(1, b)}:
        # the rational parametrisation of the unit circle
        x0, y0 = (1 - t * t) / (1 + t * t), 2 * t / (1 + t * t)
        if x0 < Fraction(99, 100):
            points.append((upper, x0, y0))
        y1 = 3 * t  # 8*y^3 = 3*x at x = 8 * y^3 / 3
        if Fraction(1, 9) <= 8 * y1**3 / 3 <= 40:
            points.append((real_cube_root, 8 * y1**3 / 3, y1))
    signs = {-1: 0, 0: 0, 1: 0}
    for br, x0, y0 in points:
        assert branch_value_rational(br, x0) == y0
        for _ in range(4):
            terms = {}
            for _ in range(rng.randint(1, 5)):
                terms[(rng.randint(0, 3), rng.randint(0, 3))] = Fraction(rng.randint(-9, 9), rng.randint(1, 5))
            p = BiPoly(terms)
            if rng.random() < 0.25:
                # vanish at the point: through the curve, or through y = y0
                p = p * br.curve if rng.random() < 0.5 else p * BiPoly({(0, 1): 1, (0, 0): -y0})
            value = evaluate_bipoly(p, x0, y0)
            want = (value > 0) - (value < 0)
            assert branch_sign(br, x0, p) == want, (br.curve, x0, p)
            signs[want] += 1
    assert min(signs.values()) > 20


# -- level sets --------------------------------------------------------------------------


def test_level_set_parabola():
    br = branch_from_point(parse("y - x^2"), 3, 9, (0, 10))
    assert level_set_abscissas(br, 1, 2, 1) == [(1, True)]  # f' = 2x = 2 at x = 1


def test_level_set_empty_out_of_range():
    br = branch_from_point(parse("y - x^2"), Fraction(3, 2), Fraction(9, 4), (1, 2))
    assert level_set_abscissas(br, 1, 0, 1) == []


def test_level_set_hyperbola():
    br = branch_from_point(parse("x*y - 12"), 3, 4, (1, 12))
    assert level_set_abscissas(br, 1, -3, 1) == [(2, True)]  # f' = -12/x^2 = -3 at x = 2


def test_level_set_degenerate_errors():
    br = branch_from_point(parse("y - x^2"), 3, 9, (0, 10))
    with pytest.raises(DegenerateLevelSetError):
        level_set_abscissas(br, 2, 1, 1)  # f''/2! == 1 identically
    with pytest.raises(ValueError, match="order"):
        level_set_abscissas(br, 0, 1, 1)
    with pytest.raises(ValueError, match="integer ends"):
        level_set_abscissas(branch_from_point(parse("y - x^2"), 3, 9, (Fraction(1, 2), 10)), 1, 1, 1)


def test_level_set_bezout_cap():
    for name, seed in (("circle", (3, 4)), ("hyperbola", (3, 4))):
        curve = FIXTURES[name]
        br = branch_from_point(curve, *seed, (2, 5))
        for i in (1, 2):
            for c in (1, Fraction(-1, 2)):
                roots = level_set_abscissas(br, i, *c.as_integer_ratio())
                level = _unreduced_level_curve(curve, i, Fraction(c))
                assert len(roots) <= curve.degree * level.degree


def test_level_set_rational_root_at_domain_end():
    # f' = -x/y = -3/4 on the circle at (3, 4) and (-3, -4): the eliminant
    # of the level curve 2x - (3/2)y has the rational roots -3 and 3, and a
    # domain ending there reads them as exact slots (r, True), and the
    # crossing reference as exact brackets [r, r], whichever branch passes
    # through them
    circle = FIXTURES["circle"]
    upper_right = branch_from_point(circle, 3, 4, (0, 3))
    upper_left = branch_from_point(circle, 0, 5, (-3, 0))
    lower_left = branch_from_point(circle, 0, -5, (-3, 0))
    for br, end in ((upper_right, 3), (upper_left, -3), (lower_left, -3)):
        assert level_set_abscissas(br, 1, -3, 4) == [(end, True)]
    # f'(-3) = 3/4 on the upper branch: the exact root is the lower
    # branch's, and the crossing test drops it
    assert [(r.lo, r.hi) for r in crossing_level_set(upper_right, 1, Fraction(-3, 4))] == [(3, 3)]
    assert crossing_level_set(upper_left, 1, Fraction(-3, 4)) == []
    assert [(r.lo, r.hi) for r in crossing_level_set(lower_left, 1, Fraction(-3, 4))] == [(-3, -3)]
    # a root at a domain end is its own one-point run, where |f'(-3)| = 3/4
    # meets the closed bound and reads small: |f'| <= 3/4 on [-3, 0]
    part = partition_by_bounds(upper_left, 2, 3, Fraction(1, 4))
    assert _pieces(part) == [(-3, -3, ("small",)), (-2, 0, ("small",))]


def test_level_set_eliminant_is_one_traced_resultant(monkeypatch):
    """From empty caches, one level set takes its eliminant from one call of
    `poly2.resultant_eliminating_y`, through `poly2`'s own binding, the only
    one a tracer replaces, with the level curve as its second argument."""
    br = branch_from_point(FIXTURES["circle"], 3, 4, (-4, 4))
    levels = (branch_module._level_resultant, branch_module._level_curve, branch_module._reduced_level_parts)
    for cached in levels + (hk_sequence,):
        cached.cache_clear()
    calls = []
    original = poly2_module.resultant_eliminating_y

    def counted(p, q):
        calls.append((p, q))
        return original(p, q)

    monkeypatch.setattr(poly2_module, "resultant_eliminating_y", counted)
    assert len(level_set_abscissas(br, 2, -1, 8)) >= 1
    assert calls == [(br.curve, branch_module._level_curve(br.curve, 2, -1, 8))]


def _count_sign_queries(monkeypatch):
    """Record each sign query that `branch` or the crossing reference makes.
    The reference reads the level curve's sign at both ends of each bracket
    of an eliminant root, and `level_set_abscissas` reads none."""
    calls = []

    def counted(r, v):
        calls.append(r)
        return original(r, v)

    original = branch_module.sign_at_root
    monkeypatch.setattr(branch_module, "sign_at_root", counted)
    monkeypatch.setattr(reference_helpers, "sign_at_root", counted)
    return calls


def test_level_set_rational_tangential_contact(monkeypatch):
    # f''/2 = -25/(2 y^3) on the upper circle branch is at most -1/10, with
    # equality only at x = 0: a double eliminant root without a crossing.
    # Inside the domain the crossing test drops it; at a domain end its
    # bracket is exact and the level curve vanishes there, so the crossing
    # test keeps it.  The partition keys it by the exact slot 0, which also
    # holds the +1/10 eliminant's root on the lower sheet: 0 is its own
    # one-point run, where |f''(0)/2| = 1/10 meets the closed bound and reads
    # small, and the runs on either side read order 2 large.
    inside = branch_from_point(FIXTURES["circle"], 3, 4, (-3, 4))
    at_end = branch_from_point(FIXTURES["circle"], 3, 4, (0, 4))
    calls = _count_sign_queries(monkeypatch)
    assert level_set_abscissas(inside, 2, -1, 10) == [(0, True)]
    assert branch_module._level_resultant(inside.curve, 2, -1, 10) == (0, 0, 1875, 0, -75, 0, 1)
    assert calls == []
    assert crossing_level_set(inside, 2, Fraction(-1, 10)) == []
    assert len(calls) == 2
    calls.clear()
    assert [(r.lo, r.hi) for r in crossing_level_set(at_end, 2, Fraction(-1, 10))] == [(0, 0)]
    assert len(calls) == 2
    pieces = partition_by_bounds(inside, 3, 10, Fraction(1, 10)).pieces[:3]
    assert [(p.lo, p.hi, p.flags) for p in pieces] == [
        (-3, -1, ("small", "large")),
        (0, 0, ("small", "small")),
        (1, 3, ("small", "large")),
    ]


def test_level_set_simple_root_without_crossing_skipped(monkeypatch):
    # f' = -x/y = -3/4 at (3, 4) on the upper branch; the eliminant x^2 - 9
    # has its other simple root x = -3 at the lower branch point (-3, -4),
    # so the level curve keeps its sign along the upper branch there.
    # `level_set_abscissas` reads both roots with no sign query, and the
    # crossing test keeps x = 3 only.
    br = branch_from_point(FIXTURES["circle"], 3, 4, (-4, 4))
    hyperbola = branch_from_point(FIXTURES["hyperbola"], 3, 4, (1, 12))
    calls = _count_sign_queries(monkeypatch)
    assert len(level_set_abscissas(br, 1, -3, 4)) == 2 and calls == []
    assert branch_module._level_resultant(br.curve, 1, -3, 4) == (-9, 0, 1)
    roots = crossing_level_set(br, 1, Fraction(-3, 4))
    assert len(roots) == 1 and roots[0].lo <= 3 <= roots[0].hi
    # two sign queries per bracket decide both roots
    assert len(calls) == 4
    # a reduced level curve free of y is its own eliminant: no query at all
    calls.clear()
    assert len(crossing_level_set(hyperbola, 1, -3)) == 1
    assert calls == []


_CONTACT_CURVE = "15*x - 3*y^5 + 20*y^3 - 75*y"


def test_level_set_irrational_tangential_contact_is_no_cut(monkeypatch):
    # 15x = 3y^5 - 20y^3 + 75y has f' = 1/((y^2 - 2)^2 + 1) <= 1, with
    # equality at y = sqrt(2), x = 47*sqrt(2)/15: an irrational contact, the
    # double root of the eliminant -(225x^2 - 4418)^2 in the domain, which
    # the crossing test drops; the partition cuts at its gap slot (4, 5)
    # between two runs with equal flags
    br = branch_from_point(parse(_CONTACT_CURVE), 0, 0, (0, 10))
    calls = _count_sign_queries(monkeypatch)
    assert level_set_abscissas(br, 1, 1, 1) == [(5, False)]
    assert branch_module._level_resultant(br.curve, 1, 1, 1) == (-4418**2, 0, 2 * 225 * 4418, 0, -(225**2))
    assert calls == []
    assert crossing_level_set(br, 1, 1) == []
    assert len(calls) == 2
    assert _pieces(partition_by_bounds(br, 2, 10, Fraction(1, 10))) == [(0, 4, ("small",)), (5, 10, ("small",))]


# -- partitions --------------------------------------------------------------------------


def test_partition_parabola_example():
    br = branch_from_point(parse("y - x^2"), 3, 9, (0, 10))
    part = partition_by_bounds(br, 2, 100, Fraction(1, 20))
    assert len(part.pieces) == 2
    first, second = part.pieces
    assert first.flags == ("small",) and second.flags == ("large",)
    # the cut x = 5/2 is the unit gap (2, 3) between the integer runs
    assert (first.lo, first.hi, second.lo, second.hi) == (0, 2, 3, 10)


def test_partition_flags_below_degree():
    # a cubic branch has zero fourth derivative: always small at level >= 3
    br = branch_from_point(parse("y - x^3"), 2, 8, (0, 5))
    part = partition_by_bounds(br, 5, 1000, Fraction(1, 10))
    for piece in part.pieces:
        assert piece.flags[3] == "small"


def test_partition_hyperbola_single_small_piece():
    br = branch_from_point(parse("x*y - 12"), 3, 4, (1, 12))
    part = partition_by_bounds(br, 3, 10**6, Fraction(1, 10))
    assert len(part.pieces) == 1
    assert part.pieces[0].all_small()


def test_partition_soundness_samples():
    """Certified flags agree with the true normalized derivatives at many
    rational sample points, checked through exact branch values."""
    curve = parse("y - x^2")
    br = branch_from_point(curve, 3, 9, (0, 10))
    n_box, delta = Fraction(100), Fraction(1, 20)
    part = partition_by_bounds(br, 3, n_box, delta)
    for piece in part.pieces:
        for t in range(1, 8):
            x = piece.lo + (piece.hi - piece.lo) * Fraction(t, 8)
            cs = taylor_coefficients(br, x, 2)
            for i in (1, 2):
                thr = n_box * delta**i
                if piece.flags[i - 1] == "small":
                    assert abs(cs[i]) <= thr
                else:
                    assert abs(cs[i]) >= thr


def test_partition_piece_count_bound():
    curve = parse("x*y - 12")
    br = branch_from_point(curve, 4, 3, (4, 12))
    d = curve.degree
    for big_d in (2, 4, 6):
        part = partition_by_bounds(br, big_d, 50, Fraction(1, 4))
        assert len(part.pieces) <= 64 * big_d**2 * d**2


def test_partition_integer_root_inside_cut():
    # f' = 2x = 6 at x = 3, an exact integer cut: the integer root is its
    # own one-point run, where |f'(3)| = 6 meets the closed bound and reads
    # small
    br = branch_from_point(parse("y - x^2"), 3, 9, (0, 10))
    part = partition_by_bounds(br, 2, 120, Fraction(1, 20))
    assert _pieces(part) == [(0, 2, ("small",)), (3, 3, ("small",)), (4, 10, ("large",))]


def test_root_slot_edge_cases():
    sqrt2 = (-2, 0, 1)
    # an integer bracket end, and no integer between two ends
    assert root_slot(RootInterval(Fraction(1), Fraction(3, 2), sqrt2)) == (2, False)
    assert root_slot(RootInterval(Fraction(5, 4), Fraction(2), sqrt2)) == (2, False)
    assert root_slot(RootInterval(Fraction(-2), Fraction(-1), sqrt2)) == (-1, False)
    assert root_slot(RootInterval(Fraction(2), Fraction(5, 2), (-5, 0, 1))) == (3, False)
    assert root_slot(RootInterval(Fraction(1, 3), Fraction(2, 3), (-1, 2))) == (1, False)
    # an exact root, integer or not
    assert root_slot(RootInterval(Fraction(3), Fraction(3), (-3, 1))) == (3, True)
    assert root_slot(RootInterval(Fraction(-5, 2), Fraction(-5, 2), (5, 2))) == (-2, False)
    # an integer strictly inside the bracket: the root below, above or at it
    for poly, want in (((-299, 100), (3, False)), ((-301, 100), (4, False)), ((-3, 1), (3, True))):
        assert root_slot(RootInterval(Fraction(5, 2), Fraction(7, 2), poly)) == want


def test_root_slot_reads_a_wide_bracket_unrefined(monkeypatch):
    """The column at 99 of the swapped branch of y^2 - x^3 - x - 1, isolated
    over its root bound, has the one bracket (-9801, 9801), around a root
    near 21.4: `root_slot` reads its slot (22, False) by integer sign
    bisection, with no refinement, and the bracket refined to width 1/4
    agrees, as does the branch's value bracket, isolated over that unit gap."""
    [br] = [b for b in graph_decompose(parse("y^2 - x^3 - x - 1"), 10**4).branches if b.swapped]
    bracket = all_real_roots(br.curve.int_column(99))[br.root_index]
    assert (bracket.lo, bracket.hi) == (-9801, 9801)
    value = branch_value_bracket(br, 99)
    assert (value.lo, value.hi) == (21, 22) and root_slot(value) == (22, False)
    with monkeypatch.context() as m:
        m.setattr(unipoly_module, "bisect_step", _not_called)
        assert root_slot(bracket) == (22, False)
    fine = refine_root(bracket, Fraction(1, 4))
    assert 21 < fine.lo and fine.hi < 22 and root_slot(fine) == (22, False)


def _interior_points(a, b):
    """Distinct rational points strictly inside (a, b), for a < b: the
    midpoint, then the new points of finer and finer dyadic grids, so a walk
    that avoids finitely many bad points ends."""
    k = 2
    while True:
        yield from (a + (b - a) * Fraction(i, k) for i in range(1, k, 2))
        k *= 2


def _reference_flags(br, big_d, n_box, delta):
    """The cuts and per-abscissa flags of the per-root crossing rule: the
    cuts are the `crossing_level_set` roots strictly inside the domain, each
    integer abscissa k goes to the first cut whose root is >= k by a test of
    every (abscissa, cut) pair, and the abscissas between two cuts read the
    flags of `_two_query_flags` at the first point of the `_interior_points`
    walk between the cuts' brackets on no level curve, or at their one point
    when the brackets touch.  Returns (cuts, {k: flags}, how many eliminant
    roots in the domain the crossing test drops)."""
    lo, hi = br.domain
    thresholds = [n_box * delta**i for i in range(1, big_d)]
    raw, skipped = [], 0
    for i, thr in enumerate(thresholds, start=1):
        for c in (thr, -thr):
            try:
                crossings = crossing_level_set(br, i, c)
            except DegenerateLevelSetError:
                continue
            raw += crossings
            skipped += len(level_set_abscissas(br, i, *c.as_integer_ratio())) - len(crossings)
    cuts = []
    for r in refine_disjoint(raw, Fraction(1, 4)) if raw else []:
        r = refine_clear_of(r, lo, hi)
        if lo < r.lo and r.hi < hi:
            cuts.append(r)

    def side(cut, k):
        if k < cut.lo:
            return -1
        if k > cut.hi:
            return 1
        if UniPoly(cut.polynomial).evaluate(k) == 0:
            return 0
        return 1 if count_real_roots(cut.polynomial, cut.lo, Fraction(k)) > 0 else -1

    assigned = [[] for _ in range(len(cuts) + 1)]
    for k in range(ceil(lo), floor(hi) + 1):
        assigned[next((j for j, cut in enumerate(cuts) if side(cut, k) <= 0), len(cuts))].append(k)
    flags_at = {}
    for a, b, ks in zip([lo] + [c.hi for c in cuts], [c.lo for c in cuts] + [hi], assigned):
        if ks:
            walk = _interior_points(a, b) if a < b else [a]
            span = Piece(a, b, ())
            flags = next(filter(None, (_two_query_flags(br, span, thresholds, at=x) for x in walk)))
            flags_at.update(dict.fromkeys(ks, flags))
    return cuts, flags_at, skipped


def test_partition_integer_abscissas_match_pairwise_assignment():
    """Seeded differential on the integer hulls of the branches of 250 random
    curves (degree <= 3, |c| <= 6, N <= 40): the pieces of
    `partition_by_bounds`, cut at every candidate slot, are integer runs
    that tile the hull, and every abscissa of a longer run has the flags
    that the per-root crossing rule (`_reference_flags`) gives it, though
    that rule drops the candidates that are no crossing.  A one-point run
    [k, k] reads the closed bound at k, as `_two_query_flags` does there: it
    may sit on a crossing, where the stretch on its left reads large and k
    itself small."""
    rng = random.Random(2024)
    curves = cuts_seen = integer_in_bracket = dropped = one_point = 0
    while curves < 250:
        deg = rng.choice([2, 3])
        terms = {}
        for _ in range(rng.randint(2, 5)):
            j1 = rng.randint(0, deg)
            terms[(j1, rng.randint(0, deg - j1))] = rng.randint(-6, 6)
        terms[(0, 0)] = rng.choice([-5, -3, -2, -1, 1, 2, 3, 5])
        curve = BiPoly(terms)
        if curve.degree < 2:
            continue
        n_box = rng.randint(5, 40)
        try:
            dec = graph_decompose(curve, n_box)
        except (BranchError, IngestionError):
            continue
        curves += 1
        for dom_br in dec.branches:
            big_d = rng.choice([2, 3, 4])
            delta = rng.choice([Fraction(1, n_box), Fraction(2, n_box), Fraction(1, 4), Fraction(1, 2)])
            br = integer_hull(dom_br)
            if br is None:
                continue
            thresholds = [n_box * delta**i for i in range(1, big_d)]
            part = partition_by_bounds(br, big_d, n_box, delta)
            cuts, want, skipped = _reference_flags(br, big_d, n_box, delta)
            runs = [k for p in part.pieces for k in range(p.lo, p.hi + 1)]
            assert runs == list(range(int(br.domain[0]), int(br.domain[1]) + 1)), curve.pretty()
            for p in part.pieces:
                if p.lo == p.hi:
                    assert p.flags == _two_query_flags(br, p, thresholds), (curve.pretty(), p)
                    one_point += 1
                else:
                    assert all(p.flags == want[k] for k in range(p.lo, p.hi + 1)), (curve.pretty(), p)
            cuts_seen += len(cuts)
            integer_in_bracket += sum(ceil(c.lo) <= c.hi for c in cuts)
            dropped += skipped
    assert cuts_seen >= 50 and integer_in_bracket >= 3 and dropped >= 20 and one_point >= 10, (
        cuts_seen, integer_in_bracket, dropped, one_point,
    )


def _random_branches(rng, count):
    """The branches of `count` random curves (degree 2-3, |c| <= 6, N from 5
    to 30) that `graph_decompose` accepts, with their box sizes."""
    out = []
    curves = 0
    while curves < count:
        deg = rng.choice([2, 3])
        terms = {}
        for _ in range(rng.randint(2, 5)):
            j1 = rng.randint(0, deg)
            terms[(j1, rng.randint(0, deg - j1))] = rng.randint(-6, 6)
        terms[(0, 0)] = rng.choice([-5, -3, -2, -1, 1, 2, 3, 5])
        curve = BiPoly(terms)
        if curve.degree < 2:
            continue
        n_box = rng.randint(5, 30)
        try:
            dec = graph_decompose(curve, n_box)
        except (BranchError, IngestionError):
            continue
        curves += 1
        out += [(br, n_box) for br in dec.branches]
    return out


# -- derivative bounds on root-free discs ---------------------------------------------


def _not_called(*args):
    raise AssertionError("unexpected call")


def test_certified_orders_cauchy_bound_by_hand(monkeypatch):
    """y = x^2 on [-1/2, 1/2], delta = 1, D = 4, not `flat`.  The domain
    spans R = 1; lc_y(F) = 1 and deg_y F = 1, so every disc passes.  The
    column y - x0^2 has the one root x0^2, so y0 = x0^2 is the branch value,
    read with no bracket.  On |z - x0| <= 1 the root y = 2*x0*w + w^2 of
    F(z, y0 + y) has Fujiwara bound M = 2|x0| + 1, and order i holds on
    |x - x0| <= s when M < N * (1 - s)^i.

    - N = 9: s = 1/2 at x0 = 0 gives M = 1 < 9/8, every order in one
      stretch.
    - N = 8: at s = 1/2, 8/8 = 1 meets M = 1, so order 3 fails.  s = 1/4 at
      x0 = -1/4 gives M = 3/2 < 8 * 27/64 = 27/8 and covers [-1/2, 0].
      From 0, s = 1/2 is centred at 1/4, the middle of what is left: M =
      3/2 > 1.  s = 1/4 at the same centre holds and reaches 1/2.
    - N = 1: even s = 1/16 at x0 = -7/16 gives M = 15/8 > 15/16, so every
      order is dropped.

    y0 comes from the constant terms of the rows' affine images, so no
    column of the curve is read.
    """
    monkeypatch.setattr(branch_module, "branch_value_bracket", _not_called)
    br = branch_from_point(parse("y - x^2"), 0, 0, (Fraction(-1, 2), Fraction(1, 2)))
    assert not br.flat
    monkeypatch.setattr(BiPoly, "int_column", _not_called)
    for n_box, want in ((9, {1, 2, 3}), (8, {1, 2, 3}), (1, set())):
        assert certified_orders(br, 4, Fraction(n_box), Fraction(1)) == want, n_box


def _poly_from_roots(real=(), pairs=()):
    """An integer polynomial, low degree first, whose roots are the
    rationals `real` and, for each (a, b) in `pairs`, the conjugate pair of
    w^2 - 2a*w + (a^2 + b^2): a +- b*i."""
    p = UniPoly([1])
    for r in real:
        p = p * UniPoly([-Fraction(r), 1])
    for a, b in pairs:
        p = p * UniPoly([Fraction(a) ** 2 + Fraction(b) ** 2, -2 * Fraction(a), 1])
    return primitive_ints(p.coeffs)


def test_root_free_disc_test_refuses_every_root_on_the_closed_disc():
    """`_root_free` refuses each polynomial with a root inside the unit disc
    or on its circle (+-1, +-i, (3 +- 4i)/5), alone or beside far roots, and
    proves root-free the polynomials whose roots lie just outside it (17/16,
    a pair of modulus 9/8, which Rouché alone refuses) or far outside."""
    half, third = Fraction(1, 2), Fraction(1, 3)
    far = [((), ()), ((4,), ()), ((-5, 7), ()), ((), ((3, 4),)), ((-9,), ((-2, 3),))]
    inside = [((0,), ()), ((half,), ()), ((), ((third, half),)), ((), ((0, half),))]
    circle = [((1,), ()), ((-1,), ()), ((), ((0, 1),)), ((), ((Fraction(3, 5), Fraction(4, 5)),))]
    outside = [((Fraction(17, 16),), ()), ((), ((Fraction(27, 40), Fraction(9, 10)),))]
    for real, pairs in far:
        if real or pairs:
            assert branch_module._root_free(_poly_from_roots(real, pairs)), (real, pairs)
        for near, want in [(case, False) for case in inside + circle] + [(case, True) for case in outside]:
            q = _poly_from_roots(real + near[0], pairs + near[1])
            assert branch_module._root_free(q) == want, (real, pairs, near)
    pair = _poly_from_roots((), ((Fraction(27, 40), Fraction(9, 10)),))
    assert branch_module._rouche_margin(pair) <= 0 and branch_module._root_free(pair)
    assert not branch_module._root_free([]) and branch_module._root_free([3])


def test_root_free_disc_test_on_a_seeded_family():
    """Seeded family: every polynomial with a real or complex root on the
    closed unit disc (rational points of the disc and of its circle, from
    Pythagorean triples) is refused, and every polynomial whose roots all
    have modulus at least 2 is proved root-free."""
    rng = random.Random(27)
    triples = [(3, 4, 5), (5, 12, 13), (8, 15, 17), (7, 24, 25)]

    def far_root():
        return Fraction(rng.randint(8, 160), 4)  # in [2, 40]

    accepted = 0
    for _ in range(150):
        real = [rng.choice([-1, 1]) * far_root() for _ in range(rng.randint(0, 3))]
        pairs = []
        for _ in range(rng.randint(0, 2)):
            a, b, c = rng.choice(triples)
            m = far_root()
            pairs.append((m * Fraction(a, c) * rng.choice([-1, 1]), m * Fraction(b, c)))
        if real or pairs:
            assert branch_module._root_free(_poly_from_roots(real, pairs)), (real, pairs)
            accepted += 1
        a, b, c = rng.choice(triples)
        scale = Fraction(rng.randint(0, 8), 8)
        near = rng.choice(
            [
                ([scale * rng.choice([-1, 1])], []),
                ([], [(scale * Fraction(a, c), scale * Fraction(b, c))]),
                ([], [(Fraction(a, c) * rng.choice([-1, 1]), Fraction(b, c))]),
            ]
        )
        q = _poly_from_roots(real + near[0], pairs + near[1])
        assert not branch_module._root_free(q), (real, pairs, near)
    assert accepted >= 100


def test_flat_branch_order_1_needs_no_disc(monkeypatch):
    """Order 1 of a branch from `graph_decompose` holds by |f'| < 1 <= N*delta
    and takes no disc: with D = 2 no affine map is taken.  With D = 16 the
    discs prove every order and read no branch value bracket."""
    monkeypatch.setattr(branch_module, "branch_value_bracket", _not_called)
    for br in graph_decompose(parse("x^2 + y^2 - 250000"), 500).branches:
        assert br.flat
        with monkeypatch.context() as m:
            m.setattr(branch_module, "affine_image", _not_called)
            assert certified_orders(br, 2, Fraction(500), Fraction(1)) == {1}
        assert certified_orders(br, 16, Fraction(500), Fraction(1)) == set(range(1, 16))


def _partition_rows(part):
    return [(p.lo, p.hi, p.flags) for p in part.pieces]


def _flags_by_abscissa(part):
    return {k: p.flags for p in part.pieces for k in range(p.lo, p.hi + 1)}


def test_certified_orders_have_empty_level_sets(monkeypatch):
    """Seeded differential: on random branches (degree 2-3), the branches of
    curves shaped like the benchmark families and branches that end near a
    branch point or a pole,
    every order the certificate proves is never crossed (`crossing_level_set`
    finds no root at +-N*delta^i), and `partition_by_bounds` on the integer
    hull agrees with the exact route, run with the certificate patched to
    prove no order: both give the same flags at every integer abscissa, and
    each certified piece is a union of exact pieces, since a proved order
    adds no cut."""
    rng = random.Random(22)
    cases = _random_branches(rng, 40)
    shapes = [(f"x - {c}*y^2 - {e}*y", 500) for c, e in ((1, 0), (2, 53), (3, 17))]
    shapes += [(f"x*y - {m}", 500) for m in (720, 4321, 9240)]
    shapes += [(f"x^2 + y^2 - {m}", 500) for m in (202500, 250000, 302501)]
    shapes += [("y^2 - x^3 + 2*x - 3", 25), ("x - 7*y^4", 100), ("x - 3*y^5", 100)]
    shapes += [("x^2 + y^2 - 3000", 80), ("x^2 + y^2 - 5000", 80), ("x^2 - 13*y^2 - 1", 60)]
    for text, n_box in shapes:
        cases += [(br, n_box) for br in graph_decompose(parse(text), n_box).branches]
    for text, n_box in (("x - y^4", 100), ("x^2 - 101*y^2 - 1", 60)):
        hulls = [integer_hull(br) for br in graph_decompose(parse(text), n_box).branches]
        cases += [(br, n_box) for br in hulls if br is not None]
    for text, seed, domain in (
        ("x^2 + y^2 - 25", (3, 4), (-4, Fraction(49, 10))),
        ("x^2 + y^2 - 25", (0, 5), (Fraction(-24, 5), Fraction(24, 5))),
        ("x*y - 12", (3, 4), (Fraction(1, 2), 12)),
        ("y^2 - x^3 - 1", (2, 3), (Fraction(-9, 10), 3)),
    ):
        br = branch_from_point(parse(text), *seed, domain)
        cases += [(br, n_box) for n_box in (2, 5, 20)]
    with_proof = with_fallback = differ = 0
    for br, n_box in cases:
        big_d = rng.choice([3, 4, 5, 6])
        delta = rng.choice([d for d in (Fraction(1), Fraction(1, 2), Fraction(1, 4)) if d * n_box >= 1])
        proved = certified_orders(br, big_d, Fraction(n_box), delta)
        for i in proved:
            thr = n_box * delta**i
            assert crossing_level_set(br, i, thr) == [] == crossing_level_set(br, i, -thr), (br, i)
        br = integer_hull(br)
        if br is None:
            continue
        proved = certified_orders(br, big_d, Fraction(n_box), delta)
        part = partition_by_bounds(br, big_d, n_box, delta)
        assert part.certified == proved
        with monkeypatch.context() as m:
            m.setattr(branch_module, "certified_orders", lambda *args: frozenset())
            exact = partition_by_bounds(br, big_d, n_box, delta)
        assert exact.certified == frozenset()
        assert _flags_by_abscissa(part) == _flags_by_abscissa(exact), (br, big_d, n_box, delta)
        assert {p.lo for p in part.pieces} <= {p.lo for p in exact.pieces}, (br, big_d, n_box, delta)
        differ += _partition_rows(part) != _partition_rows(exact)
        with_proof += bool(proved - {1})
        with_fallback += len(proved) < big_d - 1
    assert with_proof >= 20 and with_fallback >= 20, (with_proof, with_fallback)
    # a certified order's candidate is a cut on the exact route only
    assert differ >= 1, differ


def _lead_kind(curve):
    lead = curve.rows[-1]
    return "polynomial_lead" if len(lead) > 1 else "negative_lead" if lead[0] < 0 else "positive_lead"


def test_reduced_level_signs_match_unreduced_at_branch_points():
    """At seeded rational points of random branches (domain ends included),
    the Tarski sign of the reduced level curve's column equals that of the
    unreduced level curve's column; the closed domains avoid the roots of
    lc_y(F)."""
    rng = random.Random(777)
    seen = {"positive_lead": 0, "negative_lead": 0, "polynomial_lead": 0, "zero": 0, "nonzero": 0}
    for br, n_box in _random_branches(rng, 60):
        lo, hi = br.domain
        lead = br.curve.rows[-1]
        assert all(UniPoly(lead).evaluate(x) != 0 for x in (lo, hi))
        points = [lo, hi] + [lo + (hi - lo) * Fraction(rng.randint(1, 15), 16) for _ in range(3)]
        # a level through an integer branch point gives a zero sign there
        hits = [k for k in range(ceil(lo), floor(hi) + 1) if branch_integer_point(br, k) is not None]
        points += hits[:1]
        for i in (1, 2, 3):
            levels = [Fraction(rng.randint(-9, 9), rng.randint(1, 4)), Fraction(n_box) / 4**i]
            levels += [taylor_coefficients(br, k, i)[i] for k in hits[:1]]
            for c in levels:
                try:
                    reduced = branch_module._level_curve(br.curve, i, *c.as_integer_ratio())
                except DegenerateLevelSetError:
                    continue
                level = _unreduced_level_curve(br.curve, i, c)
                assert reduced.degree_y() < br.curve.degree_y()
                for x in points:
                    bracket = branch_value_bracket(br, x)
                    want = sign_at_root(bracket, level.int_column(x))
                    assert sign_at_root(bracket, reduced.int_column(x)) == want, (br.curve, i, c, x)
                    seen["zero" if want == 0 else "nonzero"] += 1
                    seen[_lead_kind(br.curve)] += 1
    assert min(seen.values()) >= 20, seen


def _two_query_flags(br, piece, thresholds, at=None):
    """The flags of a piece from the signs of F_y and of the two unreduced
    level curves of each order at `at`, by default its midpoint, or None
    when that point lies on a level curve, unless the piece is one point,
    where the closed bound holds."""
    mid = Fraction(piece.lo + piece.hi, 2) if at is None else at
    bracket = branch_value_bracket(br, mid)
    sfy = sign_at_root(bracket, partial(br.curve, "y").int_column(mid))
    flags = []
    for i, thr in enumerate(thresholds, start=1):
        try:
            _unreduced_eliminant(br.curve, i, thr)
            _unreduced_eliminant(br.curve, i, -thr)
        except DegenerateLevelSetError:
            flags.append("small")
            continue
        s_plus = sign_at_root(bracket, _unreduced_level_curve(br.curve, i, thr).int_column(mid))
        s_minus = sign_at_root(bracket, _unreduced_level_curve(br.curve, i, -thr).int_column(mid))
        assert sfy != 0
        if piece.lo < piece.hi and 0 in (s_plus, s_minus):
            return None
        flags.append("small" if (-s_plus * sfy <= 0 and -s_minus * sfy >= 0) else "large")
    return tuple(flags)


def test_piece_flags_match_two_query_flags():
    """Each flag from the one query on the product of the reduced +-thr level
    curves' columns equals the flag from the two queries on the unreduced
    curves, on each branch's integer hull."""
    rng = random.Random(909)
    seen = {"positive_lead": 0, "negative_lead": 0, "polynomial_lead": 0, "small": 0, "large": 0}
    for dom_br, n_box in _random_branches(rng, 150):
        big_d = rng.choice([2, 3, 4])
        delta = rng.choice([Fraction(1, n_box), Fraction(2, n_box), Fraction(1, 4), Fraction(1, 2)])
        thresholds = [n_box * delta**i for i in range(1, big_d)]
        br = integer_hull(dom_br)
        if br is None:
            continue
        for piece in partition_by_bounds(br, big_d, n_box, delta).pieces:
            assert piece.flags == _two_query_flags(br, piece, thresholds), (br.curve, piece)
            seen[_lead_kind(br.curve)] += 1
            for flag in piece.flags:
                seen[flag] += 1
    assert min(seen.values()) >= 10, seen


def _candidate_counts(br, big_d, n_box, delta, part):
    """For each integer k of the hull, (the candidates exactly at k, those
    in the open (k, k + 1)), counted by `count_real_roots` on the
    eliminants of both level sets of every order that `part` did not
    certify: no slot of `unipoly.root_slot` is read."""
    lo, hi = int(br.domain[0]), int(br.domain[1])
    exact, gap = [0] * (hi - lo + 1), [0] * (hi - lo + 1)
    for i in range(1, big_d):
        if i in part.certified:
            continue
        for c in (n_box * delta**i, -(n_box * delta**i)):
            try:
                elim = branch_module._level_resultant(br.curve, i, *c.as_integer_ratio())
            except DegenerateLevelSetError:
                continue
            for k in range(lo, hi + 1):
                at_k = count_real_roots(elim, k, k)
                exact[k - lo] += at_k
                if k < hi:
                    gap[k - lo] += count_real_roots(elim, k, k + 1) - at_k - count_real_roots(elim, k + 1, k + 1)
    return exact, gap


def test_partition_runs_on_random_hulls(monkeypatch):
    """Seeded, on the integer hulls of random branches (degree 2-3), with
    the disc certificate patched to prove no order so that every order
    builds its level sets (`test_certified_orders_have_empty_level_sets`
    shows the flags are the same).  On half the hulls with an integer
    branch point k, N*delta = 1 and N*delta^2 = |f''(k)/2| when that is in
    (0, 1), so a level set meets the hull at an integer.  The pieces tile
    the hull in integer runs.  Every integer candidate is a one-point
    piece, no piece of two or more points holds a candidate, and each cut
    between two pieces holds one.  Each flag holds at the piece's midpoint
    and at every integer abscissa of it by one product query: small where
    it reads <= 0 and large where it reads >= 0, since a zero meets the
    closed bound of both."""
    monkeypatch.setattr(branch_module, "certified_orders", lambda *args: frozenset())
    rng = random.Random(36)
    seen = {"kept_apart": 0, "on_candidate": 0, "gap_cut": 0, "small": 0, "large": 0}
    for dom_br, n_box in _random_branches(rng, 300):
        br = integer_hull(dom_br)
        if br is None:
            continue
        big_d = rng.choice([2, 3, 4])
        delta = rng.choice([Fraction(1, n_box), Fraction(2, n_box), Fraction(1, 4), Fraction(1, 2)])
        lo, hi = int(br.domain[0]), int(br.domain[1])
        hits = [k for k in range(lo, hi + 1) if branch_integer_point(br, k) is not None]
        if hits and rng.random() < 0.5:
            c2 = abs(taylor_coefficients(br, rng.choice(hits), 2)[2])
            if 0 < c2 < 1:
                big_d, delta, n_box = rng.choice([3, 4]), c2, 1 / c2
        thresholds = [n_box * delta**i for i in range(1, big_d)]
        part = partition_by_bounds(br, big_d, n_box, delta)
        assert [k for p in part.pieces for k in range(p.lo, p.hi + 1)] == list(range(lo, hi + 1))
        exact, gap = _candidate_counts(br, big_d, n_box, delta, part) if lo < hi else ([0], [0])
        for p in part.pieces:
            if p.lo < p.hi:
                assert not any(exact[p.lo - lo : p.hi - lo + 1] + gap[p.lo - lo : p.hi - lo]), (br, p)
            else:
                seen["on_candidate"] += exact[p.lo - lo] > 0
            for x in [Fraction(p.lo + p.hi, 2)] + list(range(p.lo, p.hi + 1)):
                for flag, sign in zip(p.flags, _product_signs(br, Fraction(x), thresholds)):
                    assert sign <= 0 if flag == "small" else sign >= 0, (br, p, x)
            seen.update({flag: seen[flag] + 1 for flag in p.flags})
        for a, b in zip(part.pieces, part.pieces[1:]):
            assert exact[a.hi - lo] or exact[b.lo - lo] or gap[a.hi - lo], (br, a, b)
            seen["gap_cut"] += gap[a.hi - lo] > 0
            seen["kept_apart"] += a.flags == b.flags
    # each rule is met, though rarely on hulls this small: the named cases
    # show each one in detail
    assert min(seen.values()) >= 2, seen


def test_one_point_run_on_a_level_set_never_merges():
    """y = x + x^2 - 4x^3/3 on the domain [0, 5], D = 2, N*delta = 1: f' =
    1 + 2x - 4x^2 equals 1 at the domain end 0 and at 1/2, and -1 at 1, so
    |f'| > 1 on (0, 1/2) and below 1 on (1/2, 1].  The runs are [0, 0],
    on the end root, then [1, 1], on the exact root 1, then [2, 5].  The
    two one-point runs sit on a level set and read small by the closed
    bound, and one candidate lies between them, at 1/2; one small piece
    over both would hold the large stretch (0, 1/2), so they keep apart."""
    br = branch_from_point(parse("3*y - 3*x - 3*x^2 + 4*x^3"), 0, 0, (0, 5))
    part = partition_by_bounds(br, 2, 10, Fraction(1, 10))
    assert _pieces(part) == [(0, 0, ("small",)), (1, 1, ("small",)), (2, 5, ("large",))]
    assert [r for r in (0, 1) if count_real_roots(branch_module._level_resultant(br.curve, 1, 1, 1), r, r)] == [0]
    assert _product_signs(br, Fraction(1, 4), [Fraction(1)]) == [1]
    assert [_product_signs(br, Fraction(k), [Fraction(1)]) for k in (0, 1)] == [[0], [0]]


def test_partition_needs_integer_domain_ends():
    br = branch_from_point(parse("y - x^2"), 3, 9, (Fraction(1, 2), 10))
    with pytest.raises(ValueError, match="integer ends"):
        partition_by_bounds(br, 2, 100, Fraction(1, 20))
    with pytest.raises(ValueError, match="D must be >= 2"):
        partition_by_bounds(branch_from_point(parse("y - x^2"), 3, 9, (0, 10)), 1, 100, Fraction(1, 20))


def _pieces(part):
    return [(p.lo, p.hi, p.flags) for p in part.pieces]


def test_flags_across_a_tangential_cut_are_queried_again():
    # f''/2 = -25/(2 y^3) touches -1/10 at x = 0 without crossing it: the
    # runs on either side of the exact slot 0 both read order 2 large, 0
    # itself reads it small by the closed bound, and f' = -1 in the gap
    # (3, 4) flips order 1
    br = branch_from_point(FIXTURES["circle"], 3, 4, (-3, 4))
    part = partition_by_bounds(br, 3, 10, Fraction(1, 10))
    assert _pieces(part) == [
        (-3, -1, ("small", "large")),
        (0, 0, ("small", "small")),
        (1, 3, ("small", "large")),
        (4, 4, ("large", "large")),
    ]
    thresholds = [10 * Fraction(1, 10) ** i for i in (1, 2)]
    assert all(p.flags == _two_query_flags(br, p, thresholds) for p in part.pieces)


def test_partition_through_an_irrational_contact_keeps_equal_flags():
    # f' touches N*delta = 1 at x = 47*sqrt(2)/15 without crossing it: its
    # gap slot (4, 5) cuts, and both runs read small
    br = branch_from_point(parse(_CONTACT_CURVE), 0, 0, (0, 10))
    part = partition_by_bounds(br, 2, 10, Fraction(1, 10))
    assert _pieces(part) == [(0, 4, ("small",)), (5, 10, ("small",))]
    assert all(p.flags == _two_query_flags(br, p, [Fraction(1)]) for p in part.pieces)


def test_partition_cuts_at_a_contact_between_runs_of_equal_flags():
    """The two contacts that no crossing leaves, where f^(i)/i! touches
    +-N*delta^i: the irrational one of `_CONTACT_CURVE` on (0, 10), in the
    gap slot (4, 5), and the circle's at the exact slot 0 on (-3, 4).  Each
    contact cuts, and the runs on both sides of it read equal flags; the
    exact contact is its own one-point run, which reads small by the
    closed bound.  Every flag holds at every integer of its piece by the
    two queries on the unreduced level curves."""
    cases = (
        (branch_from_point(parse(_CONTACT_CURVE), 0, 0, (0, 10)), 2, [(0, 4, ("small",)), (5, 10, ("small",))]),
        (
            branch_from_point(FIXTURES["circle"], 3, 4, (-3, 4)),
            3,
            [
                (-3, -1, ("small", "large")),
                (0, 0, ("small", "small")),
                (1, 3, ("small", "large")),
                (4, 4, ("large", "large")),
            ],
        ),
    )
    for br, big_d, want in cases:
        part = partition_by_bounds(br, big_d, 10, Fraction(1, 10))
        assert _pieces(part) == want
        thresholds = [10 * Fraction(1, 10) ** i for i in range(1, big_d)]
        for p in part.pieces:
            for k in range(p.lo, p.hi + 1):
                assert p.flags == _two_query_flags(br, p, thresholds, at=k), (br.curve, p, k)


def test_partition_reads_flags_past_a_contact_at_the_midpoint():
    """On the upper circle branch over (-3, 3), f''/2 = -25/(2 y^3) touches
    -1/10 = -N*delta^2 at x = 0, the midpoint of the domain, where the
    product query of order 2 reads 0.  The contact is a candidate in the
    exact slot 0, its own one-point run, which reads order 2 small by the
    closed bound.  The runs [-3, -1] and [1, 3] on either side read theirs
    at their first columns, -3 and 1, as two queries at x = 1, which is no
    contact, read them."""
    br = branch_from_point(FIXTURES["circle"], 3, 4, (-3, 3))
    part = partition_by_bounds(br, 3, 10, Fraction(1, 10))
    assert _pieces(part) == [
        (-3, -1, ("small", "large")),
        (0, 0, ("small", "small")),
        (1, 3, ("small", "large")),
    ]
    plus = branch_module._level_curve(br.curve, 2, 1, 10).int_column(0)
    minus = branch_module._level_curve(br.curve, 2, -1, 10).int_column(0)
    assert sign_at_root(branch_value_bracket(br, 0), _int_mul(plus, minus)) == 0
    thresholds = [Fraction(1), Fraction(1, 10)]
    left, contact, right = part.pieces
    assert left.flags == right.flags == _two_query_flags(br, left, thresholds, at=Fraction(1))
    assert contact.flags == _two_query_flags(br, contact, thresholds)


def test_flags_across_a_cut_of_two_orders_flip_both():
    # f' = -4/3 = -N*delta and f''/2 = -5/54 = -N*delta^2 both hold at
    # (20, 15) on x^2 + y^2 = 625: one exact slot holds a crossing of order
    # 1 and one of order 2, and 20 is its own one-point run, where both
    # orders meet the closed bound and read small
    br = branch_from_point(parse("x^2 + y^2 - 625"), 20, 15, (0, 24))
    n_box, delta = Fraction(96, 5), Fraction(5, 72)
    part = partition_by_bounds(br, 3, n_box, delta)
    assert _pieces(part) == [
        (0, 19, ("small", "small")),
        (20, 20, ("small", "small")),
        (21, 24, ("large", "large")),
    ]
    thresholds = [n_box * delta**i for i in (1, 2)]
    assert all(p.flags == _two_query_flags(br, p, thresholds) for p in part.pieces)


def test_partition_keeps_pieces_apart_across_a_zero_length_gap():
    """On the branch of 6*x^2*y - 3*x^2 - 6*x*y + 3*y^2 - 5 at N = 15 whose
    integer hull is [1, 15], with D =
    3 and delta = 1/15, f''/2 crosses -1/15 and then 1/15 in the unit gap
    (1, 2) of its integer hull [1, 15], across touching brackets: between
    the two crossings, a stretch with no integer, order 2 reads small,
    while the runs [1, 1] and [2, 3] on either side read it large.  The gap
    slot keeps the runs apart: one large piece over both would hold a
    stretch where |f''/2| < 1/15."""
    hulls = map(integer_hull, graph_decompose(parse("6*x^2*y - 3*x^2 - 6*x*y + 3*y^2 - 5"), 15).branches)
    [br] = [h for h in hulls if h is not None and h.domain == (1, 15)]
    part = partition_by_bounds(br, 3, 15, Fraction(1, 15))
    assert _partition_rows(part) == [
        (1, 1, ("small", "large")),
        (2, 3, ("small", "large")),
        (4, 15, ("small", "small")),
    ]
    gap = Piece(Fraction(12165, 8192), Fraction(12165, 8192), ())
    assert _two_query_flags(br, gap, [Fraction(1), Fraction(1, 15)]) == ("small", "small")


def _product_signs(br, x, thresholds):
    """The sign of one query per order on the product of the reduced +-thr
    level curves' columns at x, which is < 0 exactly where |f^(i)/i!| <
    thr; 0 for an order whose level curve vanishes on the curve."""
    bracket = branch_value_bracket(br, x)
    signs = []
    for i, thr in enumerate(thresholds, start=1):
        try:
            plus = branch_module._level_curve(br.curve, i, *thr.as_integer_ratio()).int_column(x)
            minus = branch_module._level_curve(br.curve, i, *(-thr).as_integer_ratio()).int_column(x)
        except DegenerateLevelSetError:
            signs.append(0)
            continue
        signs.append(sign_at_root(bracket, _int_mul(plus, minus)))
    return signs


def _product_query_flags(br, piece, thresholds):
    """The flags of a piece from `_product_signs` at its midpoint, which
    lies on no level set unless the piece is one point, where a zero meets
    the closed bound and reads small."""
    signs = _product_signs(br, Fraction(piece.lo + piece.hi, 2), thresholds)
    assert piece.lo == piece.hi or 0 not in signs
    return tuple("small" if s <= 0 else "large" for s in signs)


def _pipeline_partitions(text, n_box):
    """(branch, thresholds, partition) for the integer hull of each branch
    of the curve, with the D and delta that `determinant_method_count`
    uses."""
    curve = parse(text)
    d = curve.degree
    ell = default_ell(d, n_box)
    delta = default_delta(d, ell, n_box)
    for br in graph_decompose(curve, n_box).branches:
        br = integer_hull(br)
        if br is None:
            continue
        big_d = punctured_set(d, ell, corner_index(br.curve)).D
        thresholds = [n_box * delta**i for i in range(1, big_d)]
        yield br, thresholds, partition_by_bounds(br, big_d, n_box, delta)


def test_certificate_strength_on_latbench_rounds():
    """Certificate-strength guard: on eight seed-1 rounds, at the pipeline's
    D and delta, `certified_orders` proves 559 of the 584 orders of the 53
    `partition` branches and all 600 of the 40 `columns` branches, both on
    their decomposed domains and on the integer hulls that the pipeline
    partitions: the domains are integer runs, and none of these is [0, 0].
    A domain end can sit within one unit of a branch point, where a disc of
    radius 1 is refused, so some orders next to one are left to the level
    sets."""
    workloads = latbench_workloads()
    for name, want_domain, want_hull in (
        ("partition", (53, 559, 584), (53, 559, 584)),
        ("columns", (40, 600, 600), (40, 600, 600)),
    ):
        counts = {"domain": [0, 0, 0], "hull": [0, 0, 0]}
        for row in workloads[name].rounds(1, 8):
            for case in row:
                curve = parse(case.text)
                d, n_box = curve.degree, case.n_box
                ell = default_ell(d, n_box)
                delta = default_delta(d, ell, n_box)
                for dom_br in graph_decompose(curve, n_box).branches:
                    big_d = punctured_set(d, ell, corner_index(dom_br.curve)).D
                    for key, br in (("domain", dom_br), ("hull", integer_hull(dom_br))):
                        if br is not None:
                            count = counts[key]
                            count[0] += 1
                            count[1] += len(certified_orders(br, big_d, Fraction(n_box), delta))
                            count[2] += big_d - 1
        assert tuple(counts["domain"]) == want_domain, name
        assert tuple(counts["hull"]) == want_hull, name


def test_certificate_proves_every_order_next_to_a_branch_point(monkeypatch):
    """At the pipeline's D and delta, the discs prove every order of every
    integer hull of y^2 - x^3 + 8*x - 8 at N = 25 but one, the swapped
    one-point hull [3, 3] among them, whose discs start at radius 1 and are
    centred on the mean of the column's roots.  The exception is the
    swapped one-point hull [4, 4], one unit from a branch point, where they
    prove order 1 only (by the slope bound); orders 2 to 8 go to the level
    sets.  The certificate reads neither a branch value nor a column."""
    curve, n_box = parse("y^2 - x^3 + 8*x - 8"), 25
    ell = default_ell(curve.degree, n_box)
    delta = default_delta(curve.degree, ell, n_box)
    hulls = [integer_hull(br) for br in graph_decompose(curve, n_box).branches]
    hulls = [br for br in hulls if br is not None]
    assert any(br.swapped and br.domain == (3, 3) for br in hulls)
    monkeypatch.setattr(branch_module, "branch_value_bracket", _not_called)
    monkeypatch.setattr(BiPoly, "int_column", _not_called)
    for br in hulls:
        big_d = punctured_set(curve.degree, ell, corner_index(br.curve)).D
        want = {1} if br.swapped and br.domain == (4, 4) else set(range(1, big_d))
        assert certified_orders(br, big_d, Fraction(n_box), delta) == want, br


def _fuzz_script():
    """scripts/fuzz.py, read from its file."""
    path = Path(__file__).resolve().parent.parent / "scripts" / "fuzz.py"
    spec = importlib.util.spec_from_file_location("fuzz_script", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _pipeline_hulls(cases):
    """(integer hull, N, D, pipeline delta) for each branch of each curve,
    as `determinant_method_count` partitions it; a curve that ingestion or
    the decomposition rejects is skipped."""
    out = []
    for text, n_box in cases:
        try:
            curve = ingestion_check(parse(text))
            if curve.degree < 2:
                continue
            branches = graph_decompose(curve, n_box).branches
        except (BranchError, IngestionError):
            continue
        ell = default_ell(curve.degree, n_box)
        delta = default_delta(curve.degree, ell, n_box)
        for br in filter(None, map(integer_hull, branches)):
            out.append((br, n_box, punctured_set(curve.degree, ell, corner_index(br.curve)).D, delta))
    return out


def test_certified_orders_match_the_fraction_reference(monkeypatch):
    """Differential: `certified_orders`, which keeps every disc position as
    an integer count of one unit and each Fujiwara threshold as an integer
    pair, proves the same orders as `fraction_certified_orders`, its former
    `Fraction` version, through the same sequence of `affine_image` calls
    (the same discs, each with the same integers a, r and d, and the same
    centres y0) and of Fujiwara tests (the same bounds and thresholds
    N*q^i/2).  Every input runs at delta in {the pipeline's, 1/4, 3/7, 1}
    and D in {3, 6, 10}: the integer hulls of eight seed-1 rounds of
    latbench `partition` and `columns`, of 150 curves from
    `scripts/fuzz.py`'s `draw` (seed 49) and of three curves whose hulls
    end next to a branch point, and branches whose domain ends are not
    dyadic, so that the unit is not a power of two.  That is 210 branches,
    on which the discs prove 4264 orders above 1 over the twelve settings.
    """
    rng = random.Random(49)
    workloads = latbench_workloads()
    texts = [(c.text, c.n_box) for name in ("partition", "columns") for row in workloads[name].rounds(1, 8) for c in row]
    draw = _fuzz_script().draw
    texts += [(curve.pretty(), n_box) for curve, n_box in (draw(rng) for _ in range(150))]
    texts += [("y^2 - x^3 + 8*x - 8", 25), ("y^2 - x^3 - 3*x - 2", 25), ("x^2 - 101*y^2 - 1", 60)]
    cases = [(br, n_box, delta) for br, n_box, _, delta in _pipeline_hulls(texts)]
    for text, seed, domain in (
        ("x^2 + y^2 - 25", (3, 4), (Fraction(1, 3), Fraction(7, 2))),
        ("x^2 + y^2 - 25", (3, 4), (Fraction(1, 3), Fraction(49, 10))),
        ("x^2 + y^2 - 25", (4, 3), (Fraction(7, 3), Fraction(99, 20))),
        ("x^2 + y^2 - 25", (0, 5), (Fraction(-24, 5), Fraction(24, 5))),
        ("x*y - 12", (3, 4), (Fraction(2, 3), Fraction(53, 5))),
        ("y^2 - x^3 - 1", (2, 3), (Fraction(-9, 10), Fraction(17, 6))),
        ("y - x^2", (0, 0), (Fraction(-5, 7), Fraction(1, 3))),
    ):
        br = branch_from_point(parse(text), *seed, domain)
        cases += [(br, n_box, Fraction(1)) for n_box in (2, 5, 20)]
    calls = []

    def recorded(*args):
        calls.append(args)
        return unipoly_module.affine_image(*args)

    def fujiwara(bound, low, num, den):
        calls.append((bound, low, Fraction(num, den)))
        return fujiwara_below(bound, low, num, den)

    def fraction_fujiwara(bound, low, half):
        calls.append((bound, low, half))
        return fraction_fujiwara_below(bound, low, half)

    fujiwara_below, fraction_fujiwara_below = branch_module._fujiwara_below, reference_helpers.fraction_fujiwara_below
    monkeypatch.setattr(branch_module, "affine_image", recorded)
    monkeypatch.setattr(reference_helpers, "affine_image", recorded)
    monkeypatch.setattr(branch_module, "_fujiwara_below", fujiwara)
    monkeypatch.setattr(reference_helpers, "fraction_fujiwara_below", fraction_fujiwara)
    proved = 0
    for br, n_box, pipeline_delta in cases:
        for delta in {pipeline_delta, Fraction(1, 4), Fraction(3, 7), Fraction(1)}:
            for big_d in (3, 6, 10):
                got = certified_orders(br, big_d, Fraction(n_box), delta)
                got_calls = calls[:]
                calls.clear()
                want = reference_helpers.fraction_certified_orders(br, big_d, Fraction(n_box), delta)
                assert got == want and got_calls == calls, (br, n_box, delta, big_d)
                calls.clear()
                proved += len(got - {1})
    assert len(cases) >= 200 and proved >= 4000, (len(cases), proved)


def test_certified_orders_make_no_fraction_arithmetic():
    """Guard: on the integer hulls of two seed-1 rounds of latbench
    `partition` and `columns`, at the pipeline's D and delta, a
    `certified_orders` call (after a first one has cached the curve's
    discriminant) makes at most 16 Python-level calls into the `fractions`
    module: reading the numerators and denominators of its domain ends, N
    and delta.  Its positions are integer counts of one unit and its
    thresholds integer pairs; the `Fraction` reference makes over 100 calls
    on every one of these hulls."""
    workloads = latbench_workloads()
    texts = [(c.text, c.n_box) for name in ("partition", "columns") for row in workloads[name].rounds(1, 2) for c in row]

    def fraction_calls(fn, *args):
        calls = 0

        def profile(frame, event, arg):
            nonlocal calls
            calls += event == "call" and frame.f_code.co_filename == fractions.__file__

        fn(*args)
        sys.setprofile(profile)
        try:
            fn(*args)
        finally:
            sys.setprofile(None)
        return calls

    hulls = _pipeline_hulls(texts)
    assert len(hulls) >= 20
    for br, n_box, big_d, delta in hulls:
        args = (br, big_d, Fraction(n_box), delta)
        assert fraction_calls(certified_orders, *args) <= 16, br
        assert fraction_calls(reference_helpers.fraction_certified_orders, *args) > 100, br


def test_fujiwara_threshold_by_hand():
    """`_fujiwara_below(bound, low, num, den)` tests M < 2*num/den for the
    Fujiwara bound M = 2 max(|c_(n-k)/c_n|^(1/k), |c_0/(2 c_n)|^(1/n)), here
    with |c_m| <= bound[m] and |c_n| >= low.

    - bound [2, 3], low 1: the k = 1 term needs num/den > 3 and the c_0
      term only num/den > 1, so 3 fails (equality) and 7/2 holds.
    - bound [50, 1], low 1: the k = 1 term needs num/den > 1 but the c_0
      term decides, 2*(num/den)^2 > 50: 2 and 5 (equality) fail, 6 holds.
    - bound [0, 9, 0], low 1: the k = 2 term needs (num/den)^2 > 9.
    - bound [6], low 2 (degree 1, M = |c_0/c_1|): num/den > 3/2.
    Scaling (num, den) by a common factor leaves every answer unchanged."""
    fujiwara = branch_module._fujiwara_below
    cases = [
        ([2, 3], 1, [(3, 1, False), (7, 2, True), (5, 4, False)]),
        ([50, 1], 1, [(2, 1, False), (5, 1, False), (6, 1, True), (49, 10, False), (51, 10, True)]),
        ([0, 9, 0], 1, [(3, 1, False), (301, 100, True)]),
        ([6], 2, [(3, 2, False), (16, 10, True)]),
    ]
    for bound, low, rows in cases:
        for num, den, want in rows:
            for scale in (1, 2, 7, 2**40):
                assert fujiwara(bound, low, num * scale, den * scale) == want, (bound, low, num, den, scale)


def test_pipeline_reads_columns_at_integer_abscissas_only(monkeypatch):
    """Every `int_column` abscissa of the counts of two seed-1 `partition`
    rounds and of y^2 - x^3 + 8*x - 8 at N = 25, oracle off, is an integer:
    the disc certificate, whose centres are dyadic, reads no column, and
    every other reader sits on an integer run."""
    abscissas = []
    original = BiPoly.int_column

    def recorded(self, x0):
        abscissas.append(x0)
        return original(self, x0)

    monkeypatch.setattr(BiPoly, "int_column", recorded)
    cases = [(c.text, c.n_box) for row in latbench_workloads()["partition"].rounds(1, 2) for c in row]
    for text, n_box in cases + [("y^2 - x^3 + 8*x - 8", 25)]:
        determinant_method_count(parse(text), n_box, compare_oracle=False)
    assert len(abscissas) > 100
    assert [x0 for x0 in abscissas if Fraction(x0).denominator != 1] == []


def test_piece_flags_match_product_queries_at_pipeline_size():
    """At the pipeline's D and delta, on the integer hulls of the curves
    whose hulls keep cuts there (the disc certificate proves every order of
    most hulls), every piece's flags equal a product query at its
    midpoint."""
    carried = 0
    for text, n_box in (
        ("193667*(y - 0)*(y - 1)*(y - 27) - 32*(x - 0)*(x - 1)*(x - 27)", 75),
        ("-2*x^3 - 3*x^2*y + 5", 34),
        ("-4*x^3 - 5*x^2*y + x*y^2 + 6*y", 32),
        ("3*x^2*y + 4*y^3 - 5*y^2 - 2*x", 22),
    ):
        for br, thresholds, part in _pipeline_partitions(text, n_box):
            assert len(thresholds) >= 8
            for piece in part.pieces:
                assert piece.flags == _product_query_flags(br, piece, thresholds), (text, piece)
            carried += (len(part.pieces) - 1) * len(thresholds)
    # 69: 42 + 11 + 8 + 8 from the four curves, so each one counts
    assert carried >= 69


def test_pipeline_partitions_one_hull_piece_on_a_pure_flip_branch(monkeypatch):
    """From empty caches, the count of x - 24*y^4 at N = 100 partitions its
    only branch, the integer run [1, 100], as one piece; the steep part of
    the curve lies over 0 < y < 1, where the transposed frame has no integer
    run, so it has no branch.  The
    disc certificate proves all 15 orders of the hull, so no level set is
    built and no product-column query is made."""
    levels = (branch_module._level_resultant, branch_module._level_curve, branch_module._reduced_level_parts)
    for cached in levels + (hk_sequence,):
        cached.cache_clear()
    calls = []
    original = branch_module._int_mul

    def counted(a, b):
        calls.append((a, b))
        return original(a, b)

    parts = []
    partition = counting_module.partition_by_bounds

    def recorded(br, big_d, n_box, delta):
        part = partition(br, big_d, n_box, delta)
        parts.append((br, big_d, part))
        return part

    monkeypatch.setattr(branch_module, "_int_mul", counted)
    monkeypatch.setattr(counting_module, "partition_by_bounds", recorded)
    branches = graph_decompose(parse("x - 24*y^4"), 100).branches
    assert [(br.domain, br.swapped) for br in branches] == [((1, 100), False)]
    report = determinant_method_count(parse("x - 24*y^4"), 100)
    assert report.ok and report.total == report.oracle_total
    [(br, big_d, part)] = parts
    assert not br.swapped and br.domain == (1, 100) and big_d == 16
    assert [(p.lo, p.hi) for p in part.pieces] == [(1, 100)]
    assert part.certified == set(range(1, big_d)) and calls == []
    assert [b.descriptor["domain"] for b in report.per_branch] == [["1", "100"]]


def test_partition_reads_a_one_point_hull_on_a_level_set_as_small():
    """A one-point domain [k, k] is partitioned like any other: on the circle
    x^2 + y^2 = 25 at (3, 4), f''/2 = -25/(2 y^3) = -25/128 = -N*delta^2 for
    N = 128/25 and delta = 25/128, so the midpoint 3 lies on the order-2
    level set.  The closed bound |f''(3)/2| <= N*delta^2 holds, so order 2
    reads small, as does order 1 (|f'(3)| = 3/4 < 1)."""
    br = branch_from_point(parse("x^2 + y^2 - 25"), 3, 4, (3, 3))
    part = partition_by_bounds(br, 3, Fraction(128, 25), Fraction(25, 128))
    assert [(p.lo, p.hi, p.flags) for p in part.pieces] == [(3, 3, ("small", "small"))]


def test_large_interval_check():
    mk = lambda length: Piece(0, length, ("large",))
    assert large_interval_check(mk(4), Fraction(1, 2))
    assert not large_interval_check(mk(5), Fraction(1, 2))
    assert large_interval_check(mk(40), Fraction(1, 20))
    assert not large_interval_check(mk(41), Fraction(1, 20))
    for delta in (0, Fraction(-1, 2)):
        with pytest.raises(ValueError, match="delta must be positive"):
            large_interval_check(mk(4), delta)


# -- graph decomposition ------------------------------------------------------------------


def test_decompose_circle():
    dec = graph_decompose(parse("x^2 + y^2 - 25"), 5)
    assert len(dec.branches) == 2
    orientations = {b.swapped for b in dec.branches}
    assert orientations == {False, True}
    assert LatticePoint(0, 5) in dec.direct_points
    assert LatticePoint(5, 0) in dec.direct_points
    covered = set(dec.direct_points)
    for br in dec.branches:
        lo, hi = br.domain
        import math

        for k in range(math.ceil(lo), math.floor(hi) + 1):
            hit = branch_integer_point(br, k)
            if hit is not None:
                covered.add(LatticePoint(hit.y, hit.x) if br.swapped else hit)
    assert LatticePoint(3, 4) in covered and LatticePoint(4, 3) in covered


def test_decompose_parabola_orientations():
    """The steep part of a parabola is covered in the transposed frame and
    the flat part directly.  y = x^2/10 is flat for x < 5, the slope +-1
    locus, and steep beyond it.  y = x^2 is flat only for |x| < 1/2, where
    its one integer column, x = 0, is critical (f'(0) = 0): no non-critical
    column has |f'| < 1, so only the transposed frame keeps a branch, and
    the point (0, 0) is enumerated directly."""
    dec = graph_decompose(parse("10*y - x^2"), 10)
    assert [(b.domain, b.swapped) for b in dec.branches] == [((1, 4), False), ((3, 9), True)]
    dec = graph_decompose(parse("y - x^2"), 10)
    assert [(b.domain, b.swapped) for b in dec.branches] == [((1, 10), True)]
    assert LatticePoint(0, 0) in dec.direct_points


def test_decompose_line_boundary_slope():
    dec = graph_decompose(parse("x - y"), 10)
    assert len(dec.branches) == 1
    assert not dec.branches[0].swapped


def test_decompose_covers_brute_force():
    for text, n in (("x^2 + y^2 - 25", 5), ("x*y - 12", 12), ("x - y^2", 30), ("x^2 - 2*y^2 - 1", 20)):
        curve = parse(text)
        dec = graph_decompose(curve, n)
        covered = set(dec.direct_points)
        import math

        for br in dec.branches:
            lo, hi = br.domain
            for k in range(math.ceil(lo), math.floor(hi) + 1):
                hit = branch_integer_point(br, k)
                if hit is not None:
                    p = LatticePoint(hit.y, hit.x) if br.swapped else hit
                    covered.add(p)
        _, expected = brute_force_count(curve, n)
        missing = set(expected) - covered
        assert not missing


def test_decompose_domains_are_integer_runs_free_of_critical_roots():
    """Seeded, on random curves of the fuzz's shape (degree 2 or 3, two to
    five terms, coefficients |c| <= 6, N in 5..40): every branch from
    `graph_decompose` has int domain ends; its closed domain holds no
    real root of any frame cut or edge column of its frame, by
    `count_real_roots`, which reads no slot; and the branch points at its
    integer abscissas together with the direct points cover every point of
    the oracle.  Enough domains end next to an exact critical column that a
    decomposition reading such a column as a unit gap, and so putting it
    inside the next domain, fails here."""
    rng = random.Random(37)
    coeffs = [c for c in range(-6, 7) if c]
    branches = beside_exact = 0
    for _ in range(300):
        deg = rng.choice([2, 3])
        j1 = rng.randint(0, deg)
        terms = {(j1, deg - j1): rng.choice(coeffs)}
        for _ in range(rng.randint(1, 4)):
            j1 = rng.randint(0, deg)
            terms[(j1, rng.randint(0, deg - j1))] = rng.choice(coeffs)
        curve, n_box = BiPoly(terms), rng.randint(5, 40)
        try:
            dec = graph_decompose(curve, n_box)
            oracle = brute_force_count(curve, n_box)[1]
        except (BranchError, IngestionError, LineFactorError):
            continue
        covered = set(dec.direct_points)
        for br in dec.branches:
            lo, hi = br.domain
            assert type(lo) is type(hi) is int and 0 <= lo <= hi <= n_box, (curve.pretty(), br)
            across = br.curve.swap_xy()
            loci = list(branch_module._frame_loci(br.curve).cuts) + [across.int_column(e) for e in (0, n_box)]
            loci = [p for p in loci if len(p) >= 2]
            for p in loci:
                assert count_real_roots(p, lo, hi) == 0, (curve.pretty(), n_box, br, p)
            beside_exact += any(UniPoly(p).evaluate(k) == 0 for p in loci for k in (lo - 1, hi + 1))
            branches += 1
            for k in range(int(lo), int(hi) + 1):
                hit = branch_integer_point(br, k)
                if hit is not None:
                    covered.add(LatticePoint(hit.y, hit.x) if br.swapped else hit)
        assert set(oracle) <= covered, (curve.pretty(), n_box)
    assert branches >= 150 and beside_exact >= 90, (branches, beside_exact)


def _reference_sample_branches(curve, sample, n_box):
    """The branches of one cell, as (root_index, root_count, flat) of the
    roots of the sample column that a bracket refined clear of 0 and N
    (`refine_clear_of`) puts in [0, N], less those that the slope balance
    F_x^2 - F_y^2 hands to the transposed frame."""
    roots = all_real_roots(curve.int_column(sample))
    flat = not branch_module._frame_loci(curve).slope_degenerate
    fx, fy = partial(curve, "x"), partial(curve, "y")
    balance = (fx * fx - fy * fy).int_column(sample)
    kept = []
    for j, r in enumerate(roots):
        r = refine_clear_of(r, Fraction(0), Fraction(n_box))
        if not 0 <= r.lo <= r.hi <= n_box:
            continue
        if flat and sign_at_root(r, balance) > 0:
            continue
        kept.append((j, len(roots), flat))
    return kept


def test_decompose_range_test_matches_refine_clear_of(monkeypatch):
    """Each cell is read at its first column: one isolation over [0, N]
    gives the roots there, and the integer slot walk their ranks.  On
    circles of radius above N, whose sample roots lie below 0, inside
    [0, N] and above N, and on curves with negative sample roots, it keeps
    the branches that brackets of `all_real_roots` refined clear of 0 and N
    keep, at every non-critical column the decomposition reads, and the
    branches and direct points still cover every point of the oracle."""
    cases = [
        ("x^2 + y^2 - 2600", 50),  # radius 50.99...
        ("x^2 + y^2 - 3025", 50),  # radius 55
        ("x^2 + y^2 - 8450", 80),  # radius 91.9...
        ("x^2 + 2*y^2 - 5003", 60),
        ("y^2 + 3*x*y - x^2 - 7", 40),
        ("x*y + 5*y - x^2 - 3", 30),
        ("y^3 + 4*x*y^2 - x^2 - 11", 25),
    ]
    sides = {"below": 0, "inside": 0, "above": 0}
    for text, n_box in cases:
        curve = parse(text)
        samples = []  # (frame curve, column) of every column read
        column = branch_module._column

        def recording_column(frame, x0):
            samples.append((frame, x0))
            return column(frame, x0)

        with monkeypatch.context() as m:
            m.setattr(branch_module, "_column", recording_column)
            dec = graph_decompose(curve, n_box)
        want = set()
        for frame, sample in samples:
            across = frame.swap_xy()
            loci = list(branch_module._frame_loci(frame).cuts) + [across.int_column(e) for e in (0, n_box)]
            if any(UniPoly(p).evaluate(sample) == 0 for p in loci if len(p) >= 2):
                continue  # a critical column, enumerated directly
            want |= {(frame, sample, *k) for k in _reference_sample_branches(frame, sample, n_box)}
            for r in all_real_roots(frame.int_column(sample)):
                r = refine_clear_of(r, Fraction(0), Fraction(n_box))
                sides["below" if r.hi < 0 else "above" if r.lo > n_box else "inside"] += 1
        got = {(b.curve, b.domain[0], b.root_index, b.root_count, b.flat) for b in dec.branches}
        assert got == want, text
        covered = set(dec.direct_points)
        for br in dec.branches:
            for k in range(ceil(br.domain[0]), floor(br.domain[1]) + 1):
                hit = branch_integer_point(br, k)
                if hit is not None:
                    covered.add(LatticePoint(hit.y, hit.x) if br.swapped else hit)
        assert set(brute_force_count(curve, n_box)[1]) <= covered, text
    assert min(sides.values()) > 0, sides
