"""Bivariate polynomial arithmetic, parsing, resultants, divisibility."""

import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, strategies as st

from latcurve.exactlinalg import bareiss_determinant
from latcurve.poly2 import (
    BiPoly,
    IngestionError,
    PolyParseError,
    ResultantDomainError,
    corner_index,
    discriminant,
    divides,
    eliminant,
    ingestion_check,
    parse,
    partial,
    resultant_eliminating_y,
)
from latcurve import poly2
from latcurve.unipoly import _int_mul, primitive_ints

from fraction_bipoly import FractionBiPoly, evaluate_bipoly, term_reduction
from fraction_unipoly import UniPoly
from reference_helpers import branch_from_point, divide_lc_power, reduce_modulo, taylor_coefficients


def rand_bipoly(rng, max_deg=3, max_terms=5, span=5):
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        j1, j2 = rng.randint(0, max_deg), rng.randint(0, max_deg)
        terms[(j1, j2)] = Fraction(rng.randint(-span, span))
    return BiPoly(terms)


# -- parsing ------------------------------------------------------------------


def test_parse_examples():
    p = parse("y^2 - x^3 - 2*x - 3")
    assert p.degree == 3 and len(p.terms) == 4
    assert parse("x*y - 12").terms == {(1, 1): 1, (0, 0): -12}
    assert parse("(1/2)*x^2").terms == {(2, 0): Fraction(1, 2)}


def test_parse_parenthesized_expressions():
    assert parse("(x + y)^2") == parse("x^2 + 2*x*y + y^2")
    assert parse("(x - 1)*(x + 1)") == parse("x^2 - 1")
    assert parse("-x + 3") == parse("3 - x")
    assert parse("(-1/2)*y") .terms == {(0, 1): Fraction(-1, 2)}


def test_parse_errors_carry_position():
    with pytest.raises(PolyParseError) as exc:
        parse("x + z")
    assert exc.value.position == 4
    with pytest.raises(PolyParseError):
        parse("x +")
    with pytest.raises(PolyParseError):
        parse("x ^ y")
    with pytest.raises(PolyParseError):
        parse("2 x")


@given(st.integers(0, 4), st.integers(0, 4), st.integers(-20, 20), st.integers(1, 9))
def test_parse_print_roundtrip_single_terms(j1, j2, num, den):
    p = BiPoly({(j1, j2): Fraction(num, den)})
    assert parse(p.pretty()) == p


def test_parse_print_roundtrip_random():
    rng = random.Random(17)
    for _ in range(150):
        p = rand_bipoly(rng)
        assert parse(p.pretty()) == p


def term_lists(max_deg=3, span=6):
    term = st.tuples(
        st.tuples(st.integers(0, max_deg), st.integers(0, max_deg)),
        st.fractions(min_value=-span, max_value=span, max_denominator=4),
    )
    return st.lists(term, min_size=0, max_size=5)


def bipoly_strategy(max_deg=3, span=6):
    return term_lists(max_deg, span).map(BiPoly)


@given(bipoly_strategy(), bipoly_strategy(), bipoly_strategy())
def test_ring_axioms(p, q, r):
    assert p + q == q + p
    assert p * q == q * p
    assert (p + q) * r == p * r + q * r
    assert p + (-p) == BiPoly({})


@given(bipoly_strategy(), st.integers(-4, 4), st.integers(-4, 4))
def test_evaluate_is_ring_morphism(p, x, y):
    q = p * p + p
    assert evaluate_bipoly(q, x, y) == evaluate_bipoly(p, x, y) ** 2 + evaluate_bipoly(p, x, y)


def assert_canonical(p):
    """`content` > 0, an `int` when it is integral and a `Fraction` only
    otherwise, and primitive integer rows, each row and the row tuple ending
    in a nonzero entry: the one stored form."""
    assert type(p.content) is (int if p.content.denominator == 1 else Fraction) and p.content > 0
    assert type(p.rows) is tuple and all(type(r) is tuple for r in p.rows)
    assert all(type(c) is int for r in p.rows for c in r)
    assert all(r[-1] for r in p.rows if r) and (not p.rows or p.rows[-1])
    assert gcd(*(c for r in p.rows for c in r)) == (1 if p.rows else 0)


@given(
    term_lists(), term_lists(), st.fractions(min_value=-5, max_value=5, max_denominator=6),
    st.integers(0, 3), st.integers(-4, 4), st.fractions(min_value=-4, max_value=4, max_denominator=5),
)
def test_operators_match_fraction_dict_reference(ta, tb, k, n, x, y):
    """Every `BiPoly` operator on the rows against the `Fraction` term-dict
    arithmetic of `FractionBiPoly`, terms compared exactly."""
    p, q = BiPoly(ta), BiPoly(tb)
    rp, rq = FractionBiPoly(ta), FractionBiPoly(tb)
    assert p.terms == rp.terms and q.terms == rq.terms
    pairs = [
        (p + q, rp + rq), (p - q, rp - rq), (p * q, rp * rq), (-p, -rp),
        (p * k, rp * k), (k * p, rp * k), (p**n, rp**n),
        (partial(p, "x"), rp.partial("x")), (partial(p, "y"), rp.partial("y")),
        (p.swap_xy(), rp.swap_xy()), (p.primitive_integer(), rp.primitive_integer()),
    ]
    for got, want in pairs:
        assert_canonical(got)
        assert got.terms == want.terms
        assert got == BiPoly(want.terms) and hash(got) == hash(BiPoly(want.terms))
    assert evaluate_bipoly(p, x, y) == rp.evaluate(x, y)
    assert type(evaluate_bipoly(p, x, y)) is Fraction
    assert p.is_zero() == (not rp.terms) and bool(p) == bool(rp.terms)
    assert p.degree == max((j1 + j2 for j1, j2 in rp.terms), default=-1)
    assert p.degree_x() == max((j1 for j1, _ in rp.terms), default=-1)
    assert p.degree_y() == max((j2 for _, j2 in rp.terms), default=-1)
    assert (p.content.denominator == 1) == all(c.denominator == 1 for c in rp.terms.values())
    if rp.terms:
        assert p.leading_term() == rp.leading_term()


# -- evaluation, derivatives ------------------------------------------------------


@pytest.mark.parametrize(
    "text,x,y,val",
    [
        ("x^2 + y^2 - 25", 3, 4, 0),
        ("y^2 - x^3", 1, 2, 3),
        ("x*y - 12", 3, 4, 0),
    ],
)
def test_evaluate_examples(text, x, y, val):
    assert evaluate_bipoly(parse(text), x, y) == val


def test_partial_examples():
    assert partial(parse("y^2 - x^3"), "y") == parse("2*y")
    assert partial(parse("y^2 - x^3"), "x") == parse("-3*x^2")
    assert partial(BiPoly.constant(7), "x").is_zero()


def test_partials_commute_random():
    rng = random.Random(23)
    for _ in range(100):
        p = rand_bipoly(rng, max_deg=4)
        assert partial(partial(p, "x"), "y") == partial(partial(p, "y"), "x")


# -- resultants ----------------------------------------------------------------------


def test_resultant_examples():
    c = parse("x^2 + y^2 - 25")
    assert resultant_eliminating_y(c, parse("y - 3")) == UniPoly([-16, 0, 1])
    r = UniPoly(resultant_eliminating_y(c, parse("x - y")).coeffs)
    # 2x^2 - 25 up to a nonzero constant factor
    expected = UniPoly([-25, 0, 2])
    ratio = r.leading / expected.leading
    assert r == expected * ratio and ratio != 0
    assert resultant_eliminating_y(parse("y - x^2"), parse("y - x^2")).is_zero()


def test_eliminant_is_the_primitive_resultant():
    """`eliminant` is Res_y as a primitive integer tuple with its signs, ()
    when it vanishes; `discriminant` is the eliminant of f and f_y, built
    once per curve."""
    c = parse("(1/3)*x^2 + (1/3)*y^2 - (25/3)")
    assert eliminant(c, parse("y - 3")) == (-16, 0, 1)
    assert eliminant(c, parse("2*x - 2*y")) == (-25, 0, 2)
    assert eliminant(parse("y - x^2"), parse("2*y - 2*x^2")) == ()
    discriminant.cache_clear()
    assert discriminant(c) == tuple(primitive_ints(resultant_eliminating_y(c, parse("y")).coeffs)) == (-25, 0, 1)
    assert discriminant(c) is discriminant(c) and discriminant.cache_info().misses == 1
    assert discriminant(parse("(y - x)^2 - x^3")) == (0, 0, 0, -1)  # 4 * f(x, x)
    with pytest.raises(ResultantDomainError):
        discriminant(parse("x*y - 12"))


def test_resultant_requires_positive_y_degree():
    with pytest.raises(ResultantDomainError):
        resultant_eliminating_y(parse("x^2 - 1"), parse("y - 1"))
    with pytest.raises(ResultantDomainError):
        resultant_eliminating_y(parse("y - 1"), parse("x^2 - 1"))


def _y_coefficients(p):
    """The coefficient of each power of y, a `UniPoly` in x, from the terms."""
    rows = [[Fraction(0)] * (p.degree_x() + 1) for _ in range(p.degree_y() + 1)]
    for (j1, j2), c in p.terms.items():
        rows[j2][j1] = c
    return [UniPoly(r) for r in rows]


def _sylvester_oracle(p, q):
    """Sylvester determinant assembled directly and expanded by Bareiss."""
    fc, gc = _y_coefficients(p), _y_coefficients(q)
    m, n = len(fc) - 1, len(gc) - 1
    size = m + n
    zero = UniPoly([])
    rows = []
    for i in range(n):
        row = [zero] * size
        for k, c in enumerate(reversed(fc)):
            row[i + k] = c
        rows.append(row)
    for i in range(m):
        row = [zero] * size
        for k, c in enumerate(reversed(gc)):
            row[i + k] = c
        rows.append(row)
    return bareiss_determinant(rows, lambda a, b: a // b)


def test_resultant_euclidean_path_matches_sylvester():
    """The integer pseudo-remainder descent must reproduce the Sylvester
    determinant exactly, signs included: rational coefficients with non-unit
    content, negative leading coefficients, y-degree sums m + n on both
    sides of 14, and pairs with a common factor, whose resultant is zero."""
    rng = random.Random(5150)

    def rand_with_ydeg(dy):
        scale = Fraction(rng.choice([-6, -1, 1, 4, 10]), rng.choice([1, 3, 7]))
        terms = {}
        for _ in range(rng.randint(2, 5)):
            terms[(rng.randint(0, 3), rng.randint(0, dy - 1))] = scale * Fraction(rng.randint(-4, 4), rng.randint(1, 3))
        terms[(rng.randint(0, 2), dy)] = scale * rng.choice([-3, -2, -1, 1, 2, 3])
        return BiPoly(terms)

    sums = set()
    negative_leads = 0
    for _ in range(100):
        dy1, dy2 = rng.randint(1, 5), rng.randint(1, 11)
        sums.add(dy1 + dy2)
        p, q = rand_with_ydeg(dy1), rand_with_ydeg(dy2)
        if rng.random() < 0.5:
            p, q = q, p
        negative_leads += p.rows[-1][-1] < 0
        assert resultant_eliminating_y(p, q) == _sylvester_oracle(p, q)
    assert min(sums) <= 14 < max(sums) and negative_leads > 15
    for _ in range(30):
        h = rand_with_ydeg(rng.randint(1, 2))
        p, q = rand_with_ydeg(rng.randint(1, 3)) * h, rand_with_ydeg(rng.randint(1, 4)) * h
        assert resultant_eliminating_y(p, q).is_zero()
        assert _sylvester_oracle(p, q).is_zero()


def _unwindowed_pseudo_remainder(fc, gc):
    """The pseudo-remainder loop that rescales every row below the top at
    every step: lc(g)^(deg f - deg g + 1) * f mod g."""
    n = len(gc) - 1
    lead = gc[-1]
    r = list(fc)
    for i in range(len(fc) - 1, n - 1, -1):
        top = r[i]
        r = [_int_mul(c, lead) for c in r[:i]]
        if top:
            for k in range(n):
                out = r[i - n + k] + [0] * (len(gc[k]) + len(top) - 1 - len(r[i - n + k]))
                for j, c in enumerate(_int_mul(top, gc[k])):
                    out[j] -= c
                while out and out[-1] == 0:
                    out.pop()
                r[i - n + k] = out
    while r and not r[-1]:
        r.pop()
    return r


def test_windowed_pseudo_remainder_matches_full_rescaling():
    """Seeded y-row lists: unit, negative-constant and polynomial leading
    rows of g, zero rows (so zero tops) in f, and deg f < deg g."""
    rng = random.Random(8080)

    def row(max_len):
        r = [rng.randint(-9, 9) for _ in range(rng.randint(0, max_len))]
        while r and r[-1] == 0:
            r.pop()
        return tuple(r)

    kinds = {"unit": 0, "negative_constant": 0, "polynomial": 0, "zero_top": 0, "lower_degree": 0}
    for _ in range(600):
        n, m = rng.randint(1, 5), rng.randint(0, 12)
        lead = rng.choice([(1,), (-1,), (-rng.randint(2, 9),), (rng.randint(-5, 5), rng.randint(1, 4)), (0, 3, -2)])
        gc = [row(4) for _ in range(n)] + [lead]
        fc = [row(5) if rng.random() < 0.7 else () for _ in range(m)] + [row(4) or (1,)]
        want = _unwindowed_pseudo_remainder(fc, gc)
        assert poly2._pseudo_remainder(fc, gc) == want, (fc, gc)
        kinds["unit"] += lead == (1,)
        kinds["negative_constant"] += len(lead) == 1 and lead[0] < 0
        kinds["polynomial"] += len(lead) > 1
        kinds["zero_top"] += len(fc) > n + 1 and any(not r for r in fc[n:-1])
        kinds["lower_degree"] += len(fc) < len(gc)
    assert min(kinds.values()) >= 40, kinds


def test_reduce_modulo_keeps_the_resultant_up_to_a_leading_power():
    """(R, k) = reduce_modulo(f, p): deg_y R < deg_y f, lc^E * p - R is a
    multiple of f for the E that is even unless lc is a positive constant,
    and Res_y(f, R), or R^(deg_y f) when R is free of y, over prim(lc_y f)^k
    is a positive multiple of Res_y(f, p)."""
    rng = random.Random(6161)
    seen = {"positive_constant_lead": 0, "negative_constant_lead": 0, "polynomial_lead": 0, "reduced_free_of_y": 0}
    checked = 0
    while checked < 150:
        f = rand_bipoly(rng, max_deg=3, max_terms=5, span=6)
        p = rand_bipoly(rng, max_deg=5, max_terms=6, span=6)
        if f.degree_y() < 1 or p.degree_y() < 1:
            continue
        r, k = reduce_modulo(f, p)
        assert k >= 0 and r.degree_y() < f.degree_y()
        lead = BiPoly({(j1, 0): c for j1, c in enumerate(f.rows[-1])})
        e = max(p.degree_y() - f.degree_y() + 1, 0)
        if not (len(f.rows[-1]) == 1 and f.rows[-1][0] > 0):
            e += e % 2
        assert divides(f, lead**e * p - r)
        want = UniPoly(resultant_eliminating_y(f, p).coeffs)
        if r.degree_y() >= 1:
            got = primitive_ints(resultant_eliminating_y(f, r).coeffs)
        else:
            got = list((r ** f.degree_y()).rows[0]) if r else []
        if want.is_zero():
            assert not got
            continue
        quotient = UniPoly(divide_lc_power(f, got, k))
        t = quotient.leading / want.leading
        assert t > 0 and quotient == want * t, (f, p)
        seen["positive_constant_lead"] += len(f.rows[-1]) == 1 and f.rows[-1][0] > 0
        seen["negative_constant_lead"] += len(f.rows[-1]) == 1 and f.rows[-1][0] < 0
        seen["polynomial_lead"] += len(f.rows[-1]) > 1
        seen["reduced_free_of_y"] += r.degree_y() < 1
        checked += 1
    assert min(seen.values()) >= 10, seen


def test_resultant_vanishes_at_common_zeros():
    rng = random.Random(37)
    found = 0
    for _ in range(200):
        p = rand_bipoly(rng, max_deg=2, max_terms=4, span=3)
        q = rand_bipoly(rng, max_deg=2, max_terms=4, span=3)
        if p.degree_y() < 1 or q.degree_y() < 1:
            continue
        for x0 in range(-3, 4):
            for y0 in range(-3, 4):
                if evaluate_bipoly(p, x0, y0) == 0 and evaluate_bipoly(q, x0, y0) == 0:
                    res = UniPoly(resultant_eliminating_y(p, q).coeffs)
                    assert res.evaluate(x0) == 0
                    found += 1
    assert found > 5


# -- divisibility -----------------------------------------------------------------------


def test_divides_examples():
    assert divides(parse("y - x"), parse("y^2 - x^2"))
    assert not divides(parse("y - x"), parse("y^2 + x^2"))
    assert not divides(parse("x^2 + y^2 - 25"), parse("y - 3"))


def _primitive_form(p):
    """The `FractionBiPoly` of p over its positive content."""
    return FractionBiPoly(p.terms) * (1 / Fraction(p.content))


def test_divides_random_products():
    """`divides`, which reduces the primitive forms on integers and stops at
    the first leading-coefficient quotient that is not an integer, against
    the term reduction over Q (`term_reduction`) on three kinds of seeded
    pair: f divides g; f does not, and on the primitive forms the first
    quotient is an integer and a later one is not (g = f * h plus a term
    whose coefficient the leading coefficient of f does not divide); and
    pairs with a rational content."""
    rng = random.Random(41)
    for _ in range(60):
        f = rand_bipoly(rng, max_deg=2, max_terms=3)
        h = rand_bipoly(rng, max_deg=2, max_terms=3)
        if f.is_zero():
            continue
        assert divides(f, f * h)
        g = f * h + BiPoly.constant(1)
        if not divides(f, BiPoly.constant(1)):
            assert not divides(f, g) or h.is_zero()
    seen = {"divides": 0, "later_quotient_not_integral": 0, "rational_content": 0}
    while min(seen.values()) < 25:
        f = rand_bipoly(rng, max_deg=2, max_terms=3)
        h = rand_bipoly(rng, max_deg=2, max_terms=3)
        if f.is_zero() or h.is_zero():
            continue
        kind = rng.choice(list(seen))
        if kind == "divides":
            g = f * h
        elif kind == "later_quotient_not_integral":
            (lt1, lt2), lc = f.leading_term()
            g = f * h + BiPoly.monomial(lt1 + rng.randint(0, 1), lt2 + rng.randint(0, 1), rng.choice([1, -1, 3]))
        else:
            f = f * Fraction(rng.choice([1, -2, 5]), rng.choice([3, 4, 7]))
            g = (f * h + BiPoly.monomial(1, 1, rng.randint(0, 1))) * Fraction(rng.randint(1, 9), rng.choice([2, 9]))
        want, _ = term_reduction(FractionBiPoly(f.terms), FractionBiPoly(g.terms))
        assert divides(f, g) == want, (f, g)
        if g.is_zero():
            continue
        primitive_divides, quotients = term_reduction(_primitive_form(f), _primitive_form(g))
        assert primitive_divides == want
        if kind == "divides":
            seen[kind] += want
        elif kind == "later_quotient_not_integral":
            integral = [q.denominator == 1 for q in quotients]
            seen[kind] += not want and len(integral) >= 2 and integral[0] and not all(integral)
        else:
            seen[kind] += f.content.denominator != 1 and g.content.denominator != 1


def test_divides_points_on_factor():
    """divides(f, g) forces g to vanish on 50 branch-constructed points of f."""
    f = parse("x*y - 12")
    g = f * parse("x + y - 1")
    assert divides(f, g)
    br = branch_from_point(f, 3, 4, (1, 60))
    checked = 0
    for k in range(2, 61):
        x0 = Fraction(k)
        y0 = taylor_coefficients(br, x0, 0)[0]
        assert evaluate_bipoly(f, x0, y0) == 0
        assert evaluate_bipoly(g, x0, y0) == 0
        checked += 1
    assert checked >= 50


# -- corner index and ingestion -----------------------------------------------------------


@pytest.mark.parametrize(
    "text,expected",
    [("x^2 + y^2 - 25", 2), ("y^2 - x^3", 0), ("x*y - 12", 1), ("x^2 - 2*y^2 - 1", 2)],
)
def test_corner_index(text, expected):
    assert corner_index(parse(text)) == expected


def test_ingestion_normalizes_and_rejects():
    g = ingestion_check(parse("(1/2)*x^2 + (1/2)*y^2 - (25/2)"))
    assert g == parse("x^2 + y^2 - 25")
    with pytest.raises(IngestionError):
        ingestion_check(BiPoly.constant(3))
    with pytest.raises(IngestionError):
        ingestion_check(parse("(y - x)^2"))  # repeated factor
    with pytest.raises(IngestionError):
        ingestion_check(parse("(x - 1)^2"))  # repeated factor free of y
    with pytest.raises(IngestionError):
        ingestion_check(parse("(x*y - 2)*(x - 30)^2"))  # y-free repeated factor of a y-curve


def test_swap_and_specializations():
    p = parse("x^2 - 2*y^2 - 1")
    assert p.swap_xy() == parse("y^2 - 2*x^2 - 1")
    assert p.int_column(3) == [8, 0, -2]
    assert p.swap_xy().int_column(2) == [-9, 0, 1]  # p(x, 2)
    assert (p.content, p.rows) == (1, ((-1, 0, 1), (), (-2,)))
    q = parse("(3/4)*x*y^2 - (3/2)*x")
    assert (q.content, q.rows) == (Fraction(3, 4), ((0, -2), (), (0, 1)))
    # an integral content is an int, whichever way it was reached
    assert type(p.content) is int and type(q.content) is Fraction
    assert type((q * 4).content) is int and type(BiPoly({(1, 0): Fraction(6, 2)}).content) is int
    # a float coefficient or scalar is refused, never stored as its binary value
    for make in (
        lambda: BiPoly({(0, 0): 0.1}),
        lambda: BiPoly([((1, 0), 2.0)]),
        lambda: BiPoly.constant(0.5),
        lambda: BiPoly.monomial(1, 1, 1.0),
        lambda: p * 0.5,
        lambda: 0.5 * p,
        lambda: p * "2",
    ):
        with pytest.raises(TypeError):
            make()


def test_int_column_is_a_positive_multiple_of_at_x():
    """Seeded differential of the integer column against the `Fraction`
    specialisation of the term-dict reference, at integer, negative, zero
    and rational abscissas."""
    rng = random.Random(71)
    zeros = 0
    for trial in range(400):
        terms = {}
        for _ in range(rng.randint(0, 6)):
            j1, j2 = rng.randint(0, 4), rng.randint(0, 3)
            terms[(j1, j2)] = Fraction(rng.randint(-9, 9), rng.randint(1, 6))
        p = BiPoly(terms)
        if trial % 5 == 0 and not p.is_zero():
            # a factor (b*x - a) makes the column vanish at x0 = a/b
            a, b = rng.randint(-5, 5), rng.randint(1, 4)
            p = p * BiPoly({(1, 0): b, (0, 0): -a})
            abscissas = [Fraction(a, b)]
        else:
            abscissas = [0, rng.randint(1, 9), -rng.randint(1, 9), Fraction(rng.randint(-20, 20), rng.randint(2, 7))]
        for x0 in abscissas:
            want = FractionBiPoly(p.terms).at_x(x0)
            got = p.int_column(x0)
            assert all(type(c) is int for c in got)
            assert (got == []) == (want == [])
            zeros += got == []
            if got:
                assert len(got) == len(want)
                ratio = Fraction(got[-1]) / want[-1]
                assert ratio > 0
                assert [ratio * c for c in want] == got
    assert zeros >= 80


def test_int_column_examples():
    p = parse("x^2 - 2*y^2 - 1")
    assert p.int_column(3) == [8, 0, -2]
    # an integer-valued Fraction reads the same ints as the int
    col = p.int_column(Fraction(6, 2))
    assert col == p.int_column(3) and all(type(c) is int for c in col)
    assert p.int_column(Fraction(1, 2)) == [-3, 0, -8]  # 4 * (1/4 - 1 - 2*y^2)
    assert parse("(2*x + 3)*y - x").int_column(Fraction(-3, 2)) == [3]
    assert parse("(2*x + 3)*(y - x)").int_column(Fraction(-3, 2)) == []
    assert BiPoly({}).int_column(5) == []
    assert parse("(1/2)*y^2 - (1/3)*x").int_column(-2) == [4, 0, 3]
