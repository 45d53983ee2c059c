"""Exact linear algebra and univariate root machinery."""

import itertools
import math
import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from latcurve.exactlinalg import integer_determinant, integer_kth_root_ceiling, row_echelon_pivots
from latcurve import unipoly
from latcurve.counting import brute_force_count
from latcurve.poly2 import BiPoly, parse
from latcurve.unipoly import (
    RootInterval,
    _int_prem_signed,
    _int_variations,
    _rat_eval,
    affine_image,
    descartes_bound,
    graeffe_step,
    int_exact_quotient,
    ZeroPolynomialError,
    count_real_roots,
    integer_roots,
    integer_squarefree_chain,
    isolate_real_roots,
    poly_gcd,
    primitive_ints,
    refine_root,
    root_slots,
    sign_at_root,
    slot_bracket,
    slot_runs,
    squarefree_part,
    sturm_chain,
)

from fraction_unipoly import UniPoly
import reference_helpers
from reference_helpers import (
    _same_root,
    all_real_roots,
    fraction_determinant,
    half_line_descartes_bound,
    integer_in,
    poly_sup_bound,
    ranked_integer_root,
    ranked_root_slot,
    rational_root_in,
    refine_disjoint,
    root_slot,
    ryser_permanent,
)


# -- independent oracles -------------------------------------------------------


def ints(p):
    """The primitive integer tuple of the `UniPoly` p: the form the root
    queries take and every bracket carries."""
    return tuple(primitive_ints(p.coeffs))


def rref_nonzero_rows(rows):
    """Plain Gauss-Jordan; rank = number of surviving nonzero rows."""
    m = [[Fraction(e) for e in row] for row in rows]
    lead = 0
    for r in range(len(m)):
        if lead >= len(m[0]):
            break
        i = r
        while m[i][lead] == 0:
            i += 1
            if i == len(m):
                i = r
                lead += 1
                if lead == len(m[0]):
                    return sum(1 for row in m if any(row))
        m[i], m[r] = m[r], m[i]
        lv = m[r][lead]
        m[r] = [v / lv for v in m[r]]
        for i in range(len(m)):
            if i != r and m[i][lead] != 0:
                f = m[i][lead]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        lead += 1
    return sum(1 for row in m if any(row))


def cofactor_det(rows):
    n = len(rows)
    if n == 1:
        return rows[0][0]
    total = 0
    for j in range(n):
        minor = [row[:j] + row[j + 1 :] for row in rows[1:]]
        term = rows[0][j] * cofactor_det(minor)
        total += term if j % 2 == 0 else -term
    return total


def naive_sturm_count(p: UniPoly, lo, hi):
    """Distinct roots in [lo, hi] via a from-scratch Sturm chain."""
    sf = UniPoly(squarefree_part(ints(p)))
    lo, hi = Fraction(lo), Fraction(hi)
    extra = 0
    if sf.evaluate(lo) == 0:
        extra += 1
        sf = sf // UniPoly([-lo, 1])
    if hi > lo and sf.evaluate(hi) == 0:
        extra += 1
        sf = sf // UniPoly([-hi, 1])
    chain = [sf, sf.derivative()]
    while not chain[-1].is_zero():
        chain.append(-(chain[-2] % chain[-1]))
    chain.pop()

    def var(x):
        signs = [q.evaluate(x) for q in chain]
        signs = [s for s in signs if s != 0]
        return sum(1 for a, b in zip(signs, signs[1:]) if (a > 0) != (b > 0))

    if sf.degree < 1:
        return extra
    return extra + var(lo) - var(hi)


# -- rank -------------------------------------------------------------------------


def test_rank_examples():
    assert row_echelon_pivots([[1, 1, 1], [1, 2, 2], [1, 3, 3]])[0] == 2
    assert row_echelon_pivots([[0] * 3 for _ in range(3)])[0] == 0
    assert row_echelon_pivots([[1, 0, 0], [0, 1, 0], [0, 0, 1]])[0] == 3


def test_rank_against_rref_oracle():
    rng = random.Random(7)
    for _ in range(100):
        rows = rng.randint(1, 4)
        cols = rng.randint(1, 4)
        m = [
            [Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(cols)]
            for _ in range(rows)
        ]
        # each row times the lcm of its denominators: the same rank, on integers
        scaled = [[int(e * math.lcm(*(v.denominator for v in row))) for e in row] for row in m]
        assert row_echelon_pivots(scaled)[0] == rref_nonzero_rows(m)


def test_row_echelon_pivots_prefers_early_rows():
    rank, rows, cols = row_echelon_pivots([[1, 1, 1], [2, 2, 2], [1, 2, 2]])
    assert rank == 2
    assert rows == [0, 2]
    assert cols == [0, 1]


# -- determinants ------------------------------------------------------------------


def test_determinant_examples():
    assert integer_determinant([[2, 1], [1, 2]]) == 3
    assert integer_determinant([[1, 1, 1], [1, 2, 4], [1, 3, 9]]) == 2
    assert integer_determinant([[1, 2], [2, 4]]) == 0


def test_determinant_against_cofactor_oracle():
    rng = random.Random(11)
    for _ in range(500):
        n = rng.randint(1, 4)
        m = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(n)]
        assert integer_determinant(m) == cofactor_det(m)


def test_fraction_determinant_matches_integer():
    rng = random.Random(13)
    for _ in range(50):
        n = rng.randint(1, 4)
        m = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
        assert fraction_determinant(m) == integer_determinant(m)


def test_permanent_small():
    assert ryser_permanent([[1, 1], [0, 1]]) == 1
    assert ryser_permanent([[1, 2], [3, 4]]) == 10
    rng = random.Random(3)
    for _ in range(30):
        n = rng.randint(1, 4)
        m = [[rng.randint(0, 3) for _ in range(n)] for _ in range(n)]
        # oracle: permutation expansion
        import itertools

        expected = sum(
            __import__("math").prod(m[i][s[i]] for i in range(n))
            for s in itertools.permutations(range(n))
        )
        assert ryser_permanent(m) == expected


# -- root isolation ------------------------------------------------------------------


def test_isolate_sqrt2():
    p = [-2, 0, 1]
    roots = isolate_real_roots(p, 0, 2)
    assert len(roots) == 1
    r = roots[0]
    assert r.lo <= Fraction(3, 2) and r.hi >= Fraction(1)  # contains sqrt(2)
    assert UniPoly(r.polynomial).evaluate(r.lo) * UniPoly(r.polynomial).evaluate(r.hi) <= 0


def test_isolate_no_real_roots():
    assert isolate_real_roots([1, 0, 1], -10, 10) == []


def test_isolate_three_roots():
    # (x-1)(x-2)(x-3)
    p = [-6, 11, -6, 1]
    roots = isolate_real_roots(p, 0, 4)
    assert len(roots) == 3
    assert all(r.lo <= r.hi for r in roots)
    for a, b in zip(roots, roots[1:]):
        assert a.hi <= b.lo or (a.hi == b.lo)
    assert count_real_roots(p, 0, 4) == 3
    assert integer_roots(p) == [1, 2, 3]


def test_isolate_rejects_zero_polynomial():
    with pytest.raises(ZeroPolynomialError):
        isolate_real_roots([], 0, 1)
    with pytest.raises(ZeroPolynomialError):
        integer_roots([])


def test_isolate_endpoint_roots_degenerate():
    p = [0, 1]  # x
    roots = isolate_real_roots(p, 0, 1)
    assert len(roots) == 1 and roots[0].is_exact() and roots[0].lo == 0


def _check_isolation(p, lo, hi):
    roots = isolate_real_roots(ints(p), lo, hi)
    # counts agree with an independent Sturm count
    assert len(roots) == count_real_roots(ints(p), lo, hi) == naive_sturm_count(p, lo, hi), (p, lo, hi)
    for r in roots:
        assert lo <= r.lo <= r.hi <= hi
        if r.is_exact():
            assert p.evaluate(r.lo) == 0
            continue
        for q in (r, refine_root(r, Fraction(1, 1000))):
            if q.is_exact():  # refinement met the root at a midpoint
                assert p.evaluate(q.lo) == 0 and r.lo < q.lo < r.hi, (p, lo, hi, q)
                continue
            assert UniPoly(q.polynomial).evaluate(q.lo) * UniPoly(q.polynomial).evaluate(q.hi) < 0, (p, lo, hi, q)
    for a, b in zip(roots, roots[1:]):
        assert a.hi <= b.lo


def test_isolation_properties_random():
    rng = random.Random(21)
    for _ in range(60):
        deg = rng.randint(1, 6)
        coeffs = [rng.randint(-6, 6) for _ in range(deg)] + [rng.randint(1, 6)]
        _check_isolation(UniPoly(coeffs), -12, 12)
    # products of rational linear factors (b*y - a), some repeated, with
    # Fraction coefficients, on ranges that often end on a root
    for _ in range(120):
        roots = [Fraction(rng.randint(-12, 12), rng.randint(1, 4)) for _ in range(rng.randint(1, 4))]
        roots += rng.sample(roots, rng.randint(0, len(roots)))
        p = UniPoly([Fraction(rng.choice([-7, -3, 1, 2, 5]), rng.randint(1, 6))])
        for r in roots:
            p = p * UniPoly([-r.numerator, r.denominator]) * Fraction(1, rng.randint(1, 3))
        if rng.random() < 0.5:
            p = p * UniPoly([Fraction(-2, 3), 0, 1])  # roots +-sqrt(2/3)
        ends = [
            rng.choice(roots) if rng.random() < 0.6 else Fraction(rng.randint(-40, 40), rng.randint(1, 3))
            for _ in range(2)
        ]
        _check_isolation(p, min(ends), max(ends))


def _is_primitive_tuple(f):
    return type(f) is tuple and all(type(c) is int for c in f) and f[-1] != 0 and math.gcd(*f) == 1


@settings(max_examples=150)
@given(
    st.lists(st.integers(min_value=-9, max_value=9), min_size=1, max_size=6).filter(any),
    st.integers(min_value=1, max_value=6),
    st.integers(min_value=-12, max_value=12),
    st.integers(min_value=0, max_value=24),
    st.booleans(),
)
def test_brackets_hold_primitive_integer_tuples(coeffs, scale, lo, width, root_at_lo):
    """Every bracket carries a tuple of ints with gcd 1, whatever integer
    multiple, with or without trailing zeros, the caller passed, and also
    when isolation divides a root at a domain end out."""
    if root_at_lo:  # times (x - lo)
        coeffs = [a - lo * b for a, b in zip([0] + coeffs, coeffs + [0])]
    p = [c * scale for c in coeffs]
    brackets = isolate_real_roots(p, lo, lo + width) + all_real_roots(p)
    brackets += refine_disjoint(brackets, Fraction(1, 8))
    assert all(_is_primitive_tuple(r.polynomial) for r in brackets), (p, brackets)


def test_rational_multiples_share_one_squarefree_part():
    """The squarefree-part cache is keyed on the primitive integer tuple, so
    positive rational multiples of one polynomial take one entry."""
    squarefree_part.cache_clear()
    p = [-6, 11, -6, 1]  # (x - 1)(x - 2)(x - 3): Descartes v = 3 on (0, 4)
    for q in (p, [2 * c for c in p], ints(UniPoly(p) * Fraction(5, 3))):
        assert count_real_roots(q, 0, 4) == 3
        assert [integer_in(r) for r in isolate_real_roots(q, 0, 4)] == [1, 2, 3]
        assert [integer_in(r) for r in all_real_roots(q)] == [1, 2, 3]
    info = squarefree_part.cache_info()
    assert info.currsize == 1 and info.misses == 1, info


def test_refine_root():
    p = [-2, 0, 1]
    [r] = isolate_real_roots(p, 0, 2)
    fine = refine_root(r, Fraction(1, 100))
    assert fine.hi - fine.lo <= Fraction(1, 100)
    assert UniPoly(fine.polynomial).evaluate(fine.lo) * UniPoly(fine.polynomial).evaluate(fine.hi) <= 0
    # still contains sqrt(2)
    assert fine.lo * fine.lo <= 2 <= fine.hi * fine.hi


def test_refine_degenerate():
    p = (-2, 1)
    r = RootInterval(Fraction(2), Fraction(2), p)
    assert refine_root(r, Fraction(1, 7)) == r


def test_refine_root_inside_wide_interval():
    p = (-3, 1)  # root 3
    r = RootInterval(Fraction(0), Fraction(4), p)
    fine = refine_root(r, Fraction(1, 2))
    assert fine.hi - fine.lo <= Fraction(1, 2)
    assert fine.lo <= 3 <= fine.hi


def test_refine_disjoint_merges_same_root():
    p1 = [-2, 0, 1]  # sqrt 2
    p2 = [2, -3, 0, 1]  # (x-1)(x^2+x-2) = has root 1, also sqrt-2-ish? use x^3-3x+2
    # use two isolations of the same polynomial root through different polys
    q = [-4, 0, 2]  # 2x^2-4: same roots as p1
    r1 = isolate_real_roots(p1, 0, 2)[0]
    r2 = isolate_real_roots(q, 0, 2)[0]
    merged = refine_disjoint([r1, r2], Fraction(1, 4))
    assert len(merged) == 1
    # sqrt 2 from three polynomials, 1 and 3 from (x - 1)(x - 3), and -sqrt 2
    sqrt2 = [isolate_real_roots(p, 0, 2)[0] for p in ([-2, 0, 1], [-4, 0, 2], [-2, 0, 1, 0, 0])]
    one, three = isolate_real_roots([3, -4, 1], 0, 4)
    [minus] = isolate_real_roots([-2, 0, 1], -2, 0)
    inputs = [three, sqrt2[0], minus, sqrt2[1], one, sqrt2[2]]
    kept = refine_disjoint(inputs, Fraction(1, 4))
    assert len(kept) == 4 and all(a.hi <= b.lo for a, b in zip(kept, kept[1:]))
    m, r1, s2, r3 = kept
    assert m.hi < 0 and r1.lo <= 1 <= r1.hi and 0 <= s2.lo and s2.lo**2 <= 2 <= s2.hi**2 and r3.lo <= 3 <= r3.hi
    # each survivor refines one of the inputs that isolate its root
    for r in kept:
        assert any(own.lo <= r.lo <= r.hi <= own.hi and r.polynomial == own.polynomial for own in inputs)


def test_refine_disjoint_keeps_distinct_roots_of_one_polynomial():
    # overlapping brackets of one polynomial around its two different roots
    p = [3, -4, 1]  # (x - 1)(x - 3)
    [r1] = isolate_real_roots(p, 0, Fraction(5, 2))
    [r3] = isolate_real_roots(p, 2, 4)
    assert r1.hi > r3.lo
    kept = refine_disjoint([r1, r3], 10)
    assert len(kept) == 2
    assert kept[0].lo <= 1 <= kept[0].hi and kept[1].lo <= 3 <= kept[1].hi
    assert kept[0].hi <= kept[1].lo


# -- bracket identity against a Fraction reference -----------------------------------

def reference_refine(r, width, exact):
    """`refine_root` with `Fraction` Horner evaluations: bisection at the
    midpoint, which is returned as an exact bracket when it is a root; each
    such midpoint is appended to `exact`."""
    if r.is_exact():
        return r
    f, lo, hi = r.polynomial, r.lo, r.hi
    p = UniPoly(f)
    s_lo = p.evaluate(lo)
    if s_lo == 0:
        return RootInterval(lo, lo, f)
    if p.evaluate(hi) == 0:
        return RootInterval(hi, hi, f)
    while hi - lo > width:
        m = (lo + hi) / 2
        pm = p.evaluate(m)
        if pm == 0:
            exact.append(m)
            return RootInterval(m, m, f)
        if (s_lo > 0) != (pm > 0):
            hi = m
        else:
            lo, s_lo = m, pm
    return RootInterval(lo, hi, f)


def reference_integer_in(r, exact):
    r = reference_refine(r, Fraction(1, 2), exact)
    k = math.ceil(r.lo)
    return k if k <= r.hi and UniPoly(r.polynomial).evaluate(k) == 0 else None


def _midpoint_root_brackets(rng, count):
    """Sign-changing brackets [a, b] of polynomials with rational `Fraction`
    coefficients whose rational roots, some double, lie on the successive
    midpoints of a random walk of halvings from [a, b], so that refinement
    often meets a root at a midpoint."""
    out = []
    while len(out) < count:
        if rng.random() < 0.3:
            a = Fraction(rng.randint(-20, 20))
            b = a + rng.choice([6, 12, 24, 64])  # integer midpoints
        else:
            a = Fraction(rng.randint(-40, 40), rng.randint(1, 9))
            b = a + Fraction(rng.randint(1, 40), rng.randint(1, 9))
        p = UniPoly([Fraction(rng.randint(1, 9), rng.randint(1, 9)) * rng.choice([-1, 1])])
        lo, hi = a, b
        for _ in range(rng.randint(1, 8)):
            m = (lo + hi) / 2
            if rng.random() < 0.6:
                p = p * UniPoly([-m.numerator, m.denominator]) ** rng.randint(1, 2)
            lo, hi = (lo, m) if rng.random() < 0.5 else (m, hi)
        # one more root, rational or irrational, anywhere in (a, b)
        c = a + (b - a) * Fraction(rng.randint(1, 99), 100)
        p = p * (UniPoly([-c, 1]) if rng.random() < 0.5 else UniPoly([-c * c - Fraction(1, 7), 0, 1]))
        if p.evaluate(a) * p.evaluate(b) < 0:
            out.append(RootInterval(a, b, ints(p)))
    return out


def test_brackets_identical_to_fraction_reference():
    rng = random.Random(2024)
    exact = []
    for r in _midpoint_root_brackets(rng, 120):
        for width in ((r.hi - r.lo) / 3, Fraction(1, 64), Fraction(1, 10**6)):
            assert refine_root(r, width) == reference_refine(r, width, exact), (r, width)
        assert integer_in(r) == reference_integer_in(r, exact), r
    # refinement often ended on a root at a midpoint
    assert len(exact) > 100, len(exact)


def test_isolation_takes_a_midpoint_root_as_exact():
    """(x - 6)(x^2 - 2)(x - 9) on [0, 12] has its root 6 at the first
    midpoint: it is isolated as the exact bracket [6, 6], the other brackets
    carry the quotient, nonzero at both ends, and a bracket whose midpoint
    is its root refines to that exact bracket."""
    p = UniPoly([-6, 1]) * UniPoly([-2, 0, 1]) * UniPoly([-9, 1])
    roots = isolate_real_roots(ints(p), 0, 12)
    assert len(roots) == count_real_roots(ints(p), 0, 12) == naive_sturm_count(p, 0, 12) == 3
    assert [r for r in roots if r.is_exact()] == [RootInterval(Fraction(6), Fraction(6), ints(p))]
    for r in roots:
        if not r.is_exact():
            f = UniPoly(r.polynomial)
            assert f.evaluate(r.lo) * f.evaluate(r.hi) < 0 and f.evaluate(6) != 0, r
    wide = RootInterval(Fraction(4), Fraction(8), ints(p))
    assert refine_root(wide, Fraction(1, 8)) == RootInterval(Fraction(6), Fraction(6), ints(p))


# -- signs at an isolated root ----------------------------------------------------------


def reference_sign_at_root(r, v):
    """Sign of the integer polynomial v at the root r isolates, in `Fraction`
    arithmetic: a gcd zero test, then bisection until v has no root in the
    bracket, then the sign at its left end."""
    vp = UniPoly(v)
    if vp.is_zero():
        return 0
    if r.is_exact():
        val = vp.evaluate(r.lo)
        return (val > 0) - (val < 0)
    g = poly_gcd(r.polynomial, ints(vp))
    if len(g) >= 2 and count_real_roots(g, r.lo, r.hi) > 0:
        return 0
    while count_real_roots(ints(vp), r.lo, r.hi) > 0:
        r = refine_root(r, (r.hi - r.lo) / 2)
    val = vp.evaluate(r.lo)
    return (val > 0) - (val < 0)


def test_sign_at_root_sqrt2(monkeypatch):
    def no_gcd(*args):
        raise AssertionError("sign_at_root must not take a gcd")

    monkeypatch.setattr("latcurve.unipoly.poly_gcd", no_gcd)
    sqrt2 = RootInterval(Fraction(1), Fraction(2), (-2, 0, 1))
    assert sign_at_root(sqrt2, [0, -2, 0, 1]) == 0  # y^3 - 2y
    assert sign_at_root(sqrt2, [-10, -2, 5, 1]) == 0  # (y^2 - 2)(y + 5)
    # 4y - 5 has its root 5/4 inside (1, 2) but below sqrt(2)
    assert sign_at_root(sqrt2, [-5, 4]) == 1
    assert sign_at_root(sqrt2, [5, -4]) == -1
    assert sign_at_root(sqrt2, [-7]) == -1
    assert sign_at_root(sqrt2, []) == 0


def test_sign_at_root_exact_bracket():
    three = RootInterval(Fraction(3), Fraction(3), (-3, 1))
    assert sign_at_root(three, [-9, 0, 1]) == 0
    assert sign_at_root(three, [1, 1]) == 1
    assert sign_at_root(three, [-4, 1]) == -1
    assert sign_at_root(three, []) == 0
    half = RootInterval(Fraction(1, 2), Fraction(1, 2), (-1, 2))
    assert sign_at_root(half, [-1, 2]) == 0
    assert sign_at_root(half, [-1, 0, 8]) == 1  # 8/4 - 1


def test_sign_at_root_sparse_degree_70():
    """A sparse degree-70 v against the degree-4 f = y^4 - 10y^2 + 1, whose
    roots are +-sqrt(3) +- sqrt(2)."""
    f = UniPoly([1, 0, -10, 0, 1])
    roots = all_real_roots(ints(f))
    assert len(roots) == 4

    def sparse(terms):
        v = [0] * (max(terms) + 1)
        for k, c in terms.items():
            v[k] = c
        return v

    cases = [
        sparse({70: 3, 35: -2, 0: -5}),
        sparse({70: -1, 3: 7, 1: 1}),
        sparse({70: 1, 0: -(2**35)}),  # y^70 - 2^35 vanishes at +-sqrt(2) only
        primitive_ints((f * UniPoly(sparse({66: 1, 0: 1}))).coeffs),  # f * (y^66 + 1)
        primitive_ints((UniPoly([-1, 0, 1]) * f * UniPoly(sparse({64: -4, 9: 1}))).coeffs),
    ]
    for v in cases:
        assert len(v) == 71
        for r in roots:
            assert sign_at_root(r, v) == reference_sign_at_root(r, v), (v, r)
    for r in roots:
        assert sign_at_root(r, cases[3]) == 0
        assert sign_at_root(r, cases[4]) == 0
    # 3y^70 dominates at sqrt(3) + sqrt(2); -5 dominates at sqrt(3) - sqrt(2)
    assert [sign_at_root(r, cases[0]) for r in roots] == [1, -1, -1, 1]


def test_sign_at_root_matches_fraction_reference():
    rng = random.Random(808)

    def rand_poly(deg, height=9):
        c = [rng.randint(-height, height) for _ in range(deg)]
        return c + [rng.choice([-1, 1]) * rng.randint(1, height)]

    seen = {-1: 0, 0: 0, 1: 0}
    negative_lead = 0
    for _ in range(150):
        a = UniPoly(rand_poly(rng.randint(1, 3)))
        b = UniPoly(rand_poly(rng.randint(1, 3)))
        scale = Fraction(rng.choice([-3, -1, 1, 2]), rng.choice([1, 7]))
        p = a * b * scale
        negative_lead += p.leading < 0
        roots = all_real_roots(ints(p))
        if rng.random() < 0.5:
            roots = [refine_root(r, Fraction(1, 10**rng.randint(1, 4))) for r in roots]
        vs = [
            rand_poly(rng.randint(0, 8)),
            [-rng.randint(-40, 40), rng.randint(1, 12)],  # a root inside some brackets
            primitive_ints((a * UniPoly(rand_poly(rng.randint(0, 5)))).coeffs),  # zero on a's roots
            primitive_ints((UniPoly(squarefree_part(ints(p))) * UniPoly(rand_poly(2))).coeffs),  # zero everywhere
        ]
        for r in roots:
            for v in vs:
                want = reference_sign_at_root(r, v)
                assert sign_at_root(r, v) == want, (r, v)
                seen[want] += 1
    assert min(seen.values()) > 100 and negative_lead > 20


def test_int_prem_signed_matches_fraction_remainder():
    """The primitive remainder of f by g, with the sign of the true `Fraction`
    remainder: both sides primitive, so equal up to a positive factor means
    equal.  deg f is often far above deg g (up to 80 against 0-5), and the
    leading coefficients are often negative."""
    rng = random.Random(31)
    negative = 0
    for _ in range(300):
        n = rng.randint(0, 5)
        m = rng.choice([n, n + 1, rng.randint(n, 80)])
        g = [rng.randint(-50, 50) for _ in range(n)] + [rng.choice([-1, 1]) * rng.randint(1, 10**rng.randint(1, 8))]
        f = [rng.randint(-10**6, 10**6) if rng.random() < 0.6 else 0 for _ in range(m)]
        f.append(rng.choice([-1, 1]) * rng.randint(1, 99))
        negative += g[-1] < 0 and f[-1] < 0
        want = primitive_ints((UniPoly(f) % UniPoly(g)).coeffs)
        assert _int_prem_signed(f, g) == want, (f, g)
    assert negative > 30
    # deg f < deg g: the remainder is f itself, made primitive
    assert _int_prem_signed([4, -6], [1, 2, 3]) == [2, -3]


# -- content normaliser ------------------------------------------------------------------


def test_primitive_ints():
    assert primitive_ints([Fraction(1, 2), Fraction(-2, 3), Fraction(5, 6)]) == [3, -4, 5]
    assert primitive_ints([Fraction(4), Fraction(-6, 1), Fraction(-2, 1)]) == [2, -3, -1]
    assert primitive_ints([6, 0, -9]) == [2, 0, -3]  # integer input
    assert primitive_ints([-1, 1]) == [-1, 1]
    assert primitive_ints([]) == []


# -- integer roots ---------------------------------------------------------------------


def test_integer_in():
    p = (-6, 1, 1)  # (x - 2)(x + 3)
    assert integer_in(RootInterval(Fraction(2), Fraction(2), p)) == 2
    assert integer_in(RootInterval(Fraction(5, 2), Fraction(5, 2), (-5, 2))) is None
    assert [integer_in(r) for r in isolate_real_roots(p, -10, 10)] == [-3, 2]
    # sqrt(10^12 + 1) lies within 10^-6 of the integer 10^6
    near = UniPoly([-(10**12 + 1), 0, 1])
    roots = isolate_real_roots(ints(near), -(10**7), 10**7)
    assert [integer_in(r) for r in roots] == [None, None]
    assert integer_roots(ints(near)) == []
    assert integer_roots(ints(near * UniPoly([10**6, 1]))) == [-(10**6)]


def test_rational_root_in():
    """`rational_root_in(p, lo, hi)` returns the root that [lo, hi] isolates
    exactly when it is rational, else None."""
    third, half = Fraction(1, 3), Fraction(1, 2)
    # (3x - 1)(2x^2 - 1): lead 6, the root 1/3 has a denominator dividing it
    p = UniPoly([-1, 3]) * UniPoly([-1, 0, 2])
    assert rational_root_in(ints(p), Fraction(0), half) == third
    assert rational_root_in(ints(p * 4), Fraction(-1, 5), Fraction(2, 5)) == third
    # the irrational roots +-1/sqrt(2)
    assert rational_root_in(ints(p), half, Fraction(1)) is None
    assert rational_root_in(ints(p), Fraction(-1), Fraction(0)) is None
    assert [rational_root_in(r.polynomial, r.lo, r.hi) for r in isolate_real_roots(ints(p), -2, 2)] == [None, third, None]
    # an exact bracket decides by one evaluation
    assert rational_root_in(ints(p), third, third) == third
    assert rational_root_in(ints(p), half, half) is None
    # repeated factors: (3x - 1)^2 (2x^2 - 1)^3
    q = UniPoly([-1, 3]) ** 2 * UniPoly([-1, 0, 2]) ** 3
    assert rational_root_in(ints(q), Fraction(0), half) == third
    assert rational_root_in(ints(q), half, Fraction(1)) is None


def test_integer_roots_examples():
    assert integer_roots([-25, 0, 1]) == [-5, 5]
    assert integer_roots([0, 0, 1]) == [0]
    assert integer_roots([-2, 0, 1]) == []


def test_integer_roots_random():
    rng = random.Random(5)
    for _ in range(60):
        roots = sorted(set(rng.randint(-8, 8) for _ in range(rng.randint(1, 3))))
        p = UniPoly([1])
        for r in roots:
            p = p * UniPoly([-r, 1])
        if rng.random() < 0.5:
            p = p * UniPoly([1, 0, 1])  # irreducible quadratic factor
        found = integer_roots(ints(p))
        assert found == roots
        for r in found:
            assert p.evaluate(r) == 0


def _with_roots(roots, extra=(1,)):
    p = UniPoly(extra)
    for r in roots:
        p = p * UniPoly([-r, 1])
    return ints(p)


def test_integer_roots_range_ends_and_midpoints():
    p = _with_roots([2, 5, 9])
    assert integer_roots(p, 2, 9) == [2, 5, 9]  # at lo, at the first midpoint, at hi
    assert integer_roots(p, 3, 8) == [5]
    assert integer_roots(p, 5, 5) == [5]
    assert integer_roots(p, 6, 8) == []
    # one root in (0, 8]: the sign bisection meets it at a midpoint
    assert integer_roots(_with_roots([3], extra=(1, 0, 1)), 0, 8) == [3]
    assert integer_roots(_with_roots([-4, 7]), None, 0) == [-4]
    assert integer_roots(_with_roots([-4, 7]), 0, None) == [7]


def test_integer_roots_double_root():
    p = _with_roots([3, 3, -1])  # (y - 3)^2 (y + 1)
    assert integer_roots(p) == [-1, 3]
    assert integer_roots(p, 0, 10) == [3]
    assert integer_roots(p, -1, 2) == [-1]
    assert integer_roots(ints(UniPoly([0, 1]) * UniPoly([-2, 0, 1]) ** 2)) == [0]  # y (y^2 - 2)^2
    cube = _with_roots([5, 5, 5], extra=(-2, 0, 1))  # (y - 5)^3 (y^2 - 2)
    assert integer_roots(cube) == [5]
    assert integer_roots(cube, 6, 100) == []
    assert integer_roots(_with_roots([-4, -4, 0, 0, 9]), -4, 8) == [-4, 0]


def _columns_roots(rows, first, last, lo, hi):
    """`integer_roots` of each column sum_j rows[j](a) t^j, a = first..last,
    as (a, t) pairs: the per-column reference for `run_integer_roots`."""
    return [
        (a, t)
        for a in range(first, last + 1)
        for t in integer_roots([sum(c * a**i for i, c in enumerate(row)) for row in rows], lo, hi)
    ]


def _assert_runs_match(rows, first, last):
    """`run_integer_roots` equals the per-column reference on first..last,
    over a wide range and over ranges whose ends are roots, one unit inside
    and one unit outside them; returns the wide range's pairs."""
    wide = _columns_roots(rows, first, last, -(10**70), 10**70)
    assert unipoly.run_integer_roots(rows, first, last, -(10**70), 10**70) == wide
    ts = sorted(t for _, t in wide)
    ranges = [(0, 50)]
    if ts:
        ranges += [(ts[0], ts[-1]), (ts[0] + 1, ts[-1] - 1), (ts[0] - 1, ts[0] - 1), (ts[-1] + 1, ts[-1] + 1)]
        ranges += [(ts[len(ts) // 2], ts[len(ts) // 2])]
    for lo, hi in ranges:
        assert unipoly.run_integer_roots(rows, first, last, lo, hi) == _columns_roots(rows, first, last, lo, hi)
    return wide


def test_run_integer_roots_matches_per_column_roots():
    """One pass over a run of columns finds the roots of `integer_roots` on
    each column: on seeded products of linear factors in t, of degree 1 to
    3 in t, with a leading coefficient of either sign that vanishes at one
    abscissa of some runs, double roots, and a perturbation that leaves most
    columns without an integer root; on named cases for each closed form and
    for columns of degree 0 and 4; and on a run longer than one block of
    evaluated columns.  The 60-digit shifts make a float square root wrong
    where D is a square plus 4."""
    rng = random.Random(46)
    x, y, one = BiPoly.var_x(), BiPoly.var_y(), BiPoly.constant(1)
    hits = Counter()
    for _ in range(150):
        deg = rng.randint(1, 3)
        roots = [rng.randint(-2, 2) * x**2 + rng.randint(-9, 9) * x + rng.randint(-30, 30) * one for _ in range(deg)]
        if deg >= 2 and rng.random() < 0.3:
            roots[1] = roots[0]
        lead = rng.choice([one, -2 * one, x**2 + one, -(x**2) - 3 * one, x - rng.randint(-3, 12) * one])
        curve = lead
        for r in roots:
            curve = curve * (y - r)
        curve = curve + rng.choice([0 * one, 0 * one, one, -2 * x, y - roots[0]])
        if curve.degree_y() != deg:
            continue
        first = rng.randint(-6, 6)
        try:
            wide = _assert_runs_match(curve.rows, first, first + rng.randint(0, 15))
        except ZeroPolynomialError:
            continue
        hits[deg] += len(wide)
    assert min(hits[deg] for deg in (1, 2, 3)) > 50, hits
    big = 10**59 + 7
    for text, count in (
        ("-(y - x)^2", 16),  # a negative leading coefficient and D = 0
        ("(y - x)*(y - x - 1)", 32),  # D = 1
        ("(x - 6)*y^2 + (x - 2)*(y - x)", 2),  # the leading coefficient vanishes at x = 6
        ("(x - 6)*y + x - 9", 4),  # and at degree 1
        ("(x - 6)*y^3 + (y - x)*(y - 2*x)", 2),  # and at degree 3
        (f"y^2 - (x + {big})^2", 32),  # roots -+(x + big)
        (f"y^2 - (x + {big})^2 - 1", 0),  # D = 4 (x + big)^2 + 4, a square plus 4
        (f"({big}*x + 1)*y - ({big}*x + 1)*(x + {big})", 16),
        (f"(y - {big}*x)*(y - {big}*x + 1)*(-3)", 32),
        ("x^2 + 1", 0),  # columns of degree 0
        ("(y - x)*(y^3 - 2)*(x - 20)", 16),  # and of degree 4
    ):
        assert len(_assert_runs_match(parse(text).rows, 1, 16)) == count, text
    run = 2 * unipoly._RUN_BLOCK + 5
    divisors = [d for d in range(1, run + 1) if 720720 % d == 0]
    assert len(_assert_runs_match(parse("x*y - 720720").rows, -run, run)) == 2 * len(divisors)
    # a zero column raises, as `integer_roots` does on it
    for text in ("x - 5", "(x - 5)*(y - x)", "(x - 5)*(y^2 - x)", "(x - 5)*(y^3 - x)"):
        rows = parse(text).rows
        for lo, hi in ((0, 50), (7, 7)):
            with pytest.raises(ZeroPolynomialError):
                unipoly.run_integer_roots(rows, 1, 8, lo, hi)
        assert unipoly.run_integer_roots(rows, 6, 8, -50, 50) == _columns_roots(rows, 6, 8, -50, 50)


def test_integer_squarefree_chain():
    sf, chain = integer_squarefree_chain(_with_roots([3, 3, -1]))  # (y - 3)^2 (y + 1)
    assert sf in ([-3, -2, 1], [3, 2, -1])
    assert chain[0] == sf and len(chain[-1]) == 1
    sf, chain = integer_squarefree_chain(ints(UniPoly([0, 1]) * UniPoly([-2, 0, 1]) ** 2))  # y (y^2 - 2)^2
    assert sf in ([0, -2, 0, 1], [0, 2, 0, -1])
    assert len(chain) == 4
    # squarefree input: its primitive form and chain, untouched
    sf, chain = integer_squarefree_chain(ints(UniPoly([-2, 0, Fraction(1, 2)])))
    assert sf == [-4, 0, 1] and chain == [[-4, 0, 1], [0, 1], [1]]
    assert integer_squarefree_chain(ints(UniPoly([Fraction(-3, 2)]))) == ([-1], [[-1]])


def test_ranked_integer_root():
    p = _with_roots([3, 3, -1])  # (y - 3)^2 (y + 1): two distinct roots
    assert [ranked_integer_root(p, i) for i in (-1, 0, 1, 2)] == [(2, None), (2, -1), (2, 3), (2, None)]
    # three roots in (2, 3]: only the last of them is the integer
    close = UniPoly([Fraction(-7, 3), 1]) * UniPoly([Fraction(-8, 3), 1]) * UniPoly([-3, 1])
    assert [ranked_integer_root(ints(close), i)[1] for i in range(3)] == [None, None, 3]
    # sqrt(10^12 + 1) lies within 10^-6 of the integer 10^6
    near = UniPoly([-(10**12 + 1), 0, 1])
    assert [ranked_integer_root(ints(near), i) for i in range(2)] == [(2, None), (2, None)]
    assert ranked_integer_root(ints(near * UniPoly([-(10**6), 1])), 1) == (3, 10**6)
    assert ranked_integer_root([1, 0, 1], 0) == (0, None)
    assert ranked_integer_root([5], 0) == (0, None)
    with pytest.raises(ZeroPolynomialError):
        ranked_integer_root([], 0)
    # the slot (ceiling, exact) behind each answer, None for a rank out of range
    assert [ranked_root_slot(ints(close), i) for i in range(-1, 4)] == [
        (3, None), (3, (3, False)), (3, (3, False)), (3, (3, True)), (3, None)
    ]
    assert ranked_root_slot(ints(near), 1) == (2, (10**6 + 1, False))


def _sign_changes(cs):
    signs = [c > 0 for c in cs if c]
    return sum(s != t for s, t in zip(signs, signs[1:]))


def _isolated_integer_roots(p, lo, hi):
    """The reference: the integer roots of p in [lo, hi] by isolation plus `integer_in`."""
    if lo > hi:
        return []
    return [k for k in (integer_in(r) for r in isolate_real_roots(p, lo, hi)) if k is not None]


def test_ranked_integer_root_matches_isolation(monkeypatch):
    """Both integer root searches against isolation plus `integer_in`.

    The draw is a product of rational linear factors and a small extra
    factor, or a sparse c0 + c1*y^j + c2*y^d of degree 3 to 6; either may
    then take an x^m factor, a content, zero top coefficients or the
    opposite sign.  On degree 3 to 6 it meets each path of the searches:
    Descartes' bound <= 1 on both half-lines or on one only, and >= 2 on
    some half, which takes Descartes bisection at integer points.  No
    search builds a Sturm chain, and from an empty squarefree cache the
    searches of the draw take 94 squarefree parts, each on a unit gap of
    bound >= 2, and 8 integer gcds.
    """

    def refuse(*args):
        raise AssertionError("the integer walk built a Sturm chain")

    monkeypatch.setattr(unipoly, "integer_squarefree_chain", refuse)
    monkeypatch.setattr(unipoly, "_int_sturm_chain", refuse)
    ops, walked = Counter(), Counter()

    def counted(name, fn):
        def call(*args):
            ops[name] += 1
            return fn(*args)
        return call

    monkeypatch.setattr(unipoly, "squarefree_part", counted("squarefree", squarefree_part))
    monkeypatch.setattr(unipoly, "poly_gcd", counted("gcd", poly_gcd))

    def walk(search, *args):
        """search(*args), its squarefree parts and gcds from an empty cache
        counted in `walked`."""
        before = ops.copy()
        squarefree_part.cache_clear()
        out = search(*args)
        walked.update(ops - before)
        return out

    # bound 4 on (0, inf): the part (0, 1) keeps bound >= 2 down to width 1,
    # where isolation finds 1/4 and 3/4, and the midpoint 1 is a root
    p = [9, -60, 115, -80, 16]  # (4y - 1)(4y - 3)(y - 1)(y - 3)
    assert [ranked_integer_root(p, i) for i in range(-1, 5)] == [(4, None)] * 3 + [(4, 1), (4, 3), (4, None)]
    assert walk(integer_roots, p) == [1, 3] and walked == {"squarefree": 1}
    walked.clear()
    rng = random.Random(23)
    keys = ("both_le1", "pos_le1_only", "neg_le1_only", "bisected", "x_power", "lo_zero", "hi_none",
            "lo_above_bound", "non_primitive", "trailing_zeros", "negative_lead")
    seen = dict.fromkeys(keys, 0)
    for _ in range(1000):
        if rng.random() < 0.6:
            roots = [Fraction(rng.randint(-60, 60), rng.choice([1, 1, 2, 3])) for _ in range(rng.randint(0, 4))]
            p = list(_with_roots(roots, [rng.randint(-9, 9) or 1 for _ in range(rng.randint(1, 3))]))
        else:
            d = rng.randint(3, 6)
            p = [0] * (d + 1)
            p[0] = rng.choice([-1, 1]) * rng.randint(1, 400)
            p[rng.randint(1, d - 1)] = rng.randint(-30, 30)
            p[d] = rng.choice([-1, 1]) * rng.randint(1, 13)
        if rng.random() < 0.2:
            p = [0] * rng.randint(1, 2) + p  # an x^m factor
        if rng.random() < 0.2:
            p = [c * rng.choice([-6, 4, 15]) for c in p]
        if rng.random() < 0.2:
            p = [-c for c in p]
        if rng.random() < 0.15:
            p = p + [0] * rng.randint(1, 2)
        deg = max(i for i, c in enumerate(p) if c)
        bound = unipoly._int_root_bound(p[:deg + 1])  # every root lies in (-bound, bound)
        isolated = isolate_real_roots(p, -bound, bound) if deg >= 1 else []
        n = len(isolated)
        got = [walk(ranked_integer_root, p, i) for i in range(-1, n + 1)]
        assert got == [(n, integer_in(isolated[i]) if 0 <= i < n else None) for i in range(-1, n + 1)], p
        # the Descartes bounds of p with its x^m factor divided out
        m = min(i for i, c in enumerate(p) if c)
        g = p[m:deg + 1]
        v_pos, v_neg = _sign_changes(g), _sign_changes(c if i % 2 == 0 else -c for i, c in enumerate(g))
        assert [k for _, k in got[1:n + 1] if k is not None] == walk(integer_roots, p), p
        lo = rng.randint(-70, 70)
        ranges = [(None, None), (0, rng.choice([None, rng.randint(-5, 70)])),
                  (lo, lo + rng.randint(-3, 80)), (bound + rng.randint(0, 3), None)]
        for lo, hi in ranges:
            lo_c, hi_c = -bound if lo is None else max(lo, -bound), bound if hi is None else min(hi, bound)
            want = _isolated_integer_roots(p, lo_c, hi_c)
            assert walk(integer_roots, p, lo, hi) == want, (p, lo, hi)
            if 3 <= deg <= 6:
                seen["lo_zero"] += lo == 0
                seen["hi_none"] += hi is None
                seen["lo_above_bound"] += lo is not None and lo >= bound
        if 3 <= deg <= 6:
            seen["both_le1"] += v_neg <= 1 and v_pos <= 1
            seen["pos_le1_only"] += v_pos <= 1 < v_neg
            seen["neg_le1_only"] += v_neg <= 1 < v_pos
            seen["bisected"] += max(v_neg, v_pos) >= 2
            seen["x_power"] += m > 0
            seen["non_primitive"] += math.gcd(*p) > 1
            seen["trailing_zeros"] += p[-1] == 0
            seen["negative_lead"] += p[deg] < 0
    assert min(seen.values()) >= 30, seen
    assert walked == {"squarefree": 94, "gcd": 8}, walked


def test_integer_roots_wide_empty_and_constant_ranges():
    p = _with_roots([3, 3, -1])  # Cauchy bound 10
    assert integer_roots(p, -(10**9), 10**9) == [-1, 3]
    assert integer_roots([-7, 1], -100, 100) == [7]  # root next to the bound
    assert integer_roots([7, 1], -7, 100) == [-7]
    assert integer_roots(p, 5, 4) == []
    assert integer_roots(p, 11, 10**6) == []
    assert integer_roots([3]) == []
    assert integer_roots([3], 0, 10) == []


def test_integer_roots_near_integer():
    # sqrt(10^12 + 1) lies within 10^-6 of the integer 10^6
    near = UniPoly([-(10**12 + 1), 0, 1])
    assert integer_roots(ints(near), 1, 10**7) == []
    assert integer_roots(ints(near * UniPoly([-(10**6), 1])), 0, 2 * 10**6) == [10**6]
    # two roots in one width-1 part (10^6, 10^6 + 1]
    assert integer_roots(ints(near * UniPoly([-(10**6 + 1), 1])), 1, 10**7) == [10**6 + 1]


def test_integer_roots_range_matches_isolation():
    rng = random.Random(17)
    for _ in range(300):
        roots = [rng.randint(-30, 30) for _ in range(rng.randint(0, 4))]
        extra = [rng.randint(-9, 9) for _ in range(rng.randint(1, 4))]
        if not any(extra):
            extra = [1]
        p = _with_roots(roots, extra)
        lo = rng.randint(-40, 40)
        hi = lo + rng.randint(-3, 60)
        expected = []
        if lo <= hi:
            found = (integer_in(r) for r in isolate_real_roots(p, lo, hi))
            expected = [k for k in found if k is not None]
        assert integer_roots(p, lo, hi) == expected, (p, lo, hi)


def chain_integer_roots(p, lo=None, hi=None):
    """`integer_roots` on the integer Sturm chain alone, as it was before the
    closed form for degree <= 2."""
    sf, chain = integer_squarefree_chain(p)
    if not sf:
        raise ZeroPolynomialError("zero polynomial has no root enumeration")
    if len(sf) == 1:
        return []
    bound = unipoly._int_root_bound(sf)
    lo = -bound if lo is None else max(lo, -bound)
    hi = bound if hi is None else min(hi, bound)
    if lo > hi:
        return []
    found = [lo] if unipoly._int_eval(sf, lo) == 0 else []
    parts = [(lo, hi, _int_variations(chain, lo), _int_variations(chain, hi))]
    while parts:
        a, b, va, vb = parts.pop()
        if va == vb:
            continue
        if va - vb > 1 and b - a > 1:
            m = (a + b) // 2
            vm = _int_variations(chain, m)
            parts.append((m, b, vm, vb))
            parts.append((a, m, va, vm))
            continue
        sb = unipoly._int_eval(sf, b)
        while sb and b - a > 1:
            m = (a + b) // 2
            sm = unipoly._int_eval(sf, m)
            if sm == 0 or (sm > 0) == (sb > 0):
                b, sb = m, sm
            else:
                a = m
        if sb == 0:
            found.append(b)
    return found


def chain_ranked_integer_root(p, index):
    """`ranked_integer_root` on the integer Sturm chain alone, as it was
    before the closed form for degree <= 2."""
    sf, chain = integer_squarefree_chain(p)
    if not sf:
        raise ZeroPolynomialError("zero polynomial has no root enumeration")
    v_neg = unipoly.sign_variations([-q[-1] if len(q) % 2 == 0 else q[-1] for q in chain])
    n = v_neg - unipoly.sign_variations([q[-1] for q in chain])
    if not 0 <= index < n:
        return n, None
    bound = unipoly._int_root_bound(sf)
    a, b, count_b = -bound, bound, n
    while b - a > 1:
        m = (a + b) // 2
        count_m = v_neg - _int_variations(chain, m)
        if count_m > index:
            b, count_b = m, count_m
        else:
            a = m
    return n, b if count_b == index + 1 and unipoly._int_eval(sf, b) == 0 else None


def _small_cases(rng, count):
    """Polynomials of degree <= 2 as integer lists or `UniPoly`s (some with
    `Fraction` coefficients): constants, lines with integer and non-integer
    roots, and quadratics with square, non-square, zero and negative
    discriminants, either sign of the leading coefficient."""
    cases = []
    for _ in range(count):
        kind = rng.randrange(6)
        if kind == 0:
            f = [rng.choice([-7, -1, 2, 9])]
        elif kind == 1:
            f = [rng.randint(-40, 40), rng.choice([-6, -3, -1, 1, 2, 5])]
        elif kind == 2:  # integer or rational roots: a square discriminant
            r, s = rng.randint(-20, 20), rng.randint(-20, 20)
            d = rng.choice([1, 1, 2, 3])
            f = [r * s, -(r + s * d), d]
        elif kind == 3:  # a double root: a zero discriminant
            r, d = rng.randint(-20, 20), rng.choice([1, 1, 2, 4])
            f = [r * r, -2 * r * d, d * d]
        elif kind == 4:  # irrational roots: a positive non-square discriminant
            m = rng.choice([2, 3, 5, 7, 10**12 + 1])
            f = [-m, 0, 1] if rng.random() < 0.5 else [rng.randint(-9, 9), rng.randint(-9, 9) * 2 + 1, 1]
        else:  # no real root
            f = [rng.randint(1, 30), rng.randint(-3, 3), rng.randint(1, 5)]
        k = rng.choice([1, 1, -1, -3, 6])
        f = [c * k for c in f]
        roll = rng.random()
        if roll < 0.3:
            cases.append(UniPoly(f))
        elif roll < 0.5:
            cases.append(UniPoly([Fraction(c, 6) for c in f]))
        else:
            cases.append(f)
    return cases


def test_closed_form_matches_chain_route():
    rng = random.Random(412)
    seen = {"square": 0, "nonsquare": 0, "zero": 0, "negative": 0, "linear": 0, "constant": 0,
            "negative_lead": 0, "fraction": 0, "bound_on_root": 0, "rank_out": 0, "non_primitive": 0}
    for p in _small_cases(rng, 600):
        f = primitive_ints(p.coeffs) if isinstance(p, UniPoly) else p
        # the closed forms take no content division: non-primitive multiples
        k = rng.choice([-6, 4, 15])
        multiples = [f, [c * k for c in f]]
        n = chain_ranked_integer_root(f, 0)[0]
        for index in range(-1, n + 2):
            for g in multiples:
                assert ranked_integer_root(g, index) == chain_ranked_integer_root(f, index), (g, index)
            seen["rank_out"] += not 0 <= index < n
        want = chain_integer_roots(f)
        assert [integer_roots(g) for g in multiples] == [want, want], p
        seen["non_primitive"] += math.gcd(*f) > 1
        ends = {rng.randint(-25, 25) for _ in range(3)} | set(want)
        for lo in sorted(ends) + [None]:
            for hi in sorted(ends) + [None]:
                got = integer_roots(f, lo, hi)
                assert got == chain_integer_roots(f, lo, hi), (p, lo, hi)
                seen["bound_on_root"] += bool(set(got) & {lo, hi})
        if len(f) == 3:
            disc = f[1] ** 2 - 4 * f[0] * f[2]
            key = "negative" if disc < 0 else "zero" if disc == 0 else (
                "square" if math.isqrt(disc) ** 2 == disc else "nonsquare")
            seen[key] += 1
        else:
            seen["linear" if len(f) == 2 else "constant"] += 1
        seen["negative_lead"] += f[-1] < 0
        seen["fraction"] += isinstance(p, UniPoly) and any(c.denominator > 1 for c in p.coeffs)
    assert min(seen.values()) >= 30, seen


def test_closed_form_builds_no_chain(monkeypatch):
    def refuse(*args):
        raise AssertionError("a chain was built for a polynomial of degree <= 2")

    monkeypatch.setattr(unipoly, "integer_squarefree_chain", refuse)
    monkeypatch.setattr(unipoly, "_int_sturm_chain", refuse)
    assert integer_roots([-30, 1, 1]) == [-6, 5]
    assert integer_roots(ints(UniPoly([Fraction(-1, 2), 0, Fraction(1, 8)])), 0, 2) == [2]
    assert ranked_integer_root([49, -14, 1], 0) == (1, 7)  # (y - 7)^2
    assert ranked_integer_root([-2, 0, -1], 0) == (0, None)
    assert ranked_integer_root([2, 0, -1], 1) == (2, None)
    assert ranked_integer_root([-12, -4, 3], 1) == (2, None)  # roots -4/3 and 3, in order
    assert ranked_integer_root([-12, -5, -3], 0) == (0, None)
    assert ranked_integer_root([12, 5, -3], 1) == (2, 3)  # -(3y + 4)(y - 3)
    assert integer_roots([7, -2]) == [] and integer_roots([8, -2]) == [4]
    with pytest.raises(ZeroPolynomialError):
        integer_roots([])


def test_descartes_certified_searches_build_no_chain(monkeypatch):
    """Columns with at most one root on each half-line take no chain: the
    oracle on cubic and quintic power curves, and rank searches on quartic
    (two real roots) and quintic (one) columns."""

    def refuse(*args):
        raise AssertionError("a chain was built for a column with Descartes bound <= 1 on each half")

    monkeypatch.setattr(unipoly, "integer_squarefree_chain", refuse)
    monkeypatch.setattr(unipoly, "_int_sturm_chain", refuse)
    n_box = 1000
    for c, k in ((13, 3), (12, 5)):
        want = sum(1 for y in range(1, n_box + 1) if c * y**k <= n_box)
        assert brute_force_count(parse(f"x - {c}*y^{k}"), n_box)[0] == want
    quartic, quintic = parse("x - 24*y^4"), parse("x - 11*y^5")
    for x0 in range(1, 2000):
        root = next((y for y in range(1, 5) if 24 * y**4 == x0), None)
        column = quartic.int_column(x0)
        assert ranked_integer_root(column, 0) == (2, None if root is None else -root), x0
        assert ranked_integer_root(column, 1) == (2, root), x0
        root = next((y for y in range(1, 5) if 11 * y**5 == x0), None)
        assert ranked_integer_root(quintic.int_column(x0), 0) == (1, root), x0
    assert ranked_integer_root(quartic.int_column(24 * 3**4), 1) == (2, 3)
    assert ranked_integer_root(quintic.int_column(11 * 2**5), 0) == (1, 2)


# -- k-th roots -----------------------------------------------------------------------


@pytest.mark.parametrize(
    "v,k,expected",
    [(8, 3, 2), (9, 2, 3), (120000, 15, 3), (1, 1, 1), (Fraction(1, 2), 3, 1)],
)
def test_kth_root_examples(v, k, expected):
    assert integer_kth_root_ceiling(v.numerator, v.denominator, k) == expected


@given(
    st.integers(min_value=1, max_value=10**9),
    st.integers(min_value=1, max_value=1000),
    st.integers(min_value=1, max_value=12),
)
def test_kth_root_property(num, den, k):
    v = Fraction(num, den)
    m = integer_kth_root_ceiling(num, den, k)
    assert Fraction(m) ** k >= v
    if m >= 1:
        assert Fraction(m - 1) ** k < v


# -- misc helpers -----------------------------------------------------------------------


def test_poly_gcd_and_squarefree():
    p = UniPoly([-1, 0, 1])  # (x-1)(x+1)
    q = UniPoly([-1, 1]) * UniPoly([-1, 1]) * UniPoly([1, 1])
    assert poly_gcd(ints(p), ints(q)) == [-1, 0, 1]  # (x-1)(x+1)
    assert poly_gcd([2, 0, -2], [6, -6]) == [-1, 1]  # primitive, leading coefficient positive
    assert poly_gcd([], [0, -3]) == [0, 1] and poly_gcd([], []) == []
    assert poly_gcd([-4, 0, 2], [3, 1]) == [1]
    sf = UniPoly(squarefree_part(ints(q)))
    assert sf.degree == 2
    assert count_real_roots(ints(q), -2, 2) == 2


def test_sup_bound_certifies():
    p = UniPoly([0, 0, 1])  # x^2
    b = poly_sup_bound(p, Fraction(0), Fraction(3))
    assert b >= 9
    assert b <= 12  # reasonably tight


def test_all_real_roots_finds_every_root():
    roots = all_real_roots([-6, 11, -6, 1])  # (x-1)(x-2)(x-3)
    assert [integer_in(r) for r in roots] == [1, 2, 3]
    roots = all_real_roots(_with_roots([10**6, -3]))
    assert [integer_in(r) for r in roots] == [-3, 10**6]
    # (3x - 1)^2 (x^2 - 2): -sqrt(2) < 1/3 < sqrt(2), the double root once
    p = UniPoly([-1, 3]) ** 2 * UniPoly([-2, 0, 1])
    low, third, high = all_real_roots(ints(p))
    assert low.hi <= third.lo and third.hi <= high.lo
    assert low.hi <= 0 and low.lo * low.lo >= 2 >= low.hi * low.hi
    assert third.lo <= Fraction(1, 3) <= third.hi
    assert 0 <= high.lo and high.lo * high.lo <= 2 <= high.hi * high.hi
    assert all_real_roots([5]) == []
    with pytest.raises(ZeroPolynomialError):
        all_real_roots([])


# -- Descartes certificates ------------------------------------------------------------


def sturm_only_count(p, lo, hi):
    """`count_real_roots` as it was before the Descartes certificates: every
    count on the Sturm chain of p's squarefree part."""
    sf, chain = integer_squarefree_chain(p)
    return (_rat_eval(sf, lo) == 0) + _int_variations(chain, lo) - _int_variations(chain, hi)


def sturm_only_isolation(p, lo, hi):
    """`isolate_real_roots` as it was before the Descartes certificates,
    splitting at midpoints and taking a root there as exact."""
    lo, hi = Fraction(lo), Fraction(hi)
    sf, chain = integer_squarefree_chain(p)
    ends = [e for e in ((lo, hi) if hi > lo else (lo,)) if _rat_eval(sf, e) == 0]
    out = [RootInterval(e, e, tuple(sf)) for e in ends]
    inner = sf
    for e in ends:
        inner = int_exact_quotient(inner, [-e.numerator, e.denominator])
    if hi == lo or len(inner) < 2:
        return out
    # V(a) - V(b) counts the roots of sf in (a, b], so a root at b reported
    # exact is taken off
    exact = set(ends)

    def split(g, a, b, va, vb):
        k = va - vb - (b in exact)
        if k == 0:
            return
        if k == 1:
            out.append(RootInterval(a, b, tuple(g)))
            return
        m = (a + b) / 2
        if _rat_eval(g, m) == 0:
            out.append(RootInterval(m, m, tuple(g)))
            exact.add(m)
            g = int_exact_quotient(g, [-m.numerator, m.denominator])
        vm = _int_variations(chain, m)
        split(g, a, m, va, vm)
        split(g, m, b, vm, vb)

    split(inner, lo, hi, _int_variations(chain, lo), _int_variations(chain, hi))
    return sorted(out, key=lambda r: r.lo)


def sturm_only_same_root(a, b):
    """`_same_root` as it was before its sign tests."""
    lo, hi = max(a.lo, b.lo), min(a.hi, b.hi)
    if lo > hi:
        return False
    g = a.polynomial if a.polynomial == b.polynomial else poly_gcd(a.polynomial, b.polynomial)
    return len(g) >= 2 and sturm_only_count(g, lo, hi) > 0


def _certificate_cases(rng, count):
    """(p, lo, hi) with repeated roots, rational roots of multiplicity >= 2 at
    a domain end, c*x^n - d binomials, domains with lo < 0 and lo == hi."""
    cases = []
    while len(cases) < count:
        kind = rng.randrange(4)
        if kind == 0:  # random dense polynomial, sometimes squared in part
            p = UniPoly([rng.randint(-9, 9) for _ in range(rng.randint(1, 7))] + [rng.randint(1, 9)])
            if rng.random() < 0.4:
                p = p * UniPoly([rng.randint(-5, 5), rng.randint(1, 3)]) ** 2
        elif kind == 1:  # rational roots with multiplicities, ends often on one
            roots = [Fraction(rng.randint(-12, 12), rng.randint(1, 4)) for _ in range(rng.randint(1, 4))]
            p = UniPoly([rng.choice([-3, -1, 2, 5])])
            for r in roots:
                p = p * UniPoly([-r.numerator, r.denominator]) ** rng.randint(1, 3)
            if rng.random() < 0.5:
                p = p * UniPoly([Fraction(-2, 3), 0, 1])
        elif kind == 2:  # c*x^n - d, the partition workload's x - c*y^k columns
            n = rng.randint(1, 40)
            p = UniPoly([-rng.randint(1, 10**6)] + [0] * (n - 1) + [rng.randint(1, 50)])
            p = p * rng.choice([1, -1])
        else:  # clustered roots that need several splits
            base = rng.randint(-20, 20)
            p = UniPoly([1])
            for _ in range(rng.randint(2, 5)):
                p = p * UniPoly([-(base * 7 + rng.randint(-3, 3)), 7])
            p = p * UniPoly([rng.randint(1, 30), 0, rng.choice([-1, 1])])
        ends = []
        for _ in range(2):
            roll = rng.random()
            if roll < 0.3 and kind == 1:
                ends.append(rng.choice(roots))
            elif roll < 0.5:
                ends.append(Fraction(rng.randint(0, 60), rng.randint(1, 3)))
            else:
                ends.append(Fraction(rng.randint(-60, 60), rng.randint(1, 3)))
        if rng.random() < 0.06:
            ends[1] = ends[0]
        cases.append((p, min(ends), max(ends)))
    return cases


def test_isolation_and_count_match_sturm_only_reference():
    rng = random.Random(1976)
    seen = {"negative_lo": 0, "point": 0, "end_multiple_root": 0, "binomial": 0, "repeated": 0, "midpoint_root": 0}
    cases = _certificate_cases(rng, 400)
    # domains whose midpoints of successive halvings hold roots
    cases += [(UniPoly(r.polynomial), r.lo, r.hi) for r in _midpoint_root_brackets(rng, 60)]
    for p, lo, hi in cases:
        got, want = isolate_real_roots(ints(p), lo, hi), sturm_only_isolation(ints(p), lo, hi)
        seen["midpoint_root"] += sum(r.is_exact() and lo < r.lo < hi for r in got)
        assert [(r.lo, r.hi) for r in got] == [(r.lo, r.hi) for r in want], (p, lo, hi)
        assert count_real_roots(ints(p), lo, hi) == sturm_only_count(ints(p), lo, hi) == len(want), (p, lo, hi)
        for r, s in zip(got, want):
            if r.is_exact():
                assert p.evaluate(r.lo) == 0
                continue
            # the bracket polynomial may keep repeated roots outside the bracket,
            # but refines to the same brackets as the squarefree one
            assert UniPoly(r.polynomial).evaluate(r.lo) * UniPoly(r.polynomial).evaluate(r.hi) < 0
            for w in ((r.hi - r.lo) / 5, Fraction(1, 10**4)):
                a, b = refine_root(r, w), refine_root(s, w)
                assert (a.lo, a.hi) == (b.lo, b.hi)
        sf = UniPoly(squarefree_part(ints(p)))
        seen["negative_lo"] += lo < 0
        seen["point"] += lo == hi
        seen["repeated"] += sf.degree < p.degree
        seen["binomial"] += sum(1 for c in p.coeffs if c) == 2 and p.degree > 2
        seen["end_multiple_root"] += any(
            p.evaluate(e) == 0 and (p // UniPoly([-e, 1])).evaluate(e) == 0 for e in (lo, hi)
        )
    assert min(seen.values()) >= 15, seen


def test_same_root_matches_sturm_only_reference():
    rng = random.Random(2004)
    agree = {True: 0, False: 0}
    for p, lo, hi in _certificate_cases(rng, 150):
        q = p * UniPoly([rng.randint(-9, 9), rng.randint(1, 4)])
        brackets = isolate_real_roots(ints(p), lo, hi) + isolate_real_roots(ints(q), lo - 1, hi + 1)
        brackets += [refine_root(r, (r.hi - r.lo) / 3) for r in brackets if not r.is_exact()]
        for a in brackets:
            for b in brackets:
                want = sturm_only_same_root(a, b)
                assert _same_root(a, b) == want, (a, b)
                agree[want] += 1
    assert min(agree.values()) > 200, agree


def test_same_root_modular_coprimality(monkeypatch):
    """Near-equal roots of coprime polynomials in identical brackets are told
    apart with no integer gcd; a prime dividing a leading coefficient is
    skipped, since the reduction modulo it can lose a common factor."""
    m31 = unipoly._GCD_PRIMES[0]
    sqrt2 = UniPoly([-2, 0, 1])
    near = UniPoly([-(2 * 10**9 + 1), 0, 10**9])  # sqrt(2 + 10^-9)
    common = UniPoly([1, m31])  # the root -1/m31 vanishes modulo m31
    cases = [
        (sqrt2, near, 1, 2, False),
        (sqrt2 * UniPoly([0, m31]) + UniPoly([1]), near, 1, 2, False),
        (common * UniPoly([-2, 1]), common * UniPoly([-3, 1]), -1, 0, True),
    ]
    gcd_calls = []

    def counted(a, b):
        gcd_calls.append((a, b))
        return poly_gcd(a, b)

    monkeypatch.setattr(reference_helpers, "poly_gcd", counted)
    for p, q, lo, hi, want in cases:
        (a,), (b,) = isolate_real_roots(ints(p), lo, hi), isolate_real_roots(ints(q), lo, hi)
        a, b = refine_root(a, Fraction(1, 10**4)), refine_root(b, Fraction(1, 10**4))
        assert (a.lo, a.hi) == (b.lo, b.hi) and a.polynomial != b.polynomial
        gcd_calls.clear()
        assert _same_root(a, b) == sturm_only_same_root(a, b) == want
        # coprime pairs are decided modulo a prime; a common factor needs the gcd
        assert len(gcd_calls) == (1 if want else 0)
    # the first prime divides the leading coefficient m31 of f, and the second
    # proves f and g coprime; the first alone would lose the factor (m31*x + 1)
    f, g = primitive_ints((common * UniPoly([-2, 1])).coeffs), primitive_ints((common * UniPoly([-3, 1])).coeffs)
    assert f[-1] % m31 == 0 and not unipoly._coprime_mod_p(f, g)
    assert unipoly._coprime_mod_p(f, [-3, 1]) and unipoly._coprime_mod_p([-5, 0, 1], [-2, 0, 1])
    assert not unipoly._coprime_mod_p([-4, 0, 1], [2, 1])


def _true_open_count(factors, lo, hi):
    """Roots of a product of (x - r)^m and x^2 - q in (lo, hi), counted with
    multiplicity, for rational r and positive rational q; +-sqrt(q) is
    compared with lo and hi exactly through squares."""
    count = 0
    for kind, value, mult in factors:
        if kind == "linear":
            count += mult * (lo < value < hi)
            continue
        plus = (lo < 0 or lo * lo < value) and (hi > 0 and hi * hi > value)
        minus = (lo < 0 and lo * lo > value) and (hi >= 0 or hi * hi < value)
        count += mult * (plus + minus)
    return count


def test_affine_image_matches_a_fraction_reference():
    """affine_image(p, a, w, d, n) is d^n * p((a + w*t)/d), expanded here
    binomially in `Fraction`s, with n above deg p, negative w, and d = 1, a
    power of two and neither."""
    rng = random.Random(23)
    padded = negative = 0
    for d in (1, 16, 12):
        for _ in range(60):
            p = [rng.randint(-9, 9) for _ in range(rng.randint(1, 7))]
            n = len(p) - 1 + rng.randint(0, 2)
            a, w = rng.randint(-30, 30), rng.choice([-1, 1]) * rng.randint(1, 12)
            want = [Fraction(0)] * (n + 1)
            for k, c in enumerate(p):
                for m in range(k + 1):
                    want[m] += c * math.comb(k, m) * Fraction(a, d) ** (k - m) * Fraction(w, d) ** m * d**n
            assert affine_image(p, a, w, d, n) == want, (p, a, w, d, n)
            padded += n > len(p) - 1
            negative += w < 0
    assert padded > 60 and negative > 60


def test_graeffe_step_squares_integer_roots():
    """One root-squaring step of prod (w - r_j) over integer roots r_j, with
    repeats and zero, is +-prod (w - r_j^2): the sign is (-1)^n."""
    rng = random.Random(27)
    for _ in range(80):
        roots = [rng.randint(-9, 9) for _ in range(rng.randint(0, 7))]
        sign = (-1) ** len(roots)
        assert graeffe_step(_with_roots(roots)) == [sign * c for c in _with_roots([r * r for r in roots])], roots
    assert graeffe_step([]) == []


def test_descartes_bound_is_an_upper_bound_of_the_same_parity():
    rng = random.Random(162)
    decided = {0: 0, 1: 0, "more": 0}
    for _ in range(400):
        factors = []
        p = UniPoly([rng.choice([-5, -2, 1, 3])])
        for _ in range(rng.randint(1, 5)):
            if rng.random() < 0.6:
                r = Fraction(rng.randint(-15, 15), rng.randint(1, 3))
                m = rng.randint(1, 3)
                factors.append(("linear", r, m))
                p = p * UniPoly([-r, 1]) ** m
            else:
                q = Fraction(rng.randint(1, 200), rng.randint(1, 3))
                factors.append(("square", q, 1))
                p = p * UniPoly([-q, 0, 1])
        if rng.random() < 0.3:
            p = p * UniPoly([5, 2, 1])  # no real root
        f = unipoly.primitive_ints(p.coeffs)
        lo = Fraction(rng.randint(-40, 40), rng.randint(1, 3))
        hi = lo + Fraction(rng.randint(1, 60), rng.randint(1, 3))
        if _rat_eval(f, lo) == 0 or _rat_eval(f, hi) == 0:
            continue
        v = descartes_bound(f, lo, hi)
        true = _true_open_count(factors, lo, hi)
        assert v >= true and (v - true) % 2 == 0, (p, lo, hi, v, true)
        decided[v if v <= 1 else "more"] += 1
    assert min(decided.values()) > 40, decided


def test_descartes_bound_matches_its_former_half_line_shortcut():
    """On seeded (f, lo, hi) with 0 <= lo < hi, f nonzero at both ends,
    `descartes_bound` gives the v of its former shortcut
    (`half_line_descartes_bound`), which read f's own sign variations when
    they were at most 1: the Moebius count on (lo, hi) never exceeds the
    count on (0, inf) and has the parity of the roots in (lo, hi)."""
    rng = random.Random(164)
    regime = Counter()
    for _ in range(600):
        p = UniPoly([rng.choice([-5, -2, 1, 3])])
        for _ in range(rng.randint(1, 5)):
            if rng.random() < 0.6:
                p = p * UniPoly([-Fraction(rng.randint(-30, 12), rng.randint(1, 3)), 1]) ** rng.randint(1, 2)
            else:
                p = p * UniPoly([-Fraction(rng.randint(1, 200), rng.randint(1, 3)), 0, 1])
        if rng.random() < 0.3:
            p = p * UniPoly([5, 2, 1])  # no real root
        f = unipoly.primitive_ints(p.coeffs)
        lo = Fraction(rng.randint(0, 40), rng.randint(1, 3))
        hi = lo + Fraction(rng.randint(1, 40), rng.randint(1, 3))
        if _rat_eval(f, lo) == 0 or _rat_eval(f, hi) == 0:
            continue
        v = descartes_bound(f, lo, hi)
        assert v == half_line_descartes_bound(f, lo, hi), (f, lo, hi)
        regime[min(unipoly.sign_variations(f), 2), min(v, 2)] += 1
    # the shortcut's regime, with no root and with one root in (lo, hi)
    assert min(regime[0, 0], regime[1, 0], regime[1, 1]) >= 30, regime


def test_certified_domains_build_no_chain(monkeypatch):
    def no_chain(*args):
        raise AssertionError("root isolation must not build a Sturm chain")

    monkeypatch.setattr(unipoly, "_int_sturm_chain", no_chain)
    sturm_chain.cache_clear()
    p = ints(UniPoly([-2, 0, 1]) * UniPoly([-3, 1]) ** 2)  # (x^2 - 2)(x - 3)^2
    # v = 0: no root in (2, 3), a double root at the end 3, none in (-1, 1)
    [three] = isolate_real_roots(p, 2, 3)
    assert three.is_exact() and three.lo == 3
    assert count_real_roots(p, 2, 3) == 1
    assert isolate_real_roots(p, -1, 1) == [] and count_real_roots(p, -1, 1) == 0
    # v = 1: one simple root, the bracket is the whole domain
    [r] = isolate_real_roots(p, 1, 2)
    assert (r.lo, r.hi) == (1, 2) and count_real_roots(p, 1, 2) == 1
    [r] = isolate_real_roots(p, -2, 0)
    assert (r.lo, r.hi) == (-2, 0) and count_real_roots(p, -2, 0) == 1
    assert root_slot(r) == root_slot(refine_root(r, Fraction(1, 2))) == (-1, False)
    # x - c*y^k binomials: one sign variation on a domain with lo >= 0
    binomial = [-(10**6)] + [0] * 86 + [7]
    assert count_real_roots(binomial, 0, 2) == 1 and count_real_roots(binomial, 2, 3) == 0
    # v >= 2: the domain is split until each part has v <= 1
    assert [integer_in(r) for r in isolate_real_roots(p, 0, 4)] == [None, 3]
    assert count_real_roots(p, 0, 4) == 2 and len(all_real_roots(p)) == 3
    assert sturm_chain.cache_info().currsize == 0


def test_squarefree_part_matches_integer_chain(monkeypatch):
    """`squarefree_part` against the Sturm builder's squarefree part, up to
    sign: on the certificate cases, on x^m times each, and with a leading
    coefficient that every prime of `_GCD_PRIMES` divides, where only the
    integer gcd decides."""
    rng = random.Random(1976)
    every_prime = math.prod(unipoly._GCD_PRIMES)
    gcd_calls = []

    def counted(a, b):
        gcd_calls.append((a, b))
        return poly_gcd(a, b)

    monkeypatch.setattr(unipoly, "poly_gcd", counted)
    shapes = {"x^m": 0, "fallback": 0, "repeated": 0}
    for p, _, _ in _certificate_cases(rng, 117):
        for q in (p, p * UniPoly([0, 1]) ** rng.randint(1, 40), p * UniPoly([1, every_prime])):
            f = ints(q)
            squarefree_part.cache_clear()
            gcd_calls.clear()
            got = squarefree_part(f)
            want = integer_squarefree_chain(f)[0]
            assert list(got) in (want, [-c for c in want]), q
            assert got[-1] * f[-1] > 0, q
            if f[-1] % every_prime == 0:
                assert len(gcd_calls) == 1, q
                shapes["fallback"] += 1
            shapes["x^m"] += f[0] == 0 and f[1] == 0
            shapes["repeated"] += len(got) < len(f) and f[0] != 0
    assert min(shapes.values()) >= 40, shapes
    # x^m times a squarefree polynomial is proved squarefree modulo a prime

    def refuse(*args):
        raise AssertionError("a squarefree rest needs no integer gcd")

    monkeypatch.setattr(unipoly, "poly_gcd", refuse)
    squarefree_part.cache_clear()
    rest = UniPoly([-2, 0, 1]) * UniPoly([5, 3]) * UniPoly([-(10**6)] + [0] * 86 + [7])
    assert squarefree_part(ints(UniPoly([0, 1]) ** 41 * rest)) == ints(UniPoly([0, 1]) * rest)


def test_root_slot_matches_count_real_roots():
    """On isolating brackets at several refinements, `root_slot` gives the
    ceiling c of the root and whether the root is c, by integer sign tests
    inside the bracket.  The reference is the least integer k >= ceil(lo)
    for which [lo, min(k, hi)] holds a root by `count_real_roots`, and one
    evaluation at it when it lies in the bracket.  The floor of the root is c, or c - 1 when the root is
    not c."""
    rng = random.Random(87)
    seen = {"exact": 0, "gap": 0, "bisected": 0, "no_integer": 0}
    for p, lo, hi in _certificate_cases(rng, 300):
        for r in isolate_real_roots(ints(p), lo, hi):
            for s in (r, refine_root(r, 1), refine_root(r, Fraction(1, 3)), refine_root(r, (r.hi - r.lo) / 7 or 1)):
                k = math.ceil(s.lo)
                while count_real_roots(s.polynomial, s.lo, min(Fraction(k), s.hi)) == 0:
                    k += 1
                exact = k <= s.hi and UniPoly(s.polynomial).evaluate(k) == 0
                assert root_slot(s) == (k, exact), s
                seen["exact" if exact else "gap"] += 1
                seen["bisected"] += math.ceil(s.lo) < k <= math.floor(s.hi) - 1
                seen["no_integer"] += math.ceil(s.lo) > math.floor(s.hi)
    assert min(seen.values()) > 50, seen


# -- the one column reader ---------------------------------------------------


def _slot_reader_cases(rng, count):
    """Seeded integer polynomials of degree 1 to 8, as products of factors
    around a random centre a, near 0 or near 10^6: an integer root, a
    rational one, twins in one unit gap (rational or irrational), an
    integer root at a gap's lower end with a root just above it, an
    irrational pair in two gaps, a square of any of these, and a factor
    with no real root; sometimes with a content or the opposite sign."""

    def factor(a):
        kind = rng.randrange(7)
        if kind == 0:
            return UniPoly([-a, 1])
        if kind == 1:
            q = rng.choice([2, 3, 5, 7])
            return UniPoly([-(q * a + rng.randint(1, q - 1)), q])
        if kind == 2:  # two rational roots in (a, a + 1)
            return UniPoly([-(10 * a + 3), 10]) * UniPoly([-(10 * a + 6), 10])
        if kind == 3:  # (a + 1/2) +- sqrt(2)/10, both in (a, a + 1)
            return UniPoly([-(2 * a + 1), 2]) ** 2 * 25 - UniPoly([2])
        if kind == 4:  # a, and a + 1/3 in the gap above it
            return UniPoly([-a, 1]) * UniPoly([-(3 * a + 1), 3])
        if kind == 5:  # a +- sqrt(2), in two gaps
            return UniPoly([-a, 1]) ** 2 - UniPoly([2])
        return UniPoly([a * a + 1, -2 * a, 1])  # (y - a)^2 + 1

    out = []
    while len(out) < count:
        centre = rng.choice([0, 0, 10**6, -(10**6)])
        p = UniPoly([rng.choice([1, -1, 3, -4])])
        for _ in range(rng.randint(1, 4)):
            f = factor(centre + rng.randint(-12, 12))
            p = p * (f ** 2 if rng.random() < 0.2 else f)
        if 1 <= p.degree <= 8:
            out.append([int(c) for c in p.coeffs] if all(c.denominator == 1 for c in p.coeffs) else list(ints(p)))
    return out


def _range_end(rng, roots, default):
    """None, or an integer at, next to or away from a root of the list."""
    if rng.random() < 0.35 or not roots:
        return None
    r = rng.choice(roots)
    return math.floor(r) + rng.choice([-3, -1, 0, 0, 1, 2]) if rng.random() < 0.8 else default


def test_root_slots_match_isolation():
    """`root_slots(p, lo, hi)` is the slot of every isolated root of p in
    [lo, hi], in order, with an integer root bound standing in for an end
    that is None: on seeded polynomials of degree 1 to 8 with twins in one
    unit gap, integer roots at a gap's lower end, repeated factors and roots
    near 10^6, over ranges with either end None."""
    rng = random.Random(44)
    seen = dict.fromkeys(("twins", "lower_end", "repeated", "near_1e6", "lo_none", "hi_none", "both_none"), 0)
    for p in _slot_reader_cases(rng, 250):
        bound = 2 + max(map(abs, p[:-1])) // abs(p[-1])  # every root lies in (-bound, bound)
        whole = isolate_real_roots(p, -bound, bound)
        centres = [r.lo for r in whole]
        for _ in range(3):
            lo, hi = _range_end(rng, centres, -bound), _range_end(rng, centres, bound)
            if lo is not None and hi is not None and lo > hi:
                lo, hi = hi, lo
            a, b = -bound if lo is None else lo, bound if hi is None else hi
            want = [root_slot(r) for r in isolate_real_roots(p, a, b)] if a <= b else []
            assert root_slots(p, lo, hi) == want, (p, lo, hi)
            seen["lo_none" if hi is not None else "both_none" if lo is None else "hi_none"] += lo is None or hi is None
            seen["twins"] += any(x == y and not x[1] for x, y in zip(want, want[1:]))
            seen["lower_end"] += any(x[1] and y == (x[0] + 1, False) for x, y in zip(want, want[1:]))
            seen["near_1e6"] += any(abs(c) > 10**6 - 20 for c, _ in want)
        seen["repeated"] += squarefree_part(ints(UniPoly(p))) != ints(UniPoly(p))
    assert min(seen.values()) >= 10, seen
    assert root_slots([-3, 1], 3, 3) == [(3, True)] and root_slots([-3, 1], 4) == root_slots([-3, 1], None, 2) == []
    assert root_slots([-7, 2], 3, 4) == [(4, False)] and root_slots([-7, 2], 4, 5) == []
    assert root_slots([5]) == [] and root_slots([1, 0, 1]) == []


def test_slot_runs_tile_the_range_between_the_roots():
    """`slot_runs(root_slots(p, lo, hi), lo, hi)` on seeded polynomials and
    ranges around their roots: the runs tile lo..hi in order; they are the
    maximal stretches of integers with equally many roots below, each
    integer root a run of its own, so an exact slot is its own run and a
    gap that holds no integer of the range gives no run; and a run of two
    or more points holds no root."""
    rng = random.Random(47)
    seen = Counter()
    for p in _slot_reader_cases(rng, 200):
        bound = 2 + max(map(abs, p[:-1])) // abs(p[-1])
        centres = [r.lo for r in isolate_real_roots(p, -bound, bound)] or [0]
        for _ in range(3):
            lo = math.floor(rng.choice(centres)) + rng.choice([-6, -1, 0, 0, 1])
            hi = lo + rng.randint(0, 20)
            slots = root_slots(p, lo, hi)
            runs = slot_runs(slots, lo, hi)
            assert [a for a, _ in runs] == [lo] + [b + 1 for _, b in runs[:-1]] and runs[-1][1] == hi, (p, lo, hi)

            def key(k):  # (roots below k, whether k is a root)
                return sum(c < k or c == k and not exact for c, exact in slots), (k, True) in slots

            want = [(grp[0], grp[-1]) for _, g in itertools.groupby(range(lo, hi + 1), key) for grp in [list(g)]]
            assert runs == want, (p, lo, hi)
            assert all((c, c) in runs for c, exact in slots if exact), (p, lo, hi)
            assert all(count_real_roots(p, a, b) == 0 for a, b in runs if a < b), (p, lo, hi)
            seen["exact"] += any(exact for _, exact in slots)
            seen["twins"] += any(x == y and not x[1] for x, y in zip(slots, slots[1:]))
            seen["empty_gap"] += any(x[1] and y == (x[0] + 1, False) for x, y in zip(slots, slots[1:]))
            seen["long_runs"] += sum(a < b for a, b in runs) >= 2
    assert min(seen.values()) >= 10, seen
    assert slot_runs([(3, True), (4, False)], 0, 6) == [(0, 2), (3, 3), (4, 6)]
    assert slot_runs([(5, False), (5, False)], 2, 9) == [(2, 4), (5, 9)]
    assert slot_runs([(2, True), (9, True)], 2, 9) == [(2, 2), (3, 8), (9, 9)]
    assert slot_runs([(3, False), (4, False)], 2, 4) == [(2, 2), (3, 3), (4, 4)]
    assert slot_runs([], 4, 4) == [(4, 4)]


def test_slot_bracket_reads_the_root_of_the_whole_line_bracket():
    """For every root j, `slot_bracket(p, root_slots(p), j)` isolates the
    same root as bracket j of the whole-line isolation: an exact slot c is
    [c, c], a gap slot a bracket inside its unit gap, and the two give the
    same `sign_at_root` for seeded v, among them factors of p, so zeros
    occur too."""
    rng = random.Random(45)
    signs = Counter()
    for p in _slot_reader_cases(rng, 150):
        slots = root_slots(p)
        whole = all_real_roots(p)
        assert len(whole) == len(slots), p
        vs = [[rng.randint(-9, 9) for _ in range(rng.randint(1, 4))] for _ in range(3)]
        vs += [list(ints(UniPoly([-r.lo, 1]))) for r in whole if r.is_exact()][:2]
        vs += [[-(2 * c - 1), 2] for c, exact in slots if not exact][:1]
        for j, ((c, exact), ref) in enumerate(zip(slots, whole)):
            got = slot_bracket(p, slots, j)
            if exact:
                assert got.lo == got.hi == c, (p, j)
            else:
                assert c - 1 <= got.lo and got.hi <= c and not (got.is_exact() and got.lo == c - 1), (p, j)
            assert root_slot(got) == root_slot(ref) == (c, exact), (p, j)
            for v in vs:
                s = sign_at_root(got, v)
                assert s == sign_at_root(ref, v), (p, j, v)
                signs[s] += 1
    assert min(signs[s] for s in (-1, 0, 1)) >= 20, signs
