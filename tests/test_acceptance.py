"""Acceptance gate: every criterion prints one PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines."""

import math
import random
import time
from fractions import Fraction

import pytest

from latcurve.branch import (
    graph_decompose,
    hk_sequence,
    partition_by_bounds,
)
from latcurve.counting import (
    CommonComponentError,
    bezout_intersect,
    brute_force_count,
    determinant_method_count,
)
from latcurve.detmethod import DerivativeBoundSpec, extract_cover_curve
from latcurve.jarnik import convex_slope_check, jarnik_construct
from latcurve.monomials import full_set, punctured_set
from latcurve.poly2 import BiPoly, corner_index, parse, partial

from fraction_bipoly import evaluate_bipoly
from fraction_unipoly import UniPoly
from reference_helpers import (
    fraction_determinant,
    integer_hull,
    interpolation_determinant_bound,
    poly_sup_bound,
    segment_coverable,
    series_taylor,
)


def report(criterion: str, ok: bool, detail: str = "") -> bool:
    mark = "PASS" if ok else "FAIL"
    line = f"{mark} {criterion}"
    if detail:
        line += f" ({detail})"
    print(line)
    return ok


PIPELINE_FIXTURES = [
    ("x - y^2", (100, 1000)),
    ("x - y^3", (100, 1000)),
    ("x - y^5", (100, 1000)),
    ("x*y - 12", (100, 1000)),
    ("x^2 + y^2 - 25", (100, 1000)),
    ("x^2 + y^2 - 65", (100, 1000)),
    ("y^2 - x^3 - x - 1", (50,)),
    ("x^2 - 2*y^2 - 1", (50,)),
]


@pytest.fixture(scope="module")
def pipeline_reports():
    out = {}
    for text, boxes in PIPELINE_FIXTURES:
        for n in boxes:
            start = time.monotonic()
            rep = determinant_method_count(parse(text), n)
            out[(text, n)] = (rep, time.monotonic() - start)
    return out


def test_criterion_1_oracle_equivalence(pipeline_reports):
    ok = True
    slowest = 0.0
    for (text, n), (rep, elapsed) in pipeline_reports.items():
        slowest = max(slowest, elapsed)
        if rep.oracle_total is None or rep.total != rep.oracle_total or elapsed >= 60:
            ok = False
    assert report(
        "criterion 1: pipeline count equals brute-force oracle on all fixtures",
        ok,
        f"{len(pipeline_reports)} runs, slowest {slowest:.1f}s",
    )


def test_criterion_2_model_family():
    ok = True
    for d in (2, 3, 4, 5):
        curve = parse(f"x - y^{d}")
        for n in (100, 1000, 10000):
            total, _ = brute_force_count(curve, n)
            root = 1
            while (root + 1) ** d <= n:  # floor of the d-th root, integers only
                root += 1
            if total != root:
                ok = False
    assert report("criterion 2: box counts for x = y^d equal the floored d-th root", ok)


HK_POINTS = {
    "y^2 - x^3 - x - 1": [
        (Fraction(0), Fraction(1)),
        (Fraction(0), Fraction(-1)),
        (Fraction(1, 4), Fraction(-9, 8)),
        (Fraction(1, 4), Fraction(9, 8)),
    ],
    "x*y - 12": [(3, 4), (2, 6), (4, 3), (1, 12)],
    "x^2 + y^2 - 25": [(3, 4), (4, 3), (0, 5), (0, -5)],
}


def test_criterion_3_hk_suite():
    ok = True
    for text, points in HK_POINTS.items():
        curve = parse(text)
        d = curve.degree
        fy = partial(curve, "y")
        usable = 0
        for x0, y0 in points:
            if evaluate_bipoly(curve, x0, y0) != 0 or evaluate_bipoly(fy, x0, y0) == 0:
                ok = False
                continue
            cs = series_taylor(curve, Fraction(x0), Fraction(y0), 6)
            for k, hk in enumerate(hk_sequence(curve, 6), start=1):
                lhs = evaluate_bipoly(hk, x0, y0) + evaluate_bipoly(fy, x0, y0) ** (
                    2 * k - 1
                ) * math.factorial(k) * cs[k]
                if lhs != 0:
                    ok = False
            usable += 1
        if usable < 3:
            ok = False
        for k, hk in enumerate(hk_sequence(curve, 8), start=1):
            if not hk.is_zero() and hk.degree > (k - 1) * (2 * d - 3) + d - 1:
                ok = False
    assert report(
        "criterion 3: implicit-derivative identity and degree bounds", ok
    )


def test_criterion_4_interpolation_bound():
    rng = random.Random(20240801)
    violations = 0
    instances = 0
    while instances < 200:
        n = rng.randint(1, 6)
        fs = [
            UniPoly([Fraction(rng.randint(-3, 3)) for _ in range(rng.randint(1, n + 1))])
            for _ in range(n)
        ]
        pool = [Fraction(k, 2) for k in range(0, 17)]
        xs = sorted(rng.sample(pool, n))
        lo, hi = xs[0], xs[-1]
        bounds = []
        for i in range(1, n + 1):
            row = []
            for f in fs:
                g = f
                fact = 1
                for lvl in range(1, i):
                    g = g.derivative()
                    fact *= lvl
                row.append(Fraction(0) if g.is_zero() else poly_sup_bound(g, lo, hi) / fact)
            bounds.append(row)
        lhs = abs(fraction_determinant([[f.evaluate(x) for f in fs] for x in xs]))
        if lhs > interpolation_determinant_bound(xs, bounds):
            violations += 1
        instances += 1
    assert report(
        "criterion 4: interpolation determinant bound on 200 random instances",
        violations == 0,
        f"{violations} violations",
    )


def test_criterion_5_budgets(pipeline_reports):
    ok = True
    pieces_checked = 0
    for (text, n), (rep, _) in pipeline_reports.items():
        for br in rep.per_branch:
            for pr in br.pieces:
                if pr.mode == "cover" and pr.budget is not None:
                    pieces_checked += 1
                    if len(pr.curves) > pr.budget:
                        ok = False

    # power-form inequality implies one-curve coverability on built segments
    from latcurve.branch import branch_integer_point
    from latcurve.exactlinalg import integer_kth_root_ceiling
    from math import comb

    segments_checked = 0
    curve = parse("x - y^2")
    n = 100
    d = curve.degree
    ell = d + 2
    mset = punctured_set(d, ell, corner_index(curve))
    delta = Fraction(1)
    spec = DerivativeBoundSpec(X=Fraction(n), delta=delta, N=Fraction(n))
    # largest guaranteed-coverable length: 4*delta*L = 1/(m+1) with m the
    # ceiling C(D,2)-th root of (2N)^p (DX)^q
    b = comb(mset.D, 2)
    power = (2 * spec.N) ** mset.p * (mset.D * spec.X) ** mset.q
    length = Fraction(1, 4 * (integer_kth_root_ceiling(power.numerator, power.denominator, b) + 1)) / delta
    assert segment_coverable(length, spec, mset)
    dec = graph_decompose(curve, n)
    for branch in filter(None, map(integer_hull, dec.branches)):
        part = partition_by_bounds(branch, mset.D, Fraction(n), delta)
        for piece in part.pieces:
            if not piece.all_small():
                continue
            for t in range(50):
                if segments_checked >= 50:
                    break
                a = piece.lo + (piece.hi - piece.lo) * Fraction(t, 50)
                if a + length > piece.hi:
                    continue
                pts = []
                for k in range(math.ceil(a), math.floor(a + length) + 1):
                    hit = branch_integer_point(branch, k)
                    if hit is not None:
                        pts.append(hit)
                if extract_cover_curve(pts, mset) is None:
                    ok = False
                segments_checked += 1
    assert report(
        "criterion 5: cover budgets honored and short segments one-curve coverable",
        ok and segments_checked == 50,
        f"{pieces_checked} pieces, {segments_checked} segments",
    )


def test_criterion_6_partition_suite():
    ok = True
    delta = Fraction(1, 4)
    type_ii_seen = 0
    for text in ("x - y^2", "x*y - 12", "x^2 + y^2 - 25", "y^2 - x^3 - x - 1"):
        curve = parse(text)
        d = curve.degree
        n = 50
        ell = d + 2
        big_d = punctured_set(d, ell, corner_index(curve)).D
        dec = graph_decompose(curve, n)
        for branch in filter(None, map(integer_hull, dec.branches)):
            part = partition_by_bounds(branch, big_d, Fraction(n), delta)
            if len(part.pieces) > 64 * big_d**2 * d**2:
                ok = False
            for piece in part.pieces:
                if not piece.all_small():
                    type_ii_seen += 1
                    if piece.length() > 2 / delta:
                        ok = False
    assert report(
        "criterion 6: partition sizes bounded and large-derivative pieces short",
        ok,
        f"{type_ii_seen} large pieces seen",
    )


def test_criterion_7_jarnik():
    start = time.monotonic()
    ok = True
    cfg3 = jarnik_construct(3)
    cfg10 = jarnik_construct(10)
    if cfg3.t != 7 or cfg3.q_total != 13 or cfg10.t != 63:
        ok = False
    for h in range(1, 51):
        cfg = jarnik_construct(h)
        if cfg.q_total != cfg.a_total or cfg.q_total > h**3:
            ok = False
        if h >= 5 and 5 * cfg.t < 3 * h * h:
            ok = False
        if not convex_slope_check(cfg.points):
            ok = False
        n = cfg.q_total
        if cfg.t**3 > 32 * n * n:
            ok = False
    elapsed = time.monotonic() - start
    assert report(
        "criterion 7: convex configuration counts, bounds, and slope checks",
        ok and elapsed < 30,
        f"H up to 50 in {elapsed:.1f}s",
    )


def test_criterion_8_bezout_cap():
    rng = random.Random(814)
    checked = 0
    violations = 0
    while checked < 500:
        def rand_poly():
            terms = {}
            for _ in range(rng.randint(2, 5)):
                j1 = rng.randint(0, 4)
                j2 = rng.randint(0, 4 - j1)
                terms[(j1, j2)] = Fraction(rng.randint(-5, 5))
            return BiPoly(terms)

        f, g = rand_poly(), rand_poly()
        if f.degree < 1 or g.degree < 1:
            continue
        try:
            pts = bezout_intersect(f, g, 25)
        except CommonComponentError:
            continue
        if len(pts) > f.degree * g.degree:
            violations += 1
        checked += 1
    assert report(
        "criterion 8: intersection counts within the degree product cap",
        violations == 0,
        f"{checked} pairs",
    )


def test_criterion_9_monomial_formulas():
    ok = True
    for d in range(2, 7):
        for ell in range(d, d + 7):
            for i_f in range(0, d + 1):
                m = punctured_set(d, ell, i_f)
                if m.D != d * (ell - d + 1):
                    ok = False
                if 2 * (m.p + m.q) != d * (ell * (ell + 1) - d * (d - 1)):
                    ok = False
    for d in range(1, 11):
        m = full_set(d)
        if m.D != (d + 1) * (d + 2) // 2 or 3 * m.p != d * m.D or 3 * m.q != d * m.D:
            ok = False
    assert report("criterion 9: monomial-set size and exponent-sum formulas", ok)
