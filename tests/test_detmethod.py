"""Cover extraction, greedy covering, and the exact bound evaluators."""

import random
from fractions import Fraction

import pytest

from latcurve import detmethod, exactlinalg
from latcurve.detmethod import (
    DerivativeBoundSpec,
    LatticePoint,
    curve_budget,
    extract_cover_curve,
    greedy_cover,
    monomial_matrix,
)
from latcurve.exactlinalg import integer_determinant, integer_kth_root_ceiling, row_echelon_pivots
from latcurve.monomials import PunctureError, full_set, punctured_set
from latcurve.poly2 import BiPoly, parse

from fraction_bipoly import evaluate_bipoly
from fraction_unipoly import UniPoly
from reference_helpers import (
    BoundMatrixTooLarge,
    fj_derivative_bound,
    fraction_determinant,
    interpolation_determinant_bound,
    poly_sup_bound,
    segment_coverable,
)


def pts(*pairs):
    return [LatticePoint(x, y) for x, y in pairs]


# -- monomial matrix --------------------------------------------------------------


def test_monomial_matrix_examples():
    assert monomial_matrix(pts((1, 1), (2, 2)), full_set(1)) == [[1, 1, 1], [1, 2, 2]]
    assert monomial_matrix(pts((0, 0)), full_set(1)) == [[1, 0, 0]]
    m = monomial_matrix(pts((1, 1), (2, 4), (3, 9)), full_set(2))
    assert len(m) == 3 and len(m[0]) == 6
    assert row_echelon_pivots(m)[0] == 3


def test_monomial_matrix_rejects_duplicates():
    with pytest.raises(ValueError):
        monomial_matrix(pts((1, 1), (1, 1)), full_set(1))


# -- cover extraction ---------------------------------------------------------------


def test_extract_line_through_diagonal():
    cover = extract_cover_curve(pts((1, 1), (2, 2), (3, 3)), full_set(1))
    assert cover is not None
    assert cover == parse("x - y") or cover == parse("y - x")
    # normalization: positive leading coefficient in display order
    assert cover == parse("x - y")


def test_extract_parabola_points():
    parabola = pts((1, 1), (2, 4), (3, 9), (4, 16), (5, 25))
    cover = extract_cover_curve(parabola, full_set(2))
    assert cover is not None
    from latcurve.poly2 import divides

    assert divides(parse("y - x^2"), cover)
    for p in parabola:
        assert evaluate_bipoly(cover, p.x, p.y) == 0


def test_extract_full_rank_returns_none():
    assert extract_cover_curve(pts((0, 0), (1, 0), (0, 1)), full_set(1)) is None


def rank_drop_converse(points, mset):
    """Test helper: points on a common span curve force a rank drop."""
    return row_echelon_pivots(monomial_matrix(points, mset))[0] < mset.D


def test_rank_converse_on_span_curves():
    # points on y = x^2 lie on a curve of full_set(2), so rank must drop
    parabola = pts(*[(k, k * k) for k in range(-3, 4)])
    assert rank_drop_converse(parabola, full_set(2))
    # points on the line y = x inside full_set(1)
    assert rank_drop_converse(pts((1, 1), (2, 2), (5, 5), (9, 9)), full_set(1))
    # and on x*h + y^h members of a punctured set: x^2 - y^2 = 0 diagonal
    diag = pts(*[(k, k) for k in range(1, 6)])
    assert rank_drop_converse(diag, punctured_set(2, 3, 1))


def test_extract_vanishes_on_all_points_random():
    rng = random.Random(51)
    mset = full_set(2)
    for _ in range(40):
        n = rng.randint(1, 5)
        seen = set()
        while len(seen) < n:
            seen.add((rng.randint(-9, 9), rng.randint(-9, 9)))
        points = pts(*sorted(seen))
        cover = extract_cover_curve(points, mset)
        if cover is None:
            assert row_echelon_pivots(monomial_matrix(points, mset))[0] == mset.D
            continue
        assert not cover.is_zero()
        assert cover.content.denominator == 1
        assert all(j in mset.members for j in cover.terms)
        for p in points:
            assert evaluate_bipoly(cover, p.x, p.y) == 0


# -- threshold and budget ---------------------------------------------------------------


def _spec(n, x, delta):
    return DerivativeBoundSpec(X=Fraction(x), delta=Fraction(delta), N=Fraction(n))


def test_segment_coverable_zero_length():
    assert segment_coverable(0, _spec(10, 1, 1), full_set(2))


def test_segment_coverable_full_interval_false():
    # delta = 1/N and |I| = N forces the power form to at least 4^C(D,2)
    spec = _spec(100, 1, Fraction(1, 100))
    assert not segment_coverable(100, spec, full_set(2))


def test_segment_coverable_fixture():
    spec = _spec(100, 100, Fraction(1, 100))
    m = full_set(2)
    lhs = (Fraction(4) * spec.delta * Fraction(1, 1000)) ** 15 * 200**4 * 600**4
    assert (lhs < 1) == segment_coverable(Fraction(1, 1000), spec, m)
    # frozen by direct power evaluation: 4/100000 = 1/25000, and
    # (1/25000)^15 * 200^4 * 600^4 = 2.07e-44 < 1
    assert segment_coverable(Fraction(1, 1000), spec, m)


def test_curve_budget_examples():
    spec = _spec(100, 100, Fraction(1, 100))
    m = full_set(2)
    assert curve_budget(0, spec, m) == 1
    v = 4**15 * 120000**4
    expected = integer_kth_root_ceiling(v, 1, 15) + 1
    assert curve_budget(100, spec, m) == expected
    # independent power-comparison oracle for the 15th root
    root = 1
    while root**15 < v:
        root += 1
    assert expected == root + 1
    assert curve_budget(200, spec, m) >= curve_budget(100, spec, m)


def test_budget_monotone_in_length():
    spec = _spec(50, 3, Fraction(1, 10))
    m = punctured_set(2, 4, 1)
    prev = 0
    for length in (0, 1, 2, 5, 17, 50):
        b = curve_budget(length, spec, m)
        assert b >= prev
        prev = b


def test_bound_spec_validation():
    with pytest.raises(ValueError):
        DerivativeBoundSpec(X=Fraction(1), delta=Fraction(1, 200), N=Fraction(100))
    with pytest.raises(ValueError):
        DerivativeBoundSpec(X=Fraction(0), delta=Fraction(1), N=Fraction(10))


# -- greedy cover ---------------------------------------------------------------------------


def test_greedy_cover_parabola_single_run():
    cert = greedy_cover(pts((1, 1), (2, 4), (3, 9), (4, 16), (5, 25)), full_set(2))
    assert len(cert.curves) == 1
    assert set(cert.assignment.values()) == {0}


def test_greedy_cover_generic_points():
    rng = random.Random(7)
    seen = {}
    while len(seen) < 7:
        x = rng.randint(1, 50)
        seen[x] = rng.randint(1, 50)
    points = pts(*sorted(seen.items()))
    cert = greedy_cover(points, full_set(1))
    # generic runs fill the rank at 3 points, so runs have length <= 2
    assert len(cert.curves) >= 3
    assert len(cert.curves) == 4  # frozen for this seed
    for p, idx in cert.assignment.items():
        assert evaluate_bipoly(cert.curves[idx], p.x, p.y) == 0


def test_greedy_cover_empty():
    cert = greedy_cover([], full_set(1))
    assert cert.curves == [] and cert.assignment == {}


def test_greedy_cover_maximality():
    rng = random.Random(19)
    seen = {}
    while len(seen) < 9:
        x = rng.randint(1, 80)
        seen[x] = rng.randint(1, 80)
    points = pts(*sorted(seen.items()))
    mset = full_set(1)
    cert = greedy_cover(points, mset)
    runs = cert.runs
    flat = [p for run in runs for p in run]
    assert flat == sorted(points)
    for ridx, run in enumerate(runs[:-1]):
        successor = runs[ridx + 1][0]
        assert extract_cover_curve(run + [successor], mset) is None


def test_greedy_cover_rejects_duplicate_abscissas():
    with pytest.raises(ValueError):
        greedy_cover(pts((1, 1), (1, 2)), full_set(1))


def test_greedy_cover_guard():
    points = [LatticePoint(k, k * k) for k in range(1, 6)]
    with pytest.raises(PunctureError):
        greedy_cover(points, full_set(2), curve=parse("y - x^2"))


def test_cover_soundness_random():
    rng = random.Random(77)
    for mset in (full_set(1), full_set(2), punctured_set(2, 3, 1)):
        for _ in range(15):
            seen = {}
            while len(seen) < rng.randint(2, 10):
                seen[rng.randint(0, 40)] = rng.randint(0, 40)
            points = pts(*sorted(seen.items()))
            cert = greedy_cover(points, mset)
            assert set(cert.assignment) == set(points)
            for p, idx in cert.assignment.items():
                assert evaluate_bipoly(cert.curves[idx], p.x, p.y) == 0
            for cov in cert.curves:
                assert cov.content.denominator == 1
                assert all(j in mset.members for j in cov.terms)


# -- differential against the bordered-minor construction ----------------------------------


def fraction_echelon(rows):
    """Reference (rank, pivot rows, pivot columns): Fraction elimination of each
    row, in input order, against the reduced rows kept so far."""
    pivots, pivot_rows = [], []
    for ri, row in enumerate(rows):
        v = [Fraction(e) for e in row]
        for col, pv in pivots:
            if v[col]:
                f = v[col] / pv[col]
                v = [a - f * b for a, b in zip(v, pv)]
        lead = next((c for c, e in enumerate(v) if e), None)
        if lead is not None:
            pivots.append((lead, v))
            pivot_rows.append(ri)
    return len(pivots), pivot_rows, [c for c, _ in pivots]


def bordered_minor_curve(points, mset):
    """Reference cover curve: the signed maximal minors of the first maximal
    nonsingular row set, bordered by the first free column, made primitive."""
    matrix = monomial_matrix(points, mset)
    rank, pivot_rows, pivot_cols = fraction_echelon(matrix) if points else (0, [], [])
    if rank >= mset.D:
        return None
    extra = next(c for c in range(mset.D) if c not in pivot_cols)
    cols = sorted(pivot_cols + [extra])
    base_rows = [[matrix[r][c] for c in cols] for r in pivot_rows]
    terms = {}
    for pos, c in enumerate(cols):
        minor = [[row[k] for k in range(len(cols)) if k != pos] for row in base_rows]
        det = integer_determinant(minor) if minor else 1
        if det:
            terms[mset.members[c]] = -det if pos % 2 else det
    return BiPoly(terms).primitive_integer()


def prefix_greedy(points, mset):
    """Reference greedy cover: a run grows while the reference curve of the
    longer prefix exists.  Returns (curves, runs)."""
    curves, runs, start = [], [], 0
    while start < len(points):
        end = start + 1
        cover = bordered_minor_curve(points[start:end], mset)
        while end < len(points):
            candidate = bordered_minor_curve(points[start : end + 1], mset)
            if candidate is None:
                break
            cover, end = candidate, end + 1
        curves.append(cover)
        runs.append(points[start:end])
        start = end
    return curves, runs


DIFFERENTIAL_SETS = (
    full_set(1),
    full_set(2),
    full_set(3),
    punctured_set(2, 2, 0),
    punctured_set(2, 3, 1),
    punctured_set(3, 3, 2),
)


def mixed_points(rng):
    """Sorted points with strictly increasing x: random points with collinear
    runs and conic runs (on y = a*x^2 + b*x + c) mixed in; zeros included."""
    out, x = [], rng.randint(-6, 3)
    for _ in range(rng.randint(1, 4)):
        kind, n = rng.choice(("random", "line", "conic")), rng.randint(1, 7)
        a, b, c = rng.randint(-2, 2), rng.randint(-3, 3), rng.randint(-4, 4)
        for _ in range(n):
            x += rng.randint(1, 3)
            y = {"random": rng.randint(-9, 9), "line": b * x + c, "conic": a * x * x + b * x + c}[kind]
            out.append(LatticePoint(x, y))
    return out


def test_row_echelon_pivots_matches_fraction_reference():
    rng = random.Random(901)
    for _ in range(200):
        ncols = rng.randint(1, 7)
        base = [[rng.randint(-6, 6) for _ in range(ncols)] for _ in range(rng.randint(1, 4))]
        rows = []
        for _ in range(rng.randint(1, 8)):
            weights = [rng.randint(-3, 3) for _ in base]
            rows.append([sum(w * r[j] for w, r in zip(weights, base)) for j in range(ncols)])
        assert row_echelon_pivots(rows) == fraction_echelon(rows)
    for mset in DIFFERENTIAL_SETS:
        for _ in range(15):
            rows = monomial_matrix(mixed_points(rng), mset)
            assert row_echelon_pivots(rows) == fraction_echelon(rows)


def test_cover_curves_match_bordered_minor_reference():
    rng = random.Random(902)
    for mset in DIFFERENTIAL_SETS:
        for _ in range(12):
            points = mixed_points(rng)
            for k in range(1, len(points) + 1):
                window = points[max(0, k - mset.D) : k]
                shuffled = rng.sample(window, len(window))
                assert extract_cover_curve(shuffled, mset) == bordered_minor_curve(shuffled, mset)
            cert = greedy_cover(points, mset)
            curves, runs = prefix_greedy(points, mset)
            assert cert.curves == curves
            assert cert.runs == runs
            assert [cert.assignment[p] for p in points] == [
                i for i, run in enumerate(runs) for _ in run
            ]
    assert extract_cover_curve([], full_set(2)) == bordered_minor_curve([], full_set(2)) == parse("1")


def test_greedy_cover_reduces_each_row_at_most_twice(monkeypatch):
    reduced = []
    step = detmethod.echelon_step

    def counting_step(pivots, row):
        reduced.append(tuple(row))
        return step(pivots, row)

    def forbidden(*args):
        raise AssertionError("greedy_cover must not re-extract or expand minors")

    monkeypatch.setattr(detmethod, "echelon_step", counting_step)
    monkeypatch.setattr(detmethod, "extract_cover_curve", forbidden)
    monkeypatch.setattr(exactlinalg, "integer_determinant", forbidden)
    monkeypatch.setattr(exactlinalg, "bareiss_determinant", forbidden)
    rng = random.Random(903)
    for mset in DIFFERENTIAL_SETS:
        for _ in range(10):
            points = mixed_points(rng)
            reduced.clear()
            cert = greedy_cover(points, mset)
            rows = monomial_matrix(points, mset)
            assert len(reduced) == len(points) + len(cert.curves) - 1
            assert all(reduced.count(tuple(row)) <= 2 * rows.count(row) for row in rows)


# -- derivative bound formula ----------------------------------------------------------------


def test_fj_bound_examples():
    spec = _spec(10, 5, Fraction(1, 10))
    assert fj_derivative_bound((2, 1), 3, spec) == 60
    assert fj_derivative_bound((0, 0), 4, spec) == Fraction(1, 10) ** 3
    assert fj_derivative_bound((1, 0), 1, spec) == 20


def test_fj_bound_dominates_true_derivatives():
    """|d^(i-1)/dx^(i-1) [x^j1 f^j2] / (i-1)!| <= bound for certified (X, delta)."""
    rng = random.Random(3)
    n = 6
    for _ in range(25):
        f = UniPoly([Fraction(rng.randint(-3, 3)) for _ in range(rng.randint(1, 5))])
        if f.is_zero():
            continue
        # certify X via crude coefficient bounds at delta = 1
        delta = Fraction(1)
        x_bound = Fraction(0)
        q = f
        fact = 1
        level = 0
        while not q.is_zero():
            x_bound = max(x_bound, poly_sup_bound(q, Fraction(0), Fraction(n)) / fact)
            q = q.derivative()
            level += 1
            fact *= level
        if x_bound == 0:
            continue
        spec = DerivativeBoundSpec(X=x_bound, delta=delta, N=Fraction(n))
        for j1, j2 in ((0, 1), (1, 1), (2, 0), (1, 2)):
            fj = UniPoly([0] * j1 + [1]) * f**j2
            for i in (1, 2, 3):
                g = fj
                fact_i = 1
                for lvl in range(1, i):
                    g = g.derivative()
                    fact_i *= lvl
                bound = fj_derivative_bound((j1, j2), i, spec)
                for s in range(0, 2 * n + 1):
                    x = Fraction(s, 2)
                    assert abs(g.evaluate(x)) / fact_i <= bound


# -- interpolation determinant bound -----------------------------------------------------------


def test_interp_bound_examples():
    assert interpolation_determinant_bound([0, 1], [[1, 1], [0, 1]]) == 1
    assert interpolation_determinant_bound([5], [[Fraction(3, 7)]]) == Fraction(3, 7)
    assert interpolation_determinant_bound([1, 1], [[2, 2], [2, 2]]) == 0


def test_interp_bound_size_cap():
    n = 11
    xs = list(range(n))
    a = [[1] * n for _ in range(n)]
    with pytest.raises(BoundMatrixTooLarge):
        interpolation_determinant_bound(xs, a)


def test_interp_bound_dominates_determinant():
    """|det f_j(x_i)| <= spread * permanent of certified sup bounds."""
    rng = random.Random(13)
    for _ in range(60):
        n = rng.randint(1, 4)
        fs = []
        for _ in range(n):
            fs.append(UniPoly([Fraction(rng.randint(-3, 3)) for _ in range(rng.randint(1, n + 1))]))
        xs = sorted(rng.sample([Fraction(k, 2) for k in range(0, 13)], n))
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
                row.append(poly_sup_bound(g, lo, hi) / fact if not g.is_zero() else Fraction(0))
            bounds.append(row)
        lhs = abs(fraction_determinant([[f.evaluate(x) for f in fs] for x in xs]))
        assert lhs <= interpolation_determinant_bound(xs, bounds)
