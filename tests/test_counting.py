"""Brute-force oracle, pairwise intersections, and the counting pipeline."""

import hashlib
import json
import math
import random
import re
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

from latcurve.counting import (
    CommonComponentError,
    CountingError,
    LineFactorError,
    bezout_intersect,
    brute_force_count,
    determinant_method_count,
)
import latcurve
from latcurve import branch, counting, poly2, unipoly
from latcurve.detmethod import LatticePoint
from latcurve.poly2 import BiPoly, divides, parse, partial, resultant_eliminating_y
from latcurve.unipoly import (
    count_real_roots,
    int_exact_quotient,
    integer_roots,
    primitive_ints,
    run_integer_roots,
)
from fraction_bipoly import evaluate_bipoly
from reference_helpers import latbench_workloads, x_sweep_count


# the fixture curves of scripts/fixture_report.py, with their boxes
FIXTURES = [
    ("x - y^2", 100), ("x - y^3", 100), ("x - y^5", 100), ("x*y - 12", 100),
    ("x^2 + y^2 - 25", 100), ("x^2 + y^2 - 65", 100),
    ("y^2 - x^3 - x - 1", 50), ("x^2 - 2*y^2 - 1", 50),
]


# -- brute force -----------------------------------------------------------------


def test_brute_examples():
    total, points = brute_force_count(parse("x - y^2"), 100)
    assert total == 10
    assert set(points) == {LatticePoint(k * k, k) for k in range(1, 11)}
    total, points = brute_force_count(parse("x*y - 12"), 12)
    assert total == 6
    total, points = brute_force_count(parse("x^2 + y^2 - 25"), 5)
    assert set(points) == {LatticePoint(3, 4), LatticePoint(4, 3)}


def test_brute_matches_grid_scan():
    """The sweep against a direct evaluation of every point of {1..N}^2."""
    rng = random.Random(31)
    cases = lines = 0
    while cases < 120:
        deg = rng.randint(1, 3)
        terms = {}
        for _ in range(rng.randint(1, 5)):
            j1 = rng.randint(0, deg)
            terms[(j1, rng.randint(0, deg - j1))] = rng.randint(-6, 6)
        curve = BiPoly(terms)
        if curve.degree < 1:
            continue
        cases += 1
        n = rng.randint(1, 25)
        grid = [
            LatticePoint(x, y)
            for x in range(1, n + 1)
            for y in range(1, n + 1)
            if evaluate_bipoly(curve, x, y) == 0
        ]
        try:
            total, points = brute_force_count(curve, n)
        except LineFactorError as exc:
            # the named line must lie on the curve inside the box
            var, k = re.search(r"(x|y) = (-?\d+)", str(exc)).groups()
            k = int(k)
            assert 1 <= k <= n, (curve.pretty(), n, str(exc))
            line = [(k, t) if var == "x" else (t, k) for t in range(1, n + 1)]
            assert all(evaluate_bipoly(curve, *pt) == 0 for pt in line), (curve.pretty(), n)
            lines += 1
            continue
        assert (total, points) == (len(grid), grid), (curve.pretty(), n)
    assert 0 < lines < cases


def test_brute_rejects_lines_in_box():
    with pytest.raises(LineFactorError, match="^vertical line x = 3 "):
        brute_force_count(parse("x - 3"), 10)
    with pytest.raises(LineFactorError, match="^horizontal line y = 3 "):
        brute_force_count(parse("y - 3"), 10)
    with pytest.raises(LineFactorError):
        brute_force_count(parse("(x - 3)*(y - x)"), 10)
    with pytest.raises(LineFactorError):
        brute_force_count(parse("(y - 2)*(y - x^2)"), 10)
    with pytest.raises(CountingError):
        brute_force_count(BiPoly({}), 5)
    with pytest.raises(CountingError, match="nonconstant"):
        brute_force_count(BiPoly.constant(3), 5)
    # a line outside the box is harmless
    total, _ = brute_force_count(parse("x + 20"), 10)
    assert total == 0


def test_line_factor_error_does_not_depend_on_the_oracle(monkeypatch):
    """One check of the exact x- and y-content runs before the
    decomposition, the oracle's own when the oracle runs, so both routes
    name the same line with the same error, and a count takes each frame's
    x-content once: two `x_content` calls for y^2 - x^3 + 6*x + 33 at
    N = 100, with the oracle on or off."""
    for text, message in (
        ("(x - 3)*(y - x)", "vertical line x = 3 lies inside the box"),
        ("(y - 2)*(x - y^2)", "horizontal line y = 2 lies inside the box"),
        # deg_x < deg_y, so the oracle sweeps y, and x = 3 is no swept line
        ("(x - 3)*(x - y^3)", "vertical line x = 3 lies inside the box"),
    ):
        curve = parse(text)
        with pytest.raises(LineFactorError, match=f"^{message}$"):
            brute_force_count(curve, 10)
        for compare_oracle in (True, False):
            with pytest.raises(LineFactorError, match=f"^{message}$"):
                determinant_method_count(curve, 10, compare_oracle=compare_oracle)
    # lines outside the box are no error of the check
    assert brute_force_count(parse("(x - 30)*(y + 2)*(x - y^2)"), 10)[0] == 3
    calls = []
    monkeypatch.setattr(counting, "x_content", lambda f: calls.append(f) or poly2.x_content(f))
    for compare_oracle in (True, False):
        calls.clear()
        determinant_method_count(parse("y^2 - x^3 + 6*x + 33"), 100, compare_oracle=compare_oracle)
        assert len(calls) == 2, compare_oracle


def test_brute_model_family():
    for d in (2, 3, 4, 5):
        for n in (100, 1000):
            curve = parse(f"x - y^{d}")
            total, _ = brute_force_count(curve, n)
            floor_root = 1
            while (floor_root + 1) ** d <= n:
                floor_root += 1
            assert total == floor_root


def _curve_through(rng, deg_x, deg_y, n_box):
    """A random integer curve of degrees (deg_x, deg_y), shifted by a constant
    so that it passes through a random point of {1..N}^2."""
    terms = {(deg_x, rng.randint(0, deg_y)): rng.choice((-3, -2, -1, 1, 2, 3))}
    terms[(rng.randint(0, deg_x), deg_y)] = rng.choice((-3, -2, -1, 1, 2, 3))
    for _ in range(rng.randint(0, 3)):
        terms[(rng.randint(0, deg_x), rng.randint(0, deg_y))] = rng.randint(-5, 5)
    curve = BiPoly(terms)
    x0, y0 = rng.randint(1, n_box), rng.randint(1, n_box)
    return curve - BiPoly.constant(evaluate_bipoly(curve, x0, y0))


def test_brute_matches_x_sweep_in_every_orientation():
    """`brute_force_count` sweeps y when deg_x < deg_y and x otherwise; both
    give the total and the sorted point list of a sweep over x alone."""
    rng = random.Random(25)
    seen = Counter()
    points = 0
    while min(seen.values(), default=0) < 40 or len(seen) < 3:
        deg_x, deg_y = rng.randint(1, 4), rng.randint(1, 4)
        n_box = rng.randint(5, 60)
        curve = _curve_through(rng, deg_x, deg_y, n_box)
        if (curve.degree_x(), curve.degree_y()) != (deg_x, deg_y):
            continue
        try:
            got = brute_force_count(curve, n_box)
        except LineFactorError:
            continue
        assert got == x_sweep_count(curve, n_box), (curve.pretty(), n_box)
        seen[(deg_x > deg_y) - (deg_x < deg_y)] += 1
        points += got[0]
    assert points >= sum(seen.values())


def test_brute_sweeps_the_axis_of_lower_column_degree(monkeypatch):
    """Every swept column has the lower of the two degrees (a tie sweeps x),
    the sweep runs in increasing order, and every column of 1..40 that it
    skips has no real root in [1, 40], by isolation on the column.  The
    sweep hands each live run to `run_integer_roots`, so the columns are
    read from the rows and runs it passes."""
    skipped = 0
    for text, column_degree in (
        ("x - 13*y^3", 1),  # deg_x < deg_y: columns in x
        ("y - 13*x^3", 1),  # deg_x > deg_y: columns in y
        ("-3*x^3 - 6*x^2*y + 4*y^3 + x*y", 3),  # tie: columns in y
    ):
        columns = []

        def recording_runs(rows, first, last, lo, hi):
            for a in range(first, last + 1):
                column = [sum(c * a**i for i, c in enumerate(row)) for row in rows]
                while column and not column[-1]:
                    column.pop()
                columns.append(column)
            return run_integer_roots(rows, first, last, lo, hi)

        curve = parse(text)
        frame = curve.swap_xy() if curve.degree_x() < curve.degree_y() else curve
        abscissa = {tuple(frame.int_column(a)): a for a in range(1, 41)}
        assert len(abscissa) == 40, text
        monkeypatch.setattr(counting, "run_integer_roots", recording_runs)
        brute_force_count(curve, 40)
        monkeypatch.undo()
        assert columns and {len(c) - 1 for c in columns} == {column_degree}, text
        order = [abscissa[tuple(c)] for c in columns]
        assert order == sorted(set(order)), text
        for a in set(range(1, 41)) - set(order):
            assert count_real_roots(frame.int_column(a), 1, 40) == 0, (text, a)
            skipped += 1
    assert skipped > 40, skipped


def _full_sweep(curve, n_box):
    """The points on every column of the axis that `brute_force_count`
    sweeps: `x_sweep_count` on the curve, or on its transpose for a y-sweep,
    with the points transposed back and sorted."""
    if curve.degree_x() >= curve.degree_y():
        return x_sweep_count(curve, n_box)
    total, points = x_sweep_count(curve.swap_xy(), n_box)
    return total, sorted(LatticePoint(p.y, p.x) for p in points)


def test_brute_live_runs_match_a_full_sweep():
    """Sweeping only the live runs finds the points of a sweep over all N
    columns of the same axis: on seeded curves whose columns have degree 1,
    2 and >= 3, and on named cases for each locus.  The first circle meets
    no box edge, so only the discriminant's roots 25 and 75 cut its runs;
    the second has the double edge root a = 20 of F(a, 40) = (a - 20)^2;
    the isolated point and the cusp lie on integer discriminant roots; and
    (x*y - 12)^2, with a repeated factor in y, has Res_y(F, F_y) = 0 and
    takes the full sweep."""
    named = [
        ("(x - 50)^2 + (y - 50)^2 - 625", 100, 20),
        ("(x - 20)^2 + (y - 30)^2 - 100", 40, 12),
        ("(x - 20)^2 + (y - 20)^2", 40, 1),
        ("(y - 15)^2 - (x - 12)^3", 40, 5),
        ("(x*y - 12)^2", 12, 6),
    ]
    for text, n_box, count in named:
        curve = parse(text)
        got = brute_force_count(curve, n_box)
        assert got == _full_sweep(curve, n_box) and got[0] == count, text
    rng = random.Random(35)
    seen = Counter()
    while min(seen.values(), default=0) < 40 or len(seen) < 3:
        deg_x, deg_y = rng.randint(1, 4), rng.randint(1, 4)
        n_box = rng.randint(5, 60)
        curve = _curve_through(rng, deg_x, deg_y, n_box)
        if (curve.degree_x(), curve.degree_y()) != (deg_x, deg_y):
            continue
        try:
            got = brute_force_count(curve, n_box)
        except LineFactorError:
            continue
        assert got == _full_sweep(curve, n_box), (curve.pretty(), n_box)
        seen[min(min(deg_x, deg_y), 3)] += 1


def test_brute_curves_free_of_one_variable():
    """A curve free of x or of y with no line in the box has no point."""
    for text in ("y^2 - 2", "y + 20", "(y - 20)*(3*y + 1)", "x^2 - 2", "(x - 20)*(3*x + 1)"):
        assert brute_force_count(parse(text), 10) == (0, []), text


def test_brute_closed_forms_at_large_n():
    """x = c*y^k has a point at every y with c*y^k <= N."""
    assert brute_force_count(parse("x - 12*y^5"), 10**5) == (6, [LatticePoint(12 * y**5, y) for y in range(1, 7)])
    assert brute_force_count(parse("x - 13*y^3"), 10**5)[0] == 19


# -- bezout ----------------------------------------------------------------------


def test_bezout_examples():
    c = parse("x^2 + y^2 - 25")
    assert bezout_intersect(c, parse("y - 3"), 5) == [LatticePoint(4, 3)]
    assert bezout_intersect(c, parse("x - y"), 5) == []
    assert bezout_intersect(parse("y - x^2"), parse("y - x"), 10) == [LatticePoint(1, 1)]


def test_bezout_rejects_common_component():
    with pytest.raises(CommonComponentError):
        bezout_intersect(parse("y - x"), parse("y^2 - x^2"), 5)
    with pytest.raises(CommonComponentError):
        bezout_intersect(parse("y^2 - x^2"), parse("y - x"), 5)


def test_bezout_columns_at_a_resultant_root():
    """At an integer root of the resultant, both columns zero is a shared
    vertical line, and one nonzero constant column gives no point there."""
    f, g = parse("(x - 2)*(y - x)"), parse("(x - 2)*(y + x - 10)")
    assert integer_roots(primitive_ints(resultant_eliminating_y(f, g).coeffs), 1, 10) == [2, 5]
    with pytest.raises(CommonComponentError, match="both curves contain the line x = 2"):
        bezout_intersect(f, g, 10)
    # both leading coefficients vanish at x = 3, where the columns are -6 and -8
    f, g = parse("(x - 3)*y + x - 9"), parse("(x - 3)*y + 2*x - 14")
    assert integer_roots(primitive_ints(resultant_eliminating_y(f, g).coeffs), 1, 10) == [3, 5]
    assert (f.int_column(3), g.int_column(3)) == ([-6], [-8])
    assert bezout_intersect(f, g, 10) == [LatticePoint(5, 2)]


def test_bezout_y_free_arguments():
    c = parse("x^2 + y^2 - 25")
    assert bezout_intersect(c, parse("x - 3"), 5) == [LatticePoint(3, 4)]
    assert bezout_intersect(c, parse("x - 6"), 10) == []
    assert bezout_intersect(parse("x - 4"), parse("(x - 9)*(y - 1)"), 10) == [LatticePoint(4, 1)]
    assert bezout_intersect(parse("x - 4"), parse("x - 9"), 10) == []


def test_bezout_cap_random():
    rng = random.Random(101)
    checked = 0
    while checked < 120:
        f = BiPoly(
            {
                (rng.randint(0, 2), rng.randint(0, 2)): Fraction(rng.randint(-4, 4))
                for _ in range(rng.randint(2, 4))
            }
        )
        g = BiPoly(
            {
                (rng.randint(0, 2), rng.randint(0, 2)): Fraction(rng.randint(-4, 4))
                for _ in range(rng.randint(2, 4))
            }
        )
        if f.is_zero() or g.is_zero() or f.degree < 1 or g.degree < 1:
            continue
        try:
            pts = bezout_intersect(f, g, 30)
        except CommonComponentError:
            continue
        assert len(pts) <= f.degree * g.degree
        for p in pts:
            assert evaluate_bipoly(f, p.x, p.y) == 0 and evaluate_bipoly(g, p.x, p.y) == 0
        checked += 1


def test_bezout_deflated_by_run_abscissas_matches_the_full_search(monkeypatch):
    """Every cover curve the pipeline emits on seeded x - c*y^2 - e*y,
    x*y - m and x^2 + y^2 - m at N <= 200 meets its frame curve in the same
    points whether the eliminant is deflated by the run's abscissas or
    searched whole."""
    calls = []

    def recorded(f, g, n_box, known=()):
        calls.append((f, g, n_box, tuple(known)))
        return bezout_intersect(f, g, n_box, known)

    monkeypatch.setattr(counting, "bezout_intersect", recorded)
    rng = random.Random(3101)
    deflated = Counter()
    for _ in range(3):
        for family, text in (
            ("parabola", f"x - {rng.randint(1, 3)}*y^2 - {rng.randint(1, 40)}*y"),
            ("hyperbola", f"x*y - {rng.choice([2520, 5040, 10080, 27720])}"),
            ("circle", f"x^2 + y^2 - {rng.choice([5525, 27625, 32045])}"),
        ):
            calls.clear()
            determinant_method_count(parse(text), rng.randint(150, 200), compare_oracle=False)
            for f, g, n_box, known in calls:
                hits = bezout_intersect(f, g, n_box, known)
                assert hits == bezout_intersect(f, g, n_box), (text, g.pretty(), known)
                assert {p.x for p in hits} >= {k for k in known if 1 <= k <= n_box}, (text, known)
                deflated[family] += len(known)
    assert min(deflated.values()) >= 10 and len(deflated) == 3, deflated


def test_bezout_known_abscissas_keep_a_repeated_root_and_are_checked():
    """(x - 50)^2 + (y - 50)^2 = 625 meets (y - 50)^2 - 576 = x - 57 at
    (57, 26) and (57, 74) only, so x = 57 is a double root of the
    eliminant: divided out once, it stays a root of the quotient, and both
    points are found.  An abscissa that is no eliminant root raises."""
    f = parse("(x - 50)^2 + (y - 50)^2 - 625")
    g = parse("(y - 50)^2 - 576 - (x - 57)")
    both = [LatticePoint(57, 26), LatticePoint(57, 74)]
    elim = primitive_ints(resultant_eliminating_y(f, g).coeffs)
    assert integer_roots(int_exact_quotient(elim, [-57, 1]), 1, 100) == [42, 57]
    for known in ((), (57,), (57, 57), (42, 57)):
        assert bezout_intersect(f, g, 100, known) == both, known
    for known in ((56,), (57, 101)):
        with pytest.raises(RuntimeError, match="not a root of the eliminant"):
            bezout_intersect(f, g, 100, known)
    # a y-free curve: its x-polynomial is the eliminant, and coprime ones have none
    assert bezout_intersect(parse("x^2 + y^2 - 25"), parse("x - 3"), 5, (3,)) == [LatticePoint(3, 4)]
    with pytest.raises(RuntimeError):
        bezout_intersect(parse("x - 4"), parse("x - 9"), 10, (4,))


# -- pipeline ---------------------------------------------------------------------


@pytest.mark.parametrize(
    "text,n,expected",
    [
        ("x*y - 12", 12, 6),
        ("x - y^3", 1000, 10),
        ("x^2 + y^2 - 25", 5, 2),
    ],
)
def test_pipeline_examples(text, n, expected):
    rep = determinant_method_count(parse(text), n)
    assert rep.total == expected
    assert rep.oracle_total == expected
    assert rep.ok and not rep.warnings


def test_pipeline_elliptic_small():
    rep = determinant_method_count(parse("y^2 - x^3 - x - 1"), 30)
    oracle, _ = brute_force_count(parse("y^2 - x^3 - x - 1"), 30)
    assert rep.total == oracle


def test_pipeline_report_consistency():
    rep = determinant_method_count(parse("x*y - 12"), 12)
    covered = set()
    for br in rep.per_branch:
        for pr in br.pieces:
            for cd in pr.curves:
                covered.update(tuple(p) for p in cd["points"])
    assert len(covered | {tuple(p) for p in rep.exceptions}) == rep.total
    assert not (covered & {tuple(p) for p in rep.exceptions})
    # each cover curve, printed in its branch's frame, passes through its points
    for br in rep.per_branch:
        swapped = br.descriptor["orientation"] == "y-over-x"
        for pr in br.pieces:
            for cd in pr.curves:
                cover = parse(cd["poly"])
                for x0, y0 in cd["points"]:
                    assert (evaluate_bipoly(cover, y0, x0) if swapped else evaluate_bipoly(cover, x0, y0)) == 0


def test_pipeline_budget_adherence_small_pieces():
    curve = parse("x - y^2")
    n = 100
    rep = determinant_method_count(curve, n)
    for br in rep.per_branch:
        for pr in br.pieces:
            if pr.mode == "cover" and pr.budget is not None:
                assert len(pr.curves) <= pr.budget


def test_pipeline_explicit_parameters():
    rep = determinant_method_count(parse("x - y^2"), 100, ell=3, delta=Fraction(1, 2))
    assert rep.total == rep.oracle_total == 10
    assert rep.parameters["ell"] == 3


def test_pipeline_rejects_degree_one():
    with pytest.raises(CountingError):
        determinant_method_count(parse("x - y"), 10)


def test_pipeline_rejects_bad_delta():
    for delta in (Fraction(0), Fraction(-1, 2), Fraction(1, 1000)):
        with pytest.raises(CountingError, match="delta"):
            determinant_method_count(parse("x - y^2"), 10, delta=delta)


def test_pipeline_cover_curves_not_divisible_by_input():
    rep = determinant_method_count(parse("x*y - 12"), 100)
    curve = parse("x*y - 12")
    covers = 0
    for br in rep.per_branch:
        frame = curve.swap_xy() if br.descriptor["orientation"] == "y-over-x" else curve
        for pr in br.pieces:
            for cd in pr.curves:
                assert not divides(frame, parse(cd["poly"]))
                covers += 1
    assert covers >= 2


@pytest.mark.parametrize(
    "text,n",
    [
        ("y^2 - x^3", 100),  # cusp at the origin
        ("y^2 - x^3 - x^2", 50),  # node at the origin
        ("y^2 - x^3 + x", 60),  # three branch points on the x-axis
        ("x^2 + 2*y^2 - 66", 20),  # ellipse
        ("x^2 - y^2 - 1", 30),  # hyperbola through (1, 0)
        ("x^2 + y^2 + 1", 10),  # empty real locus
        ("x^3 - y^2 - 2", 50),
        ("x^2*y - x*y^2 + 7", 30),
        ("(10*x - 9)*y^2 + y - 6*x", 20),  # rational leading-coefficient root at 9/10
        ("y^3 - 3*y - x", 20),  # three stacked branches with folds at x = +-2
        ("x^4 + y^4 - 337", 10),  # quartic through (4, 3) and (3, 4)
        ("(x^2 + y^2)^2 - 25*x*y", 15),  # singular quartic at the origin
    ],
)
def test_pipeline_special_geometries(text, n):
    rep = determinant_method_count(parse(text), n)
    assert rep.total == rep.oracle_total
    assert rep.ok


def _horner_scan(curve, n_box):
    """The points of {1..N}^2 on the curve, by evaluating it at every one:
    each y-row by Horner in x, then the column by Horner in y.  It shares no
    root search with the oracle or the pipeline."""
    points = []
    for x in range(1, n_box + 1):
        column = []
        for row in curve.rows:
            acc = 0
            for c in reversed(row):
                acc = acc * x + c
            column.append(acc)
        for y in range(1, n_box + 1):
            acc = 0
            for c in reversed(column):
                acc = acc * y + c
            if acc == 0:
                points.append(LatticePoint(x, y))
    return points


def _clustered_cubics(rng, count):
    """(m1*P(u) - m2*P(v), N) for {u, v} = {x, y} in either order, with
    P(t) = (t - a)(t - a - 1)(t - b), m1 up to 10^6 and m2 <= 50: cubic columns on both axes whose
    roots near a and a + 1 lie within 1 of each other, next to the box edges
    when a is 0 or 1 and b is N or N + 1."""
    cases = []
    for _ in range(count):
        n = rng.randint(30, 100)
        a = rng.choice([0, 1, rng.randint(2, n)])
        b = rng.choice([n, n + 1, rng.randint(1, n)])
        big, small = rng.randint(10**5, 10**6), rng.randint(1, 50)
        cubic = [f"({v} - {a})*({v} - {a + 1})*({v} - {b})" for v in rng.sample("xy", 2)]
        cases.append((f"{big}*{cubic[0]} - {small}*{cubic[1]}", n))
    return cases


def test_pipeline_and_oracle_match_a_horner_scan():
    """Pipeline and oracle totals against `_horner_scan`: on the eight
    fixtures at N <= 100 and again at N = 300, on seeded cubics with large
    coefficients and clustered integer roots, whose columns take the sign
    bisection, and on conics tangent to a column inside the box, whose
    quadratic columns there have an integer double root: (x - 10)^2 +
    (y - 10)^2 = 25 at x = 5 and x = 15, and 4*(x - 10)^2 + (y - 12)^2 =
    100 at the same x.  Two circles check the oracle's live runs: one meets
    no box edge, so only its discriminant's roots cut them, and one touches
    the edge y = 40."""
    fixtures = list(FIXTURES)
    tangent = [("x^2 + y^2 - 20*x - 20*y + 175", 30), ("4*x^2 + y^2 - 80*x - 24*y + 444", 30)]
    circles = [("(x - 50)^2 + (y - 50)^2 - 625", 100), ("(x - 20)^2 + (y - 30)^2 - 100", 40)]
    points = 0
    fixtures += [(text, 300) for text, _ in fixtures]
    for text, n in fixtures + tangent + circles + _clustered_cubics(random.Random(3110), 8):
        curve = parse(text)
        want = _horner_scan(curve, n)
        rep = determinant_method_count(curve, n)
        assert (rep.total, rep.oracle_total) == (len(want), len(want)), (text, n)
        points += len(want)
    assert points > 60, points


def test_pipeline_random_curves_match_oracle():
    """Seeded random conics/cubics: exact agreement or a structured rejection."""
    from latcurve.poly2 import IngestionError

    rng = random.Random(99)
    tried = agree = 0
    while tried < 25:
        terms = {}
        deg = rng.choice([2, 2, 2, 3])
        for _ in range(rng.randint(2, 5)):
            j1 = rng.randint(0, deg)
            j2 = rng.randint(0, deg - j1)
            terms[(j1, j2)] = rng.randint(-6, 6)
        terms[(0, 0)] = rng.choice([-7, -5, -3, -2, -1, 1, 2, 3, 5, 7])
        curve = BiPoly(terms)
        if curve.degree < 2:
            continue
        tried += 1
        try:
            rep = determinant_method_count(curve, 15)
        except (LineFactorError, IngestionError, CountingError):
            continue
        assert rep.total == rep.oracle_total, curve.pretty()
        agree += 1
    assert agree >= 20


def test_pipeline_parabolas_puncture_each_branch_frame():
    """x^2 - m*y and m*y - x^2 are covered on swapped branches, whose frame
    curve has its own corner index.  A set punctured at the input curve's
    corner let greedy covering return a multiple of the frame curve, and the
    non-divisibility guard raised PunctureError."""
    swapped_covers = 0
    for m in range(1, 7):
        for text in (f"x^2 - {m}*y", f"{m}*y - x^2"):
            for n in (12, 18, 25, 33, 40):
                rep = determinant_method_count(parse(text), n)
                assert rep.ok and rep.total == rep.oracle_total, (text, n)
                swapped_covers += sum(
                    len(pr.curves)
                    for br in rep.per_branch
                    if br.descriptor["orientation"] == "y-over-x"
                    for pr in br.pieces
                )
    assert swapped_covers >= 30


def _clear_caches():
    """Empty the three caches left in the package, which latbench reads; a
    count keeps everything else on its branches' frame records."""
    for cached in (unipoly.squarefree_part, unipoly.sturm_chain, branch.hk_sequence):
        cached.cache_clear()


def _recorded_partitions(monkeypatch):
    """Record (branch, D, partition) of each `partition_by_bounds` call a
    count makes."""
    parts = []
    partition = counting.partition_by_bounds

    def recorded(br, big_d, n_box, delta):
        part = partition(br, big_d, n_box, delta)
        parts.append((br, big_d, part))
        return part

    monkeypatch.setattr(counting, "partition_by_bounds", recorded)
    return parts


def _frame_records(parts):
    """The distinct frame records of the recorded branches."""
    return list({id(br.frame): br.frame for br, _, _ in parts}.values())


def _counted_sturm_chains(monkeypatch):
    """Record the polynomial of each `unipoly.integer_squarefree_chain`
    call, the builder of integer Sturm chains for locating roots, which the
    integer walk no longer calls."""
    chains = []
    build = unipoly.integer_squarefree_chain

    def counted(p):
        chains.append(p)
        return build(p)

    monkeypatch.setattr(unipoly, "integer_squarefree_chain", counted)
    return chains


def test_pipeline_sturm_chain_builds(monkeypatch):
    """Operation-count guard: from empty caches, y^2 - x^3 - x - 1 at N = 50
    builds no Sturm chain, and takes no squarefree part and no integer gcd.
    The decomposition reads its critical loci by the integer walk
    (`root_slots`), whose Descartes bisection at integer points takes each
    locus with a half-line bound of 2 or more; no unit gap of a locus keeps
    a bound of 2 or more, so none is isolated and no squarefree part is
    built there.  The disc certificate proves every order on the one
    integer hull [2, 50] (the branch on [0, 0] holds no abscissa of the
    box), so no level set is read and no branch value bracket is built."""
    _clear_caches()
    gcd_callers = []
    poly_gcd = unipoly.poly_gcd

    def counted(a, b):
        gcd_callers.append(sys._getframe(1).f_code.co_name)
        return poly_gcd(a, b)

    monkeypatch.setattr(unipoly, "poly_gcd", counted)
    chains = _counted_sturm_chains(monkeypatch)
    curve = parse("y^2 - x^3 - x - 1")
    rep = determinant_method_count(curve, 50, compare_oracle=False)
    assert rep.total == 0
    assert chains == []
    assert unipoly.squarefree_part.cache_info().misses == 0
    assert gcd_callers == []



def test_pipeline_searches_branch_points_along_rows(monkeypatch):
    """Operation-count guard: x - 13*y^3 at N = 10^5 reads 21 branch
    columns by the rank walk, not one per abscissa: the two ends of its one
    hull [1, 10^5], whose values run from 1/13^(1/3) to 10^5/13^(1/3), and
    one verification at the root of each of its rows y = 1..19."""
    walks = []
    walk = branch._branch_slot

    def counted(br, k):
        walks.append(k)
        return walk(br, k)

    monkeypatch.setattr(branch, "_branch_slot", counted)
    rep = determinant_method_count(parse("x - 13*y^3"), 10**5, compare_oracle=False)
    assert rep.total == 19
    assert len(walks) == 21


def test_mirrored_branches_share_one_cover_intersection(monkeypatch):
    """x*y - 10200 is its own transpose, so its two frames are one curve
    with equal pieces and covers: the count intersects the one cover once
    (twice before covers were shared) and reports the same points on both
    branches, in the report that the count gave with one intersection per
    branch (its SHA-256 is pinned)."""
    calls = []
    intersect = counting.bezout_intersect

    def counted(*args):
        calls.append(args)
        return intersect(*args)

    monkeypatch.setattr(counting, "bezout_intersect", counted)
    rep = determinant_method_count(parse("x*y - 10200"), 500)
    assert rep.ok and rep.total == rep.oracle_total == 24
    assert len(calls) == 1
    curves = [pr.curves for br in rep.per_branch for pr in br.pieces]
    assert len(curves) == 2 and curves[0][0]["poly"] == curves[1][0]["poly"]
    assert {tuple(p[::-1]) for p in curves[0][0]["points"]} == {tuple(p) for p in curves[1][0]["points"]}
    report = json.dumps(rep.to_json_dict(), sort_keys=True).encode()
    assert hashlib.sha256(report).hexdigest() == "db370a9cf974ead961e601c2d5cb10a41eca4c2f6d75d16b80bd22aadd0e55bb"


# curve, N, calls of `_decompose_frame`, of each per-branch stage and of
# `bezout_intersect`, the number of branch reports, and the report's SHA-256
SYMMETRY_CASES = (
    ("x^2 + y^2 - 250000", 500, 1, 1, 1, 2, "dfb89c980e4e332e377ef170b43b8a104fe5fcf9a6ad832e8c147770b24a2507"),
    ("x*y - 10200", 500, 1, 1, 1, 2, "db370a9cf974ead961e601c2d5cb10a41eca4c2f6d75d16b80bd22aadd0e55bb"),
    ("x^3 + y^3 - 1729", 100, 1, 1, 1, 2, "971147f310d29888d05a42859102846830abaa1556a6b3ee4a38318bf173327a"),
    ("x^2 - 2*x*y + y^2 - 2*x - 2*y", 50, 1, 2, 2, 4, "3efcb5366fa5a93c4928348beeceacfe3101072d1c02dd96ff5eb826b1b969b3"),
    ("y^2 - x^3 - x - 1", 25, 2, 1, 0, 1, "9910229b0650b1ad62c7fb35a8d0dd9d5894fe1cce88b50e1bf867c8a0410b26"),
    ("x^2 + 2*x*y + y^2 - 2", 50, 2, 1, 0, 1, "8051c38bfae16a3723d4dcb6cd02ce105425b5629ac603952bb7d295e37c5d99"),
)
PER_BRANCH_STAGES = ("partition_by_bounds", "branch_integer_points", "greedy_cover", "curve_budget")


def test_curve_equal_to_its_transpose_is_counted_in_one_frame(monkeypatch):
    """Operation-count guard: from empty caches, a curve equal to its
    transpose whose slope is not identically +-1 is decomposed in one
    frame (one `_decompose_frame` call, two before), and each mirrored
    pair of branches is partitioned, searched, covered and budgeted once
    (each stage once per pair, twice before); `bezout_intersect` runs once
    per cover, as when covers alone were shared.  The cubic y^2 - x^3 - x
    - 1 is not symmetric, so it still decomposes both frames, and the
    slope-degenerate (x + y)^2 - 2 still reports one branch.  Each report
    is the one the count gave with both frames decomposed (its SHA-256 is
    pinned)."""
    calls = Counter()

    def counting_calls(module, name):
        original = getattr(module, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)

    counting_calls(branch, "_decompose_frame")
    for name in PER_BRANCH_STAGES + ("bezout_intersect",):
        counting_calls(counting, name)
    for text, n, frames, per_branch, intersections, branches, sha in SYMMETRY_CASES:
        _clear_caches()
        calls.clear()
        rep = determinant_method_count(parse(text), n)
        assert rep.ok and rep.total == rep.oracle_total, text
        assert calls["_decompose_frame"] == frames, text
        assert all(calls[name] == per_branch for name in PER_BRANCH_STAGES), (text, calls)
        assert calls["bezout_intersect"] == intersections, text
        assert len(rep.per_branch) == branches, text
        report = json.dumps(rep.to_json_dict(), sort_keys=True).encode()
        assert hashlib.sha256(report).hexdigest() == sha, text


def test_mirrored_branches_warn_once_each(monkeypatch):
    """The shared frame work of a mirrored pair still gives one warning per
    branch: x*y - 10200 with a zero curve budget warns on both branches."""
    monkeypatch.setattr(counting, "curve_budget", lambda length, spec, mset: 0)
    rep = determinant_method_count(parse("x*y - 10200"), 500)
    assert rep.ok is False and rep.total == rep.oracle_total == 24
    assert rep.warnings == ["curve budget exceeded on piece ('101', '500'): 1 > 0"] * 2


def _kth_root(v, k):
    """The integer k-th root of v >= 0, or None when v is not a k-th power."""
    lo, hi = 0, 1 << (v.bit_length() // k + 1)
    while lo < hi:
        mid = (lo + hi + 1) // 2
        lo, hi = (mid, hi) if mid**k <= v else (lo, mid - 1)
    return lo if lo**k == v else None


def _power_sum_points(m, k, n_box):
    """x^k + y^k = m in {1..N}^2, one k-th root per abscissa."""
    ys = {x: _kth_root(m - x**k, k) for x in range(1, n_box + 1) if x**k < m}
    return {(x, y) for x, y in ys.items() if y is not None and 1 <= y <= n_box}


def _norm_form_points(m, s, n_box):
    """x^2 + s*x*y + y^2 = m, s = +-1, in {1..N}^2: y = (-s*x +- r) / 2 with
    r^2 = 4*m - 3*x^2."""
    points = set()
    for x in range(1, n_box + 1):
        if 3 * x * x > 4 * m:
            break
        r = math.isqrt(4 * m - 3 * x * x)
        if r * r == 4 * m - 3 * x * x:
            points.update((x, (-s * x + e * r) // 2) for e in (1, -1) if (-s * x + e * r) % 2 == 0)
    return {(x, y) for x, y in points if 1 <= y <= n_box}


def _divisor_points(m, n_box):
    """x*y = m in {1..N}^2, one divisor test per abscissa."""
    return {(x, m // x) for x in range(1, n_box + 1) if m % x == 0 and m // x <= n_box}


@pytest.mark.parametrize(
    "text, n_box, count, reference",
    [
        ("x^2 + y^2 - 4884100", 10**4, 26, lambda n: _power_sum_points(4884100, 2, n)),
        ("x*y - 720720", 10**4, 156, lambda n: _divisor_points(720720, n)),
        ("x^2 + x*y + y^2 - 2989441", 10**4, 26, lambda n: _norm_form_points(2989441, 1, n)),
        ("x^2 - x*y + y^2 - 2989441", 10**4, 53, lambda n: _norm_form_points(2989441, -1, n)),
        ("x^3 + y^3 - 87539319", 1000, 6, lambda n: _power_sum_points(87539319, 3, n)),
        ("x^4 + y^4 - 635318657", 200, 4, lambda n: _power_sum_points(635318657, 4, n)),
    ],
)
def test_symmetric_lattice_rich_curves_match_oracle_and_reference(text, n_box, count, reference):
    """Differential suite on circles, a hyperbola, norm forms and sums of
    powers, each equal to its transpose: the pipeline's points equal an
    independent reference (a root per abscissa or a divisor loop) and its
    total the oracle's, and each mirrored pair of branch reports (the
    unswapped half of the branches, then the swapped half, in one order)
    carries the same pieces and covers with transposed points."""
    rep = determinant_method_count(parse(text), n_box)
    points = reference(n_box)
    assert rep.ok and rep.total == rep.oracle_total == len(points) == count
    assert {(x, y) for x, y, _ in rep.csv_rows()} == points
    half = len(rep.per_branch) // 2
    assert half and len(rep.per_branch) == 2 * half
    for plain, mirror in zip(rep.per_branch[:half], rep.per_branch[half:]):
        assert plain.descriptor["orientation"] == "x-over-y" and mirror.descriptor["orientation"] == "y-over-x"
        assert {**plain.descriptor, "orientation": None} == {**mirror.descriptor, "orientation": None}
        assert len(plain.pieces) == len(mirror.pieces)
        for a, b in zip(plain.pieces, mirror.pieces):
            assert (a.interval, a.flags, a.mode, a.budget) == (b.interval, b.flags, b.mode, b.budget)
            assert [LatticePoint(p.y, p.x) for p in a.direct_points] == b.direct_points
            assert [c["poly"] for c in a.curves] == [c["poly"] for c in b.curves]
            for ca, cb in zip(a.curves, b.curves):
                assert sorted(p[::-1] for p in ca["points"]) == cb["points"]


def _parabola_points(a, b, c, n_box):
    """x = a*y^2 + b*y + c in {1..N}^2: one value per ordinate."""
    return {(x, y) for y in range(1, n_box + 1) if 1 <= (x := a * y * y + b * y + c) <= n_box}


def _pell_points(d, n_box):
    """x^2 - d*y^2 = 1 in {1..N}^2: one `math.isqrt` test per ordinate."""
    points = set()
    for y in range(1, n_box + 1):
        x = math.isqrt(d * y * y + 1)
        if x > n_box:
            break
        if x * x == d * y * y + 1:
            points.add((x, y))
    return points


@pytest.mark.parametrize(
    "text, n_box, count, reference",
    [
        ("x - 3*y^2 - 2*y - 5", 10**4, 57, lambda n: _parabola_points(3, 2, 5, n)),
        ("x - y^2 + 7*y - 1", 10**4, 97, lambda n: _parabola_points(1, -7, 1, n)),
        ("x^2 - 2*y^2 - 1", 10**4, 5, lambda n: _pell_points(2, n)),
        ("x^2 - 7*y^2 - 1", 10**4, 3, lambda n: _pell_points(7, n)),
    ],
)
def test_lattice_rich_curves_match_oracle_and_reference(text, n_box, count, reference):
    """Differential suite on curves that are not their own transpose:
    parabolas against their closed form and Pell conics against an
    `math.isqrt` scan.  The pipeline's points equal the reference and its
    total the oracle's."""
    rep = determinant_method_count(parse(text), n_box)
    points = reference(n_box)
    assert rep.ok and rep.total == rep.oracle_total == len(points) == count
    assert {(x, y) for x, y, _ in rep.csv_rows()} == points


CUBIC_MONOMIALS = [(i, d - i) for d in range(4) for i in range(d + 1)]


def _cubic_through(points):
    """A primitive integer cubic through the nine points: a kernel vector of
    their 9 x 10 cubic monomial matrix, by Gauss-Jordan elimination on
    `Fraction`s, with its first free coordinate set to 1."""
    m = [[Fraction(x**i * y**j) for i, j in CUBIC_MONOMIALS] for x, y in points]
    pivots = []
    for col in range(len(CUBIC_MONOMIALS)):
        r = len(pivots)
        k = next((i for i in range(r, len(m)) if m[i][col]), None)
        if k is None:
            continue
        m[r], m[k] = m[k], m[r]
        m[r] = [v / m[r][col] for v in m[r]]
        for i in range(len(m)):
            if i != r and m[i][col]:
                m[i] = [a - m[i][col] * b for a, b in zip(m[i], m[r])]
        pivots.append(col)
    free = next(c for c in range(len(CUBIC_MONOMIALS)) if c not in pivots)
    vec = [Fraction(c == free) for c in range(len(CUBIC_MONOMIALS))]
    for row, col in zip(m, pivots):
        vec[col] = -row[free]
    coeffs = primitive_ints(vec)
    return BiPoly({mono: c for mono, c in zip(CUBIC_MONOMIALS, coeffs) if c})


def test_cubics_through_nine_lattice_points_match_oracle_and_sweep():
    """Differential suite on seeded cubics through nine lattice points of
    [1, 10]^2, at N = 20: the pipeline's points equal those of an x sweep
    (`x_sweep_count`) and include the nine, and its total is the oracle's.
    A draw that the count rejects (a line in the box, or a `BranchError`)
    is skipped; four draws are counted."""
    rng = random.Random(3)
    counted = rejected = 0
    while counted < 4:
        chosen = set()
        while len(chosen) < 9:
            chosen.add((rng.randint(1, 10), rng.randint(1, 10)))
        curve = _cubic_through(sorted(chosen))
        assert all(evaluate_bipoly(curve, x, y) == 0 for x, y in chosen)
        try:
            rep = determinant_method_count(curve, 20)
        except (branch.BranchError, CountingError, poly2.IngestionError):
            rejected += 1
            continue
        total, swept = x_sweep_count(curve, 20)
        got = {(x, y) for x, y, _ in rep.csv_rows()}
        assert rep.ok and rep.total == rep.oracle_total == total, curve
        assert got == {(p.x, p.y) for p in swept} and chosen <= got, curve
        counted += 1
    assert rejected == 1


def test_pipeline_takes_level_curves_from_reduced_parts(monkeypatch):
    """Operation-count guard: every level curve of the pipeline is a sum of
    the two reduced parts of its order, kept on the same frame record, so
    no unreduced implicit derivative is built (no `hk_sequence` call), and
    the totals equal the oracle's.  3*x^2*y + 4*y^3 - 5*y^2 - 2*x at N = 22
    leaves orders of its hulls to the level sets, and so does y^2 - x^3 +
    8*x - 8 at N = 25 on its swapped one-point hull [4, 4], next to a
    branch point, where the discs prove order 1 only; the disc certificate
    proves every order of x - 3*y^5 at N = 100, so it builds no level curve
    at all.  5*x^2*y - 2 at N = 38
    builds level sets on both frames, whose lc_y(F), 5*x^2 and 5*x, are
    polynomials, and still builds no unreduced H_k."""
    cases = (
        ("x - 3*y^5", 100, False),
        ("y^2 - x^3 + 8*x - 8", 25, True),
        ("3*x^2*y + 4*y^3 - 5*y^2 - 2*x", 22, True),
        ("5*x^2*y - 2", 38, True),
    )
    parts = _recorded_partitions(monkeypatch)
    unreduced = []
    hk_sequence = branch.hk_sequence
    monkeypatch.setattr(branch, "hk_sequence", lambda *args: unreduced.append(args) or hk_sequence(*args))
    for text, n, builds in cases:
        parts.clear()
        rep = determinant_method_count(parse(text), n)
        assert rep.ok and rep.total == rep.oracle_total, text
        frames = _frame_records(parts)
        assert any(frame.level_parts for frame in frames) == builds, text
        assert all(i in frame.level_parts for frame in frames for i, _, _ in frame.level_curves), text
        assert unreduced == [], text


def test_pipeline_builds_level_sets_only_for_uncertified_orders(monkeypatch):
    """Operation-count guard: x - 2*y^2 - 53*y at N = 500 equals the
    oracle, and its frame records hold exactly the two level curves of each
    (frame curve, order) that the disc certificate left; here it proves
    every order of every branch, so none is built, nor any level part."""
    parts = _recorded_partitions(monkeypatch)
    rep = determinant_method_count(parse("x - 2*y^2 - 53*y"), 500)
    assert rep.ok and rep.total == rep.oracle_total == 7
    left = {(br.curve, i) for br, big_d, part in parts for i in range(1, big_d) if i not in part.certified}
    frames = _frame_records(parts)
    assert sum(len(frame.level_curves) for frame in frames) == 2 * len(left)
    assert parts and left == set()
    assert not any(frame.level_parts for frame in frames)


def test_second_count_in_one_process_builds_what_the_first_built(monkeypatch):
    """No value outlives its count: y^2 - x^3 + 5*x + 2 at N = 25, oracle
    off, makes 18 `poly2.resultant_eliminating_y` calls, and as many when
    it is counted again in the same process, with a byte-identical report."""
    calls = []
    original = poly2.resultant_eliminating_y
    monkeypatch.setattr(poly2, "resultant_eliminating_y", lambda p, q: calls.append((p, q)) or original(p, q))
    runs = []
    for _ in range(2):
        calls.clear()
        rep = determinant_method_count(parse("y^2 - x^3 + 5*x + 2"), 25, compare_oracle=False)
        runs.append((list(calls), json.dumps(rep.to_json_dict(), sort_keys=True)))
    assert len(runs[0][0]) == 18
    assert runs[1] == runs[0]


def test_count_walks_each_level_set_once_per_domain(monkeypatch):
    """Operation-count guard: branches on one cell share their frame's
    level sets, and levels that share an eliminant share its walk, so a
    count walks each (eliminant, domain) pair once.  The cubic
    (y - 1)(y - 2)(y - 7) - 3(x - 1)(x - 2)(x - 7) at N = 10 asks
    `level_set_abscissas` 32 times over 16 distinct (eliminant, domain)
    pairs, and -3x^3 + 6xy^2 - 5 at N = 34 asks 18 times over 16, two
    levels there sharing eliminants; each walks once per pair, and every
    answer equals a fresh walk of its eliminant."""
    asked, walks = [], []
    level_set_abscissas, root_slots = branch.level_set_abscissas, branch.root_slots

    def recorded(br, i, p, q):
        slots = level_set_abscissas(br, i, p, q)
        asked.append((br, i, p, q, slots))
        return slots

    def counted(p, lo=None, hi=None):
        if sys._getframe(1).f_code.co_name == "level_set_abscissas":
            walks.append((tuple(p), lo, hi))
        return root_slots(p, lo, hi)

    monkeypatch.setattr(branch, "level_set_abscissas", recorded)
    monkeypatch.setattr(branch, "root_slots", counted)
    cases = (("(y - 1)*(y - 2)*(y - 7) - 3*(x - 1)*(x - 2)*(x - 7)", 10, 32), ("-3*x^3 + 6*x*y^2 - 5", 34, 18))
    for text, n_box, n_asked in cases:
        asked.clear()
        walks.clear()
        rep = determinant_method_count(parse(text), n_box)
        assert rep.ok and rep.total == rep.oracle_total, text
        pairs = {(br.frame.level_eliminants[i, p, q], *br.domain) for br, i, p, q, _ in asked}
        assert (len(asked), len(pairs)) == (n_asked, 16), text
        assert sorted(walks) == sorted(pairs), text
        for br, i, p, q, slots in asked:
            assert slots == unipoly.root_slots(br.frame.level_eliminants[i, p, q], *br.domain), (br, i, p, q)


def test_count_builds_each_frame_discriminant_once(monkeypatch):
    """Operation-count guard: from empty caches, a count asks
    `poly2.resultant_eliminating_y`, the one binding in the package, for no
    (curve, q) pair twice outside `bezout_intersect`, whose cover
    eliminants are each read once.  So each frame curve's Res_y(F, F_y) is
    built once for the ingestion check, the frame cuts and the disc test,
    also when both frames are one curve (the circle and the hyperbola).
    With the oracle on, the sweep builds its own discriminant of the swept
    frame, so that one pair is asked exactly twice."""
    original, intersect = poly2.resultant_eliminating_y, counting.bezout_intersect
    calls, inside = Counter(), []

    def counted(p, q):
        if not inside:
            calls[p, q] += 1
        return original(p, q)

    def cover_intersect(*args):
        inside.append(True)
        try:
            return intersect(*args)
        finally:
            inside.pop()

    monkeypatch.setattr(poly2, "resultant_eliminating_y", counted)
    monkeypatch.setattr(counting, "bezout_intersect", cover_intersect)
    for text, n in (
        ("y^2 - x^3 - x - 1", 25),
        ("x^2 + y^2 - 65", 100),
        ("x*y - 12", 100),
        ("x - 2*y^2 - 53*y", 500),
    ):
        for oracle in (False, True):
            _clear_caches()
            calls.clear()
            g = parse(text).primitive_integer()
            rep = determinant_method_count(g, n, compare_oracle=oracle)
            assert rep.ok and rep.oracle_total in (None, rep.total), text
            swept = g.swap_xy() if g.degree_x() < g.degree_y() else g
            if oracle and swept.degree_y() >= 2:
                assert calls.pop((swept, partial(swept, "y"))) == 2, text
            assert calls and max(calls.values()) == 1, (text, oracle, calls.most_common(1)[0][1])


def test_count_ingests_once(monkeypatch):
    """A count runs `ingestion_check` once, in `determinant_method_count`:
    `graph_decompose` takes its output and checks nothing again."""
    calls = []
    original = poly2.ingestion_check

    def counted(f):
        calls.append(f)
        return original(f)

    for module in (poly2, counting, branch):
        if hasattr(module, "ingestion_check"):
            monkeypatch.setattr(module, "ingestion_check", counted)
    assert determinant_method_count(parse("x^2 + y^2 - 65"), 100).ok
    assert calls == [parse("x^2 + y^2 - 65")]


def test_slow_cubics_match_oracle_with_no_sturm_chain(monkeypatch):
    """Cubics whose level-set eliminants reach degree 84-90 with roots close
    together: isolating them by Sturm chains took 3.2 s and 9.1 s.  Every
    locus, the level-set eliminants among them, is read by the integer walk
    (`root_slots`), which builds no Sturm chain.  From empty caches the
    first count takes 2 squarefree parts, where a unit gap keeps a
    Descartes bound of 2 or more, and the second none; neither takes an
    integer gcd."""
    chains = _counted_sturm_chains(monkeypatch)
    gcds = []
    poly_gcd = unipoly.poly_gcd
    monkeypatch.setattr(unipoly, "poly_gcd", lambda a, b: gcds.append(a) or poly_gcd(a, b))
    for text, n, squarefree in (
        ("-x^3 - 5*x^2*y + 4*y^3 + 3*x*y - 3*x", 27, 2),
        ("4*x^3 + 4*x^2*y + 3*x^2 + 4*x - 5*y", 37, 0),
    ):
        _clear_caches()
        gcds.clear()
        rep = determinant_method_count(parse(text), n)
        assert rep.ok and rep.total == rep.oracle_total, (text, n)
        assert chains == [] and gcds == [], (text, n)
        assert unipoly.squarefree_part.cache_info().misses == squarefree, (text, n)


def test_pipeline_small_delta_enumerate_path():
    """A small decay rate forces large-derivative pieces; the direct
    enumeration route must still match the oracle exactly."""
    rep = determinant_method_count(parse("x - y^2"), 100, delta=Fraction(1, 4))
    assert rep.total == rep.oracle_total == 10
    modes = {pr.mode for br in rep.per_branch for pr in br.pieces}
    assert modes == {"cover", "enumerate"}
    assert rep.ok


def _not_ok_report(monkeypatch, name, fake, delta=None):
    """`x - y^2` at N = 100, counted with `counting.<name>` replaced by
    `fake`.  Its one branch is partitioned on the hull [1, 100]: one cover
    piece of one curve at the default delta, and at delta = 1/4 the
    enumerated run [1, 1] before the cover piece [2, 100]."""
    monkeypatch.setattr(counting, name, fake)
    return determinant_method_count(parse("x - y^2"), 100, delta=delta)


def test_pipeline_not_ok_when_a_cover_exceeds_its_budget(monkeypatch):
    rep = _not_ok_report(monkeypatch, "curve_budget", lambda length, spec, mset: 0)
    assert rep.ok is False and rep.total == rep.oracle_total == 10
    assert rep.warnings == ["curve budget exceeded on piece ('1', '100'): 1 > 0"]


def test_pipeline_not_ok_when_a_large_piece_is_long(monkeypatch):
    rep = _not_ok_report(monkeypatch, "large_interval_check", lambda piece, delta: False, Fraction(1, 4))
    assert rep.ok is False and rep.total == rep.oracle_total == 10
    assert rep.warnings == ["large-derivative piece ('1', '1') exceeds 2/delta"]


def test_pipeline_not_ok_on_an_oracle_mismatch(monkeypatch):
    sweep = counting.brute_force_count

    def off_by_one(curve, n_box):
        total, points = sweep(curve, n_box)
        return total + 1, points

    rep = _not_ok_report(monkeypatch, "brute_force_count", off_by_one)
    assert rep.ok is False and (rep.total, rep.oracle_total) == (10, 11)
    assert rep.warnings == ["oracle mismatch: pipeline 10 vs sweep 11"]


def test_pipeline_csv_rows_cover_total():
    rep = determinant_method_count(parse("x*y - 12"), 12)
    rows = rep.csv_rows()
    assert len(rows) == rep.total
    assert {(r[0], r[1]) for r in rows} == {
        (1, 12), (2, 6), (3, 4), (4, 3), (6, 2), (12, 1)
    }


# -- one number type inside a count ---------------------------------------------------

# `Fraction.__new__`, and on Pythons whose `fractions` builds arithmetic
# results through it, `Fraction._from_coprime_ints`
_FRACTION_CONSTRUCTORS = {Fraction.__new__.__code__} | (
    {Fraction._from_coprime_ints.__func__.__code__} if hasattr(Fraction, "_from_coprime_ints") else set()
)


def _fraction_constructions(count):
    """The package frames (module, function), nearest first, above each
    `Fraction` construction that count() makes; one made outside the
    package is left out."""
    package = str(Path(latcurve.__file__).parent)
    made = []

    def profile(frame, event, arg):
        if event != "call" or frame.f_code not in _FRACTION_CONSTRUCTORS:
            return
        stack = []
        while frame is not None:
            if frame.f_code.co_filename.startswith(package):
                stack.append((Path(frame.f_code.co_filename).stem, frame.f_code.co_name))
            frame = frame.f_back
        if stack:
            made.append(stack)

    sys.setprofile(profile)
    try:
        count()
    finally:
        sys.setprofile(None)
    return made


def test_counts_make_fractions_only_for_delta():
    """Every number inside a count is an `int`: on the fixture curves with
    the oracle on and on one seed-1 round each of latbench `partition` and
    `columns`, a count constructs a `Fraction` only for delta on entry
    (`determinant_method_count` or `default_delta`, at most two) and in
    `DerivativeBoundSpec.__post_init__`.  `unipoly`, whose bracket ends are
    integers over a power of two, `poly2`, `branch`, `exactlinalg` and
    `monomials` construct none."""
    workloads = latbench_workloads()
    cases = list(FIXTURES) + [
        (c.text, c.n_box) for name in ("partition", "columns") for row in workloads[name].rounds(1, 1) for c in row
    ]
    at_entry = {("counting", "determinant_method_count"), ("counting", "default_delta")}
    modules = Counter()
    for text, n_box in cases:
        curve = parse(text)
        made = _fraction_constructions(lambda: determinant_method_count(curve, n_box))
        modules.update(stack[0][0] for stack in made)
        stray = Counter(
            stack[0] for stack in made if stack[0] not in at_entry and stack[0] != ("detmethod", "__post_init__")
        )
        assert not stray, (text, n_box, stray)
        assert sum(stack[0] in at_entry for stack in made) <= 2, (text, n_box)
    assert set(modules) <= {"counting", "detmethod"}, modules


def test_scaled_negated_and_swapped_inputs_count_alike():
    """Metamorphic checks with no oracle on the fixture curves: F, -F, 3*F
    and (2/7)*F ingest to one curve and give byte-identical reports, the
    rational content of the last being the one place where a rational
    enters a count; F(y, x) gives the same total."""
    for text, n_box in FIXTURES:
        f = parse(text)
        want = json.dumps(determinant_method_count(f, n_box, compare_oracle=False).to_json_dict(), sort_keys=True)
        for g in (-f, f * 3, f * Fraction(2, 7)):
            got = determinant_method_count(g, n_box, compare_oracle=False).to_json_dict()
            assert json.dumps(got, sort_keys=True) == want, (text, g)
        swapped = determinant_method_count(f.swap_xy(), n_box, compare_oracle=False)
        assert swapped.total == json.loads(want)["total"], text
