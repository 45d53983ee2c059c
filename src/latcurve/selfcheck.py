"""Built-in invariant suites for `latcurve verify`.

Deterministic, fast subsets of the property checks; each check returns
(name, passed, detail).  The pytest suite remains the full gate.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Callable

from .branch import branch_from_point, graph_decompose, hk_sequence, taylor_coefficients
from .counting import bezout_intersect, determinant_method_count
from .detmethod import LatticePoint, extract_cover_curve, greedy_cover
from .exactlinalg import integer_determinant, integer_kth_root_ceiling, matrix_rank
from .jarnik import convex_slope_check, jarnik_construct, verify_smoothing
from .monomials import full_set, punctured_set
from .poly2 import BiPoly, parse, partial, resultant_eliminating_y
from .unipoly import UniPoly, count_real_roots, integer_roots, isolate_real_roots

Check = tuple[str, bool, str]


def _check(name: str, fn: Callable[[], bool]) -> Check:
    try:
        return (name, bool(fn()), "")
    except Exception as exc:  # surfaced, not hidden: verify must not crash
        return (name, False, f"{type(exc).__name__}: {exc}")


def suite_exactcore() -> list[Check]:
    rng = random.Random(2024)

    def rank_samples():
        for _ in range(50):
            rows, cols = rng.randint(1, 4), rng.randint(1, 4)
            m = [[Fraction(rng.randint(-5, 5)) for _ in range(cols)] for _ in range(rows)]
            r = matrix_rank(m)
            if not 0 <= r <= min(rows, cols):
                return False
        return True

    def det_multiplicative():
        for _ in range(40):
            n = rng.randint(1, 3)
            a = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)]
            b = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)]
            ab = [[sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n)] for i in range(n)]
            if integer_determinant(ab) != integer_determinant(a) * integer_determinant(b):
                return False
        return True

    def roots_exact():
        p = [-6, 11, -6, 1]
        if count_real_roots(p, 0, 4) != 3:
            return False
        if integer_roots(p) != [1, 2, 3]:
            return False
        for r in isolate_real_roots(p, 0, 4):
            if not r.lo <= r.hi:
                return False
        return True

    def kth_roots():
        for _ in range(100):
            v = Fraction(rng.randint(1, 10**6), rng.randint(1, 100))
            k = rng.randint(1, 10)
            m = integer_kth_root_ceiling(v, k)
            if Fraction(m) ** k < v or (m >= 1 and Fraction(m - 1) ** k >= v):
                return False
        return True

    return [
        _check("rank bounds on random matrices", rank_samples),
        _check("determinant is multiplicative", det_multiplicative),
        _check("cubic root isolation", roots_exact),
        _check("k-th root ceiling bracketing", kth_roots),
    ]


def suite_poly2() -> list[Check]:
    def roundtrip():
        rng = random.Random(7)
        for _ in range(60):
            terms = {
                (rng.randint(0, 3), rng.randint(0, 3)): Fraction(rng.randint(-5, 5))
                for _ in range(rng.randint(1, 4))
            }
            p = BiPoly(terms)
            if parse(p.pretty()) != p:
                return False
        return True

    def resultant_examples():
        c = parse("x^2 + y^2 - 25")
        return resultant_eliminating_y(c, parse("y - 3")) == UniPoly([-16, 0, 1])

    def partials_commute():
        rng = random.Random(11)
        for _ in range(50):
            terms = {
                (rng.randint(0, 4), rng.randint(0, 4)): Fraction(rng.randint(-5, 5))
                for _ in range(rng.randint(1, 5))
            }
            p = BiPoly(terms)
            if partial(partial(p, "x"), "y") != partial(partial(p, "y"), "x"):
                return False
        return True

    return [
        _check("parse/print round trip", roundtrip),
        _check("resultant worked example", resultant_examples),
        _check("mixed partials commute", partials_commute),
    ]


def suite_monomials() -> list[Check]:
    def formulas():
        for d in range(2, 7):
            for ell in range(d, d + 7):
                for i_f in range(0, d + 1):
                    m = punctured_set(d, ell, i_f)
                    if m.D != d * (ell - d + 1):
                        return False
                    if 2 * (m.p + m.q) != d * (ell * (ell + 1) - d * (d - 1)):
                        return False
        for d in range(1, 11):
            m = full_set(d)
            if 3 * m.p != d * m.D or 3 * m.q != d * m.D:
                return False
        return True

    return [_check("monomial-set size and exponent sums", formulas)]


def suite_detmethod() -> list[Check]:
    def cover_soundness():
        rng = random.Random(3)
        mset = full_set(2)
        for _ in range(20):
            seen = {}
            while len(seen) < rng.randint(2, 8):
                seen[rng.randint(0, 30)] = rng.randint(0, 30)
            points = [LatticePoint(x, y) for x, y in sorted(seen.items())]
            cert = greedy_cover(points, mset)
            for p, idx in cert.assignment.items():
                if cert.curves[idx].evaluate(p.x, p.y) != 0:
                    return False
        return True

    def diagonal_example():
        cover = extract_cover_curve(
            [LatticePoint(1, 1), LatticePoint(2, 2), LatticePoint(3, 3)], full_set(1)
        )
        return cover == parse("x - y")

    return [
        _check("greedy cover soundness", cover_soundness),
        _check("diagonal cover extraction", diagonal_example),
    ]


def suite_branch() -> list[Check]:
    def hk_identity():
        import math

        for text, seeds in (
            ("y^2 - x^3 - x - 1", [(0, 1)]),
            ("x*y - 12", [(3, 4), (2, 6)]),
            ("x^2 + y^2 - 25", [(3, 4)]),
        ):
            curve = parse(text)
            fy = partial(curve, "y")
            for x0, y0 in seeds:
                br = branch_from_point(curve, x0, y0, (x0, x0))
                cs = taylor_coefficients(br, x0, 5)
                for k, hk in enumerate(hk_sequence(curve, 5), start=1):
                    lhs = hk.evaluate(x0, y0) + fy.evaluate(x0, y0) ** (
                        2 * k - 1
                    ) * math.factorial(k) * cs[k]
                    if lhs != 0:
                        return False
        return True

    def decompose_circle():
        dec = graph_decompose(parse("x^2 + y^2 - 25"), 5)
        return len(dec.branches) == 2

    return [
        _check("implicit-derivative identity", hk_identity),
        _check("circle decomposition", decompose_circle),
    ]


def suite_counting() -> list[Check]:
    def pipeline_agreement():
        for text, n in (("x*y - 12", 12), ("x - y^2", 100), ("x^2 + y^2 - 25", 10)):
            rep = determinant_method_count(parse(text), n)
            if not rep.ok or rep.total != rep.oracle_total:
                return False
        return True

    def bezout_cap():
        rng = random.Random(5)
        done = 0
        while done < 40:
            f = BiPoly(
                {(rng.randint(0, 2), rng.randint(0, 2)): rng.randint(-3, 3) for _ in range(3)}
            )
            g = BiPoly(
                {(rng.randint(0, 2), rng.randint(0, 2)): rng.randint(-3, 3) for _ in range(3)}
            )
            if f.degree < 1 or g.degree < 1:
                continue
            try:
                pts = bezout_intersect(f, g, 20)
            except Exception:
                continue
            if len(pts) > f.degree * g.degree:
                return False
            done += 1
        return True

    return [
        _check("pipeline equals brute force", pipeline_agreement),
        _check("intersection size cap", bezout_cap),
    ]


def suite_jarnik() -> list[Check]:
    def growth():
        for h in range(5, 21):
            cfg = jarnik_construct(h)
            if 5 * cfg.t < 3 * h * h or cfg.q_total > h**3:
                return False
            if not convex_slope_check(cfg.points):
                return False
        return True

    def smoothing():
        return all(verify_smoothing(jarnik_construct(h)) for h in (2, 3, 5))

    return [
        _check("configuration growth bounds", growth),
        _check("strictly convex smoothing", smoothing),
    ]


SUITES: dict[str, Callable[[], list[Check]]] = {
    "exactcore": suite_exactcore,
    "poly2": suite_poly2,
    "monomials": suite_monomials,
    "detmethod": suite_detmethod,
    "branch": suite_branch,
    "counting": suite_counting,
    "jarnik": suite_jarnik,
}


def run_suite(name: str) -> list[Check]:
    if name == "all":
        out = []
        for key in SUITES:
            out.extend(SUITES[key]())
        return out
    return SUITES[name]()
