"""Exact helpers that only the tests call, kept here as references: a
certified sup bound, an integer test on an isolating bracket, a `Fraction`
determinant, a reduction modulo a curve and the exact division that takes
its leading power back out of an eliminant, the sign of a polynomial along
a branch, and a lattice-point sweep over x alone.  The package decides each
of these inside its own code paths."""

import math
from collections.abc import Sequence
from fractions import Fraction

from latcurve.branch import AlgebraicBranch, branch_value_bracket
from latcurve.detmethod import LatticePoint
from latcurve.exactlinalg import bareiss_determinant
from latcurve.poly2 import BiPoly, ResultantDomainError, reduce_times_lead_power
from latcurve.unipoly import (
    RootInterval,
    UniPoly,
    _int_eval,
    _primitive,
    int_exact_quotient,
    integer_roots,
    refine_root,
    sign_at_root,
)


def poly_sup_bound(p: UniPoly, lo: Fraction, hi: Fraction, pieces: int = 16) -> Fraction:
    """A certified rational upper bound for sup |p| on [lo, hi].

    Taylor-expand at the left end of each subinterval and bound by the
    coefficient sums; always >= the true supremum, and tight as pieces grow.
    """
    lo, hi = Fraction(lo), Fraction(hi)
    if lo > hi:
        raise ValueError("empty interval")
    if p.is_zero():
        return Fraction(0)
    best = Fraction(0)
    step = (hi - lo) / pieces if hi > lo else Fraction(0)
    for i in range(pieces if hi > lo else 1):
        a = lo + step * i
        w = step
        # coefficients of p(a + t) via iterated derivatives
        bound = Fraction(0)
        q = p
        fact = 1
        k = 0
        wpow = Fraction(1)
        while not q.is_zero():
            bound += abs(q.evaluate(a)) / fact * wpow
            q = q.derivative()
            k += 1
            fact *= k
            wpow *= w
        best = max(best, bound)
    return best


def integer_in(r: RootInterval) -> int | None:
    """The root isolated by r when it is an integer, else None.

    Below width 1/2 the bracket holds at most one integer, so one exact
    evaluation decides.
    """
    r = refine_root(r, Fraction(1, 2))
    k = math.ceil(r.lo)
    if k <= r.hi and _int_eval(r.polynomial, k) == 0:
        return k
    return None


def fraction_determinant(rows) -> Fraction:
    """Exact determinant over the rationals (plain division is already exact)."""
    m = [[Fraction(e) for e in row] for row in rows]
    return bareiss_determinant(m, lambda a, b: a / b)


def reduce_modulo(f: BiPoly, p: BiPoly) -> tuple[BiPoly, int]:
    """(R, k): R = lc_y(f)^E * p mod f in y for an E >= 0, so deg_y R < deg_y
    f and R has the sign of p wherever f = 0 and lc_y(f) != 0; and k >= 0
    with Res_y(f, R) a positive multiple of Res_y(f, p) * lc_y(f)^k.

    E is the pseudo-remainder's deg_y p - deg_y f + 1, raised by one when
    odd unless lc_y(f) is a positive constant, whose odd powers keep the
    sign too; p of lower y-degree than f is its own R, with E = k = 0.
    Since R = lc_y(f)^E * p - Q * f, Res_y(f, R) = lc_y(f)^(E * deg_y f -
    deg_y p + deg_y R) * Res_y(f, p), for R nonzero.
    """
    m, n = p.degree_y(), f.degree_y()
    if n < 1:
        raise ResultantDomainError("reduction requires a curve of positive y-degree")
    if m < n:
        return p, 0
    e = m - n + 1
    lead = f.rows[-1]
    if e % 2 and (len(lead) > 1 or lead[0] < 0):
        e += 1
    # lc_y(f) is prim(lc_y f) times the positive content of its row
    r = reduce_times_lead_power(f, p, e) * Fraction(lead[-1] // _primitive(lead)[-1]) ** e
    return r, e * n - m + max(r.degree_y(), 0)


def divide_lc_power(f: BiPoly, res: Sequence[int], k: int) -> list[int]:
    """res / prim(lc_y f)^k for an integer polynomial res that it divides,
    exactly and with no content division: from a positive multiple of Res_y(f,
    R), for R = prim(lc_y f)^E * p mod f and the k for which Res_y(f, R) is a
    positive multiple of Res_y(f, p) * prim(lc_y f)^k, a positive multiple of
    Res_y(f, p).  prim(lc_y f) is lc_y(f) over its positive content, so a
    constant leading coefficient only sets the sign."""
    lead = _primitive(f.rows[-1])
    out = list(res)
    if len(lead) == 1:
        return [-c for c in out] if lead[0] < 0 and k % 2 else out
    for _ in range(k):
        out = int_exact_quotient(out, lead)
    return out


def branch_sign(branch: AlgebraicBranch, x0: Fraction | int, p: BiPoly) -> int:
    """Exact sign of p(x0, f(x0)) along the branch."""
    x0 = Fraction(x0)
    return sign_at_root(branch_value_bracket(branch, x0), p.int_column(x0))


def x_sweep_count(curve: BiPoly, n_box: int) -> tuple[int, list[LatticePoint]]:
    """Integer points of {1..N}^2 on a curve that no line x = c, 1 <= c <= N,
    divides: one column in y per abscissa x = 1..N, whatever the curve's
    degrees.  The points come out sorted by (x, y)."""
    if curve.degree_y() == 0:
        return 0, []
    points: list[LatticePoint] = []
    for x0 in range(1, n_box + 1):
        points.extend(LatticePoint(x0, y0) for y0 in integer_roots(curve.int_column(x0), 1, n_box))
    return len(points), points
