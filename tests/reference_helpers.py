"""Exact helpers that only the tests call, kept here as references.

- Checks of the package's own decisions: root isolation, root counts and
  refinement on `Fraction` ends (`fraction_isolate_real_roots`,
  `fraction_count_real_roots`, `fraction_refine_root`, with their
  `FractionInterval` brackets), as the package ran them before its bracket
  ends became integers over a power of two, and the `Fraction` ends of
  either bracket (`ends`); a certified sup bound, an integer
  test, a range test and a rational root on an isolating bracket, every
  real root of a polynomial isolated over its root bound, the slot of an
  isolated root (`root_slot`), the slot and the integer root of a given rank, Descartes' bound with its former half-line
  shortcut, a `Fraction` determinant, a reduction
  modulo a curve and the exact division
  that takes its leading power back out of an eliminant, the sign of a
  polynomial along a branch, a branch's integer hull, disjoint isolating
  brackets with duplicates of one root dropped (`refine_disjoint`), the
  per-root crossing test of a level set, the disc certificate of
  derivative orders on `Fraction` positions (`fraction_certified_orders`),
  a lattice-point sweep over x alone, and the latbench workloads, read
  from their file.
- The paper's lemmas, which no count runs: the interpolation-determinant
  bound (Ryser's permanent of the derivative bounds), the single-curve
  threshold, a branch through a rational curve point with its exact Taylor
  coefficients, a truncated-series Taylor oracle, and cover counting on convex graphs from exact Taylor
  oracles, which meets Jarnik's configurations.

The package decides each of these inside its own code paths, or does not
need them to count."""

import dataclasses
import importlib.util
import math
import sys
from collections.abc import Callable, Iterable, Sequence
from dataclasses import dataclass, field
from fractions import Fraction
from math import ceil, comb, factorial, floor
from pathlib import Path
from typing import Optional

from latcurve.branch import (
    _MIN_DISC_LOG2,
    _STRETCH_LOG2,
    AlgebraicBranch,
    BranchError,
    FrameRecord,
    _column,
    _level_curve,
    _level_resultant,
    _root_free,
    _rouche_margin,
    branch_value_bracket,
    hk_sequence,
)
from latcurve.detmethod import (
    CoverCertificate,
    DerivativeBoundSpec,
    LatticePoint,
    _power_form,
    curve_budget,
    greedy_cover,
)
from latcurve.exactlinalg import bareiss_determinant
from latcurve.jarnik import JarnikConfiguration, smoothed_taylor
from latcurve.monomials import MonomialSet, full_set
from latcurve.poly2 import BiPoly, ExponentPair, ResultantDomainError, partial, reduce_times_lead_power
from latcurve.unipoly import (
    RootInterval,
    _coprime_mod_p,
    _int_eval,
    _int_root_bound,
    _primitive,
    _taylor_shift,
    affine_image,
    int_exact_quotient,
    integer_roots,
    isolate_real_roots,
    poly_gcd,
    refine_root,
    root_slots,
    sign_at_root,
    sign_variations,
    squarefree_part,
)

from fraction_bipoly import evaluate_bipoly
from fraction_unipoly import UniPoly


# -- root isolation on `Fraction` ends, as it was before dyadic brackets ------


def fraction_eval(f: Sequence[int], x: Fraction | int) -> int:
    """den^deg(f) * f(x) for x = num/den, den > 0, by homogeneous Horner: an
    integer with the sign of f(x)."""
    num, den = x.numerator, x.denominator
    acc = 0
    scale = 1
    for c in reversed(f):
        acc = acc * num + c * scale
        scale *= den
    return acc


def fraction_descartes_bound(f: Sequence[int], lo: Fraction, hi: Fraction) -> int:
    """Descartes' bound v on the roots of the integer polynomial f in the open
    (lo, hi), lo < hi, where f is nonzero at lo and at hi.

    v is never below the number of roots counted with multiplicity, and has
    its parity, so v = 0 means no root and v = 1 one simple root.  v is the
    number of sign variations of (1 + t)^n f((lo + hi*t)/(1 + t)), built on
    integers as the `affine_image` of f onto s in (0, 1), reversed and
    shifted by 1.
    """
    # lo = a/d and hi = b/d; h(s) = d^n f((b + (a - b) s)/d) maps s = 1/(1 + t)
    d = math.lcm(lo.denominator, hi.denominator)
    a, b = lo.numerator * (d // lo.denominator), hi.numerator * (d // hi.denominator)
    g = affine_image(f, b, a - b, d, len(f) - 1)
    g.reverse()
    return sign_variations(_taylor_shift(g, 1))


def _fraction_deflate(f: Sequence[int], ends: Iterable[Fraction], lo: Fraction, hi: Fraction) -> Sequence[int]:
    """f with the factor (den*x - num) of each root num/den in `ends` divided
    out completely, and its factor x^m when 0 lies outside the open (lo, hi):
    the same zeros in (lo, hi), and none at an end."""
    if not lo < 0 < hi:
        f = f[next(i for i, c in enumerate(f) if c):]
    for e in ends:
        while fraction_eval(f, e) == 0:
            f = int_exact_quotient(f, [-e.numerator, e.denominator])
    return f


def _fraction_end_roots(f: tuple[int, ...], lo: Fraction, hi: Fraction) -> tuple[list[Fraction], Sequence[int], int]:
    """(the ends of [lo, hi], lo <= hi, where f vanishes; f with their roots
    divided out; the Descartes bound v of that on (lo, hi), 0 if lo == hi)."""
    ends = [e for e in ((lo, hi) if hi > lo else (lo,)) if fraction_eval(f, e) == 0]
    if hi == lo:
        return ends, f, 0
    inner = _fraction_deflate(f, ends, lo, hi)
    return ends, inner, fraction_descartes_bound(inner, lo, hi)


def fraction_count_real_roots(p: Sequence[int], lo: Fraction | int, hi: Fraction | int) -> int:
    """Number of distinct real roots of p in the closed interval [lo, hi]:
    one per bracket of `fraction_isolate_real_roots`."""
    return len(fraction_isolate_real_roots(p, lo, hi))


@dataclass(frozen=True)
class FractionInterval:
    """Rational-endpoint interval isolating one real root of `polynomial`,
    a primitive integer tuple (coefficient index = degree).

    Either lo == hi is an exact rational root, at which `polynomial` need
    only vanish, or lo < hi and `polynomial` is nonzero at both ends, so its
    signs there differ, with exactly one zero in (lo, hi), a simple one.
    The polynomial has the zeros of the isolated one in the bracket but is
    not necessarily squarefree: a repeated root may remain outside the
    bracket.
    """

    lo: Fraction
    hi: Fraction
    polynomial: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.lo > self.hi:
            raise ValueError("lo > hi")

    def is_exact(self) -> bool:
        return self.lo == self.hi


def fraction_bisect_step(
    f: Sequence[int], lo: Fraction, hi: Fraction, s_lo: int
) -> tuple[Fraction, Fraction, int]:
    """One exact bisection of a bracket [lo, hi] across which the integer
    polynomial f changes sign.

    `s_lo` is an integer with the sign of f(lo).  Splits at the midpoint m
    and returns the half that keeps the sign change as (lo, hi, s_lo), or
    (m, m, 0) when m is a root of f.
    """
    m = (lo + hi) / 2
    pm = fraction_eval(f, m)
    if not pm:
        return m, m, 0
    if (s_lo > 0) != (pm > 0):
        return lo, m, s_lo
    return m, hi, pm


def fraction_isolate_real_roots(
    p: Sequence[int], lo: Fraction | int, hi: Fraction | int
) -> list[FractionInterval]:
    """Disjoint isolating intervals, one per distinct real root in [lo, hi].

    A part with Descartes bound v >= 2 is split at its midpoint m, and each
    half bounded again, until every part has v <= 1; on a squarefree
    polynomial this ends (Vincent's theorem).  The part's polynomial is the
    deflated squarefree part, so a root at m is simple: it is reported as
    the exact bracket [m, m] and its factor divided out once, and the halves
    and their brackets carry the quotient, nonzero at every end.  A part
    found to hold one root is its bracket, so the brackets are those of
    bisection on exact root counts.
    """
    f = _primitive(p)
    lo, hi = Fraction(lo), Fraction(hi)
    if lo > hi:
        raise ValueError("empty range")
    ends, inner, v = _fraction_end_roots(f, lo, hi)
    if v >= 2:
        # with an endpoint root deflated away, a bracket ending there
        # isolates only for the deflated form
        inner = _fraction_deflate(squarefree_part(f), ends, lo, hi)

    def split(g: tuple[int, ...], a: Fraction, b: Fraction, v: int) -> list[FractionInterval]:
        if v <= 1:
            return [FractionInterval(a, b, g)] if v else []
        m = (a + b) / 2
        found, halves = [], g
        if fraction_eval(g, m) == 0:
            found = [FractionInterval(m, m, g)]
            halves = tuple(int_exact_quotient(g, [-m.numerator, m.denominator]))
        for c, d in ((a, m), (m, b)):
            found += split(halves, c, d, fraction_descartes_bound(halves, c, d))
        return [FractionInterval(a, b, g)] if len(found) == 1 else found

    out = [FractionInterval(e, e, f) for e in ends] + split(tuple(inner), lo, hi, v)
    return sorted(out, key=lambda r: r.lo)


def fraction_refine_root(r: FractionInterval, width: Fraction | int) -> FractionInterval:
    """Shrink the isolating interval to width <= `width` by exact bisection
    at midpoints (`fraction_bisect_step`); a root at a bracket end or at a
    midpoint is returned as that exact bracket, of width 0."""
    width = Fraction(width)
    if width <= 0:
        raise ValueError("width must be positive")
    if r.is_exact():
        return r
    f = r.polynomial
    lo, hi = r.lo, r.hi
    s_lo = fraction_eval(f, lo)
    if s_lo == 0:
        return FractionInterval(lo, lo, f)
    if fraction_eval(f, hi) == 0:
        return FractionInterval(hi, hi, f)
    while hi - lo > width:
        lo, hi, s_lo = fraction_bisect_step(f, lo, hi, s_lo)
    return FractionInterval(lo, hi, f)


def ends(r: RootInterval | FractionInterval) -> tuple[Fraction, Fraction]:
    """The ends of a bracket as `Fraction`s: lo/2^k and hi/2^k of a
    `RootInterval`, and those of a `FractionInterval` as they are."""
    if isinstance(r, FractionInterval):
        return r.lo, r.hi
    return Fraction(r.lo, 1 << r.k), Fraction(r.hi, 1 << r.k)


def as_fraction(r: RootInterval | FractionInterval) -> FractionInterval:
    """The bracket r with its ends as `Fraction`s, for the references above."""
    return FractionInterval(*ends(r), r.polynomial)


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
    lo, hi = ends(r)
    k = math.ceil(lo)
    if k <= hi and _int_eval(r.polynomial, k) == 0:
        return k
    return None


def all_real_roots(p: Sequence[int]) -> list[RootInterval]:
    """Isolating intervals for every real root of p, in increasing order:
    one isolation over the root bound of its squarefree part."""
    f = _primitive(p)
    bound = _int_root_bound(squarefree_part(f))
    return isolate_real_roots(f, -bound, bound)


def ranked_root_slot(p: Sequence[int], index: int) -> tuple[int, tuple[int, bool] | None]:
    """The number n of distinct real roots of p, and the slot (c, exact) of
    its root of rank `index` (0 is the smallest), None when 0 <= index < n
    fails: the length of the unbounded `root_slots` and its slot `index`."""
    slots = root_slots(p)
    return len(slots), slots[index] if 0 <= index < len(slots) else None


def ranked_integer_root(p: Sequence[int], index: int) -> tuple[int, int | None]:
    """The number n of distinct real roots of p, and its root of rank
    `index` when that is an integer, else None: `ranked_root_slot` with the
    slot's ceiling kept only when the slot is exact."""
    count, slot = ranked_root_slot(p, index)
    return count, slot[0] if slot is not None and slot[1] else None


def root_slot(r: RootInterval | FractionInterval) -> tuple[int, bool]:
    """The slot (c, exact) of the root that r isolates, as
    `unipoly.root_slots` gives it: c the ceiling of the root and exact
    whether the root is c.  The bracket-to-slot reference for the integer
    walk.

    An exact bracket takes one ceiling.  Otherwise the bracket polynomial f
    changes sign across its one root in (lo, hi), and with a = ceil(lo) and
    b = floor(hi) every decision is an integer sign test inside the bracket:
    no integer between the ends means the slot (a, False); a zero at a or b
    is the root; a sign change from a to b leaves the root in (a, b), where
    sign bisection on integers finds its slot; and otherwise the sign at hi
    says whether the root lies in (b, hi) or in (lo, a).  The bracket is
    never refined.
    """
    lo, hi = ends(r)
    if r.is_exact():
        c = math.ceil(lo)
        return c, c == lo
    f = r.polynomial
    a, b = math.ceil(lo), math.floor(hi)
    if a > b:
        return a, False
    sa, sb = _int_eval(f, a), _int_eval(f, b)
    if not sa:
        return a, True
    if sb and (sa > 0) == (sb > 0):
        return (b + 1, False) if (fraction_eval(f, hi) > 0) != (sb > 0) else (a, False)
    while sb and b - a > 1:  # the root lies in (a, b]
        m = (a + b) // 2
        sm = _int_eval(f, m)
        if sm == 0 or (sm > 0) == (sb > 0):
            b, sb = m, sm
        else:
            a = m
    return b, not sb


def half_line_descartes_bound(f: Sequence[int], lo: Fraction, hi: Fraction) -> int:
    """`fraction_descartes_bound` with the shortcut it had for lo >= 0: the
    sign variations of f's own coefficients bound its roots in (0, inf), so
    at most one variation leaves at most one simple root, which lies in
    (lo, hi) exactly when f changes sign there.  Otherwise, or with two or
    more variations, the Moebius count of `fraction_descartes_bound`."""
    if lo >= 0:
        v = sign_variations(f)
        if v == 0:
            return 0
        if v == 1:
            return int((fraction_eval(f, lo) > 0) != (fraction_eval(f, hi) > 0))
    return fraction_descartes_bound(f, lo, hi)


def refine_clear_of(r: FractionInterval, lo: Fraction, hi: Fraction) -> FractionInterval:
    """The bracket r refined until it is exact or contains neither lo nor hi.

    The result decides whether the isolated root lies in the open range
    (lo, hi) or in the closed range [lo, hi]: a non-exact result lies either
    strictly inside (lo, hi) or strictly outside [lo, hi].
    """
    f = r.polynomial
    for _ in range(256):
        if r.is_exact() or not (r.lo <= lo <= r.hi or r.lo <= hi <= r.hi):
            return r
        for end in (lo, hi):
            if r.lo <= end <= r.hi and fraction_eval(f, end) == 0:
                return FractionInterval(end, end, f)
        r = fraction_refine_root(r, (r.hi - r.lo) / 4)
    raise AssertionError("range test exceeded the refinement depth limit")


def _holds_root(r: FractionInterval, lo: Fraction | int, hi: Fraction | int) -> bool:
    """Whether [lo, hi], inside the non-exact bracket r, holds its root.

    The bracket polynomial has no other zero in the bracket, and its root is
    simple, so it lies in [lo, hi] exactly when the polynomial vanishes at an
    end or changes sign between them.
    """
    f = r.polynomial
    s_lo, s_hi = fraction_eval(f, lo), fraction_eval(f, hi)
    return s_lo == 0 or s_hi == 0 or (s_lo > 0) != (s_hi > 0)


def _same_root(a: FractionInterval, b: FractionInterval) -> bool:
    """Decide exactly whether two isolating intervals enclose the same real
    root: sign tests on the overlap, then coprimality modulo a prime, then
    an integer gcd and its root count on the overlap."""
    lo, hi = max(a.lo, b.lo), min(a.hi, b.hi)
    if lo > hi:
        return False
    # both isolated roots must lie in the overlap; an exact one always does
    if any(not r.is_exact() and not _holds_root(r, lo, hi) for r in (a, b)):
        return False
    if a.polynomial == b.polynomial:
        return True  # the overlap holds one root of the common polynomial
    if _coprime_mod_p(a.polynomial, b.polynomial):
        return False
    # a common root inside both brackets must be each bracket's isolated root
    g = poly_gcd(a.polynomial, b.polynomial)
    return len(g) >= 2 and fraction_count_real_roots(g, lo, hi) > 0


def refine_disjoint(intervals: Sequence[FractionInterval], width: Fraction | int) -> list[FractionInterval]:
    """Refine to the given width, drop duplicates of the same root, and
    continue refining until the surviving intervals are pairwise disjoint."""
    items = sorted((fraction_refine_root(r, width) for r in intervals), key=lambda r: (r.lo, r.hi))
    i = 0
    while i < len(items) - 1:
        a, b = items[i], items[i + 1]
        if a.hi < b.lo:
            i += 1
            continue
        if a.hi == b.lo and not a.is_exact() and not b.is_exact():
            # touching endpoints are fine: both roots are strictly interior
            i += 1
            continue
        if _same_root(a, b):
            items.pop(i + 1)
            continue
        if not a.is_exact():
            items[i] = fraction_refine_root(a, (a.hi - a.lo) / 4)
        if not b.is_exact():
            items[i + 1] = fraction_refine_root(b, (b.hi - b.lo) / 4)
        items.sort(key=lambda r: (r.lo, r.hi))
    return items


def rational_root_in(p: Sequence[int], lo: Fraction, hi: Fraction) -> Fraction | None:
    """The rational root of p inside the isolating interval [lo, hi], if any.

    Certified both ways: any rational root has denominator dividing the
    leading coefficient of the primitive form, so after refining below the
    spacing of such fractions the single candidate decides it.
    """
    f = _primitive(p)
    if lo == hi:
        return lo if fraction_eval(f, lo) == 0 else None
    sf = squarefree_part(f)
    lead = abs(f[-1])
    # refine [lo, hi] below 1/(2*lead^2) so at most one denominator-dividing
    # rational fits, then take the best rational approximation
    target = Fraction(1, 2 * lead * lead + 1)
    r = fraction_refine_root(FractionInterval(lo, hi, sf), target)
    if r.is_exact():
        return r.lo if fraction_eval(f, r.lo) == 0 else None
    cand = ((r.lo + r.hi) / 2).limit_denominator(lead)
    if r.lo <= cand <= r.hi and fraction_eval(f, cand) == 0:
        return cand
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
    lead = f.rows[-1]
    extra = int((m - n + 1) % 2 == 1 and (len(lead) > 1 or lead[0] < 0))
    e = m - n + 1 + extra
    # lc_y(f) is prim(lc_y f) times the positive content k of its row, and
    # `reduce_times_lead_power` leaves k^(m - n + 1) in: one short when E is raised
    r = reduce_times_lead_power(f, p, e) * (lead[-1] // _primitive(lead)[-1]) ** extra
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


def integer_hull(branch: AlgebraicBranch) -> Optional[AlgebraicBranch]:
    """The branch on its integer hull [max(1, ceil(lo)), floor(hi)], or None
    when that is empty, as `determinant_method_count` partitions it."""
    first, last = max(1, ceil(branch.domain[0])), floor(branch.domain[1])
    if first > last:
        return None
    return dataclasses.replace(branch, domain=(Fraction(first), Fraction(last)))


def crossing_level_set(branch: AlgebraicBranch, i: int, c: Fraction | int) -> list[FractionInterval]:
    """The isolated roots in the closed domain of the level-set eliminant
    (`branch._level_resultant`, whose slots `level_set_abscissas` reads)
    where f^(i)/i! crosses c along the branch, and the exact ones where it
    equals c: the per-root crossing test, which `partition_by_bounds`
    replaces by reading where its flags change.

    A reduced level curve R free of y is its own eliminant, so every root
    is kept.  Otherwise the roots are refined below a width that shrinks
    with their number, and a root is kept when R changes sign along the
    branch across its bracket, a zero of odd multiplicity, or when its
    bracket is exact and R vanishes there.  A tangential contact is dropped
    unless its bracket is exact; a zero of R at a non-exact bracket's end
    is a `BranchError`."""
    c = Fraction(c)
    level = _level_curve(branch.frame, i, *c.as_integer_ratio())
    lo, hi = branch.domain
    roots = fraction_isolate_real_roots(_level_resultant(branch.frame, i, *c.as_integer_ratio()), lo, hi)
    if level.degree_y() < 1 or not roots:
        return roots
    width = min(Fraction(1, 4), (hi - lo) / (4 * len(roots) + 4)) if hi > lo else Fraction(1, 4)
    included: list[FractionInterval] = []
    for r in refine_disjoint(roots, width):
        # < 0 across a crossing's bracket, and 0 on an exact bracket of the level set
        s = branch_sign(branch, r.lo, level) * branch_sign(branch, r.hi, level)
        if s == 0 and not r.is_exact():
            raise BranchError("sample point unexpectedly on the level set")
        if s <= 0:
            included.append(r)
    return included


def fraction_fujiwara_below(bound: Sequence[int], low: int, half: Fraction) -> bool:
    """`branch._fujiwara_below` with its threshold as one reduced `Fraction`
    half = N*delta^i*(R - s)^i/2."""
    n = len(bound)
    num, den = half.numerator, half.denominator
    return all(bound[n - k] * den**k < low * num**k for k in range(1, n)) and (
        bound[0] * den**n < 2 * low * num**n
    )


def fraction_certified_orders(
    branch: AlgebraicBranch, big_d: int, n_box: Fraction, delta: Fraction
) -> frozenset[int]:
    """`branch.certified_orders` with every position (pos, s, x0, R, hi), y0
    and q = delta*(R - s) a `Fraction`, and each disc's integers from the
    lcm of the reduced denominators of x0 and R: the same stretches, discs
    and decisions on its rational domain."""
    lo, hi = map(Fraction, branch.domain)
    left = set(range(2 if branch.flat else 1, big_d))
    proved = frozenset({1} if branch.flat and big_d > 1 else ())
    if not left:
        return proved
    curve = branch.curve
    rows, n, dx = curve.rows, curve.degree_y(), curve.degree_x()
    disc = branch.frame.discriminant if n >= 2 else None
    t_top = 0
    while hi - lo > 2**t_top:
        t_top += 1
    t, pos = t_top, lo
    while left:
        if t < _MIN_DISC_LOG2:
            return proved
        stretch, radius = None, Fraction(2) ** t
        for k in range(1, _STRETCH_LOG2 + 1):
            s = Fraction(2) ** (t - k)
            x0 = min(pos + s, (pos + hi) / 2)
            d = math.lcm(x0.denominator, radius.denominator)
            a, r = x0.numerator * (d // x0.denominator), radius.numerator * (d // radius.denominator)
            lead = affine_image(rows[-1], a, r, d, dx)
            margin = _rouche_margin(lead)
            if margin <= 0 or disc is not None and not _root_free(affine_image(disc, a, r, d, len(disc) - 1)):
                break
            shifted = [affine_image(row, a, r, d, dx) for row in rows[:-1]] + [lead]
            y0 = Fraction(-shifted[n - 1][0], n * lead[0])
            u, v = y0.numerator, y0.denominator
            columns = [affine_image([row[j] for row in shifted], u, v, v, n) for j in range(dx + 1)]
            bound = [sum(abs(col[m]) for col in columns) for m in range(n)]
            low = margin * v**n
            q = delta * (radius - s)
            scan = sorted(left, reverse=q < 1)
            stretch = (x0, s, bound, low, q, scan)
            if fraction_fujiwara_below(bound, low, n_box * q ** scan[0] / 2):
                break
        if stretch is None:
            t -= 1
            continue
        x0, s, bound, low, q, scan = stretch
        for i in scan:
            if fraction_fujiwara_below(bound, low, n_box * q**i / 2):
                break
            left.discard(i)
        if x0 + s >= hi:
            break
        pos, t = x0 + s, min(t + 1, t_top)
    return proved | left


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


# -- the interpolation-determinant bound and the single-curve threshold ------


PERMANENT_LIMIT = 10


class BoundMatrixTooLarge(ValueError):
    """The permanent evaluator refuses matrices beyond `PERMANENT_LIMIT` rows."""


def segment_coverable(
    interval_length: Fraction | int, spec: DerivativeBoundSpec, mset: MonomialSet
) -> bool:
    """Single-curve test: the power-form product must be strictly below 1."""
    if Fraction(interval_length) < 0:
        raise ValueError("interval length must be nonnegative")
    num, den = _power_form(interval_length, spec, mset)
    return num < den


def fj_derivative_bound(
    j: ExponentPair, i: int, spec: DerivativeBoundSpec
) -> Fraction:
    """Decay bound (2N)^j1 * (i X)^j2 * delta^(i-1) for x^j1 f^j2 at level i."""
    if i < 1:
        raise ValueError("derivative level i must be >= 1")
    j1, j2 = j
    return (2 * spec.N) ** j1 * (i * spec.X) ** j2 * spec.delta ** (i - 1)


def interpolation_determinant_bound(
    xs: Sequence[Fraction | int], bounds: Sequence[Sequence[Fraction | int]]
) -> Fraction:
    """Node-spread times permanent: the exact evaluation-determinant bound.

    prod_{i>j} |x_i - x_j| multiplied by the permanent of the entry-wise
    derivative bounds; the permanent uses Ryser's method and refuses sizes
    beyond `PERMANENT_LIMIT`.
    """
    n = len(xs)
    if n == 0:
        raise ValueError("need at least one node")
    if len(bounds) != n or any(len(row) != n for row in bounds):
        raise ValueError("bound matrix must be n x n")
    if any(Fraction(e) < 0 for row in bounds for e in row):
        raise ValueError("bounds must be nonnegative")
    if n > PERMANENT_LIMIT:
        raise BoundMatrixTooLarge("bound matrix too large")
    spread = Fraction(1)
    vals = [Fraction(v) for v in xs]
    for i in range(n):
        for j in range(i):
            spread *= abs(vals[i] - vals[j])
    if spread == 0:
        return Fraction(0)
    return spread * ryser_permanent(bounds)


def ryser_permanent(rows: Sequence[Sequence[Fraction | int]]) -> Fraction:
    """Permanent by Ryser's inclusion-exclusion; exponential in the size."""
    n = len(rows)
    if n == 0 or any(len(r) != n for r in rows):
        raise ValueError("square nonempty matrix required")
    a = [[Fraction(e) for e in row] for row in rows]
    total = Fraction(0)
    for mask in range(1, 1 << n):
        cols = [j for j in range(n) if mask >> j & 1]
        prod = Fraction(1)
        for i in range(n):
            s = sum(a[i][j] for j in cols)
            if s == 0:
                prod = Fraction(0)
                break
            prod *= s
        if prod:
            total += prod if (n - len(cols)) % 2 == 0 else -prod
    return total


# -- a branch through a rational point and its Taylor coefficients -----------


def branch_from_point(
    curve: BiPoly,
    x0: Fraction | int,
    y0: Fraction | int,
    domain: tuple[Fraction | int, Fraction | int],
) -> AlgebraicBranch:
    """Construct a branch through the rational curve point (x0, y0): the
    index of y0 among the real roots of curve(x0, .) on `domain`.

    Certifies at construction that no discriminant root lies in the open
    domain and no leading-coefficient root in the closed one, so the branch
    function exists and stays smooth across it.
    """
    x0, y0 = Fraction(x0), Fraction(y0)
    lo, hi = Fraction(domain[0]), Fraction(domain[1])
    if not lo <= x0 <= hi:
        raise BranchError("seed abscissa outside the domain")
    if evaluate_bipoly(curve, x0, y0) != 0:
        raise BranchError("seed is not a curve point")
    if curve.degree_y() < 1:
        raise BranchError("curve must depend on y in this orientation")
    if evaluate_bipoly(partial(curve, "y"), x0, y0) == 0:
        raise BranchError("branch is singular/vertical at the seed")
    frame = FrameRecord(curve)
    _certify_smooth_over(frame, lo, hi)
    u = _column(curve, x0)
    roots = [as_fraction(r) for r in all_real_roots(u)]
    idx = next(
        (k for k, r in enumerate(roots) if r.lo <= y0 <= r.hi and (r.is_exact() or fraction_eval(u, y0) == 0)),
        None,
    )
    if idx is None:
        raise BranchError("seed value is not a root of the specialized curve")
    return AlgebraicBranch(curve, idx, len(roots), (lo, hi), frame=frame)


def _certify_smooth_over(frame: FrameRecord, lo: Fraction, hi: Fraction) -> None:
    curve, lead = frame.curve, frame.curve.rows[-1]
    if len(lead) >= 2 and (fraction_eval(lead, lo) == 0 or fraction_eval(lead, hi) == 0):
        # a level curve reduced modulo the curve keeps its sign only where
        # lc_y(F) != 0, so the closed domain must avoid its roots
        raise BranchError("leading coefficient in y vanishes at a domain end")
    if hi <= lo:
        return
    for obs in ([frame.discriminant] if curve.degree_y() >= 2 else []) + ([lead] if len(lead) >= 2 else []):
        if not obs:
            raise BranchError("curve fails the smoothness certificate (zero obstruction)")
        # roots strictly inside (lo, hi) are forbidden
        inner = fraction_count_real_roots(obs, lo, hi) - (fraction_eval(obs, lo) == 0) - (fraction_eval(obs, hi) == 0)
        if inner > 0:
            raise BranchError("branch is singular/vertical inside the requested domain")


def branch_value_rational(branch: AlgebraicBranch, x0: Fraction | int) -> Optional[Fraction]:
    """The exact branch value f(x0) when rational, else None (certified)."""
    bracket = branch_value_bracket(branch, Fraction(x0))
    if bracket.is_exact():
        return ends(bracket)[0]
    return rational_root_in(_column(branch.curve, Fraction(x0)), *ends(bracket))


def _undetermined_taylor(
    curve: BiPoly, at: Fraction, y0: Fraction, kmax: int
) -> list[Fraction]:
    """Taylor coefficients of the branch through (at, y0) by matching powers
    in F(at + s, sum c_i s^i) = 0, one coefficient at a time."""
    fy0 = evaluate_bipoly(partial(curve, "y"), at, y0)
    if fy0 == 0:
        raise BranchError("branch is singular/vertical here")
    coeffs = [y0]
    # expansions of (at + s)^j1 are binomial; series powers of y are rebuilt
    # per step at the needed truncation only
    for k in range(1, kmax + 1):
        acc = Fraction(0)  # coefficient of s^k with c_k set to zero
        ypows: dict[int, list[Fraction]] = {0: [Fraction(1)] + [Fraction(0)] * k}
        base = coeffs + [Fraction(0)] * (k + 1 - len(coeffs))

        def ypow(e: int) -> list[Fraction]:
            if e not in ypows:
                prev = ypow(e - 1)
                cur = [Fraction(0)] * (k + 1)
                for i, a in enumerate(prev):
                    if a:
                        for j2, b in enumerate(base):
                            if i + j2 > k:
                                break
                            cur[i + j2] += a * b
                ypows[e] = cur
            return ypows[e]

        for (j1, j2), c in curve.terms.items():
            yp = ypow(j2)
            for t in range(min(j1, k) + 1):
                acc += c * comb(j1, t) * at ** (j1 - t) * yp[k - t]
        coeffs.append(-acc / fy0)
    return coeffs


def taylor_coefficients(
    branch: AlgebraicBranch, at: Fraction | int, kmax: int
) -> list[Fraction]:
    """Exact [f(at), f'(at), f''(at)/2!, ...] up to order kmax.

    Computed from the implicit-derivative recurrence and cross-validated
    against a power-series expansion with undetermined coefficients.
    """
    at = Fraction(at)
    y0 = branch_value_rational(branch, at)
    if y0 is None:
        raise BranchError("evaluation point must be a rational curve point")
    fy0 = evaluate_bipoly(partial(branch.curve, "y"), at, y0)
    if fy0 == 0:
        raise BranchError("branch is singular/vertical here")
    out = [y0]
    if kmax >= 1:
        for k, hk in enumerate(hk_sequence(branch.curve, kmax), start=1):
            out.append(-evaluate_bipoly(hk, at, y0) / (factorial(k) * fy0 ** (2 * k - 1)))
    check = _undetermined_taylor(branch.curve, at, y0, kmax) if kmax >= 1 else [y0]
    if check != out:
        raise RuntimeError("implicit-derivative recurrence disagrees with series expansion")
    return out


def series_taylor(curve: BiPoly, x0: Fraction, y0: Fraction, kmax: int) -> list[Fraction]:
    """Independent Taylor expansion via exact truncated series in UniPoly.

    Builds F(x0 + s, c0 + c1 s + ... ) as an exact polynomial in s and solves
    for one coefficient at a time from the vanishing of each power of s.
    """
    fy = evaluate_bipoly(partial(curve, "y"), x0, y0)
    assert fy != 0
    coeffs = [Fraction(y0)]
    for k in range(1, kmax + 1):
        y_series = UniPoly(coeffs + [Fraction(0)])
        x_series = UniPoly([Fraction(x0), Fraction(1)])
        total = UniPoly([])
        for (j1, j2), c in curve.terms.items():
            total = total + (x_series**j1) * (y_series**j2) * c
        acc = total.coeffs[k] if k <= total.degree else Fraction(0)
        coeffs.append(-acc / fy)
    return coeffs


# -- cover counting for convex graphs ----------------------------------------


class OracleBoundError(RuntimeError):
    """A sampled derivative coefficient violated the certified decay bound."""


class ConvexityViolation(RuntimeError):
    """A line met more than two points of a supposedly strictly convex graph."""


@dataclass
class TaylorOracle:
    """Exact normalized Taylor data f^(i)(x)/i! for a convex graph on [lo, hi]."""

    lo: Fraction
    hi: Fraction
    coefficients: Callable[[Fraction, int], list[Fraction]]


def polynomial_taylor_oracle(poly, lo: Fraction | int, hi: Fraction | int) -> TaylorOracle:
    """Oracle backed by a univariate polynomial (UniPoly)."""

    def coeffs(x: Fraction, kmax: int) -> list[Fraction]:
        out: list[Fraction] = []
        q = poly
        fact = 1
        for i in range(kmax + 1):
            out.append(q.evaluate(x) / fact)
            q = q.derivative()
            fact *= i + 1
        return out

    return TaylorOracle(Fraction(lo), Fraction(hi), coeffs)


def jarnik_taylor_oracle(config: JarnikConfiguration) -> TaylorOracle:
    return TaylorOracle(
        Fraction(0),
        Fraction(config.q_total),
        lambda x, kmax: smoothed_taylor(config, x, kmax),
    )


@dataclass
class ConvexCoverReport:
    total: int
    points: list[LatticePoint]
    certificate: CoverCertificate
    per_curve_counts: list[int]
    budget: int
    parameters: dict = field(default_factory=dict)


def convex_cover_count(
    oracle: TaylorOracle, d: int, n_box: int, delta: Fraction | int
) -> ConvexCoverReport:
    """Count integer points on a convex graph by covering them with curves of
    degree <= d, verifying each claimed point directly against the oracle.

    Every sampled coefficient is checked against the decay bound
    |f^(i)(x)/i!| <= N * delta^i; a line curve collecting more than two
    points contradicts strict convexity and aborts.
    """
    if d < 1:
        raise ValueError("d must be >= 1")
    delta = Fraction(delta)
    mset = full_set(d)
    spec = DerivativeBoundSpec(X=Fraction(n_box), delta=delta, N=Fraction(n_box))
    pts: list[LatticePoint] = []
    for k in range(max(0, ceil(oracle.lo)), min(n_box, floor(oracle.hi)) + 1):
        cs = oracle.coefficients(Fraction(k), mset.D - 1)
        for i, ci in enumerate(cs):
            if abs(ci) > spec.X * delta**i:
                raise OracleBoundError(
                    f"coefficient level {i} at x={k} violates the decay bound"
                )
        c0 = cs[0]
        if c0.denominator == 1 and 0 <= c0 <= n_box:
            pts.append(LatticePoint(k, int(c0)))
    cert = greedy_cover(pts, mset)
    per_curve: list[int] = []
    for idx, cov in enumerate(cert.curves):
        count = sum(1 for p in pts if evaluate_bipoly(cov, p.x, p.y) == 0)
        if cov.degree == 1 and count > 2:
            raise ConvexityViolation(
                "a line met more than two points of the convex graph"
            )
        per_curve.append(count)
    budget = curve_budget(oracle.hi - oracle.lo, spec, mset)
    return ConvexCoverReport(
        total=len(pts),
        points=pts,
        certificate=cert,
        per_curve_counts=per_curve,
        budget=budget,
        parameters={"d": d, "N": n_box, "delta": str(delta)},
    )


def latbench_workloads():
    """latbench/workloads.py, read from its file."""
    path = Path(__file__).resolve().parent.parent / "latbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("latbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up
    spec.loader.exec_module(module)
    return module.WORKLOADS
