"""Smooth branches y = f(x) of a plane curve, exact implicit derivatives,
derivative level sets, interval partitioning, and box decomposition.

A branch is identified by its curve, an x-interval, and the index of its
y-value among the real roots of the specialized curve; the index is stable
because construction forbids discriminant roots inside the open interval
and leading-coefficient roots on the closed one.  A column is read by one
integer walk, `unipoly.root_slots`, whose slot of rank `root_index` is the
branch value's unit slot; only a gap slot is isolated, over its one unit
gap (`unipoly.slot_bracket`).  Branch values are handled as isolating
intervals (`branch_value_bracket`, one per partition run) and every sign
decision is made exactly: the sign of
p(x0, f(x0)) is one `unipoly.sign_at_root` Tarski query of the integer
column p(x0, y) at the bracket of f(x0), zero included, for the piece
flags of `partition_by_bounds`, one per run and order, and the slope
regime of a frame cell.  The implicit derivatives H_k are built with the
`BiPoly` operators from one (F_x, F_y, M) triple per curve.  A level curve
L = H_i + F_y^(2i-1) * (i! * c), c = p/q with integers p and q > 0, is kept
reduced modulo the curve as two integer parts built once per curve and
order: R = prim(q * A_i + p * B_i) (`_level_curve`), a positive multiple of
lc^E * L mod F with lc = prim(lc_y F) and E even, has L's sign at every
branch point, so each level sign reads a column of y-degree below deg_y F.
A_i runs the H_k recurrence on reduced forms and B_i is order i - 1's times
i * F_y^2, reduced; no level is reduced on its own.  The eliminant
(`_level_resultant`), a primitive integer tuple, is R's own row when R is
free of y and otherwise Res_y(F, R), with prim(lc_y F) divided out of it
for as long as it divides exactly.  Either way it
differs from Res_y(F, L) only by factors of lc_y(F) and a constant, and no
branch domain holds a root of lc_y(F), so its roots there hold the level
set's.  Along the branch the product of the columns of the two reduced
+-thr level curves of order i has the sign of (f^(i)/i!)^2 - thr^2, which
changes only at a level-set zero of odd multiplicity, a crossing.  Every
eliminant root in the domain is a candidate cut, with no test of its own,
keyed by its unit slot in the integer walk (`unipoly.root_slots`): an
exact integer root or the open unit gap that holds it.  The pieces are
the integer runs between the slots (`unipoly.slot_runs`, the rule that
also cuts frame cells and the oracle's live runs): an integer candidate
is its own one-point run and a gap slot ends a run, so a run of two or
more points holds no candidate, and each run reads its flags by one query
on that product per order at its first column.  A tangential contact or
a root on another sheet of the curve cuts too, between runs with equal
flags.
Level sets are built only for the orders that `certified_orders` leaves.
It proves |f^(i)/i!| < N*delta^i on the whole closed domain: order 1 of a
branch from `graph_decompose` by its slope bound |f'| < 1 <= N*delta, and
the others by Cauchy's estimate on dyadic discs proved free of the roots
of lc_y(F) (Rouché's test) and of the discriminant (Rouché's test, retried
after Graeffe root-squaring steps), from radius 1 up, with a Fujiwara
bound on the roots of F over each disc about their mean at its centre,
and up to four stretch widths per disc.  It reads no branch value and no
column: positions are integer counts of one unit 1/U, and the rest is
`unipoly.affine_image`, `unipoly.graeffe_step` and integer powers.  A
proved order reads small on every piece, as its flag queries would,
finding no crossing.  No `Fraction` is made here, the thresholds
N*delta^i being integer pairs too.  Every eliminant comes from `poly2`: a
frame curve's discriminant Res_y(F, F_y) is `poly2.discriminant`, built
once per curve for the ingestion check, the frame cuts and the disc test,
and the x-loci of a frame curve (its frame cuts and whether its slope is
identically +-1) are one cached `_FrameLoci` record.  A frame is
decomposed at the partition's unit resolution: the real roots in [0, N]
of its frame cuts and box-edge columns are read by the integer walk
(`unipoly.root_slots`), as the oracle reads its critical loci, an exact
slot is a critical column enumerated directly, and the cells are the other
`slot_runs`, so every branch domain is a pair of ints and holds no
critical root.  Each cell is read at its first column, by one slot walk.
Branch points are searched along the shorter axis of a piece
(`branch_integer_points`).  The F_x locus is a frame cut, so a branch is
monotone on its domain, and with |f'| < 1 it takes fewer integer values on
a piece of two or more points than the piece has abscissas.  Those values
lie between its slots at the piece ends, and each one's row F(x, m) gives
the candidate abscissas, each verified by the rank walk of
`branch_integer_point`.  A one-point piece or a branch that is not `flat`
takes that walk at every abscissa.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
from typing import NamedTuple, Optional, Sequence

from .detmethod import LatticePoint
from .poly2 import BiPoly, discriminant, eliminant, partial, reduce_times_lead_power
from .unipoly import (
    RootInterval,
    ZeroPolynomialError,
    _int_mul,
    _int_eval,
    _primitive,
    affine_image,
    graeffe_step,
    int_exact_quotient,
    integer_roots,
    root_slots,
    run_integer_roots,
    sign_at_root,
    slot_bracket,
    slot_runs,
)


class BranchError(ValueError):
    """Invalid branch construction or evaluation."""


class DegenerateLevelSetError(RuntimeError):
    """The level-set polynomial vanished on the whole curve: the normalized
    derivative is identically equal to the requested level, so there is no
    finite solution set to isolate."""


@dataclass(frozen=True)
class AlgebraicBranch:
    """One smooth function branch of `curve` over a closed x-interval.

    A branch is identified by its curve, its `domain` and `root_index`, the
    index of the branch value among the sorted real roots of curve(x, .);
    `root_count` pins the number of those roots, which is constant on the
    domain; both index the `unipoly.root_slots` walk of that column, which
    `branch_integer_point` and `branch_value_bracket` read.
    `graph_decompose` gives int domain ends.  `swapped` marks that the frame
    axes are the transpose of the caller's.

    Invariant: the closed domain holds no root of lc_y(curve).
    `graph_decompose` keeps its integer runs clear of them, and a branch built
    directly must keep it too.  The level sets rely on it: a level curve
    reduced modulo the curve keeps its sign there, and its eliminant may
    differ from the unreduced one by factors of lc_y(curve).
    """

    curve: BiPoly
    root_index: int
    root_count: int
    domain: tuple[int, int]
    swapped: bool = False
    # |f'| < 1 and f monotone on the closed domain, as `branch_integer_points`
    # needs: set by `graph_decompose`, whose cells hold no root of the slope
    # +-1 locus or of the F_x locus; a directly built branch must keep both
    flat: bool = False

    def describe(self) -> dict:
        return {
            "domain": [str(self.domain[0]), str(self.domain[1])],
            "orientation": "y-over-x" if self.swapped else "x-over-y",
            "root_index": self.root_index,
        }


class _FrameLoci(NamedTuple):
    """The integer polynomials in x whose roots bound where the branches of
    a frame curve F can change.  `cuts` are the x-loci of F_y, F_x, F_x -
    F_y and F_x + F_y (`poly2.eliminant` with F, or the row itself when free
    of y and not constant; () for a zero eliminant), then lc_y(F) when not
    constant.  The F_y locus is `poly2.discriminant(F)` when deg_y F >= 2.
    `slope_degenerate` marks F_x = +-F_y identically: the whole frame sits
    on the boundary slope."""

    cuts: tuple[tuple[int, ...], ...]
    slope_degenerate: bool


@lru_cache(maxsize=64)
def _frame_loci(curve: BiPoly) -> _FrameLoci:
    """The `_FrameLoci` of a curve of y-degree >= 1, built once per curve."""
    fx, fy = partial(curve, "x"), partial(curve, "y")
    cuts = []
    for p in (fy, fx, fx - fy, fx + fy):
        if p.degree_y() >= 1:
            cuts.append(discriminant(curve) if p is fy else eliminant(curve, p))
        elif p.degree_x() >= 1:
            cuts.append(p.rows[0])
    if len(curve.rows[-1]) >= 2:
        cuts.append(curve.rows[-1])
    return _FrameLoci(tuple(cuts), (fx - fy).is_zero() or (fx + fy).is_zero())


def _ranked_column(branch: AlgebraicBranch, x0: Fraction | int) -> tuple[list[int], list[tuple[int, bool]]]:
    """The column curve(x0, .) and its `root_slots`, one per real root,
    after the domain, root-count and root-index checks."""
    lo, hi = branch.domain
    if not lo <= x0 <= hi:
        raise BranchError("abscissa outside the branch domain")
    u = _column(branch.curve, x0)
    slots = root_slots(u)
    if len(slots) != branch.root_count:
        raise BranchError("root structure changed inside the domain")
    if not 0 <= branch.root_index < len(slots):
        raise BranchError("root index outside the root count")
    return u, slots


def branch_value_bracket(branch: AlgebraicBranch, x0: Fraction | int) -> RootInterval:
    """Isolating interval for the branch value f(x0), not cached: the
    `slot_bracket` of its slot in the `_ranked_column` walk, so only an
    inexact slot isolates, over its one unit gap."""
    u, slots = _ranked_column(branch, x0)
    return slot_bracket(u, slots, branch.root_index)


def _branch_slot(branch: AlgebraicBranch, k: int) -> tuple[int, bool]:
    """The slot (c, exact) of the branch value f(k) at the integer abscissa
    k, from the `_ranked_column` walk of curve(k, .)."""
    return _ranked_column(branch, k)[1][branch.root_index]


def branch_integer_point(branch: AlgebraicBranch, k: int) -> Optional[LatticePoint]:
    """(k, f(k)) when the branch value at the integer abscissa k is integral.

    An integer rank search (`unipoly.root_slots`) for root number
    `root_index` of curve(k, .), through `_branch_slot`: no isolation and
    no shared cache.
    `branch_integer_points` asks it at each abscissa of a piece, or only at
    the integer roots of the rows it searches.
    """
    c, exact = _branch_slot(branch, k)
    return LatticePoint(k, c) if exact else None


def branch_integer_points(branch: AlgebraicBranch, a: int, b: int) -> list[LatticePoint]:
    """The points (k, f(k)) with f(k) an integer, for the integers a <= k <= b
    of the domain, sorted by k: the branch's lattice points on [a, b].

    A `flat` branch is monotone on its domain, a promise the search trusts
    unchecked (the F_x locus is one of its frame's cuts), so on [a, b] it
    takes only the integer values between f(a) and f(b), each at most once.
    Its slots (c, exact) at a and at b
    give each end's ceiling c and floor, c or c - 1, and so the value range
    m_lo..m_hi.  When that is shorter than a..b, as |f'| < 1 makes it on
    every piece of two or more points, the points are searched along the
    rows: the integer roots in [a, b] of F(x, m) for each m, read in one
    pass over m_lo..m_hi (`run_integer_roots`), each kept when
    `branch_integer_point` puts the branch there, since a row also meets
    the other sheets.  A zero row means the curve holds the line y = m:
    `BranchError`.  A one-point piece, a branch that is not flat, or one
    built directly whose values span more integers than its abscissas takes
    `branch_integer_point` at every abscissa.  The root-count check runs at
    every column the search reads; the cell construction of
    `graph_decompose` keeps the count constant between.
    """
    if branch.flat and a < b:
        (ca, ea), (cb, eb) = _branch_slot(branch, a), _branch_slot(branch, b)
        m_lo, m_hi = min(ca, cb), max(ca - (not ea), cb - (not eb))
        if m_hi - m_lo < b - a:
            across = branch.curve.swap_xy()
            try:
                hits = run_integer_roots(across.rows, m_lo, m_hi, a, b)
            except ZeroPolynomialError:
                m = next(m for m in range(m_lo, m_hi + 1) if not across.int_column(m))
                raise BranchError(f"curve contains the horizontal line y = {m}") from None
            return sorted(LatticePoint(x, m) for m, x in hits if branch_integer_point(branch, x) == (x, m))
    return [hit for k in range(a, b + 1) if (hit := branch_integer_point(branch, k)) is not None]


# -- implicit derivative machinery ------------------------------------------


@lru_cache(maxsize=64)
def _derivatives(curve: BiPoly) -> tuple[BiPoly, BiPoly, BiPoly]:
    """(F_x, F_y, M) with M = F_y F_xy - F_x F_yy, built once per curve for
    `hk_sequence` and for the reduced recurrence of `_reduced_level_parts`."""
    fx, fy = partial(curve, "x"), partial(curve, "y")
    return fx, fy, fy * partial(fx, "y") - fx * partial(fy, "y")


@lru_cache(maxsize=256)
def hk_sequence(curve: BiPoly, kmax: int) -> tuple[BiPoly, ...]:
    """Polynomials H_1..H_kmax with H_k(x, f) + F_y(x, f)^(2k-1) f^(k)(x) = 0
    along any smooth branch y = f(x) of the curve F.

    H_1 = F_x and H_(k+1) = F_y^2 (H_k)_x - F_y F_x (H_k)_y - (2k - 1) H_k M
    with M = F_y F_xy - F_x F_yy, built in one loop.
    """
    if curve.degree < 1:
        raise ValueError("curve must be nonconstant")
    if kmax < 1:
        raise ValueError("kmax must be >= 1")
    fx, fy, mixed = _derivatives(curve)
    seq = [fx]
    for k in range(1, kmax):
        h = seq[-1]
        seq.append(fy * fy * partial(h, "x") - fy * fx * partial(h, "y") - h * mixed * (2 * k - 1))
    return tuple(seq)


# -- level sets and partitioning ---------------------------------------------


class _LevelParts(NamedTuple):
    """The level curves L = H_i + F_y^(2i-1) * (i! * c) of one order i, as
    two parts under one positive scale s."""

    a: BiPoly  # s * lc^e * H_i mod F
    b: BiPoly  # s * lc^e * i! * F_y^(2i-1) mod F
    e: int


@lru_cache(maxsize=64)
def _reduced_level_parts(curve: BiPoly, i: int) -> _LevelParts:
    """The two parts of order i's level curves reduced modulo the curve F:
    s * lc^e * L mod F = a + c * b for every level c, with lc = prim(lc_y F),
    the even e = 2(i - 1)(n - 1) + 2, n = deg_y F, and a scale s > 0.

    a runs the `hk_sequence` recurrence on reduced forms.  The tangent
    derivation D = F_y d/dx - F_x d/dy maps the ideal (F) into itself, so
    from a = lc^E * H_(i-1) mod F, lc^(E+1) * D(H_(i-1)) = lc * D(a) - E *
    D(lc) * a mod F, with D(lc) = F_y * lc'(x).  b is order
    i - 1's times i * F_y^2, reduced.  `reduce_times_lead_power` brings both
    to the power lc^e, each times a power of the content k of lc_y F's row,
    and the part with the lower power is multiplied up to the other's: on an
    integer curve a and b keep integer contents.
    """
    n = curve.degree_y()
    fx, fy, mixed = _derivatives(curve)
    lead = _primitive(curve.rows[-1])
    k = curve.rows[-1][-1] // lead[-1]
    e = 2 * (i - 1) * (n - 1) + 2

    def shared_scale(p: BiPoly, d_p: int, q: BiPoly, d_q: int) -> tuple[BiPoly, BiPoly]:
        e_p, e_q = (max(r.degree_y() - n + 1, 0) for r in (p, q))
        a, b = reduce_times_lead_power(curve, p, d_p), reduce_times_lead_power(curve, q, d_q)
        return a * k ** max(e_q - e_p, 0), b * k ** max(e_p - e_q, 0)

    if i == 1:
        return _LevelParts(*shared_scale(fx, e, fy, e), e)
    prev = _reduced_level_parts(curve, i - 1)
    a, pe = prev.a, prev.e
    d_a = fy * partial(a, "x") - fx * partial(a, "y")
    lc = BiPoly({(j, 0): v for j, v in enumerate(lead)})
    d_lc = fy * partial(lc, "x")
    t = fy * (lc * d_a - d_lc * a * pe) - mixed * lc * a * (2 * i - 3)
    return _LevelParts(*shared_scale(t, e - pe - 1, prev.b * (fy * fy) * i, e - pe), e)


@lru_cache(maxsize=512)
def _level_curve(curve: BiPoly, i: int, p: int, q: int) -> BiPoly:
    """R, the primitive part of q * a + p * b for the parts a and b of
    `_reduced_level_parts`, at the level c = p/q, q > 0, of the level curve
    L = H_i + F_y^(2i-1) * (i! * c), which vanishes on branch points with
    f^(i)/i! = c: a positive multiple of lc^e * L mod F, of y-degree below
    the curve's, with L's sign at every branch point.  Its column at x0 is
    what a flag query of `partition_by_bounds` reads there.  R = 0 means
    that L vanishes on the curve: `DegenerateLevelSetError`."""
    parts = _reduced_level_parts(curve, i)
    reduced = parts.a * q + parts.b * p
    if reduced.is_zero():
        raise DegenerateLevelSetError(
            "degenerate level set: the level curve vanishes on the whole input curve"
        )
    # a positive factor keeps every sign and root; content 1 leaves the
    # eliminant of an integer curve with no rescaling
    level = reduced.primitive_integer()
    return level if reduced.leading_term()[1] > 0 else -level


@lru_cache(maxsize=512)
def _level_resultant(curve: BiPoly, i: int, p: int, q: int) -> tuple[int, ...]:
    """The eliminant of `_level_curve` R, as a primitive integer tuple.

    It is R's own row when R is free of y (R(x) = t * lc^e(x) * L(x, f(x))
    on every branch, t > 0) and Res_y(F, R) otherwise, with prim(lc_y F)
    divided out of it for as long as it divides exactly.  R - t * lc^e * L
    is a multiple of F, so Res_y(F, R) is Res_y(F, L) times a power of
    lc_y(F) and a constant; the division only keeps the degree down, since
    no branch domain holds a root of lc_y(F)."""
    reduced = _level_curve(curve, i, p, q)
    if reduced.degree_y() < 1:
        res = list(reduced.rows[0])
    else:
        res = list(eliminant(curve, reduced))
        if not res:
            raise DegenerateLevelSetError("level-set eliminant vanished identically")
    lead = _primitive(curve.rows[-1])
    while len(lead) > 1:
        quotient = int_exact_quotient(res, lead)
        if _int_mul(quotient, lead) != res:
            break
        res = quotient
    return _primitive(res)


def level_set_abscissas(branch: AlgebraicBranch, i: int, p: int, q: int) -> list[tuple[int, bool]]:
    """The unit slots (`unipoly.root_slots`) of the roots in the closed
    domain, whose ends must be integers, of the eliminant of order i's
    level curve at c = p/q, q > 0: (x, True) for an integer root x, and
    (x, False) for a root in the open unit gap (x - 1, x).

    They hold every x in the domain where f^(i)/i! = c, and may hold more: a
    point of another sheet of the curve on the level curve, or a tangential
    contact.  No root is tested along the branch: `partition_by_bounds`
    takes each one as a candidate cut, and it is a cut where a piece flag
    changes across it.
    """
    if i < 1:
        raise ValueError("derivative order must be >= 1")
    lo, hi = branch.domain
    if lo != int(lo) or hi != int(hi):
        raise ValueError("level_set_abscissas needs a domain with integer ends")
    return root_slots(_level_resultant(branch.curve, i, p, q), int(lo), int(hi))


@dataclass
class Piece:
    """One partition piece, the integer run lo..hi, with certified
    small/large flags per derivative order."""

    lo: int
    hi: int
    flags: tuple[str, ...]  # entry i-1 covers derivative order i

    def length(self) -> int:
        return self.hi - self.lo

    def all_small(self) -> bool:
        return all(f == "small" for f in self.flags)


@dataclass
class IntervalPartition:
    pieces: list[Piece]
    # the orders that `certified_orders` proved small on the whole domain,
    # so no level set was built for them
    certified: frozenset[int] = frozenset()


# -- derivative bounds on root-free discs ----------------------------------------

_MIN_DISC_LOG2 = -4  # no disc radius below 1/16 is tried
_STRETCH_LOG2 = 4  # a disc of radius R tries stretch half-widths R/2, ..., R/16
_GRAEFFE_STEPS = 4  # root-squaring steps before a disc is refused


def _rouche_margin(q: Sequence[int]) -> int:
    """|q_0| - sum_(k>=1) |q_k|; when positive it is a lower bound for |q(w)|
    on |w| <= 1 (Rouché's test against the constant term), so q has no root
    there.  The zero polynomial has margin 0."""
    return abs(q[0]) - sum(map(abs, q[1:])) if q else 0


def _root_free(q: Sequence[int]) -> bool:
    """Whether the integer polynomial q is proved free of roots on the closed
    unit disc |w| <= 1.  Rouché's test (`_rouche_margin`) comes first.  When
    it fails, a zero or a sign change among q(-1), q(0) and q(1) shows a
    real root in the disc and refuses it at once.  Otherwise each of up to
    `_GRAEFFE_STEPS` root-squaring steps (`graeffe_step`) is retested by
    Rouché: a step maps every root to its square, so a root on the closed
    disc stays on it, and a pass at any step proves q root-free there."""
    if _rouche_margin(q) > 0:
        return True
    signs = {(v > 0) - (v < 0) for v in (sum(q[0::2]) - sum(q[1::2]), q[0] if q else 0, sum(q))}
    if len(signs) > 1 or 0 in signs:
        return False
    for _ in range(_GRAEFFE_STEPS):
        q = graeffe_step(q)
        if _rouche_margin(q) > 0:
            return True
    return False


def _fujiwara_below(bound: Sequence[int], low: int, num: int, den: int) -> bool:
    """Whether Fujiwara's bound M = 2 max(|c_(n-k)/c_n|^(1/k) for k < n,
    |c_0/(2 c_n)|^(1/n)) on the roots of a polynomial of degree n =
    len(bound), with |c_m| <= bound[m] and |c_n| >= low > 0, is below 2 *
    num/den; decided on integers, as the inequalities raised to their
    powers, each homogeneous in num, den > 0, which need no reduction."""
    n = len(bound)
    return all(bound[n - k] * den**k < low * num**k for k in range(1, n)) and (
        bound[0] * den**n < 2 * low * num**n
    )


def certified_orders(
    branch: AlgebraicBranch, big_d: int, n_box: Fraction | int, delta: Fraction | int
) -> frozenset[int]:
    """The orders 1 <= i < D proved to satisfy |f^(i)/i!| < N*delta^i
    strictly on the whole closed domain.

    Order 1 of a `flat` branch needs no disc.  `graph_decompose` cuts its
    cells clear of the roots of Res_y(F, F_x -+ F_y) and of lc_y(F), so
    f' = -F_x/F_y never equals +-1 on the closed cell, and it keeps only the
    branches with |f'| < 1 at the cell's sample; hence |f'| < 1 <= N*delta.

    Every other order is proved by Cauchy's estimate.  The domain is covered
    left to right by stretches |x - x0| <= s, each inside a disc |z - x0|
    <= R with R a power of two, the disc z = (a + r*w)/d, |w| <= 1, on
    integers a, r and d.  The disc must pass Rouché's test
    (`_rouche_margin`) for lc_y(F), whose margin bounds the leading
    coefficient below, and the exact root-free test `_root_free` for the
    discriminant of the curve's `_FrameLoci`, each on the Taylor
    coefficients at x0 scaled by R (one `affine_image`).  Then the roots of
    F(z, .) are deg_y F distinct analytic functions on the disc, and the
    branch is one of them on the stretch.  Let y0 = u/v = -c_(n-1)(x0)/(n
    c_n(x0)), reduced with v > 0, the mean of the roots of the column F(x0,
    .) = sum_m c_m(x0) y^m, read from the constant terms d^dx * c_m(x0) of
    the rows' images, and M a Fujiwara bound on every root y of F(z, y0 +
    y) over the disc, from the bounds sum_k |c_k| R^k on its coefficients
    (one `affine_image` per column of the scaled rows) and the Rouché margin
    of its leading one.  M bounds every sheet, so any y0 would serve and no
    branch value is read.  Then |f^(i)(x)/i!| <= M/(R - s)^i for |x - x0|
    <= s, so order i holds on the stretch when M < N*q^i, q = delta*(R -
    s) (`_fujiwara_below`, given N*q^i/2 as an unreduced integer pair).

    R starts at the smallest power of two, at least 1, that spans the
    domain.  For each R the half-widths s = R/2, R/4, R/8, R/16 are tried
    in turn, each with its centre x0 = min(pos + s, (pos + hi)/2), where pos
    is the left end of what is left to cover and hi the right end of the
    domain.  A narrower stretch loses less of R in M/(R - s)^i, which
    counts next to a branch point.  The widest one that proves every order
    left is kept; when none does, the narrowest whose disc passed is kept
    and the orders that fail there are dropped.  A narrower centre moves the
    disc towards pos, so the trial stops at the first refused disc, and R
    halves when the disc of s = R/2 is refused.  R doubles after each
    stretch; no disc below radius 1/16 is tried, and a stretch that needs
    one proves no order.  N*q^i is monotone in i, so a scan in the
    direction where it grows stops at the first order that holds, and the
    cover stops once no order is left.  No column of the curve is read.

    Every number is an `int`: pos, s, x0, R and hi count the unit 1/U, U =
    lcm(den lo, den hi) * 2^9, so the ends, R, s >= 1/256 and pos are even
    and (pos + hi)/2 is exact (a halved centre is the last: x0 + s > hi).
    (a, r, d) = (x0, R, U)/gcd, the same as from x0's and R's denominators.
    """
    unit = lcm(*(end.denominator for end in branch.domain)) << (_STRETCH_LOG2 - _MIN_DISC_LOG2 + 1)
    lo, hi = (end.numerator * (unit // end.denominator) for end in branch.domain)
    left = set(range(2 if branch.flat else 1, big_d))
    proved = frozenset({1} if branch.flat and big_d > 1 else ())
    if not left:
        return proved
    curve = branch.curve
    rows, n, dx = curve.rows, curve.degree_y(), curve.degree_x()
    # lc_y(F) is tested through the margin of the leading coefficient below
    disc = discriminant(curve) if n >= 2 else None
    n_num, n_den, d_num, d_den = n_box.numerator, n_box.denominator, delta.numerator, delta.denominator
    t_top = 0
    while hi - lo > unit << t_top:
        t_top += 1
    t, pos = t_top, lo
    while left:
        if t < _MIN_DISC_LOG2:
            return proved
        stretch, radius = None, unit << t if t >= 0 else unit >> -t
        for k in range(1, _STRETCH_LOG2 + 1):
            s = radius >> k
            x0 = min(pos + s, (pos + hi) >> 1)
            # z = (a + r*w)/d on |w| <= 1 is the disc |z - x0| <= R
            g = gcd(x0, radius, unit)
            a, r, d = x0 // g, radius // g, unit // g
            lead = affine_image(rows[-1], a, r, d, dx)
            margin = _rouche_margin(lead)
            if margin <= 0 or disc is not None and not _root_free(affine_image(disc, a, r, d, len(disc) - 1)):
                break
            shifted = [affine_image(row, a, r, d, dx) for row in rows[:-1]] + [lead]
            # the mean of the roots of F(x0, .), from the constant terms
            # d^dx * c_m(x0) of the images: c_n(x0) != 0 by the margin above
            g = gcd(shifted[n - 1][0], n * lead[0]) * (1 if lead[0] > 0 else -1)
            u, v = -shifted[n - 1][0] // g, n * lead[0] // g
            # one column per power of w of d^dx * v^n * F(z, y0 + y), in y;
            # the sup over the disc of the coefficient of y^m is at most bound[m]
            # and the leading one is at least low
            columns = [affine_image([row[j] for row in shifted], u, v, v, n) for j in range(dx + 1)]
            bound = [sum(abs(col[m]) for col in columns) for m in range(n)]
            low = margin * v**n
            q_num, q_den = d_num * (radius - s), d_den * unit
            # N * q^i is monotone in i, so the orders that hold are all those
            # from the first one that holds, scanning up (q >= 1) or down (q < 1)
            scan = sorted(left, reverse=q_num < q_den)
            stretch = (x0, s, bound, low, q_num, q_den, scan)
            if _fujiwara_below(bound, low, n_num * q_num ** scan[0], 2 * n_den * q_den ** scan[0]):
                break  # every order left holds
        if stretch is None:
            t -= 1
            continue
        x0, s, bound, low, q_num, q_den, scan = stretch
        for i in scan:
            if _fujiwara_below(bound, low, n_num * q_num**i, 2 * n_den * q_den**i):
                break
            left.discard(i)
        if x0 + s >= hi:
            break
        pos, t = x0 + s, min(t + 1, t_top)
    return proved | left


def partition_by_bounds(
    branch: AlgebraicBranch, big_d: int, n_box: Fraction | int, delta: Fraction | int
) -> IntervalPartition:
    """Split the branch's integer domain [lo, hi] into integer runs at all
    |f^(i)/i!| = N*delta^i crossings and certify on each, for every 1 <= i
    < D, whether the normalized derivative stays below (small) or above
    (large) the threshold.  A domain end that is not an integer is a
    ValueError; `determinant_method_count` passes integer hulls, with delta
    > 0 and delta*N >= 1.

    First `certified_orders` proves, by Cauchy's estimate on root-free discs
    with stretches sized to each disc (and, for order 1 of a `flat` branch,
    by the slope bound |f'| < 1), the orders that stay strictly below the
    threshold on the whole closed domain; on the integer hulls of the
    pipeline that is most orders, even next to a branch point.  Such an
    order is never crossed there, so it builds no level set, takes no flag
    query and reads small on every piece; the result is the one the level
    sets would give.  Every other order falls back to its two level sets,
    by one rule: a cut is where a flag changes.

    The candidate cuts are the `level_set_abscissas` slots (c, exact) of
    both level sets of every other order (none on [k, k]): the exact
    integer root c or the open unit gap (c - 1, c).  The runs are those of
    `slot_runs`: an exact slot c in [lo, hi] is its own run [c, c], and a
    gap slot ends a run at c - 1.
    Along the branch L(thr) * L(-thr) = (i! * F_y^(2i-1))^2 *
    ((f^(i)/i!)^2 - thr^2), which changes sign only at a crossing, a zero
    of odd multiplicity of one level curve.  A run of two or more points
    holds no candidate, so each run reads its flag of order i from one
    Tarski query on the product of the two reduced +-thr level curves'
    columns at its first column a, every order at one
    `branch_value_bracket`.  Only a one-point run [c, c] on a candidate can
    read a zero: |f^(i)(c)/i!| = thr, which meets the closed bound and
    reads small, unless F_y(c) = 0, a `BranchError`.  No run merges into
    its neighbour, so a candidate that is no crossing (a tangential contact
    or a root on another sheet) leaves two pieces with equal flags.  A
    branch whose orders are all proved builds no level set and takes no
    query, so it reads no branch value.
    """
    if big_d < 2:
        raise ValueError("D must be >= 2")
    lo, hi = branch.domain
    if lo.denominator != 1 or hi.denominator != 1:
        raise ValueError("partition_by_bounds needs a domain with integer ends")
    lo, hi = int(lo), int(hi)
    slots: set[tuple[int, bool]] = set()
    certified = certified_orders(branch, big_d, n_box, delta)
    # the orders that read small on every piece, with no flag query
    forced_small = set(certified)
    # N * delta^i as the integer pair (p, q), q > 0
    n_num, n_den, d_num, d_den = n_box.numerator, n_box.denominator, delta.numerator, delta.denominator
    thresholds = {i: (n_num * d_num**i, n_den * d_den**i) for i in range(1, big_d) if i not in certified}
    for i, (p, q) in thresholds.items():
        for c in (p, -p):
            try:
                _level_curve(branch.curve, i, c, q)
                if lo < hi:  # a one-point domain is one run
                    slots.update(level_set_abscissas(branch, i, c, q))
            except DegenerateLevelSetError:
                # f^(i)/i! is identically +-thr on the branch: the closed
                # bound |f^(i)/i!| <= thr holds everywhere, with no cuts
                forced_small.add(i)
    fy = partial(branch.curve, "y")

    def flag(bracket: RootInterval, i: int, x: int) -> str:
        p, q = thresholds[i]
        plus = _level_curve(branch.curve, i, p, q).int_column(x)
        minus = _level_curve(branch.curve, i, -p, q).int_column(x)
        s = sign_at_root(bracket, _int_mul(plus, minus))
        if s == 0 and sign_at_root(bracket, fy.int_column(x)) == 0:
            raise BranchError("flag query point where F_y = 0")
        return "small" if s <= 0 else "large"

    pieces: list[Piece] = []
    for a, b in slot_runs(sorted(slots), lo, hi):
        # one branch-value bracket per run serves every order left
        bracket = branch_value_bracket(branch, a) if len(forced_small) < big_d - 1 else None
        flags = tuple("small" if i in forced_small else flag(bracket, i, a) for i in range(1, big_d))
        pieces.append(Piece(a, b, flags))
    return IntervalPartition(pieces, certified)


def large_interval_check(piece: Piece, delta: Fraction | int) -> bool:
    """Length test |piece| <= 2/delta for a piece with a large-derivative flag."""
    if delta <= 0:
        raise ValueError("delta must be positive")
    return piece.length() * delta.numerator <= 2 * delta.denominator


# -- box decomposition ---------------------------------------------------------


class GraphDecomposition(NamedTuple):
    branches: list[AlgebraicBranch]
    direct_points: list[LatticePoint]


def _column(curve: BiPoly, x0: Fraction | int) -> list[int]:
    """`curve.int_column(x0)`, which must not vanish identically."""
    u = curve.int_column(x0)
    if not u:
        raise BranchError("curve contains a vertical line; input is reducible")
    return u


def _decompose_frame(
    curve: BiPoly, n_box: int, swapped: bool
) -> tuple[list[AlgebraicBranch], list[LatticePoint]]:
    """Branches and critical-column integer points for one orientation.

    The real roots in [0, N] of the frame cuts and box-edge columns are
    read by the integer walk, as their `root_slots` (c, exact), and no
    locus is isolated; loci sharing a root share a slot.  An exact slot c
    is a critical column: its points with 0 <= y <= N are returned for
    direct counting.  The cells are the other `slot_runs` [a, b] of 0..N,
    whose closed span therefore holds no critical root.
    Each cell is read at its first column a, which is not critical, by one
    `root_slots` walk: the slots give every root's rank and the count, and
    the in-box roots are the slots with 0 < c <= N, since the column
    vanishes at neither box edge.  The regime of such a root is one Tarski
    query at its `slot_bracket`.  A root in [0, N] is a branch on [a, b]
    when |f'| < 1 there (the slope balance F_x^2 - F_y^2 is negative) or the
    slope is identically +-1; with |f'| > 1 the transposed frame covers it."""
    if curve.degree_y() < 1:
        return [], []
    loci = _frame_loci(curve)
    if not all(loci.cuts):
        raise BranchError("unexpected common component with a derivative locus")
    if loci.slope_degenerate and swapped:
        # the slope is identically +-1: the unswapped frame alone covers
        return [], []
    polys = list(loci.cuts)
    across = curve.swap_xy()
    for edge_val in (0, n_box):
        e = across.int_column(edge_val)
        if not e:
            raise BranchError("curve contains a horizontal box edge; input is reducible")
        if len(e) >= 2:
            polys.append(e)
    # one slot per critical root in [0, N], however many loci share it
    slots = sorted({s for p in polys for s in root_slots(p, 0, n_box)})
    direct = [LatticePoint(k, yv) for k, exact in slots if exact for yv in integer_roots(_column(curve, k), 0, n_box)]
    # an exact slot is a critical column, not a cell
    cells = [(a, b) for a, b in slot_runs(slots, 0, n_box) if (a, True) not in slots]

    fx = partial(curve, "x")
    fy = partial(curve, "y")
    regime_poly = fx * fx - fy * fy
    branches: list[AlgebraicBranch] = []
    for a, b in cells:
        u = _column(curve, a)
        if not _int_eval(u, 0) or not _int_eval(u, n_box):
            raise BranchError("a cell sample column vanishes on a box edge")
        ranks = root_slots(u)
        for j, (c, _) in enumerate(ranks):
            # u(0) != 0 and u(N) != 0, so the roots in [0, N] are those
            # whose ceilings c satisfy 0 < c <= N
            if not 0 < c <= n_box:
                continue
            if not loci.slope_degenerate:
                s = sign_at_root(slot_bracket(u, ranks, j), regime_poly.int_column(a))
                if s > 0:
                    continue  # the transposed frame covers this piece
                if s == 0:
                    raise BranchError("slope-balance locus met a cell interior")
            branches.append(AlgebraicBranch(curve, j, len(ranks), (a, b), swapped, flat=not loci.slope_degenerate))
    return branches, direct


def graph_decompose(curve: BiPoly, n_box: int) -> GraphDecomposition:
    """Cover the curve's integer points in [0, n_box]^2 by oriented branches.

    Each branch is oriented so the implicit derivative satisfies |f'| < 1
    on its domain, an integer run that holds no critical root; integer
    points on critical columns, the integer roots of the singular, vertical,
    slope +-1, box-exit and leading-coefficient loci, are returned
    separately for direct counting.  The curve is `ingestion_check`'s
    output, which is not checked again.

    A curve equal to its transpose is decomposed in one frame: the swapped
    frame is the same curve, so its branches are the unswapped ones with
    `swapped` set, and its critical-column points are the same frame
    points, transposed.  When its slope is identically +-1 the swapped
    frame gives nothing, as for any such frame.
    """
    across = curve.swap_xy()
    branches, zone = _decompose_frame(curve, n_box, False)
    if across == curve and not _frame_loci(curve).slope_degenerate:
        mirrored, mirrored_zone = [replace(b, swapped=True) for b in branches], zone
    else:
        mirrored, mirrored_zone = _decompose_frame(across, n_box, True)
    direct = set(zone).union(LatticePoint(p.y, p.x) for p in mirrored_zone)
    branches = sorted(branches + mirrored, key=lambda b: (b.swapped, b.domain[0], b.root_index))
    return GraphDecomposition(branches, sorted(direct))
