"""Smooth branches y = f(x) of a plane curve, exact implicit derivatives,
derivative level sets, interval partitioning, and box decomposition.

A branch is identified by its curve, an x-interval, and the index of its
y-value among the real roots of the specialized curve; the index is stable
because construction forbids discriminant roots inside the open interval
and leading-coefficient roots on the closed one.  Branch values are handled
as isolating intervals and every sign decision is made exactly: the sign of
p(x0, f(x0)) is one `unipoly.sign_at_root` Tarski query of the integer
column p(x0, y) at the bracket of f(x0), zero included, for `branch_sign`,
the piece flags of `partition_by_bounds` and the slope regime of a frame
cell.  The implicit derivatives H_k and the level curves L = H_i +
F_y^(2i-1) * (i! * c) are built with the `BiPoly` operators.  A level curve
that involves y is kept reduced modulo the curve (`reduce_modulo`): R =
lc_y(F)^E * L mod F with E even and content 1, which has L's sign at every
branch point, so each level sign reads a column of y-degree below deg_y F.
Its eliminant, Res_y(F, L) as a primitive integer tuple, comes from
`resultant_eliminating_y(F, R)`, or from R^(deg_y F) when R is free of y,
with the power of the leading coefficient that the reduction brings divided
out; a level curve free of y is its own eliminant.  A piece flag of order i
is one query on the product of the columns of the two reduced +-thr level
curves, whose sign along the branch is that of (f^(i)/i!)^2 - thr^2.  A level set builds its
eliminant's repeated-root part only when an eliminant root reaches the
tangential test and Descartes' rule does not prove it simple.
Partition pieces come straight from the sorted cuts: piece j spans the gap
between cuts j - 1 and j and takes the integer abscissas in
(floor(root_(j-1)), floor(root_j)], one `root_floor` per cut.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import ceil, comb, factorial, floor
from typing import NamedTuple, Optional, Sequence

from .detmethod import LatticePoint
from .poly2 import BiPoly, divide_lc_power, ingestion_check, partial, reduce_modulo, resultant_eliminating_y
from .unipoly import (
    RootInterval,
    _int_mul,
    _primitive,
    _rat_eval,
    all_real_roots,
    count_real_roots,
    int_exact_quotient,
    integer_roots,
    isolate_real_roots,
    primitive_ints,
    ranked_integer_root,
    rational_root_in,
    refine_clear_of,
    refine_disjoint,
    root_floor,
    sign_at_root,
    simple_root,
    squarefree_part,
)


class BranchError(ValueError):
    """Invalid branch construction or evaluation."""


class DegenerateLevelSetError(RuntimeError):
    """The level-set polynomial vanished on the whole curve: the normalized
    derivative is identically equal to the requested level, so there is no
    finite solution set to isolate."""


class LevelSetContactError(RuntimeError):
    """A tangential level-set contact at an irrational abscissa could not be
    certified either way within the refinement budget."""


@dataclass(frozen=True)
class AlgebraicBranch:
    """One smooth function branch of `curve` over a closed x-interval.

    `root_index` selects the branch value among the sorted real roots of
    curve(x, .); `root_count` pins the expected number of those roots, which
    is constant on the domain.  `swapped` marks that the frame axes are the
    transpose of the caller's.
    """

    curve: BiPoly
    seed_x: Fraction
    seed_lo: Fraction
    seed_hi: Fraction
    root_index: int
    root_count: int
    domain: tuple[Fraction, Fraction]
    swapped: bool = False

    def length(self) -> Fraction:
        return self.domain[1] - self.domain[0]

    def describe(self) -> dict:
        return {
            "domain": [str(self.domain[0]), str(self.domain[1])],
            "orientation": "y-over-x" if self.swapped else "x-over-y",
            "root_index": self.root_index,
        }


def branch_from_point(
    curve: BiPoly,
    x0: Fraction | int,
    y0: Fraction | int,
    domain: tuple[Fraction | int, Fraction | int],
    swapped: bool = False,
) -> AlgebraicBranch:
    """Construct a branch through the rational curve point (x0, y0).

    Certifies at construction that no discriminant root lies in the open
    domain and no leading-coefficient root in the closed one, so the branch
    function exists and stays smooth across it.
    """
    x0, y0 = Fraction(x0), Fraction(y0)
    lo, hi = Fraction(domain[0]), Fraction(domain[1])
    if not lo <= x0 <= hi:
        raise BranchError("seed abscissa outside the domain")
    if curve.evaluate(x0, y0) != 0:
        raise BranchError("seed is not a curve point")
    if curve.degree_y() < 1:
        raise BranchError("curve must depend on y in this orientation")
    if partial(curve, "y").evaluate(x0, y0) == 0:
        raise BranchError("branch is singular/vertical at the seed")
    _certify_smooth_over(curve, lo, hi)
    u = _column(curve, x0)
    roots = all_real_roots(u)
    idx = next(
        (k for k, r in enumerate(roots) if r.lo <= y0 <= r.hi and (r.is_exact() or _rat_eval(u, y0) == 0)),
        None,
    )
    if idx is None:
        raise BranchError("seed value is not a root of the specialized curve")
    return AlgebraicBranch(
        curve=curve,
        seed_x=x0,
        seed_lo=y0,
        seed_hi=y0,
        root_index=idx,
        root_count=len(roots),
        domain=(lo, hi),
        swapped=swapped,
    )


@lru_cache(maxsize=64)
def _smoothness_obstructions(curve: BiPoly) -> tuple[Sequence[int], ...]:
    """Integer polynomials in x whose roots bound where branch structure can
    change."""
    out = []
    fy = partial(curve, "y")
    if fy.degree_y() >= 1:
        out.append(primitive_ints(resultant_eliminating_y(curve, fy).coeffs))
    elif fy.degree_x() >= 1:
        out.append(fy.rows[0])
    if len(curve.rows[-1]) >= 2:
        out.append(curve.rows[-1])
    return tuple(out)


def _certify_smooth_over(curve: BiPoly, lo: Fraction, hi: Fraction) -> None:
    lead = curve.rows[-1]
    if len(lead) >= 2 and (_rat_eval(lead, lo) == 0 or _rat_eval(lead, hi) == 0):
        # a level curve reduced modulo the curve keeps its sign only where
        # lc_y(F) != 0, so the closed domain must avoid its roots
        raise BranchError("leading coefficient in y vanishes at a domain end")
    if hi <= lo:
        return
    for obs in _smoothness_obstructions(curve):
        if not obs:
            raise BranchError("curve fails the smoothness certificate (zero obstruction)")
        # roots strictly inside (lo, hi) are forbidden
        inner = count_real_roots(obs, lo, hi) - (_rat_eval(obs, lo) == 0) - (_rat_eval(obs, hi) == 0)
        if inner > 0:
            raise BranchError("branch is singular/vertical inside the requested domain")


def branch_value_bracket(branch: AlgebraicBranch, x0: Fraction | int) -> RootInterval:
    """Isolating interval for the branch value f(x0)."""
    x0 = Fraction(x0)
    lo, hi = branch.domain
    if not lo <= x0 <= hi:
        raise BranchError("abscissa outside the branch domain")
    u = _column(branch.curve, x0)
    if x0 == branch.seed_x and branch.seed_lo == branch.seed_hi:
        return RootInterval(branch.seed_lo, branch.seed_lo, _primitive(u))
    roots = all_real_roots(u)
    if len(roots) != branch.root_count:
        raise BranchError("root structure changed inside the domain")
    return roots[branch.root_index]


def branch_sign(branch: AlgebraicBranch, x0: Fraction | int, p: BiPoly) -> int:
    """Exact sign of p(x0, f(x0)) along the branch."""
    x0 = Fraction(x0)
    return sign_at_root(branch_value_bracket(branch, x0), p.int_column(x0))


def branch_value_rational(branch: AlgebraicBranch, x0: Fraction | int) -> Optional[Fraction]:
    """The exact branch value f(x0) when rational, else None (certified)."""
    bracket = branch_value_bracket(branch, Fraction(x0))
    if bracket.is_exact():
        return bracket.lo
    return rational_root_in(_column(branch.curve, Fraction(x0)), bracket.lo, bracket.hi)


def branch_integer_point(branch: AlgebraicBranch, k: int) -> Optional[LatticePoint]:
    """(k, f(k)) when the branch value at the integer abscissa k is integral.

    An integer rank search for root number `root_index` of curve(k, .): no
    isolation and no shared cache.
    """
    lo, hi = branch.domain
    if not lo <= k <= hi:
        raise BranchError("abscissa outside the branch domain")
    count, y = ranked_integer_root(_column(branch.curve, k), branch.root_index)
    if count != branch.root_count:
        raise BranchError("root structure changed inside the domain")
    return None if y is None else LatticePoint(k, y)


# -- implicit derivative machinery ------------------------------------------


@lru_cache(maxsize=256)
def hk_sequence(curve: BiPoly, kmax: int) -> tuple[BiPoly, ...]:
    """Polynomials H_1..H_kmax with H_k(x, f) + F_y(x, f)^(2k-1) f^(k)(x) = 0
    along any smooth branch y = f(x) of the curve F.

    H_1 = F_x and H_(k+1) = F_y^2 (H_k)_x - F_y F_x (H_k)_y - (2k - 1) H_k M
    with M = F_y F_xy - F_x F_yy.
    """
    if curve.degree < 1:
        raise ValueError("curve must be nonconstant")
    if kmax < 1:
        raise ValueError("kmax must be >= 1")
    fx, fy = partial(curve, "x"), partial(curve, "y")
    if kmax == 1:
        return (fx,)
    prev = hk_sequence(curve, kmax - 1)
    h, k = prev[-1], kmax - 1
    mixed = fy * partial(fx, "y") - fx * partial(fy, "y")
    return prev + (fy * fy * partial(h, "x") - fy * fx * partial(h, "y") - h * mixed * (2 * k - 1),)


def _undetermined_taylor(
    curve: BiPoly, at: Fraction, y0: Fraction, kmax: int
) -> list[Fraction]:
    """Taylor coefficients of the branch through (at, y0) by matching powers
    in F(at + s, sum c_i s^i) = 0, one coefficient at a time."""
    fy0 = partial(curve, "y").evaluate(at, y0)
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
    fy0 = partial(branch.curve, "y").evaluate(at, y0)
    if fy0 == 0:
        raise BranchError("branch is singular/vertical here")
    out = [y0]
    if kmax >= 1:
        for k, hk in enumerate(hk_sequence(branch.curve, kmax), start=1):
            out.append(-hk.evaluate(at, y0) / (factorial(k) * fy0 ** (2 * k - 1)))
    check = _undetermined_taylor(branch.curve, at, y0, kmax) if kmax >= 1 else [y0]
    if check != out:
        raise RuntimeError("implicit-derivative recurrence disagrees with series expansion")
    return out


# -- level sets and partitioning ---------------------------------------------


@lru_cache(maxsize=64)
def _level_parts(curve: BiPoly, i: int) -> tuple[BiPoly, BiPoly]:
    """(H_i, i! * F_y^(2i-1)), built once per curve and order for every
    level; the second is order i - 1's times i * F_y^2."""
    fy = partial(curve, "y")
    fy_pow = fy if i == 1 else _level_parts(curve, i - 1)[1] * (fy * fy) * i
    return hk_sequence(curve, i)[-1], fy_pow


@lru_cache(maxsize=512)
def _level_resultant(curve: BiPoly, i: int, c: Fraction) -> tuple[BiPoly, tuple[int, ...], bool]:
    """(R, the primitive integer tuple of the level curve's eliminant, whether
    the level curve is free of y) for the level curve L = H_i + F_y^(2i-1) *
    (i! * c), which vanishes on branch points with f^(i)/i! = c.

    A level curve free of y is its own R and its own eliminant.  Otherwise R
    is `reduce_modulo(curve, L)`: of y-degree below the curve's, with L's sign
    at every branch point.  The eliminant is Res_y(curve, L), read from
    Res_y(curve, R), or from R^(deg_y F) when R is free of y, with the power
    of the leading coefficient that the reduction brings divided out."""
    hk, fy_pow = _level_parts(curve, i)
    level = hk + fy_pow * c
    if level.is_zero():
        raise DegenerateLevelSetError(
            "degenerate level set: the level curve vanishes on the whole input curve"
        )
    if level.degree_y() < 1:
        return level * (1 / level.content), _primitive(level.rows[0]), True
    reduced, k = reduce_modulo(curve, level)
    # a positive factor keeps every sign and root; content 1 leaves the
    # eliminant of an integer curve with no rational rescaling
    reduced = reduced * (1 / reduced.content)
    if reduced.degree_y() >= 1:
        res = primitive_ints(resultant_eliminating_y(curve, reduced).coeffs)
    else:
        res = (reduced ** curve.degree_y()).rows[0] if reduced else []
    if not res:
        raise DegenerateLevelSetError("level-set eliminant vanished identically")
    return reduced, _primitive(divide_lc_power(curve, res, k)), False


def level_set_abscissas(
    branch: AlgebraicBranch, i: int, c: Fraction | int
) -> list[RootInterval]:
    """Isolating intervals for the x in the domain with f^(i)(x)/i! = c.

    An eliminant root where the level curve keeps its sign along the branch
    is a tangential contact only when it is a repeated root.  A Descartes
    certificate on the bracket (`simple_root`) proves most such roots simple;
    only for the first root it leaves open is the repeated-root part (the
    eliminant over its squarefree part) built.
    """
    if i < 1:
        raise ValueError("derivative order must be >= 1")
    c = Fraction(c)
    level, res, free_of_y = _level_resultant(branch.curve, i, c)
    lo, hi = branch.domain
    roots = isolate_real_roots(res, lo, hi)
    if free_of_y:
        # the level curve does not involve y: every eliminant root is on the branch
        return roots
    if not roots:
        return []
    width = min(Fraction(1, 4), (hi - lo) / (4 * len(roots) + 4)) if hi > lo else Fraction(1, 4)
    roots = refine_disjoint(roots, width)

    def level_sign(x: Fraction) -> int:
        return sign_at_root(branch_value_bracket(branch, x), level.int_column(x))

    included: list[RootInterval] = []
    mult: Optional[list[int]] = None
    for r in roots:
        if r.is_exact():
            if level_sign(r.lo) == 0:
                included.append(r)
            continue
        s_lo = level_sign(r.lo)
        s_hi = level_sign(r.hi)
        if s_lo == 0 or s_hi == 0:
            raise LevelSetContactError("sample point unexpectedly on the level set")
        if s_lo * s_hi < 0:
            included.append(r)
            continue
        if simple_root(res, r):
            continue  # simple eliminant root without a crossing: not on this branch
        if mult is None:
            mult = int_exact_quotient(res, squarefree_part(res))
        if len(mult) < 2 or count_real_roots(mult, r.lo, r.hi) == 0:
            continue
        rr = rational_root_in(r.polynomial, r.lo, r.hi)
        if rr is not None:
            if level_sign(rr) == 0:
                included.append(RootInterval(rr, rr, r.polynomial))
            continue
        raise LevelSetContactError(
            "cannot certify a tangential level-set contact at an irrational abscissa"
        )
    return included


@dataclass
class Piece:
    """One partition piece with certified small/large flags per derivative order."""

    lo: Fraction
    hi: Fraction
    flags: tuple[str, ...]  # entry i-1 covers derivative order i
    integer_abscissas: tuple[int, ...]

    def length(self) -> Fraction:
        return self.hi - self.lo

    def all_small(self) -> bool:
        return all(f == "small" for f in self.flags)


@dataclass
class IntervalPartition:
    domain: tuple[Fraction, Fraction]
    pieces: list[Piece]


def partition_by_bounds(
    branch: AlgebraicBranch, big_d: int, n_box: Fraction | int, delta: Fraction | int
) -> IntervalPartition:
    """Split the branch domain at all |f^(i)/i!| = N*delta^i crossings and
    certify on each piece, for every 1 <= i < D, whether the normalized
    derivative stays below (small) or above (large) the threshold.

    Piece j spans (cut_(j-1).hi, cut_j.lo) between the sorted cuts and takes
    the integer abscissas in (floor(root_(j-1)), floor(root_j)].
    """
    if big_d < 2:
        raise ValueError("D must be >= 2")
    n_box, delta = Fraction(n_box), Fraction(delta)
    lo, hi = branch.domain
    if delta <= 0 or delta * n_box < 1:
        raise ValueError("delta * N must be at least 1")
    thresholds = [n_box * delta**i for i in range(1, big_d)]
    raw_cuts: list[RootInterval] = []
    forced_small: set[int] = set()
    for i, thr in enumerate(thresholds, start=1):
        for c in (thr, -thr):
            try:
                raw_cuts.extend(level_set_abscissas(branch, i, c))
            except DegenerateLevelSetError:
                # f^(i)/i! is identically +-thr on the branch: the closed
                # bound |f^(i)/i!| <= thr holds everywhere, with no cuts
                forced_small.add(i)
    cuts: list[RootInterval] = []
    if raw_cuts:
        for r in refine_disjoint(raw_cuts, Fraction(1, 4)):
            r = refine_clear_of(r, lo, hi)
            if lo < r.lo and r.hi < hi:
                cuts.append(r)
    fy = partial(branch.curve, "y")

    # piece j ends at cut j's bracket and at the floor of its root
    ends = [(cut.lo, cut.hi, root_floor(cut)) for cut in cuts] + [(hi, hi, floor(hi))]
    pieces: list[Piece] = []
    plo, first = lo, ceil(lo)
    for phi, next_lo, last in ends:
        mid = (plo + phi) / 2
        bracket = branch_value_bracket(branch, mid)
        if sign_at_root(bracket, fy.int_column(mid)) == 0:
            raise BranchError("branch derivative degenerate at a piece midpoint")
        flags: list[str] = []
        for i, thr in enumerate(thresholds, start=1):
            if i in forced_small:
                flags.append("small")
                continue
            # along the branch L(thr) * L(-thr) = (i! * F_y^(2i-1))^2 *
            # ((f^(i)/i!)^2 - thr^2), so one sign of the product of their
            # reduced columns decides the flag; both level sets of order i
            # succeeded above, so these are cached
            plus = _level_resultant(branch.curve, i, thr)[0].int_column(mid)
            minus = _level_resultant(branch.curve, i, -thr)[0].int_column(mid)
            s = sign_at_root(bracket, _int_mul(plus, minus))
            if s == 0:
                raise BranchError("piece midpoint fell on a level set")
            flags.append("small" if s < 0 else "large")
        pieces.append(Piece(plo, phi, tuple(flags), tuple(range(first, last + 1))))
        plo, first = next_lo, last + 1
    return IntervalPartition((lo, hi), pieces)


def large_interval_check(piece: Piece, delta: Fraction | int) -> bool:
    """Length test |piece| <= 2/delta for a piece with a large-derivative flag."""
    delta = Fraction(delta)
    if delta <= 0:
        raise ValueError("delta must be positive")
    return piece.length() <= 2 / delta


# -- box decomposition ---------------------------------------------------------


class GraphDecomposition(NamedTuple):
    branches: list[AlgebraicBranch]
    direct_points: list[LatticePoint]


def _frame_cut_polynomials(curve: BiPoly) -> tuple[list[Sequence[int]], bool]:
    """Integer polynomials in x whose roots delimit the frame cells.

    Returns (polynomials, slope_locus_degenerate): the latter is set when
    F_x = +-F_y identically, in which case the whole frame sits on the
    boundary slope and is kept in this orientation.
    """
    out: list[Sequence[int]] = []
    fy = partial(curve, "y")
    fx = partial(curve, "x")

    def eliminate(p: BiPoly) -> None:
        if p.is_zero():
            return
        if p.degree_y() >= 1:
            res = resultant_eliminating_y(curve, p)
            if res.is_zero():
                raise BranchError("unexpected common component with a derivative locus")
            out.append(primitive_ints(res.coeffs))
        elif p.degree_x() >= 1:
            out.append(p.rows[0])

    eliminate(fy)
    eliminate(fx)
    degenerate = False
    for s in (fx - fy, fx + fy):
        if s.is_zero():
            degenerate = True
        else:
            eliminate(s)
    if len(curve.rows[-1]) >= 2:
        out.append(curve.rows[-1])
    return out, degenerate


def _column(curve: BiPoly, x0: Fraction | int) -> list[int]:
    """`curve.int_column(x0)`, which must not vanish identically."""
    u = curve.int_column(x0)
    if not u:
        raise BranchError("curve contains a vertical line; input is reducible")
    return u


def _decompose_frame(
    curve: BiPoly, n_box: int, swapped: bool
) -> tuple[list[AlgebraicBranch], list[LatticePoint]]:
    """Branches and critical-abscissa integer points for one orientation."""
    if curve.degree_y() < 1:
        return [], []
    polys, slope_degenerate = _frame_cut_polynomials(curve)
    if slope_degenerate and swapped:
        # the slope is identically +-1: the unswapped frame alone covers
        return [], []
    across = curve.swap_xy()
    for edge_val in (0, n_box):
        e = across.int_column(edge_val)
        if not e:
            raise BranchError("curve contains a horizontal box edge; input is reducible")
        if len(e) >= 2:
            polys.append(e)
    cuts: list[RootInterval] = []
    for p in polys:
        cuts.extend(isolate_real_roots(p, 0, n_box))
    cuts = refine_disjoint(cuts, Fraction(1, 4)) if cuts else []

    # an exactly-rational critical abscissa has a width-zero bracket; widen it
    # so neighbouring cells stay strictly clear of the critical point itself
    blocked: list[tuple[Fraction, Fraction]] = []
    for idx, cut in enumerate(cuts):
        if cut.is_exact():
            w = Fraction(1, 4)
            if idx > 0:
                w = min(w, (cut.lo - cuts[idx - 1].hi) / 4)
            if idx + 1 < len(cuts):
                w = min(w, (cuts[idx + 1].lo - cut.hi) / 4)
            blocked.append((cut.lo - w, cut.hi + w))
        else:
            blocked.append((cut.lo, cut.hi))

    # integer columns excluded from the cells are enumerated directly
    direct: list[LatticePoint] = []
    seen: set[int] = set()
    for blo, bhi in blocked:
        for k in range(ceil(max(blo, Fraction(0))), floor(min(bhi, Fraction(n_box))) + 1):
            if k in seen:
                continue
            seen.add(k)
            direct.extend(LatticePoint(k, yv) for yv in integer_roots(_column(curve, k), 0, n_box))

    cells: list[tuple[Fraction, Fraction]] = []
    prev = Fraction(0)
    for blo, bhi in blocked:
        left = min(max(blo, Fraction(0)), Fraction(n_box))
        if left > prev:
            cells.append((prev, left))
        prev = max(prev, min(max(bhi, Fraction(0)), Fraction(n_box)))
    if prev < n_box:
        cells.append((prev, Fraction(n_box)))

    fx = partial(curve, "x")
    fy = partial(curve, "y")
    regime_poly = fx * fx - fy * fy
    branches: list[AlgebraicBranch] = []
    for clo, chi in cells:
        sample = (clo + chi) / 2
        u = _column(curve, sample)
        if len(u) < 2:
            continue
        roots = all_real_roots(u)
        for j, r in enumerate(roots):
            r2 = refine_clear_of(r, Fraction(0), Fraction(n_box))
            if not 0 <= r2.lo <= r2.hi <= n_box:
                continue
            if not slope_degenerate:
                s = sign_at_root(r2, regime_poly.int_column(sample))
                if s > 0:
                    continue  # the transposed frame covers this piece
                if s == 0:
                    raise BranchError("slope-balance locus met a cell interior")
            branches.append(
                AlgebraicBranch(
                    curve=curve,
                    seed_x=sample,
                    seed_lo=r2.lo,
                    seed_hi=r2.hi,
                    root_index=j,
                    root_count=len(roots),
                    domain=(clo, chi),
                    swapped=swapped,
                )
            )
    return branches, direct


def graph_decompose(curve: BiPoly, n_box: int) -> GraphDecomposition:
    """Cover the curve's integer points in [0, n_box]^2 by oriented branches.

    Each branch is oriented so the implicit derivative satisfies |f'| <= 1;
    integer points at critical abscissas (singular, vertical, slope +-1,
    box-exit and leading-coefficient loci) are returned separately for
    direct counting.
    """
    g = ingestion_check(curve)
    branches: list[AlgebraicBranch] = []
    direct: set[LatticePoint] = set()
    for frame, swapped in ((g, False), (g.swap_xy(), True)):
        br, zone = _decompose_frame(frame, n_box, swapped)
        branches.extend(br)
        for p in zone:
            direct.add(LatticePoint(p.y, p.x) if swapped else p)
    branches.sort(key=lambda b: (b.swapped, b.domain[0], b.root_index))
    return GraphDecomposition(branches, sorted(direct))
