"""End-to-end lattice-point counting in the box {1..N}^2.

Two independent routes: a brute-force sweep over one axis of the box, and
the cover-curve pipeline (decompose into |f'| <= 1 branches, partition by
derivative thresholds, greedily cover each all-small piece, count per cover
curve through resultants).  Reports carry enough detail to audit every
counted point and every budget comparison.

The pipeline finds a piece's branch points along its shorter axis
(`branch.branch_integer_points`): a decomposed branch is monotone with
|f'| < 1, so a piece of two or more abscissas takes fewer integer values,
and each value's row F(x, m) is searched for integer roots, which the
branch's rank walk then verifies.  A one-point piece, or a branch whose
slope is identically +-1, is read abscissa by abscissa.

A cover curve is built through one run of branch points, so their
abscissas are roots of its eliminant with the input curve: the
intersection divides each of them out, which checks that it is a root, and
searches only the quotient for further integer roots.

A curve equal to its transpose is decomposed and counted in one frame:
its swapped branches are its unswapped ones, so each mirrored pair is
partitioned, searched, covered and intersected once, and both branch
reports are written from that shared work, the swapped one transposed.

The sweep solves one integer column per line of the box, and a column of
degree d holds at most d points and costs a degree-d root search, so it
sweeps the axis whose columns have the lower degree: y = 1..N when
deg_x < deg_y, else x = 1..N.  It sweeps only the live runs of that axis.
With the frame F(a, t), swept variable a and column variable t, the number
of real roots of the column at a inside [1, N] is constant between
consecutive critical abscissas in [1, N], the roots of the edge columns
F(a, 1) and F(a, N) and, when deg_t F >= 2, of the discriminant eliminant
Res_t(F, F_t): a root enters or leaves [1, N] only through t = 1 or t = N,
real roots appear or vanish only where Res_t(F, F_t) vanishes, and that
eliminant has lc_t F as a factor, so no root escapes to infinity in
between (for deg_t F = 1 such a root crosses an edge first).  The loci
are read and cut into runs as the frame decomposition's are
(`unipoly.slot_runs`): each run of two or more columns holds no critical
abscissa and takes one test of its first column; a zero eliminant, from a
repeated factor in t, leaves the full sweep.  Each live run is solved in
one pass (`unipoly.run_integer_roots`): every row of the frame is
evaluated across the run, one list comprehension per coefficient, and a
column of degree 1 or 2 in t is solved in the loop, by one exact division
or by its discriminant, `math.isqrt` and two exact divisions; a column
whose leading coefficient vanishes, and every column of degree >= 3, takes
`integer_roots`.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import NamedTuple, Optional, Sequence

from .branch import (
    AlgebraicBranch,
    Piece,
    branch_integer_points,
    graph_decompose,
    large_interval_check,
    partition_by_bounds,
)
from .detmethod import (
    DerivativeBoundSpec,
    LatticePoint,
    curve_budget,
    greedy_cover,
)
from .monomials import punctured_set
from .poly2 import (
    BiPoly,
    corner_index,
    divides,
    eliminant,
    ingestion_check,
    partial,
    x_content,
)
from .unipoly import (
    _int_eval,
    int_exact_quotient,
    integer_roots,
    poly_gcd,
    root_slots,
    run_integer_roots,
    slot_runs,
)


class CountingError(ValueError):
    """Structured failure of a counting precondition."""


class LineFactorError(CountingError):
    """A vertical or horizontal line inside the box makes the count trivial;
    the caller must handle it explicitly."""


class CommonComponentError(CountingError):
    """Intersection counting requires curves without a common component."""


# -- brute-force oracle ---------------------------------------------------------


def _reject_lines_in_box(curve: BiPoly, across: BiPoly, n_box: int) -> None:
    """Raise LineFactorError for a line y = c or x = c, 1 <= c <= N, that
    divides the curve: an integer root of its y-content (the x-content of
    `across`, the curve with x and y swapped) or of its x-content
    (`x_content`), the lowest horizontal one first."""
    for frame, line in ((across, "horizontal line y"), (curve, "vertical line x")):
        hits = integer_roots(x_content(frame), 1, n_box)
        if hits:
            raise LineFactorError(f"{line} = {hits[0]} lies inside the box")


def _live_runs(frame: BiPoly, turned: BiPoly, n_box: int) -> list[tuple[int, int]]:
    """The runs [first, last] of 1..N, increasing, outside which no column
    of `frame` has a real root in [1, N]; `turned` is frame with x and y
    swapped, so its columns at 1 and N are the frame's box edges.

    The critical abscissas are the real roots in [1, N] of the two edges
    and, when deg_y(frame) >= 2, of the discriminant eliminant
    Res_y(frame, frame_y), read by the integer walk (`root_slots`).  The
    runs are the `slot_runs` of their slots over 1..N: a one-column run is
    kept, and a longer one holds no critical abscissa on its closed span,
    so its columns have equally many real roots in [1, N] and one test of
    its first column decides it.  An eliminant that is identically zero
    (a repeated factor in y) leaves the one run 1..N.
    """
    loci = [turned.int_column(1), turned.int_column(n_box)]
    if frame.degree_y() >= 2:
        # not `poly2.discriminant`: the sweep reads no value the pipeline cached
        disc = eliminant(frame, partial(frame, "y"))
        if not disc:
            return [(1, n_box)]
        loci.append(disc)
    slots = sorted({s for locus in loci for s in root_slots(locus, 1, n_box)})
    return [
        (first, last)
        for first, last in slot_runs(slots, 1, n_box)
        if first == last or root_slots(frame.int_column(first), 1, n_box)
    ]


def brute_force_count(curve: BiPoly, n_box: int) -> tuple[int, list[LatticePoint]]:
    """Integer solutions in {1..N}^2, sorted by (x, y), by an exact sweep.

    Each swept line of the box gives one integer column, whose roots in
    [1, N] are the points on that line.  A column of degree d holds at most
    d points and costs a degree-d root search, so the sweep runs over
    y = 1..N, with columns in x, when deg_x < deg_y, and over x = 1..N,
    with columns in y, otherwise.  No line inside the box divides the curve
    (`_reject_lines_in_box` runs first), so no swept column is zero.  Only
    the live runs of the swept axis are swept (`_live_runs`): a real root
    of a column enters or leaves [1, N] only through a box edge, and real
    roots appear or vanish only at a zero of the discriminant eliminant,
    which has the columns' leading coefficient as a factor, so between
    consecutive roots of these loci every column has equally many real
    roots in [1, N], and one column's test decides the run.  Each live run
    takes one `run_integer_roots` pass: the frame's rows are evaluated
    across the run, and columns of degree <= 2 are solved in closed form
    in its loop, with no call per column.
    """
    if curve.is_zero():
        raise CountingError("curve must be nonzero")
    if n_box < 1:
        raise CountingError("box size must be >= 1")
    if curve.degree < 1:
        raise CountingError("curve must be nonconstant")
    across = curve.swap_xy()
    _reject_lines_in_box(curve, across, n_box)
    swapped = curve.degree_x() < curve.degree_y()
    frame, turned = (across, curve) if swapped else (curve, across)
    if frame.degree_y() == 0:
        return 0, []
    points: list[LatticePoint] = []
    for first, last in _live_runs(frame, turned, n_box):
        hits = run_integer_roots(frame.rows, first, last, 1, n_box)
        points += [LatticePoint(b, a) for a, b in hits] if swapped else [LatticePoint(a, b) for a, b in hits]
    if swapped:
        points.sort()
    return len(points), points


# -- pairwise intersection through resultants ------------------------------------


def bezout_intersect(
    f: BiPoly, g: BiPoly, n_box: int, known: Sequence[int] = ()
) -> list[LatticePoint]:
    """All integer points of {1..N}^2 with f = g = 0, capped by deg f * deg g.

    The abscissas come from the primitive eliminant Res_y(f, g) (or the
    x-polynomial of a y-free curve).  Each distinct abscissa k in `known`,
    one of some common point of f and g, is checked to be a root of it
    (RuntimeError otherwise) and divided out once, as the factor x - k on
    integers; the integer roots in [1, N] are then searched on the quotient
    only, and joined to the known abscissas in [1, N].  Every abscissa is
    then searched by its columns, so a second point at a known abscissa is
    still found.
    """
    if f.is_zero() or g.is_zero():
        raise CountingError("both curves must be nonzero")
    if divides(f, g) or divides(g, f):
        raise CommonComponentError("Bezout hypothesis violated: one curve divides the other")
    dy_f, dy_g = f.degree_y(), g.degree_y()
    elim: Sequence[int]
    if dy_f >= 1 and dy_g >= 1:
        elim = eliminant(f, g)
        if not elim:
            raise CommonComponentError("Bezout hypothesis violated: common component")
    elif dy_f == 0 and dy_g == 0:
        if len(poly_gcd(f.rows[0], g.rows[0])) >= 2:
            raise CommonComponentError("Bezout hypothesis violated: common vertical lines")
        elim = [1]  # coprime polynomials in x alone share no point
    else:
        elim = (f if dy_f == 0 else g).rows[0]
    for k in set(known):
        if _int_eval(elim, k):
            raise RuntimeError(f"known abscissa {k} is not a root of the eliminant")
        elim = int_exact_quotient(elim, [-k, 1])
    xs = {k for k in known if 1 <= k <= n_box}.union(integer_roots(elim, 1, n_box))
    points: list[LatticePoint] = []
    for x0 in xs:
        uf, ug = f.int_column(x0), g.int_column(x0)
        if not uf and not ug:
            raise CommonComponentError(f"both curves contain the line x = {x0}")
        if not uf or not ug:
            ys = integer_roots(uf or ug, 1, n_box)
        elif len(uf) < 2 or len(ug) < 2:
            ys = []  # one side is a nonzero constant at this abscissa
        else:
            ys = [y0 for y0 in integer_roots(uf, 1, n_box) if _int_eval(ug, y0) == 0]
        points.extend(LatticePoint(x0, y0) for y0 in ys)
    points = sorted(set(points))
    cap = f.degree * g.degree
    if len(points) > cap:
        raise RuntimeError("intersection exceeded the Bezout cap; inputs share a component")
    return points


# -- pipeline report --------------------------------------------------------------


@dataclass
class PieceReport:
    interval: tuple[str, str]
    flags: tuple[str, ...]
    mode: str  # "cover" or "enumerate"
    budget: Optional[int]
    curves: list[dict] = field(default_factory=list)
    direct_points: list[LatticePoint] = field(default_factory=list)


@dataclass
class BranchReport:
    descriptor: dict
    pieces: list[PieceReport]


@dataclass
class CountReport:
    parameters: dict
    total: int
    oracle_total: Optional[int]
    per_branch: list[BranchReport]
    exceptions: list[LatticePoint]
    warnings: list[str]
    ok: bool

    def to_json_dict(self) -> dict:
        return {
            "parameters": self.parameters,
            "total": self.total,
            "oracle_total": self.oracle_total,
            "branches": [
                {
                    **br.descriptor,
                    "pieces": [
                        {
                            "interval": list(pr.interval),
                            "flags": list(pr.flags),
                            "mode": pr.mode,
                            "budget": pr.budget,
                            "curves": pr.curves,
                            "direct_points": [list(p) for p in pr.direct_points],
                        }
                        for pr in br.pieces
                    ],
                }
                for br in self.per_branch
            ],
            "exceptions": [list(p) for p in self.exceptions],
            "warnings": self.warnings,
        }

    def csv_rows(self) -> list[tuple[int, int, int]]:
        rows = []
        seen = set()
        curve_index = 0
        for br in self.per_branch:
            for pr in br.pieces:
                for cd in pr.curves:
                    for x0, y0 in cd["points"]:
                        if (x0, y0) not in seen:
                            seen.add((x0, y0))
                            rows.append((x0, y0, curve_index))
                    curve_index += 1
        for p in self.exceptions:
            if tuple(p) not in seen:
                seen.add(tuple(p))
                rows.append((p.x, p.y, -1))
        return rows


def _unswap(points: Sequence[LatticePoint], swapped: bool) -> list[LatticePoint]:
    return [LatticePoint(p.y, p.x) if swapped else LatticePoint(*p) for p in points]


def _in_box(p: LatticePoint, n_box: int) -> bool:
    return 1 <= p.x <= n_box and 1 <= p.y <= n_box


class _PieceWork(NamedTuple):
    """A piece, its branch points in the frame and, when the piece is
    all-small, its curve budget and each cover curve with its points in the
    frame."""

    piece: Piece
    points: list[LatticePoint]
    cover: Optional[tuple[int, list[tuple[BiPoly, list[LatticePoint]]]]]


def _frame_work(
    br: AlgebraicBranch, d: int, ell: int, spec: DerivativeBoundSpec, n_box: int
) -> list[_PieceWork]:
    """Partition the clipped branch, search each piece's branch points and
    cover each all-small piece, intersecting every cover curve with the
    frame curve, deflated by the abscissas of its run; all in the frame,
    with no read of `br.swapped`."""
    frame_curve = br.curve
    # a swapped branch is covered in its frame, so puncture at its corner
    mset = punctured_set(d, ell, corner_index(frame_curve))
    work: list[_PieceWork] = []
    for piece in partition_by_bounds(br, mset.D, spec.N, spec.delta).pieces:
        pts = branch_integer_points(br, piece.lo, piece.hi)
        cover = None
        if piece.all_small():
            cert = greedy_cover(pts, mset, curve=frame_curve)
            budget = curve_budget(piece.length(), spec, mset)
            # bezout_intersect searches x and y in 1..N only
            cover = budget, [
                (cov, bezout_intersect(frame_curve, cov, n_box, tuple(p.x for p in run)))
                for cov, run in zip(cert.curves, cert.runs)
            ]
        work.append(_PieceWork(piece, pts, cover))
    return work


def default_ell(d: int, n_box: int) -> int:
    return max(d, (max(n_box, 2) - 1).bit_length())


def default_delta(d: int, ell: int, n_box: int) -> Fraction:
    """The recursion-shaped choice K^(2d)/N with K=(d*ell)^2, capped at 1.

    At practical box sizes the uncapped value exceeds 1, which would make the
    short-piece machinery meaningless; the cap keeps every formula valid
    (delta * N >= 1 still holds)."""
    k = (d * ell) ** 2
    return Fraction(min(k ** (2 * d), n_box), n_box)


def determinant_method_count(
    curve: BiPoly,
    n_box: int,
    ell: Optional[int] = None,
    delta: Optional[Fraction] = None,
    compare_oracle: bool = True,
) -> CountReport:
    """Count integer points on the curve in {1..N}^2 via cover curves.

    Decomposes the curve into oriented branches, whose domains have integer
    ends, and partitions each one's hull [max(1, lo), hi] by the derivative
    thresholds (abscissa 0 holds no point of {1..N}^2); a branch on [0, 0]
    has an empty hull, is skipped and has no report entry.  Each piece's
    branch points come from `branch_integer_points`: along the rows of the
    integer values the branch takes there, fewer than its abscissas on a
    piece of two or more points, and at each abscissa only on a one-point
    piece or a branch whose slope is identically +-1.  Covers every
    all-small piece greedily and counts per cover curve through resultant
    intersections, each deflated by the abscissas of the cover's run
    (`bezout_intersect` checks that each is an eliminant root); short large
    pieces and critical abscissas are enumerated directly.  This frame work
    reads no orientation, so it is done once per branch and frame
    (`_frame_work`): a curve equal to its transpose is decomposed in one
    frame, and each of its mirrored branches' reports is written from the
    one shared entry, with its points transposed on the swapped side.
    """
    g = ingestion_check(curve)
    d = g.degree
    if d < 2:
        raise CountingError("the cover pipeline needs degree >= 2")
    if n_box < 1:
        raise CountingError("box size must be >= 1")
    ell = ell if ell is not None else default_ell(d, n_box)
    if ell < d:
        raise CountingError("ell must be at least the curve degree")
    # the one `Fraction` of a count: thresholds and budgets read its numerator and denominator
    delta = Fraction(delta) if delta is not None else default_delta(d, ell, n_box)
    if delta <= 0 or delta.numerator * n_box < delta.denominator:
        raise CountingError("delta must be positive with delta * N >= 1")
    spec = DerivativeBoundSpec(X=n_box, delta=delta, N=n_box)

    # one check of the input's lines, so its error does not depend on the oracle
    _reject_lines_in_box(g, g.swap_xy(), n_box)
    warnings: list[str] = []
    ok = True
    oracle_total: Optional[int] = None
    if compare_oracle:
        oracle_total, _ = brute_force_count(g, n_box)
    decomposition = graph_decompose(g, n_box)
    curve_points: set[LatticePoint] = set()
    direct_points: set[LatticePoint] = set(decomposition.direct_points)
    branch_reports: list[BranchReport] = []
    # clipped branch with swapped=False -> its frame work, which reads no
    # `swapped` flag: the mirrored branches of a curve equal to its
    # transpose share one entry
    frame_work: dict[AlgebraicBranch, list[_PieceWork]] = {}

    for br in decomposition.branches:
        lo, hi = br.domain
        if hi < 1:
            continue
        br = replace(br, domain=(max(lo, 1), hi))
        key = replace(br, swapped=False)
        if key not in frame_work:
            frame_work[key] = _frame_work(key, d, ell, spec, n_box)
        piece_reports: list[PieceReport] = []
        for piece, pts, cover in frame_work[key]:
            interval = (str(piece.lo), str(piece.hi))
            if cover is not None:
                budget, hits_by_curve = cover
                if len(hits_by_curve) > budget:
                    warnings.append(
                        f"curve budget exceeded on piece {interval}: "
                        f"{len(hits_by_curve)} > {budget}"
                    )
                    ok = False
                curve_dicts = []
                for cov, frame_hits in hits_by_curve:
                    hits = _unswap(frame_hits, br.swapped)
                    curve_points.update(hits)
                    curve_dicts.append(
                        {"poly": cov.pretty(), "points": sorted([list(p) for p in hits])}
                    )
                piece_reports.append(
                    PieceReport(interval, piece.flags, "cover", budget, curve_dicts)
                )
            else:
                if not large_interval_check(piece, delta):
                    warnings.append(
                        f"large-derivative piece {interval} exceeds 2/delta"
                    )
                    ok = False
                boxed = [p for p in _unswap(pts, br.swapped) if _in_box(p, n_box)]
                direct_points.update(boxed)
                piece_reports.append(
                    PieceReport(interval, piece.flags, "enumerate", None, [], boxed)
                )
        branch_reports.append(BranchReport(br.describe(), piece_reports))

    exceptions = sorted({p for p in direct_points if _in_box(p, n_box)} - curve_points)
    total = len(curve_points) + len(exceptions)

    if compare_oracle and oracle_total != total:
        warnings.append(f"oracle mismatch: pipeline {total} vs sweep {oracle_total}")
        ok = False

    return CountReport(
        parameters={
            "poly": g.pretty(),
            "N": n_box,
            "d": d,
            "ell": ell,
            "delta": str(delta),
            "box": "{1..N}^2",
        },
        total=total,
        oracle_total=oracle_total,
        per_branch=branch_reports,
        exceptions=exceptions,
        warnings=warnings,
        ok=ok,
    )
