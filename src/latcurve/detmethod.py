"""Cover curves from one integer echelon of the points' monomial rows (a
kernel vector read by back-substitution), greedy covering with one echelon
per run, and the curve budget of a segment.

The budget compares C(D,2)-th powers of integer numerator/denominator
pairs, so no irrational root is ever taken on a decision path and no
`Fraction` is made; `DerivativeBoundSpec` takes `Fraction` or `int` values.
The lemma evaluators behind it (the interpolation-determinant bound, the
derivative bounds and the single-curve threshold) are test references in
`tests/reference_helpers.py`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, gcd
from typing import NamedTuple, Optional, Sequence

from .exactlinalg import echelon_step, integer_kth_root_ceiling
from .monomials import MonomialSet, non_divisibility_guard
from .poly2 import BiPoly


class LatticePoint(NamedTuple):
    x: int
    y: int


@dataclass(frozen=True)
class DerivativeBoundSpec:
    """Certified decay data: |f^(i)(x)/i!| <= X * delta^i for 0 <= i < D."""

    X: Fraction | int
    delta: Fraction | int
    N: Fraction | int

    def __post_init__(self) -> None:
        if self.X <= 0:
            raise ValueError("X must be positive")
        if self.N <= 0:
            raise ValueError("N must be positive")
        if self.delta.numerator * self.N.numerator < self.delta.denominator * self.N.denominator:
            raise ValueError("delta * N must be at least 1")


@dataclass
class CoverCertificate:
    """Cover curves and their runs: `runs[i]` is the consecutive slice of
    the x-sorted input points that `curves[i]` covers."""

    curves: list[BiPoly]
    runs: list[list[LatticePoint]]

    @property
    def assignment(self) -> dict[LatticePoint, int]:
        """The index of the covering curve of every input point, in input order."""
        return {p: i for i, run in enumerate(self.runs) for p in run}


def monomial_matrix(points: Sequence[LatticePoint], mset: MonomialSet) -> list[list[int]]:
    """Row per point, column per monomial in canonical member order."""
    pts = [LatticePoint(*p) for p in points]
    if len(set(pts)) != len(pts):
        raise ValueError("points must be distinct")
    return [[p.x**j1 * p.y**j2 for (j1, j2) in mset.members] for p in pts]


def _kernel_curve(pivots: list[tuple[int, list[int]]], mset: MonomialSet) -> BiPoly:
    """The span curve of an echelon of rank below D: its kernel vector on the
    pivot columns plus the first free column, by one back-substitution."""
    taken = {c for c, _ in pivots}
    x = [0] * mset.D
    x[next(c for c in range(mset.D) if c not in taken)] = 1
    for col, pv in reversed(pivots):
        s = sum(f * e for f, e in zip(pv, x) if e)
        g = gcd(s, pv[col])
        x = [e * (pv[col] // g) for e in x]
        x[col] = -s // g
    return BiPoly(zip(mset.members, x)).primitive_integer()


def extract_cover_curve(
    points: Sequence[LatticePoint], mset: MonomialSet
) -> Optional[BiPoly]:
    """A nonzero integer curve in the span vanishing on all points, or None.

    Exists exactly when the monomial matrix has rank below D; the curve is
    the kernel vector of its integer echelon (rows in input order) on the
    pivot columns plus the first free column, unique up to scale since the
    pivot block is nonsingular; primitive, with positive leading coefficient.
    """
    pivots: list[tuple[int, list[int]]] = []
    for row in monomial_matrix(points, mset):
        echelon_step(pivots, row)
    return _kernel_curve(pivots, mset) if len(pivots) < mset.D else None


def _power_form(interval_length: Fraction | int, spec: DerivativeBoundSpec, mset: MonomialSet) -> tuple[int, int]:
    """(4*delta*|I|)^C(D,2) * (2N)^p * (D*X)^q as an unreduced pair (num, den > 0)."""
    b, p, q = comb(mset.D, 2), mset.p, mset.q
    delta, length, n, x = spec.delta, interval_length, spec.N, spec.X
    num = (4 * delta.numerator * length.numerator) ** b * (2 * n.numerator) ** p * (mset.D * x.numerator) ** q
    den = (delta.denominator * length.denominator) ** b * n.denominator**p * x.denominator**q
    return num, den


def curve_budget(
    interval_length: Fraction | int, spec: DerivativeBoundSpec, mset: MonomialSet
) -> int:
    """Integer upper bound for the number of cover curves a segment needs.

    Equals ceil of the C(D,2)-th root of the power-form product, plus one;
    the root is taken by comparing integer powers only.
    """
    if interval_length < 0:
        raise ValueError("interval length must be nonnegative")
    num, den = _power_form(interval_length, spec, mset)
    if num == 0:
        return 1
    return integer_kth_root_ceiling(num, den, comb(mset.D, 2)) + 1


def greedy_cover(
    points: Sequence[LatticePoint],
    mset: MonomialSet,
    curve: Optional[BiPoly] = None,
) -> CoverCertificate:
    """Cover points (strictly increasing x) by maximal consecutive runs.

    Each run grows one integer echelon and ends at the first point that
    would raise its rank to D, which starts the next run; its cover curve is
    read once from the echelon.  When `curve` is given, every emitted cover
    curve is checked against it for divisibility.
    """
    pts = [LatticePoint(*p) for p in points]
    for a, b in zip(pts, pts[1:]):
        if a.x >= b.x:
            raise ValueError("points must be sorted with strictly increasing x")
    rows = monomial_matrix(pts, mset)
    curves: list[BiPoly] = []
    runs: list[list[LatticePoint]] = []
    start = 0
    while start < len(pts):
        pivots: list[tuple[int, list[int]]] = []
        end = start
        while end < len(pts) and not (echelon_step(pivots, rows[end]) and len(pivots) == mset.D):
            end += 1
        cover = _kernel_curve(pivots[: mset.D - 1], mset)
        if curve is not None:
            non_divisibility_guard(curve, cover)
        curves.append(cover)
        runs.append(pts[start:end])
        start = end
    return CoverCertificate(curves, runs)
