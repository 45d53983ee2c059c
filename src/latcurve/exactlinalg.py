"""Exact linear algebra over the integers.

A fraction-free integer echelon grown one row at a time, Bareiss
determinants and integer k-th roots.  Everything here is pure and
deterministic; no floating point anywhere.
"""

from __future__ import annotations

from math import gcd
from typing import Callable, Sequence, TypeVar

T = TypeVar("T")


def echelon_step(pivots: list[tuple[int, list[int]]], row: Sequence[int]) -> bool:
    """Reduce an integer row fraction-free against the (pivot column, primitive
    row) pairs in insertion order; append it as a pair if nonzero, and say so.
    Each pair's row is zero left of its column and at earlier pairs' columns."""
    v = list(row)
    for col, pv in pivots:
        if v[col]:
            g = gcd(v[col], pv[col])
            a, b = v[col] // g, pv[col] // g
            v = [b * e - a * f for e, f in zip(v, pv)]
    lead = next((c for c, e in enumerate(v) if e), None)
    if lead is not None:
        g = gcd(*v)
        pivots.append((lead, [e // g for e in v]))
    return lead is not None


def row_echelon_pivots(rows: Sequence[Sequence[int]]) -> tuple[int, list[int], list[int]]:
    """Echelonize an integer matrix scanning rows in input order (`echelon_step`).

    Returns (rank, pivot_row_indices, pivot_column_indices).  The selected
    rows form the lexicographically first maximal independent row set, and
    for those rows the pivot columns are the leftmost choice.
    """
    if not rows:
        raise ValueError("matrix must be nonempty")
    pivots: list[tuple[int, list[int]]] = []
    pivot_rows = [ri for ri, row in enumerate(rows) if echelon_step(pivots, row)]
    return len(pivots), pivot_rows, [c for c, _ in pivots]


def _int_exact_div(a: int, b: int) -> int:
    q, r = divmod(a, b)
    if r != 0:
        raise ArithmeticError("inexact integer division in fraction-free elimination")
    return q


def bareiss_determinant(rows: Sequence[Sequence[T]], exact_div: Callable[[T, T], T]) -> T:
    """Fraction-free determinant over any integral domain.

    `exact_div` must perform the (guaranteed exact) division by the previous
    pivot.  Works for ints, Fractions and univariate polynomials alike.
    """
    n = len(rows)
    if n == 0 or any(len(r) != n for r in rows):
        raise ValueError("square nonempty matrix required")
    a = [list(r) for r in rows]
    zero = a[0][0] - a[0][0]
    sign = 1
    prev: T | None = None
    for k in range(n - 1):
        if a[k][k] == zero:
            pivot = next((r for r in range(k + 1, n) if a[r][k] != zero), None)
            if pivot is None:
                return zero
            a[k], a[pivot] = a[pivot], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                num = a[i][j] * a[k][k] - a[i][k] * a[k][j]
                a[i][j] = num if prev is None else exact_div(num, prev)
            a[i][k] = zero
        prev = a[k][k]
    det = a[n - 1][n - 1]
    return -det if sign < 0 else det


def integer_determinant(rows: Sequence[Sequence[int]]) -> int:
    """Exact determinant of an integer matrix by Bareiss elimination."""
    for row in rows:
        for e in row:
            if not isinstance(e, int):
                raise TypeError("integer matrix required")
    return bareiss_determinant(rows, _int_exact_div)


def integer_kth_root_ceiling(num: int, den: int, k: int) -> int:
    """Smallest natural m with m**k >= num/den, for integers num > 0,
    den > 0 and k >= 1, decided on integers as m**k * den >= num."""
    if num <= 0 or den <= 0:
        raise ValueError("num/den must be positive")
    if k < 1:
        raise ValueError("k must be >= 1")
    hi = 1
    while hi**k * den < num:
        hi *= 2
    lo = hi // 2
    while lo < hi:
        mid = (lo + hi) // 2
        if mid**k * den >= num:
            hi = mid
        else:
            lo = mid + 1
    return hi
