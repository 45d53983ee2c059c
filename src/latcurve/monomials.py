"""Monomial sets driving the cover-curve machinery.

A monomial set fixes the span of candidate cover curves.  D is its size and
p, q are the coordinate exponent sums; these three numbers control every
threshold and budget formula downstream.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .poly2 import BiPoly, ExponentPair, divides, term_order_key


class PunctureError(RuntimeError):
    """A produced cover curve turned out divisible by the input curve."""


@dataclass(frozen=True)
class MonomialSet:
    members: tuple[ExponentPair, ...]
    D: int = field(init=False)
    p: int = field(init=False)
    q: int = field(init=False)

    def __post_init__(self) -> None:
        if len(set(self.members)) != len(self.members):
            raise ValueError("members must be distinct")
        if len(self.members) < 2:
            raise ValueError("monomial set must have at least two members")
        ordered = tuple(sorted(self.members, key=term_order_key))
        object.__setattr__(self, "members", ordered)
        object.__setattr__(self, "D", len(ordered))
        object.__setattr__(self, "p", sum(j1 for j1, _ in ordered))
        object.__setattr__(self, "q", sum(j2 for _, j2 in ordered))


def full_set(d: int) -> MonomialSet:
    """All monomials of total degree at most d; D=(d+1)(d+2)/2 and p=q=dD/3."""
    if d < 1:
        raise ValueError("d must be >= 1")
    members = tuple((j1, j2) for h in range(d + 1) for j1 in range(h, -1, -1) for j2 in (h - j1,))
    return MonomialSet(members)


def punctured_set(d: int, ell: int, i_f: int) -> MonomialSet:
    """Monomials of degree d..ell not divisible by x^(d-i_f)*y^(i_f).

    Exactly d members per total degree, so D = d*(ell-d+1) and
    p+q = (d/2)*(ell*(ell+1) - d*(d-1)).
    """
    if d < 2:
        raise ValueError("d must be >= 2")
    if ell < d:
        raise ValueError("ell must be >= d")
    if not 0 <= i_f <= d:
        raise ValueError("i_f must lie in [0, d]")
    a, b = d - i_f, i_f
    members = [
        (j1, h - j1)
        for h in range(d, ell + 1)
        for j1 in range(h + 1)
        if not (j1 >= a and h - j1 >= b)
    ]
    return MonomialSet(tuple(members))


def non_divisibility_guard(curve: BiPoly, cover: BiPoly) -> bool:
    """Assert that a produced cover curve is not divisible by the input curve.

    The puncture construction guarantees this whenever the set was built with
    the curve's own corner index; a failure indicates a mismatch upstream.
    """
    if divides(curve, cover):
        raise PunctureError("puncture violated: cover curve divisible by the input curve")
    return True
