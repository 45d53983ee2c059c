"""Univariate polynomials over Q with exact real root isolation.

All decisions (root counts, signs, refinements) are made in exact rational
arithmetic.  Every root query takes an integer coefficient list p and works
on its primitive form f (`_primitive`, once on entry), except that
`integer_roots` and `ranked_integer_root` keep any p with a nonzero top
coefficient as it is: their closed forms hold for every integer multiple,
and their chain builder normalises.  Roots are reported as rational-endpoint
isolating intervals that carry a primitive integer tuple; a degenerate
interval [r, r] marks an exactly known rational root.  `isolate_real_roots`
and `simple_root` test the domain ends on f, which has the same zeros as its
squarefree part, and divide the end roots out of f (`_end_roots`).  A
Descartes bound (`descartes_bound`) then decides the open domain: v = 0
means no root inside, v = 1 one simple root, whose bracket is the domain
itself.  It is the sign variations of f's own coefficients when lo >= 0,
and otherwise, or when that count is 2 or more, those of f mapped from
(lo, hi) onto (0, inf) by an integer Moebius map (two Taylor shifts).  A
domain with v >= 2 is bisected on the squarefree part (`squarefree_part`,
proved squarefree by a gcd modulo a prime where it can be) until every
part has v <= 1; `count_real_roots` counts the brackets.  Integer roots are
found on integer endpoints only: `integer_roots` lists those in a range, and
`ranked_integer_root` tests the root of a given rank, with no isolation and
no shared cache; both decide degree <= 2 in closed form, and otherwise run
on an integer Sturm chain (`integer_squarefree_chain`), on which a chain
element f at x = num/den is evaluated as the integer den^deg * f(x).
Bisection keeps `Fraction` endpoints, but every sign it tests is an integer
evaluation of the bracket polynomial.  The sign of an integer polynomial v
at an isolated root is a Tarski query (`sign_at_root`): sign variations at
the bracket ends of the signed remainder sequence of the bracket polynomial
f and f'*v mod f, built by the same integer chain builder, with no gcd and
no interval enclosure.  Two brackets of coprime polynomials are told apart
by a gcd modulo a prime, and a bracket's root is proved simple by
Descartes' rule (`simple_root`).  The package locates roots only through
this module: one entry normaliser, one Descartes bound, one squarefree
part, one bisection step, one integer test, one floor, one range test and
one sign test.
"""

from __future__ import annotations

import math

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
from typing import Iterable, Sequence


class ZeroPolynomialError(ValueError):
    """An operation that needs a nonzero polynomial received the zero one."""


class RefinementLimitError(ValueError):
    """A bracket refinement reached its depth limit without a decision."""


# Safety bound on refinement rounds in loops that stop on a decision rather
# than on a width.
REFINE_DEPTH = 256


class UniPoly:
    """Dense univariate polynomial; coefficient index = degree."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[Fraction | int]) -> None:
        cs = [Fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    # -- basic structure ------------------------------------------------

    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    @property
    def leading(self) -> Fraction:
        if not self.coeffs:
            raise ZeroPolynomialError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def __eq__(self, other: object) -> bool:
        return isinstance(other, UniPoly) and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __repr__(self) -> str:
        return f"UniPoly({list(self.coeffs)!r})"

    # -- arithmetic ------------------------------------------------------

    def __neg__(self) -> UniPoly:
        return UniPoly([-c for c in self.coeffs])

    def __add__(self, other: UniPoly) -> UniPoly:
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return UniPoly(out)

    def __sub__(self, other: UniPoly) -> UniPoly:
        return self + (-other)

    def __mul__(self, other: "UniPoly | Fraction | int") -> UniPoly:
        if isinstance(other, (Fraction, int)):
            return UniPoly([c * other for c in self.coeffs])
        if self.is_zero() or other.is_zero():
            return UniPoly([])
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    if b:
                        out[i + j] += a * b
        return UniPoly(out)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> UniPoly:
        if n < 0:
            raise ValueError("negative power")
        result = UniPoly([1])
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __divmod__(self, other: UniPoly) -> tuple[UniPoly, UniPoly]:
        if other.is_zero():
            raise ZeroDivisionError("division by zero polynomial")
        rem = list(self.coeffs)
        q = [Fraction(0)] * max(0, len(rem) - len(other.coeffs) + 1)
        d = other.degree
        lc = other.leading
        for i in range(len(rem) - 1, d - 1, -1):
            if rem[i] == 0:
                continue
            f = rem[i] / lc
            q[i - d] = f
            for j, c in enumerate(other.coeffs):
                rem[i - d + j] -= f * c
        return UniPoly(q), UniPoly(rem)

    def __floordiv__(self, other: UniPoly) -> UniPoly:
        """Exact division; raises if the remainder is nonzero."""
        q, r = divmod(self, other)
        if not r.is_zero():
            raise ArithmeticError("inexact polynomial division")
        return q

    def __mod__(self, other: UniPoly) -> UniPoly:
        return divmod(self, other)[1]

    # -- calculus and evaluation -----------------------------------------

    def evaluate(self, x: Fraction | int) -> Fraction:
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def derivative(self) -> UniPoly:
        return UniPoly([i * c for i, c in enumerate(self.coeffs)][1:])


def primitive_ints(coeffs: Sequence[Fraction | int]) -> list[int]:
    """Integer coefficients with gcd 1 after a positive rational rescaling.

    Signs are kept; the zero polynomial (an empty sequence) maps to [].
    """
    denom = 1
    for c in coeffs:
        denom = lcm(denom, c.denominator)
    ints = [c.numerator * (denom // c.denominator) for c in coeffs]
    g = 0
    for v in ints:
        g = gcd(g, v)
    return [v // g for v in ints] if g > 1 else ints


def _primitive(p: Sequence[int]) -> tuple[int, ...]:
    """The nonzero integer polynomial p divided by its content, with trailing
    zeros dropped, as a tuple: the form every root query works on.  Signs
    are kept."""
    g = gcd(*p)
    if g == 1 and p[-1]:
        return tuple(p)
    if not g:
        raise ZeroPolynomialError("zero polynomial")
    n = len(p)
    while not p[n - 1]:
        n -= 1
    return tuple(c // g for c in p[:n])


def _int_mul(a: Sequence[int], b: Sequence[int]) -> list[int]:
    """Product of two integer coefficient lists ([] for zero)."""
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, c in enumerate(a):
        if c:
            for j, d in enumerate(b):
                out[i + j] += c * d
    return out


def _int_prem_signed(f: list[int], g: list[int]) -> list[int]:
    """Integer remainder of c*f by g for some positive rational c > 0, primitive.

    Top-down pseudo-division with |lc(g)| as the multiplier, so the result
    is a positive multiple of the true remainder, as Sturm chains require.
    A step rescales only the deg g coefficients below the top; a lower
    coefficient of f enters already multiplied by the power of |lc(g)| taken
    so far, and a zero top takes no power.  The cost is O(deg f * deg g),
    on the operands of rescaling the whole remainder at every nonzero top.
    """
    n = len(g) - 1
    e = len(f) - n
    if e <= 0:
        return primitive_ints(f)
    lead = g[-1]
    a = abs(lead)
    # r holds the deg g coefficients below the current top, then the top
    r = f[e - 1:]
    scale = 1
    for j in range(e - 2, -2, -1):
        top = r.pop()
        if top:
            if lead < 0:
                top = -top
            r = [c * a - top * d for c, d in zip(r, g)]
            scale *= a
        if j >= 0:
            r.insert(0, f[j] * scale)
    while r and r[-1] == 0:
        r.pop()
    return primitive_ints(r)


def poly_gcd(a: Sequence[int], b: Sequence[int]) -> list[int]:
    """The primitive integer gcd of two integer polynomials (no trailing
    zeros), leading coefficient positive, by a primitive integer remainder
    sequence; [] when both are zero."""
    fa, fb = primitive_ints(a), primitive_ints(b)
    if len(fa) < len(fb):
        fa, fb = fb, fa
    while fb:
        fa, fb = fb, _int_prem_signed(fa, fb)
    return [-c for c in fa] if fa and fa[-1] < 0 else fa


def sign_variations(values: Iterable[Fraction | int]) -> int:
    """Sign changes along `values`, zeros skipped."""
    signs = [1 if v > 0 else -1 for v in values if v != 0]
    return sum(1 for s, t in zip(signs, signs[1:]) if s != t)


def _int_sturm_chain(f: Sequence[int], second: list[int] | None = None) -> list[list[int]]:
    """Signed remainder sequence of the nonzero integer polynomial f and
    `second` (by default f', which makes it the Sturm chain of f) as integer
    lists, each element a positive multiple of the exact one."""
    chain = [list(f)]
    d = primitive_ints([i * c for i, c in enumerate(f)][1:]) if second is None else second
    if d:
        chain.append(d)
        while True:
            r = _int_prem_signed(chain[-2], chain[-1])
            if not r:
                break
            chain.append([-c for c in r])
    return chain


def int_exact_quotient(f: list[int], g: list[int]) -> list[int]:
    """f / g for integer polynomials where the primitive g divides f."""
    n = len(g) - 1
    lead = g[-1]
    r = list(f)
    q = [0] * (len(f) - n)
    for i in range(len(q) - 1, -1, -1):
        c = q[i] = r[i + n] // lead
        if c:
            for k in range(n + 1):
                r[i + k] -= c * g[k]
    return q


def integer_squarefree_chain(p: Sequence[int]) -> tuple[list[int], list[list[int]]]:
    """The squarefree part of the nonzero p, as a primitive integer
    polynomial, with its integer Sturm chain.

    The last element of the Sturm chain of p is gcd(p, p'); only when it is
    not constant is it divided out, exactly on integers, and the chain rebuilt.
    Nothing is cached.
    """
    f = _primitive(p)
    chain = _int_sturm_chain(f)
    if len(chain[-1]) > 1:
        chain = _int_sturm_chain(int_exact_quotient(f, chain[-1]))
    return chain[0], chain


@lru_cache(maxsize=64)
def sturm_chain(p: tuple[int, ...]) -> tuple[list[int], list[list[int]]]:
    """The cached `integer_squarefree_chain(p)`: (sf, Sturm chain of sf).

    p is a primitive integer tuple, so positive multiples of one polynomial
    share one entry.  Every caller shares the returned lists; none may
    modify them.  No package code calls it: it is kept as the Sturm
    reference of the tests, and because the benchmark tracer binds it by
    name as a cached span.
    """
    return integer_squarefree_chain(p)


@lru_cache(maxsize=512)
def squarefree_part(p: tuple[int, ...]) -> tuple[int, ...]:
    """The primitive integer tuple p divided by gcd(p, p'): same roots, all
    simple, with the sign of p's leading coefficient.

    One factor x of p's x^m is kept and the rest f proved squarefree by a
    gcd of f and f' modulo a prime (`_coprime_mod_p`); only when that test
    fails is the integer gcd taken and divided out exactly.
    """
    m = next(i for i, c in enumerate(p) if c)
    f = p[m:]
    if len(f) > 1:
        df = [i * c for i, c in enumerate(f)][1:]
        if not _coprime_mod_p(f, df):
            f = tuple(int_exact_quotient(f, poly_gcd(f, df)))
    return (0,) + f if m else f


def _int_root_bound(f: Sequence[int]) -> int:
    """An integer B > |r| for every complex root r of the nonzero f."""
    return 1 + -(-max((abs(c) for c in f[:-1]), default=0) // abs(f[-1]))


def _int_eval(f: Sequence[int], x: int) -> int:
    acc = 0
    for c in reversed(f):
        acc = acc * x + c
    return acc


def _rat_eval(f: Sequence[int], x: Fraction | int) -> int:
    """den^deg(f) * f(x) for x = num/den, den > 0, by homogeneous Horner: an
    integer with the sign of f(x)."""
    num, den = x.numerator, x.denominator
    acc = 0
    scale = 1
    for c in reversed(f):
        acc = acc * num + c * scale
        scale *= den
    return acc


def _int_variations(chain: Sequence[list[int]], x: Fraction | int) -> int:
    """Sign variations of the chain at the rational x; zero values are skipped."""
    evaluate = _int_eval if type(x) is int else _rat_eval
    count = 0
    last = 0
    for q in chain:
        v = evaluate(q, x)
        if v:
            if last and (v > 0) != (last > 0):
                count += 1
            last = v
    return count


def _taylor_shift(f: Sequence[int], c: int) -> list[int]:
    """Coefficients of f(x + c), by repeated synthetic division: O(deg^2)."""
    g = list(f)
    n = len(g) - 1
    for i in range(n):
        for j in range(n - 1, i - 1, -1):
            g[j] += c * g[j + 1]
    return g


def descartes_bound(f: Sequence[int], lo: Fraction, hi: Fraction) -> int:
    """Descartes' bound v on the roots of the integer polynomial f in the open
    (lo, hi), lo < hi, where f is nonzero at lo and at hi.

    v is never below the number of roots counted with multiplicity, and has
    its parity, so v = 0 means no root and v = 1 one simple root.  When
    lo >= 0, the sign variations of f's own coefficients bound the roots in
    (0, inf): at most one then leaves at most one simple root, which lies in
    (lo, hi) exactly when f changes sign there.  Otherwise v is the number of
    sign variations of (1 + t)^n f((lo + hi*t)/(1 + t)), built on integers
    with two Taylor shifts.
    """
    if lo >= 0:
        v = sign_variations(f)
        if v == 0:
            return 0
        if v == 1:
            return int((_rat_eval(f, lo) > 0) != (_rat_eval(f, hi) > 0))
    # lo = a/d and hi = b/d; h(s) = d^n f((b + (a - b) s)/d) maps s = 1/(1 + t)
    d = lcm(lo.denominator, hi.denominator)
    a, b = lo.numerator * (d // lo.denominator), hi.numerator * (d // hi.denominator)
    n = len(f) - 1
    g = [c * d ** (n - i) for i, c in enumerate(f)]
    g = _taylor_shift(g, b)
    w, scale = a - b, 1
    for i in range(n + 1):
        g[i] *= scale
        scale *= w
    g.reverse()
    return sign_variations(_taylor_shift(g, 1))


def _deflate(f: Sequence[int], ends: Iterable[Fraction], lo: Fraction, hi: Fraction) -> Sequence[int]:
    """f with the factor (den*x - num) of each root num/den in `ends` divided
    out completely, and its factor x^m when 0 lies outside the open (lo, hi):
    the same zeros in (lo, hi), and none at an end."""
    if not lo < 0 < hi:
        f = f[next(i for i, c in enumerate(f) if c):]
    for e in ends:
        while _rat_eval(f, e) == 0:
            f = int_exact_quotient(f, [-e.numerator, e.denominator])
    return f


def _end_roots(f: tuple[int, ...], lo: Fraction, hi: Fraction) -> tuple[list[Fraction], Sequence[int], int]:
    """(the ends of [lo, hi], lo <= hi, where f vanishes; f with their roots
    divided out; the Descartes bound v of that on (lo, hi), 0 if lo == hi)."""
    ends = [e for e in ((lo, hi) if hi > lo else (lo,)) if _rat_eval(f, e) == 0]
    if hi == lo:
        return ends, f, 0
    inner = _deflate(f, ends, lo, hi)
    return ends, inner, descartes_bound(inner, lo, hi)


def count_real_roots(p: Sequence[int], lo: Fraction | int, hi: Fraction | int) -> int:
    """Number of distinct real roots of p in the closed interval [lo, hi]:
    one per bracket of `isolate_real_roots`."""
    return len(isolate_real_roots(p, lo, hi))


@dataclass(frozen=True)
class RootInterval:
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

    @property
    def width(self) -> Fraction:
        return self.hi - self.lo

    def midpoint(self) -> Fraction:
        return (self.lo + self.hi) / 2

    def is_exact(self) -> bool:
        return self.lo == self.hi


_SPLIT_FRACTIONS = (
    Fraction(1, 2), Fraction(1, 3), Fraction(2, 3), Fraction(1, 4),
    Fraction(3, 4), Fraction(2, 5), Fraction(3, 5), Fraction(1, 5),
    Fraction(4, 5), Fraction(3, 7), Fraction(4, 7),
)


def _nonroot_split(f: Sequence[int], a: Fraction, b: Fraction) -> tuple[Fraction, int]:
    """A rational point m strictly inside (a, b) where the nonzero integer
    polynomial f does not vanish, and `_rat_eval(f, m)`, which has its sign."""
    for t in _SPLIT_FRACTIONS:
        m = a + (b - a) * t
        fm = _rat_eval(f, m)
        if fm:
            return m, fm
    # f has finitely many roots; walk a finer grid until one point is free.
    k = 8
    while True:
        for i in range(1, k):
            m = a + (b - a) * Fraction(i, k)
            fm = _rat_eval(f, m)
            if fm:
                return m, fm
        k *= 2


def bisect_step(
    f: Sequence[int], lo: Fraction, hi: Fraction, s_lo: int
) -> tuple[Fraction, Fraction, int]:
    """One exact bisection of a bracket [lo, hi] across which the integer
    polynomial f changes sign.

    `s_lo` is an integer with the sign of f(lo).  Splits at a non-root of f
    and returns the half that keeps the sign change as (lo, hi, s_lo).
    """
    m, pm = _nonroot_split(f, lo, hi)
    if (s_lo > 0) != (pm > 0):
        return lo, m, s_lo
    return m, hi, pm


def isolate_real_roots(
    p: Sequence[int], lo: Fraction | int, hi: Fraction | int
) -> list[RootInterval]:
    """Disjoint isolating intervals, one per distinct real root in [lo, hi].

    A part with Descartes bound v >= 2 is split at a non-root of the deflated
    squarefree part, and each half bounded again, until every part has
    v <= 1; on a squarefree polynomial this ends (Vincent's theorem).  A part
    found to hold one root is its bracket, so the brackets are those of
    bisection on exact root counts.
    """
    f = _primitive(p)
    lo, hi = Fraction(lo), Fraction(hi)
    if lo > hi:
        raise ValueError("empty range")
    ends, inner, v = _end_roots(f, lo, hi)
    if v >= 2:
        # with an endpoint root deflated away, a bracket ending there
        # isolates only for the deflated form
        inner = _deflate(squarefree_part(f), ends, lo, hi)
    bracket = tuple(inner)

    def split(a: Fraction, b: Fraction, v: int) -> list[RootInterval]:
        if v <= 1:
            return [RootInterval(a, b, bracket)] if v else []
        m, _ = _nonroot_split(inner, a, b)
        found = split(a, m, descartes_bound(inner, a, m)) + split(m, b, descartes_bound(inner, m, b))
        return [RootInterval(a, b, bracket)] if len(found) == 1 else found

    out = [RootInterval(e, e, f) for e in ends] + split(lo, hi, v)
    return sorted(out, key=lambda r: r.lo)


def refine_root(r: RootInterval, width: Fraction | int) -> RootInterval:
    """Shrink the isolating interval to width <= `width` by exact bisection."""
    width = Fraction(width)
    if width <= 0:
        raise ValueError("width must be positive")
    if r.is_exact():
        return r
    f = r.polynomial
    lo, hi = r.lo, r.hi
    s_lo = _rat_eval(f, lo)
    if s_lo == 0:
        return RootInterval(lo, lo, f)
    if _rat_eval(f, hi) == 0:
        return RootInterval(hi, hi, f)
    while hi - lo > width:
        lo, hi, s_lo = bisect_step(f, lo, hi, s_lo)
    return RootInterval(lo, hi, f)


def refine_clear_of(r: RootInterval, lo: Fraction, hi: Fraction) -> RootInterval:
    """The bracket r refined until it is exact or contains neither lo nor hi.

    The result decides whether the isolated root lies in the open range
    (lo, hi) or in the closed range [lo, hi]: a non-exact result lies either
    strictly inside (lo, hi) or strictly outside [lo, hi].
    """
    f = r.polynomial
    for _ in range(REFINE_DEPTH):
        if r.is_exact() or not (r.lo <= lo <= r.hi or r.lo <= hi <= r.hi):
            return r
        for end in (lo, hi):
            if r.lo <= end <= r.hi and _rat_eval(f, end) == 0:
                return RootInterval(end, end, f)
        r = refine_root(r, r.width / 4)
    raise RefinementLimitError("range test exceeded the refinement depth limit")


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


def _holds_root(r: RootInterval, lo: Fraction | int, hi: Fraction | int) -> bool:
    """Whether [lo, hi], inside the non-exact bracket r, holds its root.

    The bracket polynomial has no other zero in the bracket, and its root is
    simple, so it lies in [lo, hi] exactly when the polynomial vanishes at an
    end or changes sign between them.
    """
    f = r.polynomial
    s_lo, s_hi = _rat_eval(f, lo), _rat_eval(f, hi)
    return s_lo == 0 or s_hi == 0 or (s_lo > 0) != (s_hi > 0)


def root_floor(r: RootInterval) -> int:
    """The floor of the root r isolates.

    k = floor(hi) is it unless the root lies strictly below k, which needs a
    non-exact bracket with lo < k and no root in [k, hi]: one sign test decides.
    """
    k = math.floor(r.hi)
    if not r.is_exact() and k > r.lo and not _holds_root(r, k, r.hi):
        return k - 1
    return k


def sign_at_root(r: RootInterval, v: Sequence[int]) -> int:
    """Exact sign (-1, 0 or 1) of the integer polynomial v at the root r isolates.

    A constant v has its own sign, and an exact bracket takes one
    evaluation.  Otherwise the bracket polynomial f is nonzero at both ends
    with one root between them, and the sign is the Tarski query V(lo) -
    V(hi) on the signed remainder sequence of f and a positive multiple of
    f'*v mod f: by Sturm's theorem for f and f'*v it sums the signs of v over
    the roots of f in (lo, hi).  A zero needs no gcd test; when f divides
    f'*v the sequence is [f] and the query reads 0.
    """
    if not v:
        return 0
    if len(v) == 1:
        return (v[0] > 0) - (v[0] < 0)
    if r.is_exact():
        val = _rat_eval(v, r.lo)
        return (val > 0) - (val < 0)
    f = r.polynomial
    df = [i * c for i, c in enumerate(f)][1:]
    chain = _int_sturm_chain(f, _int_prem_signed(_int_mul(df, v), f))
    return _int_variations(chain, r.lo) - _int_variations(chain, r.hi)


def simple_root(p: Sequence[int], r: RootInterval) -> bool:
    """Whether Descartes' rule proves the root that the non-exact bracket r
    isolates to be a simple root of p, a polynomial that vanishes there.

    The roots of p at the bracket ends are divided out (`_end_roots`); v = 1
    from `descartes_bound` then means one root in the open bracket counted
    with multiplicity.  False means v >= 2, which decides nothing.
    """
    return _end_roots(_primitive(p), r.lo, r.hi)[2] == 1


# Primes for the modular coprimality tests of `squarefree_part` and `_same_root`.
_GCD_PRIMES = (2**31 - 1, 2**61 - 1, 2**89 - 1)


def _coprime_mod_p(f: Sequence[int], g: Sequence[int]) -> bool:
    """True when the integer polynomials f and g are proved coprime over Q
    by their gcd over GF(p), for the first prime p of `_GCD_PRIMES` that
    divides neither leading coefficient.

    The primitive gcd over Q divides f and g in Z[x], and its leading
    coefficient divides theirs, so it keeps its degree modulo p: a constant
    gcd over GF(p) proves a constant one over Q.  False decides nothing.
    """
    p = next((p for p in _GCD_PRIMES if f[-1] % p and g[-1] % p), None)
    if p is None:
        return False
    a, b = [c % p for c in f], [c % p for c in g]
    while len(b) > 1:
        inv, n = pow(b[-1], -1, p), len(b) - 1
        while len(a) > n:  # a mod b, one leading term at a time
            q, shift = a[-1] * inv % p, len(a) - 1 - n
            for k in range(n):
                a[shift + k] = (a[shift + k] - q * b[k]) % p
            a.pop()
            while a and a[-1] == 0:
                a.pop()
        if not a:
            return False  # b, of degree >= 1, divides a
        a, b = b, a
    return True


def _same_root(a: RootInterval, b: RootInterval) -> bool:
    """Decide exactly whether two isolating intervals enclose the same real root."""
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
    return len(g) >= 2 and count_real_roots(g, lo, hi) > 0


def refine_disjoint(intervals: Sequence[RootInterval], width: Fraction | int) -> list[RootInterval]:
    """Refine to the given width, drop duplicates of the same root, and
    continue refining until the surviving intervals are pairwise disjoint."""
    items = sorted((refine_root(r, width) for r in intervals), key=lambda r: (r.lo, r.hi))
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
            del items[i + 1]
            continue
        if not a.is_exact():
            items[i] = refine_root(a, a.width / 4)
        if not b.is_exact():
            items[i + 1] = refine_root(b, b.width / 4)
        items.sort(key=lambda r: (r.lo, r.hi))
    return items


def all_real_roots(p: Sequence[int]) -> list[RootInterval]:
    """Isolating intervals for every real root of p, in increasing order."""
    f = _primitive(p)
    bound = _int_root_bound(squarefree_part(f))
    return isolate_real_roots(f, -bound, bound)


def _small_real_roots(f: Sequence[int]) -> list[int | None]:
    """The distinct real roots of the nonzero integer polynomial f of degree
    at most 2, increasing, each as an int when it is an integer, else None.

    Degree 0 has no root and degree 1 one exact division.  Degree 2 reads
    the sign of b^2 - 4ac: a negative one means no real root, zero one double
    root, and a positive non-square two irrational roots; for a square s^2
    each candidate (-b -+ s)/(2a) takes one exact division, and the sign of a
    orders them.
    """
    if len(f) == 1:
        return []
    if len(f) == 2:
        q, r = divmod(-f[0], f[1])
        return [None if r else q]
    c, b, a = f
    disc = b * b - 4 * a * c
    if disc < 0:
        return []
    s = math.isqrt(disc)
    if s * s != disc:
        return [None, None]
    if s == 0:
        nums = (-b,)
    else:
        nums = (-b - s, -b + s) if a > 0 else (-b + s, -b - s)
    roots = []
    for num in nums:
        q, r = divmod(num, 2 * a)
        roots.append(None if r else q)
    return roots


def integer_roots(p: Sequence[int], lo: int | None = None, hi: int | None = None) -> list[int]:
    """The integer roots of p in [lo, hi] (unbounded where None), increasing.

    Every decision is made on integers.  Degree at most 2 takes the closed
    form (`_small_real_roots`).  Otherwise an integer Sturm chain counts the
    roots in (a, b] at integer endpoints, parts with several roots split at
    integer midpoints, and a part with one root is bisected on the sign of
    the squarefree part down to width 1, where one exact test decides.
    """
    f = p if p and p[-1] else _primitive(p)
    if len(f) <= 3:
        return [
            r for r in _small_real_roots(f)
            if r is not None and (lo is None or lo <= r) and (hi is None or r <= hi)
        ]
    sf, chain = integer_squarefree_chain(f)
    bound = _int_root_bound(sf)
    lo = -bound if lo is None else max(lo, -bound)
    hi = bound if hi is None else min(hi, bound)
    if lo > hi:
        return []
    found = [lo] if _int_eval(sf, lo) == 0 else []
    # parts (a, b] with their variation counts, leftmost on top
    parts = [(lo, hi, _int_variations(chain, lo), _int_variations(chain, hi))]
    while parts:
        a, b, va, vb = parts.pop()
        if va == vb:
            continue
        if va - vb > 1 and b - a > 1:
            m = (a + b) // 2
            vm = _int_variations(chain, m)
            parts.append((m, b, vm, vb))
            parts.append((a, m, va, vm))
            continue
        # one root in (a, b], or width 1: bisect while sf(b) != 0
        sb = _int_eval(sf, b)
        while sb and b - a > 1:
            m = (a + b) // 2
            sm = _int_eval(sf, m)
            if sm == 0 or (sm > 0) == (sb > 0):
                b, sb = m, sm  # the root lies in (a, m]
            else:
                a = m  # the root lies in (m, b)
        if sb == 0:
            found.append(b)
    return found


def ranked_integer_root(p: Sequence[int], index: int) -> tuple[int, int | None]:
    """The number n of distinct real roots of p, and the root of rank `index`
    (0 is the smallest) when it is an integer, else None.

    Degree at most 2 takes the closed form (`_small_real_roots`).  Otherwise
    a rank search on integers: n comes from the chain's signs at -inf and
    +inf; bisection finds the smallest integer t with more than `index` roots
    <= t, so the root lies in (t - 1, t].  It is t exactly when sf(t) == 0
    and t is root number index + 1 from the left.
    """
    f = p if p and p[-1] else _primitive(p)
    if len(f) <= 3:
        roots = _small_real_roots(f)
        return len(roots), roots[index] if 0 <= index < len(roots) else None
    sf, chain = integer_squarefree_chain(f)
    v_neg = sign_variations([-q[-1] if len(q) % 2 == 0 else q[-1] for q in chain])
    n = v_neg - sign_variations([q[-1] for q in chain])
    if not 0 <= index < n:
        return n, None
    # (a, b] holds the root: at most `index` roots are <= a, count_b > index are <= b
    bound = _int_root_bound(sf)
    a, b, count_b = -bound, bound, n
    while b - a > 1:
        m = (a + b) // 2
        count_m = v_neg - _int_variations(chain, m)
        if count_m > index:
            b, count_b = m, count_m
        else:
            a = m
    return n, b if count_b == index + 1 and _int_eval(sf, b) == 0 else None


def rational_root_in(p: Sequence[int], lo: Fraction, hi: Fraction) -> Fraction | None:
    """The rational root of p inside the isolating interval [lo, hi], if any.

    Certified both ways: any rational root has denominator dividing the
    leading coefficient of the primitive form, so after refining below the
    spacing of such fractions the single candidate decides it.
    """
    f = _primitive(p)
    if lo == hi:
        return lo if _rat_eval(f, lo) == 0 else None
    sf = squarefree_part(f)
    lead = abs(f[-1])
    # refine [lo, hi] below 1/(2*lead^2) so at most one denominator-dividing
    # rational fits, then take the best rational approximation
    target = Fraction(1, 2 * lead * lead + 1)
    r = refine_root(RootInterval(lo, hi, sf), target)
    if r.is_exact():
        return r.lo if _rat_eval(f, r.lo) == 0 else None
    cand = Fraction(r.midpoint()).limit_denominator(lead)
    if r.lo <= cand <= r.hi and _rat_eval(f, cand) == 0:
        return cand
    return None


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
