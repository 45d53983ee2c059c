"""Exact real root location on univariate integer polynomials.

All decisions (root counts, signs, refinements) are made on integers; a
`Fraction` is made only for the ends of `RootInterval` brackets, in the
bisection that makes them.  The one polynomial type, `UniPoly`, is only the
record that `poly2.resultant_eliminating_y` returns: it has no arithmetic.  Every root
query takes an integer coefficient list p and works on its primitive form f
(`_primitive`, once on entry), except that the integer root search keeps any
p with a nonzero top coefficient as it is: its closed forms, sign variations
and sign bisections hold for every integer multiple, and the isolation it
calls normalises.  Roots are reported as rational-endpoint isolating
intervals that carry a primitive integer tuple; a degenerate interval
[r, r] marks an exactly known rational root.
`isolate_real_roots` tests the domain ends on f, which has the same zeros
as its squarefree part, and divides the end roots out of f (`_end_roots`).
A Descartes bound (`descartes_bound`) then decides the open domain: v = 0
means no root inside, v = 1 one simple root, whose bracket is the domain
itself.  It is the sign variations of f mapped from (lo, hi) onto
(0, inf) by an integer Moebius map: the affine map `affine_image`, a
reversal and one Taylor shift.
A domain with v >= 2 is bisected on the squarefree part (`squarefree_part`,
proved squarefree by a gcd modulo a prime where it can be) until every part
has v <= 1; `count_real_roots` counts the brackets.  Integer roots are found
on integer endpoints only, by one search (`_root_slots`) that lists the
real roots in increasing order as slots (c, exact), c the ceiling of the
root and exact whether the root is c:
`root_slots` keeps the slots of the roots in a range, one per root, and
`integer_roots`, in its own pass, the exact ones; `run_integer_roots`
gives those of a run of columns of a bivariate polynomial's rows, solving
columns of degree 1 and 2 in one loop with no call per column; `slot_runs`
cuts an integer range into the runs between those slots.  `slot_bracket`
turns the slot of one root into its isolating interval by one isolation
over its unit gap.  The search decides degree <= 2 in closed form, with
`math.isqrt` for the ceilings of irrational roots.  Otherwise each
half-line the range meets is certified by Descartes' rule on p's own
coefficients (`_half_line_bounds`) and searched from its end of the range
(`_half_slots`).  A half with bound at most 1 locates its one simple root
by a sign test at the ends of its part of the range and, when it lies
there, by integer sign bisection on p down to its ceiling
(`_bisect_ceiling`).  A half with bound >= 2 runs Descartes bisection at
integer points (`descartes_bound` on each part, split at integer
midpoints) down to parts of bound at most 1 or of width 1, where
`count_real_roots` counts the roots of the unit gap.
Bisection keeps `Fraction` endpoints, but every sign it tests is an integer
evaluation of the bracket polynomial.  The sign of an integer polynomial v
at an isolated root is a Tarski query (`sign_at_root`): sign variations at
the bracket ends of the signed remainder sequence of the bracket polynomial
f and f'*v mod f, built on integers (`_int_sturm_chain`), with no gcd and
no interval enclosure; a chain element at x = num/den is evaluated as the
integer den^deg * f(x).  No root is located on a Sturm chain.  Every
bisection, in isolation and in refinement (`bisect_step`), splits a
bracket at its midpoint, and a root there is taken as an exact bracket.
The package locates roots only through this module: one entry normaliser, one affine map, one Descartes bound, one
squarefree part, one bisection step, one integer root search, one rule
from slots to runs and one sign test.
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


class UniPoly:
    """Res_y(p, q) as a polynomial in x, as `poly2.resultant_eliminating_y`
    returns it: the coefficients as given (index = degree), trailing zeros
    dropped.  The package reads it only through `poly2.eliminant`."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[Fraction | int]) -> None:
        cs = list(coeffs)
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def __eq__(self, other: object) -> bool:
        return isinstance(other, UniPoly) and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __repr__(self) -> str:
        return f"UniPoly({list(self.coeffs)!r})"


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
    count = 0
    last = 0
    for v in values:
        if v:
            if last and (v > 0) is not (last > 0):
                count += 1
            last = v
    return count


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


# Kept as the tests' Sturm reference; latbench binds it by name and reads its cache_info().
sturm_chain = lru_cache(maxsize=64)(integer_squarefree_chain)


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
    return 1 + -(-max(map(abs, f[:-1]), default=0) // abs(f[-1]))


def _int_eval(f: Sequence[int], x: int) -> int:
    """f(x) at the integer x, by Horner's rule."""
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
    return sign_variations(evaluate(q, x) for q in chain)


def _taylor_shift(f: Sequence[int], c: int) -> list[int]:
    """Coefficients of f(x + c), by repeated synthetic division: O(deg^2)."""
    g = list(f)
    n = len(g) - 1
    for i in range(n):
        for j in range(n - 1, i - 1, -1):
            g[j] += c * g[j + 1]
    return g


def affine_image(p: Sequence[int], a: int, w: int, d: int, n: int) -> list[int]:
    """The coefficients in t of d^n * p((a + w*t)/d), for deg p <= n: p
    homogenised to degree n, one Taylor shift by a and a homothety by w, all
    on integers."""
    g = list(p) + [0] * (n + 1 - len(p))
    scale = 1
    for k in range(n, -1, -1):
        g[k] *= scale
        scale *= d
    g = _taylor_shift(g, a)
    scale = 1
    for k in range(n + 1):
        g[k] *= scale
        scale *= w
    return g


def graeffe_step(p: Sequence[int]) -> list[int]:
    """One Graeffe root-squaring step on integers: the g with g(w^2) =
    p(w) * p(-w) = E(w^2)^2 - w^2 O(w^2)^2 for p(w) = E(w^2) + w O(w^2).
    g = (-1)^n lc(p)^2 * prod (u - r^2) over the roots r of p, with
    multiplicity, for n = deg p."""
    even, odd = _int_mul(p[0::2], p[0::2]), _int_mul(p[1::2], p[1::2])
    g = even + [0] * (len(p) - len(even))
    for k, c in enumerate(odd):
        g[k + 1] -= c
    return g


def descartes_bound(f: Sequence[int], lo: Fraction, hi: Fraction) -> int:
    """Descartes' bound v on the roots of the integer polynomial f in the open
    (lo, hi), lo < hi, where f is nonzero at lo and at hi.

    v is never below the number of roots counted with multiplicity, and has
    its parity, so v = 0 means no root and v = 1 one simple root.  v is the
    number of sign variations of (1 + t)^n f((lo + hi*t)/(1 + t)), built on
    integers as the `affine_image` of f onto s in (0, 1), reversed and
    shifted by 1.
    """
    # lo = a/d and hi = b/d; h(s) = d^n f((b + (a - b) s)/d) maps s = 1/(1 + t)
    d = lcm(lo.denominator, hi.denominator)
    a, b = lo.numerator * (d // lo.denominator), hi.numerator * (d // hi.denominator)
    g = affine_image(f, b, a - b, d, len(f) - 1)
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

    def is_exact(self) -> bool:
        return self.lo == self.hi


def bisect_step(
    f: Sequence[int], lo: Fraction, hi: Fraction, s_lo: int
) -> tuple[Fraction, Fraction, int]:
    """One exact bisection of a bracket [lo, hi] across which the integer
    polynomial f changes sign.

    `s_lo` is an integer with the sign of f(lo).  Splits at the midpoint m
    and returns the half that keeps the sign change as (lo, hi, s_lo), or
    (m, m, 0) when m is a root of f.
    """
    m = (lo + hi) / 2
    pm = _rat_eval(f, m)
    if not pm:
        return m, m, 0
    if (s_lo > 0) != (pm > 0):
        return lo, m, s_lo
    return m, hi, pm


def isolate_real_roots(
    p: Sequence[int], lo: Fraction | int, hi: Fraction | int
) -> list[RootInterval]:
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
    ends, inner, v = _end_roots(f, lo, hi)
    if v >= 2:
        # with an endpoint root deflated away, a bracket ending there
        # isolates only for the deflated form
        inner = _deflate(squarefree_part(f), ends, lo, hi)

    def split(g: tuple[int, ...], a: Fraction, b: Fraction, v: int) -> list[RootInterval]:
        if v <= 1:
            return [RootInterval(a, b, g)] if v else []
        m = (a + b) / 2
        found, halves = [], g
        if _rat_eval(g, m) == 0:
            found = [RootInterval(m, m, g)]
            halves = tuple(int_exact_quotient(g, [-m.numerator, m.denominator]))
        for c, d in ((a, m), (m, b)):
            found += split(halves, c, d, descartes_bound(halves, c, d))
        return [RootInterval(a, b, g)] if len(found) == 1 else found

    out = [RootInterval(e, e, f) for e in ends] + split(tuple(inner), lo, hi, v)
    return sorted(out, key=lambda r: r.lo)


def refine_root(r: RootInterval, width: Fraction | int) -> RootInterval:
    """Shrink the isolating interval to width <= `width` by exact bisection
    at midpoints (`bisect_step`); a root at a bracket end or at a midpoint
    is returned as that exact bracket, of width 0."""
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


# Primes for the modular coprimality test of `squarefree_part`.
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


def _small_real_roots(f: Sequence[int]) -> list[tuple[int, bool]]:
    """The slots of the distinct real roots of the nonzero integer polynomial
    f of degree at most 2, increasing: (c, exact) with c the ceiling of the
    root and exact whether the root is c.

    Degree 0 has no root and degree 1 one floor division.  Degree 2 reads
    the sign of D = b^2 - 4ac: a negative one means no real root.  The roots
    are (u -+ sqrt(D))/v with v = 2|a| > 0 and u = -b or b with the sign of
    a, in increasing order.  For a square D = s^2 (s = 0 a double root) each
    takes one floor division; otherwise both are irrational, and with
    s = isqrt(D) their ceilings are -floor((s - u)/v) and floor((u + s)/v) + 1.
    """
    if len(f) == 1:
        return []
    if len(f) == 2:
        q, r = divmod(-f[0], f[1])
        return [(q + (r != 0), not r)]
    c, b, a = f
    disc = b * b - 4 * a * c
    if disc < 0:
        return []
    u, v = (-b, 2 * a) if a > 0 else (b, -2 * a)
    s = math.isqrt(disc)
    if s * s != disc:
        return [(-((s - u) // v), False), ((u + s) // v + 1, False)]
    slots = []
    for num in ((u,) if s == 0 else (u - s, u + s)):
        q, r = divmod(num, v)
        slots.append((q + (r != 0), not r))
    return slots


def _half_line_bounds(f: Sequence[int], neg: bool, pos: bool) -> tuple[Sequence[int], bool, int, int]:
    """(g, whether 0 is a root, v_neg, v_pos) for the nonzero integer f.

    g is f with its factor x^m divided out.  v_neg and v_pos are Descartes'
    bounds on the roots in (-inf, 0) and (0, inf), the sign variations of
    g(-y) and of g(y), for the halves that `neg` and `pos` ask for; a half
    not asked for reads 0.  A bound of 0 means no root on that half-line,
    and 1 one simple root.
    """
    m = 0
    while not f[m]:
        m += 1
    g = f[m:]
    v_neg = 0
    if neg:
        reflected = list(g)
        reflected[1::2] = [-c for c in reflected[1::2]]
        v_neg = sign_variations(reflected)
    return g, m > 0, v_neg, sign_variations(g) if pos else 0


def _bisect_ceiling(f: Sequence[int], a: int, b: int, sb: int) -> tuple[int, bool]:
    """The slot (c, exact) of the root of the integer polynomial f in (a, b],
    with `sb` = f(b): c is the root's ceiling and exact whether the root is
    c.  Either b - a == 1, where every root in (a, b] has the ceiling b, or
    (a, b] holds exactly one real root of f, across which f changes sign: a
    sign bisection on integer midpoints keeps that root in (a, b] down to
    width 1, where one exact test decides.
    """
    while sb and b - a > 1:
        m = (a + b) // 2
        sm = _int_eval(f, m)
        if sm == 0 or (sm > 0) == (sb > 0):
            b, sb = m, sm  # the root lies in (a, m]
        else:
            a = m  # the root lies in (m, b)
    return b, not sb


def _half_slots(g: Sequence[int], a: int, b: int, v: int) -> list[tuple[int, bool]]:
    """The slots of the distinct roots in [a, b], increasing, of the integer
    g, nonzero at 0, for integers a <= b on one closed half-line, where g's
    Descartes bound on the open half-line is v.

    With v <= 1 a root in [a, b] is a zero at an end, or lies where g
    changes sign from a to b, and sign bisection (`_bisect_ceiling`) finds
    its slot.  Otherwise the end roots are divided out (`_deflate`) and
    Descartes bisection runs on integer points: a part (a, b) takes its
    bound (`descartes_bound`); 0 means no root, 1 one simple root, found by
    sign bisection from the value at b that the part carries, and 2 or more
    split it at the integer midpoint m, where a root is the exact slot m
    and is divided out of both halves.  On width 1 every root has the
    ceiling b and none is b, so a part with bound 2 or more takes one slot
    (b, False) per root that `count_real_roots` finds there.
    """
    ga, gb = _int_eval(g, a), _int_eval(g, b)
    slots = [(a, True)] if not ga else []
    if a == b:
        return slots
    if v <= 1:
        if slots or (gb and (ga > 0) == (gb > 0)):
            return slots
        return [_bisect_ceiling(g, a, b, gb)]
    h = _deflate(g, [e for e, ge in ((a, ga), (b, gb)) if not ge], a, b)
    # parts (a, b, h, h(b)) and exact slots, leftmost on top
    todo: list = [(b, True)] if not gb else []
    todo.append((a, b, h, gb or _int_eval(h, b)))
    while todo:
        part = todo.pop()
        if len(part) == 2:
            slots.append(part)
            continue
        a, b, h, hb = part
        v = descartes_bound(h, a, b)
        if v == 1:
            slots.append(_bisect_ceiling(h, a, b, hb))
        elif v and b - a == 1:
            slots += [(b, False)] * count_real_roots(h, a, b)
        elif v:
            m = (a + b) // 2
            hm = _int_eval(h, m)
            if hm:
                todo += [(m, b, h, hb), (a, m, h, hm)]
                continue
            q = _deflate(h, (m,), a, b)
            hb //= (b - m) ** (len(h) - len(q))  # q(b) = h(b) / (b - m)^k
            todo += [(m, b, q, hb), (m, True), (a, m, q, _int_eval(q, m))]
    return slots


def _root_slots(p: Sequence[int], lo: int | None, hi: int | None) -> list[tuple[int, bool]]:
    """Slots for the real roots of p, increasing: (c, exact) with c the
    ceiling of the root and exact whether the root is c.  They hold every
    real root in [lo, hi] (unbounded where None), one slot per distinct
    root; only the closed form may hold roots outside the range.

    Degree at most 2 takes the closed form (`_small_real_roots`), unfiltered.
    Otherwise the range is clipped to the root bound and each half-line it
    meets is certified by Descartes' rule on p's own coefficients
    (`_half_line_bounds`), then searched from its end of the range by
    `_half_slots`: a bound of at most 1 takes two evaluations and, when the
    root lies there, sign bisection on p itself, and a larger one Descartes
    bisection at integer points.
    """
    f = p if p and p[-1] else _primitive(p)
    if len(f) <= 3:
        return _small_real_roots(f)
    bound = _int_root_bound(f)
    lo = -bound if lo is None else max(lo, -bound)
    hi = bound if hi is None else min(hi, bound)
    if lo > hi:
        return []
    g, zero, v_neg, v_pos = _half_line_bounds(f, lo < 0, hi > 0)
    slots = _half_slots(g, lo, min(hi, 0), v_neg) if v_neg else []
    if zero and lo <= 0 <= hi:
        slots.append((0, True))
    if v_pos:
        slots += _half_slots(g, max(lo, 0), hi, v_pos)
    return slots


def integer_roots(p: Sequence[int], lo: int | None = None, hi: int | None = None) -> list[int]:
    """The integer roots of p in [lo, hi] (unbounded where None), increasing:
    the exact slots of `_root_slots` that lie in the range.  Every decision
    is made on integers."""
    return [
        c for c, exact in _root_slots(p, lo, hi)
        if exact and (lo is None or lo <= c) and (hi is None or c <= hi)
    ]


_RUN_BLOCK = 4096  # columns evaluated at once: lists of a whole long run cost time and memory


def run_integer_roots(rows: Sequence[Sequence[int]], first: int, last: int, lo: int, hi: int) -> list[tuple[int, int]]:
    """The pairs (a, t), for a = first..last, of the integer roots t in
    [lo, hi] of the column sum_j rows[j](a) t^j, ordered by a and then by t:
    `integer_roots` of each column, which must be nonzero
    (`ZeroPolynomialError`).

    Every row is evaluated across the run, one list comprehension per
    coefficient.  Columns of degree 1 or 2 in t are solved in the loop: one
    exact division for degree 1; for degree 2 the discriminant D, and when
    D = s^2 the two exact divisions of (-b -+ s) by 2a, in increasing order
    when a > 0 and reversed otherwise.  A column whose leading coefficient
    vanishes, and every column of degree 0 or at least 3, takes
    `integer_roots`.
    """
    found: list[tuple[int, int]] = []
    for start in range(first, last + 1, _RUN_BLOCK):
        xs = range(start, min(start + _RUN_BLOCK, last + 1))
        cols = []
        for row in rows:
            vals = [row[-1] if row else 0] * len(xs)
            for c in reversed(row[:-1]):
                vals = [v * x + c for v, x in zip(vals, xs)]
            cols.append(vals)
        if not 2 <= len(rows) <= 3:
            for a, column in zip(xs, zip(*cols)):
                found += [(a, t) for t in integer_roots(column, lo, hi)]
            continue
        if len(rows) == 2:
            for a, c0, c1 in zip(xs, *cols):
                if not c1:
                    found += [(a, t) for t in integer_roots([c0, c1], lo, hi)]
                    continue
                q, r = divmod(-c0, c1)
                if not r and lo <= q <= hi:
                    found.append((a, q))
            continue
        for a, c0, c1, c2 in zip(xs, *cols):
            if not c2:
                found += [(a, t) for t in integer_roots([c0, c1, c2], lo, hi)]
                continue
            disc = c1 * c1 - 4 * c2 * c0
            if disc < 0:
                continue
            s = math.isqrt(disc)
            if s * s != disc:
                continue
            nums = (-c1 - s, -c1 + s) if c2 > 0 else (-c1 + s, -c1 - s)
            for num in nums[:1] if s == 0 else nums:
                q, r = divmod(num, 2 * c2)
                if not r and lo <= q <= hi:
                    found.append((a, q))
    return found


def root_slots(p: Sequence[int], lo: int | None = None, hi: int | None = None) -> list[tuple[int, bool]]:
    """The slots (c, exact) of the distinct real roots of p in [lo, hi]
    (unbounded where None), increasing, one per root (two roots in one unit
    interval give one slot twice): those of the `_root_slots` walk whose
    roots lie in the range.  A root with the ceiling c lies in [lo, hi]
    exactly when lo < c <= hi, or c == lo and the root is c."""
    slots = _root_slots(p, lo, hi)
    if lo is not None:
        slots = [s for s in slots if lo < s[0] or s == (lo, True)]
    if hi is not None:
        slots = [s for s in slots if s[0] <= hi]
    return slots


def slot_runs(slots: Sequence[tuple[int, bool]], lo: int, hi: int) -> list[tuple[int, int]]:
    """The integer runs of lo..hi, in order, between the sorted slots
    (c, exact) of roots in [lo, hi], as `root_slots` gives them: an exact
    slot c is its own run [c, c], and a gap slot, whose root lies in
    (c - 1, c), ends a run at c - 1.  So the runs tile lo..hi, and a run of
    two or more points holds no root on its closed span."""
    runs: list[tuple[int, int]] = []
    first = lo
    for c, exact in [*slots, (hi + 1, False)]:
        if first < c:
            runs.append((first, c - 1))
        if exact:
            runs.append((c, c))
        first = c + exact
    return runs


def slot_bracket(p: Sequence[int], slots: Sequence[tuple[int, bool]], j: int) -> RootInterval:
    """An isolating interval for root j of p, whose `root_slots` are
    `slots`: [c, c] for an exact slot c, and otherwise root j's bracket in
    `isolate_real_roots` over [c - 1, c], an exact root at c - 1 dropped,
    chosen by its place among the equal gap slots before it."""
    c, exact = slots[j]
    if exact:
        return RootInterval(Fraction(c), Fraction(c), _primitive(p))
    gap = [r for r in isolate_real_roots(p, c - 1, c) if r.hi > c - 1]
    return gap[j - slots.index((c, False))]
