"""Exact bivariate polynomials in x, y over Q.

A `BiPoly` is one positive rational `content`, an `int` whenever it is
integral, times primitive integer y-rows: `rows[j]` is the integer
coefficient tuple in x of y^j (index = x-degree, () for a zero row), each
row and the row tuple end in a nonzero entry, and all the coefficients have
gcd 1 and the signs of the polynomial.  This form is canonical, so equality
and hashing read it, and `terms` is computed from it.  Sums, products,
powers, partial derivatives, the x/y swap and integer columns run on the
rows: a result takes one content and one integer gcd, and integer
polynomials make no `Fraction`.  A coefficient that is not an `int` or a
`Fraction`, a float among them, is a `TypeError`.

Also provides parsing/printing in a small text grammar, divisibility,
resultants eliminating y, and the corner index used to build punctured
monomial sets.  Term order is graded lexicographic with x taking priority
inside each total degree; printing lists highest terms first.

The one resultant algorithm is a pseudo-remainder descent (Collins) on the
primitive integer y-rows, the contents multiplied back.  The rest of the
package reads it through `eliminant`, a primitive integer tuple, and
`discriminant`, the cached eliminant of a curve and its y-derivative.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
from typing import Iterable, Mapping, Sequence

from .unipoly import UniPoly, _int_eval, _int_mul, _primitive, _rat_eval, int_exact_quotient, poly_gcd, primitive_ints

ExponentPair = tuple[int, int]


class PolyParseError(ValueError):
    """Syntax error while parsing polynomial text; carries the position."""

    def __init__(self, message: str, position: int) -> None:
        super().__init__(f"{message} (at position {position})")
        self.position = position


class ResultantDomainError(ValueError):
    """Resultant eliminating y needs positive y-degree on both sides."""


def term_order_key(j: ExponentPair) -> tuple[int, int]:
    """Sort key: ascending total degree, x-power breaking ties (1, x, y, x^2, x*y, y^2, ...)."""
    return (j[0] + j[1], j[1])


def display_order_key(j: ExponentPair) -> tuple[int, int]:
    """Sort key for printing: highest total degree first, x before y inside a degree."""
    return (j[0] + j[1], j[0])


def _coefficient(c: object) -> Fraction | int:
    """c, an `int` or a `Fraction`; anything else, a float among them, is a `TypeError`."""
    if not isinstance(c, (int, Fraction)):
        raise TypeError(f"coefficients must be int or Fraction, not {type(c).__name__}")
    return c


def _content(q: Fraction | int) -> Fraction | int:
    """q > 0 in the form of a `content`: an `int` when it is integral."""
    return q if q.denominator != 1 else q.numerator


def _canonical(content: Fraction | int, rows: list[list[int]]) -> BiPoly:
    """content * sum_j rows[j](x) * y^j for a positive rational content and
    integer rows (lists, modified in place): trailing zeros dropped and the
    integer content of the rows moved into `content`."""
    for r in rows:
        while r and not r[-1]:
            r.pop()
    while rows and not rows[-1]:
        rows.pop()
    g = 0
    for r in rows:
        g = gcd(g, *r)
        if g == 1:
            break
    if not g:
        return _ZERO
    if g > 1:
        content = _content(content * g)
        return BiPoly._of(content, tuple(tuple(c // g for c in r) for r in rows))
    return BiPoly._of(content, tuple(map(tuple, rows)))


def _combine_rows(
    ra: Sequence[Sequence[int]], ka: int, rb: Sequence[Sequence[int]], kb: int
) -> list[list[int]]:
    """The integer rows ka * ra + kb * rb, as new lists."""
    if len(ra) < len(rb):
        ra, ka, rb, kb = rb, kb, ra, ka
    out = [[c * ka for c in r] for r in ra]
    for row, s in zip(out, rb):
        row.extend([0] * (len(s) - len(row)))
        for i, c in enumerate(s):
            row[i] += c * kb
    return out


class BiPoly:
    """Immutable bivariate polynomial over Q: `content` > 0 times the primitive
    integer y-rows `rows` (see the module docstring)."""

    __slots__ = ("content", "rows")

    def __init__(self, terms: Mapping[ExponentPair, Fraction | int] | Iterable[tuple[ExponentPair, Fraction | int]] = ()) -> None:
        items = terms.items() if isinstance(terms, Mapping) else terms
        acc: dict[ExponentPair, Fraction | int] = {}
        for (j1, j2), c in items:
            if j1 < 0 or j2 < 0:
                raise ValueError("negative exponent")
            key = (int(j1), int(j2))
            acc[key] = acc.get(key, 0) + _coefficient(c)
        acc = {j: c for j, c in acc.items() if c}
        den = lcm(*(c.denominator for c in acc.values()))
        rows: list[list[int]] = [[] for _ in range(max((j2 for _, j2 in acc), default=-1) + 1)]
        for (j1, j2), c in acc.items():
            r = rows[j2]
            r.extend([0] * (j1 + 1 - len(r)))
            r[j1] = c.numerator * (den // c.denominator)
        p = _canonical(Fraction(1, den) if den > 1 else 1, rows)
        object.__setattr__(self, "content", p.content)
        object.__setattr__(self, "rows", p.rows)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("BiPoly is immutable")

    @staticmethod
    def _of(content: Fraction | int, rows: tuple[tuple[int, ...], ...]) -> BiPoly:
        """The polynomial with this canonical (content, rows) pair, unchecked."""
        p = object.__new__(BiPoly)
        object.__setattr__(p, "content", content)
        object.__setattr__(p, "rows", rows)
        return p

    # -- constructors ------------------------------------------------------

    @staticmethod
    def constant(c: Fraction | int) -> BiPoly:
        return BiPoly({(0, 0): c})

    @staticmethod
    def monomial(j1: int, j2: int, c: Fraction | int = 1) -> BiPoly:
        return BiPoly({(j1, j2): c})

    @staticmethod
    def var_x() -> BiPoly:
        return BiPoly.monomial(1, 0)

    @staticmethod
    def var_y() -> BiPoly:
        return BiPoly.monomial(0, 1)

    # -- structure ----------------------------------------------------------

    @property
    def terms(self) -> dict[ExponentPair, Fraction | int]:
        """The nonzero coefficients keyed by (x-exponent, y-exponent)."""
        k = self.content
        return {(j1, j2): k * c for j2, r in enumerate(self.rows) for j1, c in enumerate(r) if c}

    def is_zero(self) -> bool:
        return not self.rows

    @property
    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        return max((j2 + len(r) - 1 for j2, r in enumerate(self.rows) if r), default=-1)

    def degree_x(self) -> int:
        return max(map(len, self.rows), default=0) - 1

    def degree_y(self) -> int:
        return len(self.rows) - 1

    def leading_term(self) -> tuple[ExponentPair, Fraction | int]:
        """The top term in display order: highest total degree, then highest x-power."""
        if not self.rows:
            raise ValueError("zero polynomial has no leading term")
        d = self.degree
        j2 = next(j2 for j2, r in enumerate(self.rows) if r and j2 + len(r) - 1 == d)
        r = self.rows[j2]
        return (len(r) - 1, j2), self.content * r[-1]

    def __eq__(self, other: object) -> bool:
        return isinstance(other, BiPoly) and self.content == other.content and self.rows == other.rows

    def __hash__(self) -> int:
        return hash((self.content, self.rows))

    def __bool__(self) -> bool:
        return bool(self.rows)

    def __repr__(self) -> str:
        return f"BiPoly({self.pretty()!r})"

    # -- arithmetic ----------------------------------------------------------

    def __neg__(self) -> BiPoly:
        return BiPoly._of(self.content, tuple(tuple(-c for c in r) for r in self.rows))

    def __add__(self, other: BiPoly) -> BiPoly:
        if not other.rows:
            return self
        if not self.rows:
            return other
        # a*A + b*B = u * (ka*A + kb*B) with u = gcd(a, b) and integers ka, kb
        a, b = self.content, other.content
        num, den = gcd(a.numerator, b.numerator), lcm(a.denominator, b.denominator)
        ka = a.numerator // num * (den // a.denominator)
        kb = b.numerator // num * (den // b.denominator)
        return _canonical(Fraction(num, den) if den > 1 else num, _combine_rows(self.rows, ka, other.rows, kb))

    def __sub__(self, other: BiPoly) -> BiPoly:
        return self + (-other)

    def __mul__(self, other: "BiPoly | Fraction | int") -> BiPoly:
        if not isinstance(other, BiPoly):
            k = _coefficient(other)
            if not k or not self.rows:
                return _ZERO
            p = BiPoly._of(_content(self.content * abs(k)), self.rows)
            return p if k > 0 else -p
        if not self.rows or not other.rows:
            return _ZERO
        out: list[list[int]] = [[] for _ in range(len(self.rows) + len(other.rows) - 1)]
        for i, r in enumerate(self.rows):
            if r:
                for j, s in enumerate(other.rows):
                    if s:
                        row = out[i + j]
                        row.extend([0] * (len(r) + len(s) - 1 - len(row)))
                        for k, c in enumerate(r):
                            if c:
                                for m, d in enumerate(s, k):
                                    row[m] += c * d
        return _canonical(_content(self.content * other.content), out)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> BiPoly:
        if n < 0:
            raise ValueError("negative power")
        result = BiPoly.constant(1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    # -- specialization ------------------------------------------------------

    def int_column(self, x0: Fraction | int) -> list[int]:
        """A positive multiple of self(x0, y) as an integer list in y, [] when
        it is zero: each row's `_int_eval` at an integer x0, and at x0 = a/b
        its `_rat_eval`, b^deg(row) * row(x0), times b^(deg_x - deg(row)), so
        every entry is b^deg_x * row(x0)."""
        if x0.denominator == 1:
            a = x0.numerator
            out = [_int_eval(r, a) for r in self.rows]
        else:
            b, top = x0.denominator, self.degree_x() + 1
            out = [_rat_eval(r, x0) * b ** (top - len(r)) for r in self.rows]
        while out and not out[-1]:
            out.pop()
        return out

    def swap_xy(self) -> BiPoly:
        cols: list[list[int]] = [[0] * len(self.rows) for _ in range(self.degree_x() + 1)]
        for j2, r in enumerate(self.rows):
            for j1, c in enumerate(r):
                cols[j1][j2] = c
        return _canonical(self.content, cols)

    # -- normalization ---------------------------------------------------------

    def primitive_integer(self) -> BiPoly:
        """Positive rational rescaling to integer coefficients with gcd 1,
        leading coefficient (display order) positive."""
        if not self.rows:
            return self
        p = BiPoly._of(1, self.rows)
        return p if p.leading_term()[1] > 0 else -p

    # -- printing ---------------------------------------------------------------

    def pretty(self) -> str:
        terms = self.terms
        if not terms:
            return "0"
        parts: list[str] = []
        for j in sorted(terms, key=display_order_key, reverse=True):
            c = terms[j]
            mag = abs(c)
            factors: list[str] = []
            if mag != 1 or j == (0, 0):
                if mag.denominator == 1:
                    factors.append(str(mag.numerator))
                else:
                    factors.append(f"({mag.numerator}/{mag.denominator})")
            j1, j2 = j
            if j1:
                factors.append("x" if j1 == 1 else f"x^{j1}")
            if j2:
                factors.append("y" if j2 == 1 else f"y^{j2}")
            term = "*".join(factors)
            if not parts:
                parts.append(term if c > 0 else f"-{term}")
            else:
                parts.append(f"+ {term}" if c > 0 else f"- {term}")
        return " ".join(parts)


_ZERO = BiPoly._of(1, ())


def partial(p: BiPoly, variable: str) -> BiPoly:
    """Exact partial derivative with respect to "x" or "y"."""
    if variable == "x":
        return _canonical(p.content, [[j1 * c for j1, c in enumerate(r)][1:] for r in p.rows])
    if variable == "y":
        return _canonical(p.content, [[j2 * c for c in r] for j2, r in enumerate(p.rows)][1:])
    raise ValueError("variable must be 'x' or 'y'")


def corner_index(p: BiPoly) -> int:
    """Largest i such that x^(d-i)*y^i occurs among the top-degree terms."""
    d = p.degree
    if d < 1:
        raise ValueError("polynomial must be nonconstant")
    return max(j2 for j2, r in enumerate(p.rows) if r and j2 + len(r) - 1 == d)


def divides(f: BiPoly, g: BiPoly) -> bool:
    """True iff g = f * h for some polynomial h, by exact term reduction of
    the primitive forms of g by f.  By Gauss's lemma their quotient is then
    integral, so a leading-coefficient quotient that is not an integer
    shows at once that f does not divide g."""
    if f.is_zero():
        raise ZeroDivisionError("division by the zero polynomial")
    if g.is_zero():
        return True
    f, r = BiPoly._of(1, f.rows), BiPoly._of(1, g.rows)
    (lt1, lt2), lc = f.leading_term()
    while not r.is_zero():
        (m1, m2), c = r.leading_term()
        q, rem = divmod(c, lc)
        if rem or m1 < lt1 or m2 < lt2:
            return False
        r = r - BiPoly.monomial(m1 - lt1, m2 - lt2, q) * f
    return True


# -- resultants ------------------------------------------------------------


def _int_sub(a: list[int], b: Sequence[int]) -> list[int]:
    out = a + [0] * (len(b) - len(a))
    for i, c in enumerate(b):
        out[i] -= c
    while out and out[-1] == 0:
        out.pop()
    return out


def _int_pow(a: Sequence[int], e: int) -> list[int]:
    out = [1]
    for _ in range(e):
        out = _int_mul(out, a)
    return out


def _pseudo_remainder(fc: Sequence[Sequence[int]], gc: Sequence[Sequence[int]]) -> list[Sequence[int]]:
    """Pseudo-remainder of f by g in y: lc(g)^(deg f - deg g + 1) * f mod g.

    A step rescales only the deg g rows below the top; a lower row of f
    enters already multiplied by the power of lc(g) taken so far.  That is
    O((deg f - deg g + 1) * deg g) row products, where rescaling the whole
    remainder at every step takes O(deg f^2).
    """
    n = len(gc) - 1
    e = len(fc) - n
    if e <= 0:
        r = list(fc)
    else:
        lead = gc[-1]
        # r holds the n rows below the current top, then the top
        r = list(fc[e - 1:])
        scale = [1]
        for j in range(e - 2, -2, -1):
            top = r.pop()
            r = [_int_mul(c, lead) for c in r]
            if top:
                r = [_int_sub(c, _int_mul(top, d)) for c, d in zip(r, gc)]
            scale = _int_mul(scale, lead)
            if j >= 0:
                r.insert(0, _int_mul(fc[j], scale))
    while r and not r[-1]:
        r.pop()
    return r


def _int_resultant(fc: Sequence[Sequence[int]], gc: Sequence[Sequence[int]]) -> list[int]:
    """Res_y(f, g) via pseudo-remainder descent, tracking leading-coefficient
    powers; the one division is exact in Z[x]."""
    m, n = len(fc) - 1, len(gc) - 1
    if m < n:
        res = _int_resultant(gc, fc)
        return [-c for c in res] if (m * n) % 2 else res
    if n == 0:
        # Res(f, const) = const^deg(f)
        return _int_pow(gc[0], m)
    r = _pseudo_remainder(fc, gc)
    if not r:
        return []
    sub = _int_resultant(gc, r)
    # lc(g)^(m - deg r - n*(m - n + 1)) scales Res(g, r) up to Res(g, f)
    e = m - (len(r) - 1) - n * (m - n + 1)
    out = _int_mul(sub, _int_pow(gc[-1], e)) if e >= 0 else int_exact_quotient(sub, _int_pow(gc[-1], -e))
    return [-c for c in out] if (m * n) % 2 else out


def resultant_eliminating_y(p: BiPoly, q: BiPoly) -> UniPoly:
    """Sylvester resultant of p and q with respect to y, as a polynomial in x:
    Res_y of the primitive integer rows times cp^deg_y(q) * cq^deg_y(p)."""
    if p.degree_y() < 1 or q.degree_y() < 1:
        raise ResultantDomainError("resultant requires positive y-degree")
    res = _int_resultant(p.rows, q.rows)
    scale = p.content ** q.degree_y() * q.content ** p.degree_y()
    return UniPoly(res if scale == 1 else [c * scale for c in res])


def eliminant(p: BiPoly, q: BiPoly) -> tuple[int, ...]:
    """Res_y(p, q) as a primitive integer tuple in x, signs kept; () when it
    vanishes identically.  Not cached."""
    return tuple(primitive_ints(resultant_eliminating_y(p, q).coeffs))


@lru_cache(maxsize=64)
def discriminant(f: BiPoly) -> tuple[int, ...]:
    """The eliminant of f and f_y, for deg_y f >= 2, built once per curve."""
    return eliminant(f, partial(f, "y"))


def reduce_times_lead_power(f: BiPoly, p: BiPoly, d: int) -> BiPoly:
    """k^e * prim(lc_y f)^d * p mod f in y, for a d at which prim(lc_y f)^d
    * p mod f is a polynomial.  prim(lc_y f) is the integer row of lc_y f
    over its positive content k, so a constant leading coefficient only sets
    the sign.

    The pseudo-remainder takes the row's power e = max(deg_y p - deg_y f +
    1, 0); k^e is left in, so the content stays p's times an integer, and
    the result is multiplied by the missing power of prim(lc_y f) or divided
    by the surplus one.  The remainder modulo f is unique, so that division
    is exact when the target is a polynomial.
    """
    if f.degree_y() < 1:
        raise ResultantDomainError("reduction requires a curve of positive y-degree")
    rows = _pseudo_remainder(p.rows, f.rows)
    e = max(p.degree_y() - f.degree_y() + 1, 0)
    lead = _primitive(f.rows[-1])
    d -= e
    if d > 0:
        lead_pow = _int_pow(lead, d)
        rows = [_int_mul(r, lead_pow) for r in rows]
    elif d < 0:
        lead_pow = _int_pow(lead, -d)
        rows = [int_exact_quotient(r, lead_pow) if r else [] for r in rows]
    return _canonical(p.content, [list(r) for r in rows])


# -- ingestion sanity check ---------------------------------------------------


def x_content(f: BiPoly) -> list[int]:
    """The x-content of f: the gcd of its y-rows, an integer polynomial in x
    whose roots c are the lines x = c that divide f."""
    content: list[int] = []
    for r in f.rows:
        content = poly_gcd(content, r)
    return content


class IngestionError(ValueError):
    """The input curve failed the cheap necessary checks."""


def ingestion_check(f: BiPoly) -> BiPoly:
    """Necessary (not sufficient) checks for an irreducible input curve.

    Returns the primitive integer normalization, the curve that the rest of
    the pipeline (`graph_decompose` among it) takes.  Rejects constants and
    repeated factors (a factor involving y through `discriminant(h)`
    vanishing identically, a factor free of y through the x-content of h).
    Full irreducibility is a documented precondition and is not verified.
    """
    if f.is_zero() or f.degree < 1:
        raise IngestionError("curve must be a nonconstant polynomial")
    g = f.primitive_integer()
    # a frame in which the curve depends on y: Res_y(h, h_y) vanishes when h
    # has a repeated factor involving y (not checked at y-degree 1)
    h = g if g.degree_y() >= 1 else g.swap_xy()
    if h.degree_y() >= 2 and not discriminant(h):
        raise IngestionError("curve has a repeated factor")
    # a repeated factor free of y divides the x-content at least twice
    content = x_content(h)
    if len(content) >= 2 and len(poly_gcd(content, [i * c for i, c in enumerate(content)][1:])) >= 2:
        raise IngestionError("curve has a repeated factor")
    return g


# -- parsing -------------------------------------------------------------------


class _Parser:
    def __init__(self, text: str) -> None:
        self.text = text
        self.pos = 0

    def error(self, message: str) -> PolyParseError:
        return PolyParseError(message, self.pos)

    def skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def take(self) -> str:
        ch = self.peek()
        self.pos += 1
        return ch

    def expect(self, ch: str) -> None:
        if self.peek() != ch:
            raise self.error(f"expected {ch!r}")
        self.pos += 1

    def natural(self) -> int:
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if self.pos == start:
            raise self.error("expected a number")
        return int(self.text[start : self.pos])

    def parse_expr(self) -> BiPoly:
        sign = 1
        if self.peek() == "+":
            self.take()
        elif self.peek() == "-":
            self.take()
            sign = -1
        acc = self.parse_term() * sign
        while True:
            ch = self.peek()
            if ch == "+":
                self.take()
                acc = acc + self.parse_term()
            elif ch == "-":
                self.take()
                acc = acc - self.parse_term()
            else:
                return acc

    def parse_term(self) -> BiPoly:
        acc = self.parse_factor()
        while self.peek() == "*":
            self.take()
            acc = acc * self.parse_factor()
        return acc

    def parse_factor(self) -> BiPoly:
        base = self.parse_atom()
        if self.peek() == "^":
            self.take()
            return base ** self.natural()
        return base

    def parse_atom(self) -> BiPoly:
        ch = self.peek()
        if ch == "(":
            self.take()
            saved = self.pos
            lit = self._try_rational_literal()
            if lit is not None:
                return BiPoly.constant(lit)
            self.pos = saved
            inner = self.parse_expr()
            self.expect(")")
            return inner
        if ch == "x":
            self.take()
            return BiPoly.var_x()
        if ch == "y":
            self.take()
            return BiPoly.var_y()
        if ch.isdigit():
            return BiPoly.constant(self.natural())
        if ch.isalpha():
            raise self.error(f"unknown variable {ch!r}; only x and y are allowed")
        raise self.error("expected a number, variable, or parenthesis")

    def _try_rational_literal(self) -> Fraction | None:
        # inside '(': optional sign, integer, '/', natural, ')'
        sign = 1
        if self.peek() == "-":
            self.take()
            sign = -1
        if not self.peek().isdigit():
            return None
        num = self.natural()
        if self.peek() != "/":
            return None
        self.take()
        if not self.peek().isdigit():
            return None
        den = self.natural()
        if self.peek() != ")":
            return None
        self.take()
        if den == 0:
            raise self.error("zero denominator")
        return Fraction(sign * num, den)


def parse(text: str) -> BiPoly:
    """Parse polynomial text: rationals `a` or `(a/b)`, variables x and y,
    operators + - *, exponent ^ with natural exponents, and parentheses."""
    parser = _Parser(text)
    result = parser.parse_expr()
    parser.skip_ws()
    if parser.pos != len(parser.text):
        raise parser.error("trailing characters")
    return result
