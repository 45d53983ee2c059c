"""Sparse exact bivariate polynomials in x, y over Q.

Provides parsing/printing in a small text grammar, partial derivatives,
divisibility, resultants eliminating y, and the corner-index used to build
punctured monomial sets.  Term order is graded lexicographic with x taking
priority inside each total degree; printing lists highest terms first.

The one resultant algorithm is a pseudo-remainder descent (Collins) on the
primitive integer y-coefficient rows, the rational contents multiplied back.
The same integer y-rows carry the sums, products and partial derivatives of
the implicit-derivative recurrence and the level curves, with no `Fraction`
arithmetic.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Iterable, Mapping

from .unipoly import UniPoly, _int_mul, int_exact_quotient, poly_gcd, primitive_ints

ExponentPair = tuple[int, int]
# an integer polynomial's y-rows, and its sparse (deg_x, deg_y, [(j1, j2, c)])
Rows = list[list[int]]
IntTerms = tuple[int, int, list[tuple[int, int, int]]]


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


def _powers(v: Fraction | int, n: int) -> list[Fraction | int]:
    """[v^0, v^1, ..., v^n], each power computed once (ints stay ints)."""
    v = v if isinstance(v, int) else Fraction(v)
    out: list[Fraction | int] = [1]
    for _ in range(n):
        out.append(out[-1] * v)
    return out


class BiPoly:
    """Immutable sparse bivariate polynomial keyed by (x-exponent, y-exponent)."""

    __slots__ = ("terms", "_rows", "_int_terms")

    def __init__(self, terms: Mapping[ExponentPair, Fraction | int] | Iterable[tuple[ExponentPair, Fraction | int]] = ()) -> None:
        items = terms.items() if isinstance(terms, Mapping) else terms
        acc: dict[ExponentPair, Fraction] = {}
        for (j1, j2), c in items:
            if j1 < 0 or j2 < 0:
                raise ValueError("negative exponent")
            c = Fraction(c)
            if c == 0:
                continue
            key = (int(j1), int(j2))
            c = acc.get(key, Fraction(0)) + c
            if c == 0:
                acc.pop(key, None)
            else:
                acc[key] = c
        object.__setattr__(self, "terms", dict(acc))

    # -- constructors ------------------------------------------------------

    @staticmethod
    def constant(c: Fraction | int) -> BiPoly:
        return BiPoly({(0, 0): Fraction(c)})

    @staticmethod
    def monomial(j1: int, j2: int, c: Fraction | int = 1) -> BiPoly:
        return BiPoly({(j1, j2): Fraction(c)})

    @staticmethod
    def var_x() -> BiPoly:
        return BiPoly.monomial(1, 0)

    @staticmethod
    def var_y() -> BiPoly:
        return BiPoly.monomial(0, 1)

    # -- structure ----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    @property
    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        return max((j1 + j2 for j1, j2 in self.terms), default=-1)

    def degree_x(self) -> int:
        return max((j1 for j1, _ in self.terms), default=-1)

    def degree_y(self) -> int:
        return max((j2 for _, j2 in self.terms), default=-1)

    def leading_term(self) -> tuple[ExponentPair, Fraction]:
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        j = max(self.terms, key=display_order_key)
        return j, self.terms[j]

    def __eq__(self, other: object) -> bool:
        return isinstance(other, BiPoly) and self.terms == other.terms

    def __hash__(self) -> int:
        return hash(frozenset(self.terms.items()))

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __repr__(self) -> str:
        return f"BiPoly({self.pretty()!r})"

    # -- arithmetic ----------------------------------------------------------

    def __neg__(self) -> BiPoly:
        return BiPoly({j: -c for j, c in self.terms.items()})

    def __add__(self, other: BiPoly) -> BiPoly:
        out = dict(self.terms)
        for j, c in other.terms.items():
            s = out.get(j, Fraction(0)) + c
            if s == 0:
                out.pop(j, None)
            else:
                out[j] = s
        return BiPoly(out)

    def __sub__(self, other: BiPoly) -> BiPoly:
        return self + (-other)

    def __mul__(self, other: "BiPoly | Fraction | int") -> BiPoly:
        if isinstance(other, (Fraction, int)):
            return BiPoly({j: c * other for j, c in self.terms.items()})
        out: dict[ExponentPair, Fraction] = {}
        for (a1, a2), ca in self.terms.items():
            for (b1, b2), cb in other.terms.items():
                key = (a1 + b1, a2 + b2)
                s = out.get(key, Fraction(0)) + ca * cb
                if s == 0:
                    out.pop(key, None)
                else:
                    out[key] = s
        return BiPoly(out)

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

    # -- evaluation and specialization ---------------------------------------

    def evaluate(self, x: Fraction | int, y: Fraction | int) -> Fraction:
        total = Fraction(0)
        xp: dict[int, Fraction] = {}
        yp: dict[int, Fraction] = {}
        for (j1, j2), c in self.terms.items():
            if j1 not in xp:
                xp[j1] = Fraction(x) ** j1
            if j2 not in yp:
                yp[j2] = Fraction(y) ** j2
            total += c * xp[j1] * yp[j2]
        return total

    def at_x(self, x0: Fraction | int) -> UniPoly:
        """Specialize x = x0; the result is a univariate polynomial in y."""
        xp = _powers(x0, self.degree_x())
        coeffs = [Fraction(0)] * (self.degree_y() + 1)
        for (j1, j2), c in self.terms.items():
            coeffs[j2] += c * xp[j1]
        return UniPoly(coeffs)

    def int_column(self, x0: Fraction | int) -> list[int]:
        """A positive multiple of self(x0, y) as an integer list in y, [] when
        it is zero: `_int_column` of the primitive integer rows' terms."""
        try:
            form = self._int_terms
        except AttributeError:
            form = self._int_terms = _int_terms(_primitive_rows(self)[1])
        return _int_column(form, x0)

    def at_y(self, y0: Fraction | int) -> UniPoly:
        yp = _powers(y0, self.degree_y())
        coeffs = [Fraction(0)] * (self.degree_x() + 1)
        for (j1, j2), c in self.terms.items():
            coeffs[j1] += c * yp[j2]
        return UniPoly(coeffs)

    def as_unipoly_x(self) -> UniPoly:
        """Reinterpret a y-free polynomial as univariate in x."""
        if self.degree_y() > 0:
            raise ValueError("polynomial depends on y")
        return self.at_y(0)

    def y_coefficients(self) -> list[UniPoly]:
        """Coefficients of powers of y; each one a univariate polynomial in x."""
        degy = self.degree_y()
        degx = self.degree_x()
        rows: list[list[Fraction]] = [[Fraction(0)] * (degx + 1) for _ in range(degy + 1)]
        for (j1, j2), c in self.terms.items():
            rows[j2][j1] = c
        return [UniPoly(r) for r in rows]

    def swap_xy(self) -> BiPoly:
        return BiPoly({(j2, j1): c for (j1, j2), c in self.terms.items()})

    # -- normalization ---------------------------------------------------------

    def primitive_integer(self) -> BiPoly:
        """Positive rational rescaling to integer coefficients with gcd 1,
        leading coefficient (display order) positive."""
        if self.is_zero():
            return self
        scaled = dict(zip(self.terms, primitive_ints(list(self.terms.values()))))
        if scaled[max(scaled, key=display_order_key)] < 0:
            scaled = {j: -c for j, c in scaled.items()}
        return BiPoly(scaled)

    def has_integer_coefficients(self) -> bool:
        return all(c.denominator == 1 for c in self.terms.values())

    # -- printing ---------------------------------------------------------------

    def pretty(self) -> str:
        if not self.terms:
            return "0"
        parts: list[str] = []
        for j in sorted(self.terms, key=display_order_key, reverse=True):
            c = self.terms[j]
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


def partial(p: BiPoly, variable: str) -> BiPoly:
    """Exact partial derivative with respect to "x" or "y"."""
    if variable == "x":
        return BiPoly({(j1 - 1, j2): c * j1 for (j1, j2), c in p.terms.items() if j1 > 0})
    if variable == "y":
        return BiPoly({(j1, j2 - 1): c * j2 for (j1, j2), c in p.terms.items() if j2 > 0})
    raise ValueError("variable must be 'x' or 'y'")


def corner_index(p: BiPoly) -> int:
    """Largest i such that x^(d-i)*y^i occurs among the top-degree terms."""
    d = p.degree
    if d < 1:
        raise ValueError("polynomial must be nonconstant")
    tops = [j2 for (j1, j2) in p.terms if j1 + j2 == d]
    return max(tops)


def divides(f: BiPoly, g: BiPoly) -> bool:
    """True iff g = f * h for some polynomial h, by exact term reduction."""
    if f.is_zero():
        raise ZeroDivisionError("division by the zero polynomial")
    if g.is_zero():
        return True
    (lt1, lt2), lc = f.leading_term()
    r = g
    while not r.is_zero():
        (m1, m2), c = r.leading_term()
        if m1 < lt1 or m2 < lt2:
            return False
        q = BiPoly.monomial(m1 - lt1, m2 - lt2, c / lc)
        r = r - q * f
    return True


# -- resultants ------------------------------------------------------------


def _int_sub(a: list[int], b: list[int]) -> list[int]:
    out = a + [0] * (len(b) - len(a))
    for i, c in enumerate(b):
        out[i] -= c
    while out and out[-1] == 0:
        out.pop()
    return out


def _int_pow(a: list[int], e: int) -> list[int]:
    out = [1]
    for _ in range(e):
        out = _int_mul(out, a)
    return out


def _primitive_rows(p: BiPoly) -> tuple[Fraction, Rows]:
    """(c, rows) with p = c * sum_j rows[j](x) * y^j: c > 0 rational, each row an
    integer coefficient list in x (index = degree, [] for zero), all the
    coefficients with gcd 1 and the signs of p; (1, []) for the zero
    polynomial.  Computed once per polynomial; callers share the rows and
    must not modify them."""
    try:
        return p._rows
    except AttributeError:
        pass
    ints = dict(zip(p.terms, primitive_ints(list(p.terms.values()))))
    rows: Rows = [[] for _ in range(p.degree_y() + 1)]
    for (j1, j2), v in ints.items():
        rows[j2].extend([0] * (j1 + 1 - len(rows[j2])))
        rows[j2][j1] = v
    j = next(iter(ints), None)
    p._rows = (Fraction(1) if j is None else p.terms[j] / ints[j], rows)
    return p._rows


# -- integer y-rows ------------------------------------------------------------
#
# An integer bivariate polynomial as its y-rows: rows[j] is the integer
# coefficient list in x of y^j ([] for zero), and the top row is nonzero.
# Callers share rows and never modify them.


def _int_add(a: list[int], b: list[int]) -> list[int]:
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, c in enumerate(b):
        out[i] += c
    while out and out[-1] == 0:
        out.pop()
    return out


def _rows_add(a: Rows, b: Rows) -> Rows:
    if len(a) < len(b):
        a, b = b, a
    out = [_int_add(r, s) for r, s in zip(a, b)] + a[len(b):]
    while out and not out[-1]:
        out.pop()
    return out


def _rows_scale(a: Rows, k: int) -> Rows:
    return [[c * k for c in r] for r in a] if k else []


def _rows_mul(a: Rows, b: Rows) -> Rows:
    if not a or not b:
        return []
    out: Rows = [[] for _ in range(len(a) + len(b) - 1)]
    for i, r in enumerate(a):
        if r:
            for j, s in enumerate(b):
                if s:
                    out[i + j] = _int_add(out[i + j], _int_mul(r, s))
    return out


def _rows_dx(a: Rows) -> Rows:
    out = [[j1 * c for j1, c in enumerate(r)][1:] for r in a]
    while out and not out[-1]:
        out.pop()
    return out


def _rows_dy(a: Rows) -> Rows:
    return [[j2 * c for c in r] for j2, r in enumerate(a)][1:]


def _rows_primitive(a: Rows) -> tuple[int, Rows]:
    """(g, a / g) for the content g >= 0 of the integer rows a; (0, []) for zero."""
    g = 0
    for r in a:
        for c in r:
            g = gcd(g, c)
    return g, ([[c // g for c in r] for r in a] if g > 1 else a)


def _int_terms(a: Rows) -> IntTerms:
    """(deg_x, deg_y, [(j1, j2, c), ...]) for the nonzero entries c*x^j1*y^j2
    of the integer rows a: the sparse form `_int_column` evaluates."""
    return max(map(len, a), default=1) - 1, len(a) - 1, [(j1, j2, c) for j2, r in enumerate(a) for j1, c in enumerate(r) if c]


def _int_column(form: IntTerms, x0: Fraction | int) -> list[int]:
    """A positive multiple of p(x0, y) as an integer list in y for p's integer
    terms `form` (`_int_terms`), [] when it is zero: at x0 = a/b each term
    c*x^j1*y^j2 is evaluated homogeneously as c * a^j1 * b^(deg_x - j1)."""
    dx, dy, terms = form
    apow, bpow = _powers(x0.numerator, dx), _powers(x0.denominator, dx)
    out = [0] * (dy + 1)
    for j1, j2, c in terms:
        out[j2] += c * apow[j1] * bpow[dx - j1]
    while out and not out[-1]:
        out.pop()
    return out


def _rows_poly(scale: Fraction, rows: Rows) -> BiPoly:
    """scale * sum_j rows[j](x) * y^j as a `BiPoly`, for a positive rational
    scale, with its primitive rows kept for `_primitive_rows`."""
    g, rows = _rows_primitive(rows)
    p = BiPoly()
    if g:
        num, den = scale.numerator * g, scale.denominator
        p.terms = {(j1, j2): Fraction(c * num, den) for j2, r in enumerate(rows) for j1, c in enumerate(r) if c}
        p._rows = (Fraction(num, den), rows)
    return p


def _pseudo_remainder(fc: list[list[int]], gc: list[list[int]]) -> list[list[int]]:
    """Pseudo-remainder of f by g in y: lc(g)^(deg f - deg g + 1) * f mod g."""
    n = len(gc) - 1
    lead = gc[-1]
    r = list(fc)
    for i in range(len(fc) - 1, n - 1, -1):
        top = r[i]
        r = [_int_mul(c, lead) for c in r[:i]]
        if top:
            for k in range(n):
                r[i - n + k] = _int_sub(r[i - n + k], _int_mul(top, gc[k]))
    while r and not r[-1]:
        r.pop()
    return r


def _int_resultant(fc: list[list[int]], gc: list[list[int]]) -> list[int]:
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
    cp, fc = _primitive_rows(p)
    cq, gc = _primitive_rows(q)
    res = _int_resultant(fc, gc)
    scale = cp ** (len(gc) - 1) * cq ** (len(fc) - 1)
    return UniPoly(res if scale == 1 else [c * scale for c in res])


# -- ingestion sanity check ---------------------------------------------------


class IngestionError(ValueError):
    """The input curve failed the cheap necessary checks."""


def ingestion_check(f: BiPoly) -> BiPoly:
    """Necessary (not sufficient) checks for an irreducible input curve.

    Returns the primitive integer normalization.  Rejects constants and
    repeated factors (a factor involving y through Res_y(h, h_y) vanishing
    identically, a factor free of y through the x-content of h).  Full
    irreducibility is a documented precondition and is not verified.
    """
    if f.is_zero() or f.degree < 1:
        raise IngestionError("curve must be a nonconstant polynomial")
    g = f.primitive_integer()
    # a frame in which the curve depends on y: Res_y(h, h_y) vanishes when h
    # has a repeated factor involving y (not checked at y-degree 1)
    h = g if g.degree_y() >= 1 else g.swap_xy()
    hy = partial(h, "y")
    if hy.degree_y() >= 1 and resultant_eliminating_y(h, hy).is_zero():
        raise IngestionError("curve has a repeated factor")
    # a repeated factor free of y divides the x-content, the gcd of the
    # y-coefficients, at least twice
    content = UniPoly([])
    for c in h.y_coefficients():
        content = poly_gcd(content, c)
    if content.degree >= 1 and poly_gcd(content, content.derivative()).degree >= 1:
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
