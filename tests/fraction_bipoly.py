"""Reference bivariate arithmetic on a `Fraction` term dict, independent of
`latcurve.poly2`: the tests compare every `BiPoly` operator, the implicit
derivatives, the level curves and divisibility (`term_reduction`, the
reduction over Q) against it.  `evaluate_bipoly` gives the value of a
`BiPoly` at a rational point, which no package code needs."""

from fractions import Fraction

from latcurve.unipoly import primitive_ints


def evaluate_bipoly(p, x, y) -> Fraction:
    """p(x, y) for the `BiPoly` p, by Horner's rule on its rows."""
    x, y = Fraction(x), Fraction(y)
    total = Fraction(0)
    for r in reversed(p.rows):
        v = Fraction(0)
        for c in reversed(r):
            v = v * x + c
        total = total * y + v
    return p.content * total


def _display_key(j):
    return (j[0] + j[1], j[0])


class FractionBiPoly:
    """A polynomial in x, y as {(x-exponent, y-exponent): nonzero Fraction}."""

    def __init__(self, terms=()):
        items = terms.items() if isinstance(terms, dict) else terms
        acc = {}
        for (j1, j2), c in items:
            c = acc.get((j1, j2), Fraction(0)) + Fraction(c)
            if c:
                acc[(j1, j2)] = c
            else:
                acc.pop((j1, j2), None)
        self.terms = acc

    def __repr__(self):
        return f"FractionBiPoly({self.terms!r})"

    def __neg__(self):
        return FractionBiPoly({j: -c for j, c in self.terms.items()})

    def __add__(self, other):
        return FractionBiPoly(list(self.terms.items()) + list(other.terms.items()))

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, FractionBiPoly):
            return FractionBiPoly({j: c * other for j, c in self.terms.items()})
        return FractionBiPoly(
            [((a1 + b1, a2 + b2), ca * cb) for (a1, a2), ca in self.terms.items() for (b1, b2), cb in other.terms.items()]
        )

    def __pow__(self, n):
        out = FractionBiPoly({(0, 0): 1})
        for _ in range(n):
            out = out * self
        return out

    def partial(self, variable):
        if variable == "x":
            return FractionBiPoly({(j1 - 1, j2): c * j1 for (j1, j2), c in self.terms.items() if j1})
        return FractionBiPoly({(j1, j2 - 1): c * j2 for (j1, j2), c in self.terms.items() if j2})

    def swap_xy(self):
        return FractionBiPoly({(j2, j1): c for (j1, j2), c in self.terms.items()})

    def evaluate(self, x, y):
        return sum((c * Fraction(x) ** j1 * Fraction(y) ** j2 for (j1, j2), c in self.terms.items()), Fraction(0))

    def at_x(self, x0):
        """self(x0, y) as its `Fraction` coefficient list in y, no trailing zeros."""
        out = [Fraction(0)] * (max((j2 for _, j2 in self.terms), default=-1) + 1)
        for (j1, j2), c in self.terms.items():
            out[j2] += c * Fraction(x0) ** j1
        while out and not out[-1]:
            out.pop()
        return out

    def leading_term(self):
        j = max(self.terms, key=_display_key)
        return j, self.terms[j]

    def primitive_integer(self):
        if not self.terms:
            return self
        scaled = dict(zip(self.terms, primitive_ints(list(self.terms.values()))))
        sign = 1 if scaled[max(scaled, key=_display_key)] > 0 else -1
        return FractionBiPoly({j: sign * c for j, c in scaled.items()})


def term_reduction(f, g):
    """(whether f divides g, the leading-coefficient quotients taken) for
    `FractionBiPoly`s f != 0 and g, by exact term reduction over Q: the
    leading term of g in display order is divided by that of f while its
    exponents allow, and that multiple of f taken off, until g is zero."""
    (lt1, lt2), lc = f.leading_term()
    r, quotients = g, []
    while r.terms:
        (m1, m2), c = r.leading_term()
        if m1 < lt1 or m2 < lt2:
            return False, quotients
        quotients.append(c / lc)
        r = r - FractionBiPoly({(m1 - lt1, m2 - lt2): c / lc}) * f
    return True, quotients
