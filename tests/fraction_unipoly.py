"""Reference univariate arithmetic over Q for the tests: `UniPoly` is the
package's resultant record with `Fraction` coefficients, ring operators,
exact division, evaluation and the derivative.  The tests build products of
known factors with it and evaluate the package's integer polynomials on it."""

from fractions import Fraction

from latcurve import unipoly
from latcurve.unipoly import ZeroPolynomialError


class UniPoly(unipoly.UniPoly):
    """Dense univariate polynomial over Q; coefficient index = degree."""

    __slots__ = ()

    def __init__(self, coeffs) -> None:
        super().__init__([Fraction(c) for c in coeffs])

    @property
    def leading(self) -> Fraction:
        if not self.coeffs:
            raise ZeroPolynomialError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    # -- arithmetic ------------------------------------------------------

    def __neg__(self):
        return UniPoly([-c for c in self.coeffs])

    def __add__(self, other):
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return UniPoly(out)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
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

    def __pow__(self, n: int):
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

    def __divmod__(self, other):
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

    def __floordiv__(self, other):
        """Exact division; raises if the remainder is nonzero."""
        q, r = divmod(self, other)
        if not r.is_zero():
            raise ArithmeticError("inexact polynomial division")
        return q

    def __mod__(self, other):
        return divmod(self, other)[1]

    # -- calculus and evaluation -----------------------------------------

    def evaluate(self, x) -> Fraction:
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def derivative(self):
        return UniPoly([i * c for i, c in enumerate(self.coeffs)][1:])
