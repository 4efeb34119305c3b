"""Reference implementations of the exact kernel, kept for differential tests.

``RationalFunctionReference`` is the RationalFunction that stored its
numerator and denominator as Fraction-coefficient Polynomials and reduced
every result through one Fraction-based constructor.  ``horner_reference``
is the plain Horner loop of ``Polynomial.__call__``, one scalar operation per
coefficient.  The kernel under test must match both value for value, type
for type, and exception for exception.
"""

import operator
from fractions import Fraction
from itertools import accumulate

from finsum.exact import Polynomial, poly_gcd


def horner_reference(p, x):
    """p(x) by Horner's rule on the coefficients as stored."""
    acc = None
    for c in reversed(p.coeffs):
        acc = c if acc is None else acc * x + c
    if acc is None:
        return Fraction(0)
    return acc


def _deflate(a, r):
    """Quotient of the int coefficient list a by L - r, r in (0, 1, -1), or None
    when a(r) != 0."""
    if r == 0:
        return a[1:] if a[0] == 0 else None
    q = list(accumulate(reversed(a), operator.add if r == 1 else (lambda acc, c: c - acc)))
    return q[-2::-1] if q[-1] == 0 else None


class RationalFunctionReference:
    """Quotient of polynomials in canonical form.

    Canonical: num/den coprime, both with integer coefficients whose two
    contents are themselves coprime, and den has positive leading coefficient.
    Equality is therefore structural.
    """

    __slots__ = ("num", "den")

    def __init__(self, num, den=None):
        if not isinstance(num, Polynomial):
            num = Polynomial.constant(Fraction(num))
        if den is None:
            den = Polynomial.constant(Fraction(1))
        elif not isinstance(den, Polynomial):
            den = Polynomial.constant(Fraction(den))
        if not den:
            raise ZeroDivisionError("rational function with zero denominator")
        if not num:
            object.__setattr__(self, "num", Polynomial())
            object.__setattr__(self, "den", Polynomial.constant(Fraction(1)))
            return
        a = [c.numerator for c in num.primitive().coeffs]
        b = [c.numerator for c in den.primitive().coeffs]
        scale = Fraction(num.leading * b[-1]) / (den.leading * a[-1])
        rest = b
        for r in (0, 1, -1):
            k = 0
            while (q := _deflate(rest, r)) is not None:
                rest, k = q, k + 1
            while k and (q := _deflate(a, r)) is not None:
                a, b, k = q, _deflate(b, r), k - 1
        if len(rest) > 1:
            g = poly_gcd(Polynomial(a), Polynomial(rest))
            if g.degree > 0:
                a = [c.numerator for c in (Polynomial(a) // g).coeffs]
                b = [c.numerator for c in (Polynomial(b) // g).coeffs]
        sn, sd = scale.numerator, scale.denominator
        if b[-1] < 0:
            sn, sd = -sn, -sd
        object.__setattr__(self, "num", Polynomial(tuple(Fraction(c * sn) for c in a)))
        object.__setattr__(self, "den", Polynomial(tuple(Fraction(c * sd) for c in b)))

    @classmethod
    def from_parts(cls, num, den):
        """The reference holding num/den as given, which must be canonical."""
        ref = object.__new__(cls)
        object.__setattr__(ref, "num", num)
        object.__setattr__(ref, "den", den)
        return ref

    def __setattr__(self, *a):
        raise AttributeError("RationalFunction is immutable")

    @classmethod
    def variable(cls):
        return cls(Polynomial.variable())

    def __bool__(self):
        return bool(self.num)

    def __eq__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return self.num == o.num and self.den == o.den

    def __hash__(self):
        return hash(("RationalFunction", self.num.coeffs, self.den.coeffs))

    @staticmethod
    def _lift(other):
        if isinstance(other, RationalFunctionReference):
            return other
        if isinstance(other, (int, Fraction, Polynomial)):
            return RationalFunctionReference(other)
        return None

    def __add__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return RationalFunctionReference(self.num * o.den + o.num * self.den, self.den * o.den)

    __radd__ = __add__

    def __neg__(self):
        return RationalFunctionReference(-self.num, self.den)

    def __sub__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def __mul__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return RationalFunctionReference(self.num * o.num, self.den * o.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        if not o:
            raise ZeroDivisionError("division by zero rational function")
        return RationalFunctionReference(self.num * o.den, self.den * o.num)

    def __rtruediv__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return o / self

    def __pow__(self, k: int):
        if k < 0:
            if not self:
                raise ZeroDivisionError("0 ** negative")
            return RationalFunctionReference(self.den ** (-k), self.num ** (-k))
        return RationalFunctionReference(self.num ** k, self.den ** k)

    def __call__(self, x):
        d = horner_reference(self.den, x)
        if isinstance(d, Fraction) and d == 0:
            raise ZeroDivisionError(f"pole at {x}")
        n = horner_reference(self.num, x)
        return Fraction(n) / Fraction(d) if isinstance(d, Fraction) else n / d

    def derivative(self) -> "RationalFunctionReference":
        return RationalFunctionReference(
            self.num.derivative() * self.den - self.num * self.den.derivative(),
            self.den * self.den,
        )

    def to_text(self, letter: str = "L", descending: bool = False) -> str:
        n = self.num.to_text(letter, descending)
        if self.den == Polynomial.constant(Fraction(1)):
            return n
        d = self.den.to_text(letter, descending)
        np = n if (self.num.degree <= 0 and "-" not in n) else f"({n})"
        dp = d if self.den.degree <= 0 else f"({d})"
        return f"{np}/{dp}"

    def __repr__(self):
        return f"RationalFunction({self.to_text()})"
