"""Reference implementations of the exact kernel, kept for differential tests.

``RationalFunctionReference`` is the RationalFunction that stored its
numerator and denominator as Fraction-coefficient Polynomials and reduced
every result through one Fraction-based constructor.  ``horner_reference``
is the plain Horner loop of ``Polynomial.__call__``, one scalar operation per
coefficient.  The kernel under test must match both value for value, type
for type, and exception for exception.  ``polynomial_text_reference`` is
``Polynomial.to_text`` formatting every coefficient through ``Fraction`` and
``format_rational``; the reference rational function prints through it.

``LaurentSeriesReference`` is the LaurentSeries that stored its coefficients
as given and built a reduced Fraction for every coefficient of every result;
it multiplies through its own copy of the integer convolution ``_convolve``.
The kernel under test must match it in offset, truncation order, coefficient
values, text and exception type; its int-form results hold Fractions where
the reference may hold an equal int, so types are not compared.

``logsum_direct_reference``, ``logsum_recurrence_values_reference`` and
``logsum_recurrence_reference`` are the numeric log-sum routes as Fraction
loops, one reduced Fraction per term or step at every parameter; the int
routes of ``finsum.logsum`` must match them value for value, type for type,
and exception for exception.

``euler_number`` is the integer Euler number from the Euler polynomial, a
reference value shared by the special-function and zeta-value tests.

``poly_gcd_reference`` is the Euclidean algorithm over Q on Fraction
Polynomials, by the long division ``poly_divmod_reference`` and the
primitive parts of ``primitive_reference``.  ``gcd_reference`` reduces a
quotient through it to the canonical form the RationalFunction constructor
must produce, and ``assert_same_ratfun`` compares a RationalFunction with a
reference one coefficient type by coefficient type; the kernel and log-sum
tests share them.
"""

import functools
import math
import operator
from fractions import Fraction
from itertools import accumulate, islice

from finsum.exact import (
    INFINITY,
    Polynomial,
    RationalFunction,
    TruncationError,
    _as_order,
    _ring_inverse,
    format_rational,
)
from finsum.special import euler_polynomial


def horner_reference(p, x):
    """p(x) by Horner's rule on the coefficients as stored."""
    acc = None
    for c in reversed(p.coeffs):
        acc = c if acc is None else acc * x + c
    if acc is None:
        return Fraction(0)
    return acc


def polynomial_text_reference(p, letter: str = "L", descending: bool = False) -> str:
    """The text of Polynomial.to_text, formatting each int or Fraction
    coefficient through Fraction and format_rational, and a RationalFunction
    coefficient through the reference rational function's text."""
    if not p.coeffs:
        return "0"
    terms = []
    indices = range(len(p.coeffs))
    if descending:
        indices = reversed(indices)
    for k in indices:
        c = p.coeffs[k]
        if not c:
            continue
        if not isinstance(c, (int, Fraction)):
            if isinstance(c, RationalFunction):
                c = RationalFunctionReference.from_parts(c.num, c.den)
            var = "" if k == 0 else ("*" + (letter if k == 1 else f"{letter}^{k}"))
            terms.append((False, f"({c.to_text()}){var}"))
            continue
        c = Fraction(c)
        if k == 0:
            body = format_rational(abs(c))
        else:
            var = letter if k == 1 else f"{letter}^{k}"
            body = var if abs(c) == 1 else f"{format_rational(abs(c))}*{var}"
        terms.append((c < 0, body))
    out = []
    for i, (neg, body) in enumerate(terms):
        if i == 0:
            out.append(("-" if neg else "") + body)
        else:
            out.append(("- " if neg else "+ ") + body)
    return " ".join(out)


def _convolve(a, b, n):
    """The first n coefficients of the product of the coefficient sequences a
    and b, as Fractions, or None unless every coefficient of both is an int or
    a Fraction: each operand is scaled to int numerators over one common
    denominator, the ints are convolved, and each sum is reduced once."""
    a, b = a[:n], b[:n]
    if not all(isinstance(c, (int, Fraction)) for c in a + b):
        return None
    da = math.lcm(*(c.denominator for c in a))
    db = math.lcm(*(c.denominator for c in b))
    ib = [c.numerator * (db // c.denominator) for c in b]
    out = [0] * n
    for i, x in enumerate(c.numerator * (da // c.denominator) for c in a):
        if x:
            for j, y in enumerate(ib[: n - i], i):
                out[j] += x * y
    return [Fraction(c, da * db) for c in out]


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
        a = [c.numerator for c in primitive_reference(num).coeffs]
        b = [c.numerator for c in primitive_reference(den).coeffs]
        scale = Fraction(num.leading * b[-1]) / (den.leading * a[-1])
        rest = b
        for r in (0, 1, -1):
            k = 0
            while (q := _deflate(rest, r)) is not None:
                rest, k = q, k + 1
            while k and (q := _deflate(a, r)) is not None:
                a, b, k = q, _deflate(b, r), k - 1
        if len(rest) > 1:
            g = poly_gcd_reference(Polynomial(a), Polynomial(rest))
            if g.degree > 0:
                a = [c.numerator for c in poly_divmod_reference(Polynomial(a), g)[0].coeffs]
                b = [c.numerator for c in poly_divmod_reference(Polynomial(b), g)[0].coeffs]
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
        n = polynomial_text_reference(self.num, letter, descending)
        if self.den == Polynomial.constant(Fraction(1)):
            return n
        d = polynomial_text_reference(self.den, letter, descending)
        np = n if (self.num.degree <= 0 and "-" not in n) else f"({n})"
        dp = d if self.den.degree <= 0 else f"({d})"
        return f"{np}/{dp}"

    def __repr__(self):
        return f"RationalFunction({self.to_text()})"


class LaurentSeriesReference:
    """Series sum(coeffs[i] * z^(offset+i)); exact through order `trunc`.

    trunc = None means the series is exactly the stored finite sum (a Laurent
    polynomial).  Every operation computes the tightest truncation order its
    inputs support; coefficient() raises TruncationError past that order.
    """

    __slots__ = ("offset", "coeffs", "trunc")

    def __init__(self, offset: int, coeffs, trunc=None):
        cs = list(coeffs)
        # normalize: drop leading zeros (bumping offset), drop tail beyond trunc
        while cs and not cs[0]:
            cs.pop(0)
            offset += 1
        if trunc is not None:
            cs = cs[: max(0, trunc - offset + 1)]
        while cs and not cs[-1]:
            cs.pop()
        if not cs:
            offset = 0
        object.__setattr__(self, "offset", offset)
        object.__setattr__(self, "coeffs", tuple(cs))
        object.__setattr__(self, "trunc", trunc)

    def __setattr__(self, *a):
        raise AttributeError("LaurentSeriesReference is immutable")

    # -- constructors -----------------------------------------------------
    @classmethod
    def zero(cls, trunc=None):
        return cls(0, (), trunc)

    @classmethod
    def one(cls):
        return cls(0, (Fraction(1),))

    @classmethod
    def monomial(cls, c, k: int = 1):
        return cls(k, (c,))

    @classmethod
    def from_polynomial(cls, p: Polynomial):
        return cls(0, p.coeffs)

    @classmethod
    def geometric(cls, T: int):
        """1 + z + z^2 + ... through order T."""
        return cls(0, (Fraction(1),) * (T + 1), T)

    @classmethod
    def exponential(cls, T: int, scale=Fraction(1)):
        """exp(scale * z) through order T."""
        cs = []
        c = Fraction(1)
        for k in range(T + 1):
            cs.append(c)
            c = c * scale / (k + 1)
        return cls(0, cs, T)

    @classmethod
    def mercator(cls, T: int, scale=Fraction(1)):
        """ln(1 + scale*z) = sum_{j>=1} (-1)^(j+1) (scale*z)^j / j through T."""
        cs = [Fraction(0)]
        p = Fraction(1)
        for j in range(1, T + 1):
            p = p * scale
            cs.append(p * Fraction((-1) ** (j + 1), j))
        return cls(0, cs, T)

    # -- structure --------------------------------------------------------
    @property
    def min_order(self) -> int:
        return self.offset

    @property
    def top_known(self):
        """Largest order whose coefficient may be reported."""
        return _as_order(self.trunc)

    def __bool__(self):
        return bool(self.coeffs)

    def coefficient(self, k: int):
        if self.trunc is not None and k > self.trunc:
            raise TruncationError(f"order {k} beyond truncation {self.trunc}")
        i = k - self.offset
        if 0 <= i < len(self.coeffs):
            return self.coeffs[i]
        return Fraction(0)

    def coefficients(self, lo: int, hi: int):
        return [self.coefficient(k) for k in range(lo, hi + 1)]

    def agrees_with(self, other: "LaurentSeriesReference", through=None) -> bool:
        """Coefficient-wise equality through min of the reliable windows."""
        hi = min(self.top_known, other.top_known)
        if through is not None:
            hi = min(hi, through)
        if hi == INFINITY:
            return self.offset == other.offset and self.coeffs == other.coeffs
        lo = min(self.offset, other.offset)
        hi = int(hi)
        return all(self.coefficient(k) == other.coefficient(k) for k in range(lo, hi + 1))

    def __eq__(self, other):
        if not isinstance(other, LaurentSeriesReference):
            return NotImplemented
        return (self.offset, self.coeffs, self.trunc) == (other.offset, other.coeffs, other.trunc)

    def __hash__(self):
        return hash(("LaurentSeriesReference", self.offset, self.coeffs, self.trunc))

    # -- arithmetic --------------------------------------------------------
    @staticmethod
    def _lift(other):
        if isinstance(other, LaurentSeriesReference):
            return other
        if isinstance(other, (int, Fraction, Polynomial, RationalFunction)):
            if isinstance(other, Polynomial):
                return LaurentSeriesReference.from_polynomial(other)
            return LaurentSeriesReference(0, (other,))
        return None

    def __add__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        T = min(_as_order(self.trunc), _as_order(o.trunc))
        if not self.coeffs:
            return LaurentSeriesReference(o.offset, o.coeffs, None if T == INFINITY else int(T))
        if not o.coeffs:
            return LaurentSeriesReference(self.offset, self.coeffs, None if T == INFINITY else int(T))
        lo = min(self.offset, o.offset)
        hi = max(self.offset + len(self.coeffs), o.offset + len(o.coeffs)) - 1
        if T != INFINITY:
            hi = min(hi, int(T))
        out = []
        for k in range(lo, hi + 1):
            a = self.coeffs[k - self.offset] if 0 <= k - self.offset < len(self.coeffs) else 0
            b = o.coeffs[k - o.offset] if 0 <= k - o.offset < len(o.coeffs) else 0
            out.append(a + b)
        return LaurentSeriesReference(lo, out, None if T == INFINITY else int(T))

    __radd__ = __add__

    def __neg__(self):
        return LaurentSeriesReference(self.offset, tuple(-c for c in self.coeffs), self.trunc)

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
        if not self.coeffs or not o.coeffs:
            # zero (so far as known) series: conservative truncation window
            T = min(_as_order(self.trunc), _as_order(o.trunc))
            return LaurentSeriesReference.zero(None if T == INFINITY else int(T))
        # product of a (exact through Ta) and b (exact through Tb) is exact
        # through min(Ta + b.offset, Tb + a.offset)
        T = min(_as_order(self.trunc) + o.offset, _as_order(o.trunc) + self.offset)
        lo = self.offset + o.offset
        hi_stored = (self.offset + len(self.coeffs) - 1) + (o.offset + len(o.coeffs) - 1)
        hi = hi_stored if T == INFINITY else min(hi_stored, int(T))
        out = _convolve(self.coeffs, o.coeffs, max(0, hi - lo + 1))
        if out is None:
            out = [Fraction(0)] * (hi - lo + 1)
            for i, ca in enumerate(self.coeffs):
                if not ca:
                    continue
                base = self.offset + i + o.offset - lo
                for j, cb in enumerate(o.coeffs):
                    k = base + j
                    if k > hi - lo:
                        break
                    if cb:
                        out[k] = out[k] + ca * cb
        return LaurentSeriesReference(lo, out, None if T == INFINITY else int(T))

    __rmul__ = __mul__

    def inverse(self, through=None) -> "LaurentSeriesReference":
        """Multiplicative inverse, 1 / self (see divide for the orders)."""
        return LaurentSeriesReference.one().divide(self, through)

    def __truediv__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return self.divide(o)

    def __rtruediv__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return o.divide(self)

    def divide(self, den, through=None) -> "LaurentSeriesReference":
        """self / den by long division.

        With self = z^nu * (a_0 + a_1 z + ...), exact through Ta, and
        den = z^mu * (b_0 + b_1 z + ...), exact through Tb, the quotient is
        z^(nu-mu) * (q_0 + q_1 z + ...) with
        q_k = (a_k - sum_{1<=i<len(b)} b_i q_(k-i)) / b_0, exact through
        min(Ta - mu, Tb - 2*mu + nu), capped at `through`.  An exact divisor
        with more than one term needs a finite order; an exact monomial
        divisor of an exact series gives an exact quotient.
        """
        den = self._lift(den)
        if not den.coeffs:
            raise ZeroDivisionError("division by zero series")
        mu = den.offset
        Ta = _as_order(self.trunc)
        T = min(Ta - mu, _as_order(den.trunc) - 2 * mu + self.offset)
        if through is not None:
            T = min(T, through)
        if T == INFINITY and len(den.coeffs) > 1:
            raise TruncationError("division by an exact series needs a target order")
        lo = self.offset - mu
        if not self.coeffs or T < lo:
            # no coefficient to write: zero, truncated as self * (1/den) would be
            T = min(Ta, T, T - self.offset)
            return LaurentSeriesReference.zero(None if T == INFINITY else int(T))
        a = self.coeffs
        n = len(a) if T == INFINITY else int(T) - lo + 1
        b0_inv = _ring_inverse(den.coeffs[0])
        b = [(i, c) for i, c in enumerate(den.coeffs[1:n], 1) if c]
        q = []
        for k in range(n):
            acc = a[k] if k < len(a) else 0
            for i, c in b:
                if i > k:
                    break
                if q[k - i]:
                    acc = acc - c * q[k - i]
            q.append(acc * b0_inv)
        return LaurentSeriesReference(lo, q, None if T == INFINITY else int(T))

    def __pow__(self, k: int):
        if k < 0:
            return self.inverse() ** (-k)
        result = LaurentSeriesReference.one()
        base = self
        while k:
            if k & 1:
                result = result * base
            k >>= 1
            if k:
                base = base * base
        return result

    def compose(self, inner: "LaurentSeriesReference") -> "LaurentSeriesReference":
        """self(inner(z)) for inner with min_order >= 1, self with min_order >= 0."""
        if self.offset < 0:
            raise ValueError("composition needs an outer series with min_order >= 0")
        if inner.coeffs and inner.offset < 1:
            raise ValueError("composition needs inner min_order >= 1 (zero constant term)")
        Ta = _as_order(self.trunc)
        Tb = _as_order(inner.trunc)
        if not inner.coeffs:
            c0 = self.coefficient(0) if (self.trunc is None or self.trunc >= 0) else Fraction(0)
            return LaurentSeriesReference(0, (c0,), None if Tb == INFINITY else int(Tb))
        mu = inner.offset
        T = min(Tb, (Ta + 1) * mu - 1)
        # Horner from the top stored coefficient
        top = self.offset + len(self.coeffs) - 1
        acc = LaurentSeriesReference.zero(None if T == INFINITY else int(T))
        for k in range(top, -1, -1):
            acc = acc * inner
            c = self.coeffs[k - self.offset] if k >= self.offset else None
            if c is not None and c:
                acc = acc + LaurentSeriesReference(0, (c,))
            if T != INFINITY and acc.trunc is not None:
                acc = LaurentSeriesReference(acc.offset, acc.coeffs, min(int(T), acc.trunc))
        if T == INFINITY:
            return acc
        return LaurentSeriesReference(acc.offset, acc.coeffs, int(T))

    def derivative(self) -> "LaurentSeriesReference":
        cs = [(self.offset + i) * c for i, c in enumerate(self.coeffs)]
        T = None if self.trunc is None else self.trunc - 1
        return LaurentSeriesReference(self.offset - 1, cs, T)

    def to_text(self, letter: str = "z") -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for i, c in enumerate(self.coeffs):
            if not c:
                continue
            k = self.offset + i
            cs = format_rational(c) if isinstance(c, (int, Fraction)) else f"({c.to_text()})"
            if k == 0:
                parts.append(cs)
            else:
                var = letter if k == 1 else f"{letter}^{k}"
                parts.append(f"{cs}*{var}")
        body = " + ".join(parts)
        if self.trunc is not None:
            body += f" + O({letter}^{self.trunc + 1})"
        return body

    def __repr__(self):
        return f"LaurentSeriesReference({self.to_text()})"


# ---------------------------------------------------------------------------
# the numeric log-sum routes, one Fraction operation at a time
# ---------------------------------------------------------------------------

def _index_reference(n: int) -> None:
    if n < 0:
        raise ValueError("index must be nonnegative")


def _parameter_reference(q):
    if isinstance(q, (int, Fraction)):
        q = Fraction(q)
        if q == 0 or q == 1:
            raise ValueError("parameter must avoid 0 and 1")
    return q


def logsum_direct_reference(n: int, q):
    """S(n, q) by the defining sum, one Fraction addition per j."""
    _index_reference(n)
    q = _parameter_reference(q)
    acc = 0
    for j in range(n + 1):
        acc = acc + 1 / ((j + 1) * q ** (j + 1) * (q - 1) ** (n + 1 - j))
    return acc if n % 2 == 0 else -acc


def logsum_recurrence_values_reference(q):
    """S(0, q), S(1, q), ... by (q-1)*S(n) + S(n-1) = (-1)^n/((n+1)*q^(n+1)),
    one Fraction step per value."""
    q = _parameter_reference(q)
    val = 1 / (q * (q - 1))
    m = 0
    while True:
        yield val
        m += 1
        sign = 1 if m % 2 == 0 else -1
        val = (sign / ((m + 1) * q ** (m + 1)) - val) / (q - 1)


def logsum_recurrence_reference(n: int, q):
    _index_reference(n)
    return next(islice(logsum_recurrence_values_reference(q), n, None))


@functools.lru_cache(maxsize=None)
def euler_number(n: int) -> Fraction:
    """Integer Euler number E_n = 2^n E_n(1/2)."""
    if n < 0:
        raise ValueError("n must be >= 0")
    return euler_polynomial(n)(Fraction(1, 2)) * 2 ** n


# ---------------------------------------------------------------------------
# canonical form of a RationalFunction, through the Euclidean algorithm over Q
# ---------------------------------------------------------------------------

def content_reference(p):
    """Positive gcd of the numerators over the lcm of the denominators."""
    num_gcd = 0
    den_lcm = 1
    for c in p.coeffs:
        c = Fraction(c)
        num_gcd = math.gcd(num_gcd, abs(c.numerator))
        den_lcm = math.lcm(den_lcm, c.denominator)
    return Fraction(num_gcd, den_lcm)


def primitive_reference(p):
    g = content_reference(p)
    return Polynomial(tuple(Fraction(c) / g for c in p.coeffs))


def poly_divmod_reference(a, b):
    """(q, r) with a = q * b + r and deg r < deg b, by long division of the
    Fraction coefficients."""
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    rem = [Fraction(c) for c in a.coeffs]
    q = [Fraction(0)] * max(0, len(rem) - len(b.coeffs) + 1)
    while len(rem) >= len(b.coeffs):
        f = rem[-1] / b.leading
        q[len(rem) - len(b.coeffs)] = f
        for i, c in enumerate(b.coeffs, len(rem) - len(b.coeffs)):
            rem[i] -= f * c
        rem.pop()
    return Polynomial(q), Polynomial(rem)


def poly_gcd_reference(a, b):
    """gcd over Q by the primitive Euclidean algorithm: a primitive integer
    polynomial with Fraction coefficients and positive leading coefficient,
    or zero when both are zero."""
    a, b = primitive_reference(a), primitive_reference(b)
    while b:
        a, b = b, primitive_reference(poly_divmod_reference(a, b)[1])
    return -a if a and a.leading < 0 else a


def gcd_reference(num: Polynomial, den: Polynomial):
    """(num, den) of num/den reduced through poly_gcd_reference for every
    pair, then scaled to the canonical form: the reference for
    RationalFunction's constructor, which cancels the poles 0, 1 and -1 by
    synthetic division and any other factor by an integer gcd."""
    if not num:
        return Polynomial(), Polynomial.constant(Fraction(1))
    g = poly_gcd_reference(num, den)
    if g.degree > 0:
        num = poly_divmod_reference(num, g)[0]
        den = poly_divmod_reference(den, g)[0]
    scale = content_reference(num) / content_reference(den)
    num = Polynomial(tuple(c * scale.numerator for c in primitive_reference(num).coeffs))
    den = Polynomial(tuple(c * scale.denominator for c in primitive_reference(den).coeffs))
    if Fraction(den.leading) < 0:
        num, den = -num, -den
    return num, den


def typed_coeffs(p):
    return [(type(c), c) for c in p.coeffs]


def assert_same_ratfun(got, want):
    """got, a RationalFunction, holds the canonical form of want, a
    RationalFunctionReference: typed coefficients, ==, hash and repr."""
    assert typed_coeffs(got.num) == typed_coeffs(want.num)
    assert typed_coeffs(got.den) == typed_coeffs(want.den)
    assert got == RationalFunction(want.num, want.den)
    assert hash(got) == hash(want) and repr(got) == repr(want)
