"""Exact arithmetic kernel.

Everything downstream is built on four layers:

  * Fraction            -- the universal scalar (stdlib, already reduced)
  * Polynomial          -- dense univariate polynomial, duck-typed coefficients
  * RationalFunction    -- canonical-form quotient of integer-coefficient polynomials
  * LaurentSeries       -- truncated series with finitely many negative powers

A RationalFunction is stored in integers: primitive int numerator and
denominator coefficient tuples a and b (b with positive leading coefficient)
and a coprime positive scale sn/sd, the value being (sn*a)/(sd*b).  Its
arithmetic runs on the int lists, and no Fraction is built or reduced per
coefficient: by Gauss's lemma a product of primitive polynomials is already
primitive.  Every result goes through one reduction (_reduce).  The rational
functions of this package have poles only at 0 and 1 (the closed forms of
S(n)), so _reduce counts the factors L by the low-order zeros of the
denominator, divides the factors L - 1 out by synthetic division, and cancels
any other common factor by the one integer gcd, taken only when the
denominator keeps another factor.  The Fraction-coefficient num and den are
built on request.
At an int or Fraction point p/q, a RationalFunction and a Polynomial with int
or Fraction coefficients are evaluated by Horner's rule in ints, and one
Fraction is built at the end.

The series layer tracks, for every result, the largest order through which its
coefficients are exact, and refuses to report anything beyond that.  That rule
is what keeps the substitution checks (poles at t = 0 and all) honest.

A LaurentSeries with int and Fraction coefficients is held in one of two
forms.  The int form is a primitive int numerator tuple over one positive
denominator.  Products, negation, the derivative and the exponential and
geometric series run on those ints, and so does a sum with an int-form
operand; each result is reduced once, by one gcd over its numerators.  A
series built from Fractions that are not all integers (by the constructor,
or by mercator, whose coefficients over the one denominator lcm(1..T) * q^T
would all be as large as the last) keeps them as given, reduced one by one,
and so do a sum of two such series and a quotient with such a dividend: each
of their coefficients prints without a gcd.  Both forms are normalised by
one routine (_normal).  A Fraction is built only when
coefficient(), coeffs, to_text or hash asks for one.  Coefficients from
another ring (the RationalFunction coefficients of the weighted Bernoulli
family) and floats take the term-by-term loops.

A quotient is computed by long division (LaurentSeries.divide), each
coefficient from the earlier ones; the inverse is 1 divided by the series.
An int-form dividend over an int or Fraction divisor is divided in ints,
each quotient coefficient reduced as it is written with one lcm and one gcd,
because b_0 holds the divisor's common denominator and its powers must not
pile up; the exponential-series quotients of the Bernoulli and Euler
polynomials and of the exponential-parameter expansions divide this way.
Any other dividend (the mercator numerators of the generating series over
z^2 - z among them) takes the loop on its coefficients.

Polynomial products take the term-by-term loop; a catalog pass forms only a
few.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from itertools import accumulate

INFINITY = math.inf  # +infinity sentinel (valuations, untruncated series)


# ---------------------------------------------------------------------------
# rational plumbing
# ---------------------------------------------------------------------------

def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def padic_valuation(q, p: int):
    """v_p(q) for a rational q; returns INFINITY for q = 0."""
    if not is_prime(p):
        raise ValueError(f"p must be prime, got {p}")
    q = Fraction(q)
    if q == 0:
        return INFINITY
    v = 0
    num = abs(q.numerator)
    while num % p == 0:
        num //= p
        v += 1
    den = q.denominator
    while den % p == 0:
        den //= p
        v -= 1
    return v


_RATIONAL_RE = re.compile(r"^-?\d+(/\d+)?$")


def parse_rational(text: str) -> Fraction:
    """Parse the "p/q" grammar: optional minus, integer, optional /positive-integer."""
    s = text.strip()
    if not _RATIONAL_RE.match(s):
        raise ValueError(f"not a rational in p/q form: {text!r}")
    if "/" in s:
        num, den = s.split("/")
        if int(den) == 0:
            raise ValueError(f"zero denominator: {text!r}")
        return Fraction(int(num), int(den))
    return Fraction(int(s))


def format_rational(q) -> str:
    q = Fraction(q)
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


# ---------------------------------------------------------------------------
# polynomials
# ---------------------------------------------------------------------------

def _over_common_denominator(cs):
    """(ints, d) with cs[i] == ints[i] / d and d the lcm of the denominators of
    the int or Fraction coefficients cs."""
    d = math.lcm(*(c.denominator for c in cs))
    return [c.numerator * (d // c.denominator) for c in cs], d


def _int_convolve(a, b, n):
    """The first n coefficients of the product of the int lists a and b."""
    out = [0] * n
    for i, x in enumerate(a[:n]):
        if x:
            for j, y in enumerate(b[: n - i], i):
                out[j] += x * y
    return out


def _homogeneous(cs, p, q):
    """q^(len(cs) - 1) times the int polynomial cs at p/q, by Horner's rule
    in ints."""
    acc, qk = 0, 1
    for c in reversed(cs):
        acc = acc * p + c * qk
        qk *= q
    return acc


def _trim(coeffs):
    cs = list(coeffs)
    while cs and not cs[-1]:
        cs.pop()
    return tuple(cs)


class Polynomial:
    """Dense univariate polynomial; index = degree, trailing zeros trimmed.

    Coefficients are duck-typed: Fraction/int for ordinary work, but any ring
    element with +, *, unary -, and truthiness (RationalFunction, even another
    Polynomial) works too.  The zero polynomial is the empty tuple.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        object.__setattr__(self, "coeffs", _trim(coeffs))

    def __setattr__(self, *a):  # immutable
        raise AttributeError("Polynomial is immutable")

    # -- constructors -----------------------------------------------------
    @classmethod
    def constant(cls, c):
        return cls((c,))

    @classmethod
    def variable(cls):
        return cls((0, 1))

    @classmethod
    def monomial(cls, c, k: int):
        return cls((0,) * k + (c,)) if c else cls()

    # -- structure --------------------------------------------------------
    @property
    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    @property
    def leading(self):
        if not self.coeffs:
            return Fraction(0)
        return self.coeffs[-1]

    def coefficient(self, k: int):
        if 0 <= k < len(self.coeffs):
            return self.coeffs[k]
        return Fraction(0)

    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, other):
        if isinstance(other, Polynomial):
            return self.coeffs == other.coeffs
        if isinstance(other, (int, Fraction)):
            return self == Polynomial.constant(Fraction(other))
        return NotImplemented

    def __hash__(self):
        return hash(("Polynomial", self.coeffs))

    # -- ring operations --------------------------------------------------
    @staticmethod
    def _lift(other):
        if isinstance(other, Polynomial):
            return other
        if isinstance(other, int):
            return Polynomial.constant(Fraction(other))
        if isinstance(other, Fraction):
            return Polynomial.constant(other)
        return None

    def __add__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        a, b = self.coeffs, o.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = out[i] + c
        return Polynomial(out)

    __radd__ = __add__

    def __neg__(self):
        return Polynomial(tuple(-c for c in self.coeffs))

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
        a, b = self.coeffs, o.coeffs
        if not a or not b:
            return Polynomial()
        out = [Fraction(0)] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            if not ca:
                continue
            for j, cb in enumerate(b):
                out[i + j] = out[i + j] + ca * cb
        return Polynomial(out)

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if k < 0:
            raise ValueError("negative polynomial power")
        result = Polynomial.constant(Fraction(1))
        base = self
        while k:
            if k & 1:
                result = result * base
            k >>= 1
            if k:
                base = base * base
        return result

    def __call__(self, x):
        """Horner evaluation; x may be a scalar, Polynomial or RationalFunction.

        At an int or Fraction x, int and Fraction coefficients are evaluated in
        ints over one common denominator, and one Fraction is built at the end
        (an int when x and every coefficient are ints, as plain Horner gives).
        """
        cs = self.coeffs
        if len(cs) > 1 and isinstance(x, (int, Fraction)) and all(
                isinstance(c, (int, Fraction)) for c in cs):
            ints, d = _over_common_denominator(cs)
            acc = _homogeneous(ints, x.numerator, x.denominator)
            if isinstance(x, int) and all(isinstance(c, int) for c in cs):
                return acc
            return Fraction(acc, d * x.denominator ** (len(cs) - 1))
        acc = None
        for c in reversed(cs):
            acc = c if acc is None else acc * x + c
        if acc is None:
            return Fraction(0)
        return acc

    def derivative(self) -> "Polynomial":
        return Polynomial(tuple(k * c for k, c in enumerate(self.coeffs))[1:])

    def __divmod__(self, other):  # unsupported; bench/tracer.py wraps this name
        return NotImplemented

    # -- formatting --------------------------------------------------------
    def to_text(self, letter: str = "L", descending: bool = False) -> str:
        """Render "c0 + c1*L + c2*L^2" (or the descending variant)."""
        if not self.coeffs:
            return "0"
        terms = []
        indices = range(len(self.coeffs))
        if descending:
            indices = reversed(indices)
        for k in indices:
            c = self.coeffs[k]
            if not c:
                continue
            if not isinstance(c, (int, Fraction)):
                # exotic coefficient ring: render opaquely in parentheses
                var = "" if k == 0 else ("*" + (letter if k == 1 else f"{letter}^{k}"))
                terms.append((False, f"({c.to_text()}){var}"))
                continue
            size = abs(c)
            if k == 0:
                body = str(size)
            else:
                var = letter if k == 1 else f"{letter}^{k}"
                body = var if size == 1 else f"{size}*{var}"
            terms.append((c < 0, body))
        out = []
        for i, (neg, body) in enumerate(terms):
            if i == 0:
                out.append(("-" if neg else "") + body)
            else:
                out.append(("- " if neg else "+ ") + body)
        return " ".join(out)

    def __repr__(self):
        return f"Polynomial({self.to_text()})"


def _deflate(a):
    """Quotient of the int coefficient list a by L - 1, or None when a(1) != 0.
    Synthetic division from the top: q[i-1] = a[i] + q[i], and the last step
    gives a(1)."""
    q = list(accumulate(reversed(a)))
    return q[-2::-1] if q[-1] == 0 else None


def _int_gcd(a, b):
    """A primitive gcd, of either sign, of the primitive int coefficient lists
    a and b: Euclid on primitive pseudo-remainders, each step r <- b[-1] * r -
    r[-1] * L^k * b in ints (Knuth, TAOCP vol. 2, 4.6.1, Algorithms R and E)."""
    while b:
        r = list(a)
        while len(r) >= len(b):
            f = r.pop()
            r = [b[-1] * c for c in r]
            for i, c in enumerate(b[:-1], len(r) - len(b) + 1):
                r[i] -= f * c
            while r and not r[-1]:
                r.pop()
        g = math.gcd(*r)  # 0 for r == [], whose comprehension divides nothing
        a, b = b, [c // g for c in r]
    return a


poly_gcd = _int_gcd  # the name bench/tracer.py wraps for its exact.poly_gcd layer


def _int_exact_div(a, g):
    """a / g for a primitive int divisor g of a, by long division from the top;
    by Gauss's lemma the quotient is integral, so each step divides exactly."""
    r = list(a)
    q = [0] * (len(a) - len(g) + 1)
    for k in reversed(range(len(q))):
        c = q[k] = r[k + len(g) - 1] // g[-1]
        for i, x in enumerate(g[:-1], k):
            r[i] -= c * x
    return q


# ---------------------------------------------------------------------------
# rational functions
# ---------------------------------------------------------------------------

class RationalFunction:
    """Quotient of polynomials in canonical form, stored in integers.

    The value is (sn * a) / (sd * b): a and b are coprime primitive int
    coefficient tuples with b[-1] > 0, and sn, sd are coprime positive ints
    (zero is a = (), b = (1,), sn = sd = 1).  The public num = sn * a and
    den = sd * b are built with Fraction coefficients on each access.
    Equality is therefore structural.
    """

    __slots__ = ("_a", "_b", "_sn", "_sd")

    def __init__(self, num, den=None):
        if not isinstance(num, Polynomial):
            num = Polynomial.constant(Fraction(num))
        if den is None:
            den = Polynomial.constant(Fraction(1))
        elif not isinstance(den, Polynomial):
            den = Polynomial.constant(Fraction(den))
        if not den:
            raise ZeroDivisionError("rational function with zero denominator")
        a, da = _over_common_denominator(num.coeffs)
        b, db = _over_common_denominator(den.coeffs)
        self._set(*_reduce(a, b, db, da))

    def _set(self, a, b, sn, sd):
        object.__setattr__(self, "_a", a)
        object.__setattr__(self, "_b", b)
        object.__setattr__(self, "_sn", sn)
        object.__setattr__(self, "_sd", sd)
        return self

    def __setattr__(self, *a):
        raise AttributeError("RationalFunction is immutable")

    @classmethod
    def variable(cls):
        return cls(Polynomial.variable())

    # -- structure --------------------------------------------------------
    @property
    def num(self) -> Polynomial:
        sn = self._sn
        return Polynomial(tuple(Fraction(sn * c) for c in self._a))

    @property
    def den(self) -> Polynomial:
        sd = self._sd
        return Polynomial(tuple(Fraction(sd * c) for c in self._b))

    def __bool__(self):
        return bool(self._a)

    def __eq__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return (self._a, self._b, self._sn, self._sd) == (o._a, o._b, o._sn, o._sd)

    def __hash__(self):
        # hash(Fraction(k)) == hash(k): the hash of the Fraction-coefficient form
        sn, sd = self._sn, self._sd
        return hash(("RationalFunction", tuple(sn * c for c in self._a),
                     tuple(sd * c for c in self._b)))

    # -- field operations --------------------------------------------------
    @staticmethod
    def _lift(other):
        if isinstance(other, RationalFunction):
            return other
        if isinstance(other, (int, Fraction, Polynomial)):
            return RationalFunction(other)
        return None

    def __add__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        if not o._a:
            return self
        if not self._a:
            return o
        s, t = self._sn * o._sd, o._sn * self._sd
        if self._b == o._b:
            return _reduced(_int_combine(s, self._a, t, o._a), self._b, 1, self._sd * o._sd)
        return _reduced(_int_combine(s, _int_mul(self._a, o._b), t, _int_mul(o._a, self._b)),
                        _int_mul(self._b, o._b), 1, self._sd * o._sd)

    __radd__ = __add__

    def __neg__(self):
        return object.__new__(RationalFunction)._set(
            tuple(-c for c in self._a), self._b, self._sn, self._sd)

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
        return _reduced(_int_mul(self._a, o._a), _int_mul(self._b, o._b),
                        self._sn * o._sn, self._sd * o._sd)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        if not o:
            raise ZeroDivisionError("division by zero rational function")
        return _reduced(_int_mul(self._a, o._b), _int_mul(self._b, o._a),
                        self._sn * o._sd, self._sd * o._sn)

    def __rtruediv__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return o / self

    def __pow__(self, k: int):
        # powers of coprime primitive parts stay coprime and primitive
        a, b, sn, sd = self._a, self._b, self._sn, self._sd
        if k < 0:
            if not self:
                raise ZeroDivisionError("0 ** negative")
            k = -k
            a, b, sn, sd = b, a, sd, sn
            if b[-1] < 0:
                a, b = tuple(-c for c in a), tuple(-c for c in b)
        return object.__new__(RationalFunction)._set(
            _int_pow(a, k), _int_pow(b, k), sn ** k, sd ** k)

    def __call__(self, x):
        if not isinstance(x, (int, Fraction)):
            d = self.den(x)
            if isinstance(d, Fraction) and d == 0:
                raise ZeroDivisionError(f"pole at {x}")
            return Fraction(self.num(x)) / Fraction(d) if isinstance(d, Fraction) else self.num(x) / d
        # homogeneous Horner at x = p/q: a(p/q) / b(p/q) = A * q^(deg b - deg a) / B
        p, q = x.numerator, x.denominator
        den = _homogeneous(self._b, p, q)
        if not den:
            raise ZeroDivisionError(f"pole at {x}")
        num = self._sn * _homogeneous(self._a, p, q)
        den *= self._sd
        e = len(self._b) - len(self._a)
        return Fraction(num * q ** e, den) if e >= 0 else Fraction(num, den * q ** -e)

    def derivative(self) -> "RationalFunction":
        a, b = self._a, self._b
        da = [k * c for k, c in enumerate(a)][1:]
        db = [k * c for k, c in enumerate(b)][1:]
        return _reduced(_int_combine(1, _int_mul(da, b), -1, _int_mul(a, db)),
                        _int_mul(b, b), self._sn, self._sd)

    def to_text(self, letter: str = "L", descending: bool = False) -> str:
        # num and den with int coefficients: they print as the Fraction ones
        num = Polynomial(tuple(self._sn * c for c in self._a))
        den = Polynomial(tuple(self._sd * c for c in self._b))
        n = num.to_text(letter, descending)
        if den.coeffs == (1,):
            return n
        d = den.to_text(letter, descending)
        np = n if (num.degree <= 0 and "-" not in n) else f"({n})"
        dp = d if den.degree <= 0 else f"({d})"
        return f"{np}/{dp}"

    def __repr__(self):
        return f"RationalFunction({self.to_text()})"


def _int_mul(a, b):
    """The product of two int coefficient sequences as a list; an empty
    sequence is the zero polynomial."""
    return _int_convolve(a, b, len(a) + len(b) - 1) if a and b else []


def _int_combine(s, x, t, y):
    """s * x + t * y for int coefficient sequences x and y."""
    if len(x) < len(y):
        s, x, t, y = t, y, s, x
    out = [s * c for c in x]
    for i, c in enumerate(y):
        out[i] += t * c
    return out


def _int_pow(a, k):
    result = (1,)
    while k:
        if k & 1:
            result = tuple(_int_mul(result, a))
        k >>= 1
        if k:
            a = _int_mul(a, a)
    return result


def _reduce(a, b, sn, sd):
    """The canonical int form (a, b, sn, sd) of (sn * a) / (sd * b), for a
    fresh int coefficient list a (trimmed in place), an int coefficient
    sequence b != 0 and positive ints sn and sd.

    The contents go into the scale.  The factors L are counted once, by the
    low-order zeros of b, and the shared ones cancelled with one slice each;
    the factors L - 1 are divided out one synthetic division at a time.  Any
    other common factor is cancelled by the integer gcd (_int_gcd), taken
    only when b keeps another factor.
    """
    while a and not a[-1]:
        a.pop()
    if not a:
        return (), (1,), 1, 1
    ga, gb = math.gcd(*a), math.gcd(*b)
    if b[-1] < 0:
        ga, gb = -ga, -gb
    if ga != 1:
        a = [c // ga for c in a]
    if gb != 1:
        b = [c // gb for c in b]
    sn, sd = sn * abs(ga), sd * abs(gb)
    if len(b) > 1:
        # rest is b without its factors L and L - 1; a and b lose each one they share
        i = next(m for m, c in enumerate(b) if c)
        k = min(i, next(m for m, c in enumerate(a) if c))
        a, b, rest = a[k:], b[k:], b[i:]
        j = 0
        while (q := _deflate(rest)) is not None:
            rest, j = q, j + 1
        while j and (q := _deflate(a)) is not None:
            a, b, j = q, _deflate(b), j - 1
        if len(rest) > 1:  # a common factor left has no root at 0 or 1
            g = _int_gcd(a, rest)
            if len(g) > 1:
                if g[-1] < 0:  # keeps b[-1] > 0
                    g = [-c for c in g]
                a, b = _int_exact_div(a, g), _int_exact_div(b, g)
    g = math.gcd(sn, sd)
    return tuple(a), tuple(b), sn // g, sd // g


def _reduced(a, b, sn, sd):
    return object.__new__(RationalFunction)._set(*_reduce(a, b, sn, sd))


# ---------------------------------------------------------------------------
# truncated Laurent series
# ---------------------------------------------------------------------------

class TruncationError(Exception):
    """Asked for a coefficient beyond the exactly-known window."""


def _as_order(t):
    return INFINITY if t is None else t


def _order(T):
    """The truncation order of a result: None for INFINITY."""
    return None if T == INFINITY else int(T)


class LaurentSeries:
    """Series sum(c_i * z^(offset+i)); exact through order `trunc`.

    trunc = None means the series is exactly the stored finite sum (a Laurent
    polynomial).  Every operation computes the tightest truncation order its
    inputs support; coefficient() raises TruncationError past that order.

    The terms are stored in one of two forms, both without leading or
    trailing zeros.  In the int form _d is a positive int and c_i = _n[i] / _d
    with gcd(_d, *_n) = 1, so equal int forms are equal tuples.  Otherwise _d
    is None and _n holds the coefficients as given: Fractions reduced one by
    one, or elements of another ring.  coeffs builds the coefficients of an
    int form on request.
    """

    __slots__ = ("offset", "trunc", "_n", "_d")

    def __init__(self, offset: int, coeffs, trunc=None):
        self._set(*_normal(offset, list(coeffs), None, trunc))

    def _set(self, offset, trunc, n, d):
        object.__setattr__(self, "offset", offset)
        object.__setattr__(self, "trunc", trunc)
        object.__setattr__(self, "_n", n)
        object.__setattr__(self, "_d", d)
        return self

    def __setattr__(self, *a):
        raise AttributeError("LaurentSeries is immutable")

    # -- constructors -----------------------------------------------------
    @classmethod
    def zero(cls, trunc=None):
        return cls(0, (), trunc)

    @classmethod
    def one(cls):
        return cls(0, (1,))

    @classmethod
    def monomial(cls, c, k: int = 1):
        return cls(k, (c,))

    @classmethod
    def from_polynomial(cls, p: Polynomial):
        return cls(0, p.coeffs)

    @classmethod
    def geometric(cls, T: int):
        """1 + z + z^2 + ... through order T."""
        return _series(0, [1] * (T + 1), 1, T)

    @classmethod
    def exponential(cls, T: int, scale=Fraction(1)):
        """exp(scale * z) through order T."""
        if isinstance(scale, (int, Fraction)):
            # scale = p/q: c_k = p^k * q^(T-k) * (T!/k!) over T! * q^T
            p, q = scale.numerator, scale.denominator
            rest = [1] * (T + 1)  # rest[k] = q^(T-k) * T!/k!
            for k in range(T, 0, -1):
                rest[k - 1] = rest[k] * k * q
            n, pk = [], 1
            for r in rest:
                n.append(pk * r)
                pk *= p
            return _series(0, n, rest[0] if rest else 1, T)
        cs = []
        c = Fraction(1)
        for k in range(T + 1):
            cs.append(c)
            c = c * scale / (k + 1)
        return cls(0, cs, T)

    @classmethod
    def mercator(cls, T: int, scale=Fraction(1)):
        """ln(1 + scale*z) = sum_{j>=1} (-1)^(j+1) (scale*z)^j / j through T.

        The coefficients are built as reduced Fractions: over one common
        denominator lcm(1..T) * q^T they would all be as large as the last,
        and a quotient by a polynomial would cost one such gcd per printed
        coefficient."""
        cs = [Fraction(0)]
        p = Fraction(1)
        for j in range(1, T + 1):
            p = p * scale
            cs.append(p * Fraction((-1) ** (j + 1), j))
        return cls(0, cs, T)

    # -- structure --------------------------------------------------------
    @property
    def coeffs(self):
        """The stored coefficients c_i; Fractions for the int form."""
        d = self._d
        if d is None:
            return self._n
        return tuple(Fraction(c, d) for c in self._n)

    @property
    def min_order(self) -> int:
        return self.offset

    @property
    def top_known(self):
        """Largest order whose coefficient may be reported."""
        return _as_order(self.trunc)

    def __bool__(self):
        return bool(self._n)

    def coefficient(self, k: int):
        if self.trunc is not None and k > self.trunc:
            raise TruncationError(f"order {k} beyond truncation {self.trunc}")
        i = k - self.offset
        if 0 <= i < len(self._n):
            return self._n[i] if self._d is None else Fraction(self._n[i], self._d)
        return Fraction(0)

    def coefficients(self, lo: int, hi: int):
        return [self.coefficient(k) for k in range(lo, hi + 1)]

    def _same_terms(self, other) -> bool:
        if self._d is not None and other._d is not None:
            return self._n == other._n and self._d == other._d
        return self.coeffs == other.coeffs

    def agrees_with(self, other: "LaurentSeries", through=None) -> bool:
        """Coefficient-wise equality through min of the reliable windows."""
        hi = min(self.top_known, other.top_known)
        if through is not None:
            hi = min(hi, through)
        if hi == INFINITY:
            return self.offset == other.offset and self._same_terms(other)
        lo = min(self.offset, other.offset)
        hi = int(hi)
        return all(self.coefficient(k) == other.coefficient(k) for k in range(lo, hi + 1))

    def __eq__(self, other):
        if not isinstance(other, LaurentSeries):
            return NotImplemented
        return ((self.offset, self.trunc) == (other.offset, other.trunc)
                and self._same_terms(other))

    def __hash__(self):
        # hash(Fraction(k)) == hash(k): equal series hash equal in either form
        return hash(("LaurentSeries", self.offset, self.coeffs, self.trunc))

    def _ints(self, size=None):
        """(numerators, denominator): the stored coefficients (at least the
        first `size`) over one denominator, or None unless they are ints and
        Fractions."""
        if self._d is not None:
            return self._n, self._d
        cs = self._n[:size]
        if all(isinstance(c, (int, Fraction)) for c in cs):
            return _over_common_denominator(cs)
        return None

    def _cut(self, trunc):
        """self, exact through trunc (None: exactly), without the stored terms beyond it."""
        if trunc is not None and self.offset + len(self._n) - 1 > trunc:
            return _series(self.offset, self._n, self._d, trunc)
        return object.__new__(LaurentSeries)._set(self.offset, trunc, self._n, self._d)

    # -- arithmetic --------------------------------------------------------
    @staticmethod
    def _lift(other):
        if isinstance(other, LaurentSeries):
            return other
        if isinstance(other, (int, Fraction, Polynomial, RationalFunction)):
            if isinstance(other, Polynomial):
                return LaurentSeries.from_polynomial(other)
            return LaurentSeries(0, (other,))
        return None

    def __add__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        T = min(_as_order(self.trunc), _as_order(o.trunc))
        if not self._n:
            return o._cut(_order(T))
        if not o._n:
            return self._cut(_order(T))
        lo = min(self.offset, o.offset)
        hi = max(self.offset + len(self._n), o.offset + len(o._n)) - 1
        if T != INFINITY:
            hi = min(hi, int(T))
        if self._d is not None or o._d is not None:
            a, b = self._ints(), o._ints()
            if a is not None and b is not None:
                d = math.lcm(a[1], b[1])
                out = [0] * max(0, hi - lo + 1)
                _spread(out, a[0], self.offset - lo, d // a[1])
                _spread(out, b[0], o.offset - lo, d // b[1])
                return _series(lo, out, d, _order(T))
        sc, oc = self.coeffs, o.coeffs
        out = []
        for k in range(lo, hi + 1):
            a = sc[k - self.offset] if 0 <= k - self.offset < len(sc) else 0
            b = oc[k - o.offset] if 0 <= k - o.offset < len(oc) else 0
            out.append(a + b)
        return LaurentSeries(lo, out, _order(T))

    __radd__ = __add__

    def __neg__(self):
        return object.__new__(LaurentSeries)._set(
            self.offset, self.trunc, tuple(-c for c in self._n), self._d)

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
        if not self._n or not o._n:
            # zero (so far as known) series: conservative truncation window
            T = min(_as_order(self.trunc), _as_order(o.trunc))
            return LaurentSeries.zero(_order(T))
        # product of a (exact through Ta) and b (exact through Tb) is exact
        # through min(Ta + b.offset, Tb + a.offset)
        T = min(_as_order(self.trunc) + o.offset, _as_order(o.trunc) + self.offset)
        lo = self.offset + o.offset
        hi_stored = (self.offset + len(self._n) - 1) + (o.offset + len(o._n) - 1)
        hi = hi_stored if T == INFINITY else min(hi_stored, int(T))
        size = max(0, hi - lo + 1)
        a = self._ints(size)
        b = None if a is None else o._ints(size)
        if b is not None:
            return _series(lo, _int_convolve(a[0], b[0], size), a[1] * b[1], _order(T))
        sc, oc = self.coeffs, o.coeffs
        out = [Fraction(0)] * size
        for i, ca in enumerate(sc):
            if not ca:
                continue
            base = self.offset + i + o.offset - lo
            for j, cb in enumerate(oc):
                k = base + j
                if k > hi - lo:
                    break
                if cb:
                    out[k] = out[k] + ca * cb
        return LaurentSeries(lo, out, _order(T))

    __rmul__ = __mul__

    def inverse(self, through=None) -> "LaurentSeries":
        """Multiplicative inverse, 1 / self (see divide for the orders)."""
        return LaurentSeries.one().divide(self, through)

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

    def divide(self, den, through=None) -> "LaurentSeries":
        """self / den by long division.

        With self = z^nu * (a_0 + a_1 z + ...), exact through Ta, and
        den = z^mu * (b_0 + b_1 z + ...), exact through Tb, the quotient is
        z^(nu-mu) * (q_0 + q_1 z + ...) with
        q_k = (a_k - sum_{1<=i<len(b)} b_i q_(k-i)) / b_0, exact through
        min(Ta - mu, Tb - 2*mu + nu), capped at `through`.  An exact divisor
        with more than one term needs a finite order; an exact monomial
        divisor of an exact series gives an exact quotient.

        An int-form self over an int or Fraction den divides in ints
        (_int_quotient); any other self runs the loop on its coefficients,
        one ring operation per term.
        """
        den = self._lift(den)
        if not den._n:
            raise ZeroDivisionError("division by zero series")
        mu = den.offset
        Ta = _as_order(self.trunc)
        T = min(Ta - mu, _as_order(den.trunc) - 2 * mu + self.offset)
        if through is not None:
            T = min(T, through)
        if T == INFINITY and len(den._n) > 1:
            raise TruncationError("division by an exact series needs a target order")
        lo = self.offset - mu
        if not self._n or T < lo:
            # no coefficient to write: zero, truncated as self * (1/den) would be
            T = min(Ta, T, T - self.offset)
            return LaurentSeries.zero(_order(T))
        n = len(self._n) if T == INFINITY else int(T) - lo + 1
        b = None if self._d is None else den._ints(n)
        if b is not None:
            q, d = _int_quotient(self._n, self._d, b[0], b[1], n)
            return _series(lo, q, d, _order(T))
        a, bs = self.coeffs, den.coeffs
        b0_inv = _ring_inverse(bs[0])
        b = [(i, c) for i, c in enumerate(bs[1:n], 1) if c]
        q = []
        for k in range(n):
            acc = a[k] if k < len(a) else 0
            for i, c in b:
                if i > k:
                    break
                if q[k - i]:
                    acc = acc - c * q[k - i]
            q.append(acc * b0_inv)
        return LaurentSeries(lo, q, _order(T))

    def __pow__(self, k: int):
        if k < 0:
            return self.inverse() ** (-k)
        result = LaurentSeries.one()
        base = self
        while k:
            if k & 1:
                result = result * base
            k >>= 1
            if k:
                base = base * base
        return result

    def compose(self, inner: "LaurentSeries") -> "LaurentSeries":
        """self(inner(z)) for inner with min_order >= 1, self with min_order >= 0."""
        if self.offset < 0:
            raise ValueError("composition needs an outer series with min_order >= 0")
        if inner._n and inner.offset < 1:
            raise ValueError("composition needs inner min_order >= 1 (zero constant term)")
        Ta = _as_order(self.trunc)
        Tb = _as_order(inner.trunc)
        if not inner._n:
            c0 = self.coefficient(0) if (self.trunc is None or self.trunc >= 0) else Fraction(0)
            return LaurentSeries(0, (c0,), _order(Tb))
        mu = inner.offset
        T = min(Tb, (Ta + 1) * mu - 1)
        # Horner from the top stored coefficient
        cs = self.coeffs
        acc = LaurentSeries.zero(_order(T))
        for k in range(self.offset + len(cs) - 1, -1, -1):
            acc = acc * inner
            c = cs[k - self.offset] if k >= self.offset else None
            if c is not None and c:
                acc = acc + LaurentSeries(0, (c,))
            if T != INFINITY and acc.trunc is not None:
                acc = acc._cut(min(int(T), acc.trunc))
        if T == INFINITY:
            return acc
        return acc._cut(int(T))

    def derivative(self) -> "LaurentSeries":
        T = None if self.trunc is None else self.trunc - 1
        cs = [(self.offset + i) * c for i, c in enumerate(self._n)]
        return _series(self.offset - 1, cs, self._d, T)

    def to_text(self, letter: str = "z") -> str:
        if not self._n:
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
        return f"LaurentSeries({self.to_text()})"


def _normal(offset, n, d, trunc):
    """The stored form (offset, trunc, _n, _d) of the series
    sum (n[i] / d) z^(offset+i) exact through trunc, for a sequence n.

    An int d != 0 means int numerators n; a d of None means coefficients as
    given.  Zeros are trimmed at both ends and the terms beyond trunc
    dropped.  Coefficients given as ints and integral Fractions take the int
    form over d = 1, and an int form is divided by the content gcd(d, *n),
    with the sign that makes d positive; other as-given coefficients stay as
    they are.
    """
    start, stop = 0, len(n)
    while start < stop and not n[start]:
        start += 1
    if trunc is not None:
        stop = max(start, min(stop, trunc - offset + 1))
    while stop > start and not n[stop - 1]:
        stop -= 1
    if start == stop:
        return 0, trunc, (), 1
    n = n[start:stop]
    if d is None:
        if not all(isinstance(c, int) or (isinstance(c, Fraction) and c.denominator == 1)
                   for c in n):
            return offset + start, trunc, tuple(n), None
        n, d = [c.numerator for c in n], 1
    g = math.gcd(d, *n)
    if d < 0:
        g = -g
    if g != 1:
        n = [c // g for c in n]
        d //= g
    return offset + start, trunc, tuple(n), d


def _series(offset, n, d, trunc):
    """The series sum (n[i] / d) z^(offset+i) exact through trunc, in its
    stored form (_normal)."""
    return object.__new__(LaurentSeries)._set(*_normal(offset, n, d, trunc))


def _spread(out, n, start, scale):
    """Add scale * n[i] to out[start + i] for every i that falls inside out."""
    room = len(out) - start
    if room > 0:
        for i, c in enumerate(n[:room], start):
            out[i] += scale * c


def _int_quotient(a, da, b, db, n):
    """The first n coefficients of (a / da) / (b / db), for int coefficient
    sequences a and b with b[0] != 0, as (numerators, denominator).

    Each q_k = u_k / v_k is reduced as it is written, with one lcm of the v
    it reads and one gcd, so that no power of b_0 (which holds the divisor's
    common denominator) builds up; the v are brought to one denominator at
    the end.
    """
    b0 = b[0]
    terms = [(i, c) for i, c in enumerate(b[1:n], 1) if c]
    u, v = [], []
    for k in range(n):
        live = [(c, u[k - i], v[k - i]) for i, c in terms if i <= k and u[k - i]]
        m = math.lcm(*(vj for _, _, vj in live))
        x = ((a[k] if k < len(a) else 0) * db * m
             - da * sum(c * uj * (m // vj) for c, uj, vj in live))
        y = da * m * b0
        g = math.gcd(x, y)
        if y < 0:
            g = -g
        u.append(x // g)
        v.append(y // g)
    d = math.lcm(*v)
    return [x * (d // y) for x, y in zip(u, v)], d


def _ring_inverse(c):
    if isinstance(c, (int, Fraction)):
        return 1 / Fraction(c)
    if isinstance(c, RationalFunction):
        return RationalFunction(1) / c
    raise TypeError(f"no inverse for coefficient {c!r}")
