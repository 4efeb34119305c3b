"""Classical number families with independent computation routes.

Every family here exposes at least two genuinely independent ways to get
the same value (closed formula, recurrence, generating series, or an
exact integral), so the identity suite can cross-validate them instead
of trusting a single code path.  Everything is exact: ints, Fractions,
Polynomials in an auxiliary variable, or RationalFunctions in the weight
for the weighted (Apostol-style) family.
"""

import math
import threading
from fractions import Fraction
from functools import lru_cache

from .exact import LaurentSeries, Polynomial, RationalFunction

__all__ = [
    "bernoulli",
    "bernoulli_polynomial",
    "euler_polynomial",
    "stirling_first",
    "stirling_second",
    "daehee",
    "harmonic",
    "harmonic_alternating",
    "derangement",
    "leibnitz",
    "bernoulli_second",
    "falling_factorial",
    "integral_unit_interval",
    "apostol_bernoulli",
    "apostol_bernoulli_polynomial",
    "apostol_bernoulli_value",
]


def _binom(a: int, b: int) -> int:
    """Binomial coefficient with the degenerate-index conventions the
    closed double sums below rely on: C(a, b) = 0 for b < 0 except on the
    diagonal (C(a, a) = 1), and the alternating value for negative a."""
    if b < 0:
        return 1 if a == b else 0
    if a < 0:
        return (-1) ** b * math.comb(b - a - 1, b)
    return math.comb(a, b)


# ---------------------------------------------------------------------------
# Bernoulli numbers
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def bernoulli(n: int, method: str = "recurrence") -> Fraction:
    """Bernoulli number B_n (B_1 = -1/2 convention).

    The "recurrence" route solves the Pascal-column recurrence
    sum_{j<=n} C(n+1, j) B_j = 0 (n >= 1) for B_n, taking each B_j from
    this function's own cache; j ascends, so a cold call recurses only
    about two levels deep.  The "series" route is the independent check.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    if method == "recurrence":
        if n == 0:
            return Fraction(1)
        acc = sum((math.comb(n + 1, j) * bernoulli(j) for j in range(n)), Fraction(0))
        return -acc / (n + 1)
    if method == "series":
        den = LaurentSeries.exponential(n + 1) - LaurentSeries.one()
        ratio = LaurentSeries.monomial(1, 1) / den
        return ratio.coefficient(n) * math.factorial(n)
    raise ValueError(f"unknown method {method!r}")


# ---------------------------------------------------------------------------
# Stirling numbers (first kind signed, second kind)
# ---------------------------------------------------------------------------

_TABLE_LOCK = threading.Lock()  # the length check and the append are one step


def _extend(rows, n: int, step):
    """rows[n], after appending rows[m] = step(m, rows[m - 1]) for every
    missing m up to n.  The loop fills the table's own cache in ascending m,
    so a cold call does not recurse and a sweep builds each row once."""
    with _TABLE_LOCK:
        while len(rows) <= n:
            rows.append(step(len(rows), rows[-1]))
    return rows[n]


_STIRLING_FIRST_ROWS = [(1,)]


def _stirling_first_row(n: int):
    # s(m, k) = s(m-1, k-1) - (m-1) s(m-1, k)
    return _extend(_STIRLING_FIRST_ROWS, n, lambda m, prev: tuple(
        left - (m - 1) * right for left, right in zip((0,) + prev, prev + (0,))))


def _stirling_first_formula(n: int, k: int) -> Fraction:
    # closed quadruple-binomial double sum; 0**0 == 1 is load-bearing
    total = Fraction(0)
    for c in range(n - k + 1):
        inner = 0
        for j in range(c + 1):
            inner += (-1) ** j * math.comb(c, j) * j ** (n - k + c)
        if inner:
            total += Fraction(
                _binom(n + c - 1, k - 1) * _binom(2 * n - k, n - k - c) * inner,
                math.factorial(c),
            )
    return total


@lru_cache(maxsize=None)
def stirling_first(n: int, k: int, method: str = "recurrence") -> int:
    """Signed Stirling number of the first kind: coefficient of x^k in the
    falling factorial x(x-1)...(x-n+1)."""
    if n < 0:
        raise ValueError("n must be >= 0")
    if k < 0 or k > n:
        return 0
    if method == "recurrence":
        return _stirling_first_row(n)[k]
    if method == "formula":
        val = _stirling_first_formula(n, k)
        if val.denominator != 1:
            raise ArithmeticError(f"non-integer Stirling value {val} at {(n, k)}")
        return val.numerator
    raise ValueError(f"unknown method {method!r}")


_STIRLING_SECOND_ROWS = [(1,)]


def _stirling_second_row(n: int):
    # S(m, k) = S(m-1, k-1) + k S(m-1, k)
    return _extend(_STIRLING_SECOND_ROWS, n, lambda m, prev: tuple(
        left + k * right for k, (left, right) in enumerate(zip((0,) + prev, prev + (0,)))))


@lru_cache(maxsize=None)
def stirling_second(n: int, k: int, method: str = "recurrence") -> int:
    """Stirling number of the second kind (set partitions into k blocks)."""
    if n < 0:
        raise ValueError("n must be >= 0")
    if k < 0 or k > n:
        return 0
    if method == "recurrence":
        return _stirling_second_row(n)[k]
    if method == "formula":
        acc = 0
        for c in range(k + 1):
            acc += (-1) ** (k - c) * math.comb(k, c) * c ** n
        q, r = divmod(acc, math.factorial(k))
        if r:
            raise ArithmeticError(f"non-integer Stirling value at {(n, k)}")
        return q
    raise ValueError(f"unknown method {method!r}")


# ---------------------------------------------------------------------------
# Daehee numbers: log(1+u)/u = sum D_n u^n / n!
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def daehee(n: int, method: str = "closed") -> Fraction:
    if n < 0:
        raise ValueError("n must be >= 0")
    if method == "closed":
        return Fraction((-1) ** n * math.factorial(n), n + 1)
    if method == "bernoulli_stirling":
        return sum((bernoulli(j) * s for j, s in enumerate(_stirling_first_row(n))),
                   Fraction(0))
    if method == "series":
        ratio = LaurentSeries.mercator(n + 1) / LaurentSeries.monomial(1, 1)
        return ratio.coefficient(n) * math.factorial(n)
    raise ValueError(f"unknown method {method!r}")


# ---------------------------------------------------------------------------
# harmonic numbers, plain and alternating
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def harmonic(n: int, method: str = "sum") -> Fraction:
    """H_n = 1 + 1/2 + ... + 1/n (H_0 = 0)."""
    if n < 0:
        raise ValueError("n must be >= 0")
    if method == "sum":
        return sum((Fraction(1, j) for j in range(1, n + 1)), Fraction(0))
    if method == "series":
        # log(1-u)/(u-1) = sum H_n u^n
        num = LaurentSeries.mercator(n, scale=Fraction(-1))
        den = LaurentSeries.from_polynomial(Polynomial((Fraction(-1), Fraction(1))))
        return (num / den).coefficient(n)
    raise ValueError(f"unknown method {method!r}")


@lru_cache(maxsize=None)
def harmonic_alternating(n: int, method: str = "sum") -> Fraction:
    """Alternating harmonic number -1 + 1/2 - 1/3 + ... + (-1)^n/n."""
    if n < 0:
        raise ValueError("n must be >= 0")
    if method == "sum":
        return sum((Fraction((-1) ** j, j) for j in range(1, n + 1)), Fraction(0))
    if method == "series":
        # log(1+u)/(u-1) = sum of these against u^n
        num = LaurentSeries.mercator(n)
        den = LaurentSeries.from_polynomial(Polynomial((Fraction(-1), Fraction(1))))
        return (num / den).coefficient(n)
    raise ValueError(f"unknown method {method!r}")


# ---------------------------------------------------------------------------
# derangements
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def derangement(n: int, method: str = "sum") -> int:
    if n < 0:
        raise ValueError("n must be >= 0")
    if method == "sum":
        return sum((-1) ** j * math.factorial(n - j) * math.comb(n, j)
                   for j in range(n + 1))
    if method == "recurrence":
        d = 1
        for m in range(1, n + 1):
            d = m * d + (-1) ** m
        return d
    if method == "series":
        # exp(-u)/(1-u)
        gf = LaurentSeries.exponential(n, Fraction(-1)) * LaurentSeries.geometric(n)
        val = gf.coefficient(n) * math.factorial(n)
        if val.denominator != 1:
            raise ArithmeticError("derangement series gave a non-integer")
        return val.numerator
    raise ValueError(f"unknown method {method!r}")


# ---------------------------------------------------------------------------
# Leibnitz fractions l(m, l) = 1 / ((m+1) C(m, l))
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def leibnitz(m: int, l: int, method: str = "closed") -> Fraction:
    if not 0 <= l <= m:
        raise ValueError("need 0 <= l <= m")
    if method == "closed":
        return Fraction(1, (m + 1) * math.comb(m, l))
    if method == "alternating":
        return sum((Fraction((-1) ** (l - d) * math.comb(l, d), m - d + 1)
                    for d in range(l + 1)), Fraction(0))
    if method == "integral":
        x = Polynomial.variable()
        p = x ** l * (Polynomial.constant(Fraction(1)) - x) ** (m - l)
        return integral_unit_interval(p)
    raise ValueError(f"unknown method {method!r}")


# ---------------------------------------------------------------------------
# Bernoulli numbers of the second kind: u/log(1+u) = sum b_n u^n / n!
# ---------------------------------------------------------------------------

def falling_factorial(n: int) -> Polynomial:
    """x (x-1) ... (x-n+1) as an exact Polynomial (1 for n = 0); its
    coefficients are the signed Stirling numbers s(n, k), read as
    Fractions from the integer Stirling table."""
    if n < 0:
        raise ValueError("n must be >= 0")
    return Polynomial(tuple(Fraction(c) for c in _stirling_first_row(n)))


def integral_unit_interval(p: Polynomial) -> Fraction:
    """Exact integral of a Polynomial over [0, 1]."""
    return sum((Fraction(c) / (i + 1) for i, c in enumerate(p.coeffs)),
               Fraction(0))


@lru_cache(maxsize=None)
def bernoulli_second(n: int, method: str = "series") -> Fraction:
    if n < 0:
        raise ValueError("n must be >= 0")
    if method == "series":
        ratio = LaurentSeries.monomial(1, 1) / LaurentSeries.mercator(n + 1)
        return ratio.coefficient(n) * math.factorial(n)
    if method == "integral":
        return integral_unit_interval(falling_factorial(n))
    raise ValueError(f"unknown method {method!r}")


# ---------------------------------------------------------------------------
# higher-order Bernoulli / Euler polynomials
# ---------------------------------------------------------------------------

def _appell(power: LaurentSeries, m: int) -> Polynomial:
    """m! [u^m] power(u) e^(y*u) as a Polynomial in y: the Appell sum whose
    y^i coefficient is power_(m-i) m!/i!."""
    top = math.factorial(m)
    return Polynomial(tuple(power.coefficient(m - i) * (top // math.factorial(i))
                            for i in range(m + 1)))


@lru_cache(maxsize=None)
def bernoulli_polynomial(m: int, order: int = 1) -> Polynomial:
    """Bernoulli polynomial of the given order:
    (u/(e^u - 1))^order * e^(y*u) = sum_m B_m^(order)(y) u^m / m!."""
    if m < 0 or order < 0:
        raise ValueError("m and order must be >= 0")
    T = m + 1
    base = LaurentSeries.monomial(1, 1) / (LaurentSeries.exponential(T)
                                           - LaurentSeries.one())
    return _appell(base ** order, m)


@lru_cache(maxsize=None)
def euler_polynomial(m: int, order: int = 1) -> Polynomial:
    """Euler polynomial of the given order:
    (2/(e^u + 1))^order * e^(y*u) = sum_m E_m^(order)(y) u^m / m!."""
    if m < 0 or order < 0:
        raise ValueError("m and order must be >= 0")
    T = m + 1
    base = LaurentSeries.monomial(2, 0) / (LaurentSeries.exponential(T)
                                           + LaurentSeries.one())
    return _appell(base ** order, m)


# ---------------------------------------------------------------------------
# weighted (Apostol-style) Bernoulli family: u/(w e^u - 1), w the weight
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def apostol_bernoulli(n: int, method: str = "series") -> RationalFunction:
    """Weighted Bernoulli number as a RationalFunction of the weight w:
    u/(w e^u - 1) = sum_n apostol_bernoulli(n) u^n / n!."""
    if n < 0:
        raise ValueError("n must be >= 0")
    w = RationalFunction.variable()
    if method == "series":
        cs = [w - 1] + [w * Fraction(1, math.factorial(j))
                        for j in range(1, n + 1)]
        ratio = LaurentSeries.monomial(1, 1) / LaurentSeries(0, cs, n)
        val = ratio.coefficient(n) * math.factorial(n)
        return val if isinstance(val, RationalFunction) else RationalFunction(val)
    if method == "formula":
        # closed form through Stirling numbers of the second kind
        if n == 0:
            return RationalFunction(0)
        acc = RationalFunction(0)
        for c in range(n):
            acc = acc + (w ** (c - 1) * (w - 1) ** (n - 1 - c)
                         * ((-1) ** c * math.factorial(c)
                            * stirling_second(n - 1, c)))
        return acc * w * n / (w - 1) ** n
    raise ValueError(f"unknown method {method!r}")


@lru_cache(maxsize=None)
def apostol_bernoulli_polynomial(n: int) -> Polynomial:
    """Weighted Bernoulli polynomial in the shift variable b (coefficients
    are RationalFunctions of the weight), via the binomial convolution."""
    if n < 0:
        raise ValueError("n must be >= 0")
    cs = [RationalFunction(0)] * (n + 1)
    for k in range(n + 1):
        cs[n - k] = apostol_bernoulli(k) * math.comb(n, k)
    return Polynomial(cs)


def apostol_bernoulli_value(n: int, weight, b=None, method: str = "direct"):
    """Concrete Fraction value of the weighted Bernoulli number (or, with
    b given, polynomial) at a rational weight != 0, 1."""
    weight = Fraction(weight)
    if weight == 0 or weight == 1:
        raise ValueError("weight must avoid 0 and 1")
    if method == "direct":
        if b is None:
            return apostol_bernoulli(n)(weight)
        sym = apostol_bernoulli_polynomial(n)(Fraction(b))
        return sym(weight) if isinstance(sym, RationalFunction) else Fraction(sym)
    if method == "series":
        cs = [weight - 1] + [weight * Fraction(1, math.factorial(j))
                             for j in range(1, n + 1)]
        num = LaurentSeries.monomial(1, 1)
        if b is not None:
            num = num * LaurentSeries.exponential(n, Fraction(b))
        ratio = num / LaurentSeries(0, cs, n)
        return ratio.coefficient(n) * math.factorial(n)
    raise ValueError(f"unknown method {method!r}")
