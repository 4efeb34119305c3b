"""Classical number families, one computation route each.

Each function runs the single route the library uses; ``daehee`` alone
keeps two, the closed form and the Bernoulli-Stirling sum, because the
log-sum and catalog code call both.  The independent routes that check
these values (generating series, closed double sums, exact integrals)
are reference implementations in the tests.  Everything is exact: ints,
Fractions, Polynomials in an auxiliary variable, or RationalFunctions in
the weight for the weighted (Apostol-style) family.  The Stirling tables grow
under a lock, so threads sharing them never append the same row twice.
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
    "apostol_bernoulli",
    "apostol_bernoulli_polynomial",
    "apostol_bernoulli_value",
]


# ---------------------------------------------------------------------------
# Bernoulli numbers
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def bernoulli(n: int) -> Fraction:
    """Bernoulli number B_n (B_1 = -1/2 convention).

    Solves the Pascal-column recurrence sum_{j<=n} C(n+1, j) B_j = 0
    (n >= 1) for B_n, taking each B_j from this function's own cache; j
    ascends, so a cold call recurses only about two levels deep.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    if n == 0:
        return Fraction(1)
    acc = sum((math.comb(n + 1, j) * bernoulli(j) for j in range(n)), Fraction(0))
    return -acc / (n + 1)


# ---------------------------------------------------------------------------
# Stirling numbers (first kind signed, second kind)
# ---------------------------------------------------------------------------

_TABLE_LOCK = threading.Lock()


def _extend(rows, n: int, step):
    """rows[n], after appending rows[m] = step(m, rows[m - 1]) for every
    missing m up to n.  The loop fills the table's own cache in ascending m,
    so a cold call does not recurse and a sweep builds each row once.  The
    lock is synchronisation: it makes the length check and the append one
    step, without which two threads could append the same row twice."""
    with _TABLE_LOCK:
        while len(rows) <= n:
            rows.append(step(len(rows), rows[-1]))
    return rows[n]


_STIRLING_FIRST_ROWS = [(1,)]


def _stirling_first_row(n: int):
    # s(m, k) = s(m-1, k-1) - (m-1) s(m-1, k)
    return _extend(_STIRLING_FIRST_ROWS, n, lambda m, prev: tuple(
        left - (m - 1) * right for left, right in zip((0,) + prev, prev + (0,))))


def stirling_first(n: int, k: int) -> int:
    """Signed Stirling number of the first kind: coefficient of x^k in the
    falling factorial x(x-1)...(x-n+1)."""
    if n < 0:
        raise ValueError("n must be >= 0")
    if k < 0 or k > n:
        return 0
    return _stirling_first_row(n)[k]


_STIRLING_SECOND_ROWS = [(1,)]


def _stirling_second_row(n: int):
    # S(m, k) = S(m-1, k-1) + k S(m-1, k)
    return _extend(_STIRLING_SECOND_ROWS, n, lambda m, prev: tuple(
        left + k * right for k, (left, right) in enumerate(zip((0,) + prev, prev + (0,)))))


def stirling_second(n: int, k: int) -> int:
    """Stirling number of the second kind (set partitions into k blocks)."""
    if n < 0:
        raise ValueError("n must be >= 0")
    if k < 0 or k > n:
        return 0
    return _stirling_second_row(n)[k]


# ---------------------------------------------------------------------------
# Daehee numbers: log(1+u)/u = sum D_n u^n / n!
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def daehee(n: int, method: str = "closed") -> Fraction:
    """Daehee number D_n by the closed form (-1)^n n!/(n+1), or with
    method "bernoulli_stirling" by the sum of B_j s(n, j) over j."""
    if n < 0:
        raise ValueError("n must be >= 0")
    if method == "closed":
        return Fraction((-1) ** n * math.factorial(n), n + 1)
    if method == "bernoulli_stirling":
        return sum((bernoulli(j) * s for j, s in enumerate(_stirling_first_row(n))),
                   Fraction(0))
    raise ValueError(f"unknown method {method!r}")


# ---------------------------------------------------------------------------
# harmonic numbers, plain and alternating
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def harmonic(n: int) -> Fraction:
    """H_n = 1 + 1/2 + ... + 1/n (H_0 = 0)."""
    if n < 0:
        raise ValueError("n must be >= 0")
    return sum((Fraction(1, j) for j in range(1, n + 1)), Fraction(0))


@lru_cache(maxsize=None)
def harmonic_alternating(n: int) -> Fraction:
    """Alternating harmonic number -1 + 1/2 - 1/3 + ... + (-1)^n/n."""
    if n < 0:
        raise ValueError("n must be >= 0")
    return sum((Fraction((-1) ** j, j) for j in range(1, n + 1)), Fraction(0))


# ---------------------------------------------------------------------------
# derangements
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def derangement(n: int) -> int:
    if n < 0:
        raise ValueError("n must be >= 0")
    return sum((-1) ** j * math.factorial(n - j) * math.comb(n, j)
               for j in range(n + 1))


# ---------------------------------------------------------------------------
# Leibnitz fractions l(m, l) = 1 / ((m+1) C(m, l))
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def leibnitz(m: int, l: int) -> Fraction:
    if not 0 <= l <= m:
        raise ValueError("need 0 <= l <= m")
    return Fraction(1, (m + 1) * math.comb(m, l))


# ---------------------------------------------------------------------------
# Bernoulli numbers of the second kind: u/log(1+u) = sum b_n u^n / n!
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def bernoulli_second(n: int) -> Fraction:
    if n < 0:
        raise ValueError("n must be >= 0")
    ratio = LaurentSeries.monomial(1, 1) / LaurentSeries.mercator(n + 1)
    return ratio.coefficient(n) * math.factorial(n)


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
def apostol_bernoulli(n: int) -> RationalFunction:
    """Weighted Bernoulli number as a RationalFunction of the weight w:
    u/(w e^u - 1) = sum_n apostol_bernoulli(n) u^n / n!."""
    if n < 0:
        raise ValueError("n must be >= 0")
    w = RationalFunction.variable()
    cs = [w - 1] + [w * Fraction(1, math.factorial(j)) for j in range(1, n + 1)]
    ratio = LaurentSeries.monomial(1, 1) / LaurentSeries(0, cs, n)
    val = ratio.coefficient(n) * math.factorial(n)
    return val if isinstance(val, RationalFunction) else RationalFunction(val)


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


def apostol_bernoulli_value(n: int, weight, b=None):
    """Concrete Fraction value of the weighted Bernoulli number (or, with
    b given, polynomial) at a rational weight != 0, 1, read off the
    symbolic number or polynomial."""
    weight = Fraction(weight)
    if weight == 0 or weight == 1:
        raise ValueError("weight must avoid 0 and 1")
    if b is None:
        return apostol_bernoulli(n)(weight)
    sym = apostol_bernoulli_polynomial(n)(Fraction(b))
    return sym(weight) if isinstance(sym, RationalFunction) else Fraction(sym)
