"""Log-type finite sums: exact values, closed symbolic forms, and the table.

The family computed here is

    S(n, q) = sum_{j=0}^{n} (-1)^n / ((j+1) * q^(j+1) * (q-1)^(n+1-j))

for n >= 0 and a rational parameter q outside {0, 1}.  These numbers are
(up to the scale (1-q)^(n+2)) the Maclaurin coefficients of
log(1 - (q-1)/q * z) / (z*(z-1)), and they touch several classical corners:
alternating harmonic numbers at q = 1/2, Bernoulli/Stirling double sums,
and the lcm-normalised harmonic integers carried by the symbolic numerators.

Four independent evaluation routes are provided on purpose; their agreement
is the backbone of the verification suite:

  * logsum_direct             -- the defining sum
  * logsum_bernoulli_stirling -- double sum over Bernoulli numbers and
                                 signed Stirling numbers of the first kind
  * logsum_recurrence         -- two-term recurrence in n
  * logsum_symbolic           -- closed rational function of the parameter

The numeric routes are duck-typed in the parameter: a Fraction gives exact
numbers, a RationalFunction gives exact symbolic forms.  At an int or
Fraction q = a/b in lowest terms, with c = a - b and sigma_n = lcm(1..n+1),
both the direct and the recurrence route compute one integer,

    S(n, q) = (-1)^n * b^(n+2) * X_n / (sigma_n * a^(n+1) * c^(n+1)),
    X_n = sum_j (sigma_n/(j+1)) * a^(n-j) * c^j,

in ints, and reduce one Fraction at the end: the direct route sums X_n by
binary splitting, the recurrence steps it up from X_0 = 1.  The two share
no helper, so one bug cannot give both the same wrong X_n.  Any other
parameter keeps the plain loops, one exact operation per term or step.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from itertools import islice

from .exact import Polynomial, RationalFunction

from .special import daehee, harmonic_alternating


def _checked(q):
    """Normalise a numeric parameter, rejecting the two poles."""
    if isinstance(q, (int, Fraction)):
        q = Fraction(q)
        if q == 0 or q == 1:
            raise ValueError("parameter must avoid 0 and 1")
    return q


def _check_index(n: int) -> None:
    if n < 0:
        raise ValueError("index must be nonnegative")


# ---------------------------------------------------------------------------
# the four evaluation routes
# ---------------------------------------------------------------------------

def _split_sum(a: int, c: int, lo: int, hi: int):
    """(P, Q, a^(hi-lo), c^(hi-lo)) with P/Q = sum_{lo<=j<hi} a^(hi-1-j) * c^(j-lo)/(j+1).

    Binary splitting: at the midpoint m the range's sum is
    a^(hi-m) * (left sum) + c^(m-lo) * (right sum), so the halves combine
    with a few int products.  Q is lcm(lo+1..hi), not the product of the
    j + 1, which keeps the final reduction small.
    """
    if hi - lo == 1:
        return 1, lo + 1, a, c
    mid = (lo + hi) // 2
    p1, q1, a1, c1 = _split_sum(a, c, lo, mid)
    p2, q2, a2, c2 = _split_sum(a, c, mid, hi)
    g = math.gcd(q1, q2)
    return a2 * p1 * (q2 // g) + c1 * p2 * (q1 // g), q1 // g * q2, a1 * a2, c1 * c2


def logsum_direct(n: int, q):
    """The defining alternating sum over j = 0..n.

    At q = a/b in lowest terms, with c = a - b, the sum is
    (-1)^n * b^(n+2) * sum_j a^(n-j) * c^j/(j+1) / (a^(n+1) * c^(n+1)); for an
    int or Fraction q that inner sum runs in ints by binary splitting
    (:func:`_split_sum`) and one Fraction is reduced at the end.  Any other
    parameter, such as a RationalFunction, is summed term by term.
    """
    _check_index(n)
    q = _checked(q)
    if isinstance(q, Fraction):
        a, b = q.numerator, q.denominator
        num, den, a_pow, c_pow = _split_sum(a, a - b, 0, n + 1)
        num *= b ** (n + 2)
        return Fraction(num if n % 2 == 0 else -num, den * a_pow * c_pow)
    acc = 0
    for j in range(n + 1):
        acc = acc + 1 / ((j + 1) * q ** (j + 1) * (q - 1) ** (n + 1 - j))
    return acc if n % 2 == 0 else -acc


def _recurrence_states(a: int, c: int):
    """(X_n, sigma_n) for n = 0, 1, ... without end, one int step each.

    sigma_n = lcm(1..n+1) and X_n = sum_j (sigma_n/(j+1)) * a^(n-j) * c^j, so
    X_n = (sigma_n/sigma_(n-1)) * a * X_(n-1) + (sigma_n/(n+1)) * c^n from
    X_0 = 1.  The second term is carried as sigma_n * c^n, divided by n + 1.
    """
    x, scale, scaled_c_pow = 1, 1, 1
    n = 0
    while True:
        yield x, scale
        n += 1
        ratio = (n + 1) // math.gcd(scale, n + 1)
        scale *= ratio
        scaled_c_pow *= ratio * c
        x = ratio * a * x + scaled_c_pow // (n + 1)


def _recurrence_fraction(n: int, x: int, scale: int, a: int, b: int) -> Fraction:
    """S(n, a/b) = (-1)^n * b^(n+2) * X_n / (sigma_n * a^(n+1) * (a-b)^(n+1))."""
    num = x * b ** (n + 2)
    return Fraction(num if n % 2 == 0 else -num, scale * (a * (a - b)) ** (n + 1))


def logsum_recurrence_values(q):
    """S(0, q), S(1, q), ... without end, one step of the two-term
    recurrence (q-1)*S(n, q) + S(n-1, q) = (-1)^n/((n+1)*q^(n+1)) each.

    For an int or Fraction q = a/b the step runs on the int X_n of
    :func:`_recurrence_states` and one Fraction is built per value; any
    other parameter, such as a RationalFunction, steps the values themselves.
    """
    q = _checked(q)
    if isinstance(q, Fraction):
        a, b = q.numerator, q.denominator
        for n, (x, scale) in enumerate(_recurrence_states(a, a - b)):
            yield _recurrence_fraction(n, x, scale, a, b)
    else:
        val = 1 / (q * (q - 1))
        m = 0
        while True:
            yield val
            m += 1
            sign = 1 if m % 2 == 0 else -1
            val = (sign / ((m + 1) * q ** (m + 1)) - val) / (q - 1)


def logsum_recurrence(n: int, q):
    """S(n, q) by the two-term recurrence, run up from S(0, q); for an int or
    Fraction q only X_n is stepped, and a single Fraction is built at n."""
    _check_index(n)
    q = _checked(q)
    if not isinstance(q, Fraction):
        return next(islice(logsum_recurrence_values(q), n, None))
    a, b = q.numerator, q.denominator
    x, scale = next(islice(_recurrence_states(a, a - b), n, None))
    return _recurrence_fraction(n, x, scale, a, b)


def logsum_bernoulli_stirling(n: int, q):
    """Double sum over Bernoulli numbers and signed Stirling numbers.

    The outer index runs over 0..n, the inner over 0..outer; each term is
    (-1)^(v-n) * (q-1)^(v-n-1) * B_k * s(v,k) / (q^(v+1) * v!).  The inner
    sum over k is the Daehee number D_v, taken once per v from the cached
    daehee(v, "bernoulli_stirling"), so each v costs one multiplication.
    """
    _check_index(n)
    q = _checked(q)
    total = 0
    for v in range(n + 1):
        weight = (q - 1) ** (v - n - 1) / (q ** (v + 1) * math.factorial(v))
        if (n - v) % 2:
            weight = -weight
        total = total + weight * daehee(v, "bernoulli_stirling")
    return total


@lru_cache(maxsize=None)
def _symbolic_parts(n: int):
    """(num, scale) with S(n) = num(L) / (scale * L^(n+1) * (L-1)^(n+1)).

    num holds the int coefficients, ascending, of the degree-n numerator
    (-1)^n * sum_j (scale/(j+1)) * L^(n-j) * (L-1)^j; scale = lcm(1..n+1)
    clears every 1/(j+1).  With t = 1 - 1/L the sum is scale * L^n * F(t)/t
    up to sign, where F(t) = sum_{k<=n+1} t^k/k has
    F'(t) = (1 - t^(n+1))/(1 - t).  Integrating gives each coefficient from
    the one before it; with c_r the coefficient of L^(n-r), one pass runs
    down from the constant term c_n = scale/(n+1):

        c_(r-1) = c_r - (-1)^(n+r) * (scale/r) * C(n+1, r),

    carrying C(n+1, r) as a running binomial: O(n) int operations.  The
    pass must not be seeded with the leading coefficient +-scale * H_(n+1):
    run downwards, that coefficient equals it only through
    sum_{k>=1} (-1)^(k+1) * C(m, k)/k = H_m, so the "table" route of
    harmonic_lcm_sequence checks that identity instead of repeating the
    harmonic sum.  The parts are in lowest terms: the numerator vanishes at
    neither 0 (value scale/(n+1)) nor 1 (value +-scale), and any common
    integer content is divided out.
    """
    _check_index(n)
    scale = math.lcm(*range(1, n + 2))
    c = scale // (n + 1)
    coeffs = [c]
    binom = n + 1  # C(n+1, r) at r = n
    for r in range(n, 0, -1):
        step = scale // r * binom
        c = c - step if (n + r) % 2 == 0 else c + step
        coeffs.append(c)
        binom = binom * r // (n + 2 - r)
    g = math.gcd(scale, *coeffs)
    if g > 1:
        coeffs = [c // g for c in coeffs]
        scale //= g
    return tuple(coeffs), scale


@lru_cache(maxsize=None)
def logsum_symbolic(n: int) -> RationalFunction:
    """Closed form of S(n, .) as a reduced rational function of the parameter."""
    num, scale = _symbolic_parts(n)
    power = n + 1
    # scale * L^power * (L-1)^power: L^(power+i) has scale * C(power, i) * (-1)^(power-i)
    den = [0] * power
    term = scale if power % 2 == 0 else -scale
    for i in range(power + 1):
        den.append(term)
        term = -term * (power - i) // (i + 1)
    return RationalFunction(Polynomial(num), Polynomial(den))


_METHODS = ("direct", "alg1", "recurrence", "symbolic")


def logsum(n: int, q=None, method: str = "recurrence"):
    """Evaluate S(n, q) by the requested route.

    method "symbolic" with q=None returns the RationalFunction itself;
    every other combination returns an exact scalar (or a symbolic result
    when q is itself a RationalFunction).
    """
    if method not in _METHODS:
        raise ValueError(f"unknown method {method!r}; expected one of {_METHODS}")
    if method == "symbolic" and q is None:
        return logsum_symbolic(n)
    if q is None:
        raise ValueError("a parameter value is required for numeric methods")
    if method == "direct":
        return logsum_direct(n, q)
    if method == "alg1":
        return logsum_bernoulli_stirling(n, q)
    if method == "recurrence":
        return logsum_recurrence(n, q)
    q = _checked(q)
    return logsum_symbolic(n)(q)


@lru_cache(maxsize=None)
def logsum_value(n: int, q) -> Fraction:
    """Cached exact value by the recurrence route, a loop, so no n hits the
    recursion limit; the workhorse for the identity sweeps."""
    return logsum_recurrence(n, Fraction(q))


def logsum_at_half(n: int) -> Fraction:
    """Closed evaluation at parameter 1/2 via alternating harmonic numbers."""
    _check_index(n)
    return Fraction(2) ** (n + 2) * harmonic_alternating(n + 1)


# ---------------------------------------------------------------------------
# table formatting
# ---------------------------------------------------------------------------

def table_entry(n: int) -> str:
    """Canonical text of S(n): descending numerator over the factored denominator."""
    num, scale = _symbolic_parts(n)
    power = n + 1
    num_text = Polynomial(num).to_text("L", descending=True)
    if sum(1 for c in num if c) > 1:
        num_text = f"({num_text})"
    factors = []
    if scale != 1:
        factors.append(str(scale))
    factors.append("L" if power == 1 else f"L^{power}")
    factors.append("(L - 1)" if power == 1 else f"(L - 1)^{power}")
    return f"{num_text}/({'*'.join(factors)})"


def table(max_n: int) -> list[str]:
    """Table rows 0..max_n, one canonical string per index."""
    _check_index(max_n)
    return [table_entry(n) for n in range(max_n + 1)]


# ---------------------------------------------------------------------------
# the lcm-normalised harmonic integers
# ---------------------------------------------------------------------------

def lcm_harmonic(k: int) -> int:
    """lcm(1..k) * (1 + 1/2 + ... + 1/k) as an integer, k >= 1."""
    if k < 1:
        raise ValueError("k must be >= 1")
    scale = math.lcm(*range(1, k + 1))
    return sum(scale // j for j in range(1, k + 1))


def harmonic_lcm_sequence(count: int, method: str = "harmonic") -> list:
    """First `count` terms, via the harmonic sum or the symbolic numerators.

    The "harmonic" route carries L_k = lcm(1..k) and N_k = L_k * H_k, with
    N_k = N_(k-1) * (L_k / L_(k-1)) + L_k / k, apart from the termwise
    :func:`lcm_harmonic`.  The "table" route reads |leading coefficient| of
    the degree-(k-1) numerator, which equals lcm(1..k) * H_k only through the
    alternating binomial identity of :func:`_symbolic_parts`.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    if method == "harmonic":
        out, scale, num = [], 1, 0
        for k in range(1, count + 1):
            grown = math.lcm(scale, k)
            num = num * (grown // scale) + grown // k
            scale = grown
            out.append(num)
        return out
    if method == "table":
        return [abs(_symbolic_parts(k)[0][-1]) for k in range(count)]
    raise ValueError(f"unknown method {method!r}; expected 'harmonic' or 'table'")
