"""Negative-argument zeta values and exponential-parameter expansions.

This module evaluates, in exact rational arithmetic:

* multiple Hurwitz zeta values at negative integers,
  ``zeta_d(-m, x) = (-1)^d m! B^{(d)}_{m+d}(x) / (m+d)!``;
* multiple alternating Hurwitz (Hurwitz-Euler eta) values at negative
  integers, by Abel summation of the defining alternating series, whose
  weights are Stirling sums; the same numbers are the higher-order Euler
  polynomial values ``E^{(d)}_m(x)``, which ``special.euler_polynomial``
  computes independently;
* Lerch-type interpolation ``sum_v w^v (v+b)^{m-1} -> -B_m(b; w)/m`` for
  ``|w| < 1`` together with exact partial sums for tail inspection;
* the Laurent expansion in ``t`` of the log-sum numbers ``S(n, .)`` when
  the parameter is an exponential, ``lambda = +-exp(-s t)`` with
  ``s in {1, 2}``, plus closed coefficient formulas for those expansions
  and faithful evaluators for several incorrectly printed variants;
* both sides of the balance between derangement numbers and ``S(n, w)``,
  as rational functions of the weight;
* partial sums of the cosine power series ``sum_v w^v cos(v)`` driven by
  weighted Stirling sums (the only floating-point corner of the package).

Everything except the cosine helpers returns ``Fraction``,
``RationalFunction`` or ``LaurentSeries`` values.
"""

from fractions import Fraction
from functools import lru_cache
from math import comb, cos, factorial

from .exact import LaurentSeries, RationalFunction
from .genfun import fib_term
from .logsum import logsum_recurrence_values, logsum_symbolic
from .special import (
    apostol_bernoulli_value,
    bernoulli_polynomial,
    daehee,
    derangement,
    euler_polynomial,
    stirling_second,
)

__all__ = [
    "hurwitz_neg",
    "eta_neg",
    "lerch_neg",
    "lerch_partial",
    "geometric_moment",
    "weighted_number_sum",
    "exp_parameter_series",
    "eta_coefficient_sum",
    "eta_multinomial_sum",
    "hurwitz_coefficient_sum",
    "hurwitz_cancellation",
    "even_coefficient_minus",
    "even_regular_plus",
    "even_regular_half_argument",
    "printed_even_bernoulli",
    "printed_even_convolution",
    "printed_closing_lhs",
    "printed_closing_rhs",
    "even_map_rhs_series",
    "derangement_sides",
    "cos_closed_form",
    "cos_geometric_partial",
    "odd_weighted_partial",
    "fib_cos_partial",
    "cos_series_partial",
]


# ---------------------------------------------------------------------------
# negative-argument zeta values
# ---------------------------------------------------------------------------

def hurwitz_neg(m: int, x, order: int = 1) -> Fraction:
    """Multiple Hurwitz zeta value ``zeta_order(-m, x)``.

    For ``order >= 1`` this is ``(-1)^order m! B^{(order)}_{m+order}(x)
    / (m+order)!`` where ``B^{(d)}_n`` is the higher-order Bernoulli
    polynomial; ``order == 0`` degenerates to ``x**m``.
    """
    if m < 0:
        raise ValueError("negative-argument evaluation needs m >= 0")
    if order < 0:
        raise ValueError("order must be nonnegative")
    x = Fraction(x)
    if order == 0:
        return x ** m
    value = bernoulli_polynomial(m + order, order=order)(x)
    return Fraction((-1) ** order * factorial(m), factorial(m + order)) * value


@lru_cache(maxsize=None)
def _abel_weight(order: int, j: int) -> Fraction:
    """Value ``A_j(1)`` of ``A_j(t) = (t d/dt)^j (1+t)^(-order)``.

    These are the Abel limits of ``sum_v C(v+order-1, v) (-1)^v v^j``.
    Since ``(t d/dt)^j = sum_k S2(j, k) t^k (d/dt)^k``, the value is
    ``sum_k S2(j, k) (-1)^k order^(k rising) / 2^(order+k)``.
    """
    total = Fraction(0)
    rising = 1
    for k in range(j + 1):
        total += Fraction((-1) ** k * stirling_second(j, k) * rising, 2 ** (order + k))
        rising *= order + k
    return total


def eta_neg(m: int, x, order: int = 1) -> Fraction:
    """Multiple Hurwitz-Euler eta value at ``s = -m``.

    Abel-sums the defining alternating series
    ``2^d sum_v (-1)^v C(v+d-1, v) (x+v)^m`` term by term.  The value
    equals the higher-order Euler polynomial ``E^{(order)}_m(x)``, which
    :func:`finsum.special.euler_polynomial` builds by another route.
    """
    if m < 0:
        raise ValueError("negative-argument evaluation needs m >= 0")
    if order < 0:
        raise ValueError("order must be nonnegative")
    x = Fraction(x)
    if order == 0:
        return x ** m
    total = Fraction(0)
    for j in range(m + 1):
        total += comb(m, j) * x ** (m - j) * _abel_weight(order, j)
    return Fraction(2) ** order * total


def lerch_neg(lam, n: int, b=1) -> Fraction:
    """Value of the analytically continued series ``sum_v w^v (v+b)^{n-1}``.

    Equals ``-B_n(b; w)/n`` with ``B_n(b; w)`` the weighted Bernoulli
    polynomial; requires ``n >= 1`` and a weight different from 0 and 1.
    """
    if n < 1:
        raise ValueError("interpolation parameter n must satisfy n >= 1")
    w = Fraction(lam)
    if w == 0 or w == 1:
        raise ValueError("weight must differ from 0 and 1")
    return -apostol_bernoulli_value(n, w, b=Fraction(b)) / n


def lerch_partial(lam, n: int, b=1, terms: int = 200) -> Fraction:
    """Exact partial sum ``sum_{v=0}^{terms} w^v (v+b)^{n-1}``."""
    w = Fraction(lam)
    base = Fraction(b)
    total = Fraction(0)
    power = Fraction(1)
    for v in range(terms + 1):
        total += power * (base + v) ** (n - 1)
        power *= w
    return total


@lru_cache(maxsize=None)
def geometric_moment(j: int) -> RationalFunction:
    """``(w d/dw)^j [1/(1-w)]`` as a rational function of the weight."""
    if j < 0:
        raise ValueError("moment order must be nonnegative")
    w = RationalFunction.variable()
    if j == 0:
        return (1 - w) ** (-1)
    prev = geometric_moment(j - 1)
    return w * prev.derivative()


def weighted_number_sum(M: int, q=None):
    """Weighted Stirling sum ``sum_n (n+1)! w^{n+1} S(n, w) S2(M, n+1)``.

    With ``q`` a rational weight the exact value is returned; with
    ``q=None`` the sum is assembled symbolically as a rational function
    of the weight.  In both cases the result equals the weighted
    Bernoulli number of index ``M`` at that weight.
    """
    if M < 0:
        raise ValueError("index must be nonnegative")
    if q is None:
        L = RationalFunction.variable()
        total = RationalFunction(0)
        for n in range(M):
            s2 = stirling_second(M, n + 1)
            if s2:
                total = total + (L ** (n + 1)) * logsum_symbolic(n) * Fraction(
                    factorial(n + 1) * s2
                )
        return total
    w = Fraction(q)
    total = Fraction(0)
    for n, value in zip(range(M), logsum_recurrence_values(w)):
        s2 = stirling_second(M, n + 1)
        if s2:
            total += factorial(n + 1) * s2 * w ** (n + 1) * value
    return total


# ---------------------------------------------------------------------------
# exponential-parameter expansions
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def exp_parameter_series(n: int, sign: int, scale: int, T: int) -> LaurentSeries:
    """Laurent expansion in ``t`` of ``S(n, sign * exp(-scale * t))``.

    ``sign=-1`` gives an ordinary power series (the parameter sits at
    ``-1`` when ``t = 0``); ``sign=+1`` produces a pole of order ``n+1``
    because the parameter then approaches the singular point ``1``.  The
    result is exact through order ``T``.

    The defining sum ``sum_j (-1)^n/(j+1) lambda^-(j+1) (lambda-1)^-(n+1-j)``
    is built without powers of ``lambda``: ``lambda^-(j+1)`` is the
    exponential ``sign^(j+1) exp((j+1) scale t)``, and the powers of
    ``1/(lambda-1)`` come from one inverse by repeated products.  At
    ``sign=+1``, ``lambda-1`` has a simple zero at ``t = 0``, so an expansion
    exact through ``W`` gives ``1/(lambda-1)^k`` exact through ``W-k-1``.  The
    pole of order ``n+1`` is therefore exact through ``T`` from the working
    order ``W = T+n+2`` on, and that least order keeps every term exact
    through ``T``; at ``sign=-1`` nothing is lost and the sum is cut at ``T``.
    """
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    if scale not in (1, 2):
        raise ValueError("scale must be 1 or 2")
    if n < 0:
        raise ValueError("index must be nonnegative")
    W = T + n + 2
    lam = LaurentSeries.exponential(W, Fraction(-scale))
    if sign == -1:
        lam = -lam
    inverse = (lam - 1).inverse(through=W)
    power = LaurentSeries.one()
    total = LaurentSeries.zero(T)
    for j in range(n, -1, -1):  # power = (lambda-1)^-(n+1-j)
        power = power * inverse
        growth = LaurentSeries.exponential(W, Fraction((j + 1) * scale))
        total = total + growth * power * Fraction(sign ** (j + 1) * (-1) ** n, j + 1)
    return total


# ---------------------------------------------------------------------------
# closed coefficient formulas for the exponential-parameter expansions
# ---------------------------------------------------------------------------

def eta_coefficient_sum(n: int, m: int) -> Fraction:
    """Coefficient of ``t^m`` in ``S(n, -exp(-t))``.

    Equals ``(1/m!) sum_j E^{(d)}_m(n+2) / ((j+1) 2^d)`` with
    ``d = n+1-j``.
    """
    total = Fraction(0)
    for j in range(n + 1):
        d = n + 1 - j
        total += euler_polynomial(m, order=d)(Fraction(n + 2)) / Fraction(
            (j + 1) * 2 ** d
        )
    return total / factorial(m)


def eta_multinomial_sum(n: int, m: int) -> Fraction:
    """Multinomial expansion of ``sum_j E^{(d)}_m(n+2) / ((j+1) 2^d)``.

    Each higher-order Euler polynomial is unfolded into single Euler
    polynomial values at zero: with ``e_k = E_k(0)``, the sum over weak
    compositions of ``l`` into ``d`` parts is the ``l``-th term of the
    ``d``-fold binomial convolution of ``e``, built one convolution per
    ``d``.  The route never constructs a higher-order polynomial.
    """
    euler = [euler_polynomial(k)(Fraction(0)) for k in range(m + 1)]
    conv = [Fraction(1)] + [Fraction(0)] * m
    total = Fraction(0)
    for d in range(1, n + 2):
        conv = [
            sum((comb(l, i) * euler[i] * conv[l - i] for i in range(l + 1)), Fraction(0))
            for l in range(m + 1)
        ]
        inner = sum(
            (comb(m, l) * Fraction(n + 2) ** (m - l) * conv[l] for l in range(m + 1)),
            Fraction(0),
        )
        total += inner / Fraction((n + 2 - d) * 2 ** d)
    return total


def hurwitz_coefficient_sum(n: int, m: int) -> Fraction:
    """Coefficient of ``t^m`` (``m >= 0``) in ``S(n, exp(-t))``.

    Only the regular part of the Laurent expansion is produced:
    ``((-1)^n / m!) sum_j zeta_d(-m, n+2)/(j+1)`` with ``d = n+1-j``.
    """
    total = Fraction(0)
    for j in range(n + 1):
        d = n + 1 - j
        total += hurwitz_neg(m, Fraction(n + 2), order=d) / (j + 1)
    return Fraction((-1) ** n) * total / factorial(m)


def hurwitz_cancellation(n: int, m: int) -> Fraction:
    """Telescoping combination of Hurwitz values and Bernoulli weights.

    ``sum_j (1/(j+1)) [ (-1)^n zeta_d(-m, n+2)
    + (-1)^j B^{(d)}_{m+d}(n+2) / (C(m+d, d) d!) ]`` vanishes because the
    two pieces cancel term by term; the exact value is returned so a
    caller can assert that it is zero.
    """
    total = Fraction(0)
    for j in range(n + 1):
        d = n + 1 - j
        first = Fraction((-1) ** n) * hurwitz_neg(m, Fraction(n + 2), order=d)
        second = Fraction((-1) ** j) * bernoulli_polynomial(m + d, order=d)(
            Fraction(n + 2)
        ) / (comb(m + d, d) * factorial(d))
        total += (first + second) / (j + 1)
    return total


def even_coefficient_minus(n: int, m: int) -> Fraction:
    """Coefficient of ``t^m`` in ``S(n, -exp(-2t))`` (doubled scale)."""
    return Fraction(2) ** m * eta_coefficient_sum(n, m)


def even_regular_plus(n: int, m: int) -> Fraction:
    """Regular coefficient of ``t^m`` in ``S(n, exp(-2t))``.

    ``sum_j (-1)^{j+1} 2^m B^{(d)}_{m+d}(n+2) / ((j+1) (m+d)!)``.
    """
    total = Fraction(0)
    for j in range(n + 1):
        d = n + 1 - j
        total += (
            Fraction((-1) ** (j + 1), j + 1)
            * Fraction(2) ** m
            * bernoulli_polynomial(m + d, order=d)(Fraction(n + 2))
            / factorial(m + d)
        )
    return total


def even_regular_half_argument(n: int, m: int) -> Fraction:
    """Half-argument binomial form of :func:`even_regular_plus`.

    Rewrites ``1/(e^{2t}-1)^d`` as ``(e^{2t}+1)^d/(e^{4t}-1)^d`` and
    expands the binomial, yielding
    ``sum_j ((-1)^{j+1}/(j+1)) (4^m/(m+d)!)
    sum_i C(d, i) B^{(d)}_{m+d}((n+2+i)/2)``.
    """
    total = Fraction(0)
    for j in range(n + 1):
        d = n + 1 - j
        inner = Fraction(0)
        for i in range(d + 1):
            inner += comb(d, i) * bernoulli_polynomial(m + d, order=d)(
                Fraction(n + 2 + i, 2)
            )
        total += (
            Fraction((-1) ** (j + 1), j + 1) * Fraction(4) ** m / factorial(m + d)
        ) * inner
    return total


def printed_even_bernoulli(n: int, m: int) -> Fraction:
    """Faithful evaluation of a printed—but wrong—coefficient formula.

    The printed display collapses the alternating sign, asserting
    ``-sum_j B^{(d)}_{m+d}(n+2) / ((j+1) 2^d (m+d)!)`` for the ``t^m``
    coefficient of the doubled-scale expansion.  It matches neither the
    plus-map nor the minus-map coefficients.
    """
    total = Fraction(0)
    for j in range(n + 1):
        d = n + 1 - j
        total -= bernoulli_polynomial(m + d, order=d)(Fraction(n + 2)) / Fraction(
            (j + 1) * 2 ** d * factorial(m + d)
        )
    return total


def printed_even_convolution(n: int, m: int) -> Fraction:
    """Faithful evaluation of a printed—but wrong—convolution formula.

    ``sum_j ((-1)^{j+1}/((j+1) 2^d)) sum_c (B^{(d)}_{c+d}(2n+4)/(c+d)!)
    (E^{(d)}_{m-c}(n+2)/(m-c)!)``: a Bernoulli factor at the doubled
    argument convolved with an Euler factor at the plain argument.  The
    leftover factor ``(e^{2t}+1)^d`` of the underlying kernels never
    cancels, so the value disagrees with every true coefficient.
    """
    total = Fraction(0)
    for j in range(n + 1):
        d = n + 1 - j
        inner = Fraction(0)
        for c in range(m + 1):
            inner += (
                bernoulli_polynomial(c + d, order=d)(Fraction(2 * n + 4))
                / factorial(c + d)
            ) * (
                euler_polynomial(m - c, order=d)(Fraction(n + 2))
                / factorial(m - c)
            )
        total += Fraction((-1) ** (j + 1), (j + 1) * 2 ** d) * inner
    return total


def printed_closing_lhs(n: int, m: int) -> Fraction:
    """Left side of the printed closing balance (``m!`` times the
    Bernoulli coefficient sum with its alternating sign kept)."""
    total = Fraction(0)
    for j in range(n + 1):
        d = n + 1 - j
        total += (
            Fraction((-1) ** (j + 1) * factorial(m), (j + 1) * 2 ** d)
            * bernoulli_polynomial(m + d, order=d)(Fraction(n + 2))
            / factorial(m + d)
        )
    return total


def printed_closing_rhs(n: int, m: int) -> Fraction:
    """Right side of the printed closing balance (``m!`` times the
    convolution form, with the Euler argument read as ``n+2``)."""
    return factorial(m) * printed_even_convolution(n, m)


def even_map_rhs_series(n: int, T: int) -> LaurentSeries:
    """Series ``sum_j ((-1)^{j+1}/(j+1)) e^{2t(n+2)} / (e^{2t}-1)^d``.

    This is the right-hand shape of a printed doubled-scale identity.
    Algebraically it reproduces the expansion of ``S(n, exp(-2t))``
    (the plus map) — not ``S(n, -exp(-2t))`` as printed.
    """
    work = T + 2 * (n + 2) + 4
    growth = LaurentSeries.exponential(work, Fraction(2))
    total = LaurentSeries.zero(T)
    for j in range(n + 1):
        d = n + 1 - j
        den = (growth - 1) ** d
        term = (growth ** (n + 2)).divide(den, through=T)
        total = total + term * Fraction((-1) ** (j + 1), j + 1)
    return total


# ---------------------------------------------------------------------------
# derangement balance
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def derangement_sides(n: int) -> tuple:
    """Sides of the symbolic balance between derangement and log-sum numbers.

    The true identity compares
    ``lhs = -(1/n!) sum_m C(n, m) ((1-w)/w)^{n-m+1} D_{n-m} d_m`` with
    ``rhs = sum_j ((-1)^{n-j}/(n-j)!) (1-w)^{j+2} S(j, w)`` as rational
    functions of the weight ``w`` (``D`` Daehee numbers, ``d``
    derangement numbers).  A published variant omits the ``1/n!`` —
    the two sides come from an exponential and an ordinary generating
    function respectively — so the unscaled ``printed_lhs`` is returned
    too; it differs from ``rhs`` from ``n = 2`` on.  Returns
    ``(lhs, rhs, printed_lhs)``.
    """
    L = RationalFunction.variable()
    ratio = (1 - L) / L
    printed_lhs = RationalFunction(0)
    for m in range(n + 1):
        printed_lhs = printed_lhs - (ratio ** (n - m + 1)) * (
            Fraction(comb(n, m) * derangement(m)) * daehee(n - m)
        )
    lhs = printed_lhs * Fraction(1, factorial(n))
    rhs = RationalFunction(0)
    for j in range(n + 1):
        rhs = rhs + ((1 - L) ** (j + 2)) * logsum_symbolic(j) * Fraction(
            (-1) ** (n - j), factorial(n - j)
        )
    return lhs, rhs, printed_lhs


# ---------------------------------------------------------------------------
# cosine series (the only floating-point corner)
# ---------------------------------------------------------------------------

def cos_closed_form(lam: float) -> float:
    """Closed value of ``sum_{v>=0} w^v cos(v)`` for ``|w| < 1``."""
    c = cos(1.0)
    lam = float(lam)
    return (1.0 - lam * c) / (1.0 - 2.0 * lam * c + lam * lam)


def cos_geometric_partial(lam: float, terms: int = 200) -> float:
    """Direct partial sum ``sum_{v=0}^{terms} w^v cos(v)``."""
    lam = float(lam)
    total = 0.0
    power = 1.0
    for v in range(terms + 1):
        total += power * cos(float(v))
        power *= lam
    return total


def odd_weighted_partial(lam, M: int, form: str = "corrected") -> float:
    """Partial sum over odd-index weighted Bernoulli numbers.

    ``form="corrected"`` sums ``(-1)^m B_{2m-1}(w) / (2m-1)!`` for
    ``m = 1..M``, which converges to :func:`cos_closed_form`.  The
    weighted Bernoulli numbers are produced exactly through the weighted
    Stirling sum over the log-sum numbers; only the final accumulation
    is floating point.  ``form="printed"`` keeps the weights of a
    misprinted display, ``(-1)^{m+1} B_{2m-1}(w) / (2 (2m-1)!)``, which
    converges to minus one half of the closed value instead.
    """
    if form not in ("corrected", "printed"):
        raise ValueError("form must be 'corrected' or 'printed'")
    w = Fraction(str(lam)) if isinstance(lam, float) else Fraction(lam)
    total = 0.0
    for m in range(1, M + 1):
        inner = weighted_number_sum(2 * m - 1, w)
        if form == "corrected":
            total += ((-1) ** m) * float(inner) / factorial(2 * m - 1)
        else:
            total += ((-1) ** (m + 1)) * float(inner) / (2 * factorial(2 * m - 1))
    return total


def fib_cos_partial(lam: float, N: int = 40) -> float:
    """Partial sum of the three-term-polynomial form of the cosine series.

    ``1 + sum_{n=1}^{N} (G_n - G_{n-1} cos(1)) w^n`` where ``G_n`` is
    the generalized three-term sequence with parameters
    ``x = 2 cos(1)``, ``y = -1`` and unit exponents (``G_0 = 1``).
    """
    lam = float(lam)
    c = cos(1.0)
    prev = 1.0
    total = 1.0
    power = 1.0
    for n in range(1, N + 1):
        cur = fib_term(n, 2.0 * c, -1.0, 1, 1, 1)
        power *= lam
        total += (cur - prev * c) * power
        prev = cur
    return total


def cos_series_partial(lam: float, M: int):
    """Convenience wrapper returning ``(partial, closed)``.

    ``partial`` is the corrected odd-weighted partial sum with ``M``
    terms; ``closed`` is the geometric closed form.  The three-term
    polynomial route is cross-evaluated as an internal consistency
    check.  Budgets: ``|w| <= 0.3`` and ``1 <= M <= 60``.
    """
    lam = float(lam)
    if abs(lam) > 0.3:
        raise ValueError("weight magnitude must stay within 0.3")
    if not 1 <= M <= 60:
        raise ValueError("term count must lie in 1..60")
    partial = odd_weighted_partial(lam, M)
    closed = cos_closed_form(lam)
    cross = fib_cos_partial(lam, 60)
    if abs(cross - closed) > 1e-8:
        raise ArithmeticError("three-term route disagrees with the closed form")
    return partial, closed
