"""Checks for the classical number families against independent routes.

Each family in ``finsum.special`` runs one route; the other routes live
here as references (series, closed double sums, recurrences, integrals),
each next to the test that compares the library function with it.
"""

import inspect
import math
import sys
import time
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from finsum import special
from finsum.exact import LaurentSeries, Polynomial, RationalFunction
from finsum.special import (
    apostol_bernoulli,
    apostol_bernoulli_polynomial,
    apostol_bernoulli_value,
    bernoulli,
    bernoulli_polynomial,
    bernoulli_second,
    daehee,
    derangement,
    euler_polynomial,
    harmonic,
    harmonic_alternating,
    leibnitz,
    stirling_first,
    stirling_second,
)
from kernel_reference import euler_number, polynomial_text_reference


# ---------------------------------------------------------------------------
# Bernoulli numbers
# ---------------------------------------------------------------------------

def test_bernoulli_frozen_values():
    assert [bernoulli(n) for n in range(7)] == [
        F(1), F(-1, 2), F(1, 6), 0, F(-1, 30), 0, F(1, 42)]
    assert bernoulli(12) == F(-691, 2730)
    assert all(bernoulli(n) == 0 for n in range(3, 20, 2))


def bernoulli_series_reference(n):
    """B_n as n! [u^n] u/(e^u - 1)."""
    den = LaurentSeries.exponential(n + 1) - LaurentSeries.one()
    ratio = LaurentSeries.monomial(1, 1) / den
    return ratio.coefficient(n) * math.factorial(n)


def test_bernoulli_routes_agree():
    for n in range(21):
        assert bernoulli(n) == bernoulli_series_reference(n)


def test_bernoulli_table_time_budget():
    for value in vars(special).values():
        if hasattr(value, "cache_clear"):
            value.cache_clear()
    start = time.perf_counter()
    table = [bernoulli(n) for n in range(201)]
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"B_0..B_200 exceeded its 1s budget: {elapsed:.2f}s"
    assert table[200] == bernoulli_series_reference(200)


# ---------------------------------------------------------------------------
# Stirling numbers
# ---------------------------------------------------------------------------

def test_stirling_first_frozen_values():
    assert stirling_first(4, 2) == 11
    assert stirling_first(3, 1) == 2
    assert stirling_first(4, 1) == -6
    assert stirling_first(2, 1) == -1
    assert stirling_first(5, 5) == 1
    assert stirling_first(4, 0) == 0
    assert stirling_first(3, 7) == 0
    assert stirling_first(3, -1) == 0


def falling_factorial(n):
    """x (x-1) ... (x-n+1) as a Polynomial with Fraction coefficients, read
    off the signed Stirling row of the first kind."""
    return Polynomial(tuple(F(stirling_first(n, k)) for k in range(n + 1)))


def test_stirling_first_expands_falling_factorial():
    x = Polynomial.variable()
    product = Polynomial.constant(F(1))
    for d in range(41):
        got = falling_factorial(d)
        assert got == product and hash(got) == hash(product)
        assert all(type(c) is F for c in got.coeffs)
        assert product.coeffs == tuple(stirling_first(d, j) for j in range(d + 1))
        product = product * (x - d)


def _binom(a, b):
    """Binomial coefficient with the degenerate-index conventions the
    closed double sum below relies on: C(a, b) = 0 for b < 0 except on the
    diagonal (C(a, a) = 1), and the alternating value for negative a."""
    if b < 0:
        return 1 if a == b else 0
    if a < 0:
        return (-1) ** b * math.comb(b - a - 1, b)
    return math.comb(a, b)


def stirling_first_formula_reference(n, k):
    """s(n, k) from the closed quadruple-binomial double sum, checked to be
    an integer; 0**0 == 1 is load-bearing."""
    total = F(0)
    for c in range(n - k + 1):
        inner = 0
        for j in range(c + 1):
            inner += (-1) ** j * math.comb(c, j) * j ** (n - k + c)
        if inner:
            total += F(
                _binom(n + c - 1, k - 1) * _binom(2 * n - k, n - k - c) * inner,
                math.factorial(c),
            )
    assert total.denominator == 1, (total, n, k)
    return total.numerator


def test_stirling_first_routes_agree():
    for n in range(11):
        for k in range(n + 1):
            assert stirling_first_formula_reference(n, k) == stirling_first(n, k)


@given(st.integers(0, 12), st.integers(0, 13))
def test_stirling_first_recurrence_property(n, k):
    assert stirling_first(n + 1, k) == (
        stirling_first(n, k - 1) - n * stirling_first(n, k))


def test_stirling_second_frozen_values():
    assert stirling_second(4, 2) == 7
    assert stirling_second(5, 3) == 25
    assert all(stirling_second(n, 1) == 1 for n in range(1, 8))
    assert all(stirling_second(n, n) == 1 for n in range(8))
    assert stirling_second(4, 0) == 0


def stirling_second_formula_reference(n, k):
    """S(n, k) = (1/k!) sum_c (-1)^(k-c) C(k, c) c^n, checked to be an
    integer."""
    acc = sum((-1) ** (k - c) * math.comb(k, c) * c ** n for c in range(k + 1))
    q, r = divmod(acc, math.factorial(k))
    assert r == 0, (n, k)
    return q


def test_stirling_second_routes_agree():
    for n in range(11):
        for k in range(n + 1):
            assert stirling_second_formula_reference(n, k) == stirling_second(n, k)


def test_stirling_pair_inverts_power_basis():
    # x^n = sum_k S2(n, k) * x(x-1)...(x-k+1)
    x = Polynomial.variable()
    for n in range(8):
        acc = Polynomial()
        for k in range(n + 1):
            acc = acc + falling_factorial(k) * stirling_second(n, k)
        assert acc == x ** n


def test_stirling_tables_run_without_recursion():
    for value in vars(special).values():
        if hasattr(value, "cache_clear"):
            value.cache_clear()
    for table in (special._STIRLING_FIRST_ROWS, special._STIRLING_SECOND_ROWS):
        del table[1:]
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack(0)) + 100)
    try:
        assert falling_factorial(300).coeffs == tuple(stirling_first(300, k) for k in range(301))
        assert stirling_second(300, 3) == (3 ** 300 - 3 * 2 ** 300 + 3) // 6
    finally:
        sys.setrecursionlimit(limit)


# ---------------------------------------------------------------------------
# Daehee numbers
# ---------------------------------------------------------------------------

def test_daehee_frozen_values():
    assert [daehee(n) for n in range(5)] == [1, F(-1, 2), F(2, 3), F(-3, 2), F(24, 5)]
    assert daehee(5, "bernoulli_stirling") == -20


def test_daehee_keeps_two_routes():
    with pytest.raises(ValueError):
        daehee(3, "series")


def daehee_series_reference(n):
    """D_n as n! [u^n] log(1+u)/u."""
    ratio = LaurentSeries.mercator(n + 1) / LaurentSeries.monomial(1, 1)
    return ratio.coefficient(n) * math.factorial(n)


def test_daehee_routes_agree():
    for n in range(13):
        closed = daehee(n, "closed")
        assert daehee(n, "bernoulli_stirling") == closed
        assert daehee_series_reference(n) == closed


# ---------------------------------------------------------------------------
# harmonic numbers
# ---------------------------------------------------------------------------

def test_harmonic_frozen_values():
    assert harmonic(0) == 0
    assert harmonic(4) == F(25, 12)
    assert harmonic_alternating(4) == F(-7, 12)
    assert harmonic_alternating(1) == -1


def harmonic_series_reference(n, alternating=False):
    """[u^n] log(1-u)/(u-1) = H_n, or with alternating [u^n] log(1+u)/(u-1)."""
    num = LaurentSeries.mercator(n) if alternating else LaurentSeries.mercator(n, scale=F(-1))
    den = LaurentSeries.from_polynomial(Polynomial((F(-1), F(1))))
    return (num / den).coefficient(n)


def test_harmonic_routes_agree():
    for n in range(16):
        assert harmonic_series_reference(n) == harmonic(n)
        assert harmonic_series_reference(n, alternating=True) == harmonic_alternating(n)


@given(st.integers(1, 40))
def test_harmonic_difference(n):
    assert harmonic(n) - harmonic(n - 1) == F(1, n)


# ---------------------------------------------------------------------------
# derangements
# ---------------------------------------------------------------------------

def test_derangement_frozen_values():
    assert [derangement(n) for n in range(7)] == [1, 0, 1, 2, 9, 44, 265]


def derangement_recurrence_reference(n):
    """d_m = m d_(m-1) + (-1)^m from d_0 = 1."""
    d = 1
    for m in range(1, n + 1):
        d = m * d + (-1) ** m
    return d


def derangement_series_reference(n):
    """n! [u^n] exp(-u)/(1-u), checked to be an integer."""
    gf = LaurentSeries.exponential(n, F(-1)) * LaurentSeries.geometric(n)
    val = gf.coefficient(n) * math.factorial(n)
    assert val.denominator == 1, n
    return val.numerator


def test_derangement_routes_agree():
    for n in range(13):
        d = derangement(n)
        assert derangement_recurrence_reference(n) == d
        assert derangement_series_reference(n) == d


# ---------------------------------------------------------------------------
# Leibnitz fractions
# ---------------------------------------------------------------------------

def test_leibnitz_frozen_values():
    assert leibnitz(3, 1) == F(1, 12)
    assert leibnitz(2, 1) == F(1, 6)
    assert leibnitz(5, 0) == F(1, 6)


def integral_unit_interval(p):
    """Exact integral of a Polynomial over [0, 1]."""
    return sum((F(c) / (i + 1) for i, c in enumerate(p.coeffs)), F(0))


def test_integral_unit_interval():
    x = Polynomial.variable()
    assert integral_unit_interval(x ** 2) == F(1, 3)
    assert integral_unit_interval(Polynomial()) == 0


def leibnitz_alternating_reference(m, l):
    """sum_d (-1)^(l-d) C(l, d) / (m-d+1)."""
    return sum((F((-1) ** (l - d) * math.comb(l, d), m - d + 1) for d in range(l + 1)), F(0))


def leibnitz_integral_reference(m, l):
    """The Beta integral of x^l (1-x)^(m-l) over [0, 1]."""
    x = Polynomial.variable()
    return integral_unit_interval(x ** l * (Polynomial.constant(F(1)) - x) ** (m - l))


def test_leibnitz_routes_agree():
    for m in range(11):
        for l in range(m + 1):
            closed = leibnitz(m, l)
            assert leibnitz_alternating_reference(m, l) == closed
            assert leibnitz_integral_reference(m, l) == closed
            assert leibnitz(m, m - l) == closed  # symmetry for free


def test_leibnitz_domain():
    with pytest.raises(ValueError):
        leibnitz(2, 3)
    with pytest.raises(ValueError):
        leibnitz(2, -1)


# ---------------------------------------------------------------------------
# Bernoulli numbers of the second kind
# ---------------------------------------------------------------------------

def test_bernoulli_second_frozen_values():
    assert [bernoulli_second(n) for n in range(5)] == [
        1, F(1, 2), F(-1, 6), F(1, 4), F(-19, 30)]


def test_bernoulli_second_routes_agree():
    # b_n is the integral of the falling factorial (x)_n over [0, 1]
    for n in range(13):
        assert integral_unit_interval(falling_factorial(n)) == bernoulli_second(n)


# ---------------------------------------------------------------------------
# higher-order Bernoulli / Euler polynomials
# ---------------------------------------------------------------------------

def test_bernoulli_polynomial_first_order():
    y = Polynomial.variable()
    assert bernoulli_polynomial(2) == y ** 2 - y + F(1, 6)
    for m in range(11):
        assert bernoulli_polynomial(m)(F(0)) == bernoulli(m)


def test_bernoulli_polynomial_order_zero_and_constants():
    y = Polynomial.variable()
    for m in range(5):
        assert bernoulli_polynomial(m, 0) == y ** m
    # classical closed forms for the first two higher-order constants
    for a in range(1, 6):
        assert bernoulli_polynomial(1, a)(F(0)) == F(-a, 2)
        assert bernoulli_polynomial(2, a)(F(0)) == F(a * (3 * a - 1), 12)


def test_euler_polynomial_values():
    y = Polynomial.variable()
    assert euler_polynomial(1, 2) == y - 1
    assert euler_polynomial(1, 2)(F(3)) == 2
    assert [euler_polynomial(m)(F(0)) for m in range(6)] == [
        1, F(-1, 2), 0, F(1, 4), 0, F(-1, 2)]
    # cross-family: E_m(0) = -2 (2^(m+1) - 1) B_(m+1) / (m+1)
    for m in range(1, 11):
        expected = F(-2 * (2 ** (m + 1) - 1), m + 1) * bernoulli(m + 1)
        assert euler_polynomial(m)(F(0)) == expected


def appell_reference(base, m, order):
    """m! [u^m] base^order e^(y*u), with e^(y*u) a series whose coefficients
    are Polynomials in y."""
    y = Polynomial.variable()
    exp_y = LaurentSeries(0, [y ** j * F(1, math.factorial(j)) for j in range(m + 1)], m)
    c = (base ** order * exp_y).coefficient(m)
    c = c if isinstance(c, Polynomial) else Polynomial.constant(F(c))
    return c * math.factorial(m)


def test_higher_order_polynomials_match_the_series_construction():
    for m in range(15):
        T = m + 1
        bern = LaurentSeries.monomial(1, 1) / (LaurentSeries.exponential(T) - LaurentSeries.one())
        eul = LaurentSeries.monomial(2, 0) / (LaurentSeries.exponential(T) + LaurentSeries.one())
        for order in range(9):
            for got, base in ((bernoulli_polynomial(m, order), bern),
                              (euler_polynomial(m, order), eul)):
                expected = appell_reference(base, m, order)
                assert got == expected, (m, order)
                assert hash(got) == hash(expected)
                assert [type(c) for c in got.coeffs] == [type(c) for c in expected.coeffs]
                assert all(type(c) is F for c in got.coeffs)


def test_euler_numbers():
    assert [euler_number(n) for n in range(9)] == [1, 0, -1, 0, 5, 0, -61, 0, 1385]
    # independent oracle: E_n / n! is the u^n coefficient of 2/(e^u + e^-u)
    T = 10
    sech = LaurentSeries.monomial(2, 0) / (
        LaurentSeries.exponential(T) + LaurentSeries.exponential(T, F(-1)))
    for n in range(T + 1):
        assert euler_number(n) == sech.coefficient(n) * math.factorial(n)


# ---------------------------------------------------------------------------
# weighted Bernoulli family
# ---------------------------------------------------------------------------

def test_apostol_bernoulli_low_orders():
    w = RationalFunction.variable()
    assert apostol_bernoulli(0) == RationalFunction(0)
    assert apostol_bernoulli(1) == 1 / (w - 1)
    assert apostol_bernoulli(2) == -2 * w / (w - 1) ** 2
    assert apostol_bernoulli(3) == 3 * w * (w + 1) / (w - 1) ** 3


def apostol_bernoulli_formula_reference(n):
    """The weighted Bernoulli number as a closed sum over Stirling numbers
    of the second kind."""
    if n == 0:
        return RationalFunction(0)
    w = RationalFunction.variable()
    acc = RationalFunction(0)
    for c in range(n):
        acc = acc + (w ** (c - 1) * (w - 1) ** (n - 1 - c)
                     * ((-1) ** c * math.factorial(c) * stirling_second(n - 1, c)))
    return acc * w * n / (w - 1) ** n


def test_apostol_bernoulli_routes_agree():
    for n in range(11):
        assert apostol_bernoulli_formula_reference(n) == apostol_bernoulli(n)


def apostol_bernoulli_value_series_reference(n, weight, b=None):
    """n! [u^n] u e^(b u)/(weight e^u - 1) at a rational weight."""
    cs = [weight - 1] + [weight * F(1, math.factorial(j)) for j in range(1, n + 1)]
    num = LaurentSeries.monomial(1, 1)
    if b is not None:
        num = num * LaurentSeries.exponential(n, F(b))
    ratio = num / LaurentSeries(0, cs, n)
    return ratio.coefficient(n) * math.factorial(n)


def test_apostol_bernoulli_value_routes():
    for lam in (F(2), F(1, 2), F(-1), F(5, 3)):
        for n in range(9):
            assert (apostol_bernoulli_value(n, lam)
                    == apostol_bernoulli_value_series_reference(n, lam))
            for b in (F(0), F(1), F(-1, 2)):
                assert (apostol_bernoulli_value(n, lam, b=b)
                        == apostol_bernoulli_value_series_reference(n, lam, b=b))


def test_apostol_bernoulli_shift_identity():
    # w * AB_n(1; w) = AB_n(w) for n >= 2 (and picks up +n at n = 1)
    lam = F(3)
    assert lam * apostol_bernoulli_value(1, lam, b=1) == 1 + apostol_bernoulli_value(1, lam)
    for n in range(2, 9):
        assert lam * apostol_bernoulli_value(n, lam, b=1) == apostol_bernoulli_value(n, lam)


def test_apostol_bernoulli_polynomial_renders():
    # sanity: exotic coefficients render without blowing up; note the
    # degree drops to n-1 because the order-zero weighted number vanishes
    text = apostol_bernoulli_polynomial(2).to_text("b")
    assert "*b" in text and "/" in text


def test_apostol_bernoulli_polynomial_text_matches_reference():
    # RationalFunction coefficients print in parentheses, ints and Fractions
    # inside them through the same formatter
    p = apostol_bernoulli_polynomial(3)
    for descending in (False, True):
        assert p.to_text("b", descending) == polynomial_text_reference(p, "b", descending)


def test_apostol_bernoulli_weight_domain():
    with pytest.raises(ValueError):
        apostol_bernoulli_value(3, 1)
    with pytest.raises(ValueError):
        apostol_bernoulli_value(3, 0)
