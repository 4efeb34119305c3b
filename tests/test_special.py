"""Checks for the classical number families and their independent routes."""

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
    falling_factorial,
    harmonic,
    harmonic_alternating,
    integral_unit_interval,
    leibnitz,
    stirling_first,
    stirling_second,
)
from kernel_reference import euler_number


# ---------------------------------------------------------------------------
# Bernoulli numbers
# ---------------------------------------------------------------------------

def test_bernoulli_frozen_values():
    assert [bernoulli(n) for n in range(7)] == [
        F(1), F(-1, 2), F(1, 6), 0, F(-1, 30), 0, F(1, 42)]
    assert bernoulli(12) == F(-691, 2730)
    assert all(bernoulli(n) == 0 for n in range(3, 20, 2))


def test_bernoulli_routes_agree():
    for n in range(21):
        assert bernoulli(n, "recurrence") == bernoulli(n, "series")


def test_bernoulli_table_time_budget():
    for value in vars(special).values():
        if hasattr(value, "cache_clear"):
            value.cache_clear()
    start = time.perf_counter()
    table = [bernoulli(n) for n in range(201)]
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"B_0..B_200 exceeded its 1s budget: {elapsed:.2f}s"
    assert table[200] == bernoulli(200, "series")


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


def test_stirling_first_expands_falling_factorial():
    x = Polynomial.variable()
    product = Polynomial.constant(F(1))
    for d in range(41):
        got = falling_factorial(d)
        assert got == product and hash(got) == hash(product)
        assert all(type(c) is F for c in got.coeffs)
        assert product.coeffs == tuple(stirling_first(d, j) for j in range(d + 1))
        product = product * (x - d)


def test_stirling_first_routes_agree():
    for n in range(11):
        for k in range(n + 1):
            assert stirling_first(n, k, "formula") == stirling_first(n, k)


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


def test_stirling_second_routes_agree():
    for n in range(11):
        for k in range(n + 1):
            assert stirling_second(n, k, "formula") == stirling_second(n, k)


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


def test_daehee_routes_agree():
    for n in range(13):
        closed = daehee(n, "closed")
        assert daehee(n, "bernoulli_stirling") == closed
        assert daehee(n, "series") == closed


# ---------------------------------------------------------------------------
# harmonic numbers
# ---------------------------------------------------------------------------

def test_harmonic_frozen_values():
    assert harmonic(0) == 0
    assert harmonic(4) == F(25, 12)
    assert harmonic_alternating(4) == F(-7, 12)
    assert harmonic_alternating(1) == -1


def test_harmonic_routes_agree():
    for n in range(16):
        assert harmonic(n, "series") == harmonic(n)
        assert harmonic_alternating(n, "series") == harmonic_alternating(n)


@given(st.integers(1, 40))
def test_harmonic_difference(n):
    assert harmonic(n) - harmonic(n - 1) == F(1, n)


# ---------------------------------------------------------------------------
# derangements
# ---------------------------------------------------------------------------

def test_derangement_frozen_values():
    assert [derangement(n) for n in range(7)] == [1, 0, 1, 2, 9, 44, 265]


def test_derangement_routes_agree():
    for n in range(13):
        d = derangement(n)
        assert derangement(n, "recurrence") == d
        assert derangement(n, "series") == d


# ---------------------------------------------------------------------------
# Leibnitz fractions
# ---------------------------------------------------------------------------

def test_leibnitz_frozen_values():
    assert leibnitz(3, 1) == F(1, 12)
    assert leibnitz(2, 1) == F(1, 6)
    assert leibnitz(5, 0) == F(1, 6)


def test_leibnitz_routes_agree():
    for m in range(11):
        for l in range(m + 1):
            closed = leibnitz(m, l)
            assert leibnitz(m, l, "alternating") == closed
            assert leibnitz(m, l, "integral") == closed
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
    for n in range(13):
        assert bernoulli_second(n, "integral") == bernoulli_second(n, "series")


def test_integral_unit_interval():
    x = Polynomial.variable()
    assert integral_unit_interval(x ** 2) == F(1, 3)
    assert integral_unit_interval(Polynomial()) == 0


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


def test_apostol_bernoulli_routes_agree():
    for n in range(11):
        assert apostol_bernoulli(n, "formula") == apostol_bernoulli(n, "series")


def test_apostol_bernoulli_value_routes():
    for lam in (F(2), F(1, 2), F(-1), F(5, 3)):
        for n in range(9):
            assert (apostol_bernoulli_value(n, lam)
                    == apostol_bernoulli_value(n, lam, method="series"))
            for b in (F(0), F(1), F(-1, 2)):
                assert (apostol_bernoulli_value(n, lam, b=b)
                        == apostol_bernoulli_value(n, lam, b=b, method="series"))


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


def test_apostol_bernoulli_weight_domain():
    with pytest.raises(ValueError):
        apostol_bernoulli_value(3, 1)
    with pytest.raises(ValueError):
        apostol_bernoulli_value(3, 0)
