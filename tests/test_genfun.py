"""Series-side tests: coefficient contracts, specialisations, companions."""

from fractions import Fraction

import pytest

from finsum.exact import LaurentSeries, Polynomial, RationalFunction
from finsum.genfun import (
    alternating_harmonic_gf,
    fib_gf,
    fib_term,
    gauss_2f1,
    harmonic_gf,
    leibnitz_gf,
    leibnitz_polynomial,
    log_gf,
    log_gf_special,
    log_product_gf,
)
from finsum.logsum import logsum_value
from finsum.special import harmonic, harmonic_alternating

HALF = Fraction(1, 2)

PARAMS = [Fraction(2), Fraction(-1), HALF, Fraction(5, 3), Fraction(-7, 4)]


def test_log_gf_coefficients_match_sums():
    T = 15
    for q in PARAMS:
        series = log_gf(T, q)
        for n in range(T + 1):
            assert series.coefficient(n) == (1 - q) ** (n + 2) * logsum_value(n, q)


def test_log_gf_symbolic_parameter():
    var = RationalFunction.variable()
    series = log_gf(8, var)
    for n in range(9):
        expect = (1 - var) ** (n + 2) * RationalFunction(1)
        from finsum.logsum import logsum_symbolic

        assert series.coefficient(n) == expect * logsum_symbolic(n)


def test_special_series_frozen_leading_coefficients():
    g1 = log_gf_special("g1", 6)
    g2 = log_gf_special("g2", 6)
    g3 = log_gf_special("g3", 6)
    assert g1.coefficients(0, 1) == [Fraction(2), Fraction(4)]
    assert g2.coefficients(0, 1) == [Fraction(1, 2), Fraction(5, 8)]
    assert g3.coefficients(0, 3) == [
        Fraction(-1),
        Fraction(-1, 2),
        Fraction(-5, 6),
        Fraction(-7, 12),
    ]


def test_special_series_match_general_series():
    T = 12
    assert log_gf_special("g1", T).agrees_with(log_gf(T, Fraction(-1)), through=T)
    assert log_gf_special("g2", T).agrees_with(log_gf(T, Fraction(2)), through=T)
    assert log_gf_special("g3", T).agrees_with(log_gf(T, HALF), through=T)
    with pytest.raises(ValueError):
        log_gf_special("g4", 5)


def test_gauss_2f1_basics():
    series = gauss_2f1(1, 1, 2, 10)
    assert series.coefficients(0, 4) == [Fraction(1, m + 1) for m in range(5)]
    binomial = gauss_2f1(3, 1, 1, 8)
    # (1 - z)^(-3): coefficients C(m+2, 2)
    assert binomial.coefficients(0, 5) == [
        Fraction((m + 2) * (m + 1), 2) for m in range(6)
    ]
    with pytest.raises(ValueError):
        gauss_2f1(1, 1, 0, 4)
    with pytest.raises(ValueError):
        gauss_2f1(1, 1, -3, 4)


def test_hypergeometric_rewrite_of_log_gf():
    T = 20
    for q in PARAMS:
        lhs = log_gf(T, q)
        prefactor = (1 - q) / q
        inv = LaurentSeries.from_polynomial(
            Polynomial((Fraction(-1), Fraction(1)))
        ).inverse(through=T)
        rhs = prefactor * inv * gauss_2f1(1, 1, 2, T, (q - 1) / q)
        assert lhs.agrees_with(rhs, through=T)


def test_harmonic_series_wrappers():
    hg = harmonic_gf(10)
    ag = alternating_harmonic_gf(10)
    for n in range(1, 10):
        assert hg.coefficient(n) == harmonic(n)
        assert ag.coefficient(n) == harmonic_alternating(n)
    # difference of the alternating series and the g3 series: (-1)^n/(n+1)
    diff = alternating_harmonic_gf(9) - log_gf_special("g3", 9)
    for n in range(9):
        assert diff.coefficient(n) == Fraction((-1) ** n, n + 1)


def test_leibnitz_polynomial_rows():
    assert leibnitz_polynomial(0) == Polynomial((Fraction(1),))
    assert leibnitz_polynomial(1) == Polynomial((HALF, HALF))
    assert leibnitz_polynomial(2) == Polynomial(
        (Fraction(1, 3), Fraction(1, 6), Fraction(1, 3))
    )


def test_leibnitz_gf_matches_row_polynomials():
    T = 10
    for x in [Fraction(2), Fraction(-1, 2), Fraction(1), Fraction(-1)]:
        series = leibnitz_gf(x, T)
        for n in range(T + 1):
            assert series.coefficient(n) == leibnitz_polynomial(n)(x)


def test_leibnitz_three_term_polynomial_identity():
    x = Polynomial.variable()
    for n in range(1, 13):
        lhs = (x + 1) * leibnitz_polynomial(n) - x * leibnitz_polynomial(n - 1)
        rhs = (Polynomial.monomial(Fraction(1), n + 1) + 1) * Fraction(1, n + 1)
        assert lhs == rhs


def test_log_product_low_coefficients():
    series = log_product_gf(10, Fraction(2))
    assert series.coefficient(0) == 0
    assert series.coefficient(1) == Fraction(1, 4)
    for q in [Fraction(2), Fraction(5, 3)]:
        series = log_product_gf(10, q)
        for n in range(10):
            expect = sum(
                logsum_value(k, q) / ((n + 1 - k) * q ** (n + 1 - k))
                for k in range(n + 1)
            )
            expect = expect * (q - 1) ** (n + 3)
            if n % 2:
                expect = -expect
            assert series.coefficient(n + 1) == expect


def test_fib_series_fibonacci_case():
    series = fib_gf(10, 1, 1, 1, 1, 1)
    assert series.coefficients(0, 8) == [1, 1, 2, 3, 5, 8, 13, 21, 34]
    for n in range(11):
        assert fib_term(n, 1, 1, 1, 1, 1) == series.coefficient(n)


def test_fib_series_general_shapes():
    cases = [
        (Fraction(2), Fraction(3), 1, 1, 1),
        (Fraction(1, 2), Fraction(-2), 2, 1, 2),
        (Fraction(-1), Fraction(5, 3), 1, 2, 1),
        (Fraction(3), Fraction(1, 3), 1, 2, 0),
    ]
    for x, y, k, m, l in cases:
        series = fib_gf(9, x, y, k, m, l)
        for n in range(10):
            assert fib_term(n, x, y, k, m, l) == series.coefficient(n)
    with pytest.raises(ValueError):
        fib_gf(5, 1, 1, 0, 1, 1)
    with pytest.raises(ValueError):
        fib_term(-1, 1, 1, 1, 1, 1)
