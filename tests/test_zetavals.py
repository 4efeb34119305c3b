"""Negative-argument zeta values and exponential-parameter expansions."""

from fractions import Fraction
from math import comb, factorial

import pytest

from finsum.exact import LaurentSeries, RationalFunction
from finsum import zetavals
from finsum.identities import run_identity
from finsum.logsum import logsum_symbolic, logsum_value
from finsum.special import (
    apostol_bernoulli,
    apostol_bernoulli_value,
    bernoulli_polynomial,
    euler_polynomial,
    stirling_second,
)
from finsum.zetavals import (
    cos_closed_form,
    cos_geometric_partial,
    cos_series_partial,
    derangement_sides,
    eta_coefficient_sum,
    eta_multinomial_sum,
    eta_neg,
    even_coefficient_minus,
    even_map_rhs_series,
    even_regular_half_argument,
    even_regular_plus,
    exp_parameter_series,
    fib_cos_partial,
    geometric_moment,
    hurwitz_cancellation,
    hurwitz_coefficient_sum,
    hurwitz_neg,
    lerch_neg,
    lerch_partial,
    odd_weighted_partial,
    printed_closing_lhs,
    printed_closing_rhs,
    printed_even_bernoulli,
    printed_even_convolution,
    weighted_number_sum,
)
from kernel_reference import euler_number

HALF = Fraction(1, 2)


# ---------------------------------------------------------------------------
# Hurwitz values at negative integers
# ---------------------------------------------------------------------------

def test_hurwitz_neg_frozen_examples():
    assert hurwitz_neg(1, 1) == Fraction(-1, 12)
    assert hurwitz_neg(0, HALF) == 0
    assert hurwitz_neg(3, 1, order=0) == 1
    assert hurwitz_neg(3, Fraction(3), order=0) == 27


def test_hurwitz_neg_single_order_matches_bernoulli_polynomial():
    from finsum.special import bernoulli_polynomial as bp

    for m in range(13):
        for x in (Fraction(1), Fraction(2), HALF):
            expect = -bp(m + 1)(x) / (m + 1)
            assert hurwitz_neg(m, x) == expect


def test_hurwitz_neg_difference_recurrence():
    # zeta_d(-m, x) - zeta_d(-m, x+1) = zeta_{d-1}(-m, x), down to x**m.
    for d in range(1, 5):
        for m in range(7):
            for x in (Fraction(1), Fraction(3, 2)):
                lhs = hurwitz_neg(m, x, order=d) - hurwitz_neg(m, x + 1, order=d)
                assert lhs == hurwitz_neg(m, x, order=d - 1)


def test_hurwitz_neg_rejects_bad_arguments():
    with pytest.raises(ValueError):
        hurwitz_neg(-1, 1)
    with pytest.raises(ValueError):
        hurwitz_neg(0, 1, order=-2)


# ---------------------------------------------------------------------------
# Hurwitz-Euler eta values at negative integers
# ---------------------------------------------------------------------------

def test_eta_neg_frozen_examples():
    assert eta_neg(0, 5) == 1
    assert eta_neg(1, 3, order=2) == 2  # E^{(2)}_1(y) = y - 1
    assert eta_neg(4, Fraction(7), order=0) == 2401


def test_eta_neg_abel_route_matches_polynomial_route():
    for d in range(4):
        for m in range(9):
            for x in (Fraction(1), Fraction(2), Fraction(7, 2)):
                assert eta_neg(m, x, order=d, method="abel") == eta_neg(
                    m, x, order=d, method="polynomial"
                )


def abel_reference(order, top):
    """A_j(1) for A_j(t) = (t d/dt)^j (1+t)^(-order), j = 0..top, by repeated
    differentiation of the rational function."""
    t = RationalFunction.variable()
    cur = (t + 1) ** (-order) if order else RationalFunction(1)
    values = []
    for _ in range(top + 1):
        values.append(cur(Fraction(1)))
        cur = t * cur.derivative()
    return values


def test_abel_weights_match_repeated_differentiation():
    for order in range(9):
        for j, expected in enumerate(abel_reference(order, 14)):
            got = zetavals._abel_weight(order, j)
            assert got == expected, (order, j)
            assert type(got) is type(expected) is Fraction


def test_eta_neg_pair_recurrence():
    # eta_d(-m, x+1) + eta_d(-m, x) = 2 eta_{d-1}(-m, x), down to x**m.
    for d in range(1, 5):
        for m in range(7):
            for x in (Fraction(1), Fraction(5, 2)):
                lhs = eta_neg(m, x + 1, order=d) + eta_neg(m, x, order=d)
                assert lhs == 2 * eta_neg(m, x, order=d - 1)


def test_eta_neg_recovers_integer_euler_numbers():
    for m in range(11):
        assert eta_neg(m, HALF) * 2 ** m == euler_number(m)


def test_eta_neg_rejects_unknown_method():
    with pytest.raises(ValueError):
        eta_neg(1, 1, method="cesaro")


# ---------------------------------------------------------------------------
# Lerch-type interpolation and geometric moments
# ---------------------------------------------------------------------------

def test_lerch_neg_frozen_values():
    assert lerch_neg(2, 1) == Fraction(-1)
    assert lerch_neg(HALF, 2) == Fraction(4)


def test_lerch_neg_validation():
    with pytest.raises(ValueError):
        lerch_neg(2, 0)
    with pytest.raises(ValueError):
        lerch_neg(1, 3)
    with pytest.raises(ValueError):
        lerch_neg(0, 3)


def test_lerch_partial_tail_is_tiny():
    closed = geometric_moment(1)(Fraction(1, 3))
    assert closed == Fraction(3, 4)
    partial = lerch_partial(Fraction(1, 3), 2, b=0, terms=200)
    tail = closed - partial
    assert tail > 0
    assert tail < Fraction(1, 10 ** 90)


def test_lerch_neg_agrees_with_geometric_moment():
    # sum_v w^v (v+1)^{n-1} at n = 2 equals moment_0 + moment_1.
    for w in (Fraction(1, 3), Fraction(-2, 5)):
        expect = geometric_moment(0)(w) + geometric_moment(1)(w)
        assert lerch_neg(w, 2) == expect


def test_geometric_moment_closed_forms():
    w = RationalFunction.variable()
    assert geometric_moment(0) == (1 - w) ** (-1)
    assert geometric_moment(1) == w / ((1 - w) ** 2)
    for j in range(7):
        assert geometric_moment(j) == -apostol_bernoulli(j + 1) * Fraction(1, j + 1)


# ---------------------------------------------------------------------------
# weighted Stirling sums
# ---------------------------------------------------------------------------

def test_weighted_number_sum_matches_weighted_bernoulli_numbers():
    for M in range(1, 11):
        for q in (Fraction(2), HALF, Fraction(-1), Fraction(5, 3)):
            assert weighted_number_sum(M, q) == apostol_bernoulli_value(M, q)


def test_weighted_number_sum_symbolic():
    for M in range(1, 7):
        assert weighted_number_sum(M) == apostol_bernoulli(M)


def test_weighted_number_sum_equals_per_index_sum():
    for q in (Fraction(2), HALF, Fraction(-1), Fraction(5, 3), Fraction(-7, 10)):
        for M in range(31):
            per_index = sum(
                (factorial(n + 1) * stirling_second(M, n + 1) * q ** (n + 1) * logsum_value(n, q)
                 for n in range(M)),
                Fraction(0),
            )
            assert weighted_number_sum(M, q) == per_index


def test_weighted_number_sum_degenerate_index():
    assert weighted_number_sum(0, Fraction(2)) == 0
    assert weighted_number_sum(0) == RationalFunction(0)


# ---------------------------------------------------------------------------
# exponential-parameter Laurent expansions
# ---------------------------------------------------------------------------

def test_minus_map_is_regular_with_frozen_constant():
    s = exp_parameter_series(0, -1, 1, 6)
    assert s.min_order == 0
    assert s.coefficient(0) == HALF
    assert exp_parameter_series(1, -1, 1, 6).coefficient(0) == HALF


def test_plus_map_has_pole_and_frozen_coefficients():
    p = exp_parameter_series(0, 1, 1, 6)
    assert p.min_order == -1
    assert p.coefficient(-1) == Fraction(-1)
    assert p.coefficients(0, 2) == [
        Fraction(-3, 2),
        Fraction(-13, 12),
        Fraction(-1, 2),
    ]


def test_plus_map_doubled_scale_frozen_coefficients():
    p = exp_parameter_series(0, 1, 2, 6)
    assert p.coefficient(-1) == Fraction(-1, 2)
    assert p.coefficients(0, 1) == [Fraction(-3, 2), Fraction(-13, 6)]


def test_plus_map_pole_order_grows_with_index():
    for n in range(4):
        assert exp_parameter_series(n, 1, 1, 4).min_order == -(n + 1)
        assert exp_parameter_series(n, -1, 2, 4).min_order == 0


def test_exp_parameter_series_validation():
    with pytest.raises(ValueError):
        exp_parameter_series(0, 3, 1, 4)
    with pytest.raises(ValueError):
        exp_parameter_series(0, 1, 5, 4)
    with pytest.raises(ValueError):
        exp_parameter_series(-2, 1, 1, 4)


def polynomial_at_series(poly, series: LaurentSeries) -> LaurentSeries:
    """Evaluate a polynomial at a Laurent series via Horner's scheme."""
    total = LaurentSeries.zero(series.trunc)
    for c in reversed(poly.coeffs):
        total = total * series + c
    return total


def rational_at_series(
    rf: RationalFunction, series: LaurentSeries, through=None
) -> LaurentSeries:
    """Evaluate a rational function at a Laurent series.

    Numerator and denominator are expanded separately and divided, so a
    zero of the denominator at the expansion point correctly produces a
    pole.  ``through`` caps the order of the result.
    """
    num = polynomial_at_series(rf.num, series)
    den = polynomial_at_series(rf.den, series)
    return num.divide(den, through=through)


def test_exp_parameter_series_agrees_with_rational_substitution():
    T = 10
    for n in range(4):
        for sign in (1, -1):
            for scale in (1, 2):
                work = T + 2 * (n + 2) + 4
                base = LaurentSeries.exponential(work, Fraction(-scale))
                lam = base if sign == 1 else -base
                direct = rational_at_series(logsum_symbolic(n), lam, through=T)
                assert direct.agrees_with(
                    exp_parameter_series(n, sign, scale, T), through=T
                )


def exp_parameter_series_reference(n, sign, scale, T):
    """The defining sum with each denominator lambda^(j+1) (lambda-1)^(n+1-j)
    raised to its powers and inverted: the reference for
    exp_parameter_series, which inverts lambda - 1 once."""
    work = T + 2 * (n + 2) + 4
    base = LaurentSeries.exponential(work, Fraction(-scale))
    lam = base if sign == 1 else -base
    total = LaurentSeries.zero(T)
    for j in range(n + 1):
        den = (lam ** (j + 1)) * ((lam - 1) ** (n + 1 - j))
        total = total + den.inverse(through=T) * Fraction((-1) ** n, j + 1)
    return total


@pytest.mark.parametrize("scale", (1, 2))
@pytest.mark.parametrize("sign", (1, -1))
@pytest.mark.parametrize("n", range(7))
def test_exp_parameter_series_matches_reference(n, sign, scale):
    for T in range(11):
        got = exp_parameter_series(n, sign, scale, T)
        want = exp_parameter_series_reference(n, sign, scale, T)
        assert (got.offset, got.coeffs, got.trunc) == (want.offset, want.coeffs, T)


@pytest.mark.parametrize("n", range(5))
def test_exp_parameter_series_inverts_once(monkeypatch, n):
    counts = {"divide": 0, "mul": 0}
    divide, mul = LaurentSeries.divide, LaurentSeries.__mul__

    def counting_divide(self, *args, **kwargs):
        counts["divide"] += 1
        return divide(self, *args, **kwargs)

    def counting_mul(self, other):
        counts["mul"] += 1
        return mul(self, other)

    monkeypatch.setattr(LaurentSeries, "divide", counting_divide)
    monkeypatch.setattr(LaurentSeries, "__mul__", counting_mul)
    exp_parameter_series.__wrapped__(n, 1, 1, 6)
    assert counts["divide"] == 1
    assert counts["mul"] <= 3 * (n + 1)


def test_polynomial_at_series_matches_manual_expansion():
    from finsum.exact import Polynomial

    p = Polynomial((Fraction(2), Fraction(0), Fraction(-3)))  # 2 - 3 x^2
    s = LaurentSeries.exponential(8, Fraction(1))
    value = polynomial_at_series(p, s)
    expect = 2 - LaurentSeries.exponential(8, Fraction(2)) * 3
    assert value.agrees_with(expect, through=8)


# ---------------------------------------------------------------------------
# closed coefficient formulas
# ---------------------------------------------------------------------------

def test_eta_coefficient_sum_matches_series():
    for n in range(4):
        series = exp_parameter_series(n, -1, 1, 8)
        for m in range(9):
            assert eta_coefficient_sum(n, m) == series.coefficient(m)


def _compositions(total, parts):
    """Weak compositions of ``total`` into ``parts`` nonnegative parts."""
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def eta_multinomial_reference(n, m):
    """The multinomial expansion summed over every weak composition."""
    euler_at_zero = [euler_polynomial(k)(Fraction(0)) for k in range(m + 1)]
    total = Fraction(0)
    for j in range(n + 1):
        d = n + 1 - j
        inner = Fraction(0)
        for l in range(m + 1):
            comp_total = Fraction(0)
            for parts in _compositions(l, d):
                weight = Fraction(factorial(l))
                for li in parts:
                    weight = weight / factorial(li) * euler_at_zero[li]
                comp_total += weight
            inner += comb(m, l) * Fraction(n + 2) ** (m - l) * comp_total
        total += inner / Fraction((j + 1) * 2 ** d)
    return total


def test_eta_multinomial_sum_matches_weighted_eta_values():
    for n in range(7):
        for m in range(9):
            direct = sum(
                (
                    eta_neg(m, Fraction(n + 2), order=n + 1 - j)
                    / Fraction((j + 1) * 2 ** (n + 1 - j))
                    for j in range(n + 1)
                ),
                Fraction(0),
            )
            got = eta_multinomial_sum(n, m)
            assert got == eta_multinomial_reference(n, m)
            assert got == direct


def test_hurwitz_coefficient_sum_matches_series():
    for n in range(4):
        series = exp_parameter_series(n, 1, 1, 8)
        for m in range(9):
            assert hurwitz_coefficient_sum(n, m) == series.coefficient(m)


def test_hurwitz_cancellation_vanishes():
    for n in range(5):
        for m in range(7):
            assert hurwitz_cancellation(n, m) == 0


def test_even_coefficient_formulas_match_series():
    for n in range(4):
        minus = exp_parameter_series(n, -1, 2, 7)
        plus = exp_parameter_series(n, 1, 2, 7)
        for m in range(8):
            assert even_coefficient_minus(n, m) == minus.coefficient(m)
            assert even_regular_plus(n, m) == plus.coefficient(m)
            assert even_regular_half_argument(n, m) == plus.coefficient(m)


def test_printed_even_formulas_frozen_counterexamples():
    # The printed doubled-scale displays all miss the true coefficients.
    assert printed_even_bernoulli(0, 0) == Fraction(-3, 4)
    assert printed_even_convolution(0, 0) == Fraction(-7, 4)
    assert printed_closing_lhs(0, 0) == Fraction(-3, 4)
    assert printed_closing_rhs(0, 0) == Fraction(-7, 4)
    true_minus = even_coefficient_minus(0, 0)
    true_plus = even_regular_plus(0, 0)
    assert true_minus == HALF
    assert true_plus == Fraction(-3, 2)
    assert printed_even_bernoulli(0, 0) not in (true_minus, true_plus)
    assert printed_even_convolution(0, 0) not in (true_minus, true_plus)
    assert printed_closing_lhs(0, 0) != printed_closing_rhs(0, 0)


def test_even_map_series_reproduces_plus_map_not_minus_map():
    for n in range(3):
        rhs = even_map_rhs_series(n, 6)
        assert rhs.agrees_with(exp_parameter_series(n, 1, 2, 6), through=6)
    rhs0 = even_map_rhs_series(0, 6)
    minus0 = exp_parameter_series(0, -1, 2, 6)
    assert rhs0.coefficient(0) == Fraction(-3, 2)
    assert minus0.coefficient(0) == HALF


# ---------------------------------------------------------------------------
# coefficient-level checks and the derangement balance
# ---------------------------------------------------------------------------

def test_section_checks_pass_where_expected():
    for n in range(4):
        for m in range(6):
            abel = polynomial = Fraction(0)
            for j in range(n + 1):
                d = n + 1 - j
                w = Fraction(1, (j + 1) * 2 ** d)
                abel += eta_neg(m, n + 2, order=d, method="abel") * w
                polynomial += eta_neg(m, n + 2, order=d) * w
            assert abel == polynomial
            assert factorial(m) * eta_coefficient_sum(n, m) == eta_multinomial_sum(n, m)
    for n in range(3):
        for m in range(5):
            assert hurwitz_coefficient_sum(n, m) == exp_parameter_series(n, 1, 1, m).coefficient(m)
            assert hurwitz_cancellation(n, m) == 0
            minus_series = exp_parameter_series(n, -1, 2, m).coefficient(m)
            plus_series = exp_parameter_series(n, 1, 2, m).coefficient(m)
            assert even_coefficient_minus(n, m) == minus_series
            assert even_regular_plus(n, m) == plus_series
            assert even_regular_half_argument(n, m) == plus_series


def test_section_check_mixed_even_reports_both_sides():
    assert exp_parameter_series(0, -1, 2, 0).coefficient(0) == HALF
    assert printed_even_bernoulli(0, 0) == Fraction(-3, 4)
    assert printed_even_convolution(0, 0) == Fraction(-7, 4)


def test_derangement_check_scaled_balance_holds():
    for n in range(13):
        lhs, rhs, printed_lhs = derangement_sides(n)
        assert lhs == rhs
        assert (printed_lhs == rhs) == (n <= 1)


def test_derangement_check_frozen_counterexample():
    _, rhs, printed_lhs = derangement_sides(2)
    assert printed_lhs(Fraction(2)) == Fraction(7, 12)
    assert rhs(Fraction(2)) == Fraction(7, 24)


def test_derangement_records_build_each_side_once_per_n():
    derangement_sides.cache_clear()
    assert run_identity("derangement-balance")["passed"]
    assert run_identity("derangement-expanded")["passed"]
    # the balance sweeps n <= 12, the expanded form n <= 10, and the stored
    # counterexamples sit at n = 2
    assert derangement_sides.cache_info().misses == 13


# ---------------------------------------------------------------------------
# cosine series (floating point)
# ---------------------------------------------------------------------------

def test_cos_geometric_partial_hits_closed_form():
    closed = cos_closed_form(0.1)
    assert abs(cos_geometric_partial(0.1, 200) - closed) < 1e-12


def test_odd_weighted_partial_calibrated_accuracy():
    # Calibrated default: M = 12 keeps the error near 1e-9 at weight 0.1,
    # comfortably below the 1e-6 target documented in the README.
    closed = cos_closed_form(0.1)
    assert abs(odd_weighted_partial(0.1, 12) - closed) < 1e-6
    assert abs(odd_weighted_partial(0.1, 12) - closed) < 1e-8


def test_odd_weighted_partial_printed_form_misses_by_factor():
    closed = cos_closed_form(0.1)
    printed = odd_weighted_partial(0.1, 14, form="printed")
    assert abs(printed + closed / 2) < 1e-9
    assert abs(printed - closed) > 1.0


def test_fib_cos_partial_hits_closed_form():
    for lam in (0.1, -0.25):
        assert abs(fib_cos_partial(lam, 60) - cos_closed_form(lam)) < 1e-12


def test_cos_series_partial_contract():
    partial, closed = cos_series_partial(0.1, 12)
    assert abs(partial - closed) < 1e-6
    with pytest.raises(ValueError):
        cos_series_partial(0.5, 10)
    with pytest.raises(ValueError):
        cos_series_partial(0.1, 61)
    with pytest.raises(ValueError):
        odd_weighted_partial(0.1, 10, form="abel")
