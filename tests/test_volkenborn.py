"""Riemann-sum certificates for p-adic integrals and their applications."""

import inspect
import sys
from fractions import Fraction
from math import comb, factorial

import pytest

from finsum.exact import INFINITY, RationalFunction, parse_rational
from finsum.logsum import logsum_value
from finsum.special import daehee
from finsum.volkenborn import (
    BUDGETS,
    binom_moment_bernoulli,
    convergence_report,
    daehee_limit,
    integral_limit,
    mahler_route_value,
    integral_series_check,
    riemann_sum,
    sample_row,
    volkenborn_sample,
)

PARAMS = [Fraction(2), Fraction(-1), Fraction(1, 2), Fraction(5, 3)]


# ---------------------------------------------------------------------------
# budgets and validation
# ---------------------------------------------------------------------------

def test_budget_rejections():
    with pytest.raises(ValueError):
        volkenborn_sample(11, 2, "power", 1)
    with pytest.raises(ValueError):
        volkenborn_sample(2, BUDGETS[2] + 1, "power", 1)
    with pytest.raises(ValueError):
        volkenborn_sample(5, BUDGETS[5] + 1, "power", 1)
    with pytest.raises(ValueError):
        volkenborn_sample(3, 0, "power", 1)
    with pytest.raises(ValueError):
        volkenborn_sample(3, 2, "legendre", 1)
    with pytest.raises(ValueError):
        volkenborn_sample(3, 2, "power", -1)


def integrand_value(integrand, index, x):
    """Integer value of ``x^j``, ``(x)_n`` or ``C(x, n)`` at integer x, the
    falling factorial as an explicit product."""
    if integrand == "power":
        return x ** index
    if integrand == "falling":
        value = 1
        for i in range(index):
            value *= x - i
        return value
    assert integrand == "binom", integrand
    return comb(x, index)


def riemann_sum_reference(p, level, integrand, index, method):
    """The Riemann sum by one integrand_value call per point, walking x in
    ascending order ("linear") or by residue classes x = a + p*b
    ("blocked"): two oracles for riemann_sum's one term-function sum."""
    span = p ** level
    if method == "linear":
        total = sum(integrand_value(integrand, index, x) for x in range(span))
    else:
        total = 0
        for a in range(p):
            for b in range(p ** (level - 1)):
                total += integrand_value(integrand, index, a + p * b)
    return Fraction(total, span)


@pytest.mark.parametrize("integrand", ["power", "falling", "binom"])
def test_riemann_sum_matches_pointwise_loops(integrand):
    for p, max_level in ((2, 7), (3, 5), (5, 3), (7, 3)):
        for level in range(1, max_level + 1):
            for index in range(9):
                got = riemann_sum(p, level, integrand, index)
                for method in ("linear", "blocked"):
                    want = riemann_sum_reference(p, level, integrand, index, method)
                    assert (type(got), got) == (type(want), want)


# ---------------------------------------------------------------------------
# frozen sample certificates
# ---------------------------------------------------------------------------

def test_power_sample_frozen_example():
    s = volkenborn_sample(3, 2, "power", 1)
    assert s.partial_sum == Fraction(4)
    assert s.limit == Fraction(-1, 2)
    assert s.partial_sum - s.limit == Fraction(9, 2)
    assert s.error_valuation == 2


def test_constant_binomial_is_exact_at_every_level():
    s = volkenborn_sample(2, 3, "binom", 0)
    assert s.partial_sum == 1
    assert s.limit == 1
    assert s.error_valuation == INFINITY


def test_falling_factorial_sample_frozen_example():
    s = volkenborn_sample(2, 4, "falling", 2)
    assert s.partial_sum == Fraction(70)
    assert s.limit == Fraction(2, 3)
    assert s.limit == daehee(2)
    assert s.error_valuation == 4


def test_blocked_summation_matches_linear():
    for p in (2, 3, 5):
        for level in (1, 2, 3):
            for integrand, index in (("power", 3), ("falling", 2), ("binom", 4)):
                blocked = riemann_sum_reference(p, level, integrand, index, "blocked")
                assert riemann_sum(p, level, integrand, index) == blocked


def test_sample_row_serialization_round_trips():
    row = sample_row(volkenborn_sample(3, 2, "power", 1))
    assert row == {
        "p": 3,
        "N": 2,
        "integrand": "power",
        "index": 1,
        "partial_sum": "4",
        "limit": "-1/2",
        "valuation": 2,
    }
    assert parse_rational(row["partial_sum"]) == Fraction(4)
    assert parse_rational(row["limit"]) == Fraction(-1, 2)
    exact = sample_row(volkenborn_sample(2, 3, "binom", 0))
    assert exact["valuation"] == "+inf"


# ---------------------------------------------------------------------------
# convergence certificates
# ---------------------------------------------------------------------------

def test_power_convergence_valuation_bound_and_monotonicity():
    for p in (2, 3):
        for j in range(5):
            report = convergence_report(p, "power", j, 8)
            assert report["ok"]
            assert not report["violations"]
            vs = report["valuations"]
            for level, v in enumerate(vs, start=1):
                assert v >= level - j - 2
            for prev, cur in zip(vs[2:], vs[3:]):
                assert cur > prev or cur == INFINITY


def test_power_convergence_larger_prime():
    report = convergence_report(5, "power", 4, 5)
    assert report["ok"]


def test_falling_and_binomial_converge_at_top_level():
    for integrand in ("falling", "binom"):
        for p in (2, 3, 5):
            top = 8 if p in (2, 3) else 5
            for index in range(5):
                s = volkenborn_sample(p, top, integrand, index)
                assert s.error_valuation >= 1


# ---------------------------------------------------------------------------
# moment identities
# ---------------------------------------------------------------------------

def binom_moment(n: int) -> Fraction:
    """Volkenborn integral of ``C(x, n)``: ``(-1)^n/(n+1)``."""
    if n < 0:
        raise ValueError("index must be nonnegative")
    return Fraction((-1) ** n, n + 1)


def test_binomial_moment_routes_agree():
    for n in range(21):
        direct = binom_moment(n)
        assert direct == Fraction((-1) ** n, n + 1)
        assert direct == binom_moment_bernoulli(n)


def test_daehee_limit_matches_closed_forms():
    for n in range(16):
        assert daehee_limit(n) == daehee(n)
        assert daehee_limit(n) == Fraction((-1) ** n * factorial(n), n + 1)


def test_integral_limits_dispatch():
    assert integral_limit("power", 4) == Fraction(-1, 30)
    assert integral_limit("falling", 2) == Fraction(2, 3)
    assert integral_limit("binom", 3) == Fraction(-1, 4)


# ---------------------------------------------------------------------------
# Mahler-style reconstruction of the log-sum numbers
# ---------------------------------------------------------------------------

def test_mahler_route_matches_reference_values():
    for q in PARAMS:
        for n in range(21):
            assert mahler_route_value(n, q) == logsum_value(n, q)


def test_mahler_route_runs_without_recursion():
    daehee_limit.cache_clear()
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack(0)) + 100)
    try:
        assert mahler_route_value(300, 2) == logsum_value(300, 2)
    finally:
        sys.setrecursionlimit(limit)


def test_mahler_route_validation():
    with pytest.raises(ValueError):
        mahler_route_value(3, 1)
    with pytest.raises(ValueError):
        mahler_route_value(3, 0)


# ---------------------------------------------------------------------------
# integral representation of the generating function
# ---------------------------------------------------------------------------

def test_integral_representation_matches_series_numerically():
    for q in PARAMS:
        assert integral_series_check(q, 24)["ok"]


def test_integral_representation_matches_series_symbolically():
    result = integral_series_check(RationalFunction.variable(), 10)
    assert result["ok"]


def test_integral_representation_validation():
    with pytest.raises(ValueError):
        integral_series_check(1, 10)
