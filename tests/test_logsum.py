"""Exact-value, agreement, and formatting tests for the log-type sum family."""

import importlib
import math
import time
from fractions import Fraction
from itertools import islice

import pytest
from hypothesis import given, settings, strategies as st

from finsum import special
from finsum.exact import Polynomial, RationalFunction
from finsum.logsum import (
    harmonic_lcm_sequence,
    lcm_harmonic,
    logsum,
    logsum_at_half,
    logsum_bernoulli_stirling,
    logsum_direct,
    logsum_recurrence,
    logsum_recurrence_values,
    logsum_symbolic,
    logsum_value,
    table,
    table_entry,
)

from kernel_reference import (
    RationalFunctionReference,
    assert_same_ratfun,
    gcd_reference,
    logsum_direct_reference,
    logsum_recurrence_reference,
    logsum_recurrence_values_reference,
    polynomial_text_reference,
)

# the package re-exports the function logsum, which shadows the module name
logsum_module = importlib.import_module("finsum.logsum")

HALF = Fraction(1, 2)

PARAMS = [
    Fraction(2),
    Fraction(3),
    Fraction(-1),
    Fraction(1, 2),
    Fraction(-1, 2),
    Fraction(5, 3),
    Fraction(-7, 4),
]

TABLE_ROWS = [
    "1/(L*(L - 1))",
    "(-3*L + 1)/(2*L^2*(L - 1)^2)",
    "(11*L^2 - 7*L + 2)/(6*L^3*(L - 1)^3)",
    "(-25*L^3 + 23*L^2 - 13*L + 3)/(12*L^4*(L - 1)^4)",
    "(137*L^4 - 163*L^3 + 137*L^2 - 63*L + 12)/(60*L^5*(L - 1)^5)",
]

LCM_HARMONIC_TERMS = [1, 3, 11, 25, 137, 147, 1089, 2283, 7129, 7381, 83711]


def test_frozen_values():
    assert logsum_direct(0, Fraction(2)) == HALF
    assert logsum_direct(1, Fraction(2)) == Fraction(-5, 8)
    assert logsum_direct(3, Fraction(2)) == Fraction(-131, 192)
    assert logsum_direct(2, Fraction(-1)) == Fraction(5, 12)
    assert logsum_direct(3, HALF) == Fraction(-56, 3)
    assert logsum_direct(2, HALF) == Fraction(-40, 3)


def test_methods_agree_small():
    for q in PARAMS:
        for n in range(13):
            want = logsum_direct(n, q)
            assert logsum_recurrence(n, q) == want
            assert logsum_bernoulli_stirling(n, q) == want
            assert logsum_symbolic(n)(q) == want


def test_symbolic_route_matches_direct_route():
    var = RationalFunction.variable()
    for n in range(9):
        assert logsum_direct(n, var) == logsum_symbolic(n)
    for n in range(7):
        assert logsum_bernoulli_stirling(n, var) == logsum_symbolic(n)


def test_table_frozen_rows():
    assert table(4) == TABLE_ROWS
    assert table_entry(1) == TABLE_ROWS[1]


def test_table_entry_denominator_shape():
    text = table_entry(7)
    assert text.endswith("L^8*(L - 1)^8)")


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=1, max_value=20), st.sampled_from(PARAMS))
def test_recurrence_step(n, q):
    lhs = (q - 1) * logsum_direct(n, q) + logsum_direct(n - 1, q)
    sign = 1 if n % 2 == 0 else -1
    assert lhs == Fraction(sign, n + 1) / q ** (n + 1)


def test_at_half_closed_form():
    for n in range(16):
        assert logsum_at_half(n) == logsum_recurrence(n, HALF)


def test_cached_value_route():
    for q in PARAMS:
        for n in range(11):
            assert logsum_value(n, q) == logsum_direct(n, q)


def test_cached_value_route_at_large_index():
    q = Fraction(-7, 4)
    assert logsum_value(1500, q) == logsum_direct(1500, q)


def test_dispatcher():
    assert logsum(3, Fraction(2), "direct") == Fraction(-131, 192)
    assert logsum(3, Fraction(2), "alg1") == Fraction(-131, 192)
    assert logsum(3, Fraction(2), "recurrence") == Fraction(-131, 192)
    assert logsum(3, Fraction(2), "symbolic") == Fraction(-131, 192)
    assert logsum(3, None, "symbolic") == logsum_symbolic(3)


def test_lcm_harmonic_sequence_frozen():
    assert harmonic_lcm_sequence(11) == LCM_HARMONIC_TERMS
    assert lcm_harmonic(11) == 83711


def test_lcm_harmonic_routes_agree():
    assert harmonic_lcm_sequence(13, "table") == harmonic_lcm_sequence(13, "harmonic")
    assert harmonic_lcm_sequence(120, "table") == harmonic_lcm_sequence(120, "harmonic")
    assert harmonic_lcm_sequence(300) == [lcm_harmonic(k) for k in range(1, 301)]


def test_domain_errors():
    for bad in (Fraction(0), Fraction(1)):
        with pytest.raises(ValueError):
            logsum_direct(2, bad)
        with pytest.raises(ValueError):
            logsum_recurrence(2, bad)
        with pytest.raises(ValueError):
            logsum_bernoulli_stirling(2, bad)
    for bad_index in (logsum_direct, logsum_value):
        with pytest.raises(ValueError):
            bad_index(-1, Fraction(2))
    with pytest.raises(ValueError):
        logsum(2, Fraction(2), "newton")
    with pytest.raises(ValueError):
        logsum(2, None, "direct")
    with pytest.raises(ValueError):
        lcm_harmonic(0)
    with pytest.raises(ValueError):
        harmonic_lcm_sequence(0)
    with pytest.raises(ValueError):
        harmonic_lcm_sequence(3, "guess")


def _expanded_numerator(n):
    """Reference numerator: sum_j (scale/(j+1)) * L^(n-j) * (L-1)^j in Fraction
    polynomial arithmetic, sign-flipped for odd n, content shared with scale
    divided out."""
    scale = math.lcm(*range(1, n + 2))
    shifted = Polynomial((Fraction(-1), Fraction(1)))
    num = Polynomial()
    for j in range(n + 1):
        num = num + Polynomial.monomial(Fraction(scale // (j + 1)), n - j) * shifted ** j
    if n % 2:
        num = -num
    g = math.gcd(*(c.numerator for c in num.coeffs), scale)
    if g > 1:
        num = num * Fraction(1, g)
        scale //= g
    return num, scale


def symbolic_parts_reference(n):
    """(num, scale) of the S(n) numerator by the double loop: the term
    (-1)^n * (scale/(j+1)) * L^(n-j) * (L-1)^j adds
    (-1)^n * (scale/(j+1)) * C(j, i) * (-1)^(j-i) to the coefficient of
    L^(n-j+i), with C(j, i) carried from one i to the next (O(n^2) int
    operations); the content shared with scale is divided out."""
    scale = math.lcm(*range(1, n + 2))
    coeffs = [0] * (n + 1)
    for j in range(n + 1):
        # the i = 0 term, with the overall sign (-1)^n folded in
        term = scale // (j + 1) if (n - j) % 2 == 0 else -(scale // (j + 1))
        for i in range(j + 1):
            coeffs[n - j + i] += term
            term = -term * (j - i) // (i + 1)
    g = math.gcd(scale, *coeffs)
    if g > 1:
        coeffs = [c // g for c in coeffs]
        scale //= g
    return tuple(coeffs), scale


def test_symbolic_parts_match_the_double_loop():
    for n in range(201):
        num, scale = logsum_module._symbolic_parts(n)
        assert (num, scale) == symbolic_parts_reference(n)
        assert type(scale) is int and all(type(c) is int for c in num)


def test_symbolic_numerator_matches_polynomial_expansion():
    for n in range(31):
        num, scale = logsum_module._symbolic_parts(n)
        want_num, want_scale = _expanded_numerator(n)
        assert [(type(c), c) for c in num] == [(int, c) for c in want_num.coeffs]
        assert (scale, len(num)) == (want_scale, n + 1)


def test_closed_form_text_matches_reference():
    for n in range(301):
        num = Polynomial(logsum_module._symbolic_parts(n)[0])
        for descending in (False, True):
            assert num.to_text("L", descending) == \
                polynomial_text_reference(num, "L", descending)
    for n in range(61):
        f = logsum_symbolic(n)
        ref = RationalFunctionReference.from_parts(f.num, f.den)
        for descending in (False, True):
            assert f.to_text("L", descending) == ref.to_text("L", descending)


def test_closed_form_equals_gcd_constructor():
    shifted = Polynomial((Fraction(-1), Fraction(1)))
    for n in range(41):
        num, scale = logsum_module._symbolic_parts(n)
        num = Polynomial(tuple(Fraction(c) for c in num))
        den = Polynomial.monomial(Fraction(scale), n + 1) * shifted ** (n + 1)
        want = RationalFunctionReference.from_parts(*gcd_reference(num, den))
        assert_same_ratfun(logsum_symbolic(n), want)


@settings(max_examples=40, deadline=None)
@given(
    st.integers(min_value=0, max_value=80),
    st.fractions(min_value=-20, max_value=20, max_denominator=40).filter(lambda q: q not in (0, 1)),
)
def test_routes_agree_at_random_parameters(n, q):
    want = logsum_direct(n, q)
    assert logsum(n, q, "symbolic") == want
    assert logsum_recurrence(n, q) == want
    assert logsum_bernoulli_stirling(n, q) == want


def test_alg1_reads_the_cached_daehee_numbers(monkeypatch):
    n, q = 30, Fraction(7, 3)
    for v in range(n + 1):
        special.daehee(v, "bernoulli_stirling")
    calls = []

    def counted(name, original):
        def wrapper(*args, **kwargs):
            calls.append((name, args))
            return original(*args, **kwargs)
        return wrapper

    for name in ("bernoulli", "stirling_first"):
        wrapper = counted(name, getattr(special, name))
        monkeypatch.setattr(special, name, wrapper)
        monkeypatch.setattr(logsum_module, name, wrapper, raising=False)
    assert logsum_bernoulli_stirling(n, q) == logsum_direct(n, q)
    assert calls == []


def _fresh_seconds(call, *args):
    logsum_module._symbolic_parts.cache_clear()
    logsum_symbolic.cache_clear()
    start = time.perf_counter()
    call(*args)
    return time.perf_counter() - start


def test_closed_form_time_budgets():
    elapsed = _fresh_seconds(logsum_symbolic, 100)
    assert elapsed < 1.0, f"logsum_symbolic(100) exceeded its 1s budget: {elapsed:.2f}s"
    elapsed = _fresh_seconds(table, 150)
    assert elapsed < 5.0, f"table(150) exceeded its 5s budget: {elapsed:.2f}s"
    elapsed = _fresh_seconds(logsum_module._symbolic_parts, 2000)
    assert elapsed < 1.0, f"_symbolic_parts(2000) exceeded its 1s budget: {elapsed:.2f}s"


def _outcome(call, *args):
    """(type, value) of a call's result, or the type of what it raised."""
    try:
        value = call(*args)
    except Exception as exc:
        return "raised", type(exc)
    return type(value), value


_WIDE = 10**40
_PARAMETERS = st.one_of(
    st.sampled_from([Fraction(1, 2), Fraction(-1), -1, 2, Fraction(-7, 4), 0, 1, Fraction(1)]),
    st.integers(min_value=-50, max_value=50),
    st.fractions(min_value=-20, max_value=20, max_denominator=60),
    st.builds(
        Fraction,
        st.integers(min_value=-_WIDE, max_value=_WIDE),
        st.integers(min_value=1, max_value=_WIDE),
    ),
)


@settings(max_examples=80, deadline=None)
@given(st.integers(min_value=-2, max_value=200), _PARAMETERS)
def test_int_routes_match_the_fraction_loops(n, q):
    want = _outcome(logsum_direct_reference, n, q)
    assert _outcome(logsum_direct, n, q) == want
    assert _outcome(logsum_recurrence, n, q) == want
    assert _outcome(logsum_recurrence_reference, n, q) == want
    assert _outcome(logsum_value, n, q) == want
    count = max(n + 1, 1)
    got = _outcome(lambda: list(islice(logsum_recurrence_values(q), count)))
    assert got == _outcome(lambda: list(islice(logsum_recurrence_values_reference(q), count)))
    if got[0] is list:
        assert {type(v) for v in got[1]} == {Fraction}


def test_values_generator_raises_on_first_step():
    values = logsum_recurrence_values(Fraction(1))
    with pytest.raises(ValueError):
        next(values)


def test_numeric_route_time_budgets():
    # about 0.01 s and 0.2 s on a 2-core x86-64 host with Python 3.11;
    # the Fraction loops took about 7 s and 26 s there
    q = Fraction(-7, 4)
    start = time.perf_counter()
    logsum_direct(5000, q)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"logsum_direct(5000, -7/4) exceeded its 1s budget: {elapsed:.2f}s"
    start = time.perf_counter()
    logsum_recurrence(20000, Fraction(2))
    elapsed = time.perf_counter() - start
    assert elapsed < 4.0, f"logsum_recurrence(20000, 2) exceeded its 4s budget: {elapsed:.2f}s"
