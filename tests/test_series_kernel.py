"""The LaurentSeries kernel against LaurentSeriesReference, and its int form.

LaurentSeries holds most series with int and Fraction coefficients as int
numerators over one denominator.  An arithmetic result may therefore hold
Fraction(k) where the reference, which kept coefficients as computed, holds
the int k: the comparisons here are of values, never of types.
"""

import math
import operator
from fractions import Fraction as F

from hypothesis import example, given, settings
from hypothesis import strategies as st

from finsum.exact import LaurentSeries, Polynomial, RationalFunction, TruncationError
from kernel_reference import LaurentSeriesReference as Reference

RATFUNS = (
    RationalFunction(Polynomial((F(0), F(1)))),
    RationalFunction(Polynomial((F(1),)), Polynomial((F(-1), F(1)))),
    RationalFunction(F(3, 2)),
)

rationals = st.integers(min_value=-9, max_value=9) | st.fractions(
    min_value=-9, max_value=9, max_denominator=6)

# Coefficient kinds: ints and Fractions (kept as given until an operation
# puts them over one denominator), ints alone (the int form over 1), and
# rational functions among them or floats, which take the loops on the
# coefficients.
ELEMENTS = {
    "rational": rationals,
    "integer": st.integers(min_value=-9, max_value=9),
    "ratfun": st.sampled_from(RATFUNS) | rationals,
    "float": st.sampled_from((0.5, -2.0, 1.25)) | st.integers(min_value=-3, max_value=3),
}
KINDS = ("rational", "rational", "rational", "integer", "ratfun", "float")


@st.composite
def twins(draw, kinds=KINDS, offsets=st.integers(min_value=-3, max_value=3)):
    """One series built twice, by the kernel and by the reference."""
    elements = ELEMENTS[draw(st.sampled_from(kinds))]
    offset = draw(offsets)
    cs = draw(st.lists(elements, max_size=6))
    trunc = draw(st.none() | st.integers(min_value=-4, max_value=10))
    return LaurentSeries(offset, cs, trunc), Reference(offset, cs, trunc)


def both(offset, cs, trunc=None):
    return LaurentSeries(offset, cs, trunc), Reference(offset, cs, trunc)


scalars = rationals | st.sampled_from(RATFUNS)


def outcome(compute):
    try:
        return compute()
    except (ArithmeticError, TruncationError, TypeError, ValueError, AttributeError) as exc:
        return type(exc)


def check(compute, reference):
    got, want = outcome(compute), outcome(reference)
    if not isinstance(want, Reference):
        assert got == want
        return
    assert isinstance(got, LaurentSeries)
    assert (got.offset, got.trunc) == (want.offset, want.trunc)
    assert list(got.coeffs) == list(want.coeffs)  # values; types may differ
    assert outcome(got.to_text) == outcome(want.to_text)
    for k in range(got.offset - 1, got.offset + len(got.coeffs) + 2):
        assert outcome(lambda: got.coefficient(k)) == outcome(lambda: want.coefficient(k))


@settings(max_examples=400, deadline=None)
@given(twins(), twins(), scalars, st.none() | st.integers(min_value=-6, max_value=10),
       st.integers(min_value=-3, max_value=4))
# the second operand's terms start beyond the first operand's truncation
@example(both(0, (1,), 2), both(5, (1, 2)), 1, None, 2)
@example(both(0, (F(1, 2),), 2), both(5, (1, F(2, 3))), F(1, 2), 1, 1)
# zero series, negative offsets
@example(both(0, ()), both(-2, (F(1, 3), 2), 4), 0, None, -1)
@example(both(-3, (1, -1), 5), both(0, (), 3), F(-2, 3), 2, 3)
# `through` below the quotient's first order
@example(both(2, (1, 1)), both(0, (1, 1), 5), 2, 0, 1)
# int-form division by a divisor whose terms are (and are not) multiples of
# its constant term, each with a remainder
@example(both(0, (F(1, 2), 3, F(-1, 3)), 8), both(1, (-2, 4, 6)), 3, 6, -2)
@example(both(0, (F(1, 2), 3, F(-1, 3)), 8), both(-1, (3, F(1, 2), 1)), 3, 6, -2)
def test_arithmetic_matches_reference(first, second, c, through, k):
    a, ra = first
    b, rb = second
    for op in (operator.add, operator.sub, operator.mul, operator.truediv):
        check(lambda: op(a, b), lambda: op(ra, rb))
        check(lambda: op(a, c), lambda: op(ra, c))
        check(lambda: op(c, a), lambda: op(c, ra))
    check(lambda: -a, lambda: -ra)
    check(lambda: a.divide(b, through), lambda: ra.divide(rb, through))
    check(lambda: a.divide(b, through=through), lambda: ra.divide(rb, through=through))
    check(lambda: a.inverse(through), lambda: ra.inverse(through))
    check(lambda: a ** k, lambda: ra ** k)
    check(lambda: a.derivative(), lambda: ra.derivative())
    check(lambda: a.agrees_with(b, through), lambda: ra.agrees_with(rb, through))
    check(lambda: a.agrees_with(b), lambda: ra.agrees_with(rb))
    check(lambda: a == b, lambda: ra == rb)
    check(lambda: bool(a), lambda: bool(ra))


@settings(max_examples=200, deadline=None)
@given(twins(offsets=st.integers(min_value=-1, max_value=3)),
       twins(offsets=st.integers(min_value=0, max_value=2)))
@example(both(0, (1, F(1, 2), 2), 4), both(1, (F(1, 3), -1), 6))
@example(both(0, (F(2, 3),), None), both(0, ()))
def test_compose_matches_reference(outer, inner):
    a, ra = outer
    b, rb = inner
    check(lambda: a.compose(b), lambda: ra.compose(rb))


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=-2, max_value=12), scalars)
@example(6, F(-8, 13))
@example(4, 0)
def test_constructors_match_reference(T, scale):
    for name in ("exponential", "mercator"):
        check(lambda: getattr(LaurentSeries, name)(T, scale),
              lambda: getattr(Reference, name)(T, scale))
    check(lambda: LaurentSeries.geometric(T), lambda: Reference.geometric(T))


def assert_canonical(s):
    """An int form is content-reduced over a positive denominator; a series
    keeps its coefficients as given only when one is not an integer."""
    if s._d is None:
        assert any(not isinstance(c, (int, F)) or F(c).denominator != 1 for c in s._n)
    else:
        assert s._d > 0 and math.gcd(s._d, *s._n) == 1
    if s._n:
        assert s._n[0] and s._n[-1]
    else:
        assert s.offset == 0


def test_equal_series_built_by_different_routes_are_equal():
    routes = [
        (LaurentSeries(0, (F(1, 2),)), LaurentSeries.one() / 2),
        (LaurentSeries(-1, (1, 2, 0, 3), 4), LaurentSeries(-1, (F(1), F(2), F(0), F(3)), 4)),
        (LaurentSeries.exponential(5, F(1, 2)),
         LaurentSeries(0, [F(1, 2 ** k * math.factorial(k)) for k in range(6)], 5)),
        (LaurentSeries.geometric(4) * LaurentSeries(0, (1, -1)), LaurentSeries(0, (1,), 4)),
        (LaurentSeries.mercator(5) * 2, LaurentSeries.mercator(5) + LaurentSeries.mercator(5)),
        (LaurentSeries(0, (F(2, 3), F(4, 3))) * 3 / 2, LaurentSeries(0, (1, 2))),
        (LaurentSeries(2, (F(4, 6),), 3),
         LaurentSeries.monomial(F(2, 3), 2) + LaurentSeries.zero(3)),
        (LaurentSeries(0, (0, 0, F(1, 2)), 5).derivative(), LaurentSeries(0, (0, 1), 4)),
        (-LaurentSeries(-1, (F(1, 2), 0, 3), 4), LaurentSeries(-1, (F(-1, 2), 0, -3), 4)),
        (LaurentSeries(0, (F(4, 2), F(1, 2), 1)) + LaurentSeries.zero(0), LaurentSeries(0, (2,), 0)),
    ]
    for a, b in routes:
        assert_canonical(a)
        assert_canonical(b)
        assert a == b and b == a
        assert hash(a) == hash(b)
        assert len({a, b}) == 1


@settings(max_examples=200, deadline=None)
@given(twins(kinds=("rational", "integer")), twins(kinds=("rational", "integer")),
       st.integers(min_value=-2, max_value=3))
def test_results_are_canonical_and_hash_by_value(first, second, k):
    a, _ = first
    b, _ = second
    results = [a, b, a + b, b + a, a - b, a * b, b * a, -a, a.derivative(), a * 2 / 2]
    for compute in (lambda: a / b, lambda: a.divide(b, through=5), lambda: a ** k,
                    lambda: a.inverse(through=4)):
        result = outcome(compute)
        if isinstance(result, LaurentSeries):
            results.append(result)
    for s in results:
        assert_canonical(s)
    assert a + b == b + a and hash(a + b) == hash(b + a)
    assert a * 2 / 2 == a and hash(a * 2 / 2) == hash(a)
