"""Kernel tests: rationals, polynomials, rational functions, Laurent series."""

import operator
import time
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from finsum.exact import (
    INFINITY,
    LaurentSeries,
    Polynomial,
    RationalFunction,
    TruncationError,
    _as_order,
    _ring_inverse,
    format_rational,
    padic_valuation,
    parse_rational,
)
from finsum.genfun import log_gf
from finsum.logsum import logsum_value
from kernel_reference import (
    RationalFunctionReference,
    assert_same_ratfun,
    gcd_reference,
    horner_reference,
    polynomial_text_reference,
    typed_coeffs,
)

F = Fraction


# ---------------------------------------------------------------------------
# rationals
# ---------------------------------------------------------------------------

def test_padic_valuation_basics():
    assert padic_valuation(F(1, 2), 2) == -1
    assert padic_valuation(18, 3) == 2
    assert padic_valuation(0, 5) == INFINITY


def test_padic_valuation_rejects_nonprime():
    with pytest.raises(ValueError):
        padic_valuation(F(1, 2), 4)
    with pytest.raises(ValueError):
        padic_valuation(F(1, 2), 1)


@settings(max_examples=200)
@given(
    st.fractions(min_value=-50, max_value=50),
    st.fractions(min_value=-50, max_value=50),
    st.sampled_from([2, 3, 5]),
)
def test_padic_valuation_is_additive(a, b, p):
    if a == 0 or b == 0:
        assert padic_valuation(a * b, p) == INFINITY
        return
    assert padic_valuation(a * b, p) == padic_valuation(a, p) + padic_valuation(b, p)


def test_parse_and_format_rational():
    assert parse_rational("-5/8") == F(-5, 8)
    assert parse_rational("12") == 12
    assert format_rational(F(-5, 8)) == "-5/8"
    assert format_rational(F(4, 2)) == "2"
    for bad in ("", "1.5", "1/-2", "+3", "a/b", "1/0"):
        with pytest.raises(ValueError):
            parse_rational(bad)


@given(st.fractions(min_value=-1000, max_value=1000))
def test_rational_text_round_trip(q):
    assert parse_rational(format_rational(q)) == q


# ---------------------------------------------------------------------------
# polynomials
# ---------------------------------------------------------------------------

def poly(*cs):
    return Polynomial(tuple(F(c) for c in cs))


coeff_lists = st.lists(st.integers(min_value=-9, max_value=9), min_size=0, max_size=9)


@settings(max_examples=60)
@given(coeff_lists, coeff_lists, coeff_lists)
def test_polynomial_ring_axioms(a, b, c):
    pa, pb, pc = poly(*a), poly(*b), poly(*c)
    assert (pa + pb) + pc == pa + (pb + pc)
    assert pa * (pb + pc) == pa * pb + pa * pc
    assert pa * pb == pb * pa
    assert 1 - pa == -(pa - 1)      # the reflected operators
    assert F(1, 2) - pa == -(pa - F(1, 2))


def test_polynomial_trailing_zeros_trimmed():
    assert poly(1, 2, 0, 0) == poly(1, 2)
    assert not poly(0, 0)
    assert poly().degree == -1


def test_polynomial_eval_and_derivative():
    p = poly(1, -3, 2)  # 1 - 3x + 2x^2
    assert p(F(1, 2)) == 0
    assert p.derivative() == poly(-3, 4)


def test_polynomial_text():
    assert poly(1, F(-3, 2), 0, 1).to_text() == "1 - 3/2*L + L^3"
    assert poly(12, -63, 137, -163, 137).to_text(descending=True) == \
        "137*L^4 - 163*L^3 + 137*L^2 - 63*L + 12"


text_coeffs = st.lists(
    st.one_of(st.integers(min_value=-12, max_value=12),
              st.fractions(min_value=-6, max_value=6, max_denominator=9)),
    max_size=8)


@settings(max_examples=300)
@given(text_coeffs, st.booleans(), st.sampled_from(["L", "b"]))
@example([], False, "L")
@example([0, 0], True, "L")
@example([1, -1, F(1), F(-1)], False, "L")
@example([-1, 0, -1], True, "b")
@example([F(-3, 2), 4, F(-1, 3), F(6, 3), -7], True, "L")
def test_polynomial_text_matches_reference(coeffs, descending, letter):
    p = Polynomial(coeffs)
    assert p.to_text(letter, descending) == polynomial_text_reference(p, letter, descending)


# ---------------------------------------------------------------------------
# rational functions
# ---------------------------------------------------------------------------

def test_ratfun_cancellation():
    a, b, c = poly(1, 1), poly(2, 0, 1), poly(-3, 1, 4)
    assert RationalFunction(a * c, b * c) == RationalFunction(a, b)


def test_ratfun_canonical_form():
    f = RationalFunction(poly(F(1, 2), F(1, 2)), poly(-1, -1, -1))
    # integer coefficients, coprime contents, positive leading denominator
    assert all(F(x).denominator == 1 for x in f.num.coeffs + f.den.coeffs)
    assert F(f.den.leading) > 0


def test_ratfun_derivative_examples():
    L = RationalFunction.variable()
    f = 1 / (L * (L - 1))
    expected = RationalFunction(-poly(-1, 2), (L * (L - 1)).num ** 2)
    assert f.derivative() == expected
    assert RationalFunction(7).derivative() == RationalFunction(0)
    g = RationalFunction(poly(1, -3), poly(0, 0, 2) * poly(1, -2, 1))
    assert g.derivative() == RationalFunction(poly(2, -7, 9), poly(0, 0, 0, 2) * poly(-1, 3, -3, 1))


@settings(max_examples=40)
@given(coeff_lists, coeff_lists, coeff_lists, coeff_lists)
def test_ratfun_product_rule(a, b, c, d):
    pa, pb, pc, pd = poly(*a), poly(*b), poly(*c), poly(*d)
    if not pb or not pd:
        return
    f = RationalFunction(pa, pb)
    g = RationalFunction(pc, pd)
    assert (f * g).derivative() == f.derivative() * g + f * g.derivative()


def test_ratfun_evaluation():
    L = RationalFunction.variable()
    f = (1 - 3 * L) / (2 * L ** 2 * (L - 1) ** 2)
    assert f(F(2)) == F(-5, 8)
    with pytest.raises(ZeroDivisionError):
        f(F(1))


POLE_FACTORS = (poly(0, 1), poly(-1, 1), poly(1, 1))   # L, L - 1, L + 1

pole_powers = st.tuples(*[st.integers(min_value=0, max_value=6)] * 3)
nonzero_coeff_lists = coeff_lists.filter(any)
scalars = st.fractions(min_value=-30, max_value=30, max_denominator=12).filter(bool)


def with_poles(coeffs, powers, scalar=F(1), as_ints=False):
    """scalar * poly(coeffs) * L^i * (L-1)^j * (L+1)^k; with as_ints, the
    integral coefficients are stored as ints."""
    p = poly(*coeffs) * scalar
    for factor, k in zip(POLE_FACTORS, powers):
        p = p * factor ** k
    if as_ints:
        p = Polynomial(tuple(c.numerator if c.denominator == 1 else c for c in p.coeffs))
    return p


def test_ratfun_integer_gcd_cancels_other_factors():
    # s has no root at 0 or 1, so only the general gcd can cancel it
    s = poly(1, 0, 1) * poly(5, 3)          # (L^2 + 1)(3L + 5)
    assert RationalFunction(poly(2, 1) * s, poly(-5, 3) * s) == RationalFunction(poly(2, 1), poly(-5, 3))
    # nor the square of L + 1, of which the denominator keeps one factor
    t = poly(1, 1) ** 2
    f = RationalFunction(poly(2, 1) * t, poly(-5, 3) * t * poly(1, 1))
    assert f.to_text() == "(2 + L)/(-5 - 2*L + 3*L^2)"


factors = st.lists(st.integers(min_value=-5, max_value=5), max_size=3).filter(any)


@settings(max_examples=150, deadline=None)
@given(coeff_lists, pole_powers, scalars, nonzero_coeff_lists, pole_powers, scalars,
       st.tuples(factors, factors), st.booleans())
@example([5, 3], (1, 0, 0), F(1), [10, 6], (0, 1, 0), F(1), ([1, 0, 1], [1, 0, 1]), False)
@example([0, 1], (0, 0, 1), F(2, 3), [-1, 2], (0, 0, 0), F(-1), ([-3, 0, -2], [1]), True)
@example([2, 1], (0, 1, 2), F(1), [3, -1], (0, 0, 3), F(5, 2), ([1], [1]), True)
@example([1], (1, 0, 0), F(-1), [2, 0, 1], (2, 1, 0), F(1), ([1, 1], [1, 1]), False)
@example([0, 3], (3, 1, 0), F(1), [1, 4], (1, 2, 0), F(3), ([1], [1]), True)
@example([5, 2], (1, 0, 0), F(1, 2), [0, 1], (4, 0, 1), F(1), ([0, 2], [1]), False)
def test_ratfun_constructor_matches_gcd_reference(a, pa, sa, b, pb, sb, common, as_ints):
    """The shared factor is a product of two factors of degree <= 2, so it
    may hold a repeated irreducible factor and a negative, non-unit leading
    coefficient."""
    shared = poly(*common[0]) * poly(*common[1])
    num = with_poles(a, pa, sa, as_ints) * shared
    den = with_poles(b, pb, sb, as_ints) * shared
    want = RationalFunctionReference.from_parts(*gcd_reference(num, den))
    assert_same_ratfun(RationalFunction(num, den), want)


rational_functions = st.builds(
    lambda a, pa, b, pb: RationalFunction(with_poles(a, pa), with_poles(b, pb)),
    coeff_lists, pole_powers, nonzero_coeff_lists, pole_powers,
)


@settings(max_examples=100, deadline=None)
@given(rational_functions, rational_functions,
       st.fractions(min_value=-10, max_value=10, max_denominator=20).filter(lambda q: q not in (0, 1, -1)))
def test_ratfun_evaluation_is_a_homomorphism(f, g, q):
    assume(f.den(q) and g.den(q))
    fq, gq = f(q), g(q)
    assert (f + g)(q) == fq + gq
    assert (f - g)(q) == fq - gq
    assert (f * g)(q) == fq * gq
    if gq:
        assert (f / g)(q) == fq / gq


small_pole_powers = st.tuples(*[st.integers(min_value=0, max_value=3)] * 3)


@st.composite
def ratfun_twins(draw):
    """A RationalFunction and its RationalFunctionReference twin, over a
    numerator and a denominator built by with_poles (the numerator may be 0)."""
    num = with_poles(draw(coeff_lists), draw(small_pole_powers), draw(scalars), draw(st.booleans()))
    den = with_poles(draw(nonzero_coeff_lists), draw(small_pole_powers), draw(scalars),
                     draw(st.booleans()))
    return RationalFunction(num, den), RationalFunctionReference(num, den)


@st.composite
def ratfun_operands(draw):
    """A second operand for both kernels: twin rational functions, or one
    int, Fraction or Polynomial given to both."""
    kind = draw(st.sampled_from(("ratfun", "int", "fraction", "polynomial")))
    if kind == "ratfun":
        return draw(ratfun_twins())
    if kind == "int":
        value = draw(st.integers(min_value=-5, max_value=5))
    elif kind == "fraction":
        value = draw(st.fractions(min_value=-5, max_value=5, max_denominator=7))
    else:
        value = with_poles(draw(coeff_lists), draw(small_pole_powers), as_ints=draw(st.booleans()))
    return value, value


def _raised(compute):
    try:
        return compute()
    except ZeroDivisionError as exc:
        return type(exc), str(exc)


def _same_outcome(got, want):
    if isinstance(want, RationalFunctionReference):
        assert_same_ratfun(got, want)
    else:
        assert (type(got), got) == (type(want), want)


evaluation_points = (st.integers(min_value=-6, max_value=6)
                     | st.fractions(min_value=-6, max_value=6, max_denominator=9)
                     | st.sampled_from((0.5, 1.0, -1.0, 2.25)))


@settings(max_examples=200, deadline=None)
@given(ratfun_twins(), ratfun_operands(), st.integers(min_value=-3, max_value=3),
       st.lists(evaluation_points, max_size=4))
def test_ratfun_matches_reference_kernel(twins, operand, k, points):
    f, ref = twins
    g, gref = operand
    for op in (operator.add, operator.sub, operator.mul, operator.truediv):
        _same_outcome(_raised(lambda: op(f, g)), _raised(lambda: op(ref, gref)))
        _same_outcome(_raised(lambda: op(g, f)), _raised(lambda: op(gref, ref)))
    _same_outcome(-f, -ref)
    _same_outcome(_raised(lambda: f ** k), _raised(lambda: ref ** k))
    _same_outcome(f.derivative(), ref.derivative())
    assert (f == g) == (ref == gref) and bool(f) == bool(ref)
    for x in [0, 1, -1, F(0), F(1)] + points:
        _same_outcome(_raised(lambda: f(x)), _raised(lambda: ref(x)))


# ---------------------------------------------------------------------------
# Laurent series
# ---------------------------------------------------------------------------

def _inverse_reference(s, through=None):
    """1/s by the recurrence for 1/(1 + u), s = lead * z^mu * (1 + u)."""
    if not s.coeffs:
        raise ZeroDivisionError("inverse of zero series")
    mu = s.offset
    if s.trunc is None:
        if len(s.coeffs) == 1:
            return LaurentSeries(-mu, (_ring_inverse(s.coeffs[0]),),
                                 None if through is None else through)
        if through is None:
            raise TruncationError("inverse of an exact polynomial needs a target order")
        T_out = through
    else:
        T_out = s.trunc - 2 * mu
        if through is not None:
            T_out = min(T_out, through)
    L = T_out + mu
    if L < 0:
        return LaurentSeries.zero(T_out)
    lead_inv = _ring_inverse(s.coeffs[0])
    u = [F(0)] * (L + 1)
    for i in range(1, min(len(s.coeffs), L + 1)):
        if s.coeffs[i]:
            u[i] = s.coeffs[i] * lead_inv
    inv = [F(0)] * (L + 1)
    inv[0] = F(1)
    for k in range(1, L + 1):
        acc = F(0)
        for i in range(1, k + 1):
            if u[i] and inv[k - i]:
                acc = acc + u[i] * inv[k - i]
        inv[k] = -acc
    return LaurentSeries(-mu, [c * lead_inv for c in inv], T_out)


def divide_reference(num, den, through=None):
    """num / den as num times the inverse of den, truncated to the quotient's
    exact order: the reference for LaurentSeries.divide, which divides in one
    long-division loop."""
    if not den.coeffs:
        raise ZeroDivisionError("division by zero series")
    mu = den.offset
    T = min(_as_order(num.trunc) - mu, _as_order(den.trunc) - 2 * mu + num.offset)
    if through is not None:
        T = min(T, through)
    if T == INFINITY:
        return num * _inverse_reference(den)
    out = num * _inverse_reference(den, through=int(T) - num.offset)
    if out.trunc is None or out.trunc > T:
        out = LaurentSeries(out.offset, out.coeffs, int(T))
    return out


def test_mercator_series():
    s = LaurentSeries.mercator(3)
    assert s.coefficients(0, 3) == [0, F(1), F(-1, 2), F(1, 3)]


def test_geometric_series():
    g = LaurentSeries.geometric(2)
    assert g.coefficients(0, 2) == [1, 1, 1]
    one_minus_z = LaurentSeries(0, (F(1), F(-1)))
    prod = LaurentSeries.geometric(5) * one_minus_z
    assert prod.coefficients(0, 5) == [1, 0, 0, 0, 0, 0]


def test_series_division_examples():
    num = LaurentSeries(1, (F(1), F(-1, 2)))
    assert (num / LaurentSeries.monomial(F(1), 1)).coefficients(0, 1) == [1, F(-1, 2)]
    a = LaurentSeries(0, (F(1), F(1)))
    b = LaurentSeries(0, (F(1), F(-1)))
    assert (a * b).coefficients(0, 2) == [1, 0, -1]


def test_log_over_z_z_minus_one():
    # ln(1+z) / (z(z-1)): the alternating-harmonic partial sums, negated
    num = LaurentSeries.mercator(6)
    den = LaurentSeries(1, (F(-1), F(1)))  # z^2 - z
    q = num / den
    assert q.min_order == 0
    assert q.coefficients(0, 3) == [F(-1), F(-1, 2), F(-5, 6), F(-7, 12)]


def test_series_compose_examples():
    em1 = LaurentSeries.exponential(3) - 1
    sq = LaurentSeries.monomial(F(1), 2)
    assert sq.compose(em1).coefficients(2, 3) == [1, 1]
    s = LaurentSeries(0, (F(2), F(3), F(4)), 5)
    assert s.compose(LaurentSeries.monomial(F(1), 1)).agrees_with(s)
    log_comp = LaurentSeries.mercator(4).compose(LaurentSeries.exponential(4) - 1)
    assert log_comp.coefficients(0, 4) == [0, 1, 0, 0, 0]


@settings(max_examples=40)
@given(coeff_lists, coeff_lists)
def test_series_mul_is_cauchy_convolution(a, b):
    sa = LaurentSeries(0, tuple(F(c) for c in a), 32)
    sb = LaurentSeries(0, tuple(F(c) for c in b), 32)
    prod = sa * sb
    for k in range(0, min(int(prod.top_known), 16) + 1):
        brute = sum(
            (F(a[i]) * F(b[k - i]) for i in range(len(a)) if 0 <= k - i < len(b)),
            F(0),
        )
        assert prod.coefficient(k) == brute


def test_truncation_is_enforced():
    s = LaurentSeries.mercator(4)
    s.coefficient(4)
    with pytest.raises(TruncationError):
        s.coefficient(5)
    q = LaurentSeries.mercator(4) / LaurentSeries(1, (F(-1), F(1)))
    assert q.top_known == 3
    with pytest.raises(TruncationError):
        q.coefficient(4)


def test_inverse_tracks_pole_order():
    # 1/(e^t - 1) has a simple pole at t = 0
    em1 = LaurentSeries.exponential(6) - 1
    inv = em1.inverse()
    assert inv.min_order == -1
    assert inv.coefficient(-1) == 1
    assert inv.coefficient(0) == F(-1, 2)
    assert inv.top_known == 4  # 6 - 2*1


def test_negative_powers():
    z = LaurentSeries.monomial(F(2), 1)
    s = z ** -3
    assert s.coefficient(-3) == F(1, 8)


def test_series_over_rational_function_coefficients():
    lam = RationalFunction.variable()
    w = (lam - 1) / lam
    log_series = LaurentSeries.mercator(3, -w)
    assert log_series.coefficient(1) == -w
    assert log_series.coefficient(2) == -(w ** 2) / 2
    den = LaurentSeries(1, (F(-1), F(1)))
    g = log_series / den
    assert g.coefficient(0) == w


_RATFUN_POOL = tuple(
    RationalFunction(poly(*a), poly(*b))
    for a, b in (((0,), (1,)), ((3,), (1,)), ((0, 1), (1,)), ((-1, 1), (0, 1)),
                 ((1,), (1, 1)), ((2, 0, -1), (-1, 1)), ((1, 1), (0, 0, 2)))
)


@st.composite
def series_pairs(draw):
    """Two series with one coefficient type, all Fraction or all
    RationalFunction, as every caller builds them."""
    if draw(st.booleans()):
        coeff = st.fractions(min_value=-9, max_value=9, max_denominator=6)
    else:
        coeff = st.sampled_from(_RATFUN_POOL)

    def one_series():
        return LaurentSeries(draw(st.integers(min_value=-3, max_value=3)),
                             draw(st.lists(coeff, max_size=5)),
                             draw(st.none() | st.integers(min_value=-4, max_value=10)))
    return one_series(), one_series()


def _outcome(compute):
    try:
        return compute()
    except (ZeroDivisionError, TruncationError) as exc:
        return type(exc)


def _same_series(got, want):
    if not isinstance(want, LaurentSeries):
        return got is want
    return ((got.offset, got.trunc, got.coeffs) == (want.offset, want.trunc, want.coeffs)
            and [type(c) for c in got.coeffs if c] == [type(c) for c in want.coeffs if c])


@settings(max_examples=300, deadline=None)
@given(series_pairs(), st.none() | st.integers(min_value=-4, max_value=10))
def test_divide_matches_inverse_times_product(pair, through):
    num, den = pair
    want = _outcome(lambda: divide_reference(num, den, through))
    assert _same_series(_outcome(lambda: num.divide(den, through)), want)
    assert _same_series(_outcome(lambda: num / den),
                        _outcome(lambda: divide_reference(num, den)))
    assert _same_series(_outcome(lambda: den.inverse(through)),
                        _outcome(lambda: _inverse_reference(den, through)))
    assert _same_series(_outcome(lambda: 1 / den),
                        _outcome(lambda: divide_reference(LaurentSeries(0, (1,)), den)))


def mul_reference(a, b):
    """a * b by the generic Cauchy-product loops, one Fraction operation per
    term: the reference for LaurentSeries.__mul__, which convolves int and
    Fraction coefficients in ints over one common denominator, and for
    Polynomial.__mul__, which runs the same loop (so for polynomials it pins
    the Fraction type of each product coefficient, and the test checks the
    values by evaluation)."""
    if isinstance(a, Polynomial):
        if not a.coeffs or not b.coeffs:
            return Polynomial()
        out = [F(0)] * (len(a.coeffs) + len(b.coeffs) - 1)
        for i, ca in enumerate(a.coeffs):
            if not ca:
                continue
            for j, cb in enumerate(b.coeffs):
                out[i + j] = out[i + j] + ca * cb
        return Polynomial(out)
    if not a.coeffs or not b.coeffs:
        T = min(_as_order(a.trunc), _as_order(b.trunc))
        return LaurentSeries.zero(None if T == INFINITY else int(T))
    T = min(_as_order(a.trunc) + b.offset, _as_order(b.trunc) + a.offset)
    lo = a.offset + b.offset
    hi_stored = (a.offset + len(a.coeffs) - 1) + (b.offset + len(b.coeffs) - 1)
    hi = hi_stored if T == INFINITY else min(hi_stored, int(T))
    out = [F(0)] * (hi - lo + 1)
    for i, ca in enumerate(a.coeffs):
        if not ca:
            continue
        base = a.offset + i + b.offset - lo
        for j, cb in enumerate(b.coeffs):
            k = base + j
            if k > hi - lo:
                break
            if cb:
                out[k] = out[k] + ca * cb
    return LaurentSeries(lo, out, None if T == INFINITY else int(T))


rationals = st.integers(min_value=-9, max_value=9) | st.fractions(
    min_value=-9, max_value=9, max_denominator=6)


@st.composite
def product_operands(draw):
    """Two polynomials and two series with mixed int/Fraction coefficients;
    with ratfun, the second of each pair has RationalFunction coefficients."""
    ratfun = draw(st.booleans())

    def coeffs(pool):
        return draw(st.lists(pool, max_size=6))

    def series(pool):
        return LaurentSeries(draw(st.integers(min_value=-3, max_value=3)), coeffs(pool),
                             draw(st.none() | st.integers(min_value=-4, max_value=15)))
    other = st.sampled_from(_RATFUN_POOL) if ratfun else rationals
    return (Polynomial(coeffs(rationals)), Polynomial(coeffs(other)),
            series(rationals), series(other))


def _typed_series(s):
    return s.offset, s.trunc, [(type(c), c) for c in s.coeffs]


@settings(max_examples=300, deadline=None)
@given(product_operands())
@example((Polynomial((1, F(1, 2))), Polynomial((F(2, 3), 0, -3)),
          LaurentSeries(-2, (1, F(2, 3), 3), 0), LaurentSeries(1, (F(-1, 2), 1, 4), 2)))
def test_products_match_generic_loops(operands):
    pa, pb, sa, sb = operands
    for a, b in ((pa, pb), (pb, pa)):
        assert typed_coeffs(a * b) == typed_coeffs(mul_reference(a, b))
        assert (a * b)(F(-3, 7)) == a(F(-3, 7)) * b(F(-3, 7))
    for a, b in ((sa, sb), (sb, sa)):
        assert _typed_series(a * b) == _typed_series(mul_reference(a, b))


@settings(max_examples=300, deadline=None)
@given(st.lists(rationals | st.sampled_from(_RATFUN_POOL[1:3]), max_size=7),
       rationals | st.sampled_from((0.5, -2.0, _RATFUN_POOL[2])))
@example([1, 2], 3)
@example([5], F(1, 2))
@example([5], 0.5)
@example([F(1), 2], 2)
@example([1, F(2)], F(3, 2))
@example([], F(1, 3))
def test_polynomial_evaluation_matches_horner(cs, x):
    p = Polynomial(tuple(cs))

    def typed(evaluate):
        try:
            value = evaluate(x)
        except TypeError as exc:  # a rational function times a float
            return TypeError, str(exc)
        return type(value), value
    assert typed(p) == typed(lambda x: horner_reference(p, x))


def test_log_gf_at_order_1500_in_budget():
    start = time.perf_counter()
    series = log_gf(1500, F(2))
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"log_gf(1500, 2) exceeded its 5s budget: {elapsed:.2f}s"
    for n in (0, 700, 1500):
        assert series.coefficient(n) == (1 - F(2)) ** (n + 2) * logsum_value(n, F(2))


@pytest.mark.parametrize("k", range(1, 9))
@pytest.mark.parametrize("value", [poly(1, 2, -1), LaurentSeries(0, (F(1), F(2), F(-1)), 6)],
                         ids=["Polynomial", "LaurentSeries"])
def test_power_squares_only_while_bits_remain(monkeypatch, value, k):
    calls = []
    mul = type(value).__mul__

    def counting_mul(self, other):
        calls.append(1)
        return mul(self, other)

    monkeypatch.setattr(type(value), "__mul__", counting_mul)
    value ** k
    assert len(calls) == bin(k).count("1") + k.bit_length() - 1
