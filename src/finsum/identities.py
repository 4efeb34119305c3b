"""Mechanical verification catalog for the log-sum identity network.

Every entry is an :class:`IdentityRecord`: a one-line statement in the
package's own notation, a verification status, and an executable sweep
that recomputes both sides exactly (`Fraction`, `RationalFunction`, or
truncated `LaurentSeries`; the cosine corner is the single floating-point
exception and carries explicit tolerances).

Statuses:

* ``printed_ok`` — the statement holds as catalogued; the sweep passes.
* ``printed_fails_corrected_ok`` — the catalogued form is wrong.  The
  record stores at least one exact counterexample to the original form,
  an executable transcription of that original form, and sweeps the
  corrected statement instead.

Notation used in the statement strings:

* ``S(n, q)``  — the log-sum numbers computed by this package,
* ``A(n)``     — alternating harmonic number ``sum_{j<=n} (-1)^j / j``,
* ``H(n)``     — harmonic number,
* ``D_n``      — Daehee number ``(-1)^n n!/(n+1)``,
* ``B_k`` / ``b_k`` — Bernoulli numbers of the first / second kind,
* ``B_m(w)``, ``B_m(b; w)`` — weighted (Apostol-style) Bernoulli
  numbers and polynomials,
* ``E_m``, ``E^(d)_m`` — (higher-order) Euler polynomials,
* ``s(n, k)`` / ``S2(n, k)`` — signed Stirling numbers of the first kind
  and Stirling numbers of the second kind,
* ``G`` — the generating series ``log(1 - ((q-1)/q) z)/(z (z-1))``,
* ``G_L(x, u)`` — the two-parameter series whose ``u^n`` coefficient is
  the degree-``n`` Leibnitz row polynomial ``L_n(x)``.

Counterexample convention: ``params`` fixes the evaluation point, and
``lhs`` / ``rhs`` are the two sides of the *original* (failing) statement
evaluated exactly at that point.  Every run recomputes both sides at
``params`` and compares them with the stored text.  Records run one after
another; the report is ordered by identifier and is byte-identical across
runs apart from ``elapsed``.
"""

from __future__ import annotations

import sys
import time
from collections import namedtuple
from fractions import Fraction
from math import comb, factorial, inf, isclose, lcm

from .exact import (
    LaurentSeries,
    Polynomial,
    RationalFunction,
    format_rational,
    parse_rational,
)
from .genfun import (
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
from .logsum import (
    harmonic_lcm_sequence,
    lcm_harmonic,
    logsum_at_half,
    logsum_bernoulli_stirling,
    logsum_direct,
    logsum_symbolic,
    logsum_value,
    table,
)
from .special import (
    apostol_bernoulli,
    apostol_bernoulli_polynomial,
    apostol_bernoulli_value,
    bernoulli,
    bernoulli_polynomial,
    bernoulli_second,
    daehee,
    euler_polynomial,
    harmonic,
    harmonic_alternating,
    stirling_first,
    stirling_second,
)
from .volkenborn import (
    binom_moment_bernoulli,
    convergence_report,
    daehee_limit,
    integral_limit,
    integral_series_check,
    mahler_route_value,
    volkenborn_sample,
)
from .zetavals import (
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

__all__ = [
    "PRINTED_OK",
    "PRINTED_FAILS",
    "FAMILIES",
    "Counterexample",
    "IdentityRecord",
    "identity_ids",
    "get_record",
    "records",
    "run_identity",
    "run_all",
    "report_json",
    "report_table",
]

PRINTED_OK = "printed_ok"
PRINTED_FAILS = "printed_fails_corrected_ok"

FAMILIES = ("core", "genfun", "apostol", "laurent", "padic")

#: default sweep ceilings; individual records may cap lower for cost
NUMERIC_BOUND = 20
SYMBOLIC_BOUND = 10

_HALF = Fraction(1, 2)
LAMBDA_SET = (
    Fraction(2),
    Fraction(3),
    Fraction(-1),
    _HALF,
    Fraction(-1, 2),
    Fraction(5, 3),
    Fraction(-7, 4),
)
#: smaller parameter grid for the more expensive series sweeps
_SMALL_LAMBDAS = (Fraction(2), _HALF, Fraction(-1), Fraction(5, 3))

_L = RationalFunction.variable()
_Z_MINUS_ONE = Polynomial((Fraction(-1), Fraction(1)))
_SQUARE_MINUS = Polynomial((Fraction(0), Fraction(-1), Fraction(1)))


# ---------------------------------------------------------------------------
# record plumbing
# ---------------------------------------------------------------------------

def _fmt(value) -> str:
    """Canonical text for an exact (or floating) quantity."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, Fraction):
        return format_rational(value)
    if isinstance(value, RationalFunction):
        return value.to_text()
    if isinstance(value, float):
        return repr(value)
    return str(value)


class Counterexample(namedtuple("Counterexample", "params lhs rhs")):
    """One exact failing instance of a catalogued statement."""

    __slots__ = ()

    def as_dict(self) -> dict:
        return {"params": dict(self.params), "lhs": self.lhs, "rhs": self.rhs}


def _cx(params: dict, lhs, rhs) -> Counterexample:
    return Counterexample(
        params={k: _fmt(v) for k, v in params.items()},
        lhs=_fmt(lhs),
        rhs=_fmt(rhs),
    )


class _Sweep:
    """Accumulates comparison counts and exact failures for one record."""

    __slots__ = ("swept", "failures")

    def __init__(self):
        self.swept = 0
        self.failures: list[Counterexample] = []

    def eq(self, params: dict, lhs, rhs) -> None:
        self.swept += 1
        if lhs != rhs:
            self.failures.append(_cx(params, lhs, rhs))

    def ok(self, params: dict, condition: bool, lhs, rhs) -> None:
        self.swept += 1
        if not condition:
            self.failures.append(_cx(params, lhs, rhs))

    def close(self, params: dict, lhs: float, rhs: float, tol: float) -> None:
        self.swept += 1
        if abs(lhs - rhs) > tol:
            self.failures.append(_cx(params, lhs, rhs))

    def series(self, params: dict, left: LaurentSeries, right: LaurentSeries, through: int) -> None:
        """Coefficient-wise comparison; reports the first differing order."""
        self.swept += 1
        for k in range(min(left.min_order, right.min_order), through + 1):
            lv = left.coefficient(k)
            rv = right.coefficient(k)
            if lv != rv:
                self.failures.append(_cx({**params, "order": k}, lv, rv))
                return

    def result(self) -> tuple[int, tuple[Counterexample, ...]]:
        return self.swept, tuple(self.failures)


#: float counterexample sides: libm results differ in the last bits by platform
_FLOAT_REL_TOL = 1e-12


def _parse_param(text: str):
    """Counterexample parameter text as int, rational, float, or the text itself."""
    for parse in (int, parse_rational, float):
        try:
            return parse(text)
        except ValueError:
            pass
    return text


def _matches(value, text: str) -> bool:
    if isinstance(value, float):
        return isclose(value, float(text), rel_tol=_FLOAT_REL_TOL)
    return _fmt(value) == text


class IdentityRecord(namedtuple(
        "IdentityRecord",
        "id family statement status check printed_sides counterexamples note",
        defaults=(None, (), ""))):
    """A catalogued statement plus the machinery to re-verify it.

    ``printed_sides(**params)`` returns the failing form's ``(lhs, rhs)`` at
    a counterexample's parsed params (``lambda`` passed as ``lam``).
    """

    __slots__ = ()

    def printed_check(self) -> bool:
        """True when every stored counterexample's sides, recomputed at its
        params, match the stored text and differ from each other."""
        for cx in self.counterexamples:
            kwargs = {
                "lam" if key == "lambda" else key: _parse_param(text)
                for key, text in cx.params.items()
            }
            lhs, rhs = self.printed_sides(**kwargs)
            if cx.lhs == cx.rhs or not (_matches(lhs, cx.lhs) and _matches(rhs, cx.rhs)):
                return False
        return True


def _numeric_bound(bound, default=NUMERIC_BOUND, cap=None) -> int:
    value = default if bound is None else bound
    if cap is not None:
        value = min(value, cap)
    return max(0, value)


def _symbolic_bound(bound, cap=SYMBOLIC_BOUND) -> int:
    value = cap if bound is None else min(bound, cap)
    return max(0, value)


def _constant_series(c) -> LaurentSeries:
    return LaurentSeries.monomial(c, 0)


# ---------------------------------------------------------------------------
# family "core": values, recurrences, harmonic / Daehee / derangement links
# ---------------------------------------------------------------------------

def _check_defining_sum_routes(bound):
    sweep = _Sweep()
    top = _numeric_bound(bound)
    for q in LAMBDA_SET:
        series = log_gf(top + 2, q)
        for n in range(top + 1):
            reference = logsum_value(n, q)
            sweep.eq({"n": n, "lambda": q, "route": "direct"}, logsum_direct(n, q), reference)
            sweep.eq(
                {"n": n, "lambda": q, "route": "alg1"},
                logsum_bernoulli_stirling(n, q),
                reference,
            )
            sweep.eq(
                {"n": n, "lambda": q, "route": "series"},
                series.coefficient(n) / (1 - q) ** (n + 2),
                reference,
            )
    for n in range(_symbolic_bound(bound, 12) + 1):
        symbolic = logsum_symbolic(n)
        direct = sum(
            (
                Fraction((-1) ** n, j + 1) * _L ** (-(j + 1)) * (_L - 1) ** (-(n + 1 - j))
                for j in range(n + 1)
            ),
            RationalFunction(0),
        )
        sweep.eq({"n": n, "route": "symbolic"}, direct, symbolic)
    return sweep.result()


def _check_step_recurrence(bound):
    sweep = _Sweep()
    for q in LAMBDA_SET:
        for n in range(1, _numeric_bound(bound) + 1):
            lhs = (q - 1) * logsum_value(n, q) + logsum_value(n - 1, q)
            rhs = Fraction((-1) ** n, n + 1) / q ** (n + 1)
            sweep.eq({"n": n, "lambda": q}, lhs, rhs)
    for n in range(1, _symbolic_bound(bound) + 1):
        lhs = (_L - 1) * logsum_symbolic(n) + logsum_symbolic(n - 1)
        rhs = Fraction((-1) ** n, n + 1) * _L ** (-(n + 1))
        sweep.eq({"n": n, "lambda": "symbolic"}, lhs, rhs)
    return sweep.result()


def _check_step_recurrence_daehee(bound):
    sweep = _Sweep()
    top = _numeric_bound(bound)
    for m in range(top + 1):
        spine = daehee(m, "bernoulli_stirling")
        sweep.eq({"m": m, "route": "factorial"}, spine, Fraction((-1) ** m * factorial(m), m + 1))
        sweep.eq({"m": m, "route": "daehee"}, spine, daehee(m))
    for q in _SMALL_LAMBDAS:
        for n in range(1, top + 1):
            lhs = (q - 1) * logsum_value(n, q) + logsum_value(n - 1, q)
            base = Fraction(-(n + 2), (n + 1) * factorial(n + 1)) / q ** (n + 1)
            sweep.eq({"n": n, "lambda": q, "route": "daehee"}, lhs, base * daehee(n + 1))
            sweep.eq(
                {"n": n, "lambda": q, "route": "bernoulli-stirling"},
                lhs,
                base * daehee(n + 1, "bernoulli_stirling"),
            )
    return sweep.result()


def _check_half_parameter_step(bound):
    sweep = _Sweep()
    top = _numeric_bound(bound)
    for n in range(top + 1):
        sweep.eq(
            {"n": n, "route": "closed"},
            logsum_at_half(n),
            logsum_value(n, _HALF),
        )
    for n in range(1, top + 1):
        lhs = 2 * logsum_value(n - 1, _HALF) - logsum_value(n, _HALF)
        sweep.eq({"n": n}, lhs, Fraction((-1) ** n * 2 ** (n + 2), n + 1))
    return sweep.result()


def _check_minus_one_step(bound):
    sweep = _Sweep()
    minus = Fraction(-1)
    for n in range(1, _numeric_bound(bound) + 1):
        lhs = logsum_value(n - 1, minus) - 2 * logsum_value(n, minus)
        sweep.eq({"n": n}, lhs, Fraction(-1, n + 1))
        scaled = 2 * (n + 1) * logsum_value(n - 1, minus) - 4 * (n + 1) * logsum_value(n, minus)
        sweep.eq({"n": n, "route": "scaled"}, scaled, Fraction(-2))
    return sweep.result()


def _check_two_parameter_step(bound):
    sweep = _Sweep()
    two = Fraction(2)
    for n in range(1, _numeric_bound(bound) + 1):
        lhs = logsum_value(n - 1, two) + logsum_value(n, two)
        sweep.eq({"n": n}, lhs, Fraction((-1) ** n, (n + 1) * 2 ** (n + 1)))
    return sweep.result()


def _check_two_parameter_euler_step(bound):
    sweep = _Sweep()
    two = Fraction(2)
    for n in range(1, _numeric_bound(bound, cap=16) + 1):
        base = sum(
            (euler_polynomial(j)(Fraction(0)) * stirling_first(n, j) for j in range(n + 1)),
            Fraction(0),
        )
        sweep.eq(
            {"n": n, "route": "euler-stirling"},
            base,
            Fraction((-1) ** n * factorial(n), 2 ** n),
        )
        lhs = logsum_value(n - 1, two) + logsum_value(n, two)
        sweep.eq({"n": n, "route": "step"}, lhs, _HALF * base / factorial(n + 1))
    return sweep.result()


def _check_binomial_reciprocal_closed_form(bound):
    sweep = _Sweep()
    minus = Fraction(-1)
    for n in range(_numeric_bound(bound) + 1):
        closed = Fraction(1, 2 * (n + 1)) * sum(
            (Fraction(1, comb(n, j)) for j in range(n + 1)), Fraction(0)
        )
        sweep.eq({"n": n}, logsum_value(n, minus), closed)
    return sweep.result()


def _check_binomial_reciprocal_step(bound):
    sweep = _Sweep()
    for n in range(1, _numeric_bound(bound) + 1):
        lhs = sum((Fraction(1, comb(n - 1, j)) for j in range(n)), Fraction(0))
        rhs = Fraction(2 * n, n + 1) * sum(
            (Fraction(1, comb(n, j)) for j in range(n)), Fraction(0)
        )
        sweep.eq({"n": n}, lhs, rhs)
    return sweep.result()


def _check_half_parameter_harmonic(bound):
    sweep = _Sweep()
    for n in range(_numeric_bound(bound, default=40) + 1):
        sweep.eq(
            {"n": n},
            logsum_value(n, _HALF),
            Fraction(2) ** (n + 2) * harmonic_alternating(n + 1),
        )
    return sweep.result()


def _half_parameter_harmonic_as_printed(n):
    return logsum_value(n, _HALF), Fraction(2) ** (n + 1) * harmonic_alternating(n + 1)


def _check_half_parameter_harmonic_inverse(bound):
    sweep = _Sweep()
    for n in range(1, _numeric_bound(bound) + 1):
        sweep.eq(
            {"n": n},
            harmonic_alternating(n),
            logsum_value(n - 1, _HALF) / Fraction(2 ** (n + 1)),
        )
    return sweep.result()


def _check_half_parameter_daehee_split(bound):
    sweep = _Sweep()
    for n in range(_numeric_bound(bound) + 1):
        value = logsum_value(n, _HALF)
        alt = harmonic_alternating(n)
        scale = Fraction(2 ** (n + 2), factorial(n))
        sweep.eq({"n": n, "route": "daehee"}, value, scale * (factorial(n) * alt - daehee(n)))
        sweep.eq(
            {"n": n, "route": "bernoulli-stirling"},
            value,
            scale * (factorial(n) * alt - daehee(n, "bernoulli_stirling")),
        )
        sweep.eq(
            {"n": n, "route": "tail"},
            value,
            Fraction(2 ** (n + 2)) * (alt + Fraction((-1) ** (n + 1), n + 1)),
        )
    return sweep.result()


def _check_bernoulli_stirling_double_sum(bound):
    sweep = _Sweep()
    for q in LAMBDA_SET:
        for n in range(_numeric_bound(bound) + 1):
            total = Fraction(0)
            for v in range(n + 1):
                sign = -1 if (n - v) % 2 else 1
                total += (
                    sign
                    * (q - 1) ** (v - n - 1)
                    * daehee(v, "bernoulli_stirling")
                    / (q ** (v + 1) * factorial(v))
                )
            sweep.eq({"n": n, "lambda": q}, total, logsum_direct(n, q))
    return sweep.result()


def _check_half_bernoulli_stirling(bound):
    sweep = _Sweep()
    for m in range(_numeric_bound(bound) + 1):
        rhs = -Fraction(2 ** (m + 2)) * sum(
            (daehee(v, "bernoulli_stirling") / factorial(v) for v in range(m + 1)), Fraction(0)
        )
        sweep.eq({"m": m}, logsum_value(m, _HALF), rhs)
    return sweep.result()


def _check_two_parameter_bernoulli_stirling(bound):
    sweep = _Sweep()
    two = Fraction(2)
    for m in range(_numeric_bound(bound) + 1):
        total = Fraction(0)
        for v in range(m + 1):
            sign = -1 if (m - v) % 2 else 1
            total += (
                sign * daehee(v, "bernoulli_stirling") / (Fraction(2 ** (v + 1)) * factorial(v))
            )
        sweep.eq({"m": m}, logsum_value(m, two), total)
    return sweep.result()


def _check_harmonic_daehee(bound):
    sweep = _Sweep()
    for n in range(_numeric_bound(bound) + 1):
        alt = harmonic_alternating(n)
        via_daehee = -sum((daehee(j) / factorial(j) for j in range(n)), Fraction(0))
        via_bs = -sum(
            (daehee(j, "bernoulli_stirling") / factorial(j) for j in range(n)), Fraction(0)
        )
        sweep.eq({"n": n, "route": "daehee"}, alt, via_daehee)
        sweep.eq({"n": n, "route": "bernoulli-stirling"}, alt, via_bs)
    return sweep.result()


def _check_daehee_closed_form(bound):
    sweep = _Sweep()
    for n in range(_numeric_bound(bound) + 1):
        closed = Fraction((-1) ** n * factorial(n), n + 1)
        sweep.eq({"n": n, "route": "closed"}, daehee(n), closed)
        sweep.eq({"n": n, "route": "bernoulli-stirling"}, daehee(n, "bernoulli_stirling"), closed)
        sweep.eq({"n": n, "route": "volkenborn"}, daehee_limit(n), closed)
    return sweep.result()


def _check_alternating_harmonic_relations(bound):
    sweep = _Sweep()
    top = _numeric_bound(bound)
    for n in range(top + 1):
        sweep.eq(
            {"n": n, "route": "split"},
            harmonic_alternating(n),
            harmonic(n // 2) - harmonic(n),
        )
    for n in range(1, top + 1):
        step = harmonic_alternating(n - 1) - harmonic_alternating(n)
        sweep.eq({"n": n, "route": "difference"}, step, Fraction((-1) ** (n - 1), n))
        sweep.eq({"n": n, "route": "daehee"}, daehee(n - 1), factorial(n - 1) * step)
    return sweep.result()


def _harmonic_split_sides(n: int):
    """Corrected index placement: both blocks weighted by S(k, .) terms."""
    first = RationalFunction(0)
    for k in range(2 * n):
        first = first + (_L ** (k + 2)) * logsum_symbolic(k) * Fraction(1, 2 * n - k)
    second = RationalFunction(0)
    for k in range(2 * n + 1):
        second = second + (_L ** (k + 1)) * logsum_symbolic(k) * Fraction(1, 2 * n + 1 - k)
    total = (
        RationalFunction(Fraction(-1, 2 * (n + 1)))
        + Fraction(n + 1) * first
        + Fraction(n + 1) * (_L - 1) * second
    )
    return total, harmonic(2 * n + 2) - harmonic(n + 1)


def _harmonic_split_printed(n: int, q: Fraction) -> Fraction:
    """Printed variant: the sum index frozen at 1 inside both blocks."""
    fixed = logsum_value(1, q)
    first = sum(
        (q ** (k + 2) * fixed * Fraction(1, 2 * n - k) for k in range(2 * n)), Fraction(0)
    )
    second = sum(
        (q ** (k + 1) * fixed * Fraction(1, 2 * n + 1 - k) for k in range(2 * n + 1)),
        Fraction(0),
    )
    return Fraction(-1, 2 * (n + 1)) + (n + 1) * first + (n + 1) * (q - 1) * second


def _check_harmonic_split(bound):
    sweep = _Sweep()
    for n in range(_symbolic_bound(bound, 5) + 1):
        total, expected = _harmonic_split_sides(n)
        sweep.eq({"n": n}, total, RationalFunction(expected))
    return sweep.result()


def _harmonic_split_as_printed(n, lam):
    return harmonic(2 * n + 2) - harmonic(n + 1), _harmonic_split_printed(n, Fraction(lam))


def _check_derangement_balance(bound):
    sweep = _Sweep()
    for n in range(_numeric_bound(bound, default=12, cap=14) + 1):
        lhs, rhs, _ = derangement_sides(n)
        sweep.eq({"n": n}, lhs, rhs)
        for q in _SMALL_LAMBDAS:
            sweep.eq({"n": n, "lambda": q}, lhs(q), rhs(q))
    return sweep.result()


def _derangement_balance_as_printed(n, lam):
    _, rhs, printed_lhs = derangement_sides(n)
    return printed_lhs(Fraction(lam)), rhs(Fraction(lam))


def _derangement_expanded_sum(n: int, q: Fraction) -> Fraction:
    ratio = (1 - q) / q
    total = Fraction(0)
    for m in range(n + 1):
        for j in range(m + 1):
            sign = -1 if (n - m + j + 1) % 2 else 1
            total += sign * ratio ** (n - m + 1) * Fraction(factorial(n), (n - m + 1) * factorial(j))
    return total


def _check_derangement_expanded(bound):
    sweep = _Sweep()
    for q in _SMALL_LAMBDAS:
        for n in range(_numeric_bound(bound, default=10, cap=12) + 1):
            expanded = _derangement_expanded_sum(n, q)
            _, rhs, printed_lhs = derangement_sides(n)
            sweep.eq({"n": n, "lambda": q, "route": "scaled"}, expanded, printed_lhs(q))
            sweep.eq(
                {"n": n, "lambda": q, "route": "normalised"},
                expanded / factorial(n),
                rhs(q),
            )
    return sweep.result()


def _derangement_expanded_as_printed(n, lam):
    q = Fraction(lam)
    _, rhs, _ = derangement_sides(n)
    return rhs(q), _derangement_expanded_sum(n, q)


_OEIS_FROZEN = (1, 3, 11, 25, 137, 147, 1089, 2283, 7129, 7381, 83711)


def _check_oeis_lcm_harmonic(bound):
    sweep = _Sweep()
    count = _numeric_bound(bound, default=11, cap=14)
    count = max(count, 1)
    via_harmonic = harmonic_lcm_sequence(count)
    via_table = harmonic_lcm_sequence(count, method="table")
    for k in range(count):
        sweep.eq({"k": k + 1, "route": "table"}, via_table[k], via_harmonic[k])
        sweep.eq({"k": k + 1, "route": "termwise"}, lcm_harmonic(k + 1), via_harmonic[k])
        sweep.eq(
            {"k": k + 1, "route": "definition"},
            Fraction(lcm(*range(1, k + 2))) * harmonic(k + 1),
            Fraction(via_harmonic[k]),
        )
        if k < len(_OEIS_FROZEN):
            sweep.eq({"k": k + 1, "route": "frozen"}, via_harmonic[k], _OEIS_FROZEN[k])
    return sweep.result()


_TABLE_FROZEN = (
    "1/(L*(L - 1))",
    "(-3*L + 1)/(2*L^2*(L - 1)^2)",
    "(11*L^2 - 7*L + 2)/(6*L^3*(L - 1)^3)",
    "(-25*L^3 + 23*L^2 - 13*L + 3)/(12*L^4*(L - 1)^4)",
    "(137*L^4 - 163*L^3 + 137*L^2 - 63*L + 12)/(60*L^5*(L - 1)^5)",
)


def _check_table_rows(bound):
    sweep = _Sweep()
    rows = table(4)
    for n, frozen in enumerate(_TABLE_FROZEN):
        sweep.eq({"n": n}, rows[n], frozen)
    return sweep.result()


def _ode_sides(n: int):
    lhs = (_L - 1) * logsum_symbolic(n).derivative() + Fraction(n + 2) * logsum_symbolic(n)
    rhs = RationalFunction(0)
    for k in range(n + 1):
        rhs = rhs + Fraction((-1) ** n) * ((_L - 1) ** (k - n - 1)) * (_L ** (-(k + 2)))
    closed = Fraction((-1) ** n) * (1 - ((_L - 1) / _L) ** (n + 1)) / (_L * (_L - 1) ** (n + 1))
    return lhs, rhs, closed


def _check_ode_derivative_forms(bound):
    sweep = _Sweep()
    for n in range(_symbolic_bound(bound) + 1):
        lhs, rhs, closed = _ode_sides(n)
        sweep.eq({"n": n, "form": "first"}, lhs, rhs)
        sweep.eq({"n": n, "form": "closed"}, rhs, closed)
        second_lhs = logsum_symbolic(n).derivative() + Fraction(n + 2) * logsum_symbolic(n) * (
            (_L - 1) ** (-1)
        )
        sweep.eq({"n": n, "form": "second"}, second_lhs, rhs * ((_L - 1) ** (-1)))
    return sweep.result()


def _ode_derivative_forms_as_printed(n, lam, form):
    # first form: the sign flipped; second: the ratio inverted, no (q-1) powers
    q = Fraction(lam)
    y = logsum_symbolic(n)
    if form == "first":
        lhs = (_L - 1) * y.derivative() + Fraction(n + 2) * y
        printed = Fraction((-1) ** (n + 1)) * (_L ** (-(n + 2))) * ((_L - 1) ** (-(n + 1)))
    else:
        lhs = y.derivative() + Fraction(n + 2) * y * ((_L - 1) ** (-1))
        printed = Fraction((-1) ** n) * (1 - (_L / (_L - 1)) ** (n + 1)) / _L
    return lhs(q), printed(q)


# ---------------------------------------------------------------------------
# family "genfun": generating series and coefficient identities
# ---------------------------------------------------------------------------

def _check_generating_contract(bound):
    sweep = _Sweep()
    top = _symbolic_bound(bound, 12)
    series = log_gf(top + 2, _L)
    for n in range(top + 1):
        sweep.eq(
            {"n": n},
            series.coefficient(n),
            ((1 - _L) ** (n + 2)) * logsum_symbolic(n),
        )
    return sweep.result()


def _check_hypergeometric_form(bound):
    sweep = _Sweep()
    T = 30 if bound is None else max(6, min(bound, 40))
    for q in LAMBDA_SET:
        lhs = log_gf(T, q) * _Z_MINUS_ONE * (q / (1 - q))
        rhs = gauss_2f1(Fraction(1), Fraction(1), Fraction(2), T, scale=(q - 1) / q)
        sweep.series({"lambda": q}, lhs, rhs, T - 1)
    T_sym = 12
    lhs = log_gf(T_sym, _L) * _Z_MINUS_ONE * (_L / (1 - _L))
    rhs = gauss_2f1(Fraction(1), Fraction(1), Fraction(2), T_sym, scale=(_L - 1) / _L)
    sweep.series({"lambda": "symbolic"}, lhs, rhs, T_sym - 1)
    return sweep.result()


def _hypergeometric_form_as_printed(lam, order):
    q = Fraction(lam)
    T = order + 6
    hyp = gauss_2f1(Fraction(1), Fraction(1), Fraction(2), T, scale=-(q - 1) / q)
    printed = (hyp * LaurentSeries.monomial(Fraction(1), 1) * ((1 - q) / q)).divide(
        LaurentSeries.from_polynomial(_Z_MINUS_ONE), through=T - 1
    )
    return log_gf(T, q).coefficient(order), printed.coefficient(order)


_SPECIAL_SERIES = (
    ("g1", Fraction(-1), Fraction(-2)),
    ("g2", Fraction(2), Fraction(-1, 2)),
    ("g3", _HALF, Fraction(1)),
)


def _check_special_parameter_series(bound):
    sweep = _Sweep()
    T = 16 if bound is None else max(6, min(bound, 24))
    for which, q, s in _SPECIAL_SERIES:
        special = log_gf_special(which, T)
        sweep.series({"which": which, "lambda": q}, special, log_gf(T, q), T - 1)
        kernel = (special * _SQUARE_MINUS).derivative()
        lhs = kernel * Polynomial((Fraction(1), s))
        sweep.series({"which": which, "route": "kernel"}, lhs, _constant_series(s), T - 2)
    return sweep.result()


def _check_derivative_balance(bound):
    sweep = _Sweep()
    T = 14 if bound is None else max(6, min(bound, 20))
    for q in LAMBDA_SET + (_L,):
        label = "symbolic" if isinstance(q, RationalFunction) else q
        kernel = (log_gf(T, q) * _SQUARE_MINUS).derivative()
        lhs = kernel * Polynomial((q, 1 - q))
        sweep.series({"lambda": label}, lhs, _constant_series(1 - q), T - 2)
    return sweep.result()


def _log_product_closed(n: int, q: Fraction, printed: bool) -> Fraction:
    front = (1 - q) ** (n + 3) if printed else (q - 1) ** (n + 3)
    total = sum(
        (
            logsum_value(k, q) / (Fraction(n + 1 - k) * q ** (n + 1 - k))
            for k in range(n + 1)
        ),
        Fraction(0),
    )
    return Fraction((-1) ** n) * front * total


def _check_log_product_expansion(bound):
    sweep = _Sweep()
    top = _numeric_bound(bound, default=13, cap=16)
    for q in _SMALL_LAMBDAS:
        series = log_product_gf(top + 3, q)
        for n in range(top + 1):
            corrected = _log_product_closed(n, q, printed=False)
            sweep.eq({"lambda": q, "order": n + 1}, series.coefficient(n + 1), corrected)
            printed = _log_product_closed(n, q, printed=True)
            sweep.ok(
                {"lambda": q, "order": n + 1, "route": "printed-parity"},
                (printed == corrected) == (n % 2 == 1),
                printed,
                corrected,
            )
    return sweep.result()


def _log_product_expansion_as_printed(lam, order):
    q = Fraction(lam)
    return (
        log_product_gf(order + 3, q).coefficient(order),
        _log_product_closed(order - 1, q, printed=True),
    )


def _check_odd_coefficient_vanishing(bound):
    sweep = _Sweep()
    for n in range(1, _symbolic_bound(bound, 6) + 1):
        first = RationalFunction(0)
        for k in range(2 * n - 1):
            first = first + ((1 - _L) ** (2 * n + 1)) * logsum_symbolic(k) * (
                _L ** (-(2 * n - 1 - k))
            ) * Fraction(1, 2 * n - 1 - k)
        second = RationalFunction(0)
        for k in range(2 * n):
            second = second + ((1 - _L) ** (2 * n + 2)) * logsum_symbolic(k) * (
                _L ** (-(2 * n - k))
            ) * Fraction(1, 2 * n - k)
        sweep.eq({"n": n}, first, second)
    return sweep.result()


_LEIBNITZ_GRID = tuple(
    (q, x)
    for q in (Fraction(2), _HALF, Fraction(-7, 4), Fraction(5, 3))
    for x in (Fraction(2), Fraction(-3), _HALF)
)


def _leibnitz_equation_sides(q: Fraction, x: Fraction, T: int, printed: bool):
    w = (q - 1) / q
    scaled = leibnitz_gf(x, T).compose(LaurentSeries.monomial(w, 1))
    prefactor = Polynomial((x + 1, -w)) if printed else Polynomial((x + 1, -x * w))
    left = scaled * prefactor * (-w)
    G = log_gf(T, q)
    right = G * _Z_MINUS_ONE + G.compose(LaurentSeries.monomial(x, 1)) * Polynomial((-x, x * x))
    return left, right


def _check_leibnitz_functional_equation(bound):
    sweep = _Sweep()
    T = 12 if bound is None else max(6, min(bound, 16))
    for q, x in _LEIBNITZ_GRID:
        left, right = _leibnitz_equation_sides(q, x, T, printed=False)
        sweep.series({"lambda": q, "x": x}, left, right, T - 1)
    return sweep.result()


def _leibnitz_functional_equation_as_printed(lam, x, order):
    left, right = _leibnitz_equation_sides(Fraction(lam), Fraction(x), order + 3, printed=True)
    return left.coefficient(order), right.coefficient(order)


def _check_leibnitz_three_term(bound):
    sweep = _Sweep()
    x = Polynomial.variable()
    for n in range(1, _numeric_bound(bound, default=12, cap=16) + 1):
        lhs = (x + 1) * leibnitz_polynomial(n) - x * leibnitz_polynomial(n - 1)
        rhs = (x ** (n + 1) + 1) * Fraction(1, n + 1)
        sweep.eq({"n": n, "route": "polynomial"}, lhs, rhs)
        lam_part = Fraction((-1) ** n) * (_L ** (n + 1)) * (
            (_L - 1) * logsum_symbolic(n) + logsum_symbolic(n - 1)
        )
        sweep.eq({"n": n, "route": "parameter"}, lam_part, RationalFunction(Fraction(1, n + 1)))
    return sweep.result()


def _check_half_parameter_tail_series(bound):
    sweep = _Sweep()
    T = 20 if bound is None else max(8, min(bound + 6, 30))
    f2 = alternating_harmonic_gf(T)
    g3 = log_gf_special("g3", T)
    tail = LaurentSeries.mercator(T + 1) * LaurentSeries.monomial(Fraction(1), -1)
    sweep.series({"route": "series"}, f2 - g3, tail, T - 1)
    for n in range(T - 1):
        value = (f2 - g3).coefficient(n)
        sweep.eq({"n": n, "route": "coefficient"}, value, Fraction((-1) ** n, n + 1))
        sweep.eq({"n": n, "route": "daehee"}, value, daehee(n) / factorial(n))
    return sweep.result()


def _check_bernoulli_second_convolution(bound):
    sweep = _Sweep()
    for n in range(_numeric_bound(bound, default=18) + 1):
        total = sum(
            (
                logsum_value(j, _HALF)
                * bernoulli_second(n - j)
                / (Fraction(2 ** j) * factorial(n - j))
                for j in range(n + 1)
            ),
            Fraction(0),
        )
        sweep.eq({"n": n, "weight": "2^j"}, total, Fraction(-4))
        sweep.eq({"n": n, "weight": "2^(j+2)"}, total / 4, Fraction(-1))
    return sweep.result()


def _check_alternating_harmonic_series(bound):
    sweep = _Sweep()
    T = 18 if bound is None else max(8, min(bound, 24))
    alternating = alternating_harmonic_gf(T)
    plain = harmonic_gf(T)
    flipped = plain.compose(LaurentSeries.monomial(Fraction(-1), 1))
    lhs = alternating * Polynomial((Fraction(1), Fraction(-1)))
    rhs = flipped * Polynomial((Fraction(1), Fraction(1)))
    sweep.series({"route": "substitution"}, lhs, rhs, T - 1)
    for n in range(T):
        sweep.eq(
            {"n": n, "route": "alternating"},
            alternating.coefficient(n),
            harmonic_alternating(n),
        )
        sweep.eq({"n": n, "route": "plain"}, plain.coefficient(n), harmonic(n))
    return sweep.result()


_FIB_CASES = (
    (Fraction(1), Fraction(1), 1, 1, 1),
    (Fraction(2), Fraction(3), 1, 1, 1),
    (Fraction(1, 2), Fraction(-1), 1, 2, 1),
)


def _check_fibonacci_generating(bound):
    sweep = _Sweep()
    T = 14 if bound is None else max(6, min(bound, 20))
    for x, yv, k, m, l in _FIB_CASES:
        series = fib_gf(T, x, yv, k, m, l)
        step = m + l
        values = [series.coefficient(n) for n in range(T + 1)]
        for n in range(T + 1):
            sweep.eq(
                {"x": x, "y": yv, "k": k, "m": m, "l": l, "n": n, "route": "closed"},
                values[n],
                fib_term(n, x, yv, k, m, l),
            )
        for n in range(step, T + 1):
            sweep.eq(
                {"x": x, "y": yv, "k": k, "m": m, "l": l, "n": n, "route": "recurrence"},
                values[n],
                x ** k * values[n - 1] + yv ** m * values[n - step],
            )
    return sweep.result()


# ---------------------------------------------------------------------------
# family "apostol": weighted Bernoulli / Stirling / Lerch / cosine network
# ---------------------------------------------------------------------------

def _check_weighted_stirling_master(bound):
    sweep = _Sweep()
    top = _numeric_bound(bound, default=14, cap=16)
    built = [weighted_number_sum(M) for M in range(top + 1)]
    for q in LAMBDA_SET:
        for M in range(top + 1):
            direct = apostol_bernoulli_value(M, q)
            sweep.eq({"M": M, "lambda": q, "route": "stirling"}, built[M](q), direct)
            sweep.eq(
                {"M": M, "lambda": q, "route": "weighted-sum"},
                weighted_number_sum(M, q),
                direct,
            )
    for M in range(_symbolic_bound(bound) + 1):
        expect = apostol_bernoulli(M)
        sweep.eq({"M": M, "route": "stirling-symbolic"}, built[M], expect)
        sweep.eq({"M": M, "route": "weighted-sum-symbolic"}, built[M], expect)
    return sweep.result()


def _check_half_weighted_expansion(bound):
    sweep = _Sweep()
    for m in range(_numeric_bound(bound, default=14, cap=16) + 1):
        rhs = sum(
            (
                Fraction(factorial(n + 1), 2 ** (n + 1))
                * logsum_value(n, _HALF)
                * stirling_second(m, n + 1)
                for n in range(m + 1)
            ),
            Fraction(0),
        )
        sweep.eq({"m": m}, apostol_bernoulli_value(m, _HALF), rhs)
    return sweep.result()


def _inverse_sum(m: int, q, weight):
    """``sum_n sum_j weight(n)/(j+1) (q/(q-1))^(n-j) S2(m,n+1)``."""
    return sum(
        (
            Fraction(weight(n), j + 1)
            * (q / (q - 1)) ** (n - j)
            * stirling_second(m, n + 1)
            for n in range(m + 1)
            for j in range(n + 1)
        ),
        RationalFunction(0) if isinstance(q, RationalFunction) else Fraction(0),
    )


def _weighted_sum_form_check(weight, divisor):
    """Sweep of ``B_m(w) = _inverse_sum(m, w, weight) / divisor(w)``,
    numerically on the parameter grid and symbolically in the weight."""

    def check(bound):
        sweep = _Sweep()
        top = _numeric_bound(bound, default=10, cap=12)
        for q in LAMBDA_SET:
            for m in range(top + 1):
                sweep.eq(
                    {"m": m, "lambda": q},
                    _inverse_sum(m, q, weight) / divisor(q),
                    apostol_bernoulli_value(m, q),
                )
        for m in range(_symbolic_bound(bound, 6) + 1):
            sweep.eq(
                {"m": m, "lambda": "symbolic"},
                _inverse_sum(m, _L, weight) / divisor(_L),
                apostol_bernoulli(m),
            )
        return sweep.result()

    return check


def _check_weighted_sum_bernoulli_form(bound):
    sweep = _Sweep()
    top = _numeric_bound(bound, default=10, cap=12)
    for q in LAMBDA_SET:
        for m in range(top + 1):
            inverse = _inverse_sum(m, q, lambda n: (n + 2) * daehee(n + 1, "bernoulli_stirling"))
            sweep.eq({"m": m, "lambda": q}, inverse / (1 - q), apostol_bernoulli_value(m, q))
    return sweep.result()


def _companion_convolution_lhs(m: int) -> Fraction:
    return sum(
        (
            comb(m, n) * apostol_bernoulli_value(n, _HALF) * bernoulli(m - n)
            for n in range(m + 1)
        ),
        Fraction(0),
    )


def _check_weighted_convolution_companion(bound):
    sweep = _Sweep()
    for m in range(_numeric_bound(bound, default=12, cap=14) + 1):
        corrected = m * sum(
            (
                Fraction(factorial(n), 2 ** (n + 1))
                * logsum_value(n, _HALF)
                * stirling_second(m - 1, n)
                for n in range(m)
            ),
            Fraction(0),
        )
        sweep.eq({"m": m}, _companion_convolution_lhs(m), corrected)
    return sweep.result()


def _weighted_convolution_companion_as_printed(m):
    printed = m * sum(
        (
            Fraction(factorial(n + 1), 2 ** (n + 1))
            * logsum_value(n, _HALF)
            * stirling_second(m - 1, n + 1)
            for n in range(m)
        ),
        Fraction(0),
    )
    return _companion_convolution_lhs(m), printed


def _harmonic_stirling_lhs(m: int) -> Fraction:
    return sum(
        (
            factorial(n) * harmonic_alternating(n) * stirling_second(m, n)
            for n in range(m + 1)
        ),
        Fraction(0),
    )


def _check_harmonic_stirling_second(bound):
    sweep = _Sweep()
    for m in range(_numeric_bound(bound, default=14, cap=16) + 1):
        corrected = sum(
            (
                Fraction(factorial(n + 1), 2 ** (n + 2))
                * logsum_value(n, _HALF)
                * stirling_second(m, n + 1)
                for n in range(m + 1)
            ),
            Fraction(0),
        )
        sweep.eq({"m": m}, _harmonic_stirling_lhs(m), corrected)
    return sweep.result()


def _harmonic_stirling_second_as_printed(m):
    printed = sum(
        (
            Fraction(factorial(n + 1), 2 ** n)
            * logsum_value(n, _HALF)
            * stirling_second(m, n + 1)
            for n in range(m + 1)
        ),
        Fraction(0),
    )
    return _harmonic_stirling_lhs(m), printed


def _check_half_euler_harmonic(bound):
    sweep = _Sweep()
    for m in range(1, _numeric_bound(bound, default=14, cap=16) + 1):
        sweep.eq(
            {"m": m},
            _HALF * apostol_bernoulli_value(m, _HALF),
            _harmonic_stirling_lhs(m),
        )
    return sweep.result()


def _check_entire_series_master(bound):
    sweep = _Sweep()
    for j in range(_numeric_bound(bound, default=8, cap=10) + 1):
        sweep.eq(
            {"j": j},
            geometric_moment(j),
            -apostol_bernoulli(j + 1) * Fraction(1, j + 1),
        )
    closed = geometric_moment(1)(Fraction(1, 3))
    partial = lerch_partial(Fraction(1, 3), 2, b=0, terms=200)
    tail = closed - partial
    sweep.ok(
        {"lambda": Fraction(1, 3), "terms": 200},
        0 < tail < Fraction(1, 10 ** 90),
        tail,
        "tail in (0, 10^-90)",
    )
    return sweep.result()


_LERCH_SHIFTS = (Fraction(1), Fraction(2), _HALF, Fraction(3))


def _check_lerch_interpolation(bound):
    sweep = _Sweep()
    top = _numeric_bound(bound, default=8, cap=10)
    for n in range(1, top + 1):
        poly = apostol_bernoulli_polynomial(n)
        for b in _LERCH_SHIFTS:
            expect = -(poly(b)) * Fraction(1, n)
            total = sum(
                (
                    comb(n - 1, k) * b ** (n - 1 - k) * geometric_moment(k)
                    for k in range(n)
                ),
                RationalFunction(0),
            )
            sweep.eq({"n": n, "b": b, "route": "moments"}, total, expect)
            for q in (Fraction(2), _HALF, Fraction(-1)):
                sweep.eq(
                    {"n": n, "b": b, "lambda": q},
                    lerch_neg(q, n, b),
                    expect(q),
                )
    sweep.eq({"n": 1, "b": 1, "lambda": Fraction(2), "route": "frozen"}, lerch_neg(Fraction(2), 1), Fraction(-1))
    sweep.eq({"n": 2, "b": 1, "lambda": _HALF, "route": "frozen"}, lerch_neg(_HALF, 2), Fraction(4))
    return sweep.result()


def _check_lerch_reduction(bound):
    sweep = _Sweep()
    shifted_one = apostol_bernoulli_polynomial(1)(Fraction(1))
    sweep.eq({"n": 1}, _L * shifted_one, 1 + apostol_bernoulli(1))
    for n in range(2, _numeric_bound(bound, default=8, cap=10) + 1):
        shifted = apostol_bernoulli_polynomial(n)(Fraction(1))
        sweep.eq({"n": n, "route": "shift"}, _L * shifted, apostol_bernoulli(n))
        for q in (Fraction(2), _HALF, Fraction(-1)):
            sweep.eq(
                {"n": n, "lambda": q},
                lerch_neg(q, n, 1),
                -apostol_bernoulli_value(n, q) / (n * q),
            )
    return sweep.result()


def _check_weighted_shift_relations(bound):
    sweep = _Sweep()
    sweep.eq({"n": 0}, apostol_bernoulli_polynomial(0)(Fraction(0)), RationalFunction(0))
    first = apostol_bernoulli_polynomial(1)(Fraction(1))
    sweep.eq({"n": 1}, _L * first, 1 + apostol_bernoulli(1))
    for n in range(2, _numeric_bound(bound, default=8, cap=10) + 1):
        shifted = apostol_bernoulli_polynomial(n)(Fraction(1))
        sweep.eq({"n": n}, _L * shifted, apostol_bernoulli(n))
    return sweep.result()


def _check_geometric_cosine(bound):
    sweep = _Sweep()
    closed = cos_closed_form(0.1)
    sweep.close(
        {"lambda": 0.1, "terms": 200},
        cos_geometric_partial(0.1, 200),
        closed,
        1e-12,
    )
    for lam in (0.25, -0.2):
        sweep.close(
            {"lambda": lam, "terms": 200},
            cos_geometric_partial(lam, 200),
            cos_closed_form(lam),
            1e-10,
        )
    return sweep.result()


def _check_odd_weighted_cosine(bound):
    sweep = _Sweep()
    closed = cos_closed_form(0.1)
    sweep.close({"lambda": 0.1, "terms": 12}, odd_weighted_partial(0.1, 12), closed, 1e-6)
    partial, closed_again = cos_series_partial(0.1, 12)
    sweep.close({"lambda": 0.1, "terms": 12, "route": "combined"}, partial, closed_again, 1e-6)
    return sweep.result()


def _odd_weighted_cosine_as_printed(lam, terms):
    return odd_weighted_partial(lam, terms, form="printed"), cos_closed_form(lam)


def _check_fibonacci_cosine(bound):
    sweep = _Sweep()
    for lam in (0.1, -0.25):
        sweep.close(
            {"lambda": lam, "terms": 60},
            fib_cos_partial(lam, 60),
            cos_closed_form(lam),
            1e-12,
        )
    return sweep.result()


def _fibonacci_cosine_as_printed(lam, printed_terms, series_terms):
    printed = odd_weighted_partial(lam, printed_terms, form="printed")
    return printed, fib_cos_partial(lam, series_terms)


# ---------------------------------------------------------------------------
# family "laurent": exponential-parameter expansions and zeta values
# ---------------------------------------------------------------------------

def _check_exp_minus_map(bound):
    sweep = _Sweep()
    T = 8
    for n in range(_numeric_bound(bound, default=3, cap=4) + 1):
        work = T + 2 * (n + 2) + 6
        growth = LaurentSeries.exponential(work, Fraction(1))
        total = LaurentSeries.zero(T)
        for j in range(n + 1):
            d = n + 1 - j
            term = (growth ** (n + 2)).divide((growth + 1) ** d, through=T)
            total = total + term * Fraction(1, j + 1)
        sweep.series({"n": n}, total, exp_parameter_series(n, -1, 1, T), T)
    return sweep.result()


def _check_eta_series(bound):
    sweep = _Sweep()
    ntop = _numeric_bound(bound, default=6, cap=6)
    mtop = 8
    for n in range(ntop + 1):
        series = exp_parameter_series(n, -1, 1, mtop)
        for m in range(mtop + 1):
            abel = polynomial = Fraction(0)
            for j in range(n + 1):
                d = n + 1 - j
                w = Fraction(1, (j + 1) * 2 ** d)
                abel += eta_neg(m, n + 2, order=d) * w
                polynomial += euler_polynomial(m, order=d)(Fraction(n + 2)) * w
            sweep.eq({"n": n, "m": m}, abel, polynomial)
            sweep.eq(
                {"n": n, "m": m, "route": "coefficient"},
                eta_coefficient_sum(n, m),
                series.coefficient(m),
            )
    return sweep.result()


def _check_euler_multinomial(bound):
    sweep = _Sweep()
    ntop = _numeric_bound(bound, default=6, cap=6)
    for n in range(ntop + 1):
        for m in range(9):
            sweep.eq(
                {"n": n, "m": m},
                factorial(m) * eta_coefficient_sum(n, m),
                eta_multinomial_sum(n, m),
            )
    return sweep.result()


def _check_eta_degree_offset(bound):
    sweep = _Sweep()
    for m in range(_numeric_bound(bound, default=10, cap=12) + 1):
        sweep.eq({"m": m}, eta_neg(m, 2), euler_polynomial(m)(Fraction(2)))
    return sweep.result()


def _eta_degree_offset_as_printed(m):
    return euler_polynomial(m + 1)(Fraction(2)), eta_neg(m, 2)


def _check_eta_pair_difference(bound):
    sweep = _Sweep()
    for m in range(_numeric_bound(bound, default=8, cap=10) + 1):
        lhs = eta_neg(m, 3, order=2) - eta_neg(m, 3, order=1)
        rhs = euler_polynomial(m, order=2)(Fraction(3)) - euler_polynomial(m, order=1)(
            Fraction(3)
        )
        sweep.eq({"m": m}, lhs, rhs)
    return sweep.result()


def _eta_triple_values(m: int):
    corrected = (
        3 * eta_neg(m, 4, order=3) + 3 * eta_neg(m, 4, order=2) + 8 * eta_neg(m, 4, order=1)
    )
    polynomial_side = (
        3 * euler_polynomial(m, order=3)(Fraction(4))
        + 3 * euler_polynomial(m, order=2)(Fraction(4))
        + 8 * euler_polynomial(m, order=1)(Fraction(4))
    )
    printed = (
        3 * eta_neg(m, 4, order=3) + 3 * eta_neg(m, 4, order=2) + 8 * eta_neg(m, 3, order=1)
    )
    return corrected, polynomial_side, printed


def _check_eta_triple(bound):
    sweep = _Sweep()
    for m in range(_numeric_bound(bound, default=6, cap=8) + 1):
        corrected, polynomial_side, _ = _eta_triple_values(m)
        sweep.eq({"m": m, "route": "argument-4"}, corrected, polynomial_side)
        weighted = (
            3 * eta_neg(m, 4, order=3)
            + 3 * eta_neg(m, 4, order=2)
            + 4 * eta_neg(m, 4, order=1)
        )
        sweep.eq(
            {"m": m, "route": "coefficient-instance"},
            weighted,
            24 * factorial(m) * eta_coefficient_sum(2, m),
        )
    return sweep.result()


def _eta_triple_as_printed(m):
    _, polynomial_side, printed = _eta_triple_values(m)
    return printed, polynomial_side


def _check_eta_quintuple(bound):
    sweep = _Sweep()
    weights = ((15, 5), (15, 4), (10, 3), (10, 2), (24, 1))
    for m in range(_numeric_bound(bound, default=6, cap=8) + 1):
        lhs = sum(
            (w * eta_neg(m, 5, order=d) for w, d in weights),
            Fraction(0),
        )
        rhs = sum(
            (w * euler_polynomial(m, order=d)(Fraction(5)) for w, d in weights),
            Fraction(0),
        )
        sweep.eq({"m": m}, lhs, rhs)
    return sweep.result()


def _check_hurwitz_regular_map(bound):
    sweep = _Sweep()
    for n in range(_numeric_bound(bound, default=4, cap=4) + 1):
        for m in range(7):
            sweep.eq(
                {"n": n, "m": m},
                hurwitz_coefficient_sum(n, m),
                exp_parameter_series(n, 1, 1, m).coefficient(m),
            )
    return sweep.result()


def _check_hurwitz_negative_values(bound):
    sweep = _Sweep()
    top = _numeric_bound(bound, default=10, cap=12)
    for m in range(top + 1):
        for x in (Fraction(1), Fraction(2), _HALF, Fraction(3)):
            # B_(m+1)(x) from the Bernoulli numbers, not from bernoulli_polynomial
            b = sum(comb(m + 1, k) * bernoulli(k) * x ** (m + 1 - k) for k in range(m + 2))
            sweep.eq({"m": m, "x": x, "route": "order-1"}, hurwitz_neg(m, x), -b / (m + 1))
    for d in range(5):
        for m in range(7):
            for x in (Fraction(1), Fraction(3, 2)):
                closed = (
                    Fraction((-1) ** d * factorial(m), factorial(d + m))
                    * bernoulli_polynomial(m + d, order=d)(x)
                )
                sweep.eq({"m": m, "x": x, "d": d, "route": "closed"}, hurwitz_neg(m, x, order=d), closed)
                if d >= 1:
                    step = hurwitz_neg(m, x, order=d) - hurwitz_neg(m, x + 1, order=d)
                    sweep.eq(
                        {"m": m, "x": x, "d": d, "route": "difference"},
                        step,
                        hurwitz_neg(m, x, order=d - 1),
                    )
    return sweep.result()


def _check_hurwitz_zero_sum(bound):
    sweep = _Sweep()
    for n in range(_numeric_bound(bound, default=4, cap=4) + 1):
        for m in range(7):
            sweep.eq({"n": n, "m": m}, hurwitz_cancellation(n, m), Fraction(0))
    return sweep.result()


def _check_even_substitution_map(bound):
    sweep = _Sweep()
    T = 6
    for n in range(_numeric_bound(bound, default=3, cap=4) + 1):
        sweep.series(
            {"n": n},
            even_map_rhs_series(n, T),
            exp_parameter_series(n, 1, 2, T),
            T,
        )
    return sweep.result()


def _even_substitution_map_as_printed(n, m):
    T = m + 4
    return (
        exp_parameter_series(n, -1, 2, T).coefficient(m),
        even_map_rhs_series(n, T).coefficient(m),
    )


def _check_even_regular_expansion(bound):
    sweep = _Sweep()
    for n in range(_numeric_bound(bound, default=3, cap=4) + 1):
        minus = exp_parameter_series(n, -1, 2, 7)
        plus = exp_parameter_series(n, 1, 2, 7)
        for m in range(8):
            sweep.eq(
                {"n": n, "m": m, "route": "minus"},
                even_coefficient_minus(n, m),
                minus.coefficient(m),
            )
            sweep.eq(
                {"n": n, "m": m, "route": "plus"},
                even_regular_plus(n, m),
                plus.coefficient(m),
            )
    return sweep.result()


def _even_regular_expansion_as_printed(n, m):
    return even_coefficient_minus(n, m), printed_even_bernoulli(n, m)


def _check_even_convolution_expansion(bound):
    sweep = _Sweep()
    for n in range(_numeric_bound(bound, default=3, cap=4) + 1):
        plus = exp_parameter_series(n, 1, 2, 7)
        for m in range(8):
            sweep.eq(
                {"n": n, "m": m},
                even_regular_half_argument(n, m),
                plus.coefficient(m),
            )
    return sweep.result()


def _even_convolution_expansion_as_printed(n, m):
    return even_coefficient_minus(n, m), printed_even_convolution(n, m)


def _check_even_closing_balance(bound):
    sweep = _Sweep()
    for n in range(_numeric_bound(bound, default=3, cap=4) + 1):
        for m in range(8):
            sweep.eq(
                {"n": n, "m": m},
                even_regular_plus(n, m),
                even_regular_half_argument(n, m),
            )
        for m in range(5):
            minus_sum = even_coefficient_minus(n, m)
            minus_series = exp_parameter_series(n, -1, 2, m).coefficient(m)
            plus_series = exp_parameter_series(n, 1, 2, m).coefficient(m)
            ok = (
                minus_sum == minus_series
                and even_regular_plus(n, m) == plus_series
                and even_regular_half_argument(n, m) == plus_series
            )
            sweep.ok({"n": n, "m": m, "route": "bundled"}, ok, minus_sum, minus_series)
    return sweep.result()


def _even_closing_balance_as_printed(n, m):
    return printed_closing_lhs(n, m), printed_closing_rhs(n, m)


# ---------------------------------------------------------------------------
# family "padic": Volkenborn limits and the integral representation
# ---------------------------------------------------------------------------

_POWER_LEVELS = ((2, 8), (3, 8), (5, 5))


def _check_volkenborn_power_limits(bound):
    sweep = _Sweep()
    jtop = _numeric_bound(bound, default=6, cap=6)
    for p, max_level in _POWER_LEVELS:
        for j in range(jtop + 1):
            report = convergence_report(p, "power", j, max_level)
            sweep.ok(
                {"p": p, "index": j, "levels": max_level},
                report["ok"],
                str([("+inf" if v == inf else int(v)) for v in report["valuations"]]),
                "valuations >= N-j-2, monotone from level 4",
            )
            sweep.eq(
                {"p": p, "index": j, "route": "limit"},
                integral_limit("power", j),
                bernoulli_polynomial(j)(Fraction(0)),
            )
    return sweep.result()


def _check_volkenborn_falling_binom_limits(bound):
    sweep = _Sweep()
    jtop = _numeric_bound(bound, default=4, cap=5)
    for p, max_level in _POWER_LEVELS:
        for j in range(jtop + 1):
            for integrand, expected in (
                ("falling", daehee_limit(j)),
                ("binom", binom_moment_bernoulli(j)),
            ):
                sweep.eq(
                    {"p": p, "integrand": integrand, "index": j, "route": "limit"},
                    integral_limit(integrand, j),
                    expected,
                )
                sample = volkenborn_sample(p, max_level, integrand, j)
                v = sample.error_valuation
                sweep.ok(
                    {"p": p, "integrand": integrand, "index": j, "level": max_level},
                    v >= 1,
                    "+inf" if v == inf else str(int(v)),
                    ">= 1",
                )
    return sweep.result()


def _check_integral_representation(bound):
    sweep = _Sweep()
    T = 24 if bound is None else max(8, min(bound, 30))
    for q in _SMALL_LAMBDAS:
        row = integral_series_check(q, T)
        sweep.ok({"lambda": q, "through": T}, row["ok"], "integral route", "series route")
    row = integral_series_check(_L, 10)
    sweep.ok({"lambda": "symbolic", "through": 10}, row["ok"], "integral route", "series route")
    return sweep.result()


def _check_mahler_reconstruction(bound):
    sweep = _Sweep()
    for q in LAMBDA_SET:
        for n in range(_numeric_bound(bound) + 1):
            sweep.eq({"n": n, "lambda": q}, mahler_route_value(n, q), logsum_value(n, q))
    return sweep.result()


# ---------------------------------------------------------------------------
# the catalog
# ---------------------------------------------------------------------------

def _record(identity_id, family, statement, check, status=PRINTED_OK, printed_sides=None,
            counterexamples=(), note=""):
    if status == PRINTED_FAILS and (
        printed_sides is None or not counterexamples
        or any(cx.lhs == cx.rhs for cx in counterexamples)
    ):
        raise ValueError(f"{identity_id}: needs printed_sides and counterexamples with lhs != rhs")
    return IdentityRecord(
        id=identity_id,
        family=family,
        statement=statement,
        status=status,
        check=check,
        printed_sides=printed_sides,
        counterexamples=counterexamples,
        note=note,
    )


_RECORDS = (
    # -- core ---------------------------------------------------------------
    _record(
        "defining-sum-routes",
        "core",
        "The defining alternating sum, the Bernoulli-Stirling double sum, the "
        "recurrence, and the symbolic closed form agree; generating-series "
        "coefficients reproduce the values after scaling by (1-q)^(n+2).",
        _check_defining_sum_routes,
    ),
    _record(
        "step-recurrence",
        "core",
        "(q-1) S(n,q) + S(n-1,q) = (-1)^n/((n+1) q^(n+1)) for n >= 1, "
        "numerically on the parameter grid and symbolically in q.",
        _check_step_recurrence,
    ),
    _record(
        "step-recurrence-daehee",
        "core",
        "sum_k B_k s(m,k) = (-1)^m m!/(m+1) = D_m, and the step right-hand "
        "side rewrites as -(n+2) D_{n+1}/((n+1) (n+1)! q^(n+1)) in both the "
        "Daehee and Bernoulli-Stirling spellings.",
        _check_step_recurrence_daehee,
    ),
    _record(
        "half-parameter-step",
        "core",
        "2 S(n-1,1/2) - S(n,1/2) = (-1)^n 2^(n+2)/(n+1) for n >= 1.",
        _check_half_parameter_step,
    ),
    _record(
        "minus-one-step",
        "core",
        "S(n-1,-1) - 2 S(n,-1) = -1/(n+1), and the scaled variant "
        "2(n+1) S(n-1,-1) - 4(n+1) S(n,-1) = -2.",
        _check_minus_one_step,
    ),
    _record(
        "two-parameter-step",
        "core",
        "S(n-1,2) + S(n,2) = (-1)^n/((n+1) 2^(n+1)) for n >= 1.",
        _check_two_parameter_step,
    ),
    _record(
        "two-parameter-euler-step",
        "core",
        "sum_j E_j(0) s(n,j) = (-1)^n n!/2^n, hence S(n-1,2) + S(n,2) = "
        "(1/2) sum_j E_j(0) s(n,j)/(n+1)!.",
        _check_two_parameter_euler_step,
        note="Holds with the zero-argument Euler polynomial values E_j(0), "
        "not the integer Euler numbers.",
    ),
    _record(
        "binomial-reciprocal-closed-form",
        "core",
        "S(n,-1) = (1/(2(n+1))) sum_j 1/C(n,j).",
        _check_binomial_reciprocal_closed_form,
    ),
    _record(
        "binomial-reciprocal-step",
        "core",
        "sum_{j<n} 1/C(n-1,j) = (2n/(n+1)) sum_{j<n} 1/C(n,j); note both "
        "sums stop at j = n-1.",
        _check_binomial_reciprocal_step,
    ),
    _record(
        "half-parameter-harmonic",
        "core",
        "S(n,1/2) = 2^(n+2) A(n+1).",
        _check_half_parameter_harmonic,
        status=PRINTED_FAILS,
        printed_sides=_half_parameter_harmonic_as_printed,
        counterexamples=(
            Counterexample(params={"n": "0"}, lhs="-4", rhs="-2"),
        ),
        note="The catalogued power 2^(n+1) is off by a factor 2 for every n; "
        "the corrected exponent n+2 is swept here and is consistent with the "
        "inverse statement A(n) = S(n-1,1/2)/2^(n+1).",
    ),
    _record(
        "half-parameter-harmonic-inverse",
        "core",
        "A(n) = S(n-1,1/2)/2^(n+1) for n >= 1.",
        _check_half_parameter_harmonic_inverse,
    ),
    _record(
        "half-parameter-daehee-split",
        "core",
        "S(n,1/2) = (2^(n+2)/n!)(n! A(n) - D_n), the same with D_n unfolded "
        "into sum_k B_k s(n,k), and the tail form "
        "S(n,1/2) = 2^(n+2)(A(n) + (-1)^(n+1)/(n+1)).",
        _check_half_parameter_daehee_split,
    ),
    _record(
        "bernoulli-stirling-double-sum",
        "core",
        "Literal double-sum evaluator: S(n,q) = sum_{v<=n} "
        "(-1)^(v-n) (q-1)^(v-n-1)/(q^(v+1) v!) sum_k B_k s(v,k).",
        _check_bernoulli_stirling_double_sum,
    ),
    _record(
        "half-bernoulli-stirling",
        "core",
        "S(m,1/2) = -2^(m+2) sum_{v<=m} sum_k B_k s(v,k)/v!.",
        _check_half_bernoulli_stirling,
    ),
    _record(
        "two-parameter-bernoulli-stirling",
        "core",
        "S(m,2) = sum_{v<=m} (-1)^(v-m)/(2^(v+1) v!) sum_k B_k s(v,k).",
        _check_two_parameter_bernoulli_stirling,
    ),
    _record(
        "harmonic-daehee",
        "core",
        "A(n) = -sum_{j<n} D_j/j! = -sum_{j<n} sum_v B_v s(j,v)/j!.",
        _check_harmonic_daehee,
    ),
    _record(
        "daehee-closed-form",
        "core",
        "D_n = (-1)^n n!/(n+1) = sum_k B_k s(n,k) = Volkenborn integral of "
        "the falling factorial (x)_n.",
        _check_daehee_closed_form,
    ),
    _record(
        "alternating-harmonic-relations",
        "core",
        "A(n) = H(floor(n/2)) - H(n); A(n-1) - A(n) = (-1)^(n-1)/n; "
        "D_{n-1} = (n-1)! (A(n-1) - A(n)).",
        _check_alternating_harmonic_relations,
    ),
    _record(
        "harmonic-split",
        "core",
        "H(2n+2) - H(n+1) equals a two-block weighted sum of S(k,q) terms "
        "that is independent of the parameter q.",
        _check_harmonic_split,
        status=PRINTED_FAILS,
        printed_sides=_harmonic_split_as_printed,
        counterexamples=(
            Counterexample(
                params={"n": "1", "lambda": "2"}, lhs="7/12", rhs="-313/12"
            ),
        ),
        note="The catalogued right-hand side freezes the running index of "
        "S(k,q) at a fixed value instead of letting it track the summation "
        "index; restoring the running index makes the sum collapse to the "
        "harmonic difference for every parameter.",
    ),
    _record(
        "derangement-balance",
        "core",
        "(1/n!) sum_m C(n,m) ((1-q)/q)^(n-m+1) D^{flat}_{n-m} d_m balances "
        "sum_j ((-1)^(n-j)/(n-j)!) (1-q)^(j+2) S(j,q), where d_m are the "
        "derangement numbers and D^{flat} the Daehee numbers.",
        _check_derangement_balance,
        status=PRINTED_FAILS,
        printed_sides=_derangement_balance_as_printed,
        counterexamples=(
            Counterexample(params={"n": "2", "lambda": "2"}, lhs="7/12", rhs="7/24"),
        ),
        note="The two sides come from an exponential and an ordinary "
        "generating function; the catalogued display omits the 1/n! that "
        "converts between the two coefficient conventions.",
    ),
    _record(
        "derangement-expanded",
        "core",
        "Fully expanded double-sum form of the derangement balance: "
        "sum_m sum_{j<=m} (-1)^(n-m+j+1) ((1-q)/q)^(n-m+1) "
        "n!/((n-m+1) j!) equals n! times the S(j,q) side.",
        _check_derangement_expanded,
        status=PRINTED_FAILS,
        printed_sides=_derangement_expanded_as_printed,
        counterexamples=(
            Counterexample(params={"n": "2", "lambda": "2"}, lhs="7/24", rhs="7/12"),
        ),
        note="Same missing 1/n! as derangement-balance; the expanded sum "
        "itself is verified against the scaled side exactly.",
    ),
    _record(
        "oeis-lcm-harmonic",
        "core",
        "lcm(1..k) H(k) is a positive integer; the harmonic route, the "
        "|leading numerator coefficient| of the symbolic closed form, and "
        "the frozen first eleven terms 1, 3, 11, 25, 137, 147, 1089, 2283, "
        "7129, 7381, 83711 all agree.",
        _check_oeis_lcm_harmonic,
    ),
    _record(
        "table-rows",
        "core",
        "The canonical table rows for n = 0..4 match their frozen strings "
        "character for character.",
        _check_table_rows,
    ),
    _record(
        "ode-derivative-forms",
        "core",
        "(q-1) S'(n) + (n+2) S(n) = (-1)^n sum_k (q-1)^(k-n-1)/q^(k+2), "
        "with geometric closed form, and the same relation divided by (q-1).",
        _check_ode_derivative_forms,
        status=PRINTED_FAILS,
        printed_sides=_ode_derivative_forms_as_printed,
        counterexamples=(
            Counterexample(
                params={"n": "0", "lambda": "2", "form": "first"},
                lhs="1/4",
                rhs="-1/4",
            ),
            Counterexample(
                params={"n": "0", "lambda": "2", "form": "second"},
                lhs="1/4",
                rhs="-1/2",
            ),
        ),
        note="Both catalogued right-hand sides carry sign/prefactor slips; "
        "the corrected sums and their closed geometric form are swept "
        "symbolically.",
    ),
    # -- genfun -------------------------------------------------------------
    _record(
        "generating-contract",
        "genfun",
        "[z^n] log(1-((q-1)/q) z)/(z(z-1)) = (1-q)^(n+2) S(n,q), "
        "symbolically in q.",
        _check_generating_contract,
    ),
    _record(
        "hypergeometric-form",
        "genfun",
        "(z-1) G q/(1-q) = 2F1(1,1;2;((q-1)/q) z) as truncated series, "
        "numerically and symbolically.",
        _check_hypergeometric_form,
        status=PRINTED_FAILS,
        printed_sides=_hypergeometric_form_as_printed,
        counterexamples=(
            Counterexample(params={"lambda": "2", "order": "0"}, lhs="1/2", rhs="0"),
        ),
        note="The catalogued rewrite carries a stray factor z (killing the "
        "constant term) and the opposite sign inside the hypergeometric "
        "argument.",
    ),
    _record(
        "special-parameter-series",
        "genfun",
        "The three special series are the generating series at q = -1, 2, "
        "1/2, and d/dz[(z^2-z) g] = s/(1+s z) for their mercator scales s.",
        _check_special_parameter_series,
    ),
    _record(
        "derivative-balance",
        "genfun",
        "(q+(1-q) z) d/dz[(z^2-z) G] = 1-q, numerically and symbolically.",
        _check_derivative_balance,
    ),
    _record(
        "log-product-expansion",
        "genfun",
        "[z^(n+1)] log(1-wz)log(1+wz)/(z^2-z) = (-1)^n (q-1)^(n+3) "
        "sum_k S(k,q)/((n+1-k) q^(n+1-k)) with w = (q-1)/q.",
        _check_log_product_expansion,
        status=PRINTED_FAILS,
        printed_sides=_log_product_expansion_as_printed,
        counterexamples=(
            Counterexample(params={"lambda": "2", "order": "1"}, lhs="1/4", rhs="-1/4"),
        ),
        note="The catalogued prefactor (1-q)^(n+3) has the wrong sign "
        "exactly when n is even; the sweep also confirms that parity "
        "pattern.",
    ),
    _record(
        "odd-coefficient-vanishing",
        "genfun",
        "The two consecutive-order coefficient expansions that encode the "
        "vanishing odd coefficients of the symmetric log product agree "
        "symbolically.",
        _check_odd_coefficient_vanishing,
    ),
    _record(
        "leibnitz-functional-equation",
        "genfun",
        "-w (x+1-x w z) G_L(x, w z) = (z-1) G(z,q) + x (x z - 1) G(x z, q) "
        "with w = (q-1)/q.",
        _check_leibnitz_functional_equation,
        status=PRINTED_FAILS,
        printed_sides=_leibnitz_functional_equation_as_printed,
        counterexamples=(
            Counterexample(
                params={"lambda": "2", "x": "2", "order": "1"},
                lhs="-7/8",
                rhs="-5/8",
            ),
        ),
        note="The catalogued prefactor reads (x+1-wz): it drops the factor "
        "x on the wz term.  Both sides still agree at order 0, so the "
        "slip only shows from order 1 on.",
    ),
    _record(
        "leibnitz-three-term",
        "genfun",
        "(x+1) L_n(x) - x L_{n-1}(x) = (x^(n+1)+1)/(n+1), and the "
        "parameter-side combination (-1)^n q^(n+1) ((q-1) S(n,q) + "
        "S(n-1,q)) equals the constant 1/(n+1).",
        _check_leibnitz_three_term,
    ),
    _record(
        "half-parameter-tail-series",
        "genfun",
        "The alternating-harmonic series minus the special series g3 equals "
        "log(1+z)/z, with coefficients (-1)^n/(n+1) = D_n/n!.",
        _check_half_parameter_tail_series,
    ),
    _record(
        "bernoulli-second-convolution",
        "genfun",
        "sum_j S(j,1/2) b_{n-j}/(2^j (n-j)!) = -4, equivalently -1 with "
        "the weight 2^(j+2), for second-kind Bernoulli numbers b.",
        _check_bernoulli_second_convolution,
    ),
    _record(
        "alternating-harmonic-series",
        "genfun",
        "(1-u) A(u) = (1+u) H(-u) for the alternating and plain harmonic "
        "generating series, plus their coefficient contracts.",
        _check_alternating_harmonic_series,
    ),
    _record(
        "fibonacci-generating",
        "genfun",
        "Coefficients of 1/(1 - x^k t - y^m t^(m+l)) satisfy the two-term "
        "recurrence and the binomial closed form.",
        _check_fibonacci_generating,
    ),
    # -- apostol ------------------------------------------------------------
    _record(
        "weighted-stirling-master",
        "apostol",
        "B_M(w) = sum_n (n+1)! w^(n+1) S(n,w) S2(M,n+1), via the direct "
        "weighted-sum evaluator and the generating route, numerically and "
        "symbolically.",
        _check_weighted_stirling_master,
    ),
    _record(
        "half-weighted-expansion",
        "apostol",
        "B_m(1/2) = sum_n (n+1)!/2^(n+1) S(n,1/2) S2(m,n+1).",
        _check_half_weighted_expansion,
    ),
    _record(
        "weighted-sum-factorial-form",
        "apostol",
        "(w-1) B_m(w) = sum_n sum_j (-1)^n (n+1)!/(j+1) (w/(w-1))^(n-j) "
        "S2(m,n+1).",
        _weighted_sum_form_check(lambda n: (-1) ** n * factorial(n + 1), lambda q: q - 1),
    ),
    _record(
        "weighted-sum-daehee-form",
        "apostol",
        "(1-w) B_m(w) = sum_n sum_j (n+2)/(j+1) (w/(w-1))^(n-j) D_{n+1} "
        "S2(m,n+1).",
        _weighted_sum_form_check(lambda n: (n + 2) * daehee(n + 1), lambda q: 1 - q),
    ),
    _record(
        "weighted-sum-bernoulli-form",
        "apostol",
        "(1-w) B_m(w) = sum_n sum_j sum_k (n+2)/(j+1) (w/(w-1))^(n-j) "
        "B_k s(n+1,k) S2(m,n+1).",
        _check_weighted_sum_bernoulli_form,
    ),
    _record(
        "weighted-convolution-companion",
        "apostol",
        "sum_n C(m,n) B_n(1/2) B_{m-n} = m sum_n n!/2^(n+1) S(n,1/2) "
        "S2(m-1,n).",
        _check_weighted_convolution_companion,
        status=PRINTED_FAILS,
        printed_sides=_weighted_convolution_companion_as_printed,
        counterexamples=(
            Counterexample(params={"m": "1"}, lhs="-2", rhs="0"),
        ),
        note="The catalogued right-hand side uses (n+1)!, 2^(n+1) and "
        "S2(m-1,n+1); differentiating the underlying product generating "
        "function instead gives n!, 2^(n+1), S2(m-1,n), which the sweep "
        "validates.",
    ),
    _record(
        "harmonic-stirling-second",
        "apostol",
        "sum_n n! A(n) S2(m,n) = sum_n (n+1)!/2^(n+2) S(n,1/2) S2(m,n+1).",
        _check_harmonic_stirling_second,
        status=PRINTED_FAILS,
        printed_sides=_harmonic_stirling_second_as_printed,
        counterexamples=(
            Counterexample(params={"m": "1"}, lhs="-1", rhs="-4"),
        ),
        note="The catalogued denominator 2^n is short by the factor 4 that "
        "the corrected 2^(n+2) restores.",
    ),
    _record(
        "half-euler-harmonic",
        "apostol",
        "(1/2) B_m(1/2) = sum_n n! A(n) S2(m,n).",
        _check_half_euler_harmonic,
    ),
    _record(
        "entire-series-master",
        "apostol",
        "Geometric moments sum_{v>=1} v^j w^v = -B_{j+1}(w)/(j+1) as "
        "rational functions, with a partial-sum tail certificate at "
        "w = 1/3.",
        _check_entire_series_master,
    ),
    _record(
        "lerch-interpolation",
        "apostol",
        "sum_k C(n-1,k) b^(n-1-k) M_k = -B_n(b;w)/n for the geometric "
        "moments M_k, together with frozen scalar instances.",
        _check_lerch_interpolation,
    ),
    _record(
        "lerch-reduction",
        "apostol",
        "The interpolated series value at shift 1 reduces to -B_n(w)/(n w) "
        "for n >= 2; at n = 1 the exceptional form w B_1(1;w) = 1 + B_1(w) "
        "holds instead.",
        _check_lerch_reduction,
    ),
    _record(
        "weighted-shift-relations",
        "apostol",
        "B_0(0;w) = 0, w B_1(1;w) = 1 + B_1(w), and w B_n(1;w) = B_n(w) "
        "for n >= 2.",
        _check_weighted_shift_relations,
    ),
    _record(
        "geometric-cosine",
        "apostol",
        "Partial sums of sum_v w^v cos v match the closed form "
        "(1 - w cos 1)/(1 - 2 w cos 1 + w^2) to 1e-12 at w = 0.1 "
        "(1e-10 at w = 0.25 and w = -0.2).",
        _check_geometric_cosine,
    ),
    _record(
        "odd-weighted-cosine",
        "apostol",
        "The odd-block weighted Stirling partial sums reproduce the cosine "
        "closed form at w = 0.1 within 1e-6 at the calibrated truncation "
        "M = 12.",
        _check_odd_weighted_cosine,
        status=PRINTED_FAILS,
        printed_sides=_odd_weighted_cosine_as_printed,
        counterexamples=(
            Counterexample(
                params={"lambda": "0.1", "terms": "12"},
                lhs="-0.5244086371776957",
                rhs="1.0488172750959641",
            ),
        ),
        note="The catalogued weights (-1)^(m+1)/(2 (2m-1)!) converge to "
        "-closed/2 rather than the closed form; the corrected weights "
        "restore the factor -2.  Calibration at w = 0.1: M = 8 gives "
        "5.9e-7, M = 10 gives 2.1e-8, M = 12 gives 7.4e-10.",
    ),
    _record(
        "fibonacci-cosine",
        "apostol",
        "The three-term-polynomial route for the cosine series reaches the "
        "closed form to 1e-12; equating it to the odd-block weighted "
        "partial sums fails by the same -1/2 factor as odd-weighted-cosine.",
        _check_fibonacci_cosine,
        status=PRINTED_FAILS,
        printed_sides=_fibonacci_cosine_as_printed,
        counterexamples=(
            Counterexample(
                params={"lambda": "0.1", "printed_terms": "12", "series_terms": "60"},
                lhs="-0.5244086371776957",
                rhs="1.0488172750959643",
            ),
        ),
        note="Both routes are correct individually; only the catalogued "
        "equality between the misweighted partial sums and the "
        "three-term-polynomial side fails.",
    ),
    # -- laurent ------------------------------------------------------------
    _record(
        "exp-minus-map",
        "laurent",
        "Substituting w -> -e^(-t) expands S(n,.) as a regular series "
        "assembled from e^((n+2)t)/(e^t+1)^d kernels, one per defining "
        "term.",
        _check_exp_minus_map,
    ),
    _record(
        "eta-series",
        "laurent",
        "Coefficients of the minus-map expansion equal weighted sums of "
        "higher-order negative-argument eta values "
        "(1/m!) sum_j E^(d)_m(n+2)/((j+1) 2^d).",
        _check_eta_series,
    ),
    _record(
        "euler-multinomial",
        "laurent",
        "The same coefficients unfold over weak compositions into products "
        "of zero-argument Euler polynomial values.",
        _check_euler_multinomial,
    ),
    _record(
        "eta-degree-offset",
        "laurent",
        "eta(-m, 2) = E_m(2).",
        _check_eta_degree_offset,
        status=PRINTED_FAILS,
        printed_sides=_eta_degree_offset_as_printed,
        counterexamples=(
            Counterexample(params={"m": "0"}, lhs="3/2", rhs="1"),
        ),
        note="The catalogued display raises the polynomial index by one "
        "(E_{m+1} instead of E_m).",
    ),
    _record(
        "eta-pair-difference",
        "laurent",
        "eta_2(-m,3) - eta(-m,3) = E^(2)_m(3) - E_m(3), termwise.",
        _check_eta_pair_difference,
        note="True termwise, but it is not an instance of the coefficient "
        "expansion: the n = 1 coefficient carries a plus sign between the "
        "two terms.",
    ),
    _record(
        "eta-triple",
        "laurent",
        "3 eta_3(-m,4) + 3 eta_2(-m,4) + 8 eta(-m,4) equals the same "
        "weighted sum of Euler polynomial values at 4; the 3,3,4-weighted "
        "variant equals 24 m! times the coefficient sum at n = 2.",
        _check_eta_triple,
        status=PRINTED_FAILS,
        printed_sides=_eta_triple_as_printed,
        counterexamples=(
            Counterexample(params={"m": "1"}, lhs="73/2", rhs="89/2"),
        ),
        note="Only the final argument is wrong in the catalogued display "
        "(3 instead of 4); the weight 8 matches on both sides.",
    ),
    _record(
        "eta-quintuple",
        "laurent",
        "15 eta_5 + 15 eta_4 + 10 eta_3 + 10 eta_2 + 24 eta_1, all at "
        "argument 5, equals the matching Euler-polynomial combination, "
        "termwise.",
        _check_eta_quintuple,
        note="Termwise true, but no single coefficient instance carries "
        "these weights.",
    ),
    _record(
        "hurwitz-regular-map",
        "laurent",
        "The regular part of the plus-map expansion equals weighted sums "
        "of negative-argument Hurwitz values.",
        _check_hurwitz_regular_map,
    ),
    _record(
        "hurwitz-negative-values",
        "laurent",
        "zeta_d(-m,x) = (-1)^d m! B^(d)_{m+d}(x)/(d+m)!; the order-1 case "
        "is -B_{m+1}(x)/(m+1); consecutive orders satisfy the difference "
        "recurrence.",
        _check_hurwitz_negative_values,
    ),
    _record(
        "hurwitz-zero-sum",
        "laurent",
        "The singular parts of the plus-map expansion cancel exactly, "
        "order by order.",
        _check_hurwitz_zero_sum,
    ),
    _record(
        "even-substitution-map",
        "laurent",
        "The doubled-scale substitution series equals the plus-map "
        "expansion of S(n, e^(-2t)).",
        _check_even_substitution_map,
        status=PRINTED_FAILS,
        printed_sides=_even_substitution_map_as_printed,
        counterexamples=(
            Counterexample(params={"n": "0", "m": "0"}, lhs="1/2", rhs="-3/2"),
        ),
        note="The catalogued display equates the pole-bearing kernel sum "
        "with the minus-map series S(n, -e^(-2t)); the two differ already "
        "at the constant term, and the minus-map series has no pole at "
        "all.",
    ),
    _record(
        "even-regular-expansion",
        "laurent",
        "The collapsed Bernoulli coefficient sum reproduces the plus-map "
        "doubled-scale coefficients.",
        _check_even_regular_expansion,
        status=PRINTED_FAILS,
        printed_sides=_even_regular_expansion_as_printed,
        counterexamples=(
            Counterexample(params={"n": "0", "m": "0"}, lhs="1/2", rhs="-3/4"),
        ),
        note="The catalogued display attributes the sum to the minus-map "
        "series, whose true constant term is 1/2.",
    ),
    _record(
        "even-convolution-expansion",
        "laurent",
        "The binomial-convolution coefficient form reproduces the plus-map "
        "doubled-scale coefficients.",
        _check_even_convolution_expansion,
        status=PRINTED_FAILS,
        printed_sides=_even_convolution_expansion_as_printed,
        counterexamples=(
            Counterexample(params={"n": "0", "m": "0"}, lhs="1/2", rhs="-7/4"),
        ),
        note="Same minus-map misattribution as even-regular-expansion, "
        "through the convolution spelling.",
    ),
    _record(
        "even-closing-balance",
        "laurent",
        "The two corrected even-index coefficient expansions agree with "
        "each other for every n and m.",
        _check_even_closing_balance,
        status=PRINTED_FAILS,
        printed_sides=_even_closing_balance_as_printed,
        counterexamples=(
            Counterexample(params={"n": "0", "m": "0"}, lhs="-3/4", rhs="-7/4"),
        ),
        note="The catalogued closing display equates the two *printed* "
        "sums, which differ from each other as well as from the true "
        "coefficients.",
    ),
    # -- padic --------------------------------------------------------------
    _record(
        "volkenborn-power-limits",
        "padic",
        "Riemann sums of x^j converge p-adically to B_j with error "
        "valuation >= N-j-2 and monotone growth from level 4 on "
        "(p = 2, 3 through level 8; p = 5 through level 5).",
        _check_volkenborn_power_limits,
        note="For j = 0 every partial sum is exact, so the valuations are "
        "all infinite; monotonicity is interpreted as non-strict at "
        "infinity.",
    ),
    _record(
        "volkenborn-falling-binom-limits",
        "padic",
        "Riemann sums of falling factorials and binomial coefficients "
        "converge to D_n and (-1)^n/(n+1), with error valuation >= 1 at "
        "the top level.",
        _check_volkenborn_falling_binom_limits,
    ),
    _record(
        "integral-representation",
        "padic",
        "The binomial-moment integral representation reproduces the "
        "generating series G, numerically and symbolically.",
        _check_integral_representation,
    ),
    _record(
        "mahler-reconstruction",
        "padic",
        "S(n,q) reconstructed from falling-factorial moments through the "
        "step relation equals the recurrence values.",
        _check_mahler_reconstruction,
    ),
)

_BY_ID = {record.id: record for record in _RECORDS}
if len(_BY_ID) != len(_RECORDS):
    raise RuntimeError("duplicate identity ids in the catalog")


def identity_ids() -> tuple:
    """All catalogued identifiers, sorted."""
    return tuple(sorted(_BY_ID))


def records() -> tuple:
    """All records, sorted by identifier."""
    return tuple(_BY_ID[i] for i in sorted(_BY_ID))


def get_record(identity_id: str) -> IdentityRecord:
    try:
        return _BY_ID[identity_id]
    except KeyError:
        raise ValueError(f"unknown identity id {identity_id!r}") from None


# ---------------------------------------------------------------------------
# runners and reports
# ---------------------------------------------------------------------------

def run_identity(identity_id: str, max_n=None) -> dict:
    """Re-verify one record; returns a JSON-ready result entry.

    ``max_n`` overrides the record's default sweep ceiling (records with
    fixed structural sweeps cap it internally).  For a
    ``printed_fails_corrected_ok`` record the stored counterexamples to the
    original form are re-computed from their params as well (see
    :meth:`IdentityRecord.printed_check`); ``passed`` requires both the
    corrected sweep and that confirmation to succeed.

    A record whose check raises does not stop the run: its entry has
    ``passed`` False, ``swept`` 0 and the exception text under ``error``
    (None otherwise), and that text is written to stderr.  A sweep that
    compares nothing proves nothing, so a record that sweeps 0 cases does
    not pass either; that, too, is said on stderr.
    """
    record = get_record(identity_id)
    start = time.perf_counter()
    error = None
    try:
        swept, failures = record.check(max_n)
        printed_confirmed = record.printed_check()
    except Exception as exc:  # one broken record must not end the catalog run
        error = f"{type(exc).__name__}: {exc}"
        sys.stderr.write(f"finsum: record {record.id} raised {error}\n")
        swept, failures, printed_confirmed = 0, [], False
    if error is None and not swept:
        sys.stderr.write(f"finsum: record {record.id} swept nothing at max_n={max_n}\n")
    passed = bool(swept) and not failures and printed_confirmed
    return {
        "id": record.id,
        "family": record.family,
        "anchor": record.statement,
        "status": record.status,
        "swept": swept,
        "passed": passed,
        "printed_confirmed": printed_confirmed,
        "counterexamples": [cx.as_dict() for cx in record.counterexamples]
        + [cx.as_dict() for cx in failures],
        "elapsed": round(time.perf_counter() - start, 6),
        "error": error,
    }


def run_all(max_n=None, ids=None, family=None) -> dict:
    """Run the catalog (or a subset) and report the results deterministically.

    Records run one after another in identifier order, so the report is
    byte-identical across runs apart from ``elapsed``.  Each flagged
    record's stored counterexamples are recomputed from their params and
    compared with the stored text.  ``ok`` is False exactly when some
    record's outcome is unexpected: a ``printed_ok`` sweep failing, or a
    corrected form / stored counterexample failing to confirm.  A ``max_n``
    below 1 is a ValueError: several records would sweep nothing.
    """
    if max_n is not None and max_n < 1:
        raise ValueError(f"max_n must be at least 1, got {max_n}")
    selected = list(records())
    if family is not None:
        if family not in FAMILIES:
            raise ValueError(f"unknown family {family!r}; expected one of {FAMILIES}")
        selected = [r for r in selected if r.family == family]
    if ids is not None:
        keep = {get_record(i).id for i in ids}
        selected = [r for r in selected if r.id in keep]
    start = time.perf_counter()
    entries = [run_identity(r.id, max_n) for r in selected]
    unexpected = [e["id"] for e in entries if not e["passed"]]
    return {
        "ok": not unexpected,
        "total": len(entries),
        "passed": len(entries) - len(unexpected),
        "unexpected": unexpected,
        "elapsed": round(time.perf_counter() - start, 6),
        "records": entries,
    }


_REPORT_KEYS = ("id", "anchor", "status", "swept", "passed", "counterexamples")


def report_json(report: dict) -> str:
    """Serialize a run_all report to the stable JSON schema."""
    import json

    payload = {
        "ok": report["ok"],
        "total": report["total"],
        "passed": report["passed"],
        "unexpected": list(report["unexpected"]),
        "elapsed": report["elapsed"],
        "records": [
            {key: entry[key] for key in _REPORT_KEYS} for entry in report["records"]
        ],
    }
    return json.dumps(payload, indent=2)


def report_table(report: dict) -> str:
    """Plain-text table view of a run_all report."""
    width = max((len(e["id"]) for e in report["records"]), default=2)
    lines = [f"{'id':<{width}}  {'status':<26}  {'swept':>6}  result"]
    for entry in report["records"]:
        result = "pass" if entry["passed"] else "FAIL"
        lines.append(
            f"{entry['id']:<{width}}  {entry['status']:<26}  {entry['swept']:>6}  {result}"
        )
    lines.append(
        f"records: {report['total']}  passed: {report['passed']}  "
        f"unexpected: {len(report['unexpected'])}  elapsed: {report['elapsed']}s"
    )
    return "\n".join(lines)
