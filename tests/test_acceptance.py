"""Acceptance gate: the eleven end-to-end criteria, each with a time budget.

Each criterion runs exact (or, in the single floating-point corner,
explicitly toleranced) comparisons and records one pass/fail line; the
lines are echoed in the terminal summary after the run.
"""

import time
from contextlib import contextmanager
from fractions import Fraction
from math import comb, factorial, inf, lcm

import pytest

from finsum.exact import LaurentSeries, Polynomial, RationalFunction
from finsum.genfun import gauss_2f1, log_gf
from finsum.identities import run_all, run_identity
from finsum.logsum import (
    harmonic_lcm_sequence,
    logsum_bernoulli_stirling,
    logsum_direct,
    logsum_symbolic,
    logsum_value,
    table,
)
from finsum.special import (
    apostol_bernoulli,
    apostol_bernoulli_value,
    bernoulli,
    euler_polynomial,
    harmonic,
    stirling_first,
    stirling_second,
)
from finsum.volkenborn import integral_limit, volkenborn_sample
from finsum.zetavals import (
    cos_closed_form,
    cos_geometric_partial,
    eta_multinomial_sum,
    eta_neg,
    even_coefficient_minus,
    even_regular_half_argument,
    even_regular_plus,
    exp_parameter_series,
    hurwitz_cancellation,
    hurwitz_coefficient_sum,
    odd_weighted_partial,
    printed_even_bernoulli,
    printed_even_convolution,
    weighted_number_sum,
)

CRITERION_RESULTS = []

LAMBDAS = (
    Fraction(2),
    Fraction(3),
    Fraction(-1),
    Fraction(1, 2),
    Fraction(-1, 2),
    Fraction(5, 3),
    Fraction(-7, 4),
)
L = RationalFunction.variable()


@contextmanager
def criterion(number: int, title: str, budget: float):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        elapsed = time.perf_counter() - start
        CRITERION_RESULTS.append(
            f"criterion {number:2d} ({title}): FAIL after {elapsed:.2f}s (budget {budget:g}s)"
        )
        raise
    elapsed = time.perf_counter() - start
    ok = elapsed < budget
    CRITERION_RESULTS.append(
        f"criterion {number:2d} ({title}): "
        f"{'PASS' if ok else 'FAIL'} in {elapsed:.2f}s (budget {budget:g}s)"
    )
    assert ok, f"criterion {number} exceeded its {budget}s budget: {elapsed:.2f}s"


def test_criterion_01_closed_form_table():
    with criterion(1, "closed-form table rows verbatim", 1.0):
        assert table(4) == [
            "1/(L*(L - 1))",
            "(-3*L + 1)/(2*L^2*(L - 1)^2)",
            "(11*L^2 - 7*L + 2)/(6*L^3*(L - 1)^3)",
            "(-25*L^3 + 23*L^2 - 13*L + 3)/(12*L^4*(L - 1)^4)",
            "(137*L^4 - 163*L^3 + 137*L^2 - 63*L + 12)/(60*L^5*(L - 1)^5)",
        ]


def test_criterion_02_method_agreement():
    with criterion(2, "four routes agree, n <= 40 numeric / 12 symbolic", 10.0):
        for q in LAMBDAS:
            series = log_gf(42, q)
            for n in range(41):
                reference = logsum_value(n, q)
                assert logsum_direct(n, q) == reference
                assert logsum_bernoulli_stirling(n, q) == reference
                assert series.coefficient(n) / (1 - q) ** (n + 2) == reference
        symbolic_series = log_gf(14, L)
        for n in range(13):
            closed = logsum_symbolic(n)
            direct = sum(
                (
                    Fraction((-1) ** n, j + 1) * L ** (-(j + 1)) * (L - 1) ** (-(n + 1 - j))
                    for j in range(n + 1)
                ),
                RationalFunction(0),
            )
            assert direct == closed
            assert symbolic_series.coefficient(n) == ((1 - L) ** (n + 2)) * closed


def test_criterion_03_integer_sequence():
    with criterion(3, "lcm-harmonic integer sequence, 11 terms", 1.0):
        frozen = [1, 3, 11, 25, 137, 147, 1089, 2283, 7129, 7381, 83711]
        assert harmonic_lcm_sequence(11) == frozen
        assert harmonic_lcm_sequence(11, method="table") == frozen
        for k in range(1, 12):
            assert Fraction(lcm(*range(1, k + 1))) * harmonic(k) == frozen[k - 1]


def test_criterion_04_hypergeometric_series():
    with criterion(4, "generating series vs scaled 2F1", 5.0):
        for q in LAMBDAS:
            lhs = log_gf(30, q) * Polynomial((Fraction(-1), Fraction(1))) * (q / (1 - q))
            rhs = gauss_2f1(Fraction(1), Fraction(1), Fraction(2), 30, scale=(q - 1) / q)
            for k in range(30):
                assert lhs.coefficient(k) == rhs.coefficient(k), (q, k)
        lhs = log_gf(12, L) * Polynomial((Fraction(-1), Fraction(1))) * (L / (1 - L))
        rhs = gauss_2f1(Fraction(1), Fraction(1), Fraction(2), 12, scale=(L - 1) / L)
        for k in range(12):
            assert lhs.coefficient(k) == rhs.coefficient(k), k


def test_criterion_05_weighted_number_expansion():
    with criterion(5, "weighted Bernoulli numbers via Stirling sums", 10.0):
        for q in LAMBDAS:
            for M in range(15):
                direct = apostol_bernoulli_value(M, q)
                assert weighted_number_sum(M, q) == direct
                expansion = sum(
                    (
                        factorial(n + 1)
                        * q ** (n + 1)
                        * logsum_value(n, q)
                        * stirling_second(M, n + 1)
                        for n in range(M + 1)
                    ),
                    Fraction(0),
                )
                assert expansion == direct, (M, q)
        for M in range(11):
            symbolic = sum(
                (
                    (L ** (n + 1))
                    * logsum_symbolic(n)
                    * Fraction(factorial(n + 1) * stirling_second(M, n + 1))
                    for n in range(M + 1)
                ),
                RationalFunction(0),
            )
            assert symbolic == apostol_bernoulli(M), M
            assert weighted_number_sum(M) == apostol_bernoulli(M), M


def test_criterion_06_bernoulli_stirling_spine():
    with criterion(6, "Bernoulli-Stirling spine and double-sum route", 5.0):
        for m in range(21):
            spine = sum(
                (bernoulli(n) * stirling_first(m, n) for n in range(m + 1)), Fraction(0)
            )
            assert spine == Fraction((-1) ** m * factorial(m), m + 1), m
        for q in LAMBDAS:
            for n in range(21):
                assert logsum_bernoulli_stirling(n, q) == logsum_direct(n, q), (n, q)


def test_criterion_07_exponential_parameter_sweeps():
    with criterion(7, "exponential-parameter coefficient sweeps", 30.0):
        for n in range(7):
            for m in range(9):
                abel = polynomial = Fraction(0)
                for j in range(n + 1):
                    d = n + 1 - j
                    w = Fraction(1, (j + 1) * 2 ** d)
                    abel += eta_neg(m, n + 2, order=d) * w
                    polynomial += euler_polynomial(m, order=d)(Fraction(n + 2)) * w
                assert abel == polynomial, ("eta-series", n, m, abel, polynomial)
                multinomial = eta_multinomial_sum(n, m)
                assert polynomial == multinomial, ("euler-multinomial", n, m, polynomial, multinomial)
        for n in range(5):
            for m in range(7):
                lhs = hurwitz_coefficient_sum(n, m)
                rhs = exp_parameter_series(n, 1, 1, m).coefficient(m)
                assert lhs == rhs, ("hurwitz-regular", n, m, lhs, rhs)
                lhs = hurwitz_cancellation(n, m)
                assert lhs == 0, ("hurwitz-zero", n, m, lhs)
        # the even-index formulas: the original display fails and every
        # discrepancy is logged with exact both-sides values
        discrepancies = []
        for n in range(5):
            for m in range(7):
                minus_series = exp_parameter_series(n, -1, 2, m).coefficient(m)
                bern = printed_even_bernoulli(n, m)
                if not minus_series == bern == printed_even_convolution(n, m):
                    discrepancies.append(
                        f"mixed-even n={n} m={m}: lhs={minus_series} rhs={bern}"
                    )
                minus_sum = even_coefficient_minus(n, m)
                assert minus_sum == minus_series, (n, m, minus_sum, minus_series)
                plus_series = exp_parameter_series(n, 1, 2, m).coefficient(m)
                assert even_regular_plus(n, m) == plus_series, (n, m)
                assert even_regular_half_argument(n, m) == plus_series, (n, m)
        assert discrepancies, "the flawed even-index display unexpectedly verified"
        assert exp_parameter_series(0, -1, 2, 0).coefficient(0) == Fraction(1, 2)
        assert printed_even_bernoulli(0, 0) == Fraction(-3, 4)
        assert printed_even_convolution(0, 0) == Fraction(-7, 4)
        CRITERION_RESULTS.extend(
            "criterion  7   logged: " + line for line in discrepancies[:3]
        )
        CRITERION_RESULTS.append(
            f"criterion  7   logged: {len(discrepancies)} even-index discrepancies in total"
        )


def test_criterion_08_padic_certificates():
    with criterion(8, "p-adic Riemann-sum certificates", 60.0):
        for p, top in ((2, 8), (3, 8), (5, 5)):
            for j in range(7):
                valuations = [
                    volkenborn_sample(p, level, "power", j).error_valuation
                    for level in range(1, top + 1)
                ]
                for level, v in enumerate(valuations, start=1):
                    assert v >= level - j - 2, (p, j, level, v)
                for i in range(3, len(valuations)):
                    prev, cur = valuations[i - 1], valuations[i]
                    assert cur > prev or (prev == inf and cur == inf), (p, j, i + 1)
            for j in range(5):
                assert integral_limit("falling", j) == Fraction(
                    (-1) ** j * factorial(j), j + 1
                )
                assert integral_limit("binom", j) == Fraction((-1) ** j, j + 1)
                for integrand in ("falling", "binom"):
                    sample = volkenborn_sample(p, top, integrand, j)
                    assert sample.partial_sum is not None
                    assert sample.error_valuation >= 1, (p, integrand, j)


def test_criterion_09_flagged_statement_ledger():
    with criterion(9, "flagged statements fail; corrections verified", 10.0):
        expected = {
            "half-parameter-harmonic": [({"n": "0"}, "-4", "-2")],
            "harmonic-stirling-second": [({"m": "1"}, "-1", "-4")],
            "harmonic-split": [({"n": "1", "lambda": "2"}, "7/12", "-313/12")],
            "ode-derivative-forms": [
                ({"n": "0", "lambda": "2", "form": "first"}, "1/4", "-1/4"),
                ({"n": "0", "lambda": "2", "form": "second"}, "1/4", "-1/2"),
            ],
            "eta-degree-offset": [({"m": "0"}, "3/2", "1")],
        }
        for identity_id, stored in expected.items():
            entry = run_identity(identity_id)
            assert entry["status"] == "printed_fails_corrected_ok", identity_id
            assert entry["printed_confirmed"] is True, identity_id
            assert entry["passed"] is True, identity_id
            recorded = [
                (cx["params"], cx["lhs"], cx["rhs"])
                for cx in entry["counterexamples"][: len(stored)]
            ]
            assert recorded == stored, identity_id


def test_criterion_10_cosine_float_corner():
    with criterion(10, "cosine series float corner (calibrated)", 1.0):
        closed = cos_closed_form(0.1)
        assert abs(cos_geometric_partial(0.1, 200) - closed) < 1e-12
        calibration = {
            M: abs(odd_weighted_partial(0.1, M) - closed) for M in (8, 10, 12)
        }
        assert calibration[12] < 1e-6
        assert calibration[12] < calibration[10] < calibration[8]
        CRITERION_RESULTS.append(
            "criterion 10   calibration at weight 0.1: "
            + "  ".join(f"M={M}: {err:.1e}" for M, err in sorted(calibration.items()))
            + "  (default M=12)"
        )


def test_criterion_11_full_verification_run():
    with criterion(11, "full catalog verification", 120.0):
        report = run_all()
        assert report["ok"] is True
        assert report["unexpected"] == []
        assert report["total"] == 69


if __name__ == "__main__":
    raise SystemExit(pytest.main([__file__, "-v"]))
