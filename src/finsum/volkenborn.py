"""Volkenborn-integral Riemann sums with p-adic convergence certificates.

The Volkenborn integral of ``f`` over the p-adic integers is the limit of
``p^{-N} sum_{x=0}^{p^N - 1} f(x)``.  For the three integrand families
used here the limits are classical:

* ``power`` ``j``:    ``x^j      -> B_j``   (Bernoulli numbers),
* ``falling`` ``n``:  ``(x)_n    -> D_n``   (Daehee numbers),
* ``binom`` ``n``:    ``C(x, n)  -> (-1)^n/(n+1)``.

Every sample stores the exact rational Riemann sum, the exact limit and
the p-adic valuation of their difference, so convergence claims become
checkable certificates instead of floating-point estimates.  Each Riemann
sum is one exact ``int`` summation over ``0 <= x < p^N``; the tests check
it against pointwise loops in two orders.  The module
also replays the integral representation of the log-sum generating
function and a Mahler-style route to the numbers ``S(n, .)`` driven by
the falling-factorial moments.
"""

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import repeat
from math import comb, factorial, perm

from .exact import (
    INFINITY,
    LaurentSeries,
    Polynomial,
    RationalFunction,
    format_rational,
    padic_valuation,
)
from .genfun import log_gf
from .special import bernoulli, daehee, stirling_first

__all__ = [
    "BUDGETS",
    "VolkenbornSample",
    "integral_limit",
    "riemann_sum",
    "volkenborn_sample",
    "sample_row",
    "convergence_report",
    "binom_moment_bernoulli",
    "daehee_limit",
    "mahler_route_value",
    "integral_series_check",
]

#: admissible levels per prime: the Riemann sums enumerate p^N points.
BUDGETS = {2: 10, 3: 10, 5: 6, 7: 6}

_INTEGRANDS = ("power", "falling", "binom")

# term functions f(x, index) for x >= 0; perm(x, n) is the falling factorial
_TERMS = {"power": pow, "falling": perm, "binom": comb}


@dataclass(frozen=True)
class VolkenbornSample:
    """One exact Riemann-sum certificate.

    ``error_valuation`` is the p-adic valuation of
    ``partial_sum - limit`` (``INFINITY`` when the sum is already
    exact).
    """

    p: int
    level: int
    integrand: str
    index: int
    partial_sum: Fraction
    limit: Fraction
    error_valuation: object


def _validate(p: int, level: int, integrand: str, index: int):
    if p not in BUDGETS:
        raise ValueError(f"prime must be one of {sorted(BUDGETS)}, got {p}")
    if not 1 <= level <= BUDGETS[p]:
        raise ValueError(
            f"level must lie in 1..{BUDGETS[p]} for p={p}, got {level}"
        )
    if integrand not in _INTEGRANDS:
        raise ValueError(f"integrand must be one of {_INTEGRANDS}, got {integrand!r}")
    if index < 0:
        raise ValueError("index must be nonnegative")


def integral_limit(integrand: str, index: int) -> Fraction:
    """Exact Volkenborn integral of the chosen integrand."""
    if integrand == "power":
        return bernoulli(index)
    if integrand == "falling":
        return daehee(index)
    if integrand == "binom":
        return Fraction((-1) ** index, index + 1)
    raise ValueError(f"integrand must be one of {_INTEGRANDS}, got {integrand!r}")


def riemann_sum(p: int, level: int, integrand: str, index: int) -> Fraction:
    """Exact ``p^{-level} sum_{x < p^level} f(x)``, one exact ``int`` sum
    over the range in ascending ``x``."""
    _validate(p, level, integrand, index)
    span = p ** level
    return Fraction(sum(map(_TERMS[integrand], range(span), repeat(index))), span)


def volkenborn_sample(p: int, level: int, integrand: str, index: int) -> VolkenbornSample:
    """Build a certificate from one Riemann sum and the exact limit."""
    partial = riemann_sum(p, level, integrand, index)
    limit = integral_limit(integrand, index)
    return VolkenbornSample(
        p=p,
        level=level,
        integrand=integrand,
        index=index,
        partial_sum=partial,
        limit=limit,
        error_valuation=padic_valuation(partial - limit, p),
    )


def sample_row(sample: VolkenbornSample) -> dict:
    """JSON-ready row; infinite valuations serialize as ``"+inf"``."""
    v = sample.error_valuation
    return {
        "p": sample.p,
        "N": sample.level,
        "integrand": sample.integrand,
        "index": sample.index,
        "partial_sum": format_rational(sample.partial_sum),
        "limit": format_rational(sample.limit),
        "valuation": "+inf" if v == INFINITY else int(v),
    }


def convergence_report(
    p: int, integrand: str, index: int, max_level: int
) -> dict:
    """Certificates for levels ``1..max_level`` plus convergence flags.

    Two properties are examined and violations are *reported*, never
    raised: the valuation bound ``v >= level - index - 2`` and
    monotonicity of the valuations from level 4 on.
    """
    _validate(p, max_level, integrand, index)
    samples = [
        volkenborn_sample(p, level, integrand, index)
        for level in range(1, max_level + 1)
    ]
    valuations = [s.error_valuation for s in samples]
    violations = []
    for s in samples:
        if s.error_valuation < s.level - index - 2:
            violations.append(
                {
                    "level": s.level,
                    "kind": "bound",
                    "valuation": s.error_valuation,
                    "required": s.level - index - 2,
                }
            )
    for prev, cur in zip(samples, samples[1:]):
        if cur.level >= 4 and cur.error_valuation < prev.error_valuation:
            violations.append(
                {
                    "level": cur.level,
                    "kind": "monotone",
                    "valuation": cur.error_valuation,
                    "previous": prev.error_valuation,
                }
            )
    return {
        "p": p,
        "integrand": integrand,
        "index": index,
        "rows": [sample_row(s) for s in samples],
        "valuations": valuations,
        "ok": not violations,
        "violations": violations,
    }


# ---------------------------------------------------------------------------
# moment identities and the Mahler-style route
# ---------------------------------------------------------------------------

def binom_moment_bernoulli(n: int) -> Fraction:
    """Volkenborn integral of ``C(x, n)``, ``(-1)^n/(n+1)``, through the
    Stirling/Bernoulli route.

    ``C(x, n) = (1/n!) sum_j S1(n, j) x^j`` integrates termwise to
    ``(1/n!) sum_j S1(n, j) B_j``.
    """
    if n < 0:
        raise ValueError("index must be nonnegative")
    total = Fraction(0)
    for j in range(n + 1):
        s1 = stirling_first(n, j)
        if s1:
            total += s1 * bernoulli(j)
    return total / factorial(n)


@lru_cache(maxsize=None)
def daehee_limit(n: int) -> Fraction:
    """Volkenborn integral of the falling factorial ``(x)_n``.

    Computed as ``sum_j S1(n, j) B_j`` — independently of the closed
    form ``(-1)^n n!/(n+1)`` used elsewhere.
    """
    return factorial(n) * binom_moment_bernoulli(n)


def mahler_route_value(n: int, q) -> Fraction:
    """The number ``S(n, q)`` reconstructed from falling-factorial moments.

    Seeds with ``S(0, q) = 1/(q(q-1))`` and unrolls the step relation
    ``S(n-1, q) + (q-1) S(n, q) = D_n / (q^{n+1} n!)`` whose right side
    uses :func:`daehee_limit`.
    """
    w = Fraction(q)
    if w == 0 or w == 1:
        raise ValueError("parameter must differ from 0 and 1")
    if n < 0:
        raise ValueError("index must be nonnegative")
    val = 1 / (w * (w - 1))
    for m in range(1, n + 1):
        step = daehee_limit(m) / (w ** (m + 1) * factorial(m))
        val = (step - val) / (w - 1)
    return val


# ---------------------------------------------------------------------------
# integral representation of the generating function
# ---------------------------------------------------------------------------

def integral_series_check(lam, T: int) -> dict:
    """Replay the integral representation of the log-sum generating function.

    The binomial expansion ``(1 + w t)^x = sum_n C(x, n) (w t)^n`` with
    ``w = (1-lam)/lam`` integrates termwise to
    ``sum_n (-1)^n (w t)^n / (n+1)``; multiplying by ``w/(t-1)`` must
    reproduce the logarithmic generating function.  ``lam`` may be a
    rational number or a rational function of a symbolic weight.
    """
    if not isinstance(lam, RationalFunction):
        lam = Fraction(lam)
        if lam == 0 or lam == 1:
            raise ValueError("parameter must differ from 0 and 1")
    w = (1 - lam) / lam
    coeffs = [Fraction((-1) ** n, n + 1) * w ** n for n in range(T + 1)]
    integral = LaurentSeries(0, coeffs, T)
    den = LaurentSeries.from_polynomial(Polynomial((Fraction(-1), Fraction(1))))
    route = integral.divide(den, through=T) * w
    reference = log_gf(T, lam)
    return {
        "lam": lam,
        "T": T,
        "ok": reference.agrees_with(route, through=T),
        "series": reference,
        "integral_route": route,
    }
