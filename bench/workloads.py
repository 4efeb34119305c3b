"""Seeded operation lists for the benchmark workloads.

An operation is a tuple of strings.  A CLI operation is the argv given to
``finsum.cli.main`` (the runner appends ``--format json --output FILE``);
a library operation starts with ``"lib"``, e.g. ``("lib", "logsum_value",
"1200", "-7/4")``.  ``op_key`` turns an operation into the key of its
reference digest.

Each workload draws from a finite universe.  The sizes, and the parameter
paired with each size, are fixed per workload: an operation's cost depends
strongly on the parameter's height (``y --n 120 --method alg1`` takes from
63 to 117 ms across ``LAMBDAS``), and seeded parameters moved the amount of
work in a pass by more than the benchmark's bounds.  The seed picks the
order of the closed forms, the table sizes inside fixed strata, and the
large ``logsum_value`` calls and their places in the numeric list.  The finite universe lets ``reference.py`` store a
digest for every operation the lists may hold.
"""

from __future__ import annotations

import random

WORKLOADS = ("catalog", "closed-forms", "numeric", "catalog-full")

# catalog: every record of the catalog as it was when the benchmark was
# written, one record per operation in catalog order, with each sweep
# capped at this n so that a run holds several rounds.  Single records run
# without the thread pool, which catalog-full keeps: it runs the shipped
# sweeps through the pool, one round of about 40 s cold plus warm.
CATALOG_RECORDS = (
    "alternating-harmonic-relations", "alternating-harmonic-series",
    "bernoulli-second-convolution", "bernoulli-stirling-double-sum",
    "binomial-reciprocal-closed-form", "binomial-reciprocal-step",
    "daehee-closed-form", "defining-sum-routes", "derangement-balance",
    "derangement-expanded", "derivative-balance", "entire-series-master",
    "eta-degree-offset", "eta-pair-difference", "eta-quintuple", "eta-series",
    "eta-triple", "euler-multinomial", "even-closing-balance",
    "even-convolution-expansion", "even-regular-expansion",
    "even-substitution-map", "exp-minus-map", "fibonacci-cosine",
    "fibonacci-generating", "generating-contract", "geometric-cosine",
    "half-bernoulli-stirling", "half-euler-harmonic",
    "half-parameter-daehee-split", "half-parameter-harmonic",
    "half-parameter-harmonic-inverse", "half-parameter-step",
    "half-parameter-tail-series", "half-weighted-expansion", "harmonic-daehee",
    "harmonic-split", "harmonic-stirling-second", "hurwitz-negative-values",
    "hurwitz-regular-map", "hurwitz-zero-sum", "hypergeometric-form",
    "integral-representation", "leibnitz-functional-equation",
    "leibnitz-three-term", "lerch-interpolation", "lerch-reduction",
    "log-product-expansion", "mahler-reconstruction", "minus-one-step",
    "odd-coefficient-vanishing", "odd-weighted-cosine", "ode-derivative-forms",
    "oeis-lcm-harmonic", "special-parameter-series", "step-recurrence",
    "step-recurrence-daehee", "table-rows", "two-parameter-bernoulli-stirling",
    "two-parameter-euler-step", "two-parameter-step",
    "volkenborn-falling-binom-limits", "volkenborn-power-limits",
    "weighted-convolution-companion", "weighted-shift-relations",
    "weighted-stirling-master", "weighted-sum-bernoulli-form",
    "weighted-sum-daehee-form", "weighted-sum-factorial-form",
)
CATALOG_MAX_N = 3

# Parameter values, negatives included, all in the exact p/q grammar.
LAMBDAS = (
    "2", "3", "1/2", "1/3", "3/2", "5/3", "7/4", "9/5",
    "-1", "-2", "-1/2", "-3/2", "-5/3", "-7/4", "13/5", "-11/7",
)

# closed-forms: the tables come first, in increasing size, one drawn from
# each stratum; they fill _symbolic_parts without computing a gcd.  Then
# every n in SYMBOLIC_N runs once without a parameter and once with each
# of LAMBDAS, in seeded order: the first operation of each n builds its
# closed form, which is mostly the gcd for the larger n (n >= 40 is always
# reached), and the others print or evaluate the cached form.  A fixed
# place for the tables keeps each operation's cost, and so the latency
# percentiles, independent of the seed.
SYMBOLIC_N = tuple(range(0, 45, 2))
TABLE_STRATA = ((8, 11), (20, 23), (32, 35), (41, 44))

# numeric: fixed sizes per route, each paired with a fixed parameter
# (PARAMETER_OFFSET, see _paired).
Y_SIZES = {
    "direct": tuple(range(10, 151, 10)),
    "recurrence": tuple(range(10, 151, 10)),
    "alg1": tuple(range(8, 121, 8)),
}
SERIES_ORDERS = (25, 50, 100, 150, 200, 250)
SERIES_FIXED = ("g1", "g2", "g3")
SERIES_WITH_LAMBDA = ("G", "2f1")
OEIS_TERMS = (100, 200, 300, 400, 500, 600)
VALUE_SMALL_N = (10, 20, 40, 60, 80, 100, 150, 200, 250, 300)
# While logsum_value is a recursive lru_cache, these sizes exceed the
# recursion limit and count as failed operations.  They are few on purpose:
# an iterative version costs only a few percent of the pass.
VALUE_LARGE_N = (1000, 1100, 1200, 1300, 1400, 1500)
VALUE_LARGE_COUNT = 2
# Where each parameterised family starts in LAMBDAS, so that the routes do
# not all give their largest size the same parameter.
PARAMETER_OFFSET = {"direct": 0, "recurrence": 5, "alg1": 10, "G": 3, "2f1": 9, "value": 7}


def op_key(op) -> str:
    return " ".join(op)


def _y(n, method, lam=None):
    op = ("y", "--n", str(n))
    if lam is not None:
        op += (f"--lambda={lam}",)
    return op + ("--method", method)


def _series(which, order, lam=None):
    op = ("series", "--which", which, "--order", str(order))
    return op if lam is None else op + (f"--lambda={lam}",)


def _paired(sizes, family):
    """Each size with its fixed parameter: LAMBDAS in turn from the family's offset."""
    offset = PARAMETER_OFFSET[family]
    return [(size, LAMBDAS[(offset + j) % len(LAMBDAS)]) for j, size in enumerate(sizes)]


def catalog_ops(rng):
    """The whole catalog at capped sweeps; the seed does not change it."""
    return [("verify", "--id", record, "--max-n", str(CATALOG_MAX_N)) for record in CATALOG_RECORDS]


def catalog_full_ops(rng):
    """The whole catalog at its shipped sweeps; the seed does not change it."""
    return [("verify",)]


def closed_forms_ops(rng):
    tables = [("table", "--max", str(rng.randint(lo, hi))) for lo, hi in TABLE_STRATA]
    ops = [_y(n, "symbolic", lam) for n in SYMBOLIC_N for lam in (None,) + LAMBDAS]
    rng.shuffle(ops)
    return tables + ops


def numeric_ops(rng):
    """Families in a fixed order, each in increasing size, so that every
    operation fills the same share of the shared caches whatever the seed;
    the seed picks the two large logsum_value calls and where they run."""
    ops = []
    for method, sizes in Y_SIZES.items():
        ops.extend(_y(n, method, lam) for n, lam in _paired(sizes, method))
    for order in SERIES_ORDERS:
        ops.extend(_series(which, order) for which in SERIES_FIXED)
    for which in SERIES_WITH_LAMBDA:
        ops.extend(_series(which, order, lam) for order, lam in _paired(SERIES_ORDERS, which))
    ops.extend(("oeis", "--terms", str(k)) for k in OEIS_TERMS)
    ops.extend(("lib", "logsum_value", str(n), lam) for n, lam in _paired(VALUE_SMALL_N, "value"))
    for n in rng.sample(VALUE_LARGE_N, VALUE_LARGE_COUNT):
        ops.insert(rng.randint(0, len(ops)), ("lib", "logsum_value", str(n), rng.choice(LAMBDAS)))
    return ops


_OP_LISTS = {
    "catalog": catalog_ops,
    "closed-forms": closed_forms_ops,
    "numeric": numeric_ops,
    "catalog-full": catalog_full_ops,
}


def operations(workload: str, seed: int) -> list:
    """The seeded operation list of one pass; the same seed gives the same list."""
    return _OP_LISTS[workload](random.Random(f"{workload}:{seed}"))


def universe(workload: str) -> list:
    """Every operation the workload's list may hold (the reference digests
    cover every parameter for every size)."""
    if workload in ("catalog", "catalog-full"):
        return operations(workload, 0)
    if workload == "closed-forms":
        ops = []
        for n in SYMBOLIC_N:
            ops.append(_y(n, "symbolic"))
            ops.extend(_y(n, "symbolic", lam) for lam in LAMBDAS)
        for lo, hi in TABLE_STRATA:
            ops.extend(("table", "--max", str(k)) for k in range(lo, hi + 1))
        return ops
    ops = []
    for method, sizes in Y_SIZES.items():
        ops.extend(_y(n, method, lam) for n in sizes for lam in LAMBDAS)
    for order in SERIES_ORDERS:
        ops.extend(_series(which, order) for which in SERIES_FIXED)
        ops.extend(
            _series(which, order, lam) for which in SERIES_WITH_LAMBDA for lam in LAMBDAS
        )
    ops.extend(("oeis", "--terms", str(k)) for k in OEIS_TERMS)
    ops.extend(
        ("lib", "logsum_value", str(n), lam)
        for n in VALUE_SMALL_N + VALUE_LARGE_N
        for lam in LAMBDAS
    )
    return ops
