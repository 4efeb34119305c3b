"""Command-line front end for the log-sum toolkit.

Subcommands: ``y`` (single values), ``table`` (closed forms), ``series``
(series coefficients), ``verify`` (the identity catalog), ``volkenborn``
(p-adic Riemann-sum certificates), and ``oeis`` (the lcm-harmonic integer
sequence).  Exit codes: 0 on success / all checks passing, 1 when the
identity report contains an unexpected failure, 2 on usage errors, 3 when
a ``verify`` record raised instead of completing its check or any other
subcommand raised (one ``finsum <sub>: error: <Type>: <msg>`` line on
stderr).  Integers print in full, whatever their number of digits.

Rational arguments use the exact ``p/q`` grammar — no decimals.  Negative
values are easiest to pass in equals form, e.g. ``--lambda=-7/4``.

``main`` builds its parser once per process.  Each subcommand hands ``_emit``
its plain, JSON and CSV forms, and ``_emit`` builds only the one printed.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from fractions import Fraction
from functools import cache
from math import inf

from .exact import format_rational, parse_rational
from .genfun import gauss_2f1, log_gf, log_gf_special
from .identities import (
    FAMILIES,
    report_json,
    report_table,
    run_all,
)
from .logsum import _METHODS, harmonic_lcm_sequence, logsum, table
from .volkenborn import _INTEGRANDS, convergence_report

__all__ = ["main", "main_entry"]

_FORMATS = ("plain", "json", "csv")


class _UsageError(Exception):
    """Bad command-line input; reported with usage text, exit code 2."""


def _parse_lambda(text: str) -> Fraction:
    try:
        value = parse_rational(text)
    except ValueError as exc:
        raise _UsageError(str(exc)) from None
    if value == 0 or value == 1:
        raise _UsageError("the parameter must avoid 0 and 1")
    return value


@cache
def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="finsum",
        description="Exact computations around the alternating log-sum numbers S(n, q).  "
        "Exit codes: 0 on success, 1 when an identity fails, 2 on usage errors, "
        "3 when a computation raised (its error is written to stderr).",
    )
    sub = parser.add_subparsers(dest="subcommand", metavar="subcommand")

    def add_common(p):
        p.add_argument("--format", choices=_FORMATS, default="plain")
        p.add_argument("--output", default=None, help="write to this file instead of stdout")

    p_y = sub.add_parser("y", help="evaluate one value S(n, q)")
    p_y.add_argument("--n", type=int, required=True)
    p_y.add_argument("--lambda", dest="lam", default=None, metavar="Q")
    p_y.add_argument("--method", choices=_METHODS, default="recurrence")
    add_common(p_y)

    p_table = sub.add_parser("table", help="closed forms for n = 0..max")
    p_table.add_argument("--max", type=int, required=True)
    add_common(p_table)

    p_series = sub.add_parser("series", help="series coefficients through a given order")
    p_series.add_argument("--which", choices=("G", "g1", "g2", "g3", "2f1"), required=True)
    p_series.add_argument("--order", type=int, required=True)
    p_series.add_argument("--lambda", dest="lam", default=None, metavar="Q")
    add_common(p_series)

    p_verify = sub.add_parser(
        "verify",
        help="run the identity catalog",
        description="Run the identity catalog.  Exit codes: 0 when every record "
        "passes, 1 when a record fails unexpectedly, 2 on usage errors, 3 when a "
        "record raised (its error is written to stderr).",
    )
    p_verify.add_argument("--id", default=None, help="run a single record")
    p_verify.add_argument("--family", choices=FAMILIES, default=None)
    p_verify.add_argument("--max-n", type=int, default=None, dest="max_n")
    add_common(p_verify)

    p_volk = sub.add_parser("volkenborn", help="p-adic Riemann-sum convergence certificates")
    p_volk.add_argument("--p", type=int, required=True)
    p_volk.add_argument("--max-level", type=int, required=True, dest="max_level")
    p_volk.add_argument("--integrand", choices=_INTEGRANDS, default="power")
    p_volk.add_argument("--index", type=int, required=True)
    add_common(p_volk)

    p_oeis = sub.add_parser("oeis", help="the integer sequence lcm(1..k) * H(k)")
    p_oeis.add_argument("--terms", type=int, required=True)
    add_common(p_oeis)

    return parser


def _emit(args, plain, payload, header, rows) -> None:
    """Build the form ``--format`` names and write it to stdout or ``--output``.

    ``plain`` and ``payload`` (a JSON value, or JSON text) are zero-argument
    callables and ``rows`` an iterable, so the other forms are never built.
    """
    if args.format == "plain":
        text = plain()
    elif args.format == "json":
        text = payload()
        if not isinstance(text, str):
            text = json.dumps(text, indent=2)
    else:
        buffer = io.StringIO()
        writer = csv.writer(buffer, quoting=csv.QUOTE_ALL, lineterminator="\n")
        writer.writerow(header)
        writer.writerows([str(cell) for cell in row] for row in rows)
        text = buffer.getvalue().rstrip("\n")
    if args.output is None:
        sys.stdout.write(text + "\n")
    else:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")


# ---------------------------------------------------------------------------
# subcommand bodies
# ---------------------------------------------------------------------------

def _cmd_y(args) -> int:
    if args.n < 0:
        raise _UsageError("--n must be nonnegative")
    lam = None if args.lam is None else _parse_lambda(args.lam)
    if lam is None and args.method != "symbolic":
        raise _UsageError(f"--lambda is required for method {args.method!r}")
    value = logsum(args.n, lam, method=args.method)
    text = value.to_text() if lam is None else format_rational(value)
    lam_text = "symbolic" if lam is None else format_rational(lam)
    _emit(
        args,
        lambda: text,
        lambda: {"n": args.n, "lambda": lam_text, "method": args.method, "value": text},
        ("n", "lambda", "method", "value"),
        [(args.n, lam_text, args.method, text)],
    )
    return 0


def _cmd_table(args) -> int:
    if args.max < 0:
        raise _UsageError("--max must be nonnegative")
    rows = table(args.max)
    _emit(
        args,
        lambda: "\n".join(rows),
        lambda: {"max": args.max, "rows": rows},
        ("n", "expression"),
        enumerate(rows),
    )
    return 0


def _series_for(which: str, order: int, lam) -> list:
    if which in ("g1", "g2", "g3"):
        if lam is not None:
            raise _UsageError(f"--lambda does not apply to the fixed series {which!r}")
        series = log_gf_special(which, order)
    elif lam is None:
        raise _UsageError(f"--lambda is required for the series {which}")
    elif which == "G":
        series = log_gf(order, lam)
    else:  # 2f1
        series = gauss_2f1(Fraction(1), Fraction(1), Fraction(2), order, scale=(lam - 1) / lam)
    return [series.coefficient(k) for k in range(order + 1)]


def _cmd_series(args) -> int:
    if args.order < 0:
        raise _UsageError("--order must be nonnegative")
    lam = None if args.lam is None else _parse_lambda(args.lam)
    formatted = [format_rational(c) for c in _series_for(args.which, args.order, lam)]
    _emit(
        args,
        lambda: "\n".join(f"{k}\t{value}" for k, value in enumerate(formatted)),
        lambda: {
            "which": args.which,
            "order": args.order,
            "lambda": None if lam is None else format_rational(lam),
            "coefficients": formatted,
        },
        ("order", "coefficient"),
        enumerate(formatted),
    )
    return 0


def _cmd_verify(args) -> int:
    try:
        report = run_all(
            max_n=args.max_n,
            ids=None if args.id is None else [args.id],
            family=args.family,
        )
    except ValueError as exc:
        raise _UsageError(str(exc)) from None
    _emit(
        args,
        lambda: report_table(report),
        lambda: report_json(report),
        ("id", "status", "swept", "result"),
        (
            (e["id"], e["status"], e["swept"], "pass" if e["passed"] else "FAIL")
            for e in report["records"]
        ),
    )
    if any(e.get("error") for e in report["records"]):
        return 3
    return 0 if report["ok"] else 1


def _cmd_volkenborn(args) -> int:
    try:
        report = convergence_report(args.p, args.integrand, args.index, args.max_level)
    except ValueError as exc:
        raise _UsageError(str(exc)) from None
    rows = report["rows"]
    ok = report["ok"]

    def plain():
        lines = [f"p={report['p']} integrand={report['integrand']} index={report['index']}"]
        for r in rows:
            lines.append(
                f"N={r['N']}  partial={r['partial_sum']}  limit={r['limit']}  valuation={r['valuation']}"
            )
        lines.append(f"ok: {'yes' if ok else 'NO'}")
        return "\n".join(lines)

    _emit(
        args,
        plain,
        lambda: {
            "p": report["p"],
            "integrand": report["integrand"],
            "index": report["index"],
            "rows": rows,
            "ok": ok,
            "violations": [
                {k: ("+inf" if v == inf else v) for k, v in item.items()}
                for item in report["violations"]
            ],
        },
        ("p", "level", "integrand", "index", "partial_sum", "limit", "valuation"),
        (
            (r["p"], r["N"], r["integrand"], r["index"], r["partial_sum"], r["limit"], r["valuation"])
            for r in rows
        ),
    )
    return 0 if ok else 1


def _cmd_oeis(args) -> int:
    if args.terms < 1:
        raise _UsageError("--terms must be at least 1")
    values = harmonic_lcm_sequence(args.terms)
    _emit(
        args,
        lambda: " ".join(str(v) for v in values),
        lambda: {"terms": args.terms, "values": list(values)},
        ("k", "value"),
        enumerate(values, start=1),
    )
    return 0


_COMMANDS = {
    "y": _cmd_y,
    "table": _cmd_table,
    "series": _cmd_series,
    "verify": _cmd_verify,
    "volkenborn": _cmd_volkenborn,
    "oeis": _cmd_oeis,
}


def main(argv=None) -> int:
    parser = _parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    if args.subcommand is None:
        parser.print_usage(sys.stderr)
        sys.stderr.write("finsum: error: a subcommand is required\n")
        return 2
    limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else None
    if limit is not None:
        sys.set_int_max_str_digits(0)
    try:
        return _COMMANDS[args.subcommand](args)
    except _UsageError as exc:
        parser.print_usage(sys.stderr)
        sys.stderr.write(f"finsum {args.subcommand}: error: {exc}\n")
        return 2
    except Exception as exc:
        sys.stderr.write(f"finsum {args.subcommand}: error: {type(exc).__name__}: {exc}\n")
        return 3
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(limit)


def main_entry() -> None:
    raise SystemExit(main())
