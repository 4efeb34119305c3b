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
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from fractions import Fraction
from math import inf

from .exact import format_rational, parse_rational
from .genfun import gauss_2f1, log_gf, log_gf_special
from .identities import (
    FAMILIES,
    report_json,
    report_table,
    run_all,
)
from .logsum import harmonic_lcm_sequence, logsum, logsum_symbolic, table
from .volkenborn import convergence_report

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


def _build_parser() -> argparse.ArgumentParser:
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
    p_y.add_argument(
        "--method",
        choices=("direct", "alg1", "recurrence", "symbolic"),
        default="recurrence",
    )
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
    p_volk.add_argument("--integrand", choices=("power", "falling", "binom"), default="power")
    p_volk.add_argument("--index", type=int, required=True)
    add_common(p_volk)

    p_oeis = sub.add_parser("oeis", help="the integer sequence lcm(1..k) * H(k)")
    p_oeis.add_argument("--terms", type=int, required=True)
    add_common(p_oeis)

    return parser


def _emit(text: str, path) -> None:
    if path is None:
        sys.stdout.write(text + "\n")
    else:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")


def _csv_text(header, rows) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer, quoting=csv.QUOTE_ALL, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([str(cell) for cell in row])
    return buffer.getvalue().rstrip("\n")


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
    if args.format == "plain":
        _emit(text, args.output)
    elif args.format == "json":
        payload = {"n": args.n, "lambda": lam_text, "method": args.method, "value": text}
        _emit(json.dumps(payload, indent=2), args.output)
    else:
        _emit(
            _csv_text(("n", "lambda", "method", "value"), [(args.n, lam_text, args.method, text)]),
            args.output,
        )
    return 0


def _cmd_table(args) -> int:
    if args.max < 0:
        raise _UsageError("--max must be nonnegative")
    rows = table(args.max)
    if args.format == "plain":
        _emit("\n".join(rows), args.output)
    elif args.format == "json":
        _emit(json.dumps({"max": args.max, "rows": rows}, indent=2), args.output)
    else:
        _emit(_csv_text(("n", "expression"), list(enumerate(rows))), args.output)
    return 0


def _series_for(which: str, order: int, lam) -> list:
    if which in ("g1", "g2", "g3"):
        if lam is not None:
            raise _UsageError(f"--lambda does not apply to the fixed series {which!r}")
        series = log_gf_special(which, order)
    elif which == "G":
        if lam is None:
            raise _UsageError("--lambda is required for the series G")
        series = log_gf(order, lam)
    else:  # 2f1
        if lam is None:
            raise _UsageError("--lambda is required for the series 2f1")
        series = gauss_2f1(Fraction(1), Fraction(1), Fraction(2), order, scale=(lam - 1) / lam)
    return [series.coefficient(k) for k in range(order + 1)]


def _cmd_series(args) -> int:
    if args.order < 0:
        raise _UsageError("--order must be nonnegative")
    lam = None if args.lam is None else _parse_lambda(args.lam)
    coefficients = _series_for(args.which, args.order, lam)
    formatted = [format_rational(c) for c in coefficients]
    lam_text = None if lam is None else format_rational(lam)
    if args.format == "plain":
        _emit(
            "\n".join(f"{k}\t{value}" for k, value in enumerate(formatted)),
            args.output,
        )
    elif args.format == "json":
        payload = {
            "which": args.which,
            "order": args.order,
            "lambda": lam_text,
            "coefficients": formatted,
        }
        _emit(json.dumps(payload, indent=2), args.output)
    else:
        _emit(_csv_text(("order", "coefficient"), list(enumerate(formatted))), args.output)
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
    if args.format == "json":
        _emit(report_json(report), args.output)
    elif args.format == "csv":
        rows = [
            (e["id"], e["status"], e["swept"], "pass" if e["passed"] else "FAIL")
            for e in report["records"]
        ]
        _emit(_csv_text(("id", "status", "swept", "result"), rows), args.output)
    else:
        _emit(report_table(report), args.output)
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
    if args.format == "json":
        payload = {
            "p": report["p"],
            "integrand": report["integrand"],
            "index": report["index"],
            "rows": rows,
            "ok": ok,
            "violations": [
                {k: ("+inf" if v == inf else v) for k, v in item.items()}
                for item in report["violations"]
            ],
        }
        _emit(json.dumps(payload, indent=2), args.output)
    elif args.format == "csv":
        _emit(
            _csv_text(
                ("p", "level", "integrand", "index", "partial_sum", "limit", "valuation"),
                [
                    (r["p"], r["N"], r["integrand"], r["index"], r["partial_sum"], r["limit"], r["valuation"])
                    for r in rows
                ],
            ),
            args.output,
        )
    else:
        lines = [
            f"p={report['p']} integrand={report['integrand']} index={report['index']}"
        ]
        for r in rows:
            lines.append(
                f"N={r['N']}  partial={r['partial_sum']}  limit={r['limit']}  valuation={r['valuation']}"
            )
        lines.append(f"ok: {'yes' if ok else 'NO'}")
        _emit("\n".join(lines), args.output)
    return 0 if ok else 1


def _cmd_oeis(args) -> int:
    if args.terms < 1:
        raise _UsageError("--terms must be at least 1")
    values = harmonic_lcm_sequence(args.terms)
    if args.format == "plain":
        _emit(" ".join(str(v) for v in values), args.output)
    elif args.format == "json":
        _emit(json.dumps({"terms": args.terms, "values": list(values)}, indent=2), args.output)
    else:
        _emit(_csv_text(("k", "value"), list(enumerate(values, start=1))), args.output)
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
    parser = _build_parser()
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
