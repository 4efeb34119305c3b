"""Command-line contract tests: outputs, formats, exit codes, round-trips."""

import argparse
import csv
import hashlib
import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import finsum
from finsum.cli import main
from finsum.exact import parse_rational
from finsum.genfun import gauss_2f1, log_gf, log_gf_special
from finsum.logsum import harmonic_lcm_sequence, logsum

# Directory holding the imported ``finsum`` package, so child processes run
# the code under test whatever the working directory or installed copies.
PACKAGE_ROOT = Path(finsum.__file__).resolve().parents[1]
PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

FROZEN_TABLE = [
    "1/(L*(L - 1))",
    "(-3*L + 1)/(2*L^2*(L - 1)^2)",
    "(11*L^2 - 7*L + 2)/(6*L^3*(L - 1)^3)",
    "(-25*L^3 + 23*L^2 - 13*L + 3)/(12*L^4*(L - 1)^4)",
    "(137*L^4 - 163*L^3 + 137*L^2 - 63*L + 12)/(60*L^5*(L - 1)^5)",
]


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_single_value_example(capsys):
    code, out, err = run_cli(capsys, ["y", "--n", "1", "--lambda=-1", "--method", "direct"])
    assert code == 0
    assert out.strip() == "1/2"


def test_equals_form_negative_rational(capsys):
    code, out, _ = run_cli(capsys, ["y", "--n", "0", "--lambda=-7/4", "--method", "direct"])
    assert code == 0
    assert parse_rational(out.strip()) == parse_rational("16/77")


def test_all_methods_agree_from_cli(capsys):
    outputs = []
    for method in ("direct", "alg1", "recurrence", "symbolic"):
        code, out, _ = run_cli(
            capsys, ["y", "--n", "5", "--lambda", "5/3", "--method", method]
        )
        assert code == 0
        outputs.append(out.strip())
    assert len(set(outputs)) == 1


def test_symbolic_value_without_parameter(capsys):
    code, out, _ = run_cli(capsys, ["y", "--n", "0", "--method", "symbolic"])
    assert code == 0
    assert out.strip() == "1/(-L + L^2)"


def test_table_matches_frozen_rows(capsys):
    code, out, _ = run_cli(capsys, ["table", "--max", "4"])
    assert code == 0
    assert out.splitlines() == FROZEN_TABLE


def test_oeis_example(capsys):
    code, out, _ = run_cli(capsys, ["oeis", "--terms", "6"])
    assert code == 0
    assert out.strip() == "1 3 11 25 137 147"


def test_oeis_prints_integers_beyond_the_digit_limit(tmp_path, capsys):
    path = tmp_path / "oeis.txt"
    limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else None
    code, _, err = run_cli(capsys, ["oeis", "--terms", "10000", "--output", str(path)])
    assert code == 0, err
    last = path.read_text().rstrip("\n").rsplit(" ", 1)[-1]
    expected = harmonic_lcm_sequence(10000)[-1]
    if limit is None:
        assert int(last) == expected
        return
    assert sys.get_int_max_str_digits() == limit  # main restores the caller's setting
    sys.set_int_max_str_digits(0)
    try:
        assert len(last) > 4300
        assert int(last) == expected
    finally:
        sys.set_int_max_str_digits(limit)


def test_crash_exits_three_with_one_error_line(capsys, monkeypatch):
    def boom(args):
        raise ArithmeticError("fabricated failure")

    monkeypatch.setitem(finsum.cli._COMMANDS, "table", boom)
    code, out, err = run_cli(capsys, ["table", "--max", "2"])
    assert code == 3
    assert out == ""
    assert err == "finsum table: error: ArithmeticError: fabricated failure\n"
    assert "Traceback" not in err


def test_series_coefficients_round_trip(capsys):
    code, out, _ = run_cli(
        capsys, ["series", "--which", "G", "--order", "6", "--lambda", "1/2"]
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 7
    for k, line in enumerate(lines):
        order, value = line.split("\t")
        assert int(order) == k
        parse_rational(value)  # must re-parse exactly
    # [z^0] G = (1-q)^2 S(0,q): at q = 1/2 that is (1/2)^2 * (-4) = -1
    assert parse_rational(lines[0].split("\t")[1]) == -1


# Every series operation of the numeric benchmark workload, whose outputs
# its reference digests pin: at each order the three fixed series, then G and
# 2f1 with each parameter.  The SHA-256 is of the concatenated --format json
# outputs in that order.
SERIES_ORDERS = (25, 50, 100, 150, 200, 250)
SERIES_LAMBDAS = ("2", "3", "1/2", "1/3", "3/2", "5/3", "7/4", "9/5",
                  "-1", "-2", "-1/2", "-3/2", "-5/3", "-7/4", "13/5", "-11/7")
SERIES_OUTPUTS_SHA256 = "40eac963be3d299b85cce0bc2efd7290ddd027dc5e033f1b045b3bb309947578"


def test_series_outputs_are_pinned(capsys):
    digest = hashlib.sha256()
    count = 0
    for order in SERIES_ORDERS:
        ops = [["--which", which] for which in ("g1", "g2", "g3")]
        ops += [["--which", which, f"--lambda={lam}"]
                for which in ("G", "2f1") for lam in SERIES_LAMBDAS]
        for op in ops:
            code, out, _ = run_cli(capsys, ["series", "--order", str(order), *op,
                                            "--format", "json"])
            assert code == 0
            digest.update(out.encode())
            count += 1
    assert count == 210
    assert digest.hexdigest() == SERIES_OUTPUTS_SHA256


def test_fixed_series_reject_parameter(capsys):
    code, _, err = run_cli(
        capsys, ["series", "--which", "g2", "--order", "3", "--lambda", "2"]
    )
    assert code == 2
    assert "usage" in err.lower()


@pytest.mark.parametrize(
    "argv",
    [
        ["y", "--n", "1", "--lambda", "0.5"],
        ["y", "--n", "1", "--lambda", "0"],
        ["y", "--n", "1", "--lambda", "1"],
        ["y", "--n", "1", "--lambda", "3/0"],
        ["y", "--n", "1"],
        ["nonsense"],
        [],
        ["verify", "--id", "no-such-record"],
        ["volkenborn", "--p", "7", "--max-level", "9", "--index", "0"],
        ["volkenborn", "--p", "4", "--max-level", "2", "--index", "0"],
        ["verify", "--max-n", "0"],
        ["verify", "--id", "step-recurrence", "--max-n", "-1"],
    ],
)
def test_usage_errors_exit_two_with_usage_text(capsys, argv):
    code, _, err = run_cli(capsys, argv)
    assert code == 2
    assert "usage" in err.lower()


def test_json_output_for_value(capsys):
    code, out, _ = run_cli(
        capsys, ["y", "--n", "3", "--lambda", "1/2", "--format", "json"]
    )
    assert code == 0
    payload = json.loads(out)
    assert payload == {
        "n": 3,
        "lambda": "1/2",
        "method": "recurrence",
        "value": "-56/3",
    }


def test_csv_output_quotes_rational_fields(capsys):
    code, out, _ = run_cli(
        capsys, ["y", "--n", "3", "--lambda", "1/2", "--format", "csv"]
    )
    assert code == 0
    assert '"-56/3"' in out
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["n", "lambda", "method", "value"]
    assert rows[1][3] == "-56/3"
    assert parse_rational(rows[1][3]) == parse_rational("-56/3")


def test_table_csv_and_json(capsys):
    code, out, _ = run_cli(capsys, ["table", "--max", "2", "--format", "json"])
    assert code == 0
    assert json.loads(out)["rows"] == FROZEN_TABLE[:3]
    code, out, _ = run_cli(capsys, ["table", "--max", "2", "--format", "csv"])
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[1:] == [["0", FROZEN_TABLE[0]], ["1", FROZEN_TABLE[1]], ["2", FROZEN_TABLE[2]]]


def test_verify_single_record_json(capsys):
    code, out, _ = run_cli(
        capsys, ["verify", "--id", "half-parameter-harmonic", "--format", "json"]
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["ok"] is True
    [record] = payload["records"]
    assert record["id"] == "half-parameter-harmonic"
    assert record["status"] == "printed_fails_corrected_ok"
    assert record["counterexamples"] == [
        {"params": {"n": "0"}, "lhs": "-4", "rhs": "-2"}
    ]


def test_verify_family_and_max_n(capsys):
    code, out, _ = run_cli(
        capsys,
        ["verify", "--family", "padic", "--max-n", "3", "--format", "json"],
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["ok"] is True
    assert [r["id"] for r in payload["records"]] == [
        "integral-representation",
        "mahler-reconstruction",
        "volkenborn-falling-binom-limits",
        "volkenborn-power-limits",
    ]


def test_verify_exit_one_exactly_when_report_not_ok(capsys, monkeypatch):
    canned = {
        "ok": False,
        "total": 1,
        "passed": 0,
        "unexpected": ["fabricated"],
        "elapsed": 0.0,
        "records": [
            {
                "id": "fabricated",
                "anchor": "x",
                "status": "printed_ok",
                "swept": 1,
                "passed": False,
                "counterexamples": [{"params": {"n": "0"}, "lhs": "0", "rhs": "1"}],
            }
        ],
    }
    monkeypatch.setattr("finsum.cli.run_all", lambda **kwargs: canned)
    code, out, _ = run_cli(capsys, ["verify", "--format", "json"])
    assert code == 1
    assert json.loads(out)["unexpected"] == ["fabricated"]


def test_volkenborn_plain_and_exact_rows(capsys):
    code, out, _ = run_cli(
        capsys,
        ["volkenborn", "--p", "3", "--max-level", "4", "--integrand", "power", "--index", "1"],
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "p=3 integrand=power index=1"
    assert len(lines) == 6
    assert lines[-1] == "ok: yes"
    # level-1 Riemann sum of x at p=3: (0+1+2)/3 = 1, limit B_1 = -1/2
    assert "N=1  partial=1  limit=-1/2" in lines[1]


def test_volkenborn_infinite_valuation_serializes(capsys):
    code, out, _ = run_cli(
        capsys,
        [
            "volkenborn",
            "--p",
            "2",
            "--max-level",
            "4",
            "--integrand",
            "power",
            "--index",
            "0",
            "--format",
            "json",
        ],
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["ok"] is True
    assert all(row["valuation"] == "+inf" for row in payload["rows"])


def test_output_flag_writes_file(tmp_path, capsys):
    target = tmp_path / "row.txt"
    code, out, _ = run_cli(capsys, ["table", "--max", "0", "--output", str(target)])
    assert code == 0
    assert out == ""
    assert target.read_text(encoding="utf-8") == FROZEN_TABLE[0] + "\n"


def run_process(argv, env=None):
    """Run ``python -m finsum *argv`` in a child process, as the console script would.

    ``env`` defaults to this process's environment; either way ``PYTHONPATH``
    is set to ``PACKAGE_ROOT``.  A hang fails the test after the timeout.
    """
    env = dict(os.environ if env is None else env, PYTHONPATH=str(PACKAGE_ROOT))
    return subprocess.run(
        [sys.executable, "-m", "finsum", *argv],
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
    )


def test_console_script_examples():
    result = run_process(["oeis", "--terms", "6"])
    assert result.returncode == 0
    assert result.stdout.strip() == "1 3 11 25 137 147"
    result = run_process(["y", "--n", "1", "--lambda=-1", "--method", "direct"])
    assert result.returncode == 0
    assert result.stdout.strip() == "1/2"
    result = run_process(["y", "--n", "1", "--lambda", "1"])
    assert result.returncode == 2
    assert "usage" in result.stderr.lower()


def test_cli_import_loads_neither_dataclasses_nor_inspect():
    # the record types are namedtuples, so no command pays for dataclasses
    # and the inspect, ast and dis modules it pulls in; -S keeps modules that
    # site-packages .pth files import out of the count
    result = subprocess.run(
        [sys.executable, "-S", "-c",
         "import sys, finsum.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=str(PACKAGE_ROOT)),
        timeout=60,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"


@pytest.mark.skipif(not PYPROJECT.is_file(), reason="no pyproject.toml beside tests/")
def test_console_script_points_at_main_entry():
    tomllib = pytest.importorskip("tomllib")
    with PYPROJECT.open("rb") as handle:
        project = tomllib.load(handle)["project"]
    assert project["scripts"]["finsum"] == "finsum.cli:main_entry"


def test_verify_under_minimal_environment():
    result = run_process(
        ["verify", "--family", "padic"],
        env={"PATH": "/usr/local/bin:/usr/bin:/bin"},
    )
    assert result.returncode == 0
    assert "records: 4  passed: 4  unexpected: 0" in result.stdout


def test_parser_is_built_once_per_process(capsys, monkeypatch):
    added = []
    add_argument = argparse.ArgumentParser.add_argument

    def counting(self, *args, **kwargs):
        added.append(args)
        return add_argument(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "add_argument", counting)
    assert main(["oeis", "--terms", "1"]) == 0
    built = len(added)
    assert main(["oeis", "--terms", "1"]) == 0
    assert len(added) == built  # the second call adds no argument


def test_calls_in_one_process_match_fresh_processes(capsys):
    for argv in (
        ["y", "--n", "2", "--lambda=3", "--method", "direct"],
        ["y", "--n", "1", "--lambda", "0"],
        ["y", "--n", "2", "--method", "symbolic"],
    ):
        code, out, err = run_cli(capsys, argv)
        fresh = run_process(argv)
        assert (code, out, err) == (fresh.returncode, fresh.stdout, fresh.stderr), argv


# Parameter texts for the in-process property test: well-formed rationals,
# the excluded values 0 and 1 (also in disguise), and malformed text.
PARAMETER_TEXTS = st.one_of(
    st.none(),
    st.sampled_from(["0", "1", "-0", "2/2", "0.5", "3/0", "1/-2", "abc", ""]),
    st.integers(-30, 30).map(str),
    st.builds(lambda a, b: f"{a}/{b}", st.integers(-30, 30), st.integers(1, 12)),
)
CHEAP_RECORDS = (
    "half-parameter-harmonic",
    "two-parameter-step",
    "half-parameter-step",
    "oeis-lcm-harmonic",
    "daehee-closed-form",
    "no-such-record",
)


@st.composite
def command_lines(draw):
    """One argv for ``main`` at small sizes, and the options it was drawn from."""
    sub = draw(st.sampled_from(["y", "table", "series", "oeis", "volkenborn", "verify"]))
    opts = {"sub": sub}
    if sub == "y":
        opts.update(n=draw(st.integers(0, 12)), lam=draw(PARAMETER_TEXTS),
                    method=draw(st.sampled_from(["direct", "alg1", "recurrence", "symbolic"])))
        argv = ["y", "--n", str(opts["n"]), "--method", opts["method"]]
    elif sub == "table":
        argv = ["table", "--max", str(draw(st.integers(-1, 12)))]
    elif sub == "series":
        opts.update(which=draw(st.sampled_from(["G", "g1", "g2", "g3", "2f1"])),
                    order=draw(st.integers(-1, 12)), lam=draw(PARAMETER_TEXTS))
        argv = ["series", "--which", opts["which"], "--order", str(opts["order"])]
    elif sub == "oeis":
        argv = ["oeis", "--terms", str(draw(st.integers(0, 12)))]
    elif sub == "volkenborn":
        argv = ["volkenborn", "--p", str(draw(st.sampled_from([2, 3, 4, 5]))),
                "--max-level", str(draw(st.integers(0, 3))),
                "--integrand", draw(st.sampled_from(["power", "falling", "binom"])),
                "--index", str(draw(st.integers(0, 4)))]
    else:
        argv = ["verify", "--id", draw(st.sampled_from(CHEAP_RECORDS)),
                "--max-n", str(draw(st.integers(0, 2)))]
    if opts.get("lam") is not None:
        argv.append(f"--lambda={opts['lam']}")
    fmt = draw(st.sampled_from([None, "plain", "json", "csv"]))
    opts["format"] = fmt or "plain"
    return argv + ([] if fmt is None else ["--format", fmt]), opts


def printed_values(out: str, opts: dict) -> list:
    """The value fields ``y`` and ``series`` printed, in order, as text."""
    if opts["format"] == "json":
        payload = json.loads(out)
        return [payload["value"]] if opts["sub"] == "y" else payload["coefficients"]
    if opts["format"] == "csv":
        return [row[-1] for row in list(csv.reader(io.StringIO(out)))[1:]]
    lines = out.rstrip("\n").split("\n")
    return lines if opts["sub"] == "y" else [line.split("\t")[1] for line in lines]


def library_values(opts: dict, lam) -> list:
    if opts["sub"] == "y":
        value = logsum(opts["n"], lam, method=opts["method"])
        return [value.to_text() if lam is None else value]
    order, which = opts["order"], opts["which"]
    if which == "G":
        series = log_gf(order, lam)
    elif which == "2f1":
        series = gauss_2f1(Fraction(1), Fraction(1), Fraction(2), order, scale=(lam - 1) / lam)
    else:
        series = log_gf_special(which, order)
    return [series.coefficient(k) for k in range(order + 1)]


@settings(max_examples=200, deadline=None)
@given(command_lines())
def test_main_in_process_exits_cleanly_and_prints_exact_values(drawn):
    argv, opts = drawn
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    out, err = out.getvalue(), err.getvalue()
    assert code in (0, 1, 2, 3), (argv, code, err)
    assert "Traceback" not in err
    if opts["sub"] not in ("y", "series"):
        return
    try:
        lam = None if opts["lam"] is None else parse_rational(opts["lam"])
    except ValueError:
        assert code == 2, argv
        return
    if lam in (0, 1) or (opts["sub"] == "y" and lam is None and opts["method"] != "symbolic"):
        assert code == 2, argv
        return
    if opts["sub"] == "y":
        assert code == 0, (argv, err)
    if code != 0:
        return
    printed = printed_values(out, opts)
    expected = library_values(opts, lam)
    if opts["sub"] == "y" and lam is None:
        assert printed == expected
    else:
        assert [parse_rational(text) for text in printed] == expected

