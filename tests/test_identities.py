"""Catalog integrity and runner-contract tests for finsum.identities."""

import hashlib
import json
import sys

import pytest

from finsum import identities, special
from finsum.cli import main
from finsum.identities import (
    FAMILIES,
    PRINTED_FAILS,
    PRINTED_OK,
    get_record,
    identity_ids,
    records,
    report_json,
    report_table,
    run_all,
    run_identity,
)


def test_catalog_is_large_and_well_formed():
    ids = identity_ids()
    assert len(ids) >= 30
    assert len(ids) == 69
    assert list(ids) == sorted(ids)
    assert len(set(ids)) == len(ids)
    for record in records():
        assert record.family in FAMILIES
        assert record.status in (PRINTED_OK, PRINTED_FAILS)
        assert record.statement
        if record.status == PRINTED_FAILS:
            assert record.printed_check is not None
            assert len(record.counterexamples) >= 1
        else:
            assert record.counterexamples == ()


def test_every_family_is_populated():
    by_family = {family: 0 for family in FAMILIES}
    for record in records():
        by_family[record.family] += 1
    assert by_family == {
        "core": 24,
        "genfun": 12,
        "apostol": 15,
        "laurent": 14,
        "padic": 4,
    }


FROZEN_FAILURES = {
    "half-parameter-harmonic": [({"n": "0"}, "-4", "-2")],
    "harmonic-stirling-second": [({"m": "1"}, "-1", "-4")],
    "harmonic-split": [({"n": "1", "lambda": "2"}, "7/12", "-313/12")],
    "ode-derivative-forms": [
        ({"n": "0", "lambda": "2", "form": "first"}, "1/4", "-1/4"),
        ({"n": "0", "lambda": "2", "form": "second"}, "1/4", "-1/2"),
    ],
    "eta-degree-offset": [({"m": "0"}, "3/2", "1")],
}


@pytest.mark.parametrize("identity_id", sorted(FROZEN_FAILURES))
def test_flagged_statements_carry_exact_counterexamples(identity_id):
    record = get_record(identity_id)
    assert record.status == PRINTED_FAILS
    stored = [(cx.params, cx.lhs, cx.rhs) for cx in record.counterexamples]
    assert stored == FROZEN_FAILURES[identity_id]
    # the stored failing instances must be reproducible right now
    assert record.printed_check() is True
    # and the corrected statement must sweep clean
    entry = run_identity(identity_id)
    assert entry["passed"] is True
    assert entry["printed_confirmed"] is True


@pytest.mark.parametrize(
    "drift",
    [{"rhs": "-311/12"}, {"params": {"n": "2", "lambda": "2"}}],
    ids=["rhs-text", "params"],
)
def test_drifted_counterexample_is_caught(monkeypatch, drift):
    record = get_record("harmonic-split")
    (cx,) = record.counterexamples
    drifted = record._replace(counterexamples=(cx._replace(**drift),))
    monkeypatch.setitem(identities._BY_ID, record.id, drifted)
    assert get_record(record.id).printed_check() is False
    assert run_identity(record.id, max_n=1)["passed"] is False
    assert run_all(ids=[record.id], max_n=1)["ok"] is False


def test_record_that_raises_is_isolated(monkeypatch, capsys):
    record = get_record("harmonic-split")

    def broken_check(max_n=None):
        raise ZeroDivisionError("pole at 1")

    monkeypatch.setitem(identities._BY_ID, record.id, record._replace(check=broken_check))
    entry = run_identity(record.id, max_n=1)
    assert (entry["passed"], entry["swept"]) == (False, 0)
    assert entry["error"] == "ZeroDivisionError: pole at 1"
    assert "harmonic-split raised ZeroDivisionError: pole at 1" in capsys.readouterr().err

    report = run_all(ids=[record.id, "table-rows"], max_n=1)
    assert report["ok"] is False and report["unexpected"] == [record.id]
    assert [e["passed"] for e in report["records"]] == [False, True]
    payload = json.loads(report_json(report))
    assert set(payload["records"][0]) == {"id", "anchor", "status", "swept", "passed",
                                          "counterexamples"}

    assert main(["verify", "--id", record.id, "--max-n", "1", "--format", "json"]) == 3
    out, err = capsys.readouterr()
    assert json.loads(out)["unexpected"] == [record.id]
    assert "pole at 1" in err
    assert main(["verify", "--id", "table-rows", "--max-n", "1"]) == 0


def _clear_finsum_caches():
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "finsum":
            for value in vars(module).values():
                if hasattr(value, "cache_clear"):
                    value.cache_clear()


def test_volkenborn_power_limit_catches_a_wrong_bernoulli_number():
    # B_2 off by one in every finsum namespace: integral_limit("power", 2)
    # then returns the wrong value, and the record must catch it against
    # the Bernoulli polynomial's constant term, not against bernoulli itself
    original = special.bernoulli

    def perturbed(n):
        return original(n) + (n == 2)

    holders = [module for name, module in sys.modules.items()
               if name.split(".")[0] == "finsum" and getattr(module, "bernoulli", None) is original]
    _clear_finsum_caches()
    try:
        for module in holders:
            module.bernoulli = perturbed
        entry = run_identity("volkenborn-power-limits")
    finally:
        for module in holders:
            module.bernoulli = original
        _clear_finsum_caches()
    assert entry["passed"] is False
    failed_limits = {cx["params"]["p"] for cx in entry["counterexamples"]
                     if cx["params"].get("route") == "limit" and cx["params"]["index"] == "2"}
    assert failed_limits == {"2", "3", "5"}


def test_eta_records_catch_a_wrong_euler_polynomial():
    # E_2^(d) off by one for every order d: eta_neg Abel-sums the defining
    # series without Euler polynomials, so each record that compares it
    # with euler_polynomial must fail at m = 2 and nowhere else
    original = special.euler_polynomial

    def perturbed(m, order=1):
        value = original(m, order=order)
        return value + 1 if m == 2 else value

    holders = [module for name, module in sys.modules.items()
               if name.split(".")[0] == "finsum"
               and getattr(module, "euler_polynomial", None) is original]
    _clear_finsum_caches()
    try:
        for module in holders:
            module.euler_polynomial = perturbed
        entries = [run_identity(identity_id)
                   for identity_id in ("eta-degree-offset", "eta-triple", "eta-quintuple")]
    finally:
        for module in holders:
            module.euler_polynomial = original
        _clear_finsum_caches()
    for entry in entries:
        assert entry["passed"] is False, entry["id"]
        failed = entry["counterexamples"][len(get_record(entry["id"]).counterexamples):]
        assert failed and {cx["params"]["m"] for cx in failed} == {"2"}, entry["id"]


def test_flagged_record_with_equal_sides_is_rejected():
    record = get_record("harmonic-split")
    (cx,) = record.counterexamples
    with pytest.raises(ValueError):
        identities._record(
            record.id,
            record.family,
            record.statement,
            record.check,
            status=PRINTED_FAILS,
            printed_sides=record.printed_sides,
            counterexamples=(cx._replace(rhs=cx.lhs),),
        )


def test_unknown_identity_and_family_are_rejected():
    with pytest.raises(ValueError):
        run_identity("no-such-identity")
    with pytest.raises(ValueError):
        get_record("no-such-identity")
    with pytest.raises(ValueError):
        run_all(family="no-such-family")
    with pytest.raises(ValueError):
        run_all(ids=["table-rows", "no-such-identity"])


def test_recurrence_record_survives_deep_sweep():
    entry = run_identity("step-recurrence", max_n=60)
    assert entry["passed"] is True
    assert entry["swept"] >= 7 * 60


def test_subset_run_is_deterministic_modulo_timing():
    chosen = ["eta-degree-offset", "half-parameter-harmonic", "table-rows"]
    first = run_all(ids=chosen)
    second = run_all(ids=chosen)

    def stripped(report):
        payload = json.loads(report_json(report))
        payload.pop("elapsed")
        return payload

    assert stripped(first) == stripped(second)
    assert [e["id"] for e in first["records"]] == sorted(chosen)


def test_family_filter_selects_only_that_family():
    report = run_all(family="padic")
    ids = [entry["id"] for entry in report["records"]]
    assert ids == sorted(ids)
    assert set(ids) == {r.id for r in records() if r.family == "padic"}
    assert report["ok"] is True


def test_json_report_schema_is_stable():
    report = run_all(ids=["table-rows", "eta-triple"])
    payload = json.loads(report_json(report))
    assert set(payload) == {"ok", "total", "passed", "unexpected", "elapsed", "records"}
    for entry in payload["records"]:
        assert set(entry) == {
            "id",
            "anchor",
            "status",
            "swept",
            "passed",
            "counterexamples",
        }
        for cx in entry["counterexamples"]:
            assert set(cx) == {"params", "lhs", "rhs"}
            assert all(isinstance(v, str) for v in cx["params"].values())
            assert isinstance(cx["lhs"], str) and isinstance(cx["rhs"], str)


def test_plain_table_lists_every_record_once():
    report = run_all(ids=["table-rows", "oeis-lcm-harmonic"])
    text = report_table(report)
    lines = text.splitlines()
    assert lines[0].split()[:2] == ["id", "status"]
    assert sum(1 for line in lines if line.startswith("table-rows")) == 1
    assert sum(1 for line in lines if line.startswith("oeis-lcm-harmonic")) == 1
    assert lines[-1].startswith("records: 2  passed: 2")
    assert "pass" in text and "FAIL" not in text


# SHA-256 of `finsum verify --format json` without its "elapsed" lines; a
# refactor meant to keep every output identical must keep this digest
CATALOG_REPORT_SHA256 = "ee320405d78ab3a112afd049f7d3fa5cd9331f8166e18a24add996d80f466b8e"


def test_full_catalog_passes():
    report = run_all()
    assert report["ok"] is True
    assert report["total"] == 69
    assert report["passed"] == 69
    assert report["unexpected"] == []
    kept = "".join(
        line + "\n" for line in report_json(report).splitlines() if '"elapsed"' not in line
    )
    assert hashlib.sha256(kept.encode()).hexdigest() == CATALOG_REPORT_SHA256
