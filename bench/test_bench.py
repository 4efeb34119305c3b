"""Tests of the benchmark itself, at tiny sizes.

    python3 -m pytest bench -q
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

import reference
import run
import worker
import workloads

sys.path.insert(0, run.SRC)
import finsum  # noqa: E402
import finsum.cli  # noqa: E402

TINY = {
    "catalog": [("verify", "--family", "padic")],
    "catalog-full": [("verify", "--family", "padic", "--max-n", "2")],
    "closed-forms": [
        ("y", "--n", "4", "--method", "symbolic"),
        ("y", "--n", "6", "--lambda=-3/2", "--method", "symbolic"),
        ("table", "--max", "8"),
        ("y", "--n", "4", "--lambda=2", "--method", "symbolic"),
    ],
    "numeric": [
        ("y", "--n", "16", "--lambda=-7/4", "--method", "alg1"),
        ("y", "--n", "10", "--lambda=5/3", "--method", "direct"),
        ("series", "--which", "g1", "--order", "25"),
        ("series", "--which", "G", "--order", "25", "--lambda=-1/2"),
        ("oeis", "--terms", "100"),
        ("lib", "logsum_value", "10", "3"),
        ("lib", "logsum_value", "1000", "-1/2"),
    ],
}
USAGE_ERROR = ("y", "--n", "-1", "--lambda=2", "--method", "direct")


def _digests(ops, tmp_path):
    path = str(tmp_path / "digest.out")
    return {
        workloads.op_key(op): worker.output_digest(reference._output(finsum, op, path))
        for op in ops
    }


@pytest.fixture
def tiny(monkeypatch, tmp_path):
    """Run workloads on the TINY lists, with digests computed here."""
    monkeypatch.setattr(run, "OUT", str(tmp_path / "out"))
    monkeypatch.setattr(run, "SETUP_PROBES", 1)
    ops = dict(TINY)
    expected = {w: _digests(o, tmp_path) for w, o in ops.items()}
    monkeypatch.setattr(workloads, "operations", lambda w, seed: list(ops[w]))
    monkeypatch.setattr(reference, "load", lambda w: expected[w])
    return ops, expected


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_untraced_run_reports_every_end_to_end_metric(tiny, workload):
    result, record, _ = run.run_workload(workload, seed=3, seconds=0, trace=0)
    assert result["correct"]
    assert set(result["metrics"]) == set(run.END_TO_END)
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert result["attempted"] == 2 * len(TINY[workload]) * record["samples"]["rounds"]
    assert record["samples"]["setup_samples"] == 1 + record["samples"]["rounds"]
    assert record["ops"] == [list(op) for op in TINY[workload]]
    for key in ("seed", "git_commit", "python", "nproc", "finsum_threads"):
        assert key in record


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_run_reports_every_per_layer_metric(tiny, workload):
    result, _, _ = run.run_workload(workload, seed=3, seconds=0, trace=1)
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    assert set(metrics) == set(run.PER_LAYER)
    assert metrics["cli.self_s"] > 0 and metrics["cli.output_bytes"] > 0
    assert metrics["trace_overhead_ratio"] > 0
    reached = {
        "catalog": ("volkenborn.calls", "identities.padic.s", "identities.serial_s"),
        "catalog-full": ("volkenborn.calls", "identities.padic.s", "identities.serial_s"),
        "closed-forms": ("exact.poly_gcd.calls", "exact.ratfun_init.calls", "logsum.symbolic.calls"),
        "numeric": ("special.calls", "genfun.calls", "exact.laurent_mul.calls", "logsum.numeric.self_s"),
    }[workload]
    assert all(metrics[name] > 0 for name in reached)


def test_failures_are_counted_not_dropped(tiny, monkeypatch):
    ops, expected = tiny
    monkeypatch.setitem(ops, "numeric", ops["numeric"] + [USAGE_ERROR])
    expected["numeric"][workloads.op_key(USAGE_ERROR)] = "0" * 16
    result, record, _ = run.run_workload("numeric", seed=3, seconds=0, trace=0)
    rounds = record["samples"]["rounds"]
    assert result["correct"]
    assert record["failures"]["exit-code"] == 2 * rounds
    assert result["failed"] == sum(record["failures"].values())
    assert result["attempted"] == 2 * len(ops["numeric"]) * rounds


def test_corrupted_output_is_a_failed_op(tiny, capsys):
    _, expected = tiny
    key = workloads.op_key(TINY["closed-forms"][2])
    expected["closed-forms"][key] = "f" * 16
    assert run.main(["--workload", "closed-forms", "--seconds", "0"]) == 1
    final = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert final["correct"] is False
    assert final["failed"] >= 2


def test_live_check_rejects_a_wrong_closed_form(tmp_path):
    path = str(tmp_path / "out.json")
    assert finsum.cli.main(["y", "--n", "3", "--method", "symbolic", "--format", "json", "--output", path]) == 0
    with open(path, "rb") as handle:
        data = handle.read()
    op = ("y", "--n", "3", "--method", "symbolic")
    at = run.check_at(5)
    assert worker._live_check(finsum, op, data, at) == []
    payload = json.loads(data)
    payload["value"] = payload["value"].replace("L^3", "L^2", 1)
    assert payload["value"] != json.loads(data)["value"]
    assert worker._live_check(finsum, op, json.dumps(payload).encode(), at) != []


def test_stored_reference_matches_current_outputs(tmp_path):
    for workload in ("closed-forms", "numeric"):
        stored = reference.load(workload)
        assert set(stored) == {workloads.op_key(op) for op in workloads.universe(workload)}
        sample = [op for op in TINY[workload] if workloads.op_key(op) in stored]
        assert sample
        for key, digest in _digests(sample, tmp_path).items():
            assert stored[key] == digest, key


def test_operations_depend_on_seed_only():
    for workload in ("closed-forms", "numeric"):
        first = workloads.operations(workload, 7)
        assert first == workloads.operations(workload, 7)
        assert first != workloads.operations(workload, 8)
        universe = set(workloads.universe(workload))
        assert all(op in universe for op in first)


def test_host_scaling_uses_the_slices_around_each_operation():
    ops = [{"latency_s": 1.0}, {"latency_s": 2.0}, {"latency_s": 1.0}]
    # one slice before the pass, one after operation 0, one after the pass
    slices = [[-1, run.REFERENCE_S], [0, 3 * run.REFERENCE_S], [2, run.REFERENCE_S]]
    wall, latencies = run.host_scaled({"wall_s": 4.4, "ops": ops, "reference_s": slices})
    assert latencies == pytest.approx([0.5, 1.0, 0.5])
    assert wall == pytest.approx(4.4 * 2.0 / 4.0)


def test_work_does_not_depend_on_the_seed():
    for workload in ("closed-forms", "numeric"):
        first, second = (workloads.operations(workload, seed) for seed in (7, 8))
        fixed = [sorted(op for op in ops if op[0] != "table" and not
                        (op[0] == "lib" and int(op[2]) in workloads.VALUE_LARGE_N))
                 for ops in (first, second)]
        assert fixed[0] == fixed[1]
    assert workloads.operations("catalog", 7) == workloads.operations("catalog", 8)


def test_tail_leaves_ten_samples_beyond():
    p, value, beyond = run.tail([float(i) for i in range(100)])
    assert (p, beyond) == (90, 10)
    assert 89 < value < 90
    assert run.tail([1.0, 2.0])[0] == "max"


def test_benchmark_json_matches_runner():
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    assert {w["name"] for w in spec["workloads"]} <= set(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(run.HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "numeric", "--seed", "1", "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert "{" not in proc.stdout
