"""finsum benchmark: the catalog, closed forms and numeric routes through the CLI.

    python3 bench/run.py --workload catalog|closed-forms|numeric|catalog-full|all
                         [--seed N] [--seconds S] [--trace 0|1]

Each round runs in a fresh interpreter (bench/worker.py): a cold pass over
the workload's seeded operation list, then a warm pass over the same list.
One closed-loop caller drives ``finsum.cli.main`` in-process; the next
operation starts when the previous one returns.  Every output is checked
against the stored digests (bench/reference/) and, for closed forms, against
the recurrence route at a seeded rational.

With ``--trace 0`` the run repeats untraced rounds for about ``--seconds``
seconds and reports the end-to-end metrics as medians over the rounds, in
seconds at a reference host speed (see ``host_scaled``).  With
``--trace 1`` it runs one untraced and one traced round and reports the
per-layer metrics of the traced cold pass.  The last line of standard
output is one JSON object; a run record with the inputs and raw numbers is
written under .bench_out/.  The exit code is 1 when an output differs from
its reference, 2 when the benchmark cannot run at all.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import time
from fractions import Fraction

import reference
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")
WORKER = os.path.join(HERE, "worker.py")

# An operation slower than this counts as failed.
OP_LIMIT_S = {"catalog": 60.0, "closed-forms": 30.0, "numeric": 20.0, "catalog-full": 120.0}
# Every round is killed once the whole run has taken this long.
RUN_BUDGET_S = 170.0
# Set-up-only interpreters started per untraced run, besides the rounds.
SETUP_PROBES = 5
# About the median time of worker.reference_slice on the host the
# benchmark was built on (2-vCPU Xeon, Python 3.11.7); it sets the unit of
# the host-scaled times.
REFERENCE_S = 0.006
# Samples a tail percentile must leave beyond it.
TAIL_BEYOND = 10

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "warm_wall_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "peak_rss_mb": "MB",
}

_EXACT = ("poly_gcd", "ratfun_init", "poly_mul", "poly_divmod", "laurent_mul", "laurent_inverse")
PER_LAYER = {
    **{f"exact.{k}.{m}": u for k in _EXACT for m, u in (("calls", "count"), ("self_s", "s"))},
    "exact.max_coeff_bits": "bit",
    "special.calls": "count",
    "special.self_s": "s",
    "special.cache_hit_ratio": "ratio",
    "logsum.symbolic.calls": "count",
    "logsum.symbolic.self_s": "s",
    "logsum.table.self_s": "s",
    "logsum.numeric.self_s": "s",
    "logsum.oeis.self_s": "s",
    "logsum.cache_hit_ratio": "ratio",
    **{f"{k}.{m}": u for k in ("genfun", "zetavals", "volkenborn")
       for m, u in (("calls", "count"), ("self_s", "s"))},
    **{f"identities.{family}.s": "s" for family in ("core", "genfun", "apostol", "laurent", "padic")},
    "identities.records_failed": "count",
    "identities.serial_s": "s",
    "identities.thread_speedup": "ratio",
    "cli.self_s": "s",
    "cli.output_bytes": "B",
    "failed_ratio": "ratio",
    "trace_overhead_ratio": "ratio",
}

# Outputs that differ from the reference; every other kind is a failure
# but not a wrong answer.
WRONG = ("mismatch", "live-mismatch")


def check_at(seed: int) -> Fraction:
    """The seeded rational at which closed forms are checked live."""
    rng = random.Random(f"check:{seed}")
    while True:
        value = Fraction(rng.randint(-60, 60), rng.randint(2, 60))
        if value not in (0, 1):
            return value


def run_round(workload, ops, seed, trace, outdir, timeout):
    """One worker process; returns its result dict, or None if it died or timed out."""
    os.makedirs(outdir, exist_ok=True)
    spec_path = os.path.join(outdir, "spec.json")
    result_path = os.path.join(outdir, "result.json")
    with open(spec_path, "w", encoding="utf-8") as handle:
        json.dump({
            "src": SRC,
            "ops": ops,
            "outdir": outdir,
            "trace": trace,
            "live_check": workload == "closed-forms",
            "check_at": str(check_at(seed)),
        }, handle)
    spawned = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, WORKER, spec_path, result_path, repr(spawned)],
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, timeout=timeout, cwd=ROOT,
        )
    except subprocess.TimeoutExpired:  # subprocess.run has killed and reaped it
        sys.stderr.write(f"round in {outdir} exceeded {timeout:.0f} s and was stopped\n")
        return None
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr.decode(errors="replace")[-2000:])
        return None
    with open(result_path, encoding="utf-8") as handle:
        return json.load(handle)


def host_scaled(pass_result):
    """A pass's wall time and operation latencies in seconds at the
    reference speed.

    The host's shared cores run interpreter code up to 1.5x slower for
    stretches of seconds to minutes, as neighbours load them, so raw times
    follow the neighbours.  The worker times a fixed stdlib-only reference
    slice between operations; an operation that ran while the slices on
    either side of it took twice REFERENCE_S on average counts at half its
    measured time.  The wall time is scaled by the latency-weighted factor.
    """
    slices = pass_result["reference_s"]
    latencies = []
    k = 0
    for i, entry in enumerate(pass_result["ops"]):
        while slices[k + 1][0] < i:
            k += 1
        # slices[k] ran just before operation i, slices[k + 1] after it
        latencies.append(entry["latency_s"] * 2 * REFERENCE_S / (slices[k][1] + slices[k + 1][1]))
    measured = sum(e["latency_s"] for e in pass_result["ops"])
    return pass_result["wall_s"] * sum(latencies) / measured, latencies


def scaled_setup(result) -> float:
    """Set-up time in seconds at the reference speed, by the slices the
    worker timed once set-up was done."""
    return result["setup_s"] * REFERENCE_S / statistics.median(result["setup_reference_s"])


def classify(workload, op, entry, expected) -> str | None:
    """Why an operation failed, or None if it succeeded."""
    if entry["error"] is not None:
        return "raised"
    if entry["exit"] != 0:
        return "exit-code"
    if entry["digest"] != expected[workloads.op_key(op)]:
        return "mismatch"
    if entry.get("live_mismatch"):
        return "live-mismatch"
    if entry["latency_s"] > OP_LIMIT_S[workload]:
        return "over-limit"
    return None


def tail(latencies):
    """(percentile, value, samples beyond): the highest whole percentile with
    at least TAIL_BEYOND samples beyond it, or the maximum if there are too
    few samples for any."""
    n = len(latencies)
    ranked = sorted(latencies)
    for p in range(99, 0, -1):
        position = p * (n - 1) / 100
        beyond = n - 1 - int(position)
        if beyond >= TAIL_BEYOND:
            low = int(position)
            high = min(low + 1, n - 1)
            value = ranked[low] + (ranked[high] - ranked[low]) * (position - low)
            return p, value, beyond
    return "max", ranked[-1], 0


def _git_commit():
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.exists(os.path.join(git, ref)):
            with open(os.path.join(git, ref), encoding="utf-8") as handle:
                return handle.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as handle:
            for line in handle:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def _layer_metrics(result, untraced_wall):
    cold = result["layers"]["cold"]
    calls, self_s = cold["calls"], cold["self_s"]
    records = cold["records"]
    family_s = {}
    for _, family, seconds, _ in records:
        family_s[family] = family_s.get(family, 0.0) + seconds
    serial_s = sum(family_s.values())
    traced_cold = result["passes"]["cold"]["wall_s"]
    traced_wall = sum(host_scaled(p)[0] for p in result["passes"].values())
    metrics = {}
    for name in PER_LAYER:
        layer, _, measure = name.rpartition(".")
        if measure == "calls":
            metrics[name] = calls.get(layer, 0)
        elif measure == "self_s":
            metrics[name] = self_s.get(layer, 0.0)
    metrics.update({
        "exact.max_coeff_bits": cold["max_coeff_bits"],
        "special.cache_hit_ratio": result["passes"]["cold"]["cache_hit_ratio"]["special"],
        "logsum.cache_hit_ratio": result["passes"]["cold"]["cache_hit_ratio"]["logsum"],
        "identities.records_failed": sum(1 for *_, passed in records if not passed),
        "identities.serial_s": serial_s,
        "identities.thread_speedup": serial_s / traced_cold if serial_s else 0.0,
        "cli.output_bytes": sum(e["bytes"] for e in result["passes"]["cold"]["ops"]),
        "trace_overhead_ratio": traced_wall / untraced_wall,
    })
    for family in ("core", "genfun", "apostol", "laurent", "padic"):
        metrics[f"identities.{family}.s"] = family_s.get(family, 0.0)
    return metrics


def run_workload(workload, seed, seconds, trace):
    ops = workloads.operations(workload, seed)
    expected = reference.load(workload)
    missing = [workloads.op_key(op) for op in ops if workloads.op_key(op) not in expected]
    if missing:
        raise SystemExit(f"no reference digest for {missing[:3]}; run bench/reference.py")
    started = time.monotonic()
    deadline = started + RUN_BUDGET_S
    label = f"{workload}-seed{seed}-trace{trace}"
    rundir = os.path.join(OUT, f"{label}-{os.getpid()}")

    def remaining():
        return max(1.0, deadline - time.monotonic())

    setups = []
    if not trace:
        for i in range(SETUP_PROBES):
            probe = run_round(workload, [], seed, False, os.path.join(rundir, f"probe{i}"), remaining())
            if probe is not None:
                setups.append(scaled_setup(probe))
    rounds = []
    attempted = 0
    failures = {}
    while True:
        t0 = time.monotonic()
        result = run_round(workload, ops, seed, False, os.path.join(rundir, f"round{len(rounds)}"), remaining())
        took = time.monotonic() - t0
        attempted += 2 * len(ops)
        if result is None:
            failures["lost"] = failures.get("lost", 0) + 2 * len(ops)
        else:
            rounds.append(result)
        if trace or time.monotonic() - started + took > min(seconds, RUN_BUDGET_S / 2):
            break
    traced = None
    if trace:
        traced = run_round(workload, ops, seed, True, os.path.join(rundir, "traced"), remaining())
        attempted += 2 * len(ops)
        if traced is None:
            failures["lost"] = failures.get("lost", 0) + 2 * len(ops)
    for result in rounds + ([traced] if traced else []):
        for pass_name in ("cold", "warm"):
            for op, entry in zip(ops, result["passes"][pass_name]["ops"]):
                kind = classify(workload, op, entry, expected)
                if kind:
                    failures[kind] = failures.get(kind, 0) + 1
    failed = sum(failures.values())
    if not rounds or (trace and traced is None):
        raise SystemExit(f"{workload}: no round completed; see the messages above")

    tail_info = tail([e["latency_s"] for e in rounds[0]["passes"]["cold"]["ops"]])
    per_round = []
    scaled_latencies = []
    for result in rounds:
        cold, warm = result["passes"]["cold"], result["passes"]["warm"]
        wall, latencies = host_scaled(cold)
        warm_wall = host_scaled(warm)[0]
        scaled_latencies.append(latencies)
        succeeded = sum(1 for op, e in zip(ops, cold["ops"]) if classify(workload, op, e, expected) is None)
        per_round.append({
            "setup_s": scaled_setup(result),
            "wall_s": wall,
            "warm_wall_s": warm_wall,
            "ops_per_s": succeeded / wall,
            "op_p50_ms": statistics.median(latencies) * 1000,
            "op_tail_ms": tail(latencies)[1] * 1000,
            "peak_rss_mb": result["peak_rss_mb"],
            "unscaled_setup_s": result["setup_s"],
            "unscaled_wall_s": cold["wall_s"],
            "unscaled_warm_wall_s": warm["wall_s"],
        })
    setups.extend(r["setup_s"] for r in per_round)
    # Timings are medians over the rounds of host-scaled times; latency
    # percentiles are taken over each operation's median scaled latency.
    per_op = [statistics.median(lat) for lat in zip(*scaled_latencies)]
    end_to_end = {name: statistics.median(r[name] for r in per_round) for name in END_TO_END}
    end_to_end["setup_s"] = statistics.median(setups)
    end_to_end["op_p50_ms"] = statistics.median(per_op) * 1000
    end_to_end["op_tail_ms"] = tail(per_op)[1] * 1000
    untraced_wall = statistics.median(r["wall_s"] + r["warm_wall_s"] for r in per_round)

    if trace:
        metrics = _layer_metrics(traced, untraced_wall)
        metrics["failed_ratio"] = failed / attempted
        units = PER_LAYER
    else:
        metrics = end_to_end
        units = END_TO_END
    correct = not any(failures.get(kind) for kind in WRONG)
    record = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "git_commit": _git_commit(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "finsum_threads": os.environ.get("FINSUM_THREADS"),
        "check_at": str(check_at(seed)),
        "ops": [list(op) for op in ops],
        "samples": {
            "rounds": len(rounds),
            "setup_samples": len(setups),
            "ops_per_pass": len(ops),
            "tail_percentile": tail_info[0],
            "tail_beyond": tail_info[2],
        },
        "attempted": attempted,
        "failed": failed,
        "failed_ratio": failed / attempted,
        "failures": failures,
        "per_round": per_round,
        "end_to_end": end_to_end,
        "layers": traced["layers"] if traced else None,
        "metrics": metrics,
    }
    os.makedirs(rundir, exist_ok=True)
    with open(os.path.join(rundir, "record.json"), "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=1)
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }, record, rundir


def _print_block(result, record, rundir):
    samples = record["samples"]
    print(f"{record['workload']}: seed {record['seed']}, {samples['rounds']} round(s) of "
          f"{samples['ops_per_pass']} ops per pass, tail = p{samples['tail_percentile']} "
          f"({samples['tail_beyond']} beyond), attempted {record['attempted']}, "
          f"failed {record['failed']} {record['failures'] or ''}, "
          f"failed_ratio {record['failed_ratio']:.4f}, correct {result['correct']}")
    for name, metric in result["metrics"].items():
        print(f"  {name:<28} {metric['value']:>14.6g} {metric['unit']}")
    print(f"  record: {os.path.relpath(rundir, ROOT)}/record.json")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "finsum", "__init__.py")):
        sys.stderr.write(f"finsum sources not found under {SRC}\n")
        return 2
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        result, record, rundir = run_workload(name, args.seed, args.seconds, args.trace)
        _print_block(result, record, rundir)
        results[name] = result
    if len(results) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{k}": v for w, r in results.items() for k, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
