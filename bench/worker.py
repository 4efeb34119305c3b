"""One benchmark round in a fresh interpreter, so every lru_cache starts empty.

    python3 worker.py SPEC.json RESULT.json SPAWN_TIME

SPEC names the package source directory, the operations, the output
directory and whether to trace.  SPAWN_TIME is the parent's
``time.monotonic()`` just before it started this process; set-up time runs
from then until the first operation is ready (``import finsum`` plus one
trivial CLI call, which builds the parser).  The round then runs a cold
pass over the operations and a warm pass over the same list, writing each
output with ``--format json --output FILE``, and stores latencies, output
digests and live-check results in RESULT.
"""

from __future__ import annotations

import argparse
import ast
import gc
import hashlib
import json
import operator
import os
import re
import resource
import sys
import time
from fractions import Fraction

PASSES = ("cold", "warm")

# A reference slice runs at the start and end of each pass and after any
# operation that ends this long after the previous slice.
SLICE_EVERY_S = 0.2

# The catalog report carries its wall time; it is the one field that is not
# reproducible.
_ELAPSED = re.compile(rb'^  "elapsed": [^\n]*\n', re.MULTILINE)


def output_digest(data: bytes) -> str:
    return hashlib.sha256(_ELAPSED.sub(b"", data)).hexdigest()[:16]


_BINOPS = {
    ast.Add: operator.add,
    ast.Sub: operator.sub,
    ast.Mult: operator.mul,
    ast.Div: operator.truediv,
    ast.Pow: operator.pow,
}


def evaluate_text(text: str, at: Fraction) -> Fraction:
    """Exact value of a printed closed form such as "(-3*L + 1)/(2*L^2*(L - 1)^2)" at L = at."""

    def walk(node):
        if isinstance(node, ast.BinOp) and type(node.op) in _BINOPS:
            return _BINOPS[type(node.op)](walk(node.left), walk(node.right))
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
            return -walk(node.operand)
        if isinstance(node, ast.Constant) and type(node.value) is int:
            return Fraction(node.value)
        if isinstance(node, ast.Name) and node.id == "L":
            return at
        raise ValueError(f"unexpected element in closed form: {ast.dump(node)[:80]}")

    return walk(ast.parse(text.replace("^", "**"), mode="eval").body)


def _live_check(finsum, op, data: bytes, at: Fraction) -> list:
    """Compare a closed-forms output with the recurrence route; returns the mismatches."""
    try:
        payload = json.loads(data)
        if op[0] == "table":
            rows = enumerate(payload["rows"])
        elif payload["lambda"] == "symbolic":
            rows = [(payload["n"], payload["value"])]
        else:
            lam = finsum.parse_rational(payload["lambda"])
            expected = finsum.logsum(payload["n"], lam, "recurrence")
            ok = finsum.parse_rational(payload["value"]) == expected
            return [] if ok else [f"n={payload['n']} at {payload['lambda']}"]
        return [
            f"n={n} at {at}"
            for n, text in rows
            if evaluate_text(text, at) != finsum.logsum(n, at, "recurrence")
        ]
    except (ValueError, KeyError, TypeError, SyntaxError) as exc:
        return [f"unreadable output: {type(exc).__name__}: {exc}"[:200]]


def _run_op(finsum, cli_main, op, path):
    if op[0] == "lib":
        value = getattr(finsum, op[1])(int(op[2]), finsum.parse_rational(op[3]))
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(finsum.format_rational(value) + "\n")
        return 0
    return cli_main(list(op) + ["--format", "json", "--output", path])


def reference_slice() -> float:
    """Seconds a fixed stdlib-only piece of work takes now.

    It does the two kinds of work finsum's CLI does: it builds and uses an
    argparse parser of about the CLI's size, formats JSON and adds
    Fractions.  It uses nothing from
    finsum, and the collector is off while it runs, so its time follows
    only how fast the shared host runs interpreter code at that moment; the
    runner scales the operations by it.
    """
    gc.disable()
    try:
        started = time.perf_counter()
        parser = argparse.ArgumentParser(prog="reference")
        commands = parser.add_subparsers(dest="command")
        for name in ("a", "b", "c", "d", "e", "f", "g", "h", "i"):
            command = commands.add_parser(name, help=f"command {name}")
            for option in ("--x", "--y", "--z", "--w"):
                command.add_argument(option, help=f"option {option}")
            command.add_argument("--format", choices=("plain", "json", "csv"), default="plain")
        for _ in range(6):
            parser.parse_args(["b", "--x", "3", "--z", "5/7", "--format", "json"])
        json.dumps([str(Fraction(k, 7)) for k in range(60)])
        total = Fraction(0)
        for k in range(1, 500):
            total += Fraction(1, k * k + 1)
        return time.perf_counter() - started
    finally:
        gc.enable()


def _run_pass(finsum, ops, outdir, tracer, pass_name):
    """Run one pass; returns the entries, the wall time without the
    reference slices, and the slices as [index of the operation each one
    follows (-1 for the first), seconds]."""
    os.makedirs(outdir, exist_ok=True)
    entries = []
    slices = [[-1, reference_slice()]]
    sliced_at = started = time.perf_counter()
    for i, op in enumerate(ops):
        path = os.path.join(outdir, f"{i}.out")
        if tracer is not None:
            tracer.op_id = f"{pass_name}:{i}"
        error = None
        code = None
        t0 = time.perf_counter()
        try:
            # looked up per call so that the tracer's wrapper is used
            code = _run_op(finsum, finsum.cli.main, op, path)
        except Exception as exc:  # one failing operation must not stop the pass
            error = f"{type(exc).__name__}: {exc}"[:200]
        t1 = time.perf_counter()
        entries.append({"latency_s": t1 - t0, "exit": code, "error": error})
        if t1 - sliced_at >= SLICE_EVERY_S and i + 1 < len(ops):
            slices.append([i, reference_slice()])
            sliced_at = time.perf_counter()
    wall = time.perf_counter() - started - sum(seconds for _, seconds in slices[1:])
    slices.append([len(ops) - 1, reference_slice()])
    return entries, wall, slices


def _lru_functions(modules):
    return {
        f"{module.__name__}.{name}": obj
        for module in modules
        for name, obj in vars(module).items()
        if hasattr(obj, "cache_info") and getattr(obj, "__module__", None) == module.__name__
    }


def _cache_counts(functions):
    return {name: tuple(fn.cache_info()[:2]) for name, fn in functions.items()}


def _hit_ratio(before, after, prefix):
    hits = sum(after[k][0] - before[k][0] for k in after if k.startswith(prefix))
    misses = sum(after[k][1] - before[k][1] for k in after if k.startswith(prefix))
    return hits / (hits + misses) if hits + misses else 0.0


def main(argv) -> int:
    spec_path, result_path, spawn_time = argv[1], argv[2], float(argv[3])
    with open(spec_path, encoding="utf-8") as handle:
        spec = json.load(handle)
    src = os.path.realpath(spec["src"])
    sys.path.insert(0, src)
    import finsum
    import finsum.cli

    if not os.path.realpath(finsum.__file__).startswith(src + os.sep):
        sys.stderr.write(f"imported finsum from {finsum.__file__}, not from {src}\n")
        return 3
    probe = os.path.join(spec["outdir"], "probe.out")
    os.makedirs(spec["outdir"], exist_ok=True)
    if finsum.cli.main(["y", "--n", "0", "--lambda", "2", "--method", "direct",
                        "--format", "json", "--output", probe]) != 0:
        sys.stderr.write("the set-up probe operation failed\n")
        return 3
    setup_s = time.monotonic() - spawn_time
    # Slices taken once set-up is done, to scale set-up time like the passes.
    result = {"setup_s": setup_s, "setup_reference_s": [reference_slice() for _ in range(3)]}
    if not spec["ops"]:
        _write(result_path, result)
        return 0

    ops = [tuple(op) for op in spec["ops"]]
    caches = _lru_functions([sys.modules["finsum.special"], sys.modules["finsum.logsum"]])
    tracer = None
    if spec["trace"]:
        import tracer as tracer_module

        tracer = tracer_module.Tracer()
        tracer.install()
    passes = {}
    layers = {}
    for pass_name in PASSES:
        before = _cache_counts(caches)
        entries, wall, slices = _run_pass(
            finsum, ops, os.path.join(spec["outdir"], pass_name), tracer, pass_name
        )
        after = _cache_counts(caches)
        passes[pass_name] = {
            "wall_s": wall,
            "reference_s": slices,
            "ops": entries,
            "cache_hit_ratio": {
                "special": _hit_ratio(before, after, "finsum.special."),
                "logsum": _hit_ratio(before, after, "finsum.logsum."),
            },
        }
        if tracer is not None:
            layers[pass_name] = tracer.snapshot()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer is not None:
        tracer.uninstall()
        with open(os.path.join(spec["outdir"], "spans.json"), "w", encoding="utf-8") as handle:
            json.dump({"fields": ["id", "layer", "start", "end", "parent", "op"],
                       "spans": tracer.spans}, handle)

    at = Fraction(spec["check_at"])
    checked = {}  # (op, digest) -> mismatches; repeated outputs are checked once
    for pass_name in PASSES:
        for i, (op, entry) in enumerate(zip(ops, passes[pass_name]["ops"])):
            path = os.path.join(spec["outdir"], pass_name, f"{i}.out")
            if entry["error"] is not None or not os.path.exists(path):
                entry["digest"], entry["bytes"] = None, 0
                continue
            with open(path, "rb") as handle:
                data = handle.read()
            os.remove(path)
            entry["digest"] = output_digest(data)
            entry["bytes"] = len(data)
            if spec["live_check"] and op[0] in ("y", "table"):
                key = (op, entry["digest"])
                if key not in checked:
                    checked[key] = _live_check(finsum, op, data, at)
                entry["live_mismatch"] = checked[key]
    result.update(passes=passes, layers=layers, peak_rss_mb=peak_rss_mb)
    _write(result_path, result)
    return 0


def _write(path, payload):
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle)


if __name__ == "__main__":
    sys.exit(main(sys.argv))
