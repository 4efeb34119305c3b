"""Stored output digests that every benchmark run is checked against.

``reference/<workload>.tsv`` holds one line per operation in the workload's
universe (see ``workloads.universe``): the operation key, a tab, and the
first 16 hex digits of the SHA-256 of its output file.  Regenerate them at a
commit whose outputs are known to be right:

    python3 bench/reference.py [workload ...]

``logsum_value`` operations are stored with the value of the iterative
recurrence route, so their reference does not depend on the recursive
implementation that is being measured.
"""

from __future__ import annotations

import os
import sys
import tempfile

import workloads
from worker import output_digest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def reference_path(workload: str) -> str:
    return os.path.join(HERE, "reference", f"{workload}.tsv")


def load(workload: str) -> dict:
    with open(reference_path(workload), encoding="utf-8") as handle:
        return dict(line.rstrip("\n").split("\t") for line in handle if line.strip())


def _output(finsum, op, path) -> bytes:
    if op[0] == "lib":
        value = finsum.logsum(int(op[2]), finsum.parse_rational(op[3]), "recurrence")
        return (finsum.format_rational(value) + "\n").encode()
    code = finsum.cli.main(list(op) + ["--format", "json", "--output", path])
    if code != 0:
        raise RuntimeError(f"{workloads.op_key(op)} exited {code}")
    with open(path, "rb") as handle:
        return handle.read()


def generate(finsum, workload: str) -> int:
    lines = []
    with tempfile.TemporaryDirectory(dir=ROOT) as scratch:
        path = os.path.join(scratch, "out")
        for op in workloads.universe(workload):
            lines.append(f"{workloads.op_key(op)}\t{output_digest(_output(finsum, op, path))}\n")
    os.makedirs(os.path.dirname(reference_path(workload)), exist_ok=True)
    with open(reference_path(workload), "w", encoding="utf-8") as handle:
        handle.writelines(sorted(lines))
    return len(lines)


if __name__ == "__main__":
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import finsum
    import finsum.cli

    for name in sys.argv[1:] or workloads.WORKLOADS:
        print(name, generate(finsum, name), "operations")
