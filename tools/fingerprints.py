"""Print the values a change must keep bit for bit, one line each.

For every seed given, one line per op of the verify-mix, verify-edge and
rhs-series workloads, as ``perfbench/cases.py`` draws them: the op's
``perfbench/ops.py`` fingerprint (both sides, verdict and diagnostics of
a verify op, or the value of a right side).  Then one line per case of
``struveint verify perfbench/grid40.json``: the report's fields without
the timestamp and the wall-clock times.  Two trees that compute the same
bits print the same lines, so comparing a change with its parent is a
``diff``:

    python3 tools/fingerprints.py 1 2 3 > change.txt

It imports ``struveint`` from the ``src/`` of the checkout it sits in
and reads ``perfbench/`` without writing there.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PERFBENCH = os.path.join(ROOT, "perfbench")
sys.path[:0] = [os.path.join(ROOT, "src"), PERFBENCH]

import struveint.cli  # noqa: E402

import cases  # noqa: E402
import ops  # noqa: E402

WORKLOADS = ("verify-mix", "verify-edge", "rhs-series")


def op_lines(seed: int):
    for workload in WORKLOADS:
        for op in cases.draw(workload, seed):
            result = ops.execute(op, ops.integral_case(op["case"]))
            yield f"{workload} seed={seed} {op['name']} {ops.fingerprint(result)}"


def grid_lines():
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "report.json")
        struveint.cli.main(["verify", os.path.join(PERFBENCH, "grid40.json"), "--output", path])
        with open(path, encoding="utf-8") as handle:
            report = json.load(handle)
    for i, entry in enumerate(report["cases"]):
        del entry["wall_clock_s"]
        yield f"grid40 case={i} {json.dumps(entry, sort_keys=True)}"
    yield f"grid40 summary {json.dumps(report['summary'], sort_keys=True)}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("seeds", type=int, nargs="+", help="workload seeds, as perfbench/run.py --seed takes them")
    args = parser.parse_args(argv)
    for seed in args.seeds:
        for line in op_lines(seed):
            print(line)
    for line in grid_lines():
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
