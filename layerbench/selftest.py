"""Self-test of the benchmark's checks and its trace accounting.

    python3 layerbench/selftest.py

For every workload:

* corrupts the output of one unit (an op, or one request of a
  ``serve-fleet`` trace) after it ran and asserts that exactly that
  unit is counted as failed, so ``ok_frac`` drops below 1;
* traces one op and asserts that the layers' self times plus
  ``unattributed.ms`` add up to the traced op time, and that the
  traced op's counts and modeled seconds equal the untraced op's.

Exits 0 when every assertion holds.
"""

from __future__ import annotations

import math
import sys

import run
from tracing import LAYERS, Recorder

SEED = 7
sys.path.insert(0, str(run.SRC))


def check_workload(name: str) -> list[str]:
    problems = []
    workload = run._build(name, SEED)
    loop = run.Loop(workload, corrupt=frozenset({1}))
    records = [loop.op(index) for index in range(3)]
    bad = [r["index"] for r in records if r["failed"]]
    if bad != [1] or records[1]["failed"] != 1 or loop.failed != 1:
        problems.append(f"corrupted unit not counted once: failed ops "
                        f"{bad}, failed units {loop.failed}")
    ok_frac = (loop.attempted - loop.failed) / loop.attempted
    if not ok_frac < 1:
        problems.append(f"ok_frac {ok_frac} does not show the failure")

    traced = run.Loop(workload).op(0, Recorder())
    spans = traced["spans"]
    parts = sum(spans[f"{layer}.self.ms"] for layer in LAYERS)
    parts += spans["unattributed.ms"]
    if not math.isclose(parts, spans["op.traced_ms"], rel_tol=1e-9):
        problems.append(f"self times + unattributed = {parts:.6f} ms, "
                        f"traced op = {spans['op.traced_ms']:.6f} ms")
    if (traced["counts"] != records[0]["counts"]
            or traced["modeled_s"] != records[0]["modeled_s"]):
        problems.append("traced op's counts or modeled seconds differ "
                        "from the untraced op's")
    return problems


def main() -> int:
    from workloads import WORKLOADS

    failures = 0
    for name in WORKLOADS:
        problems = check_workload(name)
        failures += bool(problems)
        print(f"{name}: {'FAIL' if problems else 'ok'}")
        for problem in problems:
            print(f"  {problem}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
