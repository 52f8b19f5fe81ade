"""Offered-rate sweep for the ``serve-fleet`` workload.

    python3 layerbench/rate_sweep.py > layerbench/rate_sweep.txt

Serves the workload's seeded traces at a ladder of offered rates and
prints, per rate, the modeled goodput, latency percentiles, and refused
requests, all on the virtual clock, so the table is deterministic.  A rate
is within limits when p99 latency meets LATENCY_LIMIT_MS and there is
no growing backlog: goodput keeps at least 95% of the share of the
offered rate it reaches at the lowest rate (a finite trace always
loses a little to its drain).  The knee is the first rate outside
those limits; ``ServeFleet.offered_rps`` is fixed once at the highest
rate within them, and never re-tuned per run.
"""

from __future__ import annotations

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

RATES = (2000, 3000, 4000, 5000, 6000, 8000, 10000, 12000, 16000, 20000, 28000,
         40000)
SEEDS = range(1, 7)
LATENCY_LIMIT_MS = 3.0
TRACES_PER_SEED = 10


def sweep_row(rate: float) -> dict:
    from repro.serve.fleet import FleetServer

    from run import percentile
    from workloads import ServeFleet

    # The fixed modeled set, then seeded traces as the timed ops see.
    fixed = ServeFleet.modeled_ops
    traces = [(SEEDS[0], index) for index in range(fixed)]
    traces += [(seed, fixed + k) for seed in SEEDS
               for k in range(TRACES_PER_SEED)]
    latencies, completed, refused, makespan = [], 0, 0, 0.0
    for seed, index in traces:
        workload = ServeFleet(seed)
        report = FleetServer(workload.machine, policy=workload.policy).serve(
            workload.trace(index, offered_rps=rate))
        latencies += [r.latency_s for r in report.results]
        completed += report.completed
        refused += report.rejected + report.shed
        makespan += report.makespan_s
    return {"rate": rate, "goodput": completed / makespan,
            "p50": percentile(latencies, 0.50) * 1e3,
            "p99": percentile(latencies, 0.99) * 1e3,
            "refused": refused, "offered": completed + refused}


def main() -> int:
    from repro.field.backend import set_backend

    from workloads import ServeFleet

    set_backend(ServeFleet.backend)
    print(f"serve-fleet offered-rate sweep: the {ServeFleet.modeled_ops} "
          f"fixed traces plus {len(SEEDS)} seeds x {TRACES_PER_SEED} seeded "
          f"traces, {ServeFleet.requests} requests each, 2 replicas, "
          "DGX-A100 model, virtual clock")
    print(f"workload constant: offered_rps = {ServeFleet.offered_rps:g}")
    print()
    print(f"{'offered/s':>10} {'goodput/s':>10} {'share':>6} "
          f"{'p50 ms':>9} {'p99 ms':>9} {'refused':>8} {'of':>6}")
    base_share = within = knee = None
    for rate in RATES:
        row = sweep_row(rate)
        share = row["goodput"] / rate
        base_share = base_share or share
        ok = (row["p99"] <= LATENCY_LIMIT_MS and row["refused"] == 0
              and share >= 0.95 * base_share)
        if ok and knee is None:
            within = rate
        elif knee is None:
            knee = rate
        print(f"{row['rate']:>10g} {row['goodput']:>10.0f} {share:>6.3f} "
              f"{row['p50']:>9.4f} {row['p99']:>9.4f} "
              f"{row['refused']:>8d} {row['offered']:>6d}")
    print()
    print(f"limits: p99 <= {LATENCY_LIMIT_MS} ms, no refusals, share >= "
          f"95% of the lowest rate's share")
    print(f"highest rate within limits: {within}; knee: {knee}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
