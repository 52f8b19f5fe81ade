"""Benchmark entry point: one workload, one seed, one run.

    python3 layerbench/run.py --workload qap-bn254 --seed 1 \\
        --seconds 15 --trace 0

Run from the root of a checkout (``src/repro`` must exist).  Each run
is a single-process, single-threaded closed loop with one client: the
next op starts when the previous one has been checked.

``--trace 0`` reports the end-to-end metrics: the median of several
cold set-ups (each in a fresh process, spread over the run) and the
best host op time, each rescaled by the same statistic of a reference
kernel timed after every op (``reference.py``); peak memory; the share
of units that passed their check; and the modeled metrics of the fixed
seeded unit set.

``--trace 1`` reports the per-layer metrics: every seeded unit runs
untraced and then traced (spans around the public functions of each
layer, see ``tracing.py``); counts and modeled seconds must agree op by
op.  The traced spans of the first traced op are written as Chrome
trace-event JSON next to the run record in ``layerbench/results/``.

The last line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"

#: Cold set-ups per ``--trace 0`` run, each in a fresh process.
SETUPS = 15


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile of ``values`` (0 < q <= 1)."""
    ordered = sorted(values)
    rank = max(1, math.ceil(round(q * len(ordered), 9)))
    return ordered[rank - 1]


def _git_sha() -> str:
    """HEAD of the checkout, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.exists():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _run_meta(workload, args) -> dict:
    import numpy

    return {"workload": workload.name, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace,
            "backend": workload.backend, "git_sha": _git_sha(),
            "python": platform.python_version(),
            "numpy": numpy.__version__, "nproc": os.cpu_count()}


def _build(name: str, seed: int):
    from repro.field.backend import set_backend

    from workloads import WORKLOADS

    cls = WORKLOADS[name]
    set_backend(cls.backend)
    return cls(seed)


class Loop:
    """Runs units, times ops, checks outputs, keeps every record."""

    def __init__(self, workload, corrupt: frozenset = frozenset()):
        self.workload = workload
        self.corrupt = corrupt
        self.records: list[dict] = []
        self.attempted = 0
        self.failed = 0

    def op(self, index: int, recorder=None) -> dict:
        from repro.field.packed import pack_stats

        wl = self.workload
        inputs = wl.unit_input(index)
        # Every op starts from a collected heap, so collector passes
        # triggered inside it do not depend on the garbage of the ops
        # and checks before it.
        gc.collect()
        before = pack_stats.snapshot()
        if recorder is not None:
            recorder.reset()
            recorder.install()
        try:
            start = perf_counter()
            outcome = wl.run(inputs)
            op_s = perf_counter() - start
        finally:
            if recorder is not None:
                recorder.uninstall()
        after = pack_stats.snapshot()
        outcome.counts.update(
            {f"pack.{k}": after[k] - before[k] for k in after})
        if index in self.corrupt:
            wl.corrupt(outcome)
        verdicts = wl.check(index, inputs, outcome)
        self.attempted += len(verdicts)
        self.failed += verdicts.count(False)
        record = {"index": index, "op_ms": op_s * 1e3,
                  "units": len(verdicts), "failed": verdicts.count(False),
                  "counts": outcome.counts, "modeled_s": outcome.modeled_s,
                  "makespan_s": outcome.makespan_s}
        if recorder is not None:
            from tracing import summarize

            record["spans"] = summarize(recorder.spans, recorder.counts,
                                        op_s)
        self.records.append(record)
        return record

    def run_until(self, deadline: float, minimum: int = 0,
                  first: int = 0) -> list[dict]:
        """Ops on units ``first, first+1, ...`` until ``deadline`` (a
        ``perf_counter`` reading), and at least ``minimum`` of them."""
        from reference import reference

        done: list[dict] = []
        index = first
        while len(done) < minimum or perf_counter() < deadline:
            record = self.op(index)
            gc.collect()
            start = perf_counter()
            reference()
            record["ref_ms"] = (perf_counter() - start) * 1e3
            done.append(record)
            index += 1
        return done


def modeled_metrics(workload, records: list[dict]) -> dict:
    """Modeled metrics over the fixed unit set (the workload's first
    ``modeled_ops`` ops).

    A unit's modeled latency is a request's arrival-to-completion time
    on the virtual clock for ``serve-fleet``, and the op's modeled time
    for the other workloads (one closed-loop client, so goodput is one
    over it).
    """
    fixed = sorted(records, key=lambda r: r["index"])[:workload.modeled_ops]
    latencies = [s for r in fixed for s in r["modeled_s"]]
    if workload.name == "serve-fleet":
        makespan = sum(r["makespan_s"] for r in fixed)
        op_ms = makespan / len(fixed) * 1e3
        goodput = sum(r["counts"]["serve.completed"]
                      for r in fixed) / makespan
    else:
        op_ms = statistics.fmean(latencies) * 1e3
        goodput = len(latencies) / sum(latencies)
    return {"modeled_ms": op_ms,
            "modeled_p50_ms": percentile(latencies, 0.50) * 1e3,
            "modeled_p99_ms": percentile(latencies, 0.99) * 1e3,
            "modeled_goodput_rps": goodput}


def cold_setup(name: str, seed: int) -> float:
    """Wall-clock of one fresh process that imports, builds, warms up."""
    start = perf_counter()
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", name,
         "--seed", str(seed), "--setup-only"],
        cwd=ROOT, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
        text=True, timeout=120)
    elapsed = perf_counter() - start
    if proc.returncode != 0:
        raise RuntimeError(f"set-up process failed: {proc.stderr}")
    return elapsed


def end_to_end(workload, args) -> tuple[dict, Loop, dict]:
    from reference import NOMINAL_MS, reference

    loop = Loop(workload)
    loop.op(-1)  # warm-up, not counted below
    reference()
    loop.attempted = loop.failed = 0
    # The cold set-ups are spread over the measuring window, one at the
    # start of each of SETUPS equal slices with ops filling the rest:
    # their median then samples the machine at several moments, and
    # the run's wall-clock stays --seconds whatever a set-up costs.
    start = perf_counter()
    setups: list[float] = []
    records: list[dict] = []
    for k in range(1, SETUPS + 1):
        setups.append(cold_setup(workload.name, args.seed))
        records += loop.run_until(
            start + k * args.seconds / SETUPS,
            workload.modeled_ops - len(records) if k == SETUPS else 0,
            first=len(records))
    op_ms = [r["op_ms"] for r in records]
    ref_ms = [r["ref_ms"] for r in records]
    # Like for like: the median set-up by the kernel's median, the best
    # op by its best (reference.py says why).
    metrics = {
        "setup_s": statistics.median(setups) * NOMINAL_MS
        / statistics.median(ref_ms),
        "host_ms_norm": min(op_ms) * NOMINAL_MS / min(ref_ms),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024,
        "ok_frac": (loop.attempted - loop.failed) / loop.attempted,
        **modeled_metrics(workload, records),
    }
    extra = {"setup_samples_s": setups, "op_ms": op_ms,
             "setup_s_median": statistics.median(setups),
             "host_ms_best": min(op_ms), "ref_ms_best": min(ref_ms),
             "ref_ms_p50": statistics.median(ref_ms),
             "op_ms_p50": statistics.median(op_ms)}
    return metrics, loop, extra


def declared_units(kind: str) -> dict[str, str]:
    """Name -> unit of the ``end_to_end`` or ``per_layer`` metrics that
    BENCHMARK.json declares; a run reports exactly these."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {metric["name"]: metric["unit"] for metric in spec[kind]}


def _ratio(hits: float, misses: float) -> float:
    return hits / (hits + misses) if hits + misses else 0.0


def per_layer(workload, args) -> tuple[dict, Loop, dict]:
    from tracing import Recorder

    loop = Loop(workload)
    loop.op(-1)  # warm-up, not counted below
    loop.attempted = loop.failed = 0
    recorder = Recorder()
    # Each unit runs untraced, then at once traced: the pair shares one
    # machine state, so the best-op ratio measures the tracing overhead
    # and not a drift of the machine between two halves of the run.
    plain: list[dict] = []
    traced: list[dict] = []
    deadline = perf_counter() + args.seconds
    index = 0
    while index < 3 or perf_counter() < deadline:
        plain.append(loop.op(index))
        traced.append(loop.op(index, recorder))
        if index == 0:
            chrome_spans = [list(s) for s in recorder.spans]
        index += 1
    expected = getattr(workload, "expected_counts", dict)()
    mismatches = [
        a["index"] for a, b in zip(plain, traced)
        if a["modeled_s"] != b["modeled_s"] or a["counts"] != b["counts"]
        or any(b["spans"].get(k) != v for k, v in expected.items())]

    n = len(traced)
    mean: dict[str, float] = {}
    for record in traced:
        for key, value in record["spans"].items():
            mean[key] = mean.get(key, 0.0) + value / n
        for key, value in record["counts"].items():
            if isinstance(value, (int, float)):
                mean[key] = mean.get(key, 0.0) + value / n
    plain_ms = [r["op_ms"] for r in plain]
    traced_ms = [r["op_ms"] for r in traced]
    values = {key: mean.get(key, 0.0) for key in declared_units("per_layer")}
    lanes = mean.get("field.montmul.lanes", 0.0)
    values["field.montmul.ns_per_lane"] = (
        mean.get("field.montmul.ms", 0.0) * 1e6 / lanes if lanes else 0.0)
    values["field.hot_unpacks"] = mean.get("pack.hot_unpacks", 0.0)
    values["serve.journal.appends"] = mean.get("serve.journal.calls", 0.0)
    values["serve.mean_batch_requests"] = (
        mean["serve.batched_requests"] / mean["serve.batches"]
        if mean.get("serve.batches") else 0.0)
    values["serve.plan_cache.hit_ratio"] = _ratio(
        mean.get("serve.plan_hits", 0.0), mean.get("serve.plan_misses", 0.0))
    values["serve.twiddle.hit_ratio"] = _ratio(
        mean.get("serve.twiddle_hits", 0.0),
        mean.get("serve.twiddle_misses", 0.0))
    values["serve.rejected"] = (mean.get("serve.rejected", 0.0)
                                + mean.get("serve.shed", 0.0))
    values["runtime.events"] = mean.get("runtime.events.calls", 0.0)
    values["op.ms_best"] = min(plain_ms)
    values["op.ms_p50"] = statistics.median(plain_ms)
    values["op.ms_p90"] = percentile(plain_ms, 0.90)
    values["trace.overhead"] = min(traced_ms) / min(plain_ms)
    extra = {"parity_mismatches": mismatches, "op_ms": plain_ms,
             "traced_op_ms": traced_ms, "chrome_spans": chrome_spans}
    return values, loop, extra


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"layerbench: no program to measure: {SRC / 'repro'} is "
              "missing (run from the root of a checkout)", file=sys.stderr)
        return 2
    # Bytecode caches go under results/ and are written even where the
    # environment turns writing off, so that every set-up process
    # imports from a warm cache, as an installed package would.
    sys.pycache_prefix = str(RESULTS / "pycache")
    sys.dont_write_bytecode = False
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"layerbench: unknown workload {args.workload!r} "
              f"(choose from {', '.join(WORKLOADS)})", file=sys.stderr)
        return 2
    workload = _build(args.workload, args.seed)
    if args.setup_only:
        workload.run(workload.unit_input(-1))  # the warm-up op
        return 0

    if args.trace:
        metrics, loop, extra = per_layer(workload, args)
        correct = loop.failed == 0 and not extra["parity_mismatches"]
    else:
        metrics, loop, extra = end_to_end(workload, args)
        correct = loop.failed == 0
    units = declared_units("per_layer" if args.trace else "end_to_end")
    result = {"correct": correct, "attempted": loop.attempted,
              "failed": loop.failed,
              "metrics": {name: {"value": metrics[name], "unit": unit}
                          for name, unit in units.items()}}

    RESULTS.mkdir(exist_ok=True)
    stem = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        from tracing import chrome_trace, write_chrome_trace

        chrome = RESULTS / f"{stem}.chrome.json"
        write_chrome_trace(str(chrome), chrome_trace(
            extra.pop("chrome_spans"),
            f"{workload.name} seed {args.seed}: first traced op"))
        extra["chrome_trace"] = chrome.name
    record = {"meta": _run_meta(workload, args), "result": result,
              "extra": extra,
              "ops": [{k: v for k, v in r.items() if k != "spans"}
                      for r in loop.records]}
    (RESULTS / f"{stem}.json").write_text(
        json.dumps(record, indent=1, default=str) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
