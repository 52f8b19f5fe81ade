"""Schedule interpreter: execute a verified ``CommSchedule`` on the simulator.

The final piece of the verification story.  Passes and synthesis prove
a schedule's *accounting* (gate in :mod:`repro.analysis.passes`); this
module proves its *semantics* by actually running the op list on a
:class:`~repro.sim.cluster.SimCluster` — real field values flow through
every declared transfer — and letting tests check the result bit-exact
against the engine, and the recorded trace's ``bytes_by_level()``
bit-for-bit against the schedule's.

It runs the **unintt family** of forward schedules
(:func:`~repro.multigpu.schedule.build_unintt_schedule` and everything
the pass framework / :mod:`repro.analysis.synth` derive from it) with
the engine's own executor,
:func:`~repro.multigpu.unintt.execute_schedule`: local ops apply the
:func:`~repro.multigpu.unintt.unintt_kernels` of their names (merged
``a+b`` names apply each part in order), and flat exchanges move the
data between the layouts the op carries.  The one thing added here is
the hierarchical ``*-stage`` / ``*-rail`` pair, executed as two chained
``all_to_all`` collectives with the data genuinely forwarded through
the per-node scratch GPUs (:func:`~repro.analysis.synth.route_via`).

Anything else — or a schedule that fails :func:`verify_schedule` —
raises :class:`~repro.errors.SchedulePassError` before it is run.
"""

from __future__ import annotations

from repro.analysis.plancheck import verify_schedule
from repro.analysis.synth import route_via
from repro.errors import SchedulePassError
from repro.multigpu.base import redistribute
from repro.multigpu.layout import (
    CyclicLayout, Layout, SpectralLayout, collect, distribute,
    relayout_plan,
)
from repro.multigpu.schedule import CommSchedule, ExchangeOp
from repro.multigpu.unintt import execute_schedule, unintt_kernels
from repro.sim.cluster import SimCluster

__all__ = ["interpret_schedule"]


def _staged_redistribute(cluster: SimCluster, source: Layout,
                         target: Layout, base_detail: str) -> None:
    """Two-step relayout through per-node scratch GPUs.

    Mirrors :func:`~repro.analysis.synth.split_exchange` exactly: the
    stage collective keeps every message inside its node (direct
    deliveries plus rail forwarding), the rail collective carries only
    inter-node bundles.  Values genuinely transit the scratch GPU.
    """
    ns = cluster.node_size
    if ns is None:
        raise SchedulePassError(
            f"{base_detail}: hierarchical schedule needs a cluster with "
            f"node_size set")
    g = cluster.gpu_count

    # Per-(src, dst) messages from the plan redistribute() reads, so
    # reassembly below is deterministic.
    plan = relayout_plan(source, target)
    msgs = plan.outboxes([gpu.shard for gpu in cluster.gpus])

    # Stage: deliver same-node data directly, forward cross-node data
    # to the scratch GPU on the destination's rail.  Final-dst-major
    # packing, so receivers can split buffers back into sections.
    out1: list[list[list[int]]] = [[[] for _ in range(g)]
                                   for _ in range(g)]
    for src in range(g):
        for dst in range(g):
            out1[src][route_via(src, dst, ns)].extend(msgs[src][dst])
    in1 = cluster.all_to_all(out1, detail=f"{base_detail}-stage")

    held: dict[tuple[int, int, int], list[int]] = {}
    for holder in range(g):
        for src in range(g):
            buf = in1[holder][src]
            pos = 0
            for dst in range(g):
                if route_via(src, dst, ns) != holder:
                    continue
                count = len(msgs[src][dst])
                if count:
                    held[(holder, dst, src)] = buf[pos:pos + count]
                    pos += count

    # Rail: one aggregated inter-node message per (scratch, dst) pair,
    # origin-major sections.
    out2: list[list[list[int]]] = [[[] for _ in range(g)]
                                   for _ in range(g)]
    for holder in range(g):
        for dst in range(g):
            if dst == holder:
                continue
            for src in range(g):
                chunk = held.get((holder, dst, src))
                if chunk and route_via(src, dst, ns) == holder:
                    out2[holder][dst].extend(chunk)
    in2 = cluster.all_to_all(out2, detail=f"{base_detail}-rail")

    # Reassemble each destination shard from per-origin messages.
    for dst in range(g):
        messages: list[list[int]] = [[] for _ in range(g)]
        cursors: dict[int, int] = {}
        for src in range(g):
            holder = route_via(src, dst, ns)
            if holder == dst:
                messages[src] = list(held.get((dst, dst, src), ()))
            else:
                buf = in2[dst][holder]
                pos = cursors.get(holder, 0)
                count = len(msgs[src][dst])
                messages[src] = buf[pos:pos + count]
                cursors[holder] = pos + count
        cluster.gpus[dst].load(plan.assemble(dst, messages))


def interpret_schedule(schedule: CommSchedule, cluster: SimCluster,
                       values: list[int]) -> list[int]:
    """Run a verified unintt-family schedule on real data.

    Loads ``values`` in the engine's cyclic input layout, executes
    every op (kernels compute, collectives move the declared bytes,
    charges hit the trace), and returns the transform output in natural
    order — bit-exact with
    :meth:`repro.multigpu.unintt.UniNTTEngine.forward` on the same
    input.
    """
    findings = verify_schedule(schedule)
    if findings:
        raise SchedulePassError(
            f"refusing to interpret {schedule.name!r}: "
            f"{findings[0].format()}")
    g = schedule.num_gpus
    if cluster.gpu_count != g:
        raise SchedulePassError(
            f"schedule is for {g} GPUs, cluster has {cluster.gpu_count}")
    if cluster.element_bytes != schedule.element_bytes:
        raise SchedulePassError(
            f"element size mismatch: schedule {schedule.element_bytes}B, "
            f"cluster field {cluster.element_bytes}B")
    n = len(values)
    if n < g * g or n % g:
        raise SchedulePassError(
            f"unintt schedules need n >= G^2 with G | n ({n}, G={g})")
    ops = schedule.ops
    for i, op in enumerate(ops):
        if isinstance(op, ExchangeOp) and op.name.endswith("-stage"):
            rail = f"{op.name[:-len('-stage')]}-rail"
            nxt = ops[i + 1] if i + 1 < len(ops) else None
            if not isinstance(nxt, ExchangeOp) or nxt.name != rail:
                raise SchedulePassError(
                    f"{op.name!r} is not followed by its {rail} op")

    def exchange(op: ExchangeOp) -> None:
        if op.name.endswith("-stage"):
            _staged_redistribute(cluster, op.source, op.target,
                                 op.name[:-len("-stage")])
        elif not op.name.endswith("-rail"):  # rails move with the stage
            redistribute(cluster, op.source, op.target, detail=op.name)

    cluster.load_shards(distribute(values, CyclicLayout(n=n, gpu_count=g)))
    execute_schedule(schedule, cluster, unintt_kernels(cluster.field, n, g),
                     exchange=exchange)
    # The cross transforms leave the spectrum in the spectral layout; a
    # trailing exchange (materialize) moves it on to its target.
    last = ops[-1]
    out_layout: Layout = (last.target if isinstance(last, ExchangeOp)
                          else SpectralLayout(n=n, gpu_count=g))
    return collect(cluster.peek_shards(), out_layout)
