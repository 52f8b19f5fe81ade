"""The four benchmark workloads.

Each workload builds its subject once (the set-up), then runs ops on
inputs generated from ``(seed, unit index)``.  The program only ever
receives the generated inputs.  An op returns an :class:`Outcome`:

* ``outputs`` - what the checks read (checked outside the timed span);
* ``counts`` - the program's own counters for the op (simulator trace,
  pack counters, serve report), compared op by op between the traced
  and the untraced run;
* ``modeled_s`` - modeled seconds of each of the op's units, and for
  ``serve-fleet`` ``makespan_s``, the trace's virtual makespan.

A *unit* is what ``failed`` counts: the op itself, except for
``serve-fleet`` where every request of the trace is a unit.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field as dataclass_field

# The modeled metrics are computed over a fixed unit set: the first
# ``modeled_ops`` ops of every run (MODELED_OPS unless a workload sets
# its own), generated from FIXED_SEED rather than the run's seed, so
# modeled values repeat exactly from run to run (never "whatever fits
# in the run").  Later ops come from the seed.
MODELED_OPS = 6
FIXED_SEED = "fixed"

# Sizes are chosen so that one op takes about 40 ms on a 2-vCPU Xeon
# host, as long as the reference kernel (reference.py).  The gated host
# metric is built from the best op of a run: on a shared host a short
# op often runs whole in a quiet moment, while an op of half a second
# rarely does (see README.md, "Noise").


@dataclass
class Outcome:
    outputs: object
    counts: dict = dataclass_field(default_factory=dict)
    modeled_s: list = dataclass_field(default_factory=list)
    makespan_s: float = 0.0


def _rng(seed: int, name: str, index: int,
         modeled_ops: int = MODELED_OPS) -> random.Random:
    if index < modeled_ops:
        seed = FIXED_SEED
    return random.Random(f"layerbench:{name}:{seed}:{index}")


class QapBn254:
    """Prover layer: the seven-transform QAP pipeline over BN254-Fr."""

    name = "qap-bn254"
    backend = "multilimb"
    log_n = 11
    modeled_ops = MODELED_OPS

    def __init__(self, seed: int) -> None:
        from repro.field.presets import BN254_FR
        from repro.hw import DGX_A100
        from repro.multigpu.unintt import UniNTTEngine
        from repro.sim.cluster import SimCluster
        from repro.zkp.circuits import square_chain
        from repro.zkp.pipeline import EndToEndModel
        from repro.zkp.qap import QAP

        self.seed = seed
        self.field = BN254_FR
        # steps squarings plus the output binding: 2^log_n constraints.
        self.steps = (1 << self.log_n) - 1
        r1cs, _ = square_chain(BN254_FR, self.steps)
        self.qap = QAP(r1cs)
        self.constraints = len(r1cs.constraints)
        model = EndToEndModel(
            DGX_A100, UniNTTEngine(SimCluster(BN254_FR, DGX_A100.gpu_count)))
        n = self.qap.domain.size
        # The op's modeled time: the seven transforms plus the witness
        # rows, priced on DGX-A100 (the MSMs are not part of the op).
        self.op_modeled_s = (model.ntt_seconds(n)
                             + model.witness_seconds(self.constraints))

    def unit_input(self, index: int):
        p = self.field.modulus
        x = _rng(self.seed, self.name, index,
                 self.modeled_ops).randrange(1, p)
        witness = [1, 0, x]
        value = x
        for _ in range(self.steps):
            value = value * value % p
            witness.append(value)
        witness[1] = value
        return witness

    def run(self, witness) -> Outcome:
        return Outcome(outputs=self.qap.witness_polynomials(witness),
                       modeled_s=[self.op_modeled_s])

    def expected_counts(self) -> dict:
        # Both passes (satisfaction check, then rows) evaluate the
        # three linear combinations of every constraint once.
        return {"zkp.lc_evals": 2 * 3 * self.constraints}

    def check(self, index: int, witness, outcome: Outcome) -> list[bool]:
        polys = outcome.outputs
        p = self.field.modulus
        tau = _rng(self.seed, self.name + ":check", index,
                   self.modeled_ops).randrange(2, p)
        a, b, c, h = (poly.evaluate(tau) for poly in polys.all())
        z = (pow(tau, self.qap.domain.size, p) - 1) % p
        ok = ((a * b - c - h * z) % p == 0
              and outcome.counts["pack.hot_unpacks"] == 0)
        return [ok]

    def corrupt(self, outcome: Outcome) -> None:
        from repro.zkp.polynomial import Polynomial
        from repro.zkp.qap import QapWitnessPolynomials

        polys = outcome.outputs
        coeffs = list(polys.h.coeffs)
        coeffs[0] = (coeffs[0] + 1) % self.field.modulus
        outcome.outputs = QapWitnessPolynomials(
            a=polys.a, b=polys.b, c=polys.c,
            h=Polynomial(self.field, coeffs))


class UniNttGl8Gpu:
    """Engine layer: UniNTT round trip on a simulated 8-GPU cluster."""

    name = "unintt-gl-8gpu"
    backend = "numpy"
    log_n = 12
    gpus = 8
    modeled_ops = MODELED_OPS

    def __init__(self, seed: int) -> None:
        from repro.field.presets import GOLDILOCKS
        from repro.hw import DGX_A100
        from repro.multigpu.unintt import UniNTTEngine
        from repro.sim.cluster import SimCluster

        self.seed = seed
        self.field = GOLDILOCKS
        self.n = 1 << self.log_n
        self.cluster = SimCluster(GOLDILOCKS, self.gpus)
        self.engine = UniNTTEngine(self.cluster)
        self.op_modeled_s = (
            self.engine.estimate(DGX_A100, self.n).total_s
            + self.engine.estimate(DGX_A100, self.n, inverse=True).total_s)

    def unit_input(self, index: int):
        self.cluster.trace.clear()
        return self.field.random_vector(
            self.n, _rng(self.seed, self.name, index, self.modeled_ops))

    def run(self, values) -> Outcome:
        from repro.multigpu.base import DistributedVector

        engine = self.engine
        vec = DistributedVector.from_values(
            self.cluster, values, engine.input_layout(self.n))
        spectrum = engine.forward(vec)
        spectral_shards = [list(s) for s in self.cluster.peek_shards()]
        back = engine.inverse(spectrum)
        back_shards = [list(s) for s in self.cluster.peek_shards()]
        summary = self.cluster.trace.summary()
        counts = {"sim.collectives": summary["collectives"],
                  "sim.events": summary["events"],
                  "sim.field_muls": summary["field_muls"]}
        for level, nbytes in summary["bytes_by_level"].items():
            counts[f"sim.bytes.{level}"] = nbytes
        return Outcome(
            outputs=(spectral_shards, spectrum.layout, back_shards,
                     back.layout),
            counts=counts, modeled_s=[self.op_modeled_s])

    def check(self, index: int, values, outcome: Outcome) -> list[bool]:
        from repro.multigpu.layout import collect
        from repro.ntt import radix2

        shards, layout, back_shards, back_layout = outcome.outputs
        return [collect(shards, layout) == radix2.ntt(self.field, values)
                and collect(back_shards, back_layout) == values]

    def corrupt(self, outcome: Outcome) -> None:
        shards = outcome.outputs[0]
        shards[3][5] = (shards[3][5] + 1) % self.field.modulus


class PlanSweep:
    """Planner layer: verified schedule synthesis over six cells."""

    name = "plan-sweep"
    backend = "multilimb"
    log_sizes = (10, 12, 14)
    modeled_ops = MODELED_OPS

    def __init__(self, seed: int) -> None:
        from repro.field.presets import BLS12_381_FR
        from repro.hw import DGX_A100, FOUR_NODE_DGX_A100
        from repro.multigpu.unintt import UniNTTEngine
        from repro.sim.cluster import SimCluster

        self.seed = seed
        self.field = BLS12_381_FR
        self.machines = (DGX_A100, FOUR_NODE_DGX_A100)
        g = DGX_A100.gpu_count
        self.check_cluster = SimCluster(BLS12_381_FR, g)
        self.check_engine = UniNTTEngine(SimCluster(BLS12_381_FR, g))

    def unit_input(self, index: int):
        # The planner's inputs are the fixed grid; the seed picks the
        # data the smallest cell's winner is executed on by the check.
        return self.field.random_vector(
            1 << self.log_sizes[0],
            _rng(self.seed, self.name, index, self.modeled_ops))

    def run(self, values) -> Outcome:
        from repro.multigpu.autotune import select_schedule

        cells = [(machine, log_n,
                  select_schedule(machine, self.field, 1 << log_n))
                 for machine in self.machines for log_n in self.log_sizes]
        winners = [ranking[0] for _, _, ranking in cells]
        counts = {"analysis.candidates": sum(len(r) for _, _, r in cells),
                  "winners": [w.name for w in winners]}
        return Outcome(outputs=cells, counts=counts,
                       modeled_s=[sum(w.seconds for w in winners)])

    def check(self, index: int, values, outcome: Outcome) -> list[bool]:
        from repro.analysis.interp import interpret_schedule
        from repro.analysis.plancheck import verify_schedule
        from repro.multigpu.base import DistributedVector

        cells = outcome.outputs
        for _, _, ranking in cells:
            seconds = [c.seconds for c in ranking]
            if seconds != sorted(seconds):
                return [False]
            if verify_schedule(ranking[0].schedule):
                return [False]
        smallest = cells[0][2][0].schedule
        self.check_cluster.trace.clear()
        got = interpret_schedule(smallest, self.check_cluster, values)
        engine = self.check_engine
        engine.cluster.trace.clear()
        vec = DistributedVector.from_values(
            engine.cluster, values, engine.input_layout(len(values)))
        want = engine.forward(vec).to_values()
        return [got == want]

    def corrupt(self, outcome: Outcome) -> None:
        from dataclasses import replace

        from repro.analysis.plancheck import seed_bug

        machine, log_n, ranking = outcome.outputs[0]
        winner = replace(ranking[0], schedule=seed_bug(
            ranking[0].schedule, "drop-transfer"))
        outcome.outputs[0] = (machine, log_n, [winner] + ranking[1:])


class ServeFleet:
    """Serving layer: a two-replica journaled fleet serves one trace."""

    name = "serve-fleet"
    backend = "multilimb"
    log_sizes = tuple(range(4, 8))
    fields = ("Goldilocks", "BN254-Fr")
    directions = ("forward", "inverse")
    #: Copies of every (field, size, direction) shape in one trace: the
    #: composition is fixed, so every trace carries the same transform
    #: work and the seed only moves order, arrivals, tenants and data.
    copies = 2
    requests = copies * len(log_sizes) * len(fields) * len(directions)
    #: 32 traces of 32 requests: 1024 requests, 10 of them beyond p99.
    modeled_ops = 32
    tenants = (("gold", 3.0), ("silver", 2.0), ("bronze", 1.0))
    #: Offered load in requests per virtual second, fixed from the
    #: rate sweep (rate_sweep.py, rate_sweep.txt): the highest swept
    #: rate within its latency and backlog limits, just below the knee.
    offered_rps = 4000.0
    burst_size = 6
    burst_every = 5

    def __init__(self, seed: int) -> None:
        from repro.hw import DGX_A100
        from repro.serve.fleet import FleetPolicy

        self.seed = seed
        self.machine = DGX_A100
        self.policy = FleetPolicy(replicas=2, tenant_weights=self.tenants)

    def trace(self, index: int, offered_rps: float | None = None):
        """One bursty open-loop trace of ProofRequests (virtual clock)."""
        from repro.serve.request import ProofRequest

        rate = offered_rps or self.offered_rps
        rng = _rng(self.seed, self.name, index, self.modeled_ops)
        shapes = [(field, log_size, direction)
                  for _ in range(self.copies) for field in self.fields
                  for log_size in self.log_sizes
                  for direction in self.directions]
        # Every third shape carries two lanes.
        shapes = [(*shape, 2 if k % 3 == 2 else 1)
                  for k, shape in enumerate(shapes)]
        rng.shuffle(shapes)
        # Bursts ride one timestamp; gaps are stretched so the mean
        # offered rate stays ``rate``.
        mean_gap = (self.burst_size + self.burst_every) \
            / (self.burst_every * rate)
        names = [t for t, _ in self.tenants]
        weights = [w for _, w in self.tenants]
        out, arrival, burst_left, paced = [], 0.0, 0, 0
        for rid, (field, log_size, direction, batch) in enumerate(shapes):
            if burst_left:
                burst_left -= 1
            elif rid:
                arrival += rng.expovariate(1.0 / mean_gap)
                paced += 1
                if paced % self.burst_every == 0:
                    burst_left = self.burst_size
            out.append(ProofRequest(
                request_id=rid, field_name=field, log_size=log_size,
                direction=direction, batch=batch,
                priority=rng.randrange(3), arrival_s=arrival,
                data_seed=rng.randrange(1 << 30),
                tenant_id=rng.choices(names, weights=weights)[0],
                packed=True))
        return out

    def unit_input(self, index: int):
        return self.trace(index)

    def run(self, trace) -> Outcome:
        from repro.serve.fleet import FleetServer

        server = FleetServer(self.machine, policy=self.policy)
        report = server.serve(trace)
        reps = report.replica_reports
        batches = sum(r.batches for r in reps)
        counts = {
            "serve.completed": report.completed,
            "serve.rejected": report.rejected,
            "serve.shed": report.shed,
            "serve.retries": sum(r.retries for r in reps),
            "serve.steals": report.steals,
            "serve.batches": batches,
            "serve.batched_requests": sum(
                d.requests for r in reps for d in r.dispatches),
            "serve.plan_hits": sum(r.plan_hits for r in reps),
            "serve.plan_misses": sum(r.plan_misses for r in reps),
            "serve.twiddle_hits": sum(r.twiddle_hits for r in reps),
            "serve.twiddle_misses": sum(r.twiddle_misses for r in reps),
            "serve.journal_records": sum(r.journal_records for r in reps),
        }
        summary = server.trace.summary()
        counts.update({"sim.collectives": summary["collectives"],
                       "sim.events": summary["events"],
                       "sim.field_muls": summary["field_muls"]})
        for level, nbytes in summary["bytes_by_level"].items():
            counts[f"sim.bytes.{level}"] = nbytes
        return Outcome(
            outputs=report, counts=counts,
            modeled_s=[r.latency_s for r in report.results],
            makespan_s=report.makespan_s)

    def check(self, index: int, trace, outcome: Outcome) -> list[bool]:
        from repro.ntt import radix2

        by_id: dict[int, list] = {}
        for result in outcome.outputs.results:
            by_id.setdefault(result.request.request_id, []).append(result)
        verdicts = []
        for request in trace:
            got = by_id.get(request.request_id, [])
            if len(got) != 1:
                verdicts.append(False)
                continue
            transform = (radix2.intt if request.direction == "inverse"
                         else radix2.ntt)
            want = tuple(tuple(transform(request.field, lane))
                         for lane in request.vectors())
            verdicts.append(tuple(map(tuple, got[0].outputs)) == want)
        return verdicts

    def corrupt(self, outcome: Outcome) -> None:
        from dataclasses import replace

        results = outcome.outputs.results
        victim = results[len(results) // 2]
        lanes = [list(lane) for lane in victim.outputs]
        lanes[0][0] = (lanes[0][0] + 1) % victim.request.field.modulus
        results[len(results) // 2] = replace(
            victim, outputs=tuple(tuple(lane) for lane in lanes))


WORKLOADS = {w.name: w for w in (QapBn254, UniNttGl8Gpu, PlanSweep,
                                 ServeFleet)}
