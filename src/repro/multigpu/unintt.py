"""UniNTT: the paper's multi-GPU NTT engine.

The recursive decomposition instantiated at the multi-GPU level, with
the uniform optimizations of :mod:`repro.multigpu.schedule`:

* **cyclic input layout** — GPU ``s`` holds ``x[s::G]``, so the size-M
  local sub-transforms (step 1) touch no remote data at all;
* **fused twiddle** (step 2) — the inter-factor scaling rides the last
  butterfly stage instead of a standalone sweep;
* **one all-to-all** (step 3) — each GPU receives the G-vectors for its
  chunk of spectrum residues; with ``overlap`` on, the exchange is
  chunked and pipelined with the cross transforms that consume it;
* **cross transforms stay local** (step 4) — after the exchange each
  GPU runs M/G independent G-point NTTs; the output is left in
  :class:`~repro.multigpu.layout.SpectralLayout` (``keep_permuted_output``),
  which deletes the final transpose entirely.  The inverse transform
  consumes that layout directly and returns the cyclic layout, so an
  NTT -> pointwise -> INTT round trip pays exactly **two** all-to-alls
  where the baseline pays six.

The phase sequence is written once, as the
:class:`~repro.multigpu.schedule.CommSchedule` that
:func:`~repro.multigpu.schedule.build_unintt_schedule` returns.  The
engine builds it once per (size, direction, coset-or-not), shared by
every engine of the same configuration, and runs it through
:func:`execute_schedule`; its cost profile is the same schedule priced
by :func:`~repro.hw.plancost.schedule_steps`.  This module adds only
the arithmetic of each op (:func:`unintt_kernels`).  The packed
polynomial path and the schedule interpreter run the same executor.

The local transforms follow a hierarchical plan
(:func:`repro.ntt.plan.hierarchical_plan` restricted to the intra-GPU
levels), which is what "the same NTT computation at different scales"
means operationally: the schedule's phases *are* the plan's split node,
and the local kernel recursion repeats it per level.
"""

from __future__ import annotations

import functools
from typing import Callable, Mapping, Optional

from repro.errors import PartitionError, SchedulePassError
from repro.field.prime_field import PrimeField
from repro.field.vector import vec_mul, vec_scale
from repro.hw.cost import Step
from repro.hw.plancost import schedule_steps
from repro.multigpu.base import (
    DistributedNTTEngine, DistributedVector, redistribute,
)
from repro.multigpu.layout import (
    BlockLayout, CyclicLayout, Layout, SpectralLayout, relayout_plan,
)
from repro.multigpu.schedule import (
    ALL_ON, CommSchedule, ExchangeOp, LocalOp, UniNTTOptions,
    build_unintt_schedule,
)
from repro.ntt import radix2
from repro.ntt.twiddle import default_cache
from repro.sim.cluster import SimCluster

__all__ = ["UniNTTEngine", "execute_schedule", "unintt_kernels"]

#: ``kernel(gpu_id, shard) -> shard``: one op's arithmetic on one GPU.
Kernel = Callable[[int, list], list]


def unintt_kernels(field: PrimeField, n: int, gpu_count: int,
                   inverse: bool = False,
                   coset_shift: Optional[int] = None,
                   ) -> dict[str, Optional[Kernel]]:
    """The arithmetic of every UniNTT op of one direction, by op name.

    The standalone ``-local-twiddle`` sweeps map to ``None``: the local
    kernel applies the twiddle itself, so the values are the same with
    or without fusion and the sweep only prices the memory pass that
    ``fused_twiddle`` deletes.  The coset scaling ``x[j] *= c^j``
    decomposes along the cyclic layout as ``c^(q*G) * c^s`` — a local
    geometric series times a per-GPU constant — with ``c`` the shift
    (forward) or its inverse (inverse).
    """
    p = field.modulus
    g = gpu_count
    m = n // g
    root = field.root_of_unity(n)
    if inverse:
        root = field.inv(root)
    root_m = pow(root, g, p)
    root_g = pow(root, m, p)

    def twiddle(s: int, shard: list) -> list:
        if not s:
            return shard
        return vec_mul(field, shard,
                       default_cache.powers(field, pow(root, s, p), m))

    def local(s: int, shard: list) -> list:
        return twiddle(s, radix2.ntt(field, shard, default_cache,
                                     root=root_m))

    def cross(s: int, shard: list) -> list:
        # M/G independent G-point transforms, in place over each
        # contiguous G-group.
        for base in range(0, m, g):
            shard[base:base + g] = radix2.ntt(
                field, shard[base:base + g], default_cache, root=root_g)
        return shard

    if inverse:
        g_inv = field.inv(g % p)
        m_inv = field.inv(m % p)
        kernels: dict[str, Optional[Kernel]] = {
            "unintt-inv-cross": lambda s, shard: vec_scale(
                field, cross(s, shard), g_inv),
            "unintt-inv-local": lambda s, shard: vec_scale(
                field, radix2.ntt(field, twiddle(s, shard), default_cache,
                                  root=root_m), m_inv),
            "unintt-inv-local-twiddle": None,
        }
    else:
        kernels = {"unintt-local": local, "unintt-local-twiddle": None,
                   "unintt-cross": cross}
    if coset_shift is not None:
        if coset_shift % p == 0:
            raise PartitionError("coset shift must be non-zero")
        c = field.inv(coset_shift) if inverse else coset_shift
        factors = default_cache.powers(field, pow(c, g, p), m)
        kernels["unintt-coset"] = lambda s, shard: vec_scale(
            field, vec_mul(field, shard, factors), pow(c, s, p))
    return kernels


def execute_schedule(schedule: CommSchedule, cluster: SimCluster,
                     kernels: Optional[Mapping[str, Optional[Kernel]]]
                     = None,
                     exchange: Optional[Callable[[ExchangeOp], None]]
                     = None) -> None:
    """Run a UniNTT phase program on ``cluster``, op by op.

    With ``kernels`` (list shards) each :class:`LocalOp` applies its
    kernels (a merged ``a+b`` op applies both, in order) to every GPU's
    shard and then charges through
    :meth:`~repro.sim.cluster.SimCluster.charge_local` with the live
    shards, so the fault-injector and ABFT hooks see exactly what the op
    wrote; exchanges move the shards with ``exchange`` (default:
    :func:`~repro.multigpu.base.redistribute` between the op's layouts).
    Without ``kernels`` (packed shards, whose data the devices never
    hold) it only charges: local ops with ``buffers=None`` and exchanges
    by the relayout plan's counts.  A schedule it cannot run is refused
    before anything is charged.
    """
    for op in schedule.ops:
        if isinstance(op, LocalOp):
            missing = [] if kernels is None else [
                part for part in op.name.split("+") if part not in kernels]
            if missing:
                raise SchedulePassError(
                    f"{schedule.name!r}: no kernel for local op(s) "
                    f"{missing!r}")
        elif not isinstance(op, ExchangeOp) or op.source is None:
            raise SchedulePassError(
                f"{schedule.name!r}: cannot execute "
                f"{type(op).__name__} {op.name!r} (no relayout)")
    for op in schedule.ops:
        if isinstance(op, ExchangeOp):
            if kernels is None:
                cluster.charge_all_to_all(
                    relayout_plan(op.source, op.target).counts,
                    detail=op.name)
            elif exchange is not None:
                exchange(op)
            else:
                redistribute(cluster, op.source, op.target, detail=op.name)
            continue
        buffers = None
        if kernels is not None:
            for part in op.name.split("+"):
                kernel = kernels[part]
                if kernel is not None:
                    for gpu in cluster.gpus:
                        gpu.shard = kernel(gpu.gpu_id, gpu.shard)
            buffers = {gpu.gpu_id: [gpu.shard] for gpu in cluster.gpus}
        cluster.charge_local(op.field_muls_per_gpu, op.mem_bytes_per_gpu,
                             detail=op.name, buffers=buffers)


@functools.lru_cache(maxsize=128)
def _cached_program(n: int, gpu_count: int, element_bytes: int,
             options: UniNTTOptions, tile: int, inverse: bool,
             coset: bool) -> tuple[CommSchedule, tuple[Step, ...]]:
    """One transform's phase program and its priced steps (immutable,
    so engines of the same shape share them)."""
    schedule = build_unintt_schedule(
        n, gpu_count, element_bytes, options, tile, inverse=inverse,
        coset=coset, pipelined=options.overlap)
    return schedule, tuple(schedule_steps(schedule))


class UniNTTEngine(DistributedNTTEngine):
    """Hierarchical one-exchange multi-GPU NTT."""

    name = "unintt"

    def __init__(self, cluster: SimCluster, tile: int = 4096,
                 options: UniNTTOptions = ALL_ON):
        super().__init__(cluster, tile)
        self.options = options
        self.name = f"unintt[{options.label()}]"

    # -- layouts -----------------------------------------------------------

    def input_layout(self, n: int) -> Layout:
        return CyclicLayout(n=n, gpu_count=self.gpu_count)

    def output_layout(self, n: int) -> Layout:
        if self.options.keep_permuted_output:
            return SpectralLayout(n=n, gpu_count=self.gpu_count)
        return BlockLayout(n=n, gpu_count=self.gpu_count)

    def _check_size(self, n: int) -> None:
        g = self.gpu_count
        if n < g * g:
            raise PartitionError(
                f"UniNTT needs n >= G^2 ({n} < {g}^2)")

    # -- the phase program ----------------------------------------------------

    def schedule(self, n: int, inverse: bool = False,
                 coset: bool = False) -> CommSchedule:
        """The phase program of one transform (built once per shape)."""
        return self._program(n, inverse, coset)[0]

    def _program(self, n: int, inverse: bool,
                 coset: bool) -> tuple[CommSchedule, tuple[Step, ...]]:
        self._check_size(n)
        return _cached_program(n, self.gpu_count,
                               self.cluster.element_bytes, self.options,
                               self.tile, inverse, coset)

    def forward(self, vec: DistributedVector,
                coset_shift: int | None = None) -> DistributedVector:
        """Forward transform; ``coset_shift`` evaluates on ``shift * H``
        (the scaling is fused into the local twiddle pass)."""
        return self._run(vec, False, coset_shift)

    def inverse(self, vec: DistributedVector,
                coset_shift: int | None = None) -> DistributedVector:
        """Inverse transform; ``coset_shift`` interprets the spectrum as
        evaluations on ``shift * H`` (undoing :meth:`forward`'s fused
        scaling after the transform)."""
        return self._run(vec, True, coset_shift)

    def _run(self, vec: DistributedVector, inverse: bool,
             coset_shift: int | None) -> DistributedVector:
        n = vec.n
        schedule = self.schedule(n, inverse, coset_shift is not None)
        self._check_input(vec, self.output_layout(n) if inverse
                          else self.input_layout(n))
        execute_schedule(schedule, self.cluster, unintt_kernels(
            self.field, n, self.gpu_count, inverse, coset_shift))
        return DistributedVector(
            cluster=self.cluster,
            layout=self.input_layout(n) if inverse
            else self.output_layout(n))

    # -- analytic ----------------------------------------------------------------

    def forward_profile(self, n: int) -> list[Step]:
        return list(self._program(n, False, False)[1])

    def inverse_profile(self, n: int) -> list[Step]:
        return list(self._program(n, True, False)[1])
