"""Distributed vectors, redistribution, and the engine interface.

:func:`redistribute` is the universal communication step: given the
layout the data is in and the layout the next compute phase needs, it
builds the personalized all-to-all that moves every element to its new
slot.  All of the baseline's transposes and UniNTT's single exchange are
instances of it, which keeps the engines short and makes the byte
accounting uniform.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Sequence

from repro.errors import PartitionError, SimulationError
from repro.field.prime_field import PrimeField
from repro.hw.cost import CostBreakdown, CostModel, Step
from repro.hw.model import MachineModel
from repro.multigpu.layout import (
    Layout, collect, distribute, relayout_plan,
)
from repro.sim.cluster import SimCluster
from repro.sim.trace import TraceEvent

__all__ = ["DistributedVector", "VectorCheckpoint", "redistribute",
           "DistributedNTTEngine"]


@dataclass(frozen=True)
class VectorCheckpoint:
    """Host-resident snapshot of a distributed vector's logical values.

    Layout-independent on purpose: the values are stored in logical
    index order, so a checkpoint taken on one cluster restores onto a
    *different* cluster shape (the graceful-degradation path after a
    device death re-shards from exactly such a snapshot).

    ``form`` and ``coset_shift`` carry the pipeline position of a
    :class:`repro.multigpu.polynomial.DistributedPolynomial` snapshot:
    a checkpoint taken mid-pipeline on a coset-shifted evaluation
    vector (packed or not) restores into the identical state instead
    of silently forgetting which domain its values live on.  Plain
    vector checkpoints leave both ``None``.
    """

    values: tuple[int, ...]
    form: str | None = None
    coset_shift: int | None = None

    @property
    def n(self) -> int:
        return len(self.values)


@dataclass
class DistributedVector:
    """A logical vector living in a cluster's shards under a layout."""

    cluster: SimCluster
    layout: Layout

    def __post_init__(self) -> None:
        if self.layout.gpu_count != self.cluster.gpu_count:
            raise PartitionError(
                f"layout is for {self.layout.gpu_count} GPUs, cluster has "
                f"{self.cluster.gpu_count}")

    @property
    def n(self) -> int:
        return self.layout.n

    @classmethod
    def from_values(cls, cluster: SimCluster, values: Sequence[int],
                    layout: Layout) -> "DistributedVector":
        """Stage a host vector into the cluster under ``layout``.

        ``values`` may be a plain int sequence or a packed backend
        array (uint64 lanes, or the multi-limb planes the big ZKP
        fields use); packed forms are unpacked at this boundary so
        shards — and the checkpoints taken from them — always hold
        plain ints regardless of the active compute backend.
        """
        from repro.field.vector import host_values

        cluster.load_shards(distribute(host_values(cluster.field, values),
                                       layout))
        return cls(cluster=cluster, layout=layout)

    def to_values(self) -> list[int]:
        """Reassemble the global vector (diagnostic; charges nothing)."""
        return collect(self.cluster.peek_shards(), self.layout)

    def relayout(self, target: Layout, detail: str = "") -> "DistributedVector":
        """Move to another layout with one counted all-to-all."""
        redistribute(self.cluster, self.layout, target, detail=detail)
        return DistributedVector(cluster=self.cluster, layout=target)

    def checkpoint(self) -> VectorCheckpoint:
        """Snapshot the logical vector to the host (traced, not charged).

        The snapshot is recorded as a ``checkpoint`` trace event on the
        ``resilience`` level; the resilient execution layer prices the
        host write as an overhead phase.
        """
        eb = self.cluster.element_bytes
        self.cluster.trace.record(TraceEvent(
            kind="checkpoint", level="resilience",
            max_bytes_per_gpu=self.layout.shard_size * eb,
            total_bytes=self.n * eb, detail=f"n={self.n}"))
        return VectorCheckpoint(values=tuple(self.to_values()))

    @classmethod
    def restore(cls, cluster: SimCluster, checkpoint: VectorCheckpoint,
                layout: Layout) -> "DistributedVector":
        """Re-stage a checkpoint under ``layout`` (host staging).

        The target cluster may have a different GPU count than the one
        the checkpoint was taken on — the snapshot is logical values,
        not shards.
        """
        if layout.n != checkpoint.n:
            raise PartitionError(
                f"checkpoint holds {checkpoint.n} values, layout "
                f"expects {layout.n}")
        return cls.from_values(cluster, list(checkpoint.values), layout)


def redistribute(cluster: SimCluster, source: Layout, target: Layout,
                 detail: str = "") -> None:
    """One all-to-all moving every element from ``source`` to ``target``.

    Both layouts must cover the same global index space.  The messages
    and their order come from the layout pair's
    :class:`~repro.multigpu.layout.RelayoutPlan`
    (ordered by destination local index), the same plan the symbolic
    schedule prices.
    """
    plan = relayout_plan(source, target)
    g = cluster.gpu_count
    if source.gpu_count != g:
        raise PartitionError(
            f"layouts are for {source.gpu_count} GPUs, cluster has {g}")
    inboxes = cluster.all_to_all(
        plan.outboxes([gpu.shard for gpu in cluster.gpus]),
        detail=detail or f"{type(source).__name__}->"
                         f"{type(target).__name__}")
    for dst in range(g):
        cluster.gpus[dst].load(plan.assemble(dst, inboxes[dst]))


class DistributedNTTEngine(ABC):
    """Interface shared by all multi-GPU NTT engines.

    An engine is bound to a cluster (the functional side) and exposes a
    closed-form phase profile (the analytic side).  ``tile`` is the
    fast-memory tile size for local transform passes — the number of
    elements a thread block can stage, which sets how many global-memory
    round trips a local transform needs.
    """

    #: Engine display name (overridden by subclasses).
    name: str = "abstract"

    def __init__(self, cluster: SimCluster, tile: int = 4096):
        if tile < 2 or tile & (tile - 1):
            raise SimulationError(
                f"tile must be a power of two >= 2, got {tile}")
        self.cluster = cluster
        self.tile = tile

    @property
    def field(self) -> PrimeField:
        return self.cluster.field

    @property
    def gpu_count(self) -> int:
        return self.cluster.gpu_count

    # -- functional interface ------------------------------------------------

    @abstractmethod
    def input_layout(self, n: int) -> Layout:
        """The layout this engine expects its input in."""

    @abstractmethod
    def output_layout(self, n: int) -> Layout:
        """The layout this engine leaves its forward output in."""

    @abstractmethod
    def forward(self, vec: DistributedVector) -> DistributedVector:
        """Forward NTT of a distributed vector (counted)."""

    @abstractmethod
    def inverse(self, vec: DistributedVector) -> DistributedVector:
        """Inverse NTT (counted); accepts the forward output layout."""

    # -- analytic interface ------------------------------------------------------

    @abstractmethod
    def forward_profile(self, n: int) -> list[Step]:
        """Closed-form per-GPU phase profile of :meth:`forward`."""

    def inverse_profile(self, n: int) -> list[Step]:
        """Profile of :meth:`inverse`; symmetric by default."""
        return self.forward_profile(n)

    def estimate(self, machine: MachineModel, n: int,
                 inverse: bool = False) -> CostBreakdown:
        """Price one transform of size n on ``machine``."""
        model = CostModel(machine, self.field)
        profile = self.inverse_profile(n) if inverse \
            else self.forward_profile(n)
        return model.estimate(profile)

    # -- shared helpers ------------------------------------------------------------

    def _check_input(self, vec: DistributedVector, expected: Layout) -> None:
        if type(vec.layout) is not type(expected) or vec.layout != expected:
            raise PartitionError(
                f"{self.name} expects {expected!r}, got {vec.layout!r}")

    def _live_buffers(self) -> dict[int, list[list[int]]]:
        """Per-GPU mutable shard buffers for the local-compute hook.

        Engines pass this to
        :meth:`repro.sim.cluster.SimCluster.local_compute_hook` right
        after charging a local kernel so an injected compute fault
        corrupts the data the kernel actually wrote.
        """
        return {gpu.gpu_id: [gpu.shard] for gpu in self.cluster.gpus}
