"""Distributed data layouts.

A layout is a bijection between global vector indices and (gpu, local)
slots.  Layout choice is *the* lever of multi-GPU NTT design:

* :class:`BlockLayout` — natural contiguous blocks; what producers hand
  you and what the conventional baseline works in.
* :class:`CyclicLayout` — index ``j`` lives on GPU ``j mod G``; the
  UniNTT input layout, under which the local sub-transforms need no
  communication at all.
* :class:`SpectralLayout` — the permuted order UniNTT's forward
  transform leaves its output in.  Keeping the output here (instead of
  materializing natural order) deletes one whole all-to-all; pointwise
  spectral operations are layout-agnostic, so ZKP pipelines never pay
  for the permutation.  This is the distributed face of the paper's
  "overhead-free decomposition".

Each layout writes its index arithmetic once, as unchecked formulas
(``_slot_of`` / ``_index_of``) that accept an ``int`` or a numpy index
array; :meth:`Layout.owner` and :meth:`Layout.global_index` are bounds
checks around them.  :class:`RelayoutPlan` evaluates the formulas over
whole shards at a time and is the one description of a relayout every
consumer reads: the simulator's :func:`~repro.multigpu.base.redistribute`,
the symbolic schedule's transfers, the schedule interpreter, and the
packed polynomial path.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Sequence

from repro.errors import PartitionError

__all__ = ["Layout", "BlockLayout", "CyclicLayout", "SpectralLayout",
           "ColumnBlockLayout", "TransposedBlockLayout",
           "UniNTTExchangeLayout", "RelayoutPlan", "relayout_plan",
           "layout_slots", "distribute", "collect"]


@dataclass(frozen=True)
class Layout:
    """Base class: a size-n vector split over ``gpu_count`` equal shards."""

    n: int
    gpu_count: int

    def __post_init__(self) -> None:
        if self.n < 1 or self.n & (self.n - 1):
            raise PartitionError(f"layout size must be a power of two, "
                                 f"got {self.n}")
        if self.gpu_count < 1 or self.gpu_count & (self.gpu_count - 1):
            raise PartitionError(f"gpu_count must be a power of two, "
                                 f"got {self.gpu_count}")
        if self.n < self.gpu_count:
            raise PartitionError(
                f"cannot split {self.n} elements over {self.gpu_count} GPUs")

    @property
    def shard_size(self) -> int:
        return self.n // self.gpu_count

    def owner(self, global_index: int) -> tuple[int, int]:
        """Map a global index to its (gpu, local index) slot."""
        self._check_global(global_index)
        return self._slot_of(global_index)

    def global_index(self, gpu: int, local: int) -> int:
        """Inverse of :meth:`owner`."""
        self._check_slot(gpu, local)
        return self._index_of(gpu, local)

    def _slot_of(self, j):
        """Unchecked :meth:`owner`; ``j`` is an int or an index array."""
        raise NotImplementedError

    def _index_of(self, gpu: int, local):
        """Unchecked :meth:`global_index`; ``local`` may be an array."""
        raise NotImplementedError

    def _check_global(self, global_index: int) -> None:
        if not 0 <= global_index < self.n:
            raise PartitionError(
                f"global index {global_index} out of range [0, {self.n})")

    def _check_slot(self, gpu: int, local: int) -> None:
        if not 0 <= gpu < self.gpu_count:
            raise PartitionError(f"gpu {gpu} out of range")
        if not 0 <= local < self.shard_size:
            raise PartitionError(f"local index {local} out of range")


class BlockLayout(Layout):
    """GPU g holds the contiguous block [g*m, (g+1)*m)."""

    def _slot_of(self, j):
        m = self.shard_size
        return j // m, j % m

    def _index_of(self, gpu: int, local):
        return gpu * self.shard_size + local


class CyclicLayout(Layout):
    """GPU g holds every G-th element: global j = local * G + g."""

    def _slot_of(self, j):
        g = self.gpu_count
        return j % g, j // g

    def _index_of(self, gpu: int, local):
        return local * self.gpu_count + gpu


class SpectralLayout(Layout):
    """UniNTT forward-output order.

    With ``M = n / G``, spectrum index ``k`` splits as ``k = k1 + M*k2``
    (``k1 < M``, ``k2 < G``).  GPU ``t`` owns the k1-chunk
    ``[t*M/G, (t+1)*M/G)`` and stores, for each of its k1 values, the
    full G-vector over k2 contiguously::

        gpu   = k1 // (M/G)
        local = (k1 % (M/G)) * G + k2

    Requires ``n >= G^2`` so the chunks are non-empty.
    """

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.n < self.gpu_count * self.gpu_count:
            raise PartitionError(
                f"spectral layout needs n >= G^2 "
                f"({self.n} < {self.gpu_count}^2)")

    @property
    def chunk(self) -> int:
        """k1 values per GPU: M / G."""
        return self.n // (self.gpu_count * self.gpu_count)

    def _slot_of(self, j):
        m = self.shard_size  # = M
        k1 = j % m
        k2 = j // m
        return k1 // self.chunk, (k1 % self.chunk) * self.gpu_count + k2

    def _index_of(self, gpu: int, local):
        k2 = local % self.gpu_count
        k1 = gpu * self.chunk + local // self.gpu_count
        return k1 + self.shard_size * k2


@dataclass(frozen=True)
class ColumnBlockLayout(Layout):
    """Column blocks of an R x C row-major matrix.

    The global index space is the flat row-major matrix position
    ``j = r * cols + c``.  GPU ``t`` owns the column block
    ``[t * cols/G, (t+1) * cols/G)`` and stores each column contiguously
    (column-major locally): ``local = (c % (cols/G)) * rows + r``.  This
    is the intermediate layout of the baseline's transpose: column
    transforms become local and contiguous.
    """

    rows: int = 0
    cols: int = 0

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.rows * self.cols != self.n:
            raise PartitionError(
                f"{self.rows}x{self.cols} does not factor n={self.n}")
        if self.cols % self.gpu_count:
            raise PartitionError(
                f"{self.cols} columns do not split over "
                f"{self.gpu_count} GPUs")

    @property
    def cols_per_gpu(self) -> int:
        return self.cols // self.gpu_count

    def _slot_of(self, j):
        r, c = divmod(j, self.cols)
        gpu, c_local = divmod(c, self.cols_per_gpu)
        return gpu, c_local * self.rows + r

    def _index_of(self, gpu: int, local):
        c_local, r = divmod(local, self.rows)
        c = gpu * self.cols_per_gpu + c_local
        return r * self.cols + c


@dataclass(frozen=True)
class TransposedBlockLayout(Layout):
    """Natural-order blocks of the *transposed* matrix.

    The global index space is again the flat row-major R x C matrix
    position ``j = k1 * cols + k2``; the transform output index is
    ``k = k1 + rows * k2``.  GPU ``t`` owns the k-block
    ``[t * n/G, (t+1) * n/G)`` at local offset ``k % (n/G)`` — i.e. the
    result of the baseline's final transpose into natural block order.
    """

    rows: int = 0
    cols: int = 0

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.rows * self.cols != self.n:
            raise PartitionError(
                f"{self.rows}x{self.cols} does not factor n={self.n}")

    def _slot_of(self, j):
        k1, k2 = divmod(j, self.cols)
        k = k1 + self.rows * k2
        return divmod(k, self.shard_size)

    def _index_of(self, gpu: int, local):
        k = gpu * self.shard_size + local
        k2, k1 = divmod(k, self.rows)
        return k1 * self.cols + k2


@dataclass(frozen=True)
class UniNTTExchangeLayout(Layout):
    """Post-exchange layout of UniNTT's single all-to-all.

    The global index space is the "unit-major" position ``j = s * M + k1``
    of the locally-transformed data (unit ``s`` produced spectrum slot
    ``k1``).  After the exchange, GPU ``t`` owns the k1-chunk
    ``[t * M/G, (t+1) * M/G)`` with the G values over ``s`` for each k1
    stored contiguously: ``local = (k1 % chunk) * G + s``.  The in-place
    cross NTT over each G-group then turns this storage into
    :class:`SpectralLayout` (with ``s`` replaced by ``k2``).
    """

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.n < self.gpu_count * self.gpu_count:
            raise PartitionError(
                f"exchange layout needs n >= G^2 "
                f"({self.n} < {self.gpu_count}^2)")

    @property
    def chunk(self) -> int:
        return self.n // (self.gpu_count * self.gpu_count)

    def _slot_of(self, j):
        m = self.shard_size
        s, k1 = divmod(j, m)
        return k1 // self.chunk, (k1 % self.chunk) * self.gpu_count + s

    def _index_of(self, gpu: int, local):
        group, s = divmod(local, self.gpu_count)
        k1 = gpu * self.chunk + group
        return s * self.shard_size + k1


class RelayoutPlan:
    """The all-to-all that moves a vector from ``source`` to ``target``.

    Built from the two layouts' index formulas, one destination GPU at
    a time, with numpy index arrays when numpy imports and plain ints
    otherwise (the two builds are identical).  Messages are ordered by
    destination local index — the deterministic schedule a real
    implementation would use — so a receiver reassembles by walking
    its slots in order.

    * ``counts[src][dst]``: elements GPU ``src`` sends GPU ``dst``.
      Built eagerly in O(n/G) memory, so a symbolic schedule at 2^24
      never holds a whole-vector index array.
    * ``gather[src][dst]``: the source-local indices of that message,
      in destination-slot order (built on first use).
    * ``reassembly[dst]``: for each of ``dst``'s slots, its position in
      the concatenation of ``dst``'s received messages in source order
      (built on first use).

    Use :func:`relayout_plan` for the cached plan of a layout pair.
    """

    def __init__(self, source: Layout, target: Layout):
        if source.n != target.n or source.gpu_count != target.gpu_count:
            raise PartitionError(
                f"layout mismatch: {source.n}/{source.gpu_count} vs "
                f"{target.n}/{target.gpu_count}")
        self.source = source
        self.target = target
        np = _numpy()
        g = source.gpu_count
        counts = [[0] * g for _ in range(g)]
        for dst in range(g):
            src, _ = self._walk(dst, np)
            if np is None:
                for s in src:
                    counts[s][dst] += 1
            else:
                for s, count in enumerate(
                        np.bincount(src, minlength=g).tolist()):
                    counts[s][dst] = count
        self.counts: tuple[tuple[int, ...], ...] = tuple(
            tuple(row) for row in counts)

    def _walk(self, dst: int, np):
        """(source GPU, source local) of each of ``dst``'s target slots."""
        j = _slot_indices(self.target, dst, np)
        if np is None:
            pairs = [self.source._slot_of(i) for i in j]
            return [s for s, _ in pairs], [loc for _, loc in pairs]
        src, loc = self.source._slot_of(j)
        # A one-GPU formula may return its GPU as a scalar.
        return np.broadcast_to(src, j.shape), loc

    @functools.cached_property
    def _routes(self) -> tuple:
        np = _numpy()
        g, m = self.source.gpu_count, self.target.shard_size
        gather: list[list[tuple[int, ...]]] = [[()] * g for _ in range(g)]
        reassembly: list[tuple[int, ...]] = []
        for dst in range(g):
            src, loc = self._walk(dst, np)
            if np is None:
                order = sorted(range(m), key=src.__getitem__)
                loc = [loc[i] for i in order]
                rank = [0] * m
                for pos, slot in enumerate(order):
                    rank[slot] = pos
            else:
                order = np.argsort(src, kind="stable")
                loc = loc[order].tolist()
                rank = np.empty(m, dtype=np.intp)
                rank[order] = np.arange(m)
                rank = rank.tolist()
            start = 0
            for s in range(g):
                stop = start + self.counts[s][dst]
                gather[s][dst] = tuple(loc[start:stop])
                start = stop
            reassembly.append(tuple(rank))
        return tuple(tuple(row) for row in gather), tuple(reassembly)

    @property
    def gather(self) -> tuple[tuple[tuple[int, ...], ...], ...]:
        return self._routes[0]

    @property
    def reassembly(self) -> tuple[tuple[int, ...], ...]:
        return self._routes[1]

    def outboxes(self, shards: Sequence[Sequence[int]]
                 ) -> list[list[list[int]]]:
        """``outboxes[src][dst]``: the message values, gathered from
        the source-layout ``shards``."""
        return [[[shard[i] for i in idx] for idx in row]
                for shard, row in zip(shards, self.gather)]

    def assemble(self, dst: int, messages: Sequence[Sequence[int]]
                 ) -> list[int]:
        """GPU ``dst``'s target shard from its received ``messages``
        (indexed by source GPU)."""
        received = [value for message in messages for value in message]
        return [received[i] for i in self.reassembly[dst]]


def _numpy():
    """numpy when it imports (the plan builders' array path), else None."""
    try:
        import numpy
    except ImportError:
        return None
    return numpy


def _slot_indices(layout: Layout, gpu: int, np):
    """Global index of each of ``gpu``'s slots, in local order."""
    if np is None:
        return [layout._index_of(gpu, local)
                for local in range(layout.shard_size)]
    return layout._index_of(gpu, np.arange(layout.shard_size))


@functools.lru_cache(maxsize=64)
def relayout_plan(source: Layout, target: Layout) -> RelayoutPlan:
    """The cached :class:`RelayoutPlan` for a layout pair.

    Keyed on the layouts themselves: they are frozen dataclasses whose
    equality compares class and every field, so two layouts of one
    class that differ only in ``rows``/``cols``/``nodes`` get their own
    plans.
    """
    return RelayoutPlan(source, target)


@functools.lru_cache(maxsize=64)
def layout_slots(layout: Layout) -> tuple[tuple[int, ...], ...]:
    """``layout_slots(layout)[gpu][local]``: the global index of every
    slot (cached per layout, like :func:`relayout_plan`)."""
    np = _numpy()
    slots = []
    for gpu in range(layout.gpu_count):
        idx = _slot_indices(layout, gpu, np)
        slots.append(tuple(idx if np is None else idx.tolist()))
    return tuple(slots)


def distribute(values: Sequence[int], layout: Layout) -> list[list[int]]:
    """Split a global vector into per-GPU shards under ``layout``."""
    if len(values) != layout.n:
        raise PartitionError(
            f"layout is for {layout.n} elements, got {len(values)}")
    return [[values[j] for j in idx] for idx in layout_slots(layout)]


def collect(shards: Sequence[Sequence[int]], layout: Layout) -> list[int]:
    """Reassemble the global vector from shards under ``layout``."""
    if len(shards) != layout.gpu_count:
        raise PartitionError(
            f"layout is for {layout.gpu_count} GPUs, got {len(shards)}")
    out = [0] * layout.n
    for gpu, (shard, idx) in enumerate(zip(shards, layout_slots(layout))):
        if len(shard) != layout.shard_size:
            raise PartitionError(
                f"GPU {gpu} shard has {len(shard)} elements, layout "
                f"expects {layout.shard_size}")
        for j, value in zip(idx, shard):
            out[j] = value
    return out
