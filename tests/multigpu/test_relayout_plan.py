"""RelayoutPlan equals the per-element relayout walk it replaced.

The oracle below is the destination-slot walk every relayout site used
to copy (``target.global_index`` -> ``source.owner``, one element at a
time).  The plan must reproduce its counts, the order of every
(src, dst) message and the receivers' reassembly for every pair of
layout classes, both when built with numpy and with the pure-Python
fallback.
"""

import itertools
import sys

import pytest

from repro.errors import PartitionError
from repro.field import TEST_FIELD_97
from repro.multigpu import (
    BitrevSpectralLayout, BlockLayout, ColumnBlockLayout, CyclicLayout,
    InterNodeExchangeLayout, IntraNodeExchangeLayout, NestedCyclicLayout,
    NestedSpectralLayout, NodeSpectralLayout, RelayoutPlan, SpectralLayout,
    TransposedBlockLayout, UniNTTExchangeLayout, collect, distribute,
    layout_slots, redistribute, relayout_plan,
)
from repro.multigpu.schedule import make_transfers
from repro.sim import SimCluster

FLAT = (BlockLayout, CyclicLayout, SpectralLayout, UniNTTExchangeLayout,
        BitrevSpectralLayout, ColumnBlockLayout, TransposedBlockLayout)
HIERARCHICAL = (NestedCyclicLayout, IntraNodeExchangeLayout,
                NodeSpectralLayout, InterNodeExchangeLayout,
                NestedSpectralLayout)
CLASSES = FLAT + HIERARCHICAL

# (G, n, nodes, rows): every class is valid in at least one case.
CASES = [(1, 1, 1, 1), (1, 16, 1, 4), (2, 4, 1, 2), (2, 64, 2, 4),
         (4, 16, 2, 4), (4, 256, 4, 16), (4, 1024, 1, 64),
         (8, 64, 1, 8), (8, 512, 2, 32), (8, 1024, 4, 8)]


def build(cls, n, g, nodes, rows):
    if cls in (ColumnBlockLayout, TransposedBlockLayout):
        return cls(n=n, gpu_count=g, rows=rows, cols=n // rows)
    if cls in HIERARCHICAL:
        return cls(n=n, gpu_count=g, nodes=nodes)
    return cls(n=n, gpu_count=g)


def layouts_for(case):
    g, n, nodes, rows = case
    out = []
    for cls in CLASSES:
        try:
            out.append(build(cls, n, g, nodes, rows))
        except PartitionError:
            continue
    return out


def scalar_walk(source, target):
    """The old relayout loop: counts, messages and reassembly order."""
    g = source.gpu_count
    counts = [[0] * g for _ in range(g)]
    gather = [[[] for _ in range(g)] for _ in range(g)]
    reassembly = []
    for dst in range(g):
        cursors = [0] * g
        order = []
        for local in range(target.shard_size):
            j = target.global_index(dst, local)
            src, src_local = source.owner(j)
            counts[src][dst] += 1
            gather[src][dst].append(src_local)
            order.append((src, cursors[src]))
            cursors[src] += 1
        starts = [sum(counts[s][dst] for s in range(src))
                  for src in range(g)]
        reassembly.append([starts[src] + pos for src, pos in order])
    return counts, gather, reassembly


def assert_matches_walk(plan, source, target):
    counts, gather, reassembly = scalar_walk(source, target)
    label = (source, target)
    assert [list(row) for row in plan.counts] == counts, label
    assert [[list(m) for m in row] for row in plan.gather] == gather, label
    assert [list(r) for r in plan.reassembly] == reassembly, label


@pytest.fixture
def no_numpy(monkeypatch):
    """Make ``import numpy`` fail, so plans take the scalar fallback."""
    monkeypatch.setitem(sys.modules, "numpy", None)
    with pytest.raises(ImportError):
        import numpy  # noqa: F401


def test_every_class_pair_is_covered():
    seen = set()
    for case in CASES:
        classes = {type(layout) for layout in layouts_for(case)}
        seen |= set(itertools.product(classes, repeat=2))
    assert seen == set(itertools.product(CLASSES, repeat=2))


@pytest.mark.parametrize("case", CASES, ids=str)
def test_plan_matches_scalar_walk(case):
    for source, target in itertools.product(layouts_for(case), repeat=2):
        assert_matches_walk(RelayoutPlan(source, target), source, target)


@pytest.mark.parametrize("case", CASES, ids=str)
def test_fallback_plan_matches_scalar_walk(case, no_numpy):
    for source, target in itertools.product(layouts_for(case), repeat=2):
        assert_matches_walk(RelayoutPlan(source, target), source, target)


@pytest.mark.parametrize("case", CASES, ids=str)
def test_layout_slots_match_global_index(case):
    for layout in layouts_for(case):
        want = tuple(
            tuple(layout.global_index(gpu, local)
                  for local in range(layout.shard_size))
            for gpu in range(layout.gpu_count))
        layout_slots.cache_clear()
        assert layout_slots(layout) == want, layout


def test_fallback_layout_slots_match(no_numpy):
    layout = NodeSpectralLayout(n=512, gpu_count=8, nodes=2)
    layout_slots.cache_clear()
    try:
        got = layout_slots(layout)
    finally:
        layout_slots.cache_clear()
    assert got == tuple(
        tuple(layout.global_index(gpu, local)
              for local in range(layout.shard_size))
        for gpu in range(8))


def test_redistribute_and_transfers_read_one_plan():
    n, g = 256, 4
    source = ColumnBlockLayout(n=n, gpu_count=g, rows=16, cols=16)
    target = NestedCyclicLayout(n=n, gpu_count=g, nodes=2)
    values = [v % TEST_FIELD_97.modulus for v in range(n)]
    cluster = SimCluster(TEST_FIELD_97, g)
    cluster.load_shards(distribute(values, source))
    redistribute(cluster, source, target)
    assert collect(cluster.peek_shards(), target) == values
    eb = cluster.element_bytes
    sent = [0] * g
    for t in make_transfers(source, target, eb):
        sent[t.src] += t.nbytes
    assert sent == [gpu.counters.bytes_sent for gpu in cluster.gpus]


def test_mismatched_layouts_rejected():
    with pytest.raises(PartitionError, match="layout mismatch"):
        RelayoutPlan(BlockLayout(n=16, gpu_count=2),
                     BlockLayout(n=16, gpu_count=4))


class TestCacheKeys:
    """Caches are keyed on the whole layout, not on (class, n, G)."""

    def test_column_block_rows_get_their_own_slots(self):
        tall = ColumnBlockLayout(n=64, gpu_count=4, rows=4, cols=16)
        wide = ColumnBlockLayout(n=64, gpu_count=4, rows=16, cols=4)
        assert layout_slots(tall)[0][:4] == (0, 16, 32, 48)
        assert layout_slots(wide)[0][:4] == (0, 4, 8, 12)

    def test_plans_differ_by_rows_and_nodes(self):
        block = BlockLayout(n=64, gpu_count=4)
        for a, b in [
            (TransposedBlockLayout(n=64, gpu_count=4, rows=4, cols=16),
             TransposedBlockLayout(n=64, gpu_count=4, rows=16, cols=4)),
            (NestedCyclicLayout(n=64, gpu_count=4, nodes=2),
             NestedCyclicLayout(n=64, gpu_count=4, nodes=4)),
        ]:
            plan_a, plan_b = relayout_plan(block, a), relayout_plan(block, b)
            assert plan_a is not plan_b
            assert_matches_walk(plan_a, block, a)
            assert_matches_walk(plan_b, block, b)

    def test_packed_split_follows_rows(self):
        np = pytest.importorskip("numpy")
        from repro.multigpu.polynomial import _packed_join, _packed_split

        arr = np.arange(64, dtype=np.uint64)
        tall = ColumnBlockLayout(n=64, gpu_count=4, rows=4, cols=16)
        wide = ColumnBlockLayout(n=64, gpu_count=4, rows=16, cols=4)
        _packed_split(arr, tall)
        shards = _packed_split(arr, wide)
        assert shards[0][:4].tolist() == [0, 4, 8, 12]
        assert _packed_join(shards, wide).tolist() == arr.tolist()
