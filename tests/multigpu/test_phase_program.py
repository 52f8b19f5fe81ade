"""The UniNTT phase program: one schedule, every execution route.

``tests/data/unintt_trace_golden.json`` pins the full trace-event
sequence and per-GPU counters of UniNTT runs for every ablation arm,
with and without a coset shift, forward and inverse, on the list and
the packed shard currency.  Any route that drifts from the program by
one event, byte or multiplication fails here.

Regenerate (only for a deliberate accounting change) with::

    PYTHONPATH=src python tests/multigpu/test_phase_program.py
"""

import json
import random
import sys
from pathlib import Path

import pytest

from repro.field import BN254_FR, GOLDILOCKS, numpy_available, use_backend
from repro.field.packed import pack_values, packed_ops
from repro.multigpu import DistributedPolynomial, UniNTTEngine
from repro.multigpu.base import DistributedVector
from repro.multigpu.schedule import (
    ALL_OFF, ablation_grid, build_unintt_schedule, make_transfers,
)
from repro.sim import SimCluster

GOLDEN = Path(__file__).resolve().parents[1] / "data" / \
    "unintt_trace_golden.json"

G = 4
N = 1 << 8
SHIFT = 7

#: Field name -> (field, backend whose lane kernels run it packed).
FIELDS = {
    "goldilocks": (GOLDILOCKS, "numpy"),
    "bn254-fr": (BN254_FR, "multilimb"),
}

CASES = [(field, arm, coset, direction, currency)
         for field in FIELDS
         for arm, _ in ablation_grid()
         for coset in (None, SHIFT)
         for direction in ("forward", "inverse")
         for currency in ("list", "packed")]


def case_key(field, arm, coset, direction, currency) -> str:
    return f"{field}/{arm}/coset={coset}/{direction}/{currency}"


def run_case(field_name, arm, coset, direction, currency) -> dict:
    """Trace events and per-GPU counters of one transform."""
    field, backend = FIELDS[field_name]
    if not numpy_available():
        backend = "python"  # the list currency only; packed cases skip
    options = dict(ablation_grid())[arm]
    engine = UniNTTEngine(SimCluster(field, G), options=options)
    values = field.random_vector(N, random.Random(
        f"{field_name}/{arm}/{direction}"))
    with use_backend(backend):
        if currency == "packed":
            ops = packed_ops(field, N)
            assert ops is not None
            values = pack_values(ops, values)
        if direction == "forward":
            poly = DistributedPolynomial.from_coefficients(engine, values)
            out = poly.to_evaluations(coset_shift=coset)
        else:
            poly = DistributedPolynomial.from_evaluations(
                engine, values, coset_shift=coset)
            out = poly.to_coefficients()
        assert out.packed == (currency == "packed")
    cluster = engine.cluster
    return {
        "events": [[e.kind, e.level, e.detail, e.max_bytes_per_gpu,
                    e.total_bytes, e.field_muls, e.step]
                   for e in cluster.trace.events],
        "counters": [gpu.counters.snapshot() for gpu in cluster.gpus],
    }


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text())


def test_golden_covers_every_case(golden):
    assert sorted(golden) == sorted(case_key(*case) for case in CASES)


@pytest.mark.parametrize("case", CASES, ids=lambda c: case_key(*c))
def test_trace_matches_golden(golden, case):
    if case[-1] == "packed" and not numpy_available():
        pytest.skip("the packed currency needs numpy")
    assert run_case(*case) == golden[case_key(*case)]


@pytest.mark.parametrize("g,n", [(2, 16), (4, 256), (8, 1024)])
@pytest.mark.parametrize("inverse", [False, True])
def test_closed_form_exchanges_equal_the_relayout_plan(g, n, inverse):
    schedule = build_unintt_schedule(n, g, 8, ALL_OFF, inverse=inverse)
    exchanges = schedule.collective_ops()
    assert len(exchanges) == 2
    for op in exchanges:
        assert op.transfers == make_transfers(op.source, op.target, 8)


def test_inverse_scales_once_per_shard(monkeypatch):
    """The inverse's 1/G and 1/M scalings are one ``vec_scale`` call per
    GPU each, not one per size-G cross-transform group."""
    import repro.field.vector as vector

    original = vector.vec_scale
    calls = []

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.startswith("repro") and \
                getattr(module, "vec_scale", None) is original:
            monkeypatch.setattr(module, "vec_scale", counting)
    g, n = 8, 1 << 12
    cluster = SimCluster(GOLDILOCKS, g)
    engine = UniNTTEngine(cluster)
    values = GOLDILOCKS.random_vector(n, random.Random(12))
    spectrum = engine.forward(DistributedVector.from_values(
        cluster, values, engine.input_layout(n)))
    calls.clear()
    back = engine.inverse(spectrum)
    assert back.to_values() == values
    assert len(calls) <= 3 * g


if __name__ == "__main__":
    records = sorted((case_key(*case), run_case(*case)) for case in CASES)
    GOLDEN.write_text("{\n" + ",\n".join(
        f"{json.dumps(key)}: {json.dumps(record, sort_keys=True)}"
        for key, record in records) + "\n}\n")
    print(f"wrote {len(CASES)} cases to {GOLDEN}")
