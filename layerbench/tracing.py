"""Span recorder for the traced benchmark run.

The recorder wraps public functions of the ``repro`` package under the
name their callers look them up by: a module-level function is
replaced in *every* loaded ``repro`` module that holds a reference to
it (``from x import f`` copies the reference), a method is replaced on
the class that defines it.  Wrappers are installed only around traced
ops and removed afterwards, so untraced ops run the unmodified program.

Each wrapped call becomes a span ``[key, start, end, parent, extra]``.
The key's first component is the layer (``field``, ``ntt``,
``multigpu``, ``sim``, ``analysis``, ``hw``, ``zkp``, ``serve``,
``runtime``).  A span's self time is its duration minus its direct
children's durations, so per op the layers' self times plus the time
outside every span (``unattributed``) add up to the op's traced time.
Very hot functions whose only metric is a count get a count-only
wrapper instead of a span.
"""

from __future__ import annotations

import functools
import json
import sys
from time import perf_counter

LAYERS = ("field", "ntt", "multigpu", "sim", "analysis", "hw", "zkp",
          "serve", "runtime")


def _lanes(args):
    arr = args[1]
    return arr.size // arr.shape[0]


def _values_len(args):
    return len(args[1])


def _source_n(args):
    return args[1].n


def _source_n_first(args):
    return args[0].n


# (span key, dotted owner, attribute, measure).  The owner is a module
# (the function is patched wherever it is referenced) or a class (the
# method is patched on it).  ``measure`` extracts the span's size
# argument (lanes, elements) for per-element metrics.
SPAN_TARGETS = (
    ("field.montmul", "repro.field.multilimb._MultiLimbKernel",
     "montmul_lazy", _lanes),
    ("field.pack", "repro.field.multilimb._MultiLimbKernel", "pack", None),
    ("field.pack", "repro.field.backend._Kernel", "pack", None),
    ("field.unpack", "repro.field.multilimb._MultiLimbKernel", "unpack",
     None),
    ("field.unpack", "repro.field.backend._Kernel", "unpack", None),
    ("field.scale", "repro.field.vector", "vec_mul", None),
    ("field.scale", "repro.field.vector", "vec_scale", None),
    ("ntt.scalar", "repro.ntt.radix2", "ntt", _values_len),
    ("ntt.scalar", "repro.ntt.radix2", "intt", _values_len),
    ("ntt.vector", "repro.field.simd", "vectorized_ntt", None),
    ("ntt.vector", "repro.field.simd", "vectorized_intt", None),
    ("multigpu.redistribute", "repro.multigpu.base", "redistribute",
     _source_n),
    ("multigpu.transfers", "repro.multigpu.schedule", "make_transfers",
     _source_n_first),
    ("multigpu.engine", "repro.multigpu.unintt.UniNTTEngine", "forward",
     None),
    ("multigpu.engine", "repro.multigpu.unintt.UniNTTEngine", "inverse",
     None),
    ("multigpu.stage", "repro.multigpu.base.DistributedVector",
     "from_values", None),
    ("multigpu.autotune", "repro.multigpu.autotune", "select_schedule",
     None),
    ("multigpu.batch", "repro.multigpu.batch_engine.BatchedDistributedNTT",
     "forward", None),
    ("multigpu.batch", "repro.multigpu.batch_engine.BatchedDistributedNTT",
     "inverse", None),
    ("sim.all_to_all", "repro.sim.cluster.SimCluster", "all_to_all", None),
    ("analysis.passes", "repro.analysis.passes", "run_passes", None),
    ("analysis.verify", "repro.analysis.plancheck", "verify_schedule",
     None),
    ("analysis.verify", "repro.analysis.passes", "verify_rewrite", None),
    ("analysis.synth", "repro.analysis.synth", "synthesize_hierarchical",
     None),
    ("analysis.enumerate", "repro.analysis.synth", "enumerate_candidates",
     None),
    ("hw.price", "repro.hw.cost.CostModel", "estimate", None),
    ("hw.price", "repro.hw.plancost", "price_schedule", None),
    ("hw.price", "repro.hw.plancost", "schedule_seconds", None),
    ("zkp.prove", "repro.zkp.qap.QAP", "witness_polynomials", None),
    ("zkp.satisfied", "repro.zkp.r1cs.R1CS", "is_satisfied", None),
    ("zkp.rows", "repro.zkp.qap.QAP", "witness_rows", None),
    ("serve.fleet", "repro.serve.fleet.FleetServer", "serve", None),
    ("serve.payload", "repro.serve.request.ProofRequest", "vectors", None),
    ("serve.journal", "repro.serve.durability.WriteAheadJournal", "append",
     None),
    ("runtime.events", "repro.runtime.loop.EventLoop", "pop_next", None),
)

# Called ~10^5 times per op: counted, not timed.
COUNT_TARGETS = (
    ("zkp.lc_evals", "repro.zkp.r1cs.R1CS", "eval_lc"),
)


def _resolve(dotted: str):
    """The module or class named by ``dotted`` (modules imported)."""
    import importlib

    parts = dotted.split(".")
    for cut in range(len(parts), 0, -1):
        name = ".".join(parts[:cut])
        try:
            obj = importlib.import_module(name)
        except ImportError:
            continue
        for attr in parts[cut:]:
            obj = getattr(obj, attr)
        return obj
    raise ImportError(dotted)


class Recorder:
    """Holds the spans and counts of the op being traced."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: dict[str, int] = {}
        self._patches: list[tuple[object, str, object, object]] = []
        self._build_patches()

    # -- wrappers ------------------------------------------------------------

    def _span_wrapper(self, fn, key: str, measure):
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [key, 0.0, 0.0, stack[-1] if stack else -1,
                    measure(args) if measure else 0]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
        return wrapper

    def _count_wrapper(self, fn, key: str):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key] = counts.get(key, 0) + 1
            return fn(*args, **kwargs)
        return wrapper

    def _wrap(self, fn, key: str, measure):
        if measure == "count":
            return self._count_wrapper(fn, key)
        return self._span_wrapper(fn, key, measure)

    def _build_patches(self) -> None:
        targets = list(SPAN_TARGETS)
        targets += [(k, o, a, "count") for k, o, a in COUNT_TARGETS]
        for key, owner_name, attr, measure in targets:
            owner = _resolve(owner_name)
            if isinstance(owner, type):
                raw = owner.__dict__[attr]
                if isinstance(raw, classmethod):
                    wrapped = classmethod(self._wrap(raw.__func__, key,
                                                     measure))
                else:
                    wrapped = self._wrap(raw, key, measure)
                self._patches.append((owner, attr, raw, wrapped))
                continue
            original = getattr(owner, attr)
            wrapped = self._wrap(original, key, measure)
            for name, module in list(sys.modules.items()):
                if name != "repro" and not name.startswith("repro."):
                    continue
                for ref, value in list(vars(module).items()):
                    if value is original:
                        self._patches.append((module, ref, original,
                                              wrapped))

    def install(self) -> None:
        for owner, attr, _, wrapped in self._patches:
            setattr(owner, attr, wrapped)

    def uninstall(self) -> None:
        for owner, attr, original, _ in self._patches:
            setattr(owner, attr, original)

    def reset(self) -> None:
        self.spans.clear()
        self.stack.clear()
        self.counts.clear()


def summarize(spans: list[list], counts: dict[str, int],
              op_s: float) -> dict[str, float]:
    """Per-op metrics from one traced op's spans.

    ``<key>.ms`` is inclusive time of the outermost calls of a key (a
    call nested in another call of the same key is not counted twice),
    ``<key>.calls`` their number, ``<layer>.self.ms`` the layer's self
    time; ``unattributed.ms`` is the op time outside every span.
    """
    n = len(spans)
    dur = [s[2] - s[1] for s in spans]
    child = [0.0] * n
    vector_child = [False] * n
    for i, s in enumerate(spans):
        parent = s[3]
        if parent >= 0:
            child[parent] += dur[i]
            if s[0] == "ntt.vector":
                vector_child[parent] = True
    out: dict[str, float] = {}
    layer_self = dict.fromkeys(LAYERS, 0.0)
    root = 0.0
    for i, s in enumerate(spans):
        key = s[0]
        if key == "ntt.scalar" and vector_child[i]:
            key = "ntt.dispatch"  # a radix2 call that ran the lane path
            s[0] = key
        layer_self[key.split(".", 1)[0]] += dur[i] - child[i]
        if s[3] < 0:
            root += dur[i]
        ancestor = s[3]
        while ancestor >= 0 and spans[ancestor][0] != key:
            ancestor = spans[ancestor][3]
        if ancestor >= 0:
            continue
        out[key + ".ms"] = out.get(key + ".ms", 0.0) + dur[i] * 1e3
        out[key + ".calls"] = out.get(key + ".calls", 0) + 1
        if key == "field.montmul":
            out["field.montmul.lanes"] = (out.get("field.montmul.lanes", 0)
                                          + s[4])
        elif key == "ntt.scalar" and s[4] <= 64:
            out["ntt.scalar.small_calls"] = (
                out.get("ntt.scalar.small_calls", 0) + 1)
        elif key in ("multigpu.redistribute", "multigpu.transfers"):
            out[key + ".elems"] = out.get(key + ".elems", 0) + s[4]
    for layer, seconds in layer_self.items():
        out[f"{layer}.self.ms"] = seconds * 1e3
    out["unattributed.ms"] = (op_s - root) * 1e3
    out["op.traced_ms"] = op_s * 1e3
    out.update(counts)
    return out


def chrome_trace(spans: list[list], label: str) -> list[dict]:
    """Spans as Chrome trace-event ``X`` events, one lane per layer."""
    origin = spans[0][1] if spans else 0.0
    events = [{"name": "thread_name", "ph": "M", "pid": 1, "tid": i,
               "args": {"name": layer}} for i, layer in enumerate(LAYERS)]
    events.append({"name": "process_name", "ph": "M", "pid": 1, "tid": 0,
                   "args": {"name": label}})
    for key, start, end, _parent, extra in spans:
        events.append({
            "name": key, "cat": key.split(".", 1)[0], "ph": "X", "pid": 1,
            "tid": LAYERS.index(key.split(".", 1)[0]),
            "ts": round((start - origin) * 1e6, 3),
            "dur": round((end - start) * 1e6, 3),
            "args": {"size": extra} if extra else {}})
    return events


def write_chrome_trace(path: str, events: list[dict]) -> None:
    with open(path, "w") as handle:
        json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, handle)
