"""Outside-in span recorder for the end-to-end benchmark.

The library has no spans of its own at the layer boundaries this benchmark
splits a query into, so the traced run records them from outside: it wraps
the library's entry points by replacing module and class attributes, and
:meth:`SpanRecorder.uninstall` puts back the identical objects.  No file of
the library changes.

A span is ``(name, layer, start, end, parent, op)``.  Span stacks are
thread-local, so the server's worker and handler threads each build their
own trees; a span opened with an empty stack is a *root*, and every span
carries the index of its root as its op id.  A layer's self time is its
spans' duration minus the part of that interval their child spans cover, so
per op the self times of all layers add up to the root span's duration.

Work counts are taken at the same boundary as the time: the outermost
generation span of a call records the sets, nodes and edges it added.
"""

from __future__ import annotations

import contextlib
import functools
import statistics
import threading
import time
from dataclasses import asdict, dataclass, field
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

ENGINE = "engine"
GRAPHS = "graphs.load"
PRECOMPUTE = "sampling.precompute"
GENERATE = "rrsets.generate"
SELECT = "coverage.select"
VALIDATE = "coverage.validate"
SENTINEL = "hist.sentinel"
REPAIR = "bank.repair"
SERVING = "serving"

#: names of the root spans that are one timed query or one delta
QUERY_ROOTS = ("op", "QueryServer._execute")
DELTA_ROOTS = ("QueryServer.apply_delta_request",)


@dataclass
class Span:
    name: str
    layer: str
    start: float
    end: float = 0.0
    #: index of the parent span in :attr:`SpanRecorder.spans`, -1 for a root
    parent: int = -1
    #: index of this span's root
    op: int = -1
    phase: str = ""
    attrs: Dict[str, Any] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class SpanRecorder:
    """In-memory span store plus the attribute patches that feed it."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        #: stamped on every span opened from now on ("setup" / "timed")
        self.phase = "setup"
        self._lock = threading.Lock()
        self._local = threading.local()
        self._patches: List[Tuple[Any, str, Any]] = []

    # ------------------------------------------------------------------
    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def innermost_layer(self) -> Optional[str]:
        stack = self._stack()
        return self.spans[stack[-1]].layer if stack else None

    @contextlib.contextmanager
    def span(self, name: str, layer: str):
        stack = self._stack()
        parent = stack[-1] if stack else -1
        record = Span(name, layer, time.perf_counter(), parent=parent,
                      phase=self.phase)
        with self._lock:
            index = len(self.spans)
            self.spans.append(record)
        record.op = self.spans[parent].op if parent >= 0 else index
        stack.append(index)
        try:
            yield record
        finally:
            record.end = time.perf_counter()
            stack.pop()

    # ------------------------------------------------------------------
    def patch(
        self, owner: Any, attr: str, factory: Callable[[Any], Any]
    ) -> None:
        """Replace ``owner.attr`` by ``factory(original)``.

        The original is read from the owner's own ``__dict__``, so
        :meth:`uninstall` restores exactly the object that was there.
        """
        original = vars(owner)[attr]
        setattr(owner, attr, factory(original))
        self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    @property
    def patched(self) -> List[Tuple[Any, str, Any]]:
        return list(self._patches)

    def timed(self, name: str, layer: str) -> Callable[[Any], Any]:
        """Factory wrapping a callable in one span per call."""

        def factory(original):
            @functools.wraps(original)
            def wrapper(*args, **kwargs):
                with self.span(name, layer):
                    return original(*args, **kwargs)

            return wrapper

        return factory


# ----------------------------------------------------------------------
# the entry points
# ----------------------------------------------------------------------

def _bank_totals(banks: Iterable[Any]) -> Tuple[int, int, int]:
    """(sets, nodes, edges examined) the banks hold / have spent so far."""
    sets = nodes = edges = 0
    for bank in banks:
        pool = getattr(bank, "pool", None)
        sets += int(getattr(pool, "num_rr", 0) or 0)
        nodes += int(getattr(pool, "total_size", 0) or 0)
        counters = getattr(getattr(bank, "generator", None), "counters", None)
        edges += int(getattr(counters, "edges_examined", 0) or 0)
    return sets, nodes, edges


def _generating(rec: SpanRecorder, name: str, nbanks: int):
    """Generation span that counts the work of the outermost such call."""

    def factory(original):
        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            banks = args[:nbanks]
            outermost = rec.innermost_layer() != GENERATE
            before = _bank_totals(banks) if outermost else None
            with rec.span(name, GENERATE) as record:
                try:
                    return original(*args, **kwargs)
                finally:
                    if outermost:
                        after = _bank_totals(banks)
                        record.attrs.update(
                            sets=after[0] - before[0],
                            nodes=after[1] - before[1],
                            edges=after[2] - before[2],
                        )

        return wrapper

    return factory


def _doubling(rec: SpanRecorder):
    """Wrap ``run_doubling``'s select/validate callbacks in spans."""

    def factory(original):
        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            kwargs["select"] = rec.timed("run_doubling.select", SELECT)(
                kwargs["select"]
            )
            kwargs["validate"] = rec.timed("run_doubling.validate", VALIDATE)(
                kwargs["validate"]
            )
            return original(*args, **kwargs)

        return wrapper

    return factory


def _sentinel_coverage(rec: SpanRecorder):
    """``RRCollection.coverage`` is validation when the sentinel phase calls
    it directly; elsewhere it runs inside a span that already says so."""

    def factory(original):
        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if rec.innermost_layer() != SENTINEL:
                return original(*args, **kwargs)
            with rec.span("RRCollection.coverage", VALIDATE):
                return original(*args, **kwargs)

        return wrapper

    return factory


def _with_result(rec: SpanRecorder, name: str, layer: str, read):
    """Span that stores ``read(result)`` in its attrs."""

    def factory(original):
        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            with rec.span(name, layer) as record:
                result = original(*args, **kwargs)
                record.attrs.update(read(result))
                return result

        return wrapper

    return factory


def install(rec: SpanRecorder) -> SpanRecorder:
    """Patch every entry point the per-layer metrics are read from."""
    from repro.algorithms import hist, opimc
    from repro.engine import schedule, shards
    from repro.engine.session import QuerySession
    from repro.graphs import io
    from repro.rrsets.bank import RRBank
    from repro.rrsets.collection import RRCollection
    from repro.sampling import precompute
    from repro.serving.registry import GraphRegistry
    from repro.serving.server import QueryServer

    rec.patch(io, "load_graph_auto", rec.timed("load_graph_auto", GRAPHS))
    rec.patch(GraphRegistry, "get", rec.timed("GraphRegistry.get", GRAPHS))
    for builder in ("build_uniform_arrays", "build_sorted_segments"):
        rec.patch(precompute, builder, rec.timed(builder, PRECOMPUTE))
    rec.patch(RRBank, "ensure", _generating(rec, "RRBank.ensure", 1))
    rec.patch(
        shards.ShardedRRBank, "ensure",
        _generating(rec, "ShardedRRBank.ensure", 1),
    )
    # The bootstrap grows both banks in background threads and commits
    # before the banks' own ensure calls run, so it needs its own span.
    rec.patch(schedule, "ensure_pair", _generating(rec, "ensure_pair", 2))
    for module in (opimc, hist):
        rec.patch(module, "run_doubling", _doubling(rec))
    rec.patch(
        hist, "max_coverage_greedy", rec.timed("max_coverage_greedy", SELECT)
    )
    rec.patch(RRCollection, "coverage", _sentinel_coverage(rec))
    rec.patch(
        hist.SentinelSetPhase, "run",
        _with_result(
            rec, "SentinelSetPhase.run", SENTINEL,
            lambda r: {"b": int(r.b), "rr_sets": int(r.total_rr_sets)},
        ),
    )
    rec.patch(
        RRBank, "repair",
        _with_result(
            rec, "RRBank.repair", REPAIR,
            lambda r: {"sets_repaired": int(r["num_dirty"])},
        ),
    )
    rec.patch(
        QuerySession, "apply_delta",
        rec.timed("QuerySession.apply_delta", REPAIR),
    )
    rec.patch(
        QuerySession, "maximize", rec.timed("QuerySession.maximize", ENGINE)
    )
    rec.patch(
        QueryServer, "_execute", rec.timed("QueryServer._execute", SERVING)
    )
    rec.patch(
        QueryServer, "apply_delta_request",
        rec.timed("QueryServer.apply_delta_request", SERVING),
    )
    return rec


# ----------------------------------------------------------------------
# self time and per-layer metrics
# ----------------------------------------------------------------------

def self_times(spans: List[Span]) -> List[float]:
    """Each span's duration minus the union of its children's intervals."""
    children: Dict[int, List[Tuple[float, float]]] = {}
    for span in spans:
        if span.parent >= 0:
            children.setdefault(span.parent, []).append((span.start, span.end))
    result = []
    for index, span in enumerate(spans):
        covered = 0.0
        reach = span.start
        for start, end in sorted(children.get(index, ())):
            start = max(start, reach)
            end = min(end, span.end)
            if end > start:
                covered += end - start
                reach = end
        result.append(span.duration - covered)
    return result


def layer_self_times(
    spans: List[Span], own_times: Optional[List[float]] = None
) -> Dict[int, Dict[str, float]]:
    """Per root (op id): self time summed by layer."""
    if own_times is None:
        own_times = self_times(spans)
    per_op: Dict[int, Dict[str, float]] = {}
    for span, own in zip(spans, own_times):
        layers = per_op.setdefault(span.op, {})
        layers[span.layer] = layers.get(span.layer, 0.0) + own
    return per_op


def _median(values: List[float]) -> float:
    return float(statistics.median(values)) if values else 0.0


def _outermost(spans: List[Span], index: int) -> bool:
    parent = spans[index].parent
    return parent < 0 or spans[parent].layer != spans[index].layer


def span_cost(calls: int = 20000) -> float:
    """Seconds one wrapped call costs beyond the unwrapped call."""
    probe = SpanRecorder()

    def noop():
        return None

    wrapped = probe.timed("probe", ENGINE)(noop)
    start = time.perf_counter()
    for _ in range(calls):
        noop()
    bare = time.perf_counter() - start
    start = time.perf_counter()
    for _ in range(calls):
        wrapped()
    return max(time.perf_counter() - start - bare, 0.0) / calls


def unattributed_share(
    spans: List[Span], own_times: List[float], roots: List[int],
    wall: float,
) -> float:
    """The share of ``wall`` that no named layer accounts for.

    ``wall`` is the queries' summed latency as the load generator timed
    it, outside the span tree.  Within a query, the :data:`ENGINE` spans
    (the benchmark's root and ``QuerySession.maximize``) keep as self time
    whatever no narrower wrapper claims, so their self time plus whatever
    wall time falls outside the query roots altogether is the time the
    layers miss.
    """
    if wall <= 0:
        return 0.0
    ops = set(roots)
    engine = sum(
        own for span, own in zip(spans, own_times)
        if span.op in ops and span.layer == ENGINE
    )
    outside = max(wall - sum(spans[i].duration for i in roots), 0.0)
    return (engine + outside) / wall


def per_layer_metrics(
    rec: SpanRecorder,
    ops: List[Dict[str, Any]],
    setup_reps: int,
    timed_wall: float,
    server_counters: Dict[str, float],
) -> Tuple[Dict[str, float], float]:
    """The ``per_layer`` metrics of one traced run, and the share of the
    timed queries' latency that no named layer accounts for."""
    spans = rec.spans
    own_times = self_times(spans)
    by_op = layer_self_times(spans, own_times)
    timed = [s.phase == "timed" for s in spans]
    roots = [
        i for i, s in enumerate(spans)
        if s.parent < 0 and timed[i] and s.name in QUERY_ROOTS
    ]
    deltas = [
        i for i, s in enumerate(spans)
        if s.parent < 0 and timed[i] and s.name in DELTA_ROOTS
    ]
    per_op: Dict[int, Dict[str, float]] = {
        i: {"wall": spans[i].duration, "sets": 0, "nodes": 0, "edges": 0,
            "rounds": 0, "sentinel": 0.0}
        for i in roots
    }
    repaired: Dict[int, int] = {i: 0 for i in deltas}
    sentinel_b: List[int] = []
    sentinel_sets: List[int] = []
    repair_time = 0.0
    for index, span in enumerate(spans):
        row = per_op.get(span.op)
        if span.layer == REPAIR and timed[index] and _outermost(spans, index):
            repair_time += span.duration
        if span.name == "RRBank.repair" and span.op in repaired:
            repaired[span.op] += span.attrs.get("sets_repaired", 0)
        if row is None:
            continue
        if span.layer == GENERATE and "sets" in span.attrs:
            for key in ("sets", "nodes", "edges"):
                row[key] += span.attrs[key]
        if span.name == "run_doubling.select":
            row["rounds"] += 1
        if span.layer == SENTINEL:
            row["sentinel"] += span.duration
            sentinel_b.append(span.attrs.get("b", 0))
            sentinel_sets.append(span.attrs.get("rr_sets", 0))

    rows = [per_op[i] for i in roots]
    selfs = [by_op[i] for i in roots]
    wall = sum(r["wall"] for r in rows) or 1.0

    def layer(name: str) -> List[float]:
        return [s.get(name, 0.0) for s in selfs]

    def setup_total(name: str) -> float:
        total = sum(
            own for span, own in zip(spans, own_times)
            if span.phase == "setup" and span.layer == name
        )
        return total / max(setup_reps, 1)

    sets = sum(r["sets"] for r in rows)
    generate_time = sum(layer(GENERATE))
    query_ops = [op for op in ops if op.get("kind") == "query" and op.get("ok")]
    reused = sum(op.get("sets_reused", 0) for op in query_ops)
    generated = sum(op.get("sets_generated", 0) for op in query_ops)
    spans_per_op = (
        sum(1 for s in spans if s.op in per_op) / len(rows) if rows else 0.0
    )
    p50 = _median([r["wall"] for r in rows])
    metrics = {
        "graphs.load_s": setup_total(GRAPHS),
        "sampling.precompute_s": setup_total(PRECOMPUTE),
        "rrsets.generate_s": _median(layer(GENERATE)),
        "rrsets.generate_share": generate_time / wall,
        "rrsets.sets_per_query": _median([r["sets"] for r in rows]),
        "rrsets.edges_per_query": _median([r["edges"] for r in rows]),
        "rrsets.mean_set_size": (
            sum(r["nodes"] for r in rows) / sets if sets else 0.0
        ),
        "rrsets.sets_per_s": sets / generate_time if generate_time else 0.0,
        "coverage.select_s": _median(layer(SELECT)),
        "coverage.select_share": sum(layer(SELECT)) / wall,
        "coverage.validate_s": _median(layer(VALIDATE)),
        "coverage.validate_share": sum(layer(VALIDATE)) / wall,
        "engine.rounds_per_query": _median([r["rounds"] for r in rows]),
        "engine.other_s": _median(layer(ENGINE)),
        "hist.sentinel_share": sum(r["sentinel"] for r in rows) / wall,
        "hist.sentinel_b": _median(sentinel_b),
        "hist.sentinel_rr_sets": _median(sentinel_sets),
        "bank.reuse_ratio": (
            reused / (reused + generated) if reused + generated else 0.0
        ),
        "bank.repair_share": repair_time / timed_wall if timed_wall else 0.0,
        "bank.sets_repaired": _median(list(repaired.values())),
        "serving.run_s": _median([op["runtime_s"] for op in query_ops]),
        "serving.wait_s": _median(
            [op["latency_s"] - op["runtime_s"] for op in query_ops]
        ),
        "serving.sessions_created": float(
            server_counters.get("serving.sessions_created", 0)
        ),
        "serving.shed": float(server_counters.get("serving.shed", 0)),
        "trace.overhead_frac": (
            spans_per_op * span_cost() / p50 if p50 else 0.0
        ),
    }
    latency = sum(op["latency_s"] for op in query_ops)
    return metrics, unattributed_share(spans, own_times, roots, latency)


def dump(rec: SpanRecorder) -> List[Dict[str, Any]]:
    """The spans as JSON-able dicts, with their self times."""
    return [
        dict(asdict(span), self_s=own)
        for span, own in zip(rec.spans, self_times(rec.spans))
    ]
