"""Observability: registry merging, phase spans, run reports, baselines.

Four contracts are pinned down here:

* **Merging is commutative** — folding worker snapshots into a registry in
  any order produces the same state, which is what lets the fan-out merge
  child metrics at its rank-order merge point without caring about order.
* **Phase spans nest** — a child's wall time is part of its parent's, and
  counter deltas accrued inside a child are attributed to every enclosing
  span.
* **No sink, no effect** — attaching a registry never changes what a
  generator computes, and running without one costs nothing.
* **Canonical reports are bit-identical** — across reruns *and* across a
  crash/resume boundary, which is what the CI counter-regression gate
  (``repro.tools``) relies on.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.core.registry import get_algorithm
from repro.engine.session import QuerySession
from repro.observability import (
    NULL_TRACER,
    HistogramSketch,
    MetricsRegistry,
    PhaseTracer,
    RunReport,
    build_run_report,
)
from repro.observability.trace import NullTracer
from repro.runtime import FaultInjector
from repro.rrsets.collection import RRCollection
from repro.rrsets.subsim import SubsimICGenerator
from repro.rrsets.vanilla import VanillaICGenerator
from repro.tools.counter_baseline import (
    baseline_path,
    diff_documents,
    load_baseline,
    run_workload,
)
from repro.utils.exceptions import InjectedFault

K = 8
EPS = 0.25
SEED = 11


# ----------------------------------------------------------------------
# histogram sketches
# ----------------------------------------------------------------------
class TestHistogramSketch:
    def test_bucket_is_bit_length(self):
        sketch = HistogramSketch()
        for value in (0, 1, 2, 3, 4, 7, 8, 255, 256):
            sketch.observe(value)
        # zeros -> bucket 0; [2**(b-1), 2**b) -> bucket b
        assert sketch.counts[0] == 1  # 0
        assert sketch.counts[1] == 1  # 1
        assert sketch.counts[2] == 2  # 2, 3
        assert sketch.counts[3] == 2  # 4, 7
        assert sketch.counts[4] == 1  # 8
        assert sketch.counts[8] == 1  # 255
        assert sketch.counts[9] == 1  # 256
        assert sketch.total == 9
        assert sketch.sum == 0 + 1 + 2 + 3 + 4 + 7 + 8 + 255 + 256

    def test_observe_many_matches_scalar_loop(self):
        values = np.random.default_rng(3).integers(0, 5000, size=1000)
        vectorized = HistogramSketch()
        vectorized.observe_many(values)
        scalar = HistogramSketch()
        for value in values:
            scalar.observe(int(value))
        assert vectorized == scalar

    def test_merge_is_commutative_and_exact(self):
        rng = np.random.default_rng(4)
        a_values = rng.integers(0, 100, size=50)
        b_values = rng.integers(0, 100_000, size=50)
        a, b, both = HistogramSketch(), HistogramSketch(), HistogramSketch()
        a.observe_many(a_values)
        b.observe_many(b_values)
        both.observe_many(np.concatenate([a_values, b_values]))
        ab = HistogramSketch.from_dict(a.as_dict())
        ab.merge(b)
        ba = HistogramSketch.from_dict(b.as_dict())
        ba.merge(a)
        assert ab == ba == both

    def test_round_trip_trims_trailing_zeros(self):
        sketch = HistogramSketch()
        sketch.observe(1000)
        sketch.counts.extend([0, 0, 0])  # stale tail from _ensure growth
        payload = sketch.as_dict()
        assert payload["counts"][-1] != 0
        assert HistogramSketch.from_dict(payload) == sketch

    def test_negative_values_rejected(self):
        sketch = HistogramSketch()
        with pytest.raises(ValueError):
            sketch.observe(-1)
        with pytest.raises(ValueError):
            sketch.observe_many(np.array([3, -2]))

    def test_mean_survives_sketching(self):
        sketch = HistogramSketch()
        sketch.observe_many(np.array([1, 2, 3, 10]))
        assert sketch.mean() == 4.0
        assert HistogramSketch().mean() == 0.0


# ----------------------------------------------------------------------
# the registry
# ----------------------------------------------------------------------
class TestMetricsRegistry:
    def test_counters_gauges_histograms(self):
        reg = MetricsRegistry()
        reg.inc("a")
        reg.inc("a", 4)
        reg.set_gauge("g", 2.5)
        reg.observe("h", 3)
        assert reg.value("a") == 5
        assert reg.value("never") == 0
        assert reg.gauge("g") == 2.5
        assert reg.histogram("h").total == 1

    def test_attach_source_idempotent_and_validated(self, wc_graph):
        reg = MetricsRegistry()
        gen = VanillaICGenerator(wc_graph)
        reg.attach_source(gen)
        reg.attach_source(gen)  # same object: counted once
        gen.counters.edges_examined = 7
        assert reg.generation_totals()["edges_examined"] == 7
        with pytest.raises(TypeError):
            reg.attach_source(object())

    def test_numpy_scalar_counters_stay_json_able(self, wc_graph):
        # The vectorized loops accumulate np.int64 into GenerationCounters;
        # snapshots must coerce them or json.dumps dies downstream.
        reg = MetricsRegistry()
        gen = VanillaICGenerator(wc_graph)
        gen.counters.edges_examined = np.int64(41)
        reg.attach_source(gen)
        snapshot = reg.snapshot()
        assert snapshot["counters"]["generation.edges_examined"] == 41
        json.dumps(snapshot)  # must not raise

    def test_merge_snapshot_is_order_independent(self):
        payloads = []
        for i in range(1, 5):
            reg = MetricsRegistry()
            reg.inc("shared", i)
            reg.inc(f"only_{i}", 10 * i)
            reg.set_gauge("peak", float(i))
            reg.observe_many("sizes", np.arange(i * 7))
            payloads.append(reg.snapshot())

        def fold(ordering):
            merged = MetricsRegistry()
            merged.merge_snapshots(payloads[j] for j in ordering)
            return merged.snapshot()

        reference = fold(range(4))
        assert reference["counters"]["shared"] == 1 + 2 + 3 + 4
        assert reference["gauges"]["peak"] == 4.0  # gauges merge by max
        for ordering in ([3, 2, 1, 0], [2, 0, 3, 1], [1, 3, 0, 2]):
            assert fold(ordering) == reference

    def test_own_state_round_trip_with_skip_prefixes(self):
        reg = MetricsRegistry()
        reg.inc("coverage.selections", 9)
        reg.inc("runtime.edges_examined", 500)
        reg.observe_many("rr_size", np.array([1, 2, 4]))
        state = reg.own_state()
        json.dumps(state)  # checkpoint metadata must be JSON-able

        restored = MetricsRegistry()
        restored.inc("runtime.edges_examined", 3)  # live per-process spend
        restored.restore_own_state(state, skip_prefixes=("runtime.",))
        assert restored.value("coverage.selections") == 9
        # runtime.* is per-process by design: the live value survives.
        assert restored.value("runtime.edges_examined") == 3
        assert restored.histogram("rr_size") == reg.histogram("rr_size")


# ----------------------------------------------------------------------
# generator integration: no-sink no-op, sinks, shard-pool merge
# ----------------------------------------------------------------------
def _grow(graph, cls, count, metrics=None, batch_size=1):
    gen = cls(graph)
    gen.batch_size = batch_size
    if metrics is not None:
        gen.metrics = metrics
        metrics.attach_source(gen)
    pool = RRCollection(graph.n)
    pool.extend(count, gen, np.random.default_rng(5))
    return gen, pool


class TestGeneratorIntegration:
    @pytest.mark.parametrize("cls", [VanillaICGenerator, SubsimICGenerator])
    @pytest.mark.parametrize("batch_size", [1, 64])
    def test_no_sink_is_a_true_no_op(self, wc_graph, cls, batch_size):
        bare_gen, bare_pool = _grow(wc_graph, cls, 300, batch_size=batch_size)
        reg = MetricsRegistry()
        inst_gen, inst_pool = _grow(
            wc_graph, cls, 300, metrics=reg, batch_size=batch_size
        )
        # Instrumentation observes; it never changes what is computed.
        assert inst_gen.counters == bare_gen.counters
        assert np.array_equal(inst_pool.set_sizes(), bare_pool.set_sizes())

    @pytest.mark.parametrize("batch_size", [1, 64])
    def test_sink_captures_exact_size_histogram(self, wc_graph, batch_size):
        reg = MetricsRegistry()
        _, pool = _grow(
            wc_graph, SubsimICGenerator, 300, metrics=reg, batch_size=batch_size
        )
        hist = reg.histogram("rr_size")
        assert hist.total == 300
        assert hist.sum == int(pool.set_sizes().sum())
        assert reg.gauge("rr_pool_bytes") == pool.nbytes()

    @staticmethod
    def _sharded_snapshot(graph):
        # The session registry collects the query's counters and the
        # shard pool's own shardpool.* counters alike.
        with QuerySession(graph, "opim-c", seed=3, shards=2) as session:
            result = session.maximize(5, eps=0.4, batch_size=32)
            return result, session.metrics.snapshot()

    def test_shard_pool_merges_child_metrics(self, wc_graph):
        result, snapshot = self._sharded_snapshot(wc_graph)
        # Histograms observed inside the shard workers arrive via the
        # rank-order merge; generation totals via the counters tuple.
        hist = snapshot["histograms"]["rr_size"]
        counters = snapshot["counters"]
        assert counters["generation.sets_generated"] == result.num_rr_sets
        assert hist["total"] == result.num_rr_sets
        assert hist["sum"] == counters["generation.nodes_added"]
        assert counters["shardpool.generate_calls"] >= 1

    def test_shard_pool_metrics_reproducible(self, wc_graph):
        _, first = self._sharded_snapshot(wc_graph)
        _, second = self._sharded_snapshot(wc_graph)
        assert first == second


# ----------------------------------------------------------------------
# phase tracing
# ----------------------------------------------------------------------
class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


class TestPhaseTracer:
    def test_nested_spans_wall_time(self):
        clock = FakeClock()
        tracer = PhaseTracer(clock=clock)
        with tracer.phase("outer"):
            clock.now = 1.0
            with tracer.phase("child_a"):
                clock.now = 3.0
            with tracer.phase("child_b"):
                clock.now = 7.0
            clock.now = 10.0
        (outer,) = tracer.roots
        assert outer.wall_seconds == 10.0
        assert [child.name for child in outer.children] == ["child_a", "child_b"]
        child_a, child_b = outer.children
        assert child_a.wall_seconds == 2.0
        assert child_b.wall_seconds == 4.0
        # Children's wall time is contained in the parent's.
        assert child_a.wall_seconds + child_b.wall_seconds <= outer.wall_seconds

    def test_counter_deltas_attributed_to_enclosing_spans(self):
        reg = MetricsRegistry()
        tracer = PhaseTracer(reg, clock=FakeClock())
        with tracer.phase("outer"):
            reg.inc("work", 1)
            with tracer.phase("inner"):
                reg.inc("work", 2)
                reg.inc("inner_only", 5)
        (outer,) = tracer.roots
        (inner,) = outer.children
        assert inner.counter_deltas == {"work": 2, "inner_only": 5}
        # The parent sees its own work plus everything nested under it,
        # and zero-delta counters are omitted entirely.
        assert outer.counter_deltas == {"work": 3, "inner_only": 5}

    def test_out_of_order_exit_raises(self):
        tracer = PhaseTracer(clock=FakeClock())
        outer = tracer.phase("outer")
        inner = tracer.phase("inner")
        outer.__enter__()
        inner.__enter__()
        with pytest.raises(RuntimeError, match="nesting order"):
            outer.__exit__(None, None, None)

    def test_to_dict_rejects_open_spans(self):
        tracer = PhaseTracer(clock=FakeClock())
        span = tracer.phase("open")
        span.__enter__()
        with pytest.raises(RuntimeError, match="open spans"):
            tracer.to_dict()
        span.__exit__(None, None, None)
        trace = tracer.to_dict()
        assert [p["name"] for p in trace["phases"]] == ["open"]

    def test_to_json_is_deterministic(self):
        def build():
            tracer = PhaseTracer(clock=FakeClock())
            with tracer.phase("a"):
                with tracer.phase("b"):
                    pass
            return tracer.to_json()

        assert build() == build()

    def test_null_tracer_is_reusable_no_op(self):
        assert isinstance(NULL_TRACER, NullTracer)
        span = NULL_TRACER.phase("anything")
        assert span is NULL_TRACER.phase("else")  # no allocation per phase
        with span:
            pass
        assert NULL_TRACER.to_dict() == {"phases": []}


# ----------------------------------------------------------------------
# run reports
# ----------------------------------------------------------------------
def _instrumented_run(graph, algorithm="subsim", **kwargs):
    reg = MetricsRegistry()
    algo = get_algorithm(algorithm, graph)
    result = algo.run(K, eps=EPS, seed=SEED, metrics=reg, **kwargs)
    return result, reg


class TestRunReport:
    def test_json_round_trip(self, wc_graph, tmp_path):
        result, reg = _instrumented_run(wc_graph, trace=True)
        report = build_run_report(
            result,
            wc_graph,
            seed=SEED,
            metrics=reg,
            trace=result.extras["trace"],
        )
        assert RunReport.from_json(report.to_json()).as_dict() == report.as_dict()
        path = tmp_path / "report.json"
        report.write(path)
        assert RunReport.load(path).as_dict() == report.as_dict()

    def test_report_carries_trace_and_fingerprint(self, wc_graph):
        result, reg = _instrumented_run(wc_graph, trace=True)
        report = build_run_report(
            result,
            wc_graph,
            seed=SEED,
            metrics=reg,
            trace=result.extras["trace"],
        )
        assert report.graph["fingerprint"] == wc_graph.fingerprint()
        names = [span["name"] for span in report.phases["phases"]]
        assert names == ["run"]
        assert report.counters["generation.sets_generated"] > 0

    def test_canonical_drops_nondeterministic_fields(self, wc_graph):
        result, reg = _instrumented_run(wc_graph, trace=True)
        report = build_run_report(
            result,
            wc_graph,
            seed=SEED,
            metrics=reg,
            trace=result.extras["trace"],
        )
        # The full artifact has wall clock, memory, per-process spend ...
        assert report.runtime_seconds > 0
        assert "rr_pool_bytes" in report.gauges
        assert any(n.startswith("runtime.") for n in report.counters)
        # ... and the canonical projection has none of them.
        canonical = report.canonical()
        assert "runtime_seconds" not in canonical
        assert "phases" not in canonical
        assert "rr_pool_bytes" not in canonical["gauges"]
        assert not any(n.startswith("runtime.") for n in canonical["counters"])
        assert canonical["counters"]["generation.edges_examined"] > 0
        assert canonical["histograms"]["rr_size"]["total"] == result.num_rr_sets

    @pytest.mark.parametrize("algorithm", ["subsim", "hist"])
    def test_canonical_keeps_per_round_records(self, wc_graph, algorithm):
        result, reg = _instrumented_run(
            wc_graph, algorithm=algorithm, trace=True
        )
        report = build_run_report(
            result,
            wc_graph,
            seed=SEED,
            metrics=reg,
            trace=result.extras["trace"],
        )
        rounds = report.canonical().get("rounds")
        assert rounds, "a traced run must surface per-round records"
        assert [r["round"] for r in rounds] == list(range(1, len(rounds) + 1))
        for record in rounds:
            assert set(record) == {
                "round", "theta", "lower", "upper", "bound_ratio"
            }
        # Per-round facts are deterministic: a rerun reproduces them.
        again, reg2 = _instrumented_run(
            wc_graph, algorithm=algorithm, trace=True
        )
        report2 = build_run_report(
            again, wc_graph, seed=SEED, metrics=reg2,
            trace=again.extras["trace"],
        )
        assert report2.canonical()["rounds"] == rounds

    def test_vanilla_report_serializes_without_runtime_extras(self, wc_graph):
        # Vanilla generation accumulates numpy scalars into the result's
        # counter fields, and an un-budgeted, un-checkpointed run carries no
        # runtime extras — the budget fallback must coerce them (regression:
        # np.int64 crashed to_json on the CLI --report path).
        result, reg = _instrumented_run(wc_graph, "opim-c")
        assert "runtime" not in result.extras
        report = build_run_report(result, wc_graph, seed=SEED, metrics=reg)
        json.loads(report.to_json())

    def test_report_without_registry_still_counts(self, wc_graph):
        result = get_algorithm("subsim", wc_graph).run(K, eps=EPS, seed=SEED)
        report = build_run_report(result, wc_graph, seed=SEED)
        counters = report.canonical()["counters"]
        assert counters["generation.edges_examined"] == result.edges_examined
        assert counters["generation.rng_draws"] == result.rng_draws


class TestCanonicalBitIdentity:
    def test_rerun_is_bit_identical(self, wc_graph):
        docs = []
        for _ in range(2):
            result, reg = _instrumented_run(wc_graph)
            report = build_run_report(result, wc_graph, seed=SEED, metrics=reg)
            docs.append(json.dumps(report.canonical(), sort_keys=True))
        assert docs[0] == docs[1]

    @pytest.mark.parametrize("algorithm", ["opim-c", "hist+subsim"])
    def test_crash_resume_report_is_bit_identical(
        self, wc_graph, tmp_path, algorithm
    ):
        fresh_result, fresh_reg = _instrumented_run(wc_graph, algorithm)
        fresh = build_run_report(
            fresh_result, wc_graph, seed=SEED, metrics=fresh_reg
        )

        path = tmp_path / "run.npz"
        with pytest.raises(InjectedFault):
            get_algorithm(algorithm, wc_graph).run(
                K,
                eps=EPS,
                seed=SEED,
                metrics=MetricsRegistry(),
                checkpoint=path,
                fault_injector=FaultInjector(at_rr_set=400),
            )
        assert path.exists()
        resumed_reg = MetricsRegistry()
        resumed_result = get_algorithm(algorithm, wc_graph).run(
            K,
            eps=EPS,
            seed=SEED,
            metrics=resumed_reg,
            checkpoint=path,
            resume=True,
        )
        resumed = build_run_report(
            resumed_result, wc_graph, seed=SEED, metrics=resumed_reg
        )
        # Pushed metrics (coverage counters, histograms) from pre-crash
        # rounds are replayed from the checkpoint, so the canonical report
        # is bit-identical to an uninterrupted run's.
        assert json.dumps(resumed.canonical(), sort_keys=True) == json.dumps(
            fresh.canonical(), sort_keys=True
        )


# ----------------------------------------------------------------------
# the counter-regression diff tool
# ----------------------------------------------------------------------
class TestCounterBaselineDiff:
    @pytest.fixture(scope="class")
    def document(self):
        cell = run_workload("subsim", "wc", 1)
        return {
            "baseline_schema_version": 1,
            "graph": {"n": 300},
            "query": {"k": K},
            "workloads": {"subsim/wc/sequential": cell},
        }

    def test_identity_diff_is_empty(self, document):
        copy = json.loads(json.dumps(document))
        assert diff_documents(document, copy) == []

    def test_default_run_matches_committed_baseline(self, document):
        # The exact selection path is the only one: a default run must
        # reproduce its committed counter-baseline cell bit for bit.
        committed = load_baseline(baseline_path())
        cell = json.loads(json.dumps(document["workloads"]["subsim/wc/sequential"]))
        assert cell == committed["workloads"]["subsim/wc/sequential"]

    def test_tampered_counter_is_reported(self, document):
        tampered = json.loads(json.dumps(document))
        cell = tampered["workloads"]["subsim/wc/sequential"]
        cell["counters"]["generation.edges_examined"] += 1
        lines = diff_documents(document, tampered)
        assert len(lines) == 1
        assert "generation.edges_examined" in lines[0]
        assert "subsim/wc/sequential" in lines[0]

    def test_missing_workload_is_reported(self, document):
        empty = {"baseline_schema_version": 1, "workloads": {}}
        lines = diff_documents(document, empty)
        assert any("missing from current run" in line for line in lines)

    def test_schema_mismatch_is_reported(self, document):
        bumped = json.loads(json.dumps(document))
        bumped["baseline_schema_version"] = 2
        lines = diff_documents(document, bumped)
        assert any("baseline_schema_version" in line for line in lines)
