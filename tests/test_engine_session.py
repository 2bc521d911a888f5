"""Tests for the sampling engine: schedules, sessions, cross-query reuse."""

import numpy as np
import pytest

from repro.core.registry import get_algorithm
from repro.engine.schedule import SamplingSchedule
from repro.engine.session import BankProvider, QuerySession
from repro.utils.exceptions import CheckpointError, ConfigurationError


@pytest.fixture(scope="module")
def wc_graph_1500():
    from repro.graphs.generators import preferential_attachment
    from repro.graphs.weights import wc_weights

    return wc_weights(
        preferential_attachment(1500, 10, seed=1, reciprocal=0.3)
    )


class TestSamplingSchedule:
    def test_doubling_geometry(self):
        sched = SamplingSchedule(100, 1600, 5)
        assert [sched.theta_at(i) for i in range(1, 6)] == [
            100, 200, 400, 800, 1600,
        ]

    def test_theta_max_clamps(self):
        sched = SamplingSchedule(100, 500, 4)
        assert sched.theta_at(4) == 500

    def test_validation(self):
        with pytest.raises(ValueError):
            SamplingSchedule(0, 10, 1)
        with pytest.raises(ValueError):
            SamplingSchedule(10, 5, 1)
        with pytest.raises(ValueError):
            SamplingSchedule(10, 20, 0)
        with pytest.raises(ValueError):
            SamplingSchedule(10, 20, 2).theta_at(0)


class TestBankProvider:
    def test_needs_exactly_one_rng_source(self, wc_graph):
        with pytest.raises(ConfigurationError):
            BankProvider(wc_graph)
        with pytest.raises(ConfigurationError):
            BankProvider(
                wc_graph, rng=np.random.default_rng(0), entropy=1
            )

    def test_transient_banks_share_the_run_rng(self, wc_graph):
        rng = np.random.default_rng(0)
        provider = BankProvider.transient(wc_graph, rng)
        from repro.rrsets.vanilla import VanillaICGenerator

        bank1 = provider.get("a", lambda: VanillaICGenerator(wc_graph))
        bank2 = provider.get("b", lambda: VanillaICGenerator(wc_graph))
        assert bank1 is not bank2
        assert bank1.rng is rng and bank2.rng is rng
        assert not bank1.reusable and not bank2.reusable

    def test_session_streams_depend_only_on_role(self, wc_graph):
        from repro.rrsets.vanilla import VanillaICGenerator

        def make():
            return VanillaICGenerator(wc_graph)

        p1 = BankProvider(wc_graph, entropy=42)
        p1.begin_query(None)
        a_first = p1.get("r1", make)
        a_first.ensure(10)

        # Same role requested after other roles, in another provider: the
        # stream origin is identical.
        p2 = BankProvider(wc_graph, entropy=42)
        p2.begin_query(None)
        p2.get("zzz", make).ensure(3)
        a_second = p2.get("r1", make)
        a_second.ensure(10)
        for i in range(10):
            np.testing.assert_array_equal(
                a_first.pool.set_nodes(i), a_second.pool.set_nodes(i)
            )

    def test_non_reusable_roles_not_cached(self, wc_graph):
        from repro.rrsets.vanilla import VanillaICGenerator

        def make():
            return VanillaICGenerator(wc_graph)

        p = BankProvider(wc_graph, entropy=1)
        p.begin_query(None)
        cached = p.get("plain", make)
        masked = p.get(
            "masked", make, stop_mask=np.zeros(wc_graph.n, dtype=bool)
        )
        p.end_query()
        p.begin_query(None)
        assert p.get("plain", make) is cached
        assert p.get(
            "masked", make, stop_mask=np.zeros(wc_graph.n, dtype=bool)
        ) is not masked


class TestWarmColdIdentity:
    """A warm query must be bit-identical to the same query run cold."""

    @pytest.mark.parametrize("algorithm", ["opim-c", "subsim"])
    def test_second_query_matches_cold(self, wc_graph, algorithm):
        warm = QuerySession(wc_graph, algorithm, seed=17)
        warm.maximize(4, eps=0.3)
        warm_second = warm.maximize(8, eps=0.3)

        cold = QuerySession(wc_graph, algorithm, seed=17)
        cold.maximize(4, eps=0.3)  # advance query index identically
        cold_direct = QuerySession(wc_graph, algorithm, seed=17)
        cold_direct.queries_served = 1
        cold_result = cold_direct.maximize(8, eps=0.3)

        assert warm_second.seeds == cold_result.seeds
        assert warm_second.num_rr_sets == cold_result.num_rr_sets
        assert warm_second.lower_bound == cold_result.lower_bound
        assert warm_second.upper_bound == cold_result.upper_bound

    def test_warm_query_reuses_sets(self, wc_graph, wc_graph_1500):
        cases = [
            (wc_graph, 5, (10, 4), False),
            # n=1500 PA+WC, k=50 then k=20: the smaller second query stops
            # inside the prefix the first one filled, so it draws nothing.
            (wc_graph_1500, 7, (50, 20), True),
        ]
        for graph, seed, ks, all_reused in cases:
            session = QuerySession(graph, "subsim", seed=seed)
            first = session.maximize(ks[0], eps=0.3).extras["session"]
            second = session.maximize(ks[1], eps=0.3).extras["session"]
            assert first["sets_reused"] == 0
            assert second["sets_reused"] > 0
            assert second["sets_generated"] <= first["sets_generated"]
            if all_reused:
                assert second["sets_generated"] == 0

    def test_session_metrics_accumulate(self, wc_graph):
        session = QuerySession(wc_graph, "subsim", seed=5)
        session.maximize(6, eps=0.3)
        session.maximize(6, eps=0.3)
        generated = session.metrics.value("bank.sets_generated")
        reused = session.metrics.value("bank.sets_reused")
        assert generated > 0
        # An identical second query is served entirely from the pool.
        assert reused == generated


class TestSessionAcrossAlgorithms:
    @pytest.mark.parametrize(
        "algorithm,kwargs",
        [
            ("opim-c", {}),
            ("subsim", {}),
            ("hist", {}),
            ("hist+subsim", {}),
            ("imm", {"max_rr_sets": 2000}),
            ("tim+", {"max_rr_sets": 2000}),
            ("ssa", {}),
            ("d-ssa", {}),
            ("borgs-ris", {"scale_tau": 1e-4, "max_rr_sets": 5000}),
        ],
    )
    def test_two_queries_smoke(self, wc_graph, algorithm, kwargs):
        session = QuerySession(wc_graph, algorithm, seed=3, **kwargs)
        r1 = session.maximize(3, eps=0.4)
        r2 = session.maximize(5, eps=0.4)
        assert len(r1.seeds) == 3
        assert len(r2.seeds) == 5
        assert r1.extras["session"]["query_index"] == 1
        assert r2.extras["session"]["query_index"] == 2


class TestSessionPersistence:
    def test_save_restore_matches_live_session(self, wc_graph, tmp_path):
        path = str(tmp_path / "session.npz")
        live = QuerySession(wc_graph, "subsim", seed=23)
        live.maximize(5, eps=0.3)
        live.save(path)
        continued = live.maximize(9, eps=0.3)

        restored = QuerySession(wc_graph, "subsim", seed=23).restore(path)
        assert restored.queries_served == 1
        resumed = restored.maximize(9, eps=0.3)
        assert resumed.seeds == continued.seeds
        assert resumed.num_rr_sets == continued.num_rr_sets

    def test_restore_ignores_legacy_sketch_entry(self, wc_graph, tmp_path):
        from repro.runtime.checkpoint import CheckpointStore

        path = str(tmp_path / "session.npz")
        live = QuerySession(wc_graph, "subsim", seed=23)
        live.maximize(5, eps=0.3)
        live.save(path)
        meta, pools = CheckpointStore(path).load()
        assert all("sketch" not in bank for bank in meta["banks"].values())
        # Snapshots from before the sketch coverage tier was removed carry
        # a per-bank "sketch" spec (derived registers); it must not matter.
        for bank in meta["banks"].values():
            bank["sketch"] = {
                "precision": 10, "hash_seed": 0, "num_ingested": 0,
            }
        legacy = str(tmp_path / "legacy.npz")
        CheckpointStore(legacy).save(meta, pools)

        answers = []
        for snapshot in (path, legacy):
            restored = QuerySession(wc_graph, "subsim", seed=23)
            result = restored.restore(snapshot).maximize(9, eps=0.3)
            answers.append((
                result.seeds, result.num_rr_sets,
                result.edges_examined, result.rng_draws,
            ))
        assert answers[0] == answers[1]

    def test_restore_rejects_other_algorithm(self, wc_graph, tmp_path):
        path = str(tmp_path / "session.npz")
        QuerySession(wc_graph, "subsim", seed=1).save(path)
        with pytest.raises(CheckpointError):
            QuerySession(wc_graph, "opim-c", seed=1).restore(path)

    def test_restore_rejects_other_graph(self, wc_graph, er_graph, tmp_path):
        path = str(tmp_path / "session.npz")
        s = QuerySession(wc_graph, "subsim", seed=1)
        s.maximize(3, eps=0.4)
        s.save(path)
        with pytest.raises(CheckpointError):
            QuerySession(er_graph, "subsim", seed=1).restore(path)

    def test_session_seed_must_be_int(self, wc_graph):
        with pytest.raises(ConfigurationError):
            QuerySession(wc_graph, "subsim", seed="nope")


class TestSessionRunCheckpointConflict:
    def test_banks_with_run_checkpoint_rejected(self, wc_graph, tmp_path):
        session = QuerySession(wc_graph, "opim-c", seed=2)
        algo = get_algorithm("opim-c", wc_graph)
        with pytest.raises(ConfigurationError):
            algo.run(
                3,
                eps=0.4,
                checkpoint=str(tmp_path / "run.npz"),
                banks=session.provider,
            )

    def test_session_query_with_checkpoint_rejected(self, wc_graph, tmp_path):
        # The session forwards its options to run(), which refuses a
        # run-level checkpoint next to session banks.
        session = QuerySession(wc_graph, "opim-c", seed=2)
        with pytest.raises(ConfigurationError, match="QuerySession.save"):
            session.maximize(3, checkpoint=str(tmp_path / "run.npz"))
        assert session.queries_served == 0


class TestSessionBatchSize:
    def test_warm_bank_extension_uses_this_querys_batch_size(self, wc_graph):
        # The second, larger query extends the warm bank the first query
        # built; its generator must be rebound to the second query's
        # batch size, so the extension runs the batched kernel.
        def second_query(batch_sizes):
            session = QuerySession(wc_graph, "subsim", seed=3)
            session.maximize(2, eps=0.4, batch_size=batch_sizes[0])
            return session.maximize(6, eps=0.2, batch_size=batch_sizes[1])

        sequential = second_query((1, 1))
        batched = second_query((1, 64))
        assert batched.extras["session"]["sets_reused"] > 0
        assert batched.extras["session"]["sets_generated"] > 0
        assert batched.rng_draws != sequential.rng_draws


class TestDynamicDeltas:
    """QuerySession.apply_delta: in-place bank repair across queries."""

    def _graph(self, n=300):
        from repro.graphs.generators import preferential_attachment
        from repro.graphs.weights import wc_weights

        return wc_weights(
            preferential_attachment(n, 3, seed=1, reciprocal=0.3)
        )

    def _uncovered_edge(self, session):
        """An in-edge of a node that NO persistent bank's pool covers."""
        banks = session.provider.persistent_banks().values()
        coverage = sum(bank.pool.coverage_counts() for bank in banks)
        graph = session.graph
        for v in np.flatnonzero(coverage == 0):
            lo, hi = graph.in_indptr[v], graph.in_indptr[v + 1]
            if hi > lo:
                return (int(graph.in_indices[lo]), int(v))
        raise AssertionError("no uncovered node with in-edges")

    def test_zero_dirty_delta_keeps_answers_seed_for_seed(self):
        from repro.graphs.dynamic import GraphDelta

        # large enough that the warm pools leave some node uncovered
        session = QuerySession(self._graph(n=2_000), "subsim", seed=11)
        session.maximize(8, eps=0.4)
        edge = self._uncovered_edge(session)
        info = session.apply_delta(GraphDelta(deletes=[edge]))
        assert info["sets_repaired"] == 0
        warm = session.maximize(8, eps=0.4)

        cold_graph = self._graph(n=2_000)
        cold_graph.apply_delta(GraphDelta(deletes=[edge]))
        cold = QuerySession(cold_graph, "subsim", seed=11).maximize(
            8, eps=0.4
        )
        assert warm.seeds == cold.seeds
        assert warm.num_rr_sets == cold.num_rr_sets
        assert warm.rng_draws == cold.rng_draws

    def test_dirty_delta_repairs_in_place_and_emits_metrics(self):
        from repro.graphs.dynamic import GraphDelta

        session = QuerySession(self._graph(), "subsim", seed=11)
        session.maximize(8, eps=0.4)
        graph = session.graph
        # the highest-coverage node guarantees dirty sets
        banks = session.provider.persistent_banks().values()
        coverage = sum(bank.pool.coverage_counts() for bank in banks)
        v = int(np.argmax(coverage))
        assert graph.in_indptr[v + 1] > graph.in_indptr[v]
        u = int(graph.in_indices[graph.in_indptr[v]])
        info = session.apply_delta(GraphDelta(deletes=[(u, v)]))
        assert info["sets_repaired"] > 0
        assert 0.0 < info["dirty_fraction"] <= 1.0
        assert info["delta_epoch"] == 1
        assert session.metrics.value("generation.repaired") == (
            info["sets_repaired"]
        )
        assert session.metrics.gauge("generation.dirty_fraction") == (
            pytest.approx(info["dirty_fraction"])
        )
        # the repaired session still answers queries
        result = session.maximize(8, eps=0.4)
        assert len(result.seeds) == 8

    def test_deltas_keep_one_counter_source_per_bank(self):
        import gc
        import weakref

        from repro.graphs.dynamic import GraphDelta
        from repro.observability.registry import GENERATION_COUNTER_FIELDS

        session = QuerySession(self._graph(), "subsim", seed=11)
        session.maximize(8, eps=0.4)
        banks = session.provider.persistent_banks()
        retired = [weakref.ref(bank.generator) for bank in banks.values()]
        src, dst, _ = session.graph.edges()
        for i in range(5):
            session.apply_delta(
                GraphDelta(deletes=[(int(src[i]), int(dst[i]))])
            )
            session.maximize(8, eps=0.4)
        # a repair rebuilds each bank's generator on the same counters;
        # the rebuilt one replaces the old as the registry's source
        sources = session.metrics._sources
        assert len(sources) == len(banks)
        assert {id(s) for s in sources} == {
            id(bank.generator) for bank in banks.values()
        }
        totals = session.metrics.generation_totals()
        for field in GENERATION_COUNTER_FIELDS:
            assert totals[field] == sum(
                getattr(bank.generator.counters, field)
                for bank in banks.values()
            )
        gc.collect()
        assert all(ref() is None for ref in retired)

    def test_delta_frees_retired_generators_before_next_query(self):
        # A tenant that is not queried after a delta must not keep its
        # retired generators (and the pre-delta graph arrays they read)
        # alive as counters sources until its next query.
        import gc
        import weakref

        from repro.graphs.dynamic import GraphDelta

        session = QuerySession(self._graph(), "subsim", seed=11)
        session.maximize(8, eps=0.4)
        banks = session.provider.persistent_banks()
        retired = [weakref.ref(bank.generator) for bank in banks.values()]
        old_probs = weakref.ref(session.graph.in_probs)
        src, dst, _ = session.graph.edges()
        session.apply_delta(GraphDelta(deletes=[(int(src[0]), int(dst[0]))]))
        gc.collect()
        assert all(ref() is None for ref in retired)
        assert old_probs() is None
        assert {id(s) for s in session.metrics._sources} == {
            id(bank.generator) for bank in banks.values()
        }

    def test_delta_is_deterministic_across_identical_sessions(self):
        from repro.graphs.dynamic import GraphDelta

        results = []
        for _ in range(2):
            session = QuerySession(self._graph(), "subsim", seed=11)
            session.maximize(8, eps=0.4)
            graph = session.graph
            src, dst, _ = graph.edges()
            delta = GraphDelta(deletes=[(int(src[0]), int(dst[0]))])
            info = session.apply_delta(delta)
            second = session.maximize(8, eps=0.4)
            results.append((info["sets_repaired"], second.seeds,
                            second.num_rr_sets, second.rng_draws))
        assert results[0] == results[1]

    def test_sharded_session_delta_is_deterministic(self):
        from repro.graphs.dynamic import GraphDelta

        results = []
        for _ in range(2):
            session = QuerySession(
                self._graph(), "subsim", seed=11, shards=2
            )
            try:
                session.maximize(8, eps=0.4)
                graph = session.graph
                src, dst, _ = graph.edges()
                delta = GraphDelta(deletes=[(int(src[0]), int(dst[0]))])
                info = session.apply_delta(delta)
                second = session.maximize(8, eps=0.4)
                results.append(
                    (info["sets_repaired"], second.seeds,
                     second.num_rr_sets)
                )
            finally:
                session.close()
        assert results[0] == results[1]
