"""Tests for RR banks and prefix views (the sampling-engine substrate)."""

import numpy as np
import pytest

from repro.rrsets.bank import RRBank
from repro.rrsets.collection import RRCollection, RRPrefixView
from repro.rrsets.vanilla import VanillaICGenerator
from repro.runtime.checkpoint import counters_to_dict
from repro.utils.exceptions import CheckpointError, ConfigurationError


def _filled(graph, count, seed=0):
    gen = VanillaICGenerator(graph)
    pool = RRCollection(graph.n)
    pool.extend(count, gen, np.random.default_rng(seed))
    return pool


def _bank(graph, seed=0, **kwargs):
    return RRBank(
        graph,
        VanillaICGenerator(graph),
        np.random.default_rng(seed),
        **kwargs,
    )


class TestPrefixView:
    def test_matches_truncated_pool(self, wc_graph):
        pool = _filled(wc_graph, 80)
        theta = 30
        view = pool.prefix(theta)
        assert isinstance(view, RRPrefixView)
        assert view.num_rr == theta
        assert view.n == pool.n
        # Every per-set accessor agrees with the underlying sets.
        sizes = view.set_sizes()
        for i in range(theta):
            nodes = view.set_nodes(i)
            np.testing.assert_array_equal(nodes, pool.set_nodes(i))
            assert sizes[i] == len(nodes)
        assert view.total_size == int(sizes.sum())
        assert view.average_size() == pytest.approx(sizes.mean())

    def test_coverage_counts_naive(self, wc_graph):
        pool = _filled(wc_graph, 60)
        view = pool.prefix(25)
        naive = np.zeros(pool.n, dtype=np.int64)
        for i in range(25):
            naive[pool.set_nodes(i)] += 1
        np.testing.assert_array_equal(view.coverage_counts(), naive)

    def test_rrs_containing_cut(self, wc_graph):
        pool = _filled(wc_graph, 60)
        view = pool.prefix(25)
        for node in range(0, pool.n, 17):
            ids = view.rrs_containing(node)
            full = pool.rrs_containing(node)
            np.testing.assert_array_equal(ids, full[full < 25])

    def test_coverage_and_mask(self, wc_graph):
        pool = _filled(wc_graph, 60)
        view = pool.prefix(25)
        seeds = [0, 5, 11]
        mask = view.covered_mask(seeds)
        assert mask.shape == (25,)
        naive = sum(
            1
            for i in range(25)
            if set(seeds) & set(int(v) for v in pool.set_nodes(i))
        )
        assert int(mask.sum()) == naive
        assert view.coverage(seeds) == naive

    def test_out_of_range_set_rejected(self, wc_graph):
        pool = _filled(wc_graph, 20)
        view = pool.prefix(10)
        with pytest.raises(IndexError):
            view.set_nodes(10)
        with pytest.raises(IndexError):
            view.nodes_of_sets(np.array([3, 10]))

    def test_full_prefix_returns_collection(self, wc_graph):
        pool = _filled(wc_graph, 20)
        assert pool.prefix(20) is pool
        assert pool.prefix(25) is pool

    def test_bad_theta_rejected(self, wc_graph):
        pool = _filled(wc_graph, 20)
        with pytest.raises(ValueError):
            RRPrefixView(pool, 21)
        with pytest.raises(ValueError):
            RRPrefixView(pool, -1)


class TestBankGrowth:
    def test_prefix_stability(self, wc_graph):
        """Growing past theta never changes the first theta sets."""
        warm = _bank(wc_graph, seed=11, reusable=True)
        warm.ensure(40)
        warm.ensure(160)
        cold = _bank(wc_graph, seed=11, reusable=True)
        cold.ensure(40)
        for i in range(40):
            np.testing.assert_array_equal(
                warm.pool.set_nodes(i), cold.pool.set_nodes(i)
            )

    def test_ensure_returns_prefix_view(self, wc_graph):
        bank = _bank(wc_graph, reusable=True)
        view = bank.ensure(30)
        assert view.num_rr == 30
        bank.ensure(60)
        assert bank.view(30).num_rr == 30
        assert bank.view(999).num_rr == 60

    def test_take_sequential_and_skip_rejected(self, wc_graph):
        bank = _bank(wc_graph, reusable=True)
        first = bank.take(0)
        assert len(first) >= 1
        bank.take(1)
        with pytest.raises(IndexError):
            bank.take(5)
        # Re-taking an existing index serves the stored set.
        np.testing.assert_array_equal(bank.take(0), bank.pool.set_nodes(0))

    def test_counters_at_marks(self, wc_graph):
        bank = _bank(wc_graph, seed=3, reusable=True)
        bank.ensure(20)
        at_20 = counters_to_dict(bank.generator.counters)
        bank.ensure(80)
        # Exact at a recorded boundary, even after later growth.
        assert counters_to_dict(bank.counters_at(20)) == at_20
        # Interior sizes fall back to the nearest mark at or below.
        assert counters_to_dict(bank.counters_at(33)) == at_20
        # The frontier reports the live counters.
        assert bank.counters_at(80).sets_generated == 80

    def test_query_counters_match_cold_run(self, wc_graph):
        # 25 is a recorded stop of the warm bank's history, so a warm query
        # consuming that prefix reports exactly what a cold run would.
        warm = _bank(wc_graph, seed=7, reusable=True)
        warm.ensure(25)
        warm.ensure(100)
        warm.begin_query(())
        warm.ensure(25)
        cold = _bank(wc_graph, seed=7, reusable=True)
        cold.ensure(25)
        assert counters_to_dict(warm.counters) == counters_to_dict(
            cold.counters
        )

    def test_reuse_metrics_emitted(self, wc_graph):
        from repro.observability.registry import MetricsRegistry

        bank = _bank(wc_graph, reusable=True)
        sink = MetricsRegistry()
        bank.begin_query([sink])
        bank.ensure(30)
        bank.end_query()
        assert sink.value("bank.sets_generated") == 30
        assert sink.value("bank.sets_reused") == 0
        bank.begin_query([sink])
        bank.ensure(20)
        bank.end_query()
        assert sink.value("bank.sets_generated") == 30
        assert sink.value("bank.sets_reused") == 20


class TestBankEviction:
    def test_byte_cap_evicts_between_queries(self, wc_graph):
        bank = _bank(wc_graph, seed=5, reusable=True, byte_cap=1)
        bank.begin_query(())
        view = bank.ensure(50)
        # The cap never interrupts the serving query...
        assert view.num_rr == 50
        assert bank.over_cap
        # ...but end_query drops the pool.
        assert bank.end_query()
        assert bank.pool.num_rr == 0

    def test_eviction_regenerates_identical_prefix(self, wc_graph):
        bank = _bank(wc_graph, seed=5, reusable=True, byte_cap=1)
        bank.begin_query(())
        bank.ensure(50)
        before = [bank.pool.set_nodes(i).copy() for i in range(50)]
        bank.end_query()
        bank.begin_query(())
        bank.ensure(50)
        for i in range(50):
            np.testing.assert_array_equal(bank.pool.set_nodes(i), before[i])
        assert bank.counters.sets_generated == 50

    def test_transient_bank_cannot_evict(self, wc_graph):
        bank = _bank(wc_graph, reusable=False)
        with pytest.raises(ConfigurationError):
            bank.evict()

    def test_reusable_bank_cannot_reset(self, wc_graph):
        bank = _bank(wc_graph, reusable=True)
        with pytest.raises(ConfigurationError):
            bank.reset_pool()

    def test_reset_pool_keeps_stream_advancing(self, wc_graph):
        bank = _bank(wc_graph, seed=9)
        bank.ensure(10)
        first = bank.pool.set_nodes(0).copy()
        bank.reset_pool()
        assert bank.pool.num_rr == 0
        bank.ensure(10)
        # The stream moved on: the fresh pool is a different draw.
        regenerated = [bank.pool.set_nodes(i) for i in range(10)]
        assert any(
            len(first) != len(r) or (first != r).any() for r in regenerated[:1]
        ) or bank.generator.counters.sets_generated == 20


class TestBankConfig:
    def test_reusable_stop_mask_rejected(self, wc_graph):
        mask = np.zeros(wc_graph.n, dtype=bool)
        with pytest.raises(ConfigurationError):
            _bank(wc_graph, reusable=True, stop_mask=mask)

    def test_reusable_bank_rejects_call_site_mask(self, wc_graph):
        bank = _bank(wc_graph, reusable=True)
        mask = np.zeros(wc_graph.n, dtype=bool)
        with pytest.raises(ConfigurationError):
            bank.ensure(5, stop_mask=mask)

    def test_adopt_rejected_on_reusable(self, wc_graph):
        bank = _bank(wc_graph, reusable=True)
        pool = _filled(wc_graph, 5)
        with pytest.raises(ConfigurationError):
            bank.adopt(pool, counters_to_dict(bank.generator.counters))


class TestBankStateRoundTrip:
    def test_state_dict_restores(self, wc_graph):
        bank = _bank(wc_graph, seed=21, reusable=True)
        bank.ensure(40)
        payload = bank.state_dict()
        pool = bank.pool

        fresh = _bank(wc_graph, seed=21, reusable=True)
        fresh.restore_state(payload, pool)
        fresh.ensure(80)
        straight = _bank(wc_graph, seed=21, reusable=True)
        straight.ensure(80)
        for i in range(80):
            np.testing.assert_array_equal(
                fresh.pool.set_nodes(i), straight.pool.set_nodes(i)
            )

    def test_restore_rejects_generator_mismatch(self, wc_graph):
        bank = _bank(wc_graph, reusable=True)
        bank.ensure(5)
        payload = bank.state_dict()
        payload["generator"] = "SomethingElse"
        fresh = _bank(wc_graph, reusable=True)
        with pytest.raises(CheckpointError):
            fresh.restore_state(payload, bank.pool)

    def test_restore_rejects_pool_size_mismatch(self, wc_graph):
        bank = _bank(wc_graph, reusable=True)
        bank.ensure(5)
        payload = bank.state_dict()
        fresh = _bank(wc_graph, reusable=True)
        with pytest.raises(CheckpointError):
            fresh.restore_state(payload, _filled(wc_graph, 3))


class TestCorruptedCheckpoints:
    """Persisted bank state must be refused — never half-loaded — when the
    file on disk is truncated or corrupted (the torn-write crash case)."""

    def _saved_session(self, wc_graph, path):
        from repro.engine.session import QuerySession

        session = QuerySession(wc_graph, "subsim", seed=17)
        session.maximize(5, eps=0.4)
        session.save(path)
        return session

    def test_truncated_checkpoint_refused(self, wc_graph, tmp_path):
        from repro.engine.session import QuerySession

        path = tmp_path / "session.npz"
        self._saved_session(wc_graph, path)
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) // 2])
        fresh = QuerySession(wc_graph, "subsim", seed=17)
        with pytest.raises(CheckpointError):
            fresh.restore(path)

    def test_garbage_bytes_refused(self, wc_graph, tmp_path):
        from repro.engine.session import QuerySession

        path = tmp_path / "session.npz"
        path.write_bytes(b"\x00" * 256)
        fresh = QuerySession(wc_graph, "subsim", seed=17)
        with pytest.raises(CheckpointError):
            fresh.restore(path)

    def test_cold_start_after_refusal_is_bit_identical(self, wc_graph, tmp_path):
        from repro.engine.session import QuerySession

        path = tmp_path / "session.npz"
        reference = QuerySession(wc_graph, "subsim", seed=17)
        first = reference.maximize(5, eps=0.4)
        reference.save(path)
        second = reference.maximize(8, eps=0.4)
        path.write_bytes(b"not a checkpoint")

        fresh = QuerySession(wc_graph, "subsim", seed=17)
        with pytest.raises(CheckpointError):
            fresh.restore(path)
        # The refused restore leaves the session untouched: cold-starting
        # regenerates the identical prefix and answers bit-identically.
        assert fresh.maximize(5, eps=0.4).seeds == first.seeds
        assert fresh.maximize(8, eps=0.4).seeds == second.seeds
        assert fresh.queries_served == 2

    def test_byte_capped_session_serves_through_eviction(self, wc_graph):
        from repro.engine.session import QuerySession

        capped = QuerySession(wc_graph, "subsim", seed=17, byte_cap=1)
        uncapped = QuerySession(wc_graph, "subsim", seed=17)
        for k in (5, 8, 5):
            a = capped.maximize(k, eps=0.4)
            b = uncapped.maximize(k, eps=0.4)
            # Eviction between queries never changes answers, only cost.
            assert a.seeds == b.seeds
        assert capped.metrics.value("bank.evictions") >= 2
        assert uncapped.metrics.value("bank.evictions") == 0


class TestRepair:
    """In-place resampling of delta-invalidated sets (journal replay)."""

    def _fresh(self, entropy=7, n=300, count=120):
        from repro.graphs.generators import preferential_attachment
        from repro.graphs.weights import wc_weights

        graph = wc_weights(
            preferential_attachment(n, 3, seed=1, reciprocal=0.3)
        )
        bank = RRBank(
            graph,
            VanillaICGenerator(graph),
            np.random.default_rng(np.random.SeedSequence(entropy, spawn_key=(1,))),
            role="r",
            reusable=True,
            entropy=entropy,
        )
        bank.ensure(count)
        return graph, bank

    def _uncovered_in_edge(self, graph, bank):
        coverage = bank.pool.coverage_counts()
        for v in np.flatnonzero(coverage == 0):
            lo, hi = graph.in_indptr[v], graph.in_indptr[v + 1]
            if hi > lo:
                return (int(graph.in_indices[lo]), int(v))
        raise AssertionError("no uncovered node with in-edges")

    def _covered_in_edge(self, graph, bank):
        coverage = bank.pool.coverage_counts()
        order = np.argsort(coverage)[::-1]
        for v in order:
            lo, hi = graph.in_indptr[v], graph.in_indptr[v + 1]
            if coverage[v] > 0 and hi > lo:
                return (int(graph.in_indices[lo]), int(v))
        raise AssertionError("no covered node with in-edges")

    def test_transient_bank_cannot_repair(self, wc_graph):
        with pytest.raises(ConfigurationError, match="reusable"):
            _bank(wc_graph).repair(np.array([0]))

    def test_zero_dirty_repair_is_bit_identical_to_cold(self):
        from repro.graphs.dynamic import GraphDelta

        graph, bank = self._fresh()
        edge = self._uncovered_in_edge(graph, bank)
        touched = graph.apply_delta(GraphDelta(deletes=[edge]))
        stats = bank.repair(touched)
        assert stats["num_dirty"] == 0
        assert stats["num_resampled"] == 0

        cold_graph, cold = self._fresh()
        cold_graph.apply_delta(GraphDelta(deletes=[edge]))
        # cold bank regenerated on the mutated graph from the same origin
        cold.evict()
        cold.ensure(bank.pool.num_rr)
        np.testing.assert_array_equal(
            bank.pool.rr_indptr, cold.pool.rr_indptr
        )
        np.testing.assert_array_equal(bank.pool.rr_nodes, cold.pool.rr_nodes)

    def test_dirty_repair_is_deterministic(self):
        from repro.graphs.dynamic import GraphDelta

        pools = []
        infos = []
        for _ in range(2):
            graph, bank = self._fresh()
            edge = self._covered_in_edge(graph, bank)
            touched = graph.apply_delta(GraphDelta(deletes=[edge]))
            infos.append(bank.repair(touched))
            pools.append(
                (bank.pool.rr_indptr.copy(), bank.pool.rr_nodes.copy())
            )
        assert infos[0]["num_dirty"] == infos[1]["num_dirty"] > 0
        assert infos[0]["num_resampled"] == infos[1]["num_resampled"]
        assert infos[0]["num_fallback"] == 0
        np.testing.assert_array_equal(pools[0][0], pools[1][0])
        np.testing.assert_array_equal(pools[0][1], pools[1][1])

    def test_repair_keeps_clean_sets_verbatim(self):
        from repro.graphs.dynamic import GraphDelta

        graph, bank = self._fresh()
        before = [
            np.array(bank.pool.set_nodes(i))
            for i in range(bank.pool.num_rr)
        ]
        edge = self._covered_in_edge(graph, bank)
        touched = graph.apply_delta(GraphDelta(deletes=[edge]))
        dirty = set(bank.pool.sets_touching(touched).tolist())
        bank.repair(touched)
        for i in range(bank.pool.num_rr):
            if i not in dirty:
                np.testing.assert_array_equal(
                    bank.pool.set_nodes(i), before[i]
                )

    @staticmethod
    def _burst_churn_delta(graph, fraction, seed):
        """A delta over ~``fraction`` of the edges, in per-user bursts.

        ``fraction * m / 4`` users (uniform over nodes with in-degree >= 2)
        each lose one in-edge, get one reweighted and gain two new ones, so
        the touched nodes are those users.
        """
        from repro.graphs.dynamic import GraphDelta

        rng = np.random.default_rng(seed)
        users = rng.choice(
            np.flatnonzero(np.diff(graph.in_indptr) >= 2),
            max(1, int(round(graph.m * fraction)) // 4),
            replace=False,
        )
        srcs = np.repeat(np.arange(graph.n), np.diff(graph.out_indptr))
        existing = set(zip(srcs.tolist(), graph.out_indices.tolist()))
        deletes, updates, inserts = [], [], []
        for v in users.tolist():
            block = graph.in_indices[graph.in_indptr[v]:graph.in_indptr[v + 1]]
            lost, reweighted = rng.choice(len(block), 2, replace=False)
            deletes.append((int(block[lost]), v))
            updates.append((int(block[reweighted]), v, rng.uniform(0.01, 0.5)))
            gained = 0
            while gained < 2:
                u = int(rng.integers(0, graph.n))
                if u != v and (u, v) not in existing:
                    existing.add((u, v))
                    inserts.append((u, v, rng.uniform(0.01, 0.5)))
                    gained += 1
        return GraphDelta(inserts=inserts, deletes=deletes, updates=updates)

    def test_journal_replay_repair_matches_cold_distribution(self):
        """Replaying the journal on the mutated graph must give a pool
        distributed like a cold pool there: the property that makes
        keeping clean sets across a delta sound."""
        scipy_stats = pytest.importorskip("scipy.stats")
        from repro.graphs.generators import preferential_attachment
        from repro.graphs.weights import wc_weights
        from repro.rrsets.subsim import SubsimICGenerator

        def graph():
            return wc_weights(
                preferential_attachment(1500, 3, seed=1, reciprocal=0.3)
            )

        def filled_bank(graph, entropy):
            bank = RRBank(
                graph,
                SubsimICGenerator(graph),
                np.random.default_rng(
                    np.random.SeedSequence(entropy, spawn_key=(1,))
                ),
                role="r",
                reusable=True,
                entropy=entropy,
            )
            bank.ensure(4000)
            return bank

        warm_graph = graph()
        delta = self._burst_churn_delta(warm_graph, 0.01, seed=11)
        warm = filled_bank(warm_graph, entropy=7)
        touched = warm_graph.apply_delta(delta)
        stats = warm.repair(touched)
        assert stats["num_dirty"] > 0
        assert stats["num_fallback"] == 0  # every dirty set was replayed

        cold_graph = graph()
        cold_graph.apply_delta(delta)
        cold = filled_bank(cold_graph, entropy=8)
        warm_sizes, cold_sizes = warm.pool.set_sizes(), cold.pool.set_sizes()
        ks = scipy_stats.ks_2samp(warm_sizes, cold_sizes)
        assert ks.pvalue > 0.01
        # The whole pool is ~97% clean sets, so the check above is blind to
        # all but gross repair faults.  The sets holding a touched node are
        # the replayed ones; conditioned on that same event they must
        # still match the cold pool.
        ks = scipy_stats.ks_2samp(
            warm_sizes[warm.pool.sets_touching(touched)],
            cold_sizes[cold.pool.sets_touching(touched)],
        )
        assert ks.pvalue > 0.01

    def test_uncovered_dirty_sets_fall_back_to_fresh_seeds(self):
        from repro.graphs.dynamic import GraphDelta

        graph, bank = self._fresh()
        bank._journal.clear()  # simulate an adopted / pre-journal pool
        edge = self._covered_in_edge(graph, bank)
        touched = graph.apply_delta(GraphDelta(deletes=[edge]))
        stats = bank.repair(touched)
        assert stats["num_fallback"] == stats["num_dirty"] > 0

    def test_fallback_without_entropy_rejected(self):
        from repro.graphs.dynamic import GraphDelta
        from repro.graphs.generators import preferential_attachment
        from repro.graphs.weights import wc_weights

        graph = wc_weights(
            preferential_attachment(300, 3, seed=1, reciprocal=0.3)
        )
        bank = RRBank(
            graph,
            VanillaICGenerator(graph),
            np.random.default_rng(7),
            reusable=True,
        )
        bank.ensure(120)
        bank._journal.clear()
        edge = self._covered_in_edge(graph, bank)
        touched = graph.apply_delta(GraphDelta(deletes=[edge]))
        with pytest.raises(ConfigurationError, match="entropy"):
            bank.repair(touched)

    def test_state_dict_round_trips_journal(self):
        from repro.graphs.dynamic import GraphDelta

        graph_a, bank_a = self._fresh()
        payload = bank_a.state_dict()
        assert payload["journal"] == bank_a._journal

        graph_b, bank_b = self._fresh()
        bank_b._journal.clear()  # restore must bring the journal back
        bank_b.restore_state(payload, bank_b.pool)
        assert bank_b._journal == bank_a._journal
        edge = self._covered_in_edge(graph_a, bank_a)
        for graph, bank in ((graph_a, bank_a), (graph_b, bank_b)):
            touched = graph.apply_delta(GraphDelta(deletes=[edge]))
            stats = bank.repair(touched)
            assert stats["num_fallback"] == 0
        np.testing.assert_array_equal(
            bank_a.pool.rr_nodes, bank_b.pool.rr_nodes
        )

    def test_evict_clears_journal(self):
        graph, bank = self._fresh()
        assert bank._journal
        bank.evict()
        assert bank._journal == []
        bank.ensure(40)
        assert len(bank._journal) == 40


class TestBankMemoryAccounting:
    """RRBank.nbytes() must cover everything the bank pins (satellite S1)."""

    def test_nbytes_includes_journal(self, wc_graph):
        bank = _bank(wc_graph, reusable=True, entropy=7)
        bank.ensure(120)
        assert bank.journal_nbytes() > 0
        assert bank.nbytes() == bank.pool.nbytes() + bank.journal_nbytes()

    def test_pool_bytes_gauge_reports_bank_total(self, wc_graph):
        from repro.observability import MetricsRegistry

        metrics = MetricsRegistry()
        bank = _bank(wc_graph, reusable=True, entropy=7)
        bank.generator.metrics = metrics
        bank.ensure(100)
        # The gauge must carry the bank-level figure (pool + journal),
        # not the pool-only number extend() published mid-way.
        assert metrics.gauge("rr_pool_bytes") == bank.nbytes()
        assert bank.nbytes() > bank.pool.nbytes()

    def test_byte_cap_eviction_sees_journal_bytes(self, wc_graph):
        bank = _bank(wc_graph, reusable=True, entropy=7)
        bank.ensure(100)
        # Cap between pool-only and pool+journal: eviction must trigger.
        bank.byte_cap = bank.pool.nbytes() + bank.journal_nbytes() // 2
        assert bank.over_cap
        bank.begin_query()
        bank.ensure(100)
        assert bank.end_query()
        assert bank.pool.num_rr == 0


class TestEvictionRepairInterplay:
    """Eviction, graph deltas, and fallback repair compose (satellite S3)."""

    def _graph(self):
        from repro.graphs.generators import preferential_attachment
        from repro.graphs.weights import wc_weights

        return wc_weights(
            preferential_attachment(300, 3, seed=1, reciprocal=0.3)
        )

    def _covered_edge(self, graph, pool):
        coverage = pool.coverage_counts()
        for v in np.argsort(coverage)[::-1]:
            lo, hi = graph.in_indptr[v], graph.in_indptr[v + 1]
            if coverage[v] > 0 and hi > lo:
                return (int(graph.in_indices[lo]), int(v))
        raise AssertionError("no covered node with in-edges")

    def test_journal_loss_repair_uses_fallback_and_stays_distributed(self):
        scipy_stats = pytest.importorskip("scipy.stats")
        from repro.engine.session import QuerySession
        from repro.graphs.dynamic import GraphDelta

        graph = self._graph()
        session = QuerySession(graph, "subsim", seed=17)
        session.maximize(5, eps=0.4)
        banks = session.provider.persistent_banks()
        role, bank = max(
            banks.items(), key=lambda item: item[1].pool.num_rr
        )
        edge = self._covered_edge(graph, bank.pool)
        for b in banks.values():
            b._journal.clear()  # simulate adopted / pre-journal pools

        info = session.apply_delta(GraphDelta(deletes=[edge]))
        dirty = sum(s["num_dirty"] for s in info["banks"].values())
        fallback = sum(s["num_fallback"] for s in info["banks"].values())
        # Every dirty set fell back to an entropy-derived stream, and the
        # session surfaces the figure instead of swallowing it.
        assert fallback == dirty > 0
        assert info["banks"][role]["num_fallback"] > 0

        # The fallback-repaired pool must stay distributed like a cold
        # pool on the mutated graph: KS on the RR-size distributions.
        cold = QuerySession(graph, "subsim", seed=99)
        cold.maximize(5, eps=0.4)
        cold_bank = max(
            cold.provider.persistent_banks().values(),
            key=lambda b: b.pool.num_rr,
        )
        theta = min(bank.pool.num_rr, cold_bank.pool.num_rr)
        stat = scipy_stats.ks_2samp(
            bank.pool.set_sizes()[:theta],
            cold_bank.pool.set_sizes()[:theta],
        )
        assert stat.pvalue > 0.01

        # And the repaired session still answers queries.
        result = session.maximize(5, eps=0.4)
        assert len(result.seeds) == 5

    def test_evicted_bank_delta_then_requery_matches_cold(self):
        from repro.engine.session import QuerySession
        from repro.graphs.dynamic import GraphDelta

        graph = self._graph()
        capped = QuerySession(graph, "subsim", seed=17, byte_cap=1)
        capped.maximize(5, eps=0.4)  # eviction runs after the query
        banks = capped.provider.persistent_banks()
        for bank in banks.values():
            assert bank.pool.num_rr == 0 and bank._journal == []

        edge = (int(graph.in_indices[graph.in_indptr[1]]), 1)
        info = capped.apply_delta(GraphDelta(deletes=[edge]))
        # Nothing resident, nothing to repair — and nothing to fall back.
        for stats in info["banks"].values():
            assert stats["num_dirty"] == 0
            assert stats["num_fallback"] == 0

        warm = capped.maximize(5, eps=0.4)

        cold_graph = self._graph()
        cold_graph.apply_delta(GraphDelta(deletes=[edge]))
        cold = QuerySession(cold_graph, "subsim", seed=17)
        # Same entropy, same mutated graph: the evicted session's rewound
        # stream regenerates the identical pool, so answers must match.
        assert cold.maximize(5, eps=0.4).seeds == warm.seeds
