"""Running algorithms on the persistent shard runtime.

The shard runtime is reached only through ``QuerySession(shards=...)``.
End-to-end checks that sharded sessions are deterministic, reuse the warm
pool across queries, and refuse the algorithms and configurations the
shard runtime cannot honor before any worker starts.
"""

from __future__ import annotations

import multiprocessing

import pytest

from repro.core.registry import available_algorithms, get_algorithm
from repro.engine.session import QuerySession
from repro.graphs.generators import erdos_renyi
from repro.graphs.weights import wc_weights
from repro.runtime import Budget
from repro.utils.exceptions import ConfigurationError


@pytest.fixture(scope="module")
def graph():
    return wc_weights(erdos_renyi(200, 4.0, seed=17))


def _unshardable_algorithms():
    probe = wc_weights(erdos_renyi(10, 2.0, seed=1))
    return [
        name
        for name in available_algorithms()
        if not get_algorithm(name, probe).supports_shards
    ]


def _sharded_query(graph, name, k, eps, *, seed, budget=None, **kwargs):
    with QuerySession(graph, name, seed=seed, shards=2, **kwargs) as session:
        return session.maximize(k, eps=eps, batch_size=16, budget=budget)


class TestRunWithShards:
    @pytest.mark.parametrize(
        "name", ["opim-c", "subsim", "hist+subsim", "opim-c-lt"]
    )
    def test_run_to_run_deterministic(self, graph, name):
        results = []
        for _ in range(2):
            result = _sharded_query(graph, name, 5, 0.4, seed=3)
            results.append(
                (result.seeds, result.num_rr_sets, result.status)
            )
        assert results[0] == results[1]
        assert results[0][2] == "complete"

    def test_rr_budget_enforced_at_request_boundary(self, graph):
        result = _sharded_query(
            graph, "subsim", 5, 0.1, seed=3, budget=Budget(max_rr_sets=150)
        )
        assert result.status == "partial"
        assert result.stop_reason == "num_rr_sets"
        assert 0 < result.num_rr_sets <= 150

    def test_lt_model_runs_sharded(self, graph):
        result = _sharded_query(
            graph, "imm-lt", 3, 0.5, seed=9, max_rr_sets=2000
        )
        assert result.status in ("complete", "partial")
        assert len(result.seeds) == 3


class TestValidation:
    @pytest.mark.parametrize("name", _unshardable_algorithms())
    def test_unshardable_algorithms_fail_before_spawning(self, graph, name):
        before = multiprocessing.active_children()
        with pytest.raises(ConfigurationError, match="shards=None"):
            QuerySession(graph, name, seed=1, shards=2)
        assert multiprocessing.active_children() == before


class TestShardedSession:
    def test_sessions_deterministic(self, graph):
        seeds = []
        for _ in range(2):
            with QuerySession(graph, "subsim", seed=5, shards=2) as session:
                result = session.maximize(4, eps=0.4, batch_size=16)
                seeds.append(result.seeds)
        assert seeds[0] == seeds[1]

    def test_warm_queries_reuse_shard_banks(self, graph):
        with QuerySession(graph, "subsim", seed=5, shards=2) as session:
            session.maximize(3, eps=0.4, batch_size=16)
            generated_cold = session.metrics.value("bank.sets_generated")
            session.maximize(4, eps=0.4, batch_size=16)
            assert session.metrics.value("bank.sets_reused") > 0
            assert session.metrics.value("bank.sets_generated") >= generated_cold

    def test_byte_capped_session_matches_uncapped(self, graph):
        """Eviction under a byte cap regenerates the evicted prefix
        bit-identically, so capped answers equal uncapped ones."""
        answers = []
        for cap in (None, 16 * 1024):
            with QuerySession(
                graph, "subsim", seed=5, shards=2, byte_cap=cap
            ) as session:
                answers.append([
                    (r.seeds, r.num_rr_sets, r.lower_bound)
                    for r in (
                        session.maximize(k, eps=0.3, batch_size=16)
                        for k in (3, 5, 4)
                    )
                ])
                if cap is not None:
                    assert session.metrics.value("bank.evictions") > 0
        assert answers[0] == answers[1]

    def test_save_rejected_when_sharded(self, graph, tmp_path):
        with QuerySession(graph, "subsim", seed=5, shards=2) as session:
            session.maximize(3, eps=0.4, batch_size=16)
            with pytest.raises(ConfigurationError):
                session.save(str(tmp_path / "s.npz"))

    def test_spill_dir_requires_shards(self, graph, tmp_path):
        with pytest.raises(ConfigurationError):
            QuerySession(
                graph, "subsim", seed=5, spill_dir=str(tmp_path)
            )

    def test_close_idempotent(self, graph):
        session = QuerySession(graph, "subsim", seed=5, shards=2)
        session.maximize(3, eps=0.4, batch_size=16)
        session.close()
        session.close()
