"""Running algorithms and sessions on the persistent shard runtime.

End-to-end checks that ``run(shards=...)`` and ``QuerySession(shards=...)``
are deterministic, reuse the warm pool across queries, and reject the
configurations the shard runtime cannot honor.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.registry import get_algorithm
from repro.engine.session import QuerySession
from repro.graphs.generators import erdos_renyi
from repro.graphs.weights import wc_weights
from repro.rrsets.shardpool import ShardPool
from repro.runtime import Budget
from repro.utils.exceptions import ConfigurationError


@pytest.fixture(scope="module")
def graph():
    return wc_weights(erdos_renyi(200, 4.0, seed=17))


class TestRunWithShards:
    @pytest.mark.parametrize(
        "name", ["opim-c", "subsim", "hist+subsim", "opim-c-lt"]
    )
    def test_run_to_run_deterministic(self, graph, name):
        results = []
        for _ in range(2):
            algo = get_algorithm(name, graph)
            result = algo.run(
                5, eps=0.4, seed=3, shards=2, batch_size=16
            )
            results.append(
                (result.seeds, result.num_rr_sets, result.status)
            )
        assert results[0] == results[1]
        assert results[0][2] == "complete"

    def test_existing_pool_reused_across_runs(self, graph):
        with ShardPool(graph, 2) as pool:
            first = get_algorithm("subsim", graph).run(
                4, eps=0.4, seed=3, shards=pool, batch_size=16
            )
            second = get_algorithm("subsim", graph).run(
                4, eps=0.4, seed=3, shards=pool, batch_size=16
            )
            assert first.seeds == second.seeds
            # The pool survives the runs (they did not close it).
            assert pool.stats() is not None

    def test_rr_budget_enforced_at_request_boundary(self, graph):
        result = get_algorithm("subsim", graph).run(
            5, eps=0.1, seed=3, shards=2, batch_size=16,
            budget=Budget(max_rr_sets=150),
        )
        assert result.status == "partial"
        assert result.stop_reason == "num_rr_sets"
        assert 0 < result.num_rr_sets <= 150

    def test_lt_model_runs_sharded(self, graph):
        result = get_algorithm("imm-lt", graph, max_rr_sets=2000).run(
            3, eps=0.5, seed=9, shards=2, batch_size=16
        )
        assert result.status in ("complete", "partial")
        assert len(result.seeds) == 3


class TestValidation:
    def test_spill_dir_requires_shards(self, graph, tmp_path):
        with pytest.raises(ConfigurationError):
            get_algorithm("subsim", graph).run(
                3, eps=0.4, seed=1, spill_dir=str(tmp_path)
            )

    def test_checkpoint_and_shards_conflict(self, graph, tmp_path):
        with pytest.raises(ConfigurationError):
            get_algorithm("subsim", graph).run(
                3, eps=0.4, seed=1, shards=2,
                checkpoint=str(tmp_path / "c.npz"),
            )

    def test_cursor_algorithms_reject_shards(self, graph):
        for name in ("ssa", "borgs-ris"):
            with pytest.raises(ConfigurationError):
                get_algorithm(name, graph).run(3, eps=0.4, seed=1, shards=2)

    def test_non_rr_algorithms_reject_shards(self, graph):
        with pytest.raises(ConfigurationError):
            get_algorithm("degree", graph).run(3, seed=1, shards=2)


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
