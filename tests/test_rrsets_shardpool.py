"""ShardPool: persistent shard workers, chaos recovery, spill, adoption.

These tests exercise the worker runtime directly at the request level —
determinism of repeated requests, resident accumulation across requests,
journal-replay crash recovery (with and without checkpoint shortening),
and spill-to-disk transparency.  Selection equivalence against the
single-pool implementations lives in ``test_coverage_sharded.py``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.graphs.generators import erdos_renyi
from repro.graphs.weights import wc_weights
from repro.observability import MetricsRegistry
from repro.engine.shards import shard_counts
from repro.rrsets.collection import RRCollection
from repro.rrsets.shardpool import ShardPool, ShardPoolError
from repro.rrsets.subsim import SubsimICGenerator


@pytest.fixture(scope="module")
def graph():
    return wc_weights(erdos_renyi(150, 4.0, seed=7))


def _generate(pool, role="r", count=120, req=0):
    """One deterministic generate request; returns the per-rank counts."""
    counts = shard_counts(count, pool.shards)
    seeds = [
        np.random.SeedSequence(99, spawn_key=(1, rank, req))
        for rank in range(pool.shards)
    ]
    pool.generate(
        role,
        counts,
        seeds,
        generator_cls=SubsimICGenerator,
        batch_size=16,
    )
    return counts


def _fingerprint(pool, graph, role, limits):
    """Order-sensitive digest of a role's resident shards."""
    values = np.arange(1, graph.n + 1, dtype=np.float64)
    per_rank = pool.per_set_sums(role, limits, values)
    return (
        pool.coverage_counts(role, limits).tolist(),
        [rank.tolist() for rank in per_rank],
    )


class TestDeterminism:
    def test_repeat_requests_identical(self, graph):
        fps = []
        for _ in range(2):
            with ShardPool(graph, 2) as pool:
                c0 = _generate(pool, req=0)
                c1 = _generate(pool, req=1)
                limits = [a + b for a, b in zip(c0, c1)]
                fps.append(_fingerprint(pool, graph, "r", limits))
        assert fps[0] == fps[1]

    def test_resident_accumulation(self, graph):
        with ShardPool(graph, 2) as pool:
            c0 = _generate(pool, count=60, req=0)
            c1 = _generate(pool, count=80, req=1)
            stats = pool.stats()
            total = sum(s["r"]["num_rr"] for s in stats)
            assert total == sum(c0) + sum(c1)

    def test_zero_count_rank_round_trips(self, graph):
        with ShardPool(graph, 3) as pool:
            counts = [5, 0, 3]
            seeds = [
                np.random.SeedSequence(4, spawn_key=(0, rank, 0))
                for rank in range(3)
            ]
            replies = pool.generate(
                "r", counts, seeds,
                generator_cls=SubsimICGenerator, batch_size=4,
            )
            assert [r["num_rr"] for r in replies] == counts

    def test_shards_must_be_positive(self, graph):
        with pytest.raises(ShardPoolError):
            ShardPool(graph, 0)


class TestCrashRecovery:
    def _run(self, graph, crash_rank=None, spill_dir=None):
        metrics = MetricsRegistry()
        with ShardPool(graph, 2, spill_dir=spill_dir, metrics=metrics) as pool:
            c0 = _generate(pool, req=0)
            if crash_rank is not None:
                pool.crash_next_generate(crash_rank)
            c1 = _generate(pool, req=1)
            limits = [a + b for a, b in zip(c0, c1)]
            fp = _fingerprint(pool, graph, "r", limits)
        return fp, metrics.value("shardpool.worker_crashes")

    def test_crash_mid_generate_bit_identical(self, graph):
        clean, crashes0 = self._run(graph)
        crashed, crashes1 = self._run(graph, crash_rank=0)
        assert crashes0 == 0 and crashes1 == 1
        assert clean == crashed

    def test_crash_recovery_with_checkpoints(self, graph, tmp_path):
        clean, _ = self._run(graph)
        crashed, crashes = self._run(
            graph, crash_rank=1, spill_dir=str(tmp_path)
        )
        assert crashes == 1
        assert clean == crashed

    def test_fresh_pool_ignores_previous_pools_checkpoints(
        self, graph, tmp_path
    ):
        # A spill dir reused across pool lifetimes holds checkpoints from
        # the dead pool.  A fresh pool must discard them — adopting one
        # would leave worker ``seq`` ahead of the empty journal and every
        # request would be misread as a replay.
        spill_dir = str(tmp_path)
        with ShardPool(
            graph, 2, spill_dir=spill_dir, checkpoint_every=1
        ) as pool:
            _generate(pool, req=0)
        with ShardPool(graph, 2, spill_dir=spill_dir) as pool:
            counts = _generate(pool, req=0)
            stats = pool.stats()
            assert sum(s["r"]["num_rr"] for s in stats) == sum(counts)
            fresh = _fingerprint(pool, graph, "r", counts)
        with ShardPool(graph, 2) as pool:
            counts = _generate(pool, req=0)
            assert fresh == _fingerprint(pool, graph, "r", counts)

    def test_crash_during_selection_recovers(self, graph):
        # A selection open at crash time is rebuilt (limits + marks) so
        # the gather after recovery matches the uncrashed run.
        results = []
        for crash in (False, True):
            with ShardPool(graph, 2) as pool:
                counts = _generate(pool, req=0)
                pool.select_begin("r", counts)
                pool.select_mark("r", 0, want_decrements=False)
                if crash:
                    pool.crash_next_generate(0)
                    _generate(pool, role="other", req=1)
                gains = pool.select_uncovered(
                    "r", np.arange(graph.n, dtype=np.int64)
                )
                covered = [c.tolist() for c in pool.select_covered("r")]
                pool.select_end("r")
                results.append((gains.tolist(), covered))
        assert results[0] == results[1]


class TestSpill:
    def test_spill_preserves_queries(self, graph, tmp_path):
        with ShardPool(graph, 2, spill_dir=str(tmp_path)) as pool:
            counts = _generate(pool, req=0)
            before = _fingerprint(pool, graph, "r", counts)
            pool.spill("r")
            stats = pool.stats()
            assert all(s["r"]["spilled"] for s in stats)
            assert before == _fingerprint(pool, graph, "r", counts)

    def test_generate_after_spill_promotes(self, graph, tmp_path):
        with ShardPool(graph, 2, spill_dir=str(tmp_path)) as pool:
            c0 = _generate(pool, req=0)
            pool.spill("r")
            c1 = _generate(pool, req=1)
            stats = pool.stats()
            total = sum(s["r"]["num_rr"] for s in stats)
            assert total == sum(c0) + sum(c1)
            assert not any(s["r"]["spilled"] for s in stats)

    def test_spill_without_dir_rejected(self, graph):
        with ShardPool(graph, 2) as pool:
            _generate(pool, req=0)
            with pytest.raises(ShardPoolError):
                pool.spill("r")


class TestAdopt:
    def test_adopted_sets_answer_queries(self, graph):
        rng = np.random.default_rng(11)
        gen = SubsimICGenerator(graph)
        sets = [gen.generate(rng) for _ in range(40)]
        counts = shard_counts(len(sets), 2)
        shards_data, start = [], 0
        reference = RRCollection(graph.n)
        for c in counts:
            chunk = sets[start:start + c]
            start += c
            nodes = np.concatenate(chunk) if chunk else np.empty(0, np.int64)
            sizes = np.array([len(s) for s in chunk], dtype=np.int64)
            shards_data.append((nodes, sizes))
            for s in chunk:
                reference.add(s)
        with ShardPool(graph, 2) as pool:
            pool.adopt("r", shards_data, SubsimICGenerator)
            np.testing.assert_array_equal(
                pool.coverage_counts("r", counts),
                reference.coverage_counts(),
            )
            seeds = [int(np.argmax(reference.coverage_counts()))]
            assert pool.coverage("r", counts, seeds) == reference.coverage(
                seeds
            )


class TestDynamicDeltas:
    """apply_delta + repair commands, including crash-replay determinism."""

    def _delta(self, graph):
        from repro.graphs.dynamic import GraphDelta

        u = next(
            i for i in range(graph.n)
            if graph.out_indptr[i + 1] > graph.out_indptr[i]
        )
        v = int(graph.out_indices[graph.out_indptr[u]])
        return GraphDelta(deletes=[(u, v)])

    def _mutate_and_repair(self, graph, crash_rank=None):
        delta = self._delta(graph)
        with ShardPool(graph, 2) as pool:
            c0 = _generate(pool, req=0)
            pool.apply_delta(delta)
            replies = pool.repair(
                "r", delta.touched_nodes(),
                entropy=99, role_key=1, epoch=1,
            )
            # the crash fires inside the next generate; the respawned
            # worker must replay apply_delta AND repair from the journal
            # before regenerating its resident sets
            if crash_rank is not None:
                pool.crash_next_generate(crash_rank)
            c1 = _generate(pool, req=1)
            limits = [a + b for a, b in zip(c0, c1)]
            fp = _fingerprint(pool, graph, "r", limits)
        return fp, replies

    def test_repair_resamples_only_dirty_sets(self, graph):
        fp_a, replies_a = self._mutate_and_repair(graph)
        fp_b, replies_b = self._mutate_and_repair(graph)
        assert sum(r["num_dirty"] for r in replies_a) > 0
        assert [r["num_dirty"] for r in replies_a] == [
            r["num_dirty"] for r in replies_b
        ]
        assert fp_a == fp_b

    def test_crashed_worker_replays_delta_and_repair(self, graph):
        clean, _ = self._mutate_and_repair(graph)
        crashed, _ = self._mutate_and_repair(graph, crash_rank=0)
        assert clean == crashed

    def test_delta_leaves_clean_role_queryable(self, graph):
        from repro.graphs.dynamic import GraphDelta

        with ShardPool(graph, 2) as pool:
            counts = _generate(pool, req=0)
            before = _fingerprint(pool, graph, "r", counts)
            # an empty dirty-node set marks nothing dirty: every resident
            # set must survive the delta broadcast + repair verbatim
            pool.apply_delta(self._delta(graph))
            replies = pool.repair(
                "r", np.empty(0, dtype=np.int64),
                entropy=99, role_key=1, epoch=1,
            )
            assert all(r["num_dirty"] == 0 for r in replies)
            assert _fingerprint(pool, graph, "r", counts) == before


class TestJournalCompaction:
    """Checkpoint-covered journal prefixes are trimmed; recovery holds."""

    def _fill(self, pool, requests=5, count=40):
        counts = [
            _generate(pool, count=count, req=req) for req in range(requests)
        ]
        return [sum(c) for c in zip(*counts)]

    def test_compaction_trims_journal(self, graph, tmp_path):
        metrics = MetricsRegistry()
        with ShardPool(
            graph, 2, spill_dir=str(tmp_path), checkpoint_every=1,
            metrics=metrics, journal_compact_threshold=2,
        ) as pool:
            self._fill(pool)
            assert metrics.value("shardpool.journal_compactions") > 0
            assert max(pool.journal_lengths()) < 5
            assert min(pool.checkpoint_seqs()) > 0

    def test_compaction_every_request_keeps_totals(self, graph, tmp_path):
        # Threshold 1 compacts after every journaled request, right after
        # its reply was collected; the resident pools must not notice.
        metrics = MetricsRegistry()
        with ShardPool(
            graph, 2, spill_dir=str(tmp_path), checkpoint_every=1,
            metrics=metrics, journal_compact_threshold=1,
        ) as pool:
            limits = self._fill(pool, requests=3)
            assert metrics.value("shardpool.journal_compactions") > 0
            stats = pool.stats()
            assert [s["r"]["num_rr"] for s in stats] == limits

    def test_no_compaction_without_checkpoints(self, graph):
        metrics = MetricsRegistry()
        with ShardPool(
            graph, 2, metrics=metrics, journal_compact_threshold=2
        ) as pool:
            self._fill(pool)
            assert pool.journal_lengths() == [5, 5]
            assert metrics.value("shardpool.journal_compactions") == 0

    def test_post_compaction_crash_recovery_bit_identical(
        self, graph, tmp_path
    ):
        with ShardPool(graph, 2) as pool:
            limits = self._fill(pool, requests=6)
            clean = _fingerprint(pool, graph, "r", limits)
        metrics = MetricsRegistry()
        with ShardPool(
            graph, 2, spill_dir=str(tmp_path), checkpoint_every=1,
            metrics=metrics, journal_compact_threshold=2,
        ) as pool:
            self._fill(pool)
            assert metrics.value("shardpool.journal_compactions") > 0
            pool.crash_next_generate(0)
            c5 = _generate(pool, count=40, req=5)
            limits = [
                a + b for a, b in zip(self._limits_after(pool, 5), c5)
            ]
            assert clean == _fingerprint(pool, graph, "r", limits)
        assert metrics.value("shardpool.worker_crashes") == 1

    def _limits_after(self, pool, requests, count=40):
        counts = [shard_counts(count, pool.shards) for _ in range(requests)]
        return [sum(c) for c in zip(*counts)]
