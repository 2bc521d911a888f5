"""Scatter-gather selection must be *identical* to the single-pool path.

One set of RR sets, materialized twice: once in a plain
:class:`RRCollection`, once scattered (rank-major, same global order)
into a :class:`ShardPool`.  Greedy must then make the same
selections, produce the same histories/bounds/metrics, and gather the
same covered mask — the "provably identical" contract of
:mod:`repro.coverage.sharded`.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.coverage.greedy import max_coverage_greedy
from repro.engine.shards import ShardedRRBank
from repro.graphs.generators import erdos_renyi
from repro.graphs.weights import wc_weights
from repro.observability import MetricsRegistry
from repro.rrsets.collection import RRCollection
from repro.engine.shards import shard_counts
from repro.rrsets.shardpool import ShardPool
from repro.rrsets.subsim import SubsimICGenerator
from repro.utils.exceptions import ConfigurationError

NUM_SETS = 400
SHARDS = 3


@pytest.fixture(scope="module")
def graph():
    return wc_weights(erdos_renyi(250, 4.0, seed=13))


@pytest.fixture(scope="module")
def pools(graph):
    """(single RRCollection, warm ShardPool, adopted ShardedRRBank)."""
    rng = np.random.default_rng(21)
    gen = SubsimICGenerator(graph)
    sets = [gen.generate(rng) for _ in range(NUM_SETS)]
    counts = shard_counts(NUM_SETS, SHARDS)
    single = RRCollection(graph.n)
    shards_data, start = [], 0
    for c in counts:
        chunk = sets[start:start + c]
        start += c
        nodes = (
            np.concatenate(chunk) if chunk else np.empty(0, np.int64)
        )
        sizes = np.array([len(s) for s in chunk], dtype=np.int64)
        shards_data.append((nodes, sizes))
        for s in chunk:  # single pool mirrors the rank-major global order
            single.add(s)
    pool = ShardPool(graph, SHARDS)
    pool.adopt("r", shards_data, SubsimICGenerator)
    bank = ShardedRRBank(
        graph, SubsimICGenerator(graph), pool, role="r", entropy=1
    )
    bank._appends.append(list(counts))
    bank._rank_totals = list(counts)
    yield single, pool, bank
    pool.close()


def _assert_same(result_a, result_b):
    assert result_a.seeds == result_b.seeds
    assert result_a.coverage == result_b.coverage
    assert result_a.coverage_history == result_b.coverage_history
    assert result_a.upper_bound_coverage == result_b.upper_bound_coverage
    np.testing.assert_array_equal(result_a.covered, result_b.covered)


class TestGreedyIdentity:
    def test_full_view(self, graph, pools):
        single, _, bank = pools
        out_deg = np.diff(graph.out_indptr)
        m_single, m_sharded = MetricsRegistry(), MetricsRegistry()
        a = max_coverage_greedy(
            single, 8, out_degree=out_deg, metrics=m_single
        )
        b = max_coverage_greedy(
            bank.view(NUM_SETS), 8, out_degree=out_deg, metrics=m_sharded
        )
        _assert_same(a, b)
        for key in ("coverage.selections", "coverage.gain_decrements"):
            assert m_single.value(key) == m_sharded.value(key)

    def test_prefix_view(self, pools):
        single, _, bank = pools
        prefix = single.prefix(150)
        a = max_coverage_greedy(prefix, 5)
        b = max_coverage_greedy(bank.view(150), 5)
        _assert_same(a, b)

    def test_sentinel_path(self, graph, pools):
        # HIST's IM-Sentinel phase: sentinels pre-cover their sets and are
        # barred from re-selection.
        single, _, bank = pools
        sentinels = [int(np.argmax(single.coverage_counts())), 3]
        view = bank.view(NUM_SETS)
        a = max_coverage_greedy(
            single, 4, topk=6,
            initial_covered=single.covered_mask(sentinels),
            excluded=sentinels,
        )
        b = max_coverage_greedy(
            view, 4, topk=6,
            initial_covered=view.covered_mask(sentinels),
            excluded=sentinels,
        )
        _assert_same(a, b)

    def test_raw_mask_rejected(self, pools):
        _, _, bank = pools
        with pytest.raises(ConfigurationError):
            max_coverage_greedy(
                bank.view(NUM_SETS), 3,
                initial_covered=np.zeros(NUM_SETS, dtype=bool),
            )


class TestViewQueries:
    def test_coverage_and_influence(self, pools):
        single, _, bank = pools
        view = bank.view(NUM_SETS)
        seeds = [1, 5, 9]
        assert view.coverage(seeds) == single.coverage(seeds)
        assert view.estimate_influence(seeds) == pytest.approx(
            single.estimate_influence(seeds)
        )
        np.testing.assert_array_equal(
            view.coverage_counts(), single.coverage_counts()
        )

    def test_per_set_sums_with_stop(self, graph, pools):
        single, _, bank = pools
        view = bank.view(NUM_SETS)
        values = np.arange(graph.n, dtype=np.float64)
        np.testing.assert_allclose(
            view.per_set_sums(values, stop=300),
            single.per_set_sums(values, stop=300),
        )
