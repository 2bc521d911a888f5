"""Equivalence and determinism tests for the batched RR generation engine.

The batched engine draws random numbers in a different order than the
sequential samplers, so pools are not bit-identical across modes — but they
must be *distributionally* identical (same RR-set law), honor the same
sentinel/stop semantics, keep honest counters, and be exactly reproducible
run-to-run for a fixed configuration.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.engine.shards import shard_counts
from repro.rrsets.collection import RRCollection
from repro.rrsets.subsim import SubsimICGenerator
from repro.rrsets.vanilla import VanillaICGenerator
from repro.runtime.control import RunControl
from repro.runtime.budget import Budget
from repro.runtime.cancellation import CancellationToken
from repro.utils.exceptions import ConfigurationError, ExecutionInterrupted

scipy_stats = pytest.importorskip("scipy.stats")

GENERATORS = [VanillaICGenerator, SubsimICGenerator]


def _sizes(graph, cls, count, seed, batch_size=1, stop_mask=None):
    gen = cls(graph)
    gen.batch_size = batch_size
    pool = RRCollection(graph.n)
    pool.extend(count, gen, np.random.default_rng(seed), stop_mask=stop_mask)
    return pool, gen


class TestDistributionalEquivalence:
    """Batched sizes must come from the same distribution as sequential."""

    @pytest.mark.parametrize("cls", GENERATORS, ids=lambda c: c.name)
    def test_ks_sizes_match_sequential(self, wc_graph, cls):
        seq, _ = _sizes(wc_graph, cls, 1200, seed=7)
        bat, _ = _sizes(wc_graph, cls, 1200, seed=701, batch_size=128)
        stat = scipy_stats.ks_2samp(seq.set_sizes(), bat.set_sizes())
        assert stat.pvalue > 1e-3, (
            f"KS p={stat.pvalue:.2e}: batched size distribution diverged "
            f"(seq mean {seq.set_sizes().mean():.2f}, "
            f"bat mean {bat.set_sizes().mean():.2f})"
        )

    @pytest.mark.parametrize("cls", [VanillaICGenerator, SubsimICGenerator],
                             ids=lambda c: c.name)
    def test_mean_size_close(self, wc_graph, cls):
        seq, g1 = _sizes(wc_graph, cls, 2000, seed=11)
        bat, g2 = _sizes(wc_graph, cls, 2000, seed=1101, batch_size=256)
        assert bat.set_sizes().mean() == pytest.approx(
            seq.set_sizes().mean(), rel=0.15
        )
        # Work accounting stays honest: similar edge traffic per set.
        assert g2.counters.edges_examined == pytest.approx(
            g1.counters.edges_examined, rel=0.15
        )

    def test_sets_are_reachable_node_sets(self, path10):
        # On an all-ones path the RR set of root r is {0..r}; the batched
        # engine must produce exactly those, not approximations.
        gen = VanillaICGenerator(path10)
        gen.batch_size = 16
        pool = RRCollection(path10.n)
        pool.extend(64, gen, np.random.default_rng(3))
        for rr_id in range(pool.num_rr):
            rr = pool.set_nodes(rr_id)
            root = rr[0]
            assert sorted(rr.tolist()) == list(range(root + 1))


class TestStopMask:
    @pytest.mark.parametrize("cls", GENERATORS, ids=lambda c: c.name)
    def test_all_sentinels_stop_immediately(self, wc_graph, cls):
        stop = np.ones(wc_graph.n, dtype=bool)
        pool, gen = _sizes(wc_graph, cls, 60, seed=5, batch_size=32,
                           stop_mask=stop)
        assert (pool.set_sizes() == 1).all()
        assert gen.counters.sentinel_hits == 60

    def test_partial_sentinels_truncate(self, wc_graph):
        # Sentinel on the highest-degree hub: batched sets containing it
        # must count a hit; sets avoiding it must not.
        hub = int(np.argmax(wc_graph.out_degree()))
        stop = np.zeros(wc_graph.n, dtype=bool)
        stop[hub] = True
        pool, gen = _sizes(wc_graph, VanillaICGenerator, 400, seed=9,
                           batch_size=64, stop_mask=stop)
        contains_hub = len(pool.rrs_containing(hub))
        assert gen.counters.sentinel_hits == contains_hub
        assert 0 < contains_hub < 400


class TestDeterminism:
    @pytest.mark.parametrize("cls", GENERATORS, ids=lambda c: c.name)
    def test_batched_run_to_run_identical(self, wc_graph, cls):
        p1, g1 = _sizes(wc_graph, cls, 300, seed=21, batch_size=64)
        p2, g2 = _sizes(wc_graph, cls, 300, seed=21, batch_size=64)
        assert np.array_equal(p1.rr_nodes, p2.rr_nodes)
        assert np.array_equal(p1.set_sizes(), p2.set_sizes())
        assert g1.counters.edges_examined == g2.counters.edges_examined
        assert g1.counters.rng_draws == g2.counters.rng_draws

    def test_shard_counts_cover_exactly(self):
        for count in (1, 7, 16, 100):
            for workers in (1, 2, 3, 8):
                shards = shard_counts(count, workers)
                assert sum(shards) == count
                assert max(shards) - min(shards) <= 1


class TestControlIntegration:
    def test_budget_respected_at_batch_boundary(self, wc_graph):
        gen = VanillaICGenerator(wc_graph)
        gen.batch_size = 64
        gen.control = RunControl(budget=Budget(max_rr_sets=100))
        pool = RRCollection(wc_graph.n)
        with pytest.raises(ExecutionInterrupted):
            pool.extend(500, gen, np.random.default_rng(1))
        assert pool.num_rr == 100
        assert gen.counters.sets_generated == 100

    def test_cancellation_checked_between_batches(self, wc_graph):
        token = CancellationToken()
        gen = VanillaICGenerator(wc_graph)
        gen.batch_size = 16

        calls = {"n": 0}
        control = RunControl(token=token)
        original = control.on_rr_start

        def counting_start():
            calls["n"] += 1
            if calls["n"] == 3:  # cancel after two batches began
                token.cancel()
            original()

        control.on_rr_start = counting_start
        gen.control = control
        pool = RRCollection(wc_graph.n)
        with pytest.raises(ExecutionInterrupted):
            pool.extend(200, gen, np.random.default_rng(4))
        # Two whole batches landed before the cancel was observed.
        assert pool.num_rr == 32


class TestRunAPIValidation:
    def test_bad_knobs_rejected(self, wc_graph):
        from repro.algorithms.opimc import OPIMC

        algo = OPIMC(wc_graph, generator_cls=SubsimICGenerator)
        with pytest.raises(ConfigurationError):
            algo.run(3, eps=0.4, seed=0, batch_size=0)

    def test_knobs_reset_after_run(self, wc_graph):
        from repro.algorithms.opimc import OPIMC

        algo = OPIMC(wc_graph, generator_cls=SubsimICGenerator)
        algo.run(3, eps=0.4, seed=0, batch_size=64)
        # The batch size rides on the run's RunControl only, so the next
        # default run replays the sequential schedule bit-identically.
        again = algo.run(3, eps=0.4, seed=0)
        fresh = OPIMC(wc_graph, generator_cls=SubsimICGenerator).run(
            3, eps=0.4, seed=0
        )
        assert algo._control is None
        assert again.seeds == fresh.seeds
        assert again.rng_draws == fresh.rng_draws


class TestAlgorithmsUnderBatching:
    """End-to-end: batched/parallel modes yield valid seed sets."""

    def test_opimc_batched_matches_quality(self, wc_graph):
        from repro.algorithms.opimc import OPIMC
        from repro.estimation.montecarlo import estimate_spread

        algo = OPIMC(wc_graph, generator_cls=SubsimICGenerator)
        r_seq = algo.run(5, eps=0.4, seed=17)
        r_bat = algo.run(5, eps=0.4, seed=17, batch_size=128)
        s_seq = estimate_spread(wc_graph, r_seq.seeds,
                                num_simulations=200, seed=1).mean
        s_bat = estimate_spread(wc_graph, r_bat.seeds,
                                num_simulations=200, seed=1).mean
        assert s_bat >= 0.85 * s_seq

    def test_hist_batched_runs(self, wc_graph):
        from repro.algorithms.hist import HIST

        algo = HIST(wc_graph)
        result = algo.run(4, eps=0.4, seed=23, batch_size=64)
        assert len(result.seeds) == 4
        assert result.status == "complete"

    def test_default_mode_bit_identical_to_legacy_loop(self, wc_graph):
        # batch_size=1 must replay the exact per-set sequential schedule:
        # generate() calls against a fresh rng reproduce extend()'s pool.
        gen = SubsimICGenerator(wc_graph)
        pool = RRCollection(wc_graph.n)
        pool.extend(50, gen, np.random.default_rng(99))
        gen2 = SubsimICGenerator(wc_graph)
        rng = np.random.default_rng(99)
        expected = [gen2.generate(rng) for _ in range(50)]
        assert pool.num_rr == 50
        for i, rr in enumerate(expected):
            assert np.array_equal(pool.set_nodes(i), rr)
        assert gen.counters.rng_draws == gen2.counters.rng_draws
