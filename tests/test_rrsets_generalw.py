"""Equivalence tests for the general-weight batched kernels.

Mirrors ``test_rrsets_batched.py`` for the two kernels that close the
fast-path matrix: the bucket-skipping SUBSIM kernel on skewed (non-uniform)
in-probabilities and the level-synchronous LT kernel.  Batched pools are
not bit-identical to sequential pools (different draw order) but must be
distributionally identical, honor sentinel semantics, account honestly,
and reproduce exactly run-to-run.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro.graphs.weights import lt_normalized_weights, wc_weights
from repro.rrsets import batched
from repro.rrsets.collection import RRCollection
from repro.rrsets.lt import LTGenerator
from repro.rrsets.subsim import SubsimICGenerator
from repro.rrsets.vanilla import VanillaICGenerator
from repro.runtime.budget import Budget
from repro.runtime.control import RunControl
from repro.sampling.precompute import (
    lt_alias_tables,
    sorted_segments,
    uniform_arrays,
)
from repro.utils.exceptions import (
    ConfigurationError,
    ExecutionInterrupted,
    GraphFormatError,
)

scipy_stats = pytest.importorskip("scipy.stats")


@pytest.fixture(scope="module")
def lt_graph(pa_graph):
    """The session PA graph with LT-normalised WC weights."""
    return lt_normalized_weights(wc_weights(pa_graph))


def _sizes(graph, cls, count, seed, batch_size=1, stop_mask=None, **kwargs):
    gen = cls(graph, **kwargs)
    gen.batch_size = batch_size
    pool = RRCollection(graph.n)
    pool.extend(count, gen, np.random.default_rng(seed), stop_mask=stop_mask)
    return pool, gen


class TestSkewedDistributionalEquivalence:
    """Batched SUBSIM on skewed weights vs the sequential samplers."""

    @pytest.mark.parametrize("general_mode", ["sorted", "bucket"])
    def test_ks_sizes_match_sequential(self, skewed_graph, general_mode):
        seq, _ = _sizes(skewed_graph, SubsimICGenerator, 1200, seed=7,
                        general_mode=general_mode)
        bat, _ = _sizes(skewed_graph, SubsimICGenerator, 1200, seed=701,
                        batch_size=128)
        stat = scipy_stats.ks_2samp(seq.set_sizes(), bat.set_sizes())
        assert stat.pvalue > 1e-3, (
            f"KS p={stat.pvalue:.2e}: batched skewed kernel diverged from "
            f"sequential {general_mode} sampler "
            f"(seq mean {seq.set_sizes().mean():.2f}, "
            f"bat mean {bat.set_sizes().mean():.2f})"
        )

    def test_ks_matches_vanilla_reference(self, skewed_graph):
        # Vanilla per-edge coins are the ground-truth IC sampler; the
        # skewed fast path must agree with it, not just with SUBSIM.
        seq, _ = _sizes(skewed_graph, VanillaICGenerator, 1200, seed=13)
        bat, _ = _sizes(skewed_graph, SubsimICGenerator, 1200, seed=1301,
                        batch_size=128)
        stat = scipy_stats.ks_2samp(seq.set_sizes(), bat.set_sizes())
        assert stat.pvalue > 1e-3

    def test_counter_parity_with_sequential(self, skewed_graph):
        seq, g1 = _sizes(skewed_graph, SubsimICGenerator, 2000, seed=11)
        bat, g2 = _sizes(skewed_graph, SubsimICGenerator, 2000, seed=1101,
                         batch_size=256)
        assert bat.set_sizes().mean() == pytest.approx(
            seq.set_sizes().mean(), rel=0.15
        )
        # Field-for-field counter semantics: same expected edge traffic
        # and RNG consumption as the sequential sorted-mode sampler.
        assert g2.counters.edges_examined == pytest.approx(
            g1.counters.edges_examined, rel=0.2
        )
        assert g2.counters.rng_draws == pytest.approx(
            g1.counters.rng_draws, rel=0.2
        )


class TestLTDistributionalEquivalence:
    def test_ks_sizes_match_sequential(self, lt_graph):
        seq, _ = _sizes(lt_graph, LTGenerator, 1500, seed=7)
        bat, _ = _sizes(lt_graph, LTGenerator, 1500, seed=701,
                        batch_size=128)
        stat = scipy_stats.ks_2samp(seq.set_sizes(), bat.set_sizes())
        assert stat.pvalue > 1e-3, (
            f"KS p={stat.pvalue:.2e}: batched LT walk diverged "
            f"(seq mean {seq.set_sizes().mean():.2f}, "
            f"bat mean {bat.set_sizes().mean():.2f})"
        )

    def test_mean_size_close(self, lt_graph):
        seq, _ = _sizes(lt_graph, LTGenerator, 2000, seed=11)
        bat, _ = _sizes(lt_graph, LTGenerator, 2000, seed=1101,
                        batch_size=256)
        assert bat.set_sizes().mean() == pytest.approx(
            seq.set_sizes().mean(), rel=0.15
        )

    def test_walk_sets_are_paths(self, lt_graph):
        # Each LT RR set is one backward walk: nodes are distinct and every
        # consecutive pair is joined by an in-edge of the earlier node.
        pool, _ = _sizes(lt_graph, LTGenerator, 200, seed=3, batch_size=64)
        indptr, indices = lt_graph.in_indptr, lt_graph.in_indices
        for rr_id in range(pool.num_rr):
            nodes = pool.set_nodes(rr_id).tolist()
            assert len(set(nodes)) == len(nodes)
            for a, b in zip(nodes, nodes[1:]):
                assert b in indices[indptr[a]: indptr[a + 1]]

    def test_default_mode_bit_identical_to_sequential_loop(self, lt_graph):
        gen = LTGenerator(lt_graph)
        pool = RRCollection(lt_graph.n)
        pool.extend(50, gen, np.random.default_rng(99))
        gen2 = LTGenerator(lt_graph)
        rng = np.random.default_rng(99)
        expected = [gen2.generate(rng) for _ in range(50)]
        for i, rr in enumerate(expected):
            assert np.array_equal(pool.set_nodes(i), rr)
        assert gen.counters.rng_draws == gen2.counters.rng_draws


class TestStopMask:
    @pytest.mark.parametrize(
        "cls,fixture",
        [(SubsimICGenerator, "skewed_graph"), (LTGenerator, "lt_graph")],
        ids=["subsim-skewed", "lt"],
    )
    def test_all_sentinels_stop_immediately(self, cls, fixture, request):
        graph = request.getfixturevalue(fixture)
        stop = np.ones(graph.n, dtype=bool)
        pool, gen = _sizes(graph, cls, 60, seed=5, batch_size=32,
                           stop_mask=stop)
        assert (pool.set_sizes() == 1).all()
        assert gen.counters.sentinel_hits == 60

    def test_partial_sentinels_truncate_lt(self, lt_graph):
        hub = int(np.argmax(lt_graph.out_degree()))
        stop = np.zeros(lt_graph.n, dtype=bool)
        stop[hub] = True
        pool, gen = _sizes(lt_graph, LTGenerator, 400, seed=9,
                           batch_size=64, stop_mask=stop)
        contains_hub = len(pool.rrs_containing(hub))
        assert gen.counters.sentinel_hits == contains_hub
        assert 0 < contains_hub < 400

    def test_partial_sentinels_truncate_skewed(self, skewed_graph):
        hub = int(np.argmax(skewed_graph.out_degree()))
        stop = np.zeros(skewed_graph.n, dtype=bool)
        stop[hub] = True
        pool, gen = _sizes(skewed_graph, SubsimICGenerator, 400, seed=9,
                           batch_size=64, stop_mask=stop)
        contains_hub = len(pool.rrs_containing(hub))
        assert gen.counters.sentinel_hits == contains_hub


class TestDeterminism:
    @pytest.mark.parametrize(
        "cls,fixture",
        [(SubsimICGenerator, "skewed_graph"), (LTGenerator, "lt_graph")],
        ids=["subsim-skewed", "lt"],
    )
    def test_batched_run_to_run_identical(self, cls, fixture, request):
        graph = request.getfixturevalue(fixture)
        p1, g1 = _sizes(graph, cls, 300, seed=21, batch_size=64)
        p2, g2 = _sizes(graph, cls, 300, seed=21, batch_size=64)
        assert np.array_equal(p1.rr_nodes, p2.rr_nodes)
        assert np.array_equal(p1.set_sizes(), p2.set_sizes())
        assert g1.counters.edges_examined == g2.counters.edges_examined
        assert g1.counters.rng_draws == g2.counters.rng_draws


class TestControlIntegration:
    def test_lt_budget_respected_at_batch_boundary(self, lt_graph):
        gen = LTGenerator(lt_graph)
        gen.batch_size = 64
        gen.control = RunControl(budget=Budget(max_rr_sets=100))
        pool = RRCollection(lt_graph.n)
        with pytest.raises(ExecutionInterrupted):
            pool.extend(500, gen, np.random.default_rng(1))
        assert pool.num_rr == 100
        assert gen.counters.sets_generated == 100


class TestModeValidation:
    def test_unknown_mode_enumerates_kernels(self, skewed_graph):
        gen = SubsimICGenerator(skewed_graph)
        gen.batched_mode = "bogus"
        with pytest.raises(ValueError, match="'ic', 'subsim', 'lt'"):
            gen.generate_batch(np.random.default_rng(1), 4)

    @pytest.mark.parametrize("mode", ["bucket", "indexed"])
    def test_sampler_modes_refused_by_batched_kernel(self, skewed_graph, mode):
        # The batched kernel samples skewed nodes with the sorted buckets
        # only; a bucket/indexed generator must not silently use them.
        gen = SubsimICGenerator(skewed_graph, general_mode=mode)
        with pytest.raises(ConfigurationError, match=mode):
            gen.generate_batch(np.random.default_rng(1), 4)
        with pytest.raises(ConfigurationError, match=mode):
            batched.generate_batch(gen, np.random.default_rng(1), 4)
        gen.batch_size = 8
        pool = RRCollection(skewed_graph.n)
        with pytest.raises(ConfigurationError, match=mode):
            pool.extend(16, gen, np.random.default_rng(1))
        assert pool.num_rr == 0
        # The sequential loop of the same generator still runs.
        gen.batch_size = 1
        pool.extend(16, gen, np.random.default_rng(1))
        assert pool.num_rr == 16

    def test_ic_kernels_rejected_on_lt_graph(self, lt_graph):
        for cls in (VanillaICGenerator, SubsimICGenerator):
            gen = cls(lt_graph)
            with pytest.raises(GraphFormatError, match="LT-normalized"):
                gen.generate_batch(np.random.default_rng(1), 4)

    def test_subsim_kernel_matches_vanilla_batched_distribution(
        self, skewed_graph
    ):
        # The kernel belongs to the generator: batched SUBSIM (geometric
        # and sorted-segment skipping) and batched vanilla (per-edge
        # coins) must sample the same RR-set size distribution.
        bat, _ = _sizes(skewed_graph, SubsimICGenerator, 1000, seed=41,
                        batch_size=128)
        ref, _ = _sizes(skewed_graph, VanillaICGenerator, 1000, seed=4101,
                        batch_size=128)
        stat = scipy_stats.ks_2samp(bat.set_sizes(), ref.set_sizes())
        assert stat.pvalue > 1e-3


class TestPreprocessingCache:
    def test_uniform_arrays_shared_between_instances(self, skewed_graph):
        g1 = SubsimICGenerator(skewed_graph)
        g2 = SubsimICGenerator(skewed_graph)
        assert g1._is_uniform is g2._is_uniform
        assert g1._uniform_p is g2._uniform_p

    def test_node_samplers_shared_per_mode(self, skewed_graph):
        g1 = SubsimICGenerator(skewed_graph, general_mode="bucket")
        g2 = SubsimICGenerator(skewed_graph, general_mode="bucket")
        g3 = SubsimICGenerator(skewed_graph, general_mode="indexed")
        assert g1._node_samplers is g2._node_samplers
        assert g1._node_samplers is not g3._node_samplers
        # Populating one instance's samplers populates the other's.
        rng = np.random.default_rng(1)
        for _ in range(30):
            g1.generate(rng)
        assert len(g2._node_samplers) == len(g1._node_samplers)

    def test_cached_tables_identical_to_fresh_build(self, skewed_graph):
        seg = sorted_segments(skewed_graph)
        assert sorted_segments(skewed_graph) is seg
        arrays = uniform_arrays(skewed_graph)
        assert uniform_arrays(skewed_graph) is arrays

    def test_lt_alias_cached(self, lt_graph):
        tables = lt_alias_tables(lt_graph)
        assert lt_alias_tables(lt_graph) is tables
        # d+1 outcomes per node with in-degree d > 0.
        deg = np.diff(lt_graph.in_indptr)
        expected = int((deg[deg > 0] + 1).sum())
        assert len(tables.prob) == expected

    def test_cache_not_pickled(self, skewed_graph):
        sorted_segments(skewed_graph)
        clone = pickle.loads(pickle.dumps(skewed_graph))
        assert clone._cache == {}
        # A rebuilt cache on the clone matches the original's tables.
        a = sorted_segments(skewed_graph)
        b = sorted_segments(clone)
        assert np.array_equal(a.start, b.start)
        assert np.array_equal(a.q, b.q)

    def test_sequential_results_unchanged_by_cache(self, skewed_graph):
        # Two generators sharing cached arrays must replay identical
        # sequential schedules for the same seed.
        g1 = SubsimICGenerator(skewed_graph)
        g2 = SubsimICGenerator(skewed_graph)
        r1 = np.random.default_rng(5)
        r2 = np.random.default_rng(5)
        for _ in range(40):
            assert g1.generate(r1) == g2.generate(r2)
        assert g1.counters.rng_draws == g2.counters.rng_draws


class TestUncoveredCounts:
    def test_matches_scalar_definition(self, wc_graph, rng):
        pool = RRCollection(wc_graph.n)
        pool.extend(300, VanillaICGenerator(wc_graph), rng)
        covered = np.zeros(pool.num_rr, dtype=bool)
        covered[::3] = True
        nodes = np.arange(wc_graph.n, dtype=np.int64)
        got = pool.uncovered_counts(nodes, covered)
        for v in range(wc_graph.n):
            ids = pool.rrs_containing(v)
            assert got[v] == len(ids) - int(covered[ids].sum())

    def test_prefix_view_restricts_to_prefix(self, wc_graph, rng):
        pool = RRCollection(wc_graph.n)
        pool.extend(300, VanillaICGenerator(wc_graph), rng)
        view = pool.prefix(120)
        covered = np.zeros(view.num_rr, dtype=bool)
        covered[10:40] = True
        nodes = np.arange(wc_graph.n, dtype=np.int64)
        got = view.uncovered_counts(nodes, covered)
        for v in range(wc_graph.n):
            ids = view.rrs_containing(v)
            assert got[v] == len(ids) - int(covered[ids].sum())
