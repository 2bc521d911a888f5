"""Cross-module integration tests.

Every registered algorithm runs end-to-end on the same graphs; principled
algorithms must agree on seed quality (they all approximate the same
optimum), and the paper's qualitative claims must hold at test scale.
"""

import numpy as np
import pytest

from repro import (
    InfluenceMaximizer,
    RRCollection,
    SubsimICGenerator,
    VanillaICGenerator,
    available_algorithms,
    estimate_spread,
    preferential_attachment,
    wc_variant_weights,
    wc_weights,
)
from repro.algorithms.greedy_mc import GreedyMonteCarlo

PRINCIPLED = ("opim-c", "subsim", "hist", "hist+subsim", "imm", "tim+", "ssa")


@pytest.fixture(scope="module")
def graph():
    return wc_weights(preferential_attachment(250, 3, seed=21, reciprocal=0.3))


@pytest.fixture(scope="module")
def spreads(graph):
    """Spread of each principled algorithm's seeds on the shared graph."""
    out = {}
    for name in PRINCIPLED:
        kwargs = {"max_rr_sets": 20_000} if name in ("imm", "tim+") else {}
        res = InfluenceMaximizer(graph).maximize(
            8, algorithm=name, eps=0.3, seed=5, **kwargs
        )
        assert len(set(res.seeds)) == 8
        out[name] = estimate_spread(
            graph, res.seeds, num_simulations=400, seed=0
        ).mean
    return out


class TestAlgorithmAgreement:
    def test_all_principled_algorithms_agree(self, spreads):
        values = list(spreads.values())
        assert max(values) <= 1.25 * min(values), spreads

    def test_all_beat_random(self, graph, spreads):
        rand = InfluenceMaximizer(graph).maximize(
            8, algorithm="random", seed=5
        )
        rand_spread = estimate_spread(
            graph, rand.seeds, num_simulations=400, seed=0
        ).mean
        for name, spread in spreads.items():
            assert spread > rand_spread, name

    def test_rr_algorithms_match_monte_carlo_greedy(self, graph, spreads):
        """The MC greedy baseline (Kempe et al.) sets the quality bar."""
        res = GreedyMonteCarlo(graph, num_simulations=60).run(8, seed=5)
        bar = estimate_spread(graph, res.seeds, num_simulations=400, seed=0).mean
        for name in ("subsim", "hist+subsim"):
            assert spreads[name] >= 0.85 * bar, name


class TestPaperClaims:
    def test_subsim_cheaper_than_vanilla_same_distribution(self, graph):
        rng = np.random.default_rng(0)
        van, sub = VanillaICGenerator(graph), SubsimICGenerator(graph)
        sizes_v = [len(van.generate(rng)) for _ in range(3000)]
        sizes_s = [len(sub.generate(rng)) for _ in range(3000)]
        # Same distribution...
        assert np.mean(sizes_v) == pytest.approx(np.mean(sizes_s), rel=0.1)
        # ...at a fraction of the edge inspections.
        assert van.counters.edges_examined > 2 * sub.counters.edges_examined

    def test_hist_shrinks_rr_sets_in_high_influence(self):
        base = preferential_attachment(400, 4, seed=2, reciprocal=0.3)
        graph = wc_variant_weights(base, 2.5)
        maximizer = InfluenceMaximizer(graph)
        hist = maximizer.maximize(10, algorithm="hist", eps=0.3, seed=1)
        opim = maximizer.maximize(10, algorithm="opim-c", eps=0.3, seed=1)
        assert hist.average_rr_size < 0.5 * opim.average_rr_size

    def test_sentinel_phase_needs_fewer_sets(self):
        base = preferential_attachment(400, 4, seed=2, reciprocal=0.3)
        graph = wc_variant_weights(base, 2.5)
        maximizer = InfluenceMaximizer(graph)
        hist = maximizer.maximize(10, algorithm="hist", eps=0.3, seed=1)
        opim = maximizer.maximize(10, algorithm="opim-c", eps=0.3, seed=1)
        assert hist.extras["sentinel_rr_sets"] <= 2 * opim.num_rr_sets


class TestSharedRRSemantics:
    def test_collection_estimate_consistent_across_generators(self, graph):
        seeds = [0, 1, 2]
        estimates = []
        for gen_cls in (VanillaICGenerator, SubsimICGenerator):
            rng = np.random.default_rng(3)
            pool = RRCollection(graph.n)
            pool.extend(20_000, gen_cls(graph), rng)
            estimates.append(pool.estimate_influence(seeds))
        assert estimates[0] == pytest.approx(estimates[1], rel=0.1)


class TestFacadeSmoke:
    def test_every_registered_algorithm_runs(self, graph):
        maximizer = InfluenceMaximizer(graph)
        for name in available_algorithms():
            if name.startswith("test-"):
                continue  # artifacts of the registry test
            if name.endswith("-lt") or name == "greedy-mc":
                continue  # need LT weights / quadratic cost, covered elsewhere
            kwargs = {"max_rr_sets": 5000} if name in ("imm", "tim+") else {}
            res = maximizer.maximize(
                3, algorithm=name, eps=0.5, seed=0, **kwargs
            )
            assert len(res.seeds) == 3, name

    def test_lt_algorithms_run(self):
        from repro import exponential_weights, lt_normalized_weights

        base = preferential_attachment(150, 3, seed=1, reciprocal=0.3)
        graph = lt_normalized_weights(exponential_weights(base, seed=1))
        for name in ("opim-c-lt", "hist-lt", "imm-lt"):
            kwargs = {"max_rr_sets": 5000} if name == "imm-lt" else {}
            res = InfluenceMaximizer(graph).maximize(
                3, algorithm=name, eps=0.5, seed=0, **kwargs
            )
            assert len(res.seeds) == 3, name
