"""Precise accounting tests for generation counters.

`edges_examined` is the quantity the paper's analysis bounds (see
CONTRIBUTING.md's "sacred counter" rule); these tests pin its exact
semantics per generator on crafted graphs.
"""

import numpy as np
import pytest

from repro.graphs.csr import build_graph
from repro.graphs.generators import path_graph, star_graph
from repro.graphs.weights import uniform_weights, wc_weights
from repro.rrsets.subsim import SubsimICGenerator
from repro.rrsets.vanilla import VanillaICGenerator


class TestVanillaAccounting:
    def test_examines_every_in_edge_of_activated_nodes(self, rng):
        # star_in: root 0 activates all 7 leaves; leaves have no in-edges.
        g = star_graph(8, center_out=False)
        gen = VanillaICGenerator(g)
        gen.generate(rng, root=0)
        assert gen.counters.edges_examined == 7
        assert gen.counters.rng_draws == 7  # one coin per edge, root given

    def test_no_root_draw_when_root_given(self, path10, rng):
        gen = VanillaICGenerator(path10)
        gen.generate(rng, root=0)  # node 0 has no in-edges
        assert gen.counters.edges_examined == 0
        assert gen.counters.rng_draws == 0

    def test_root_draw_counted_when_sampled(self, path10, rng):
        gen = VanillaICGenerator(path10)
        gen.generate(rng)
        assert gen.counters.rng_draws >= 1


class TestSubsimAccounting:
    def test_wc_expected_one_examination_per_activation(self):
        """Under WC each activated node contributes ~ sum(p) = 1 trial hit."""
        g = wc_weights(star_graph(200, center_out=False))
        gen = SubsimICGenerator(g)
        rng = np.random.default_rng(0)
        trials = 5000
        for _ in range(trials):
            gen.generate(rng, root=0)
        # Root 0 has 199 in-edges each of p = 1/199: expected hits = 1.
        per_generation = gen.counters.edges_examined / trials
        assert per_generation == pytest.approx(1.0, abs=0.06)

    def test_uniform_ic_expected_mu(self):
        g = uniform_weights(star_graph(100, center_out=False), 0.05)
        gen = SubsimICGenerator(g)
        rng = np.random.default_rng(0)
        trials = 5000
        for _ in range(trials):
            gen.generate(rng, root=0)
        # mu = 99 * 0.05 = 4.95 expected examinations at the root.
        per_generation = gen.counters.edges_examined / trials
        assert per_generation == pytest.approx(4.95, rel=0.06)

    def test_probability_one_counts_all_edges(self, rng):
        g = star_graph(10, center_out=False)  # probs all 1.0
        gen = SubsimICGenerator(g)
        gen.generate(rng, root=0)
        assert gen.counters.edges_examined == 9

    def test_rng_draws_positive_when_sampling(self):
        g = wc_weights(star_graph(50, center_out=False))
        gen = SubsimICGenerator(g)
        rng = np.random.default_rng(0)
        gen.generate(rng, root=0)
        assert gen.counters.rng_draws >= 1


class TestSentinelHitAccounting:
    @pytest.mark.parametrize(
        "gen_cls", [VanillaICGenerator, SubsimICGenerator]
    )
    def test_hits_counted_per_generation(self, gen_cls, path10, rng):
        gen = gen_cls(path10)
        stop = np.zeros(10, dtype=bool)
        stop[0] = True  # upstream end: always reached from any root
        for _ in range(20):
            gen.generate(rng, stop_mask=stop)
        assert gen.counters.sentinel_hits == 20

    def test_no_hits_without_mask(self, path10, rng):
        gen = VanillaICGenerator(path10)
        for _ in range(10):
            gen.generate(rng)
        assert gen.counters.sentinel_hits == 0


class TestAverageSize:
    def test_matches_manual_average(self, rng):
        g = path_graph(4)
        gen = VanillaICGenerator(g)
        lengths = [len(gen.generate(rng, root=r)) for r in (0, 1, 2, 3)]
        assert gen.counters.average_size() == pytest.approx(
            sum(lengths) / 4
        )

    def test_empty_counter_average(self):
        gen = VanillaICGenerator(path_graph(3))
        assert gen.counters.average_size() == 0.0
