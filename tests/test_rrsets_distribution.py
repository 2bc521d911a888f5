"""Distributional identity tests across the whole RR stack.

The deepest consistency law available (Lemma 1, specialised to singletons):

    Pr[u in a random RR set] = I({u}) / n

so per-node appearance frequencies over many random RR sets must match
forward-simulated singleton spreads — for every generator and weight
scheme.  These tests close the loop between the reverse (RR) and forward
(cascade) halves of the library.
"""

import numpy as np
import pytest

from repro.estimation.montecarlo import estimate_spread
from repro.graphs.generators import preferential_attachment
from repro.graphs.weights import (
    exponential_weights,
    trivalency_weights,
    uniform_weights,
    wc_variant_weights,
    wc_weights,
)
from repro.rrsets.subsim import SubsimICGenerator
from repro.rrsets.vanilla import VanillaICGenerator


@pytest.fixture(scope="module")
def base():
    return preferential_attachment(60, 3, seed=21, reciprocal=0.4)


def appearance_frequencies(graph, generator_cls, num_rr, seed, **kwargs):
    rng = np.random.default_rng(seed)
    generator = generator_cls(graph, **kwargs)
    counts = np.zeros(graph.n)
    for _ in range(num_rr):
        for node in generator.generate(rng):
            counts[node] += 1
    return counts / num_rr


WEIGHTERS = {
    "wc": lambda g: wc_weights(g),
    "wc_variant": lambda g: wc_variant_weights(g, 2.0),
    "uniform": lambda g: uniform_weights(g, 0.15),
    "exponential": lambda g: exponential_weights(g, seed=5),
    "trivalency": lambda g: trivalency_weights(g, choices=(0.4, 0.1), seed=5),
}


class TestLemma1Singletons:
    """RR appearance frequency == forward singleton spread / n."""

    @pytest.mark.parametrize("scheme", sorted(WEIGHTERS))
    def test_vanilla_matches_forward_simulation(self, base, scheme):
        graph = WEIGHTERS[scheme](base)
        freqs = appearance_frequencies(graph, VanillaICGenerator, 30_000, 3)
        # Check the five most frequent nodes (best signal-to-noise).
        for node in np.argsort(freqs)[-5:]:
            spread = estimate_spread(
                graph, [int(node)], num_simulations=4000, seed=7
            ).mean
            assert freqs[node] == pytest.approx(
                spread / graph.n, abs=0.02
            ), (scheme, node)

    @pytest.mark.parametrize("scheme", sorted(WEIGHTERS))
    def test_subsim_matches_vanilla_frequencies(self, base, scheme):
        graph = WEIGHTERS[scheme](base)
        f_vanilla = appearance_frequencies(graph, VanillaICGenerator, 25_000, 3)
        f_subsim = appearance_frequencies(graph, SubsimICGenerator, 25_000, 4)
        assert np.max(np.abs(f_vanilla - f_subsim)) < 0.02, scheme


class TestSizeDistributionQuantiles:
    """Full size-distribution agreement (not just means) between generators."""

    @pytest.mark.parametrize("scheme", ["wc_variant", "exponential"])
    def test_quantiles_agree(self, base, scheme):
        graph = WEIGHTERS[scheme](base)
        sizes = {}
        for key, cls in (("v", VanillaICGenerator), ("s", SubsimICGenerator)):
            rng = np.random.default_rng(11)
            generator = cls(graph)
            sizes[key] = np.sort(
                [len(generator.generate(rng)) for _ in range(20_000)]
            )
        for q in (25, 50, 75, 90, 99):
            a = np.percentile(sizes["v"], q)
            b = np.percentile(sizes["s"], q)
            assert abs(a - b) <= max(1.0, 0.08 * max(a, b)), (scheme, q)
