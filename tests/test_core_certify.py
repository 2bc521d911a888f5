"""Tests for post-hoc seed-set certification."""

import math

import pytest

from repro.core.certify import certify_result
from repro.graphs.generators import preferential_attachment, star_graph
from repro.graphs.weights import wc_weights
from repro.utils.exceptions import ConfigurationError


@pytest.fixture(scope="module")
def graph():
    return wc_weights(preferential_attachment(200, 3, seed=6, reciprocal=0.3))


class TestCertify:
    def test_good_seeds_certify_well(self, graph):
        from repro.core.api import InfluenceMaximizer

        result = InfluenceMaximizer(graph).maximize(
            5, algorithm="subsim", eps=0.2, seed=1
        )
        cert = certify_result(graph, result.seeds, k=5, num_rr=20_000, seed=2)
        # A properly selected set certifies close to (1 - 1/e).
        assert cert.ratio > 1 - 1 / math.e - 0.25
        assert cert.lower_bound <= cert.upper_bound
        assert cert.meets(0.3)

    def test_bad_seeds_certify_poorly(self, graph):
        # The five lowest-out-degree nodes: genuinely weak seeds.
        weak = graph.out_degree().argsort()[:5].tolist()
        cert_weak = certify_result(graph, weak, k=5, num_rr=20_000, seed=2)
        from repro.core.api import InfluenceMaximizer

        good = InfluenceMaximizer(graph).maximize(
            5, algorithm="subsim", eps=0.2, seed=1
        )
        cert_good = certify_result(graph, good.seeds, k=5, num_rr=20_000, seed=2)
        assert cert_weak.ratio < cert_good.ratio

    def test_star_center_certifies_optimal(self):
        g = star_graph(50, center_out=True)
        cert = certify_result(g, [0], k=1, num_rr=5000, seed=0)
        # The center IS the optimum; only bound slack separates the ratio
        # from 1.
        assert cert.ratio > 0.7

    def test_upper_bound_actually_bounds_optimum(self, graph):
        from repro.core.api import InfluenceMaximizer
        from repro.estimation.montecarlo import estimate_spread

        cert = certify_result(graph, [0], k=5, num_rr=20_000, seed=3)
        strong = InfluenceMaximizer(graph).maximize(
            5, algorithm="subsim", eps=0.2, seed=1
        )
        spread = estimate_spread(
            graph, strong.seeds, num_simulations=500, seed=0
        ).mean
        assert cert.upper_bound >= 0.95 * spread  # MC slack

    def test_duplicate_seeds_collapsed(self, graph):
        a = certify_result(graph, [0, 0, 1], k=2, num_rr=2000, seed=5)
        b = certify_result(graph, [0, 1], k=2, num_rr=2000, seed=5)
        assert a.lower_bound == b.lower_bound

    def test_validation(self, graph):
        with pytest.raises(ConfigurationError):
            certify_result(graph, [], k=2)
        with pytest.raises(ConfigurationError):
            certify_result(graph, [0], k=0)
        with pytest.raises(ConfigurationError):
            certify_result(graph, [0], k=2, num_rr=0)
        with pytest.raises(ConfigurationError):
            certify_result(graph, [0], k=2, delta=1.5)
