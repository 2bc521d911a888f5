"""Micro-benchmarks: exact-decremental greedy with and without Eq. 2.

Times `repro.coverage.greedy.max_coverage_greedy` on a realistic RR pool
(many small sets, heavy-tailed node coverage), once bare and once with
the per-prefix Eq. 2 upper-bound tracking the stopping rules need.
"""

import numpy as np
import pytest

from repro.coverage.greedy import max_coverage_greedy
from repro.experiments.workloads import make_dataset
from repro.graphs.weights import wc_weights
from repro.rrsets.collection import RRCollection
from repro.rrsets.subsim import SubsimICGenerator


@pytest.fixture(scope="module")
def pool():
    graph = wc_weights(make_dataset("pokec-like", scale=0.08, seed=0))
    rng = np.random.default_rng(0)
    collection = RRCollection(graph.n)
    collection.extend(4000, SubsimICGenerator(graph), rng)
    return collection


def test_micro_greedy_decremental(benchmark, pool):
    result = benchmark(
        max_coverage_greedy, pool, 50, None, None, None, False
    )
    assert len(result.seeds) == 50


def test_micro_greedy_decremental_with_eq2(benchmark, pool):
    result = benchmark(max_coverage_greedy, pool, 50)
    assert result.upper_bound_coverage >= result.coverage

