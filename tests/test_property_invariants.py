"""Cross-module property tests: invariants that tie the layers together.

Each property here spans at least two subsystems (e.g. RR generation vs
deterministic traversal), catching integration drift that single-module
tests cannot.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.coverage.greedy import max_coverage_greedy
from repro.estimation.structural import influence_envelope
from repro.graphs.csr import build_graph
from repro.graphs.traversal import reverse_reachable
from repro.rrsets.collection import RRCollection
from repro.rrsets.subsim import SubsimICGenerator
from repro.rrsets.vanilla import VanillaICGenerator

GENERATORS = (VanillaICGenerator, SubsimICGenerator)


def random_weighted_graph(data, max_n=12):
    n = data.draw(st.integers(2, max_n))
    max_edges = min(n * (n - 1), 30)
    pairs = data.draw(
        st.lists(
            st.tuples(
                st.integers(0, n - 1),
                st.integers(0, n - 1),
                st.floats(0.0, 1.0),
            ),
            max_size=max_edges,
        )
    )
    seen = set()
    src, dst, probs = [], [], []
    for u, v, p in pairs:
        if u == v or (u, v) in seen:
            continue
        seen.add((u, v))
        src.append(u)
        dst.append(v)
        probs.append(p)
    return build_graph(n, src, dst, probs)


@settings(max_examples=60, deadline=None)
@given(
    data=st.data(),
    seed=st.integers(0, 2**31),
    gen_idx=st.integers(0, len(GENERATORS) - 1),
)
def test_rr_set_is_subset_of_deterministic_reverse_reachability(
    data, seed, gen_idx
):
    """Whatever a stochastic generator returns must be reachable at p=1."""
    graph = random_weighted_graph(data)
    rng = np.random.default_rng(seed)
    generator = GENERATORS[gen_idx](graph)
    root = data.draw(st.integers(0, graph.n - 1))
    rr = generator.generate(rng, root=root)
    assert rr[0] == root
    assert len(rr) == len(set(rr))
    assert set(rr) <= reverse_reachable(graph, root)


@settings(max_examples=40, deadline=None)
@given(data=st.data(), seed=st.integers(0, 2**31))
def test_probability_one_edges_always_traversed(data, seed):
    """Edges with p = 1 into an activated node must fire in every RR set."""
    graph = random_weighted_graph(data)
    rng = np.random.default_rng(seed)
    for generator in (VanillaICGenerator(graph), SubsimICGenerator(graph)):
        root = data.draw(st.integers(0, graph.n - 1))
        rr = set(generator.generate(rng, root=root))
        src, dst, probs = graph.edges()
        for u, v, p in zip(src, dst, probs):
            if p == 1.0 and v in rr:
                assert u in rr


@settings(max_examples=40, deadline=None)
@given(data=st.data(), seed=st.integers(0, 2**31))
def test_collection_estimate_within_structural_envelope(data, seed):
    """The RR influence estimate can never leave the reachability envelope."""
    graph = random_weighted_graph(data)
    rng = np.random.default_rng(seed)
    pool = RRCollection(graph.n)
    pool.extend(60, SubsimICGenerator(graph), rng)
    seeds = data.draw(
        st.lists(
            st.integers(0, graph.n - 1), min_size=1, max_size=3, unique=True
        )
    )
    estimate = pool.estimate_influence(seeds)
    lower, upper = influence_envelope(graph, seeds)
    # The estimator averages indicators, so it is bounded by n, and the
    # envelope must contain its expectation; with 60 samples allow wide
    # noise but never structural impossibility: the estimate counts only
    # RR sets whose roots are reachable from the seeds.
    assert 0.0 <= estimate <= graph.n
    if upper == graph.n:
        return
    # Every covered RR set's root is forward-reachable from the seeds.
    from repro.estimation.structural import reachable_set

    reach = reachable_set(graph, seeds)
    for rr_id in np.flatnonzero(pool.covered_mask(seeds)):
        assert int(pool.set_nodes(rr_id)[0]) in reach


@settings(max_examples=40, deadline=None)
@given(data=st.data(), seed=st.integers(0, 2**31))
def test_sentinel_stop_produces_prefix_of_unstopped_run(data, seed):
    """With identical randomness, a sentinel run returns a prefix of the
    unrestricted run's activation order."""
    graph = random_weighted_graph(data)
    root = data.draw(st.integers(0, graph.n - 1))
    sentinel = data.draw(st.integers(0, graph.n - 1))
    stop = np.zeros(graph.n, dtype=bool)
    stop[sentinel] = True

    gen_a = VanillaICGenerator(graph)
    gen_b = VanillaICGenerator(graph)
    full = gen_a.generate(np.random.default_rng(seed), root=root)
    stopped = gen_b.generate(np.random.default_rng(seed), root=root,
                             stop_mask=stop)
    assert stopped == full[: len(stopped)]
    if sentinel in full:
        assert stopped[-1] == sentinel


@settings(max_examples=30, deadline=None)
@given(data=st.data(), seed=st.integers(0, 2**31))
def test_greedy_coverage_bounded_by_pool_size(data, seed):
    graph = random_weighted_graph(data)
    rng = np.random.default_rng(seed)
    pool = RRCollection(graph.n)
    pool.extend(25, VanillaICGenerator(graph), rng)
    k = data.draw(st.integers(1, graph.n))
    result = max_coverage_greedy(pool, select=k)
    assert 0 <= result.coverage <= pool.num_rr
    assert result.upper_bound_coverage <= pool.num_rr + 1e-9
    # k = n covers everything coverable: every RR set has >= 1 node.
    if k == graph.n:
        assert result.coverage == pool.num_rr
