"""Exact-equality oracle for the batched IC/SUBSIM kernel.

The production kernel in :mod:`repro.rrsets.batched` dedups each level by a
sort, argsorts set ids on a narrow dtype and finishes the last few live
geometric entries in a scalar loop.  None of that may change a single draw.
This file keeps the plain kernel those shortcuts replaced — one vectorized
draw per live entry per round until every entry retires, ``np.unique`` per
level and an ``int64`` stable argsort — and asserts that both produce the
same ``(nodes, sizes)``, the same counters and the same generator state.
"""

from __future__ import annotations

import dataclasses
from typing import List

import numpy as np
import pytest

from repro.graphs.csr import build_graph
from repro.graphs.generators import preferential_attachment
from repro.graphs.weights import exponential_weights, uniform_weights
from repro.rrsets import batched
from repro.rrsets.batched import (
    _clamped_count,
    _ragged_edges,
    _sorted_distinct,
    _sorted_segment_candidates,
    generate_batch,
)
from repro.rrsets.subsim import SubsimICGenerator
from repro.rrsets.vanilla import VanillaICGenerator
from repro.sampling.precompute import sorted_segments, uniform_arrays

_TINY = 2.2250738585072014e-308


def oracle_geometric(sets, nodes, indptr, indices, log1mp, rng, counters):
    """Algorithm 3, one draw per live entry per round, to the last entry."""
    cand_sets: List[np.ndarray] = []
    cand_nodes: List[np.ndarray] = []
    if len(nodes) == 0:
        return cand_sets, cand_nodes
    pos = indptr[nodes].astype(np.float64)
    hi = indptr[nodes + 1].astype(np.float64)
    lg = log1mp[nodes]
    owner_sets = sets
    while len(pos):
        counters.rng_draws += len(pos)
        u = rng.random(len(pos))
        np.maximum(u, _TINY, out=u)
        jump = np.log(u) / lg
        pos = pos + np.floor(jump)
        live = jump < hi - (pos - np.floor(jump))
        if not live.any():
            break
        pos, hi, lg = pos[live], hi[live], lg[live]
        owner_sets = owner_sets[live]
        landed = pos.astype(np.int64)
        counters.edges_examined += len(landed)
        cand_sets.append(owner_sets)
        cand_nodes.append(indices[landed].astype(np.int64))
        pos = pos + 1.0
    return cand_sets, cand_nodes


def oracle_generate(gen, rng, count, stop_mask=None):
    """The IC-family batched kernel with no dedup or tail shortcuts."""
    graph, counters, n = gen.graph, gen.counters, gen.graph.n
    indptr, indices, probs = graph.in_indptr, graph.in_indices, graph.in_probs
    mode = gen.batched_mode
    count = _clamped_count(gen, count)
    if count <= 0:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    if mode == "subsim":
        is_uniform, uniform_p, log1mp = uniform_arrays(graph)
        segments = sorted_segments(graph)
    counters.rng_draws += count
    roots = rng.integers(0, n, size=count)
    words = (n + 63) >> 6
    bits = np.zeros((count, words), dtype=np.uint64)
    set_ids = np.arange(count, dtype=np.int64)
    bits[set_ids, roots >> 6] = np.uint64(1) << (roots & 63).astype(np.uint64)
    chunk_sets = [set_ids]
    chunk_nodes = [roots.astype(np.int64)]
    alive = np.ones(count, dtype=bool)
    hit = np.zeros(count, dtype=bool)
    if stop_mask is not None:
        hit |= stop_mask[roots]
        alive &= ~hit
    frontier_sets = set_ids[alive]
    frontier_nodes = roots[alive].astype(np.int64)
    while len(frontier_nodes):
        cs_parts: List[np.ndarray] = []
        cn_parts: List[np.ndarray] = []
        if mode == "ic":
            coin_sets, coin_nodes = frontier_sets, frontier_nodes
        else:
            uni = is_uniform[frontier_nodes]
            p = uniform_p[frontier_nodes]
            certain = uni & (p >= 1.0)
            geom = uni & (p > 0.0) & (p < 1.0)
            skew = ~uni
            if certain.any():
                edge_idx, owner = _ragged_edges(indptr, frontier_nodes[certain])
                counters.edges_examined += len(edge_idx)
                cs_parts.append(frontier_sets[certain][owner])
                cn_parts.append(indices[edge_idx].astype(np.int64))
            gs, gn = oracle_geometric(
                frontier_sets[geom], frontier_nodes[geom],
                indptr, indices, log1mp, rng, counters,
            )
            cs_parts.extend(gs)
            cn_parts.extend(gn)
            if skew.any():
                ss, sn = _sorted_segment_candidates(
                    frontier_sets[skew], frontier_nodes[skew],
                    segments, indices, probs, rng, counters,
                )
                cs_parts.extend(ss)
                cn_parts.extend(sn)
            coin_sets = coin_nodes = np.empty(0, dtype=np.int64)
        if len(coin_nodes):
            edge_idx, owner = _ragged_edges(indptr, coin_nodes)
            counters.edges_examined += len(edge_idx)
            counters.rng_draws += len(edge_idx)
            if len(edge_idx):
                success = rng.random(len(edge_idx)) < probs[edge_idx]
                cs_parts.append(coin_sets[owner[success]])
                cn_parts.append(indices[edge_idx[success]].astype(np.int64))
        gen._tick()
        if not cs_parts:
            break
        cand_sets = np.concatenate(cs_parts)
        cand_nodes = np.concatenate(cn_parts)
        if len(cand_sets) == 0:
            break
        key = np.unique(cand_sets * np.int64(n) + cand_nodes)
        u_sets = key // n
        u_nodes = key - u_sets * n
        word = u_nodes >> 6
        bit = np.uint64(1) << (u_nodes & 63).astype(np.uint64)
        fresh = (bits[u_sets, word] & bit) == 0
        u_sets, u_nodes, word, bit = (
            u_sets[fresh], u_nodes[fresh], word[fresh], bit[fresh]
        )
        if len(u_sets) == 0:
            break
        np.bitwise_or.at(bits, (u_sets, word), bit)
        chunk_sets.append(u_sets)
        chunk_nodes.append(u_nodes)
        if stop_mask is not None:
            sentinel = stop_mask[u_nodes]
            if sentinel.any():
                stopped = np.unique(u_sets[sentinel])
                hit[stopped] = True
                alive[stopped] = False
                keep = alive[u_sets]
                u_sets, u_nodes = u_sets[keep], u_nodes[keep]
        frontier_sets, frontier_nodes = u_sets, u_nodes
    all_sets = np.concatenate(chunk_sets)
    nodes = np.concatenate(chunk_nodes)[np.argsort(all_sets, kind="stable")]
    sizes = np.bincount(all_sets, minlength=count).astype(np.int64)
    counters.nodes_added += len(nodes)
    counters.sets_generated += count
    counters.sentinel_hits += int(hit.sum())
    return nodes, sizes


def hub_graph(n=3000, hub_in=2500, p=0.5):
    """Node 0 has ``hub_in`` in-neighbours and feeds every other node.

    Every RR set that activates node 0 starts a geometric entry over a
    2,500-edge block at p=0.5: about 1,250 landings, far past one block of
    the scalar tail.
    """
    feeders = np.arange(1, hub_in + 1, dtype=np.int64)
    others = np.arange(1, n, dtype=np.int64)
    src = np.concatenate([feeders, np.zeros(n - 1, dtype=np.int64)])
    dst = np.concatenate([np.zeros(hub_in, dtype=np.int64), others])
    return build_graph(n, src, dst, np.full(len(src), p))


@pytest.fixture(scope="module")
def hub():
    return hub_graph()


@pytest.fixture(scope="module")
def hi_graph():
    return uniform_weights(
        preferential_attachment(2000, 4, seed=3, reciprocal=0.3), 0.1
    )


@pytest.fixture(scope="module")
def mixed_graph():
    """Exponential weights: skewed blocks next to uniform ones."""
    return exponential_weights(
        preferential_attachment(1500, 4, seed=4, reciprocal=0.3), seed=5
    )


def _both(graph, cls, count, seed, stop_mask=None, bitgen=np.random.PCG64):
    outs = []
    for kernel in (generate_batch, oracle_generate):
        gen = cls(graph)
        rng = np.random.Generator(bitgen(seed))
        nodes, sizes = kernel(gen, rng, count, stop_mask)
        outs.append((nodes, sizes, dataclasses.asdict(gen.counters),
                     rng.bit_generator.state))
    return outs


def _same_state(a, b):
    """Deep equality of two ``bit_generator.state`` dicts (MT19937 keeps
    its key as an array)."""
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(_same_state(a[k], b[k]) for k in a)
    return np.array_equal(a, b)


def _assert_identical(graph, cls, count, seed, **kw):
    (n1, s1, c1, st1), (n2, s2, c2, st2) = _both(graph, cls, count, seed, **kw)
    np.testing.assert_array_equal(n1, n2)
    np.testing.assert_array_equal(s1, s2)
    assert n1.dtype == n2.dtype and s1.dtype == s2.dtype
    assert c1 == c2
    assert _same_state(st1, st2)
    return c1


class TestMatchesOracle:
    @pytest.mark.parametrize("count", [1, 3, 8])
    def test_hub_tail_outruns_one_block(self, hub, count):
        draws = [
            _assert_identical(hub, SubsimICGenerator, count, seed=seed)[
                "rng_draws"
            ]
            for seed in range(11, 15)
        ]
        # The hub entries really ran the scalar tail past one block.
        assert max(draws) > batched._TAIL_BLOCK * 2

    @pytest.mark.parametrize("count", [40, 300])
    def test_hub_many_sets(self, hub, count):
        _assert_identical(hub, SubsimICGenerator, count, seed=12)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("count", [1, 5, 256, 300])
    def test_uniform_graph(self, hi_graph, count, seed):
        _assert_identical(hi_graph, SubsimICGenerator, count, seed=seed)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_stop_mask(self, hi_graph, seed):
        mask = np.random.default_rng(seed).random(hi_graph.n) < 0.02
        counters = _assert_identical(
            hi_graph, SubsimICGenerator, 256, seed=seed, stop_mask=mask
        )
        assert counters["sentinel_hits"] > 0

    def test_stop_mask_on_hub(self, hub):
        mask = np.zeros(hub.n, dtype=bool)
        mask[2600:] = True
        _assert_identical(hub, SubsimICGenerator, 64, seed=3, stop_mask=mask)

    def test_skewed_segments_beside_geometric(self, mixed_graph):
        _assert_identical(mixed_graph, SubsimICGenerator, 256, seed=4)

    @pytest.mark.parametrize("graph_name", ["hi_graph", "hub"])
    def test_ic_mode(self, request, graph_name):
        graph = request.getfixturevalue(graph_name)
        _assert_identical(graph, VanillaICGenerator, 64, seed=5)

    @pytest.mark.parametrize(
        "bitgen", [np.random.MT19937, np.random.Philox, np.random.SFC64]
    )
    def test_any_bit_generator(self, hub, bitgen):
        _assert_identical(hub, SubsimICGenerator, 4, seed=6, bitgen=bitgen)


class TestSortedDistinct:
    def test_empty(self):
        out = _sorted_distinct(np.empty(0, dtype=np.int64))
        assert out.dtype == np.int64 and len(out) == 0

    def test_one_element(self):
        np.testing.assert_array_equal(
            _sorted_distinct(np.array([7], dtype=np.int64)), [7]
        )

    @pytest.mark.parametrize("size", [2, 17, 5000])
    def test_matches_unique(self, size):
        values = np.random.default_rng(size).integers(0, size // 2 + 1, size)
        expected = np.unique(values)
        out = _sorted_distinct(values)
        np.testing.assert_array_equal(out, expected)
        assert out.dtype == expected.dtype
