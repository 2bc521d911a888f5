"""Exact-equality oracle for the buffered per-set IC loops.

``SubsimICGenerator.generate`` and ``VanillaICGenerator.generate`` take
their uniforms from a draw-exact :class:`~repro.rrsets.base.UniformStream`,
read the graph through memoryviews, count in locals and skip sorted buckets
through cached skip thresholds.  None of that may change a single draw.
This file keeps the loops those shortcuts replaced -- one scalar
``rng.random()`` per draw, NumPy indexing, counters bumped in place, the
bucket bounds and ``log1p`` recomputed per visit -- and asserts after every
set that both give the same set, the same five counters and the same
bit-generator state.
"""

from __future__ import annotations

import dataclasses
import math
from collections import deque
from typing import Dict, List, Optional

import numpy as np
import pytest

from repro.graphs.csr import CSRGraph, build_graph
from repro.graphs.generators import preferential_attachment
from repro.graphs.weights import exponential_weights, wc_weights
from repro.rrsets.base import RRGenerator
from repro.rrsets.subsim import SubsimICGenerator
from repro.rrsets.vanilla import VanillaICGenerator
from repro.runtime.budget import Budget
from repro.runtime.control import RunControl
from repro.sampling.bucket import BucketSampler, IndexedBucketSampler
from repro.sampling.precompute import (
    build_bucket_table,
    node_sampler_dict,
    uniform_arrays,
)
from repro.utils.exceptions import BudgetExceededError, ExecutionInterrupted

_TINY = 2.2250738585072014e-308  # smallest positive normal double

_GENERAL_MODES = ("sorted", "bucket", "indexed")


# ----------------------------------------------------------------------
# the oracle: the scalar-draw loops, kept verbatim
# ----------------------------------------------------------------------

class OracleSubsim(RRGenerator):
    """The scalar-draw SUBSIM loop (Algorithm 3 + Section 3.3), verbatim."""

    name = "oracle-subsim"

    def __init__(self, graph: CSRGraph, general_mode: str = "sorted") -> None:
        super().__init__(graph)
        if general_mode not in _GENERAL_MODES:
            raise ValueError(
                f"general_mode must be one of {_GENERAL_MODES}, got {general_mode!r}"
            )
        self.general_mode = general_mode
        # Per-node uniform-rate arrays, cached on the graph: every generator
        # instance over this graph (bank roles, shard workers, repeated
        # queries) shares one build.  The arrays are never mutated here.
        arrays = uniform_arrays(graph)
        self._is_uniform = arrays.is_uniform
        self._uniform_p = arrays.p
        self._log_one_minus_p = arrays.log1mp
        # Lazily built per-node samplers for the "bucket"/"indexed" modes,
        # shared across instances through the graph cache as well.
        self._node_samplers: Dict[int, BucketSampler] = node_sampler_dict(
            graph, general_mode
        )

    # ------------------------------------------------------------------
    def generate(
        self,
        rng: np.random.Generator,
        root: Optional[int] = None,
        stop_mask: Optional[np.ndarray] = None,
    ) -> List[int]:
        graph = self.graph
        indptr = graph.in_indptr
        indices = graph.in_indices
        probs = graph.in_probs
        visited = self._visited
        counters = self.counters
        random = rng.random
        is_uniform = self._is_uniform
        uniform_p = self._uniform_p
        log1mp = self._log_one_minus_p
        sorted_mode = self.general_mode == "sorted"

        self._begin()
        v = self._pick_root(rng, root)
        rr = [v]
        visited[v] = True
        if stop_mask is not None and stop_mask[v]:
            return self._finish(rr, hit_sentinel=True)

        queue = deque(rr)
        try:
            return self._traverse(
                rr, queue, indptr, indices, probs, visited, counters,
                random, is_uniform, uniform_p, log1mp, sorted_mode,
                stop_mask, rng,
            )
        except ExecutionInterrupted:
            self._abandon(rr)
            raise

    def _traverse(
        self, rr, queue, indptr, indices, probs, visited, counters,
        random, is_uniform, uniform_p, log1mp, sorted_mode, stop_mask, rng,
    ) -> List[int]:
        while queue:
            u = queue.popleft()
            self._tick()
            lo = int(indptr[u])
            hi = int(indptr[u + 1])
            if lo == hi:
                continue
            if is_uniform[u]:
                p = uniform_p[u]
                if p <= 0.0:
                    continue
                if p >= 1.0:
                    # Every in-neighbor activates deterministically.
                    counters.edges_examined += hi - lo
                    for j in range(lo, hi):
                        w = indices[j]
                        if not visited[w]:
                            visited[w] = True
                            rr.append(w)
                            if stop_mask is not None and stop_mask[w]:
                                return self._finish(rr, hit_sentinel=True)
                            queue.append(w)
                    continue
                # Algorithm 3: geometric skipping at rate p.
                lg = log1mp[u]
                counters.rng_draws += 1
                uval = random()
                if uval <= 0.0:
                    uval = _TINY
                jump = math.log(uval) / lg
                if jump >= hi - lo:
                    continue
                pos = lo + int(jump)
                while pos < hi:
                    counters.edges_examined += 1
                    w = indices[pos]
                    if not visited[w]:
                        visited[w] = True
                        rr.append(w)
                        if stop_mask is not None and stop_mask[w]:
                            return self._finish(rr, hit_sentinel=True)
                        queue.append(w)
                    counters.rng_draws += 1
                    uval = random()
                    if uval <= 0.0:
                        uval = _TINY
                    jump = math.log(uval) / lg
                    if jump >= hi - pos:
                        break
                    pos += int(jump) + 1
                continue

            # General (skewed) in-probabilities.
            if sorted_mode:
                hit = self._scan_sorted_block(
                    lo, hi, indices, probs, visited, rr, queue,
                    stop_mask, rng, counters,
                )
            else:
                hit = self._scan_with_sampler(
                    u, lo, indices, visited, rr, queue, stop_mask, rng, counters
                )
            if hit:
                return self._finish(rr, hit_sentinel=True)
        return self._finish(rr)

    # ------------------------------------------------------------------
    @staticmethod
    def _scan_sorted_block(
        lo, hi, indices, probs, visited, rr, queue, stop_mask, rng, counters
    ) -> bool:
        """Index-free sampler over one descending-sorted in-adjacency block.

        Returns True when a sentinel node was activated (caller must stop).
        """
        random = rng.random
        lo = int(lo)
        hi = int(hi)
        start = lo
        while start < hi:
            end = min(lo + 2 * (start - lo) + 1, hi)
            q = probs[start]
            if not q > 0.0:  # catches 0, negatives, and NaN
                break
            if q >= 1.0:
                # Ceiling is certain: examine each slot, accept w.p. p.
                for j in range(start, end):
                    counters.edges_examined += 1
                    pj = probs[j]
                    if pj < 1.0:
                        counters.rng_draws += 1
                        if random() >= pj:
                            continue
                    w = indices[j]
                    if not visited[w]:
                        visited[w] = True
                        rr.append(w)
                        if stop_mask is not None and stop_mask[w]:
                            return True
                        queue.append(w)
            else:
                lg = math.log1p(-q)
                counters.rng_draws += 1
                uval = random()
                if uval <= 0.0:
                    uval = _TINY
                jump = math.log(uval) / lg
                if jump >= end - start:
                    start = end
                    continue
                pos = start + int(jump)
                while pos < end:
                    counters.edges_examined += 1
                    pj = probs[pos]
                    accept = True
                    if pj < q:
                        counters.rng_draws += 1
                        accept = random() < pj / q
                    if accept:
                        w = indices[pos]
                        if not visited[w]:
                            visited[w] = True
                            rr.append(w)
                            if stop_mask is not None and stop_mask[w]:
                                return True
                            queue.append(w)
                    counters.rng_draws += 1
                    uval = random()
                    if uval <= 0.0:
                        uval = _TINY
                    jump = math.log(uval) / lg
                    if jump >= end - pos:
                        break
                    pos += int(jump) + 1
            start = end
        return False

    # ------------------------------------------------------------------
    def _scan_with_sampler(
        self, u, lo, indices, visited, rr, queue, stop_mask, rng, counters
    ) -> bool:
        """Bucket / indexed-bucket sampling of node ``u``'s in-neighbors."""
        sampler = self._node_samplers.get(u)
        if sampler is None:
            block = self.graph.in_probs[lo: self.graph.in_indptr[u + 1]]
            cls = (
                IndexedBucketSampler
                if self.general_mode == "indexed"
                else BucketSampler
            )
            sampler = cls(block)
            self._node_samplers[u] = sampler
        positions = sampler.sample(rng)
        counters.edges_examined += len(positions)
        counters.rng_draws += len(positions) + 1
        for offset in positions:
            w = indices[lo + offset]
            if not visited[w]:
                visited[w] = True
                rr.append(w)
                if stop_mask is not None and stop_mask[w]:
                    return True
                queue.append(w)
        return False


class OracleVanilla(RRGenerator):
    """The scalar-draw vanilla loop (Algorithm 2), verbatim."""

    name = "oracle-vanilla"

    def generate(
        self,
        rng: np.random.Generator,
        root: Optional[int] = None,
        stop_mask: Optional[np.ndarray] = None,
    ) -> List[int]:
        graph = self.graph
        indptr = graph.in_indptr
        indices = graph.in_indices
        probs = graph.in_probs
        visited = self._visited
        counters = self.counters
        random = rng.random

        self._begin()
        v = self._pick_root(rng, root)
        rr = [v]
        visited[v] = True
        if stop_mask is not None and stop_mask[v]:
            return self._finish(rr, hit_sentinel=True)

        queue = deque(rr)
        try:
            while queue:
                u = queue.popleft()
                lo = indptr[u]
                hi = indptr[u + 1]
                counters.edges_examined += hi - lo
                counters.rng_draws += hi - lo
                self._tick()
                for j in range(lo, hi):
                    if random() < probs[j]:
                        w = indices[j]
                        if not visited[w]:
                            visited[w] = True
                            rr.append(w)
                            if stop_mask is not None and stop_mask[w]:
                                return self._finish(rr, hit_sentinel=True)
                            queue.append(w)
        except ExecutionInterrupted:
            self._abandon(rr)
            raise
        return self._finish(rr)


# ----------------------------------------------------------------------
# graphs and streams
# ----------------------------------------------------------------------

def _per_destination(graph: CSRGraph, prob_of_node: np.ndarray) -> CSRGraph:
    """``graph`` with every edge's probability set by its destination, so
    every in-block is uniform at that node's rate."""
    src, dst, _ = graph.edges()
    return build_graph(graph.n, src, dst, prob_of_node[dst])


def _uniform_extremes_graph() -> CSRGraph:
    """WC-like uniform blocks, with some nodes at p == 1 and some at 0."""
    base = preferential_attachment(400, 4, seed=21, reciprocal=0.3)
    deg = np.maximum(base.in_degree(), 1)
    prob = 1.0 / deg
    pick = np.random.default_rng(5).random(base.n)
    prob[pick < 0.15] = 1.0
    prob[pick > 0.85] = 0.0
    return _per_destination(base, prob)


def _certain_ceiling_graph() -> CSRGraph:
    """Skewed blocks whose leading buckets have ceilings ``q >= 1``: a
    third of the edges are certain, the rest exponential, so sorted blocks
    open with certain slots and continue with slots below 1 (an acceptance
    draw inside a certain bucket) and with partial buckets."""
    base = exponential_weights(
        preferential_attachment(400, 5, seed=22, reciprocal=0.3), seed=3
    )
    src, dst, prob = base.edges()
    prob = prob.copy()
    rng = np.random.default_rng(6)
    prob[rng.random(len(prob)) < 0.3] = 1.0
    prob *= 0.6  # keep the cascade subcritical: certain edges stay rare
    prob[rng.random(len(prob)) < 0.08] = 1.0
    return build_graph(base.n, src, dst, prob)


def _skewed_graph() -> CSRGraph:
    return exponential_weights(
        preferential_attachment(500, 5, seed=23, reciprocal=0.4), seed=4
    )


def _wc_graph() -> CSRGraph:
    return wc_weights(preferential_attachment(600, 5, seed=24, reciprocal=0.3))


# A hub whose last positional bucket has 512 slots at ceiling q with
# 512 * -log1p(-q) = 722: its exact skip bound exp(512 * log1p(-q)) is
# subnormal, so only a *clamped* zero draw may take the exact test there.
_HUB_Q = -math.expm1(-1.41)


def _hub(degree: int, q: float) -> CSRGraph:
    """Node 0 with ``degree`` in-edges from leaves: one at 0.9, the rest
    at ``q``, so its sorted block is skewed."""
    src = np.arange(1, degree + 1)
    dst = np.zeros(degree, dtype=np.int64)
    prob = np.full(degree, q)
    prob[0] = 0.9
    return build_graph(degree + 1, src, dst, prob)


class _ZeroedGenerator:
    """A Generator stand-in whose uniforms below ``below`` read 0.0.

    The mapping is a function of the underlying value, so the scalar and
    block calls of the oracle and the stream see the same zeros; the state
    is the wrapped bit generator's.
    """

    def __init__(self, seed: int, below: float) -> None:
        self._rng = np.random.default_rng(seed)
        self.bit_generator = self._rng.bit_generator
        self._below = below

    def random(self, size=None):
        u = self._rng.random(size)
        if size is None:
            return 0.0 if u < self._below else u
        u[u < self._below] = 0.0
        return u

    def integers(self, *args, **kwargs):
        return self._rng.integers(*args, **kwargs)


class _ScriptState:
    """``bit_generator`` of :class:`_ScriptedGenerator`: its state is the
    script position."""

    def __init__(self) -> None:
        self.pos = 0

    @property
    def state(self) -> Dict[str, int]:
        return {"pos": self.pos}

    @state.setter
    def state(self, value: Dict[str, int]) -> None:
        self.pos = value["pos"]


class _ScriptedGenerator:
    """A Generator stand-in that plays a fixed list of uniforms, cycling."""

    def __init__(self, script: List[float]) -> None:
        self._script = list(script)
        self.bit_generator = _ScriptState()

    def random(self, size=None):
        count = 1 if size is None else size
        bg = self.bit_generator
        out = [
            self._script[(bg.pos + i) % len(self._script)]
            for i in range(count)
        ]
        bg.pos += count
        return out[0] if size is None else np.asarray(out, dtype=np.float64)


def _bit_generator(kind: str, seed: int) -> np.random.Generator:
    cls = {
        "pcg64": np.random.PCG64,
        "mt19937": np.random.MT19937,
        "philox": np.random.Philox,
        "sfc64": np.random.SFC64,
    }[kind]
    return np.random.Generator(cls(seed))


def _state(rng) -> str:
    return repr(rng.bit_generator.state)


def _counters(gen: RRGenerator) -> Dict[str, int]:
    return {k: int(v) for k, v in dataclasses.asdict(gen.counters).items()}


def _lockstep(new, old, new_rng, old_rng, sets: int, roots=None,
              stop_mask=None) -> int:
    """Run both generators set by set; assert equality after every set.
    Returns the number of sets that hit a sentinel."""
    for i in range(sets):
        root = None if roots is None else int(roots[i % len(roots)])
        got = new.generate(new_rng, root=root, stop_mask=stop_mask)
        want = old.generate(old_rng, root=root, stop_mask=stop_mask)
        assert [int(x) for x in got] == [int(x) for x in want], f"set {i}"
        assert _counters(new) == _counters(old), f"set {i}"
        assert _state(new_rng) == _state(old_rng), f"set {i}"
    assert not new._visited.any()
    return new.counters.sentinel_hits


def _subsim_pair(graph: CSRGraph, mode: str = "sorted"):
    return SubsimICGenerator(graph, general_mode=mode), OracleSubsim(graph, mode)


# ----------------------------------------------------------------------
# tests
# ----------------------------------------------------------------------

GRAPHS = {
    "wc": _wc_graph,
    "uniform-extremes": _uniform_extremes_graph,
    "certain-ceilings": _certain_ceiling_graph,
    "skewed": _skewed_graph,
}


class TestDrawExact:
    @pytest.mark.parametrize("graph_name", sorted(GRAPHS))
    @pytest.mark.parametrize("kind", ["pcg64", "mt19937", "philox", "sfc64"])
    def test_subsim_matches_scalar_loop(self, graph_name, kind):
        graph = GRAPHS[graph_name]()
        new, old = _subsim_pair(graph)
        _lockstep(new, old, _bit_generator(kind, 7), _bit_generator(kind, 7),
                  sets=300)
        assert new.counters.rng_draws > 300

    @pytest.mark.parametrize("graph_name", sorted(GRAPHS))
    @pytest.mark.parametrize("kind", ["pcg64", "mt19937", "philox", "sfc64"])
    def test_vanilla_matches_scalar_loop(self, graph_name, kind):
        graph = GRAPHS[graph_name]()
        new, old = VanillaICGenerator(graph), OracleVanilla(graph)
        _lockstep(new, old, _bit_generator(kind, 8), _bit_generator(kind, 8),
                  sets=200)

    @pytest.mark.parametrize("mode", ["bucket", "indexed"])
    @pytest.mark.parametrize("graph_name", ["certain-ceilings", "skewed"])
    def test_sampler_modes_match_scalar_loop(self, mode, graph_name):
        graph = GRAPHS[graph_name]()
        new, old = _subsim_pair(graph, mode)
        _lockstep(new, old, np.random.default_rng(9),
                  np.random.default_rng(9), sets=300)

    def test_generators_share_one_rng(self):
        # Interleaved callers on one stream: each call must leave the
        # generator exactly where the scalar loop would.
        graph = _certain_ceiling_graph()
        news = [SubsimICGenerator(graph), VanillaICGenerator(graph)]
        olds = [OracleSubsim(graph, "sorted"), OracleVanilla(graph)]
        new_rng, old_rng = np.random.default_rng(10), np.random.default_rng(10)
        for i in range(200):
            got = news[i % 2].generate(new_rng)
            want = olds[i % 2].generate(old_rng)
            assert got == want
            assert _state(new_rng) == _state(old_rng)

    def test_block_sized_sets(self):
        # Sets consuming exactly a multiple of the block, and more than
        # many blocks, rewind exactly too.
        graph = _skewed_graph()
        new, old = _subsim_pair(graph)
        _lockstep(new, old, np.random.default_rng(11),
                  np.random.default_rng(11), sets=50,
                  roots=np.argsort(graph.in_degree())[::-1][:10])

    def test_repeated_generators_reuse_cached_tables(self):
        graph = _skewed_graph()
        first = SubsimICGenerator(graph)
        first.generate(np.random.default_rng(1))
        second, old = _subsim_pair(graph)
        assert second._tables is first._tables
        _lockstep(second, old, np.random.default_rng(12),
                  np.random.default_rng(12), sets=100)

    def test_generator_follows_a_delta(self):
        # A generator built before ``apply_delta`` samples the mutated
        # graph afterwards, exactly as a generator built after it.
        from repro.graphs.dynamic import GraphDelta

        graph = _skewed_graph()
        stale = SubsimICGenerator(graph)
        stale.generate(np.random.default_rng(1))
        src, dst, prob = graph.edges()
        graph.apply_delta(GraphDelta(updates=[
            (int(src[e]), int(dst[e]), float(prob[e]) * 0.5)
            for e in range(0, len(src), 7)
        ]))
        stale.counters.reset()
        old = OracleSubsim(graph, "sorted")
        _lockstep(stale, old, np.random.default_rng(13),
                  np.random.default_rng(13), sets=200)


class TestSentinelSites:
    """A sentinel hit at every site of both loops."""

    @pytest.mark.parametrize("graph_name", sorted(GRAPHS))
    def test_hit_at_each_root_block(self, graph_name):
        # Every node but the root is a sentinel, so the first activation
        # stops the set inside the root's own block: p >= 1, geometric,
        # certain-ceiling or partial-bucket site, whichever it is.
        graph = GRAPHS[graph_name]()
        roots = np.flatnonzero(graph.in_degree() > 0)
        for new, old in (
            _subsim_pair(graph),
            (VanillaICGenerator(graph), OracleVanilla(graph)),
        ):
            new_rng, old_rng = np.random.default_rng(14), np.random.default_rng(14)
            for root in roots[:150]:
                mask = np.ones(graph.n, dtype=bool)
                mask[root] = False
                _lockstep(new, old, new_rng, old_rng, sets=1, roots=[root],
                          stop_mask=mask)
            assert new.counters.sentinel_hits > 0

    @pytest.mark.parametrize("mode", ["bucket", "indexed"])
    def test_hit_in_sampler_modes(self, mode):
        graph = _skewed_graph()
        new, old = _subsim_pair(graph, mode)
        mask = np.random.default_rng(15).random(graph.n) < 0.05
        hits = _lockstep(new, old, np.random.default_rng(16),
                         np.random.default_rng(16), sets=300, stop_mask=mask)
        assert hits > 0

    @pytest.mark.parametrize("graph_name", sorted(GRAPHS))
    def test_sparse_masks(self, graph_name):
        graph = GRAPHS[graph_name]()
        mask = np.random.default_rng(17).random(graph.n) < 0.03
        for new, old in (
            _subsim_pair(graph),
            (VanillaICGenerator(graph), OracleVanilla(graph)),
        ):
            hits = _lockstep(new, old, np.random.default_rng(18),
                             np.random.default_rng(18), sets=300,
                             stop_mask=mask)
            assert hits > 0

    def test_root_is_sentinel(self):
        graph = _wc_graph()
        new, old = _subsim_pair(graph)
        mask = np.ones(graph.n, dtype=bool)
        _lockstep(new, old, np.random.default_rng(19),
                  np.random.default_rng(19), sets=20, stop_mask=mask)
        assert new.counters.sentinel_hits == 20


class TestClampSites:
    @pytest.mark.parametrize("graph_name", sorted(GRAPHS))
    def test_zero_draws(self, graph_name):
        graph = GRAPHS[graph_name]()
        for new, old in (
            _subsim_pair(graph),
            (VanillaICGenerator(graph), OracleVanilla(graph)),
        ):
            _lockstep(new, old, _ZeroedGenerator(20, 0.05),
                      _ZeroedGenerator(20, 0.05), sets=300)

    def test_zero_draw_at_subnormal_skip_bound(self):
        # Every draw is 0.0: each bucket takes its first jump from the
        # clamped uniform, and the 512-slot bucket, whose exact bound is
        # subnormal, must land a neighbor rather than be skipped.
        graph = _hub(1023, _HUB_Q)
        new, old = _subsim_pair(graph)
        table = build_bucket_table(graph.in_probs, 0, 1023)
        start, end, q, lg, skip = table[-1]
        assert end - start == 512 and 0.0 < skip < _TINY
        _lockstep(new, old, _ScriptedGenerator([0.0]),
                  _ScriptedGenerator([0.0]), sets=3, roots=[0])
        assert new.counters.edges_examined == 3  # one landing per set

    def test_draws_at_the_skip_threshold(self):
        # Uniforms a few ulps either side of exp(L * lg): the skip test
        # must agree with the exact log test on every one of them.
        script = []
        for q in np.linspace(0.01, 0.99, 60):
            lg = math.log1p(-q)
            for length in (1, 2, 4, 8):
                bound = math.exp(length * lg)
                u = bound
                for _ in range(4):
                    u = math.nextafter(u, 0.0)
                for _ in range(8):
                    script.append(u)
                    u = math.nextafter(u, 1.0)
        graph = _skewed_graph()
        new, old = _subsim_pair(graph)
        _lockstep(new, old, _ScriptedGenerator(script),
                  _ScriptedGenerator(script), sets=400,
                  roots=np.argsort(graph.in_degree())[::-1][:40])

    def test_draw_just_below_an_unskippable_bound(self):
        # A clipped last bucket (odd length) whose bound exp(L * lg) has
        # a uniform one ulp below it that the exact test does not skip:
        # a threshold without its margin would skip it.
        length, q, u = _unskippable_draw()
        graph = _hub(127 + length, q)
        table = build_bucket_table(graph.in_probs, 0, 127 + length)
        assert table[-1][1] - table[-1][0] == length
        # Seven buckets skipped on clamped zeros, then ``u`` lands one
        # neighbor in the last bucket, then a zero ends it.
        script = [0.0] * 7 + [u, 0.0]
        new, old = _subsim_pair(graph)
        _lockstep(new, old, _ScriptedGenerator(script),
                  _ScriptedGenerator(script), sets=3, roots=[0])
        assert new.counters.edges_examined == 3


def _unskippable_draw():
    """``(L, q, u)`` with ``u < exp(L * log1p(-q))`` whose exact test
    ``log(u) / log1p(-q) >= L`` still fails."""
    for length in (125, 103, 185, 195, 61, 33):
        for q in np.linspace(0.005, 0.05, 400):
            lg = math.log1p(-float(q))
            u = math.nextafter(math.exp(length * lg), 0.0)
            if not math.log(u) / lg >= length:
                return length, float(q), u
    raise AssertionError("no draw below an unskippable bound was found")


class TestInterrupt:
    @pytest.mark.parametrize("factory", ["subsim-wc", "subsim-skewed",
                                         "subsim-certain", "vanilla"])
    def test_edge_budget_mid_set(self, factory):
        graph = {
            "subsim-wc": _wc_graph,
            "subsim-skewed": _skewed_graph,
            "subsim-certain": _certain_ceiling_graph,
            "vanilla": _wc_graph,
        }[factory]()
        mid_set = 0
        for cap in range(1, 400, 13):
            if factory == "vanilla":
                new, old = VanillaICGenerator(graph), OracleVanilla(graph)
            else:
                new, old = _subsim_pair(graph)
            controls = []
            for gen in (new, old):
                control = RunControl(Budget(max_edges_examined=cap))
                control.start()
                gen.control = control
                controls.append(control)
            new_rng, old_rng = np.random.default_rng(cap), np.random.default_rng(cap)
            outcomes = []
            for gen, rng in ((new, new_rng), (old, old_rng)):
                sets = []
                with pytest.raises(ExecutionInterrupted) as info:
                    for _ in range(1000):
                        sets.append(gen.generate(rng))
                outcomes.append((sets, info.value))
            (new_sets, new_exc), (old_sets, old_exc) = outcomes
            assert isinstance(new_exc, BudgetExceededError)
            assert new_sets == old_sets
            assert _counters(new) == _counters(old)
            assert _state(new_rng) == _state(old_rng)
            assert controls[0].edges_examined == controls[1].edges_examined
            assert not new._visited.any()
            if "mid-generation" in str(new_exc):
                mid_set += 1
            # The interrupted generator keeps working on the same stream.
            new.control = old.control = None
            _lockstep(new, old, new_rng, old_rng, sets=5)
        assert mid_set > 0
