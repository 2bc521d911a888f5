"""Batched RR-set generation: level-synchronous vectorized frontier expansion.

The sequential generators (:mod:`repro.rrsets.vanilla`,
:mod:`repro.rrsets.subsim`, :mod:`repro.rrsets.lt`) pay an interpreted-Python
constant per examined edge — faithful to the paper's cost model, but orders
of magnitude slower than the hardware.  This engine grows ``B`` RR sets
*together*, replacing the per-edge loop with one NumPy kernel per frontier
level:

* the in-adjacency of every frontier node of every set is gathered with a
  single ``np.repeat``-based CSR expansion;
* **IC kernel** (``"ic"``, :class:`~repro.rrsets.vanilla.VanillaICGenerator`):
  one vectorized coin flip per gathered edge (Algorithm 2, batched);
* **SUBSIM kernel** (``"subsim"``,
  :class:`~repro.rrsets.subsim.SubsimICGenerator`): nodes with uniform
  in-probability take vectorized geometric jumps (Algorithm 3, batched) —
  the same draw-per-landing schedule as the sequential sampler, with the
  last few live entries of a level (hubs) finished by a scalar loop that
  consumes exactly the draws the round loop would have — while
  skewed nodes run the *sorted-segment* kernel: their positional buckets
  (Section 3.3, precompiled once per graph by
  :func:`repro.sampling.precompute.sorted_segments`) take geometric skips at
  the bucket ceiling with vectorized thin-by-``p/q`` acceptance, the exact
  process of the sequential sorted sampler's bucket loop;
* **LT kernel** (``"lt"``, :class:`~repro.rrsets.lt.LTGenerator`):
  level-synchronous backward live-edge walks — every live walk picks its
  single live in-edge (or the "no live edge" outcome) with one flat Walker
  alias lookup per level (:func:`repro.sampling.precompute.lt_alias_tables`),
  two draws per walk per level regardless of degree;
* per-set visited state lives in a ``(B, ceil(n/64))`` ``uint64`` bitmap;
  candidate activations are deduplicated (one sort per level) and
  test-and-set in bulk;
* a boolean ``stop_mask`` (HIST's sentinel early stop, Algorithm 5) is
  honored *per set within the batch*: a set stops expanding at the end of
  the level in which it first activates a sentinel.

Counter semantics match the sequential generators field-for-field
(``edges_examined`` = edge inspections, ``rng_draws`` = random numbers
consumed, plus ``nodes_added`` / ``sets_generated`` / ``sentinel_hits``),
and a :class:`~repro.runtime.control.RunControl` attached to the generator
is consulted at batch boundaries (``on_rr_start``) and once per frontier
level (``on_edges``), so budgets, cancellation and PR 1's partial-result
guarantees survive unchanged — an interrupted batch is abandoned whole and
the pool keeps every previously completed batch.  The LT kernel's
``edges_examined`` counts one inspection per alias pick that lands on a real
edge (the O(1) lookup touches exactly that edge), whereas the sequential
walk scans a prefix of the block — same model, cheaper inspection schedule.

What batching deliberately gives up is the *sequential RNG schedule*: draws
are consumed in level order across the batch, so seeded runs are
reproducible batch-to-batch but not bit-identical to ``batch_size=1`` (the
sampled distribution is identical; see ``tests/test_rrsets_batched.py`` and
``tests/test_rrsets_generalw.py``).  Sentinel stops are level-granular
rather than activation-granular, so a stopped set may contain a few extra
same-level nodes.
"""

from __future__ import annotations

import math
from typing import List, Optional, Tuple

import numpy as np

from repro.sampling.precompute import (
    lt_alias_tables,
    sorted_segments,
    uniform_arrays,
)
from repro.utils.exceptions import ConfigurationError, GraphFormatError

_TINY = 2.2250738585072014e-308  # smallest positive normal double
#: the geometric kernel hands its last live entries to the scalar tail once
#: at most this many remain
_TAIL_WIDTH = 16
#: uniforms the scalar tail draws (and logs) at a time
_TAIL_BLOCK = 64

#: every kernel this engine implements
BATCHED_MODES = ("ic", "subsim", "lt")


def _ragged_slots(
    starts: np.ndarray, ends: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Expand per-row ``[start, end)`` ranges into flat positions.

    Returns ``(pos, owner)`` where ``owner[i]`` is the row that contributed
    ``pos[i]`` — the generic ragged-gather under both CSR expansion and
    segment-slot enumeration.
    """
    lens = ends - starts
    total = int(lens.sum())
    if total == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty
    cum = np.cumsum(lens)
    pos = np.repeat(starts, lens) + np.arange(total, dtype=np.int64) - np.repeat(
        cum - lens, lens
    )
    owner = np.repeat(np.arange(len(starts), dtype=np.int64), lens)
    return pos, owner


def _ragged_edges(
    indptr: np.ndarray, nodes: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Gather the CSR edge positions of every node in ``nodes``.

    Returns ``(edge_idx, owner)`` where ``edge_idx`` indexes the flat edge
    arrays and ``owner[i]`` is the position in ``nodes`` that contributed
    ``edge_idx[i]`` — the batched equivalent of the per-node adjacency scan.
    """
    return _ragged_slots(indptr[nodes], indptr[nodes + 1])


def _geometric_candidates(
    sets: np.ndarray,
    nodes: np.ndarray,
    indptr: np.ndarray,
    indices: np.ndarray,
    log1mp: np.ndarray,
    rng: np.random.Generator,
    counters,
) -> Tuple[List[np.ndarray], List[np.ndarray]]:
    """Vectorized Algorithm 3: geometric jumps over uniform-probability blocks.

    One entry per (set, activated node); every round draws one uniform per
    still-live entry and advances its position by the geometric gap, exactly
    the sequential sampler's draw-per-landing schedule, but batched.  Once
    at most :data:`_TAIL_WIDTH` entries are live (a few hubs outlasting
    everything else), :func:`_geometric_tail` finishes them in a scalar
    loop on the same draws.
    """
    cand_sets: List[np.ndarray] = []
    cand_nodes: List[np.ndarray] = []
    if len(nodes) == 0:
        return cand_sets, cand_nodes
    pos = indptr[nodes].astype(np.float64)
    hi = indptr[nodes + 1].astype(np.float64)
    lg = log1mp[nodes]
    owner_sets = sets
    # Round 0 jumps from just before the block; subsequent rounds jump from
    # the last landing.  A jump past the block end retires the entry.
    while len(pos) > _TAIL_WIDTH:
        counters.rng_draws += len(pos)
        u = rng.random(len(pos))
        np.maximum(u, _TINY, out=u)
        jump = np.log(u) / lg
        pos = pos + np.floor(jump)
        live = jump < hi - (pos - np.floor(jump))  # jump fits in the block
        if not live.any():
            return cand_sets, cand_nodes
        pos = pos[live]
        hi = hi[live]
        lg = lg[live]
        owner_sets = owner_sets[live]
        landed = pos.astype(np.int64)
        counters.edges_examined += len(landed)
        cand_sets.append(owner_sets)
        cand_nodes.append(indices[landed].astype(np.int64))
        pos = pos + 1.0  # next jump starts after the landing
    if len(pos):
        tail_sets, tail_slots = _geometric_tail(
            owner_sets, pos, hi, lg, rng, counters
        )
        cand_sets.append(tail_sets)
        cand_nodes.append(indices[tail_slots].astype(np.int64))
    return cand_sets, cand_nodes


def _geometric_tail(
    sets: np.ndarray,
    pos: np.ndarray,
    hi: np.ndarray,
    lg: np.ndarray,
    rng: np.random.Generator,
    counters,
) -> Tuple[np.ndarray, np.ndarray]:
    """Finish a few live geometric entries in a scalar loop, draw-exact.

    Consumes uniforms in the round loop's order (round-major, entry order
    within a round) from blocks of :data:`_TAIL_BLOCK` draws, each clamped
    and logged in one vectorized pass, so every entry sees exactly the
    draw the round loop would have given it.  The generator is then reset
    to its state before the first block and advanced by exactly the
    consumed count, which works for any BitGenerator.  Returns the landing
    ``(set, edge slot)`` pairs; their order differs from the round loop's,
    which the level dedup (a sort) makes irrelevant.
    """
    start_state = rng.bit_generator.state
    e_sets = sets.tolist()
    e_pos = pos.astype(np.int64).tolist()
    e_hi = hi.astype(np.int64).tolist()
    e_lg = lg.tolist()
    out_sets: List[int] = []
    out_slots: List[int] = []
    live = list(range(len(e_pos)))
    logs: List[float] = []
    used = 0
    while live:
        survivors: List[int] = []
        for e in live:
            if used == len(logs):
                u = rng.random(_TAIL_BLOCK)
                np.maximum(u, _TINY, out=u)
                logs.extend(np.log(u).tolist())
            jump = logs[used] / e_lg[e]
            used += 1
            # Positions are exact integers well below 2**53, so this is the
            # round loop's "jump fits in the block" test.
            if jump < e_hi[e] - e_pos[e]:
                landed = e_pos[e] + math.floor(jump)
                out_sets.append(e_sets[e])
                out_slots.append(landed)
                e_pos[e] = landed + 1
                survivors.append(e)
        live = survivors
    rng.bit_generator.state = start_state
    rng.random(used)
    counters.rng_draws += used
    counters.edges_examined += len(out_slots)
    return (
        np.asarray(out_sets, dtype=np.int64),
        np.asarray(out_slots, dtype=np.int64),
    )


def _sorted_segment_candidates(
    sets: np.ndarray,
    nodes: np.ndarray,
    seg,
    indices: np.ndarray,
    probs: np.ndarray,
    rng: np.random.Generator,
    counters,
) -> Tuple[List[np.ndarray], List[np.ndarray]]:
    """Vectorized Section 3.3: positional-bucket skipping on skewed nodes.

    Every (set, skewed node) frontier entry expands to its node's
    precompiled segments.  Certain-ceiling segments (``q >= 1``) examine
    each slot and accept with the slot's own probability; partial-ceiling
    segments take geometric skips at rate ``q`` and thin each landing with
    an acceptance coin where ``p < q`` — the batched twin of the sequential
    sorted sampler in ``SubsimICGenerator.generate``, consuming the same
    draws per landing in a level-ordered schedule.
    """
    cand_sets: List[np.ndarray] = []
    cand_nodes: List[np.ndarray] = []
    if len(nodes) == 0:
        return cand_sets, cand_nodes
    sid, owner = _ragged_slots(
        seg.node_indptr[nodes], seg.node_indptr[nodes + 1]
    )
    if len(sid) == 0:
        return cand_sets, cand_nodes
    owner_sets = sets[owner]
    q = seg.q[sid]

    certain = q >= 1.0
    if certain.any():
        cid = sid[certain]
        slot, sowner = _ragged_slots(seg.start[cid], seg.end[cid])
        counters.edges_examined += len(slot)
        pj = probs[slot]
        accept = np.ones(len(slot), dtype=bool)
        need = np.flatnonzero(pj < 1.0)
        counters.rng_draws += len(need)
        if len(need):
            accept[need] = rng.random(len(need)) < pj[need]
        cand_sets.append(owner_sets[certain][sowner[accept]])
        cand_nodes.append(indices[slot[accept]].astype(np.int64))

    partial = ~certain
    if not partial.any():
        return cand_sets, cand_nodes
    pid = sid[partial]
    pos = seg.start[pid].astype(np.float64)
    hi = seg.end[pid].astype(np.float64)
    qq = seg.q[pid]
    lg = seg.log1mq[pid]
    osets = owner_sets[partial]
    # Same recurrence as the uniform geometric kernel, with per-entry
    # ceiling q and a thinning coin per landing where p < q.
    while len(pos):
        counters.rng_draws += len(pos)
        u = rng.random(len(pos))
        np.maximum(u, _TINY, out=u)
        jump = np.log(u) / lg
        live = jump < hi - pos
        pos = pos + np.floor(jump)
        if not live.any():
            break
        pos = pos[live]
        hi = hi[live]
        qq = qq[live]
        lg = lg[live]
        osets = osets[live]
        landed = pos.astype(np.int64)
        counters.edges_examined += len(landed)
        pj = probs[landed]
        accept = np.ones(len(landed), dtype=bool)
        need = np.flatnonzero(pj < qq)
        counters.rng_draws += len(need)
        if len(need):
            accept[need] = rng.random(len(need)) < pj[need] / qq[need]
        cand_sets.append(osets[accept])
        cand_nodes.append(indices[landed[accept]].astype(np.int64))
        pos = pos + 1.0
    return cand_sets, cand_nodes


def _sorted_distinct(values: np.ndarray) -> np.ndarray:
    """``np.unique(values)`` for a flat integer array, by sort and mask.

    The same sorted distinct values as ``np.unique``, whose hash-based path
    costs ten times a plain sort or more on the level keys.
    """
    out = np.sort(values)
    if len(out) > 1:
        keep = np.empty(len(out), dtype=bool)
        keep[0] = True
        np.not_equal(out[1:], out[:-1], out=keep[1:])
        out = out[keep]
    return out


def _resolve_mode(gen) -> str:
    """Validate the generator's batched mode against the known kernels."""
    mode = gen.batched_mode
    known = ", ".join(repr(m) for m in BATCHED_MODES)
    if mode not in BATCHED_MODES:
        raise ValueError(
            f"generator {gen.name!r} requested unknown batched mode "
            f"{mode!r}; supported batched modes are {known}"
        )
    general_mode = getattr(gen, "general_mode", "sorted")
    if mode == "subsim" and general_mode != "sorted":
        raise ConfigurationError(
            f"general_mode={general_mode!r} has no batched kernel: the "
            "batched SUBSIM engine samples skewed nodes with the sorted "
            "positional buckets only; use batch_size=1 or "
            "general_mode='sorted'"
        )
    if mode in ("ic", "subsim") and gen.graph.weight_model.startswith("lt:"):
        raise GraphFormatError(
            f"batched mode {mode!r} samples the IC model, but the graph's "
            f"weights are LT-normalized "
            f"(weight_model={gen.graph.weight_model!r}); use an LT "
            "generator (the 'lt' kernel) or reweight the graph for IC"
        )
    return mode


def generate_batch(
    gen,
    rng: np.random.Generator,
    count: int,
    stop_mask: Optional[np.ndarray] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """Grow ``count`` RR sets at once; returns flat ``(nodes, sizes)``.

    ``gen`` is a sequential :class:`~repro.rrsets.base.RRGenerator` whose
    :attr:`batched_mode` names the kernel; its graph, counters and attached
    run control are shared, so accounting is indistinguishable from the
    sequential path at batch granularity.
    """
    mode = _resolve_mode(gen)
    if mode == "lt":
        return _generate_lt_batch(gen, rng, count, stop_mask)
    return _generate_ic_batch(gen, rng, count, stop_mask, mode)


def _clamped_count(gen, count: int) -> int:
    """Gate the batch on the run control and clamp to the RR-set budget."""
    control = gen.control
    gen._begin()  # budget / cancellation gate at the batch boundary
    if control is not None and control.budget.max_rr_sets is not None:
        # Clamp so a cap mid-batch yields the same pool a sequential run
        # would have: the remaining sets now, the BudgetExceeded next call.
        count = min(count, control.budget.max_rr_sets - control.rr_sets)
    return count


def _finalize_batch(
    gen,
    chunk_sets: List[np.ndarray],
    chunk_nodes: List[np.ndarray],
    count: int,
    hit: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray]:
    """Assemble per-level chunks into flat ``(nodes, sizes)`` and account."""
    counters = gen.counters
    control = gen.control
    all_sets = np.concatenate(chunk_sets)
    all_nodes = np.concatenate(chunk_nodes)
    # Stable sort groups entries per set while keeping discovery order, so
    # each set starts with its root exactly like the sequential generators.
    # Set ids fit the narrowest unsigned type holding ``count``, on which
    # the stable sort is a radix sort with the same permutation.
    order = np.argsort(
        all_sets.astype(np.min_scalar_type(count)), kind="stable"
    )
    nodes = all_nodes[order]
    sizes = np.bincount(all_sets, minlength=count).astype(np.int64)

    counters.nodes_added += len(nodes)
    counters.sets_generated += count
    counters.sentinel_hits += int(hit.sum())
    if gen.metrics is not None:
        gen.metrics.observe_many("rr_size", sizes)
    if control is not None:
        gen._tick()
        for size in sizes:
            control.on_rr_complete(int(size))
    return nodes, sizes


def _generate_ic_batch(
    gen,
    rng: np.random.Generator,
    count: int,
    stop_mask: Optional[np.ndarray],
    mode: str,
) -> Tuple[np.ndarray, np.ndarray]:
    """The IC-family kernels: per-edge coins ("ic") or SUBSIM ("subsim")."""
    graph = gen.graph
    counters = gen.counters
    n = graph.n
    indptr = graph.in_indptr
    indices = graph.in_indices
    probs = graph.in_probs

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

    chunk_sets: List[np.ndarray] = [set_ids]
    chunk_nodes: List[np.ndarray] = [roots.astype(np.int64)]

    alive = np.ones(count, dtype=bool)
    hit = np.zeros(count, dtype=bool)
    if stop_mask is not None:
        root_hits = stop_mask[roots]
        hit |= root_hits
        alive &= ~root_hits

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
            # Certain activations: every in-neighbor joins, no draws.
            if certain.any():
                edge_idx, owner = _ragged_edges(indptr, frontier_nodes[certain])
                counters.edges_examined += len(edge_idx)
                cs_parts.append(frontier_sets[certain][owner])
                cn_parts.append(indices[edge_idx].astype(np.int64))
            gs, gn = _geometric_candidates(
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
            # Vectorized Algorithm 2: one coin per examined edge.
            edge_idx, owner = _ragged_edges(indptr, coin_nodes)
            counters.edges_examined += len(edge_idx)
            counters.rng_draws += len(edge_idx)
            if len(edge_idx):
                success = rng.random(len(edge_idx)) < probs[edge_idx]
                cs_parts.append(coin_sets[owner[success]])
                cn_parts.append(indices[edge_idx[success]].astype(np.int64))

        gen._tick()  # report this level's examined-edge delta, poll budget
        if not cs_parts:
            break
        cand_sets = np.concatenate(cs_parts)
        cand_nodes = np.concatenate(cn_parts)
        if len(cand_sets) == 0:
            break

        # Dedup within the level, then test-and-set against the bitmaps.
        key = cand_sets * np.int64(n) + cand_nodes
        key = _sorted_distinct(key)
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
                stopped = u_sets[sentinel]
                hit[stopped] = True
                alive[stopped] = False
                keep = alive[u_sets]
                u_sets, u_nodes = u_sets[keep], u_nodes[keep]
        frontier_sets, frontier_nodes = u_sets, u_nodes

    return _finalize_batch(gen, chunk_sets, chunk_nodes, count, hit)


def _generate_lt_batch(
    gen,
    rng: np.random.Generator,
    count: int,
    stop_mask: Optional[np.ndarray],
) -> Tuple[np.ndarray, np.ndarray]:
    """Level-synchronous backward live-edge walks (LT model, batched).

    Each RR set is a walk; per level every live walk resolves its single
    live in-edge with one flat alias-table pick: a uniform slot draw plus
    an acceptance coin (two ``rng_draws``), then one edge inspection if the
    outcome is a real edge.  Walks retire on the "no live edge" outcome, on
    revisiting a node (cycle), or on activating a ``stop_mask`` sentinel.
    """
    graph = gen.graph
    counters = gen.counters
    n = graph.n
    in_indptr = graph.in_indptr
    in_indices = graph.in_indices
    tables = lt_alias_tables(graph)

    count = _clamped_count(gen, count)
    if count <= 0:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)

    counters.rng_draws += count
    roots = rng.integers(0, n, size=count)

    words = (n + 63) >> 6
    bits = np.zeros((count, words), dtype=np.uint64)
    set_ids = np.arange(count, dtype=np.int64)
    bits[set_ids, roots >> 6] = np.uint64(1) << (roots & 63).astype(np.uint64)

    chunk_sets: List[np.ndarray] = [set_ids]
    chunk_nodes: List[np.ndarray] = [roots.astype(np.int64)]

    hit = np.zeros(count, dtype=bool)
    if stop_mask is not None:
        root_hits = stop_mask[roots]
        hit |= root_hits
        cur_sets = set_ids[~root_hits]
        cur_nodes = roots[~root_hits].astype(np.int64)
    else:
        cur_sets = set_ids
        cur_nodes = roots.astype(np.int64)

    t_indptr = tables.indptr
    t_prob = tables.prob
    t_alias = tables.alias
    while len(cur_nodes):
        off = t_indptr[cur_nodes]
        size = t_indptr[cur_nodes + 1] - off
        has_edges = size > 0
        cur_sets = cur_sets[has_edges]
        cur_nodes = cur_nodes[has_edges]
        off = off[has_edges]
        size = size[has_edges]
        m = len(cur_nodes)
        if m == 0:
            break
        # Flat alias pick: outcome in [0, size) per walk, where outcome
        # size-1 is "no live in-edge" and the rest index the in-block.
        counters.rng_draws += 2 * m
        slot = np.minimum(
            (rng.random(m) * size).astype(np.int64), size - 1
        )
        coin = rng.random(m)
        pick = off + slot
        take_alias = coin >= t_prob[pick]
        outcome = np.where(take_alias, t_alias[pick], slot)
        is_edge = outcome < size - 1
        counters.edges_examined += int(is_edge.sum())
        gen._tick()  # report this level's inspected edges, poll budget
        cur_sets = cur_sets[is_edge]
        cur_nodes = cur_nodes[is_edge]
        outcome = outcome[is_edge]
        if len(cur_nodes) == 0:
            break
        nxt = in_indices[in_indptr[cur_nodes] + outcome].astype(np.int64)
        word = nxt >> 6
        bit = np.uint64(1) << (nxt & 63).astype(np.uint64)
        # Each live walk contributes exactly one candidate per level, so
        # (set, word) pairs are unique and plain fancy indexing suffices.
        fresh = (bits[cur_sets, word] & bit) == 0
        cur_sets = cur_sets[fresh]
        nxt = nxt[fresh]
        word = word[fresh]
        bit = bit[fresh]
        if len(cur_sets) == 0:
            break
        bits[cur_sets, word] |= bit
        chunk_sets.append(cur_sets)
        chunk_nodes.append(nxt)
        if stop_mask is not None:
            sentinel = stop_mask[nxt]
            if sentinel.any():
                hit[cur_sets[sentinel]] = True
                keep = ~sentinel
                cur_sets = cur_sets[keep]
                nxt = nxt[keep]
        cur_nodes = nxt

    return _finalize_batch(gen, chunk_sets, chunk_nodes, count, hit)
