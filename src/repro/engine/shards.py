"""Shard-resident RR banks over a :class:`~repro.rrsets.shardpool.ShardPool`.

A :class:`ShardedRRBank` is the sharded counterpart of
:class:`~repro.rrsets.bank.RRBank`: same role in the algorithms (grow to
``theta``, hand back a selectable prefix view, account generation cost),
but the RR sets themselves never leave the worker processes.  The parent
holds only bookkeeping — per-request shard counts, counter marks, and the
parent-side generator object whose cumulative counters mirror the merged
worker deltas (so ``bank.generator.counters``, run-control accounting, and
result assembly all work unchanged).

**Determinism.**  Every generate request ``i`` of a role seeds worker
``rank`` with ``SeedSequence(entropy, spawn_key=(role_key, rank, i))`` —
self-contained, independent of worker history.  The request index is
monotone for the bank's lifetime: :meth:`reset_pool` (HIST's fresh pool
per sentinel candidate) advances it, matching the single-pool bank whose
stream keeps advancing across resets, while :meth:`evict` rewinds it to
zero so the regenerated prefix is bit-identical to the evicted one.
Fixed ``(entropy, shards)`` therefore reproduces the exact same sharded
pool run-to-run — and makes worker crash recovery a pure journal replay.

**Global set order.**  Within one generate request, sets are ordered
rank-major (all of rank 0's shard, then rank 1's, ...); requests
concatenate in issue order.  :meth:`view` computes, for any global prefix
``theta``, the per-rank local limits plus the global-order segment table
that lets gathered per-set arrays (``per_set_sums``) and masks be
assembled in exactly that order.
"""

from __future__ import annotations

import zlib
from typing import Any, Dict, Iterable, List, Optional, Tuple

import numpy as np

from repro.graphs.csr import CSRGraph
from repro.rrsets.base import GenerationCounters, RRGenerator
from repro.rrsets.shardpool import ShardPool
from repro.runtime.checkpoint import counters_from_dict, counters_to_dict
from repro.utils.exceptions import ConfigurationError, ExecutionInterrupted


def shard_counts(count: int, workers: int) -> list:
    """Split ``count`` sets into per-rank shard sizes (first ranks larger)."""
    base, extra = divmod(count, workers)
    return [base + (1 if r < extra else 0) for r in range(workers)]


def _merge_counters(counters: GenerationCounters, totals) -> None:
    """Fold one request's merged worker counter totals into ``counters``."""
    counters.edges_examined += totals[0]
    counters.rng_draws += totals[1]
    counters.nodes_added += totals[2]
    counters.sets_generated += totals[3]
    counters.sentinel_hits += totals[4]


class ShardedSeedMask:
    """Lazy stand-in for ``covered_mask(seeds)`` on a sharded view.

    The actual boolean mask lives distributed across the shards; selection
    code only ever uses the mask to say "treat the sets these seeds cover
    as already covered", so the sharded view returns this marker and the
    sharded selection marks the seeds where the data lives.
    """

    __slots__ = ("seeds",)

    def __init__(self, seeds: Iterable[int]) -> None:
        self.seeds = [int(s) for s in seeds]

    def any(self) -> bool:
        return bool(self.seeds)


class ShardedPoolView:
    """Read-only prefix view over a role's shard-resident pool.

    Mirrors the selection/estimation surface of
    :class:`~repro.rrsets.collection.RRCollection` /
    :class:`~repro.rrsets.collection.RRPrefixView`; every query is a
    scatter-gather over the shard workers.  ``is_sharded`` routes
    :func:`~repro.coverage.greedy.max_coverage_greedy` to its sharded
    implementation.
    """

    is_sharded = True

    def __init__(self, bank: "ShardedRRBank", num_rr: int) -> None:
        self._bank = bank
        self.num_rr = int(num_rr)
        self.limits = bank._limits_for(self.num_rr)

    def __len__(self) -> int:
        return self.num_rr

    @property
    def n(self) -> int:
        return self._bank.graph.n

    @property
    def role(self) -> str:
        return self._bank.role

    @property
    def shard_pool(self) -> ShardPool:
        return self._bank.shard_pool

    # -- coverage/estimation surface -----------------------------------
    def coverage_counts(self) -> np.ndarray:
        return self.shard_pool.coverage_counts(self.role, self.limits)

    def coverage(self, seeds: Iterable[int]) -> int:
        return self.shard_pool.coverage(self.role, self.limits, list(seeds))

    def covered_mask(self, seeds: Iterable[int]) -> ShardedSeedMask:
        return ShardedSeedMask(seeds)

    def estimate_influence(self, seeds: Iterable[int]) -> float:
        if self.num_rr == 0:
            raise ValueError("cannot estimate influence from an empty pool")
        return self.n * self.coverage(seeds) / self.num_rr

    def per_set_sums(
        self, values: np.ndarray, stop: Optional[int] = None
    ) -> np.ndarray:
        """Per-set sums over the first ``stop`` sets, in global set order."""
        stop = self.num_rr if stop is None else min(int(stop), self.num_rr)
        limits = self._bank._limits_for(stop)
        local = self.shard_pool.per_set_sums(self.role, limits, values)
        return self._bank.assemble_global(local, stop)

    def assemble_global(self, per_rank: List[np.ndarray]) -> np.ndarray:
        """Stitch per-rank local-order arrays into global set order."""
        return self._bank.assemble_global(per_rank, self.num_rr)


class ShardedRRBank:
    """An RR bank whose pool lives sharded across a :class:`ShardPool`."""

    def __init__(
        self,
        graph: CSRGraph,
        generator: RRGenerator,
        shard_pool: ShardPool,
        *,
        role: str,
        entropy: int,
        stop_mask: Optional[np.ndarray] = None,
        reusable: bool = False,
        byte_cap: Optional[int] = None,
    ) -> None:
        if reusable and stop_mask is not None:
            raise ConfigurationError(
                "a reusable bank cannot carry a stop mask: masked RR sets "
                "are query-specific and must not be served to other queries"
            )
        self.graph = graph
        self.generator = generator
        self.shard_pool = shard_pool
        self.role = role
        self.entropy = int(entropy)
        self.stop_mask = stop_mask
        self.reusable = reusable
        self.byte_cap = byte_cap
        self._role_key = zlib.crc32(role.encode("utf-8"))
        #: per-request per-rank shard counts, in issue order — the complete
        #: description of the global set order.
        self._appends: List[List[int]] = []
        self._rank_totals = [0] * shard_pool.shards
        self._next_req = 0
        self._marks: Dict[int, Dict[str, int]] = {0: _zero_mark()}
        self._sinks: Tuple[Any, ...] = ()
        self._used = 0
        self._query_base = 0
        self._reuse_counted = 0
        self._repair_epoch = 0
        self._dirty = False

    # ------------------------------------------------------------------
    @property
    def num_rr(self) -> int:
        return sum(self._rank_totals)

    @property
    def pool(self) -> ShardedPoolView:
        """Full-pool view (the ``bank.pool`` fallback paths read)."""
        return ShardedPoolView(self, self.num_rr)

    # ------------------------------------------------------------------
    # growth
    # ------------------------------------------------------------------
    def ensure(
        self, theta: int, stop_mask: Optional[np.ndarray] = None
    ) -> ShardedPoolView:
        """Grow the sharded pool to at least ``theta`` sets (prefix view)."""
        theta = int(theta)
        mask = self._resolve_mask(stop_mask)
        have = self.num_rr
        if theta > have:
            try:
                self._extend(theta - have, mask)
            except ExecutionInterrupted:
                self._dirty = True
                raise
            if self.reusable:
                self._marks[self.num_rr] = counters_to_dict(
                    self.generator.counters
                )
        self._account(min(theta, self.num_rr), self.num_rr - have)
        return self.view(theta)

    def _extend(self, count: int, mask: Optional[np.ndarray]) -> None:
        gen = self.generator
        control = gen.control
        pool = self.shard_pool
        remaining = count
        while remaining > 0:
            req = remaining
            if control is not None:
                # Budget enforcement happens at the request boundary:
                # on_rr_start raises once the budget is exhausted, and a
                # clamped request under-delivers so the *next* boundary
                # surfaces the expiry.
                control.on_rr_start()
                if control.budget.max_rr_sets is not None:
                    req = min(
                        req, control.budget.max_rr_sets - control.rr_sets
                    )
                if req <= 0:
                    continue
            counts = shard_counts(req, pool.shards)
            seeds = [
                np.random.SeedSequence(
                    self.entropy,
                    spawn_key=(self._role_key, rank, self._next_req),
                )
                for rank in range(pool.shards)
            ]
            self._next_req += 1
            want_metrics = gen.metrics is not None
            replies = pool.generate(
                self.role,
                counts,
                seeds,
                generator_cls=type(gen),
                batch_size=max(2, int(gen.batch_size or 1)),
                stop_mask=mask,
                want_metrics=want_metrics,
            )
            merged = tuple(
                sum(r["totals"][i] for r in replies) for i in range(5)
            )
            _merge_counters(gen.counters, merged)
            if want_metrics:
                gen.metrics.merge_snapshots(
                    r["metrics"] for r in replies if r["metrics"] is not None
                )
                gen.metrics.inc("shardpool.generate_calls")
            sizes = np.concatenate([r["sizes"] for r in replies])
            if control is not None:
                gen._tick()  # reports the merged edges_examined delta
                for size in sizes:
                    control.on_rr_complete(int(size))
            self._appends.append(counts)
            for rank, c in enumerate(counts):
                self._rank_totals[rank] += c
            remaining -= int(sum(counts))

    def take(self, index: int) -> np.ndarray:
        raise ConfigurationError(
            "cursor-style take() is not available on sharded banks; "
            "serve this algorithm from a QuerySession with shards=None"
        )

    def view(self, theta: int) -> ShardedPoolView:
        return ShardedPoolView(self, min(int(theta), self.num_rr))

    def _resolve_mask(
        self, stop_mask: Optional[np.ndarray]
    ) -> Optional[np.ndarray]:
        if stop_mask is None:
            return self.stop_mask
        if self.reusable:
            raise ConfigurationError(
                f"bank {self.role!r} is reusable and cannot generate "
                "stop-masked sets"
            )
        return stop_mask

    # ------------------------------------------------------------------
    # global set order
    # ------------------------------------------------------------------
    def _limits_for(self, theta: int) -> List[int]:
        """Per-rank local prefix lengths covering the global prefix ``theta``."""
        limits = [0] * self.shard_pool.shards
        remaining = int(theta)
        for counts in self._appends:
            if remaining <= 0:
                break
            for rank, c in enumerate(counts):
                take = min(c, remaining)
                limits[rank] += take
                remaining -= take
                if remaining <= 0:
                    break
        return limits

    def _segments_for(self, theta: int) -> List[Tuple[int, int, int]]:
        """Global-order ``(rank, local_start, count)`` segments for ``theta``."""
        segs: List[Tuple[int, int, int]] = []
        local = [0] * self.shard_pool.shards
        remaining = int(theta)
        for counts in self._appends:
            if remaining <= 0:
                break
            for rank, c in enumerate(counts):
                take = min(c, remaining)
                if take > 0:
                    segs.append((rank, local[rank], take))
                local[rank] += c
                remaining -= take
                if remaining <= 0:
                    break
        return segs

    def assemble_global(
        self, per_rank: List[np.ndarray], theta: int
    ) -> np.ndarray:
        """Assemble per-rank local-order set arrays into global order."""
        if theta == 0:
            return np.zeros(0, dtype=np.int64)
        chunks = [
            per_rank[rank][start: start + count]
            for rank, start, count in self._segments_for(theta)
        ]
        return np.concatenate(chunks)

    # ------------------------------------------------------------------
    # accounting (same semantics as RRBank)
    # ------------------------------------------------------------------
    def _account(self, used: int, generated: int) -> None:
        if used > self._used:
            self._used = used
        reused_now = min(used, self._query_base)
        fresh = reused_now - self._reuse_counted
        if fresh > 0:
            self._reuse_counted = reused_now
        for sink in self._sinks:
            if generated:
                sink.inc("bank.sets_generated", generated)
            if fresh > 0:
                sink.inc("bank.sets_reused", fresh)

    def counters_at(self, num_sets: int) -> GenerationCounters:
        num_sets = int(num_sets)
        if num_sets >= self.num_rr:
            return self.generator.counters
        mark = self._marks.get(num_sets)
        if mark is None:
            best = max(size for size in self._marks if size <= num_sets)
            mark = self._marks[best]
        return counters_from_dict(mark)

    @property
    def counters(self) -> GenerationCounters:
        if not self.reusable:
            return self.generator.counters
        return self.counters_at(self._used)

    def nbytes(self) -> int:
        """Resident bytes of this role's shards across all workers."""
        return sum(
            stats.get(self.role, {}).get("nbytes", 0)
            for stats in self.shard_pool.stats()
        )

    @property
    def over_cap(self) -> bool:
        return self.byte_cap is not None and self.nbytes() > self.byte_cap

    # ------------------------------------------------------------------
    # incremental repair
    # ------------------------------------------------------------------
    def repair(self, dirty_nodes: np.ndarray) -> Dict[str, Any]:
        """Resample the shard-resident sets a graph delta invalidated.

        The counterpart of :meth:`RRBank.repair
        <repro.rrsets.bank.RRBank.repair>`: each worker finds its own
        dirty local ids and reseeds them in place (the repair command is
        journaled, so crash recovery replays it bit-identically).  The
        caller must broadcast the delta itself with
        :meth:`ShardPool.apply_delta` first — the parent-side generator
        here only mirrors counters and needs no graph refresh.
        """
        if not self.reusable:
            raise ConfigurationError("only reusable banks can be repaired")
        self._repair_epoch += 1
        num_rr = self.num_rr
        replies = self.shard_pool.repair(
            self.role,
            np.asarray(dirty_nodes, dtype=np.int64),
            entropy=self.entropy,
            role_key=self._role_key,
            epoch=self._repair_epoch,
        )
        num_dirty = int(sum(r["num_dirty"] for r in replies))
        return {
            "num_rr": int(num_rr),
            "num_dirty": num_dirty,
            "dirty_fraction": num_dirty / num_rr if num_rr else 0.0,
            "repair_epoch": int(self._repair_epoch),
            "repair_counters": _zero_mark(),
        }

    # ------------------------------------------------------------------
    # query lifecycle
    # ------------------------------------------------------------------
    def begin_query(self, sinks: Iterable[Any] = ()) -> None:
        self._sinks = tuple(sinks)
        self._query_base = self.num_rr
        self._reuse_counted = 0
        self._used = 0

    def end_query(self) -> bool:
        evicted = False
        if self.reusable and (self._dirty or self.over_cap):
            self.evict()
            evicted = True
        self._sinks = ()
        return evicted

    def evict(self) -> None:
        """Drop every shard and rewind to the request origin.

        The next query reissues requests ``0, 1, ...`` with the identical
        per-request seeds, so the regenerated prefix is bit-identical to
        the evicted one (same property as the single-pool bank's RNG
        rewind).
        """
        if not self.reusable:
            raise ConfigurationError("only reusable banks can be evicted")
        for sink in self._sinks:
            sink.inc("bank.evictions")
        self.shard_pool.reset_role(self.role)
        self.generator.counters = GenerationCounters()
        self.generator._reported_edges = 0
        self._appends = []
        self._rank_totals = [0] * self.shard_pool.shards
        self._next_req = 0
        self._marks = {0: _zero_mark()}
        self._used = 0
        self._query_base = 0
        self._reuse_counted = 0
        self._dirty = False

    def reset_pool(self) -> None:
        """Drop the shards but keep the request stream advancing.

        HIST's fresh-pool-per-sentinel-candidate pattern: the request index
        is *not* rewound, so each candidate's pool draws from fresh seeds —
        exactly like the single-pool bank whose RNG keeps advancing.
        """
        if self.reusable:
            raise ConfigurationError(
                "reusable banks are prefix-stable and cannot be reset "
                "mid-stream; use evict()"
            )
        self.shard_pool.reset_role(self.role)
        self._appends = []
        self._rank_totals = [0] * self.shard_pool.shards
        self._used = 0
        self._query_base = 0
        self._reuse_counted = 0

    # ------------------------------------------------------------------
    def adopt(self, pool, counters_payload) -> None:
        raise ConfigurationError(
            "sharded banks cannot adopt run-checkpoint state; "
            "checkpoint/resume requires shards=None"
        )

    def state_dict(self) -> Dict[str, Any]:
        raise ConfigurationError(
            "sharded banks do not support warm-start serialization; "
            "session save/restore requires shards=None"
        )

    def restore_state(self, payload, pool) -> None:
        raise ConfigurationError(
            "sharded banks do not support warm-start serialization; "
            "session save/restore requires shards=None"
        )


def _zero_mark() -> Dict[str, int]:
    return counters_to_dict(GenerationCounters())
