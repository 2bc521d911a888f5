"""RR-set banks: append-only pools that survive the query that filled them.

An :class:`RRBank` binds one :class:`~repro.rrsets.collection.RRCollection`
to the (generator, RNG stream) pair that fills it, which is what makes the
pool *prefix-stable*: because the bank owns its stream, the first ``theta``
sets it ever materialises are a deterministic function of the stream
origin — independent of how many queries asked for them or how far past
``theta`` the pool has since grown.  A warm query that needs ``theta`` sets
can therefore select over :meth:`ensure`'s prefix view and obtain exactly
the sets a cold run of size ``theta`` would have generated.

Two operating modes share the class:

* **Transient** (``reusable=False``) — the bank wraps the run's own RNG
  exactly as the pre-bank code did (pools interleave their draws on one
  stream), lives for a single ``run()``, and adds no accounting.  This is
  the default-path mode and is bit-identical to the historical behaviour.
* **Session** (``reusable=True``) — the bank owns a private stream, records
  a *counter mark* (a snapshot of the generator's cumulative counters) at
  every pool size it has ever stopped at, and reports reuse/generation
  deltas to the metric sinks installed by
  :meth:`~repro.engine.session.BankProvider.begin_query`.  Marks are what
  let a warm query report the same generation cost a cold run of its
  prefix would have paid.

Memory accounting: ``byte_cap`` bounds the pool's resident bytes.  The cap
is enforced *between* queries (:meth:`end_query`), never mid-query — a
query's prefix must stay stable while it is being served.  Eviction resets
the pool, the generator counters, and the RNG back to the stream origin,
so the next query regenerates the identical prefix from scratch.
"""

from __future__ import annotations

import zlib
from typing import Any, Dict, Iterable, Optional, Tuple, Union

import numpy as np

from repro.graphs.csr import CSRGraph
from repro.rrsets.base import GenerationCounters, RRGenerator
from repro.rrsets.collection import RRCollection, RRPrefixView
from repro.rrsets.journal import BIT_GENERATOR, UnitJournal
from repro.runtime.checkpoint import counters_from_dict, counters_to_dict
from repro.utils.exceptions import (
    CheckpointError,
    ConfigurationError,
    ExecutionInterrupted,
)

PoolLike = Union[RRCollection, RRPrefixView]

#: spawn-key tag separating repair streams from every other stream derived
#: from the session entropy (role streams use ``(crc32(role),)``; repair
#: fallback seeds are ``(crc32(role), REPAIR_KEY, epoch, set_id)``).
REPAIR_KEY = 0x5250


def _zero_mark() -> Dict[str, int]:
    return counters_to_dict(GenerationCounters())


def replay_units(
    journal: UnitJournal,
    dirty_ids: np.ndarray,
    repair_gen: RRGenerator,
) -> Tuple[list, list, list, list]:
    """Regenerate every journaled unit containing a dirty set.

    Each journal row records the RNG bit-generator state captured before
    one generation unit (a single sequential ``generate`` call or one
    ``generate_batch`` chunk — see :meth:`RRCollection.extend`).  Replaying
    a dirty unit's *original* state on the mutated graph is the exact
    coupling: the replacement is distributed precisely as a cold sample on
    the new graph, and a unit none of whose walks read a changed
    in-adjacency block replays bit-identically (which is why clean units
    can be kept verbatim in the first place).  Resampling with *fresh*
    seeds instead would bias the pool — kept sets are conditioned on
    avoiding the touched nodes, so touched-node membership would fall from
    ``p`` to roughly ``p**2``.

    Returns ``(ids, node_chunks, sizes, uncovered)`` where ``uncovered``
    lists the dirty set ids no replayable unit covers (adopted sets,
    under-delivered chunks, pre-journal snapshots); the caller decides how
    to resample those.
    """
    dirty_ids = np.asarray(dirty_ids, dtype=np.int64)
    # Column views: locating the dirty units costs no per-row Python work,
    # and a state dict is built only for each unit actually replayed.
    starts = journal.starts
    unit_of = np.searchsorted(starts, dirty_ids, side="right") - 1
    covered = unit_of >= 0
    if len(journal):
        owner = np.maximum(unit_of, 0)
        covered &= (
            dirty_ids < starts[owner] + journal.counts[owner]
        ) & journal.replayable[owner]
    uncovered = [int(i) for i in dirty_ids[~covered]]
    ids: list = []
    chunks: list = []
    sizes: list = []
    # One Generator, re-stated per unit: construction dominates replay
    # overhead for single-set units.
    rng = np.random.Generator(np.random.PCG64(0))
    for unit in np.unique(unit_of[covered]).tolist():
        start, count, _, batch, state = journal.unit(unit)
        rng.bit_generator.state = state
        if not batch:
            rr = np.asarray(repair_gen.generate(rng), dtype=np.int64)
            ids.append(start)
            chunks.append(rr)
            sizes.append(len(rr))
        else:
            nodes, unit_sizes = repair_gen.generate_batch(rng, count)
            if len(unit_sizes) != count:
                raise ConfigurationError(
                    f"repair replay of unit at {start} delivered "
                    f"{len(unit_sizes)} sets, expected {count}"
                )
            ids.extend(range(start, start + count))
            chunks.append(np.asarray(nodes, dtype=np.int64))
            sizes.extend(int(s) for s in unit_sizes)
    return ids, chunks, sizes, uncovered


class RRBank:
    """An append-only RR pool bound to one generator and one RNG stream."""

    def __init__(
        self,
        graph: CSRGraph,
        generator: RRGenerator,
        rng: np.random.Generator,
        *,
        role: str = "bank",
        stop_mask: Optional[np.ndarray] = None,
        reusable: bool = False,
        byte_cap: Optional[int] = None,
        entropy: Optional[int] = None,
    ) -> None:
        if reusable and stop_mask is not None:
            raise ConfigurationError(
                "a reusable bank cannot carry a stop mask: masked RR sets "
                "are query-specific and must not be served to other queries"
            )
        if reusable and type(rng.bit_generator).__name__ != BIT_GENERATOR:
            raise ConfigurationError(
                f"a reusable bank draws from a {BIT_GENERATOR} session "
                f"stream, got {type(rng.bit_generator).__name__}: its unit "
                "journal records PCG64 states only"
            )
        self.graph = graph
        self.generator = generator
        self.rng = rng
        self.role = role
        self.stop_mask = stop_mask
        self.reusable = reusable
        self.byte_cap = byte_cap
        #: session entropy the bank's streams derive from; required only by
        #: :meth:`repair`'s fresh-seed fallback for sets the unit journal
        #: does not cover.
        self.entropy = entropy
        self._repair_epoch = 0
        #: per-unit RNG states captured during generation (reusable banks
        #: only) — the seed specs :meth:`repair` replays.
        self._journal = UnitJournal()
        self.pool = RRCollection(graph.n)
        # The stream origin: eviction rewinds here so the regenerated
        # prefix is identical to the evicted one.
        self._rng_state0: Optional[Dict[str, Any]] = (
            rng.bit_generator.state if reusable else None
        )
        self._marks: Dict[int, Dict[str, int]] = {0: _zero_mark()}
        self._sinks: Tuple[Any, ...] = ()
        self._used = 0
        self._query_base = 0
        self._reuse_counted = 0
        self._dirty = False

    # ------------------------------------------------------------------
    # growth
    # ------------------------------------------------------------------
    def ensure(
        self, theta: int, stop_mask: Optional[np.ndarray] = None
    ) -> PoolLike:
        """Grow the pool to at least ``theta`` sets; return the prefix view.

        Existing sets are never regenerated — a warm call whose prefix is
        already materialised only does reuse accounting.  An interrupt
        mid-extension marks the bank dirty; :meth:`end_query` evicts dirty
        session banks so a half-extended pool never serves a later query.
        """
        theta = int(theta)
        mask = self._resolve_mask(stop_mask)
        have = self.pool.num_rr
        if theta > have:
            try:
                self.pool.extend(
                    theta - have,
                    self.generator,
                    self.rng,
                    mask,
                    journal=self._journal if self.reusable else None,
                )
            except ExecutionInterrupted:
                self._dirty = True
                raise
            if self.reusable:
                self._marks[self.pool.num_rr] = counters_to_dict(
                    self.generator.counters
                )
            metrics = getattr(self.generator, "metrics", None)
            if metrics is not None:
                # extend() published the pool-only figure; overwrite with
                # the bank-level total (pool + journal) so the gauge
                # matches what byte_cap eviction accounts.
                metrics.set_gauge("rr_pool_bytes", self.nbytes())
        self._account(min(theta, self.pool.num_rr), self.pool.num_rr - have)
        return self.view(theta)

    def take(self, index: int) -> np.ndarray:
        """The nodes of set ``index``, generating it if it is the next one.

        This is the cursor-style access pattern of SSA's validation phase
        and Borgs' edge-budgeted loop: both consume sets one at a time and
        consult the generation cost after each.  Generation always uses the
        sequential single-set path (``generator.generate``), matching the
        historical per-set draws of those loops regardless of the bank's
        batching configuration, and a reusable bank records a counter mark
        per set so :meth:`counters_at` is exact at every cut point.
        """
        index = int(index)
        generated = 0
        if index >= self.pool.num_rr:
            if index != self.pool.num_rr:
                raise IndexError(
                    f"take({index}) skips sets: pool holds {self.pool.num_rr}"
                )
            state = self.rng.bit_generator.state if self.reusable else None
            try:
                rr = self.generator.generate(self.rng, stop_mask=self.stop_mask)
            except ExecutionInterrupted:
                self._dirty = True
                raise
            self.pool.add(rr)
            generated = 1
            if self.reusable:
                self._journal.append(index, 1, 1, False, state)
                self._marks[self.pool.num_rr] = counters_to_dict(
                    self.generator.counters
                )
        self._account(index + 1, generated)
        return self.pool.set_nodes(index)

    def view(self, theta: int) -> PoolLike:
        """Prefix view over ``min(theta, pool size)`` sets (no growth)."""
        return self.pool.prefix(min(int(theta), self.pool.num_rr))

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
    # accounting
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
        """Cumulative generation counters after the first ``num_sets`` sets.

        Live generator counters when ``num_sets`` reaches the pool frontier
        (the transient/cold case); otherwise the recorded mark.  Marks are
        exact at every pool size the bank has stopped at (every ``ensure``
        boundary and every ``take``); for an unmarked interior size the
        nearest mark at or below is returned — a documented approximation
        that only arises when a warm query cuts a doubling schedule at a
        point no cold run ever stops at.
        """
        num_sets = int(num_sets)
        if num_sets >= self.pool.num_rr:
            return self.generator.counters
        mark = self._marks.get(num_sets)
        if mark is None:
            best = max(size for size in self._marks if size <= num_sets)
            mark = self._marks[best]
        return counters_from_dict(mark)

    @property
    def counters(self) -> GenerationCounters:
        """Generation cost attributable to the *current* query.

        Transient banks report the live generator counters (they live for
        exactly one query); reusable banks report the cost of the prefix
        the query actually consumed, which matches what a cold run of that
        prefix would have paid.
        """
        if not self.reusable:
            return self.generator.counters
        return self.counters_at(self._used)

    def journal_nbytes(self) -> int:
        """Resident bytes of the per-unit RNG journal (exact)."""
        return self._journal.nbytes()

    def nbytes(self) -> int:
        """Resident bytes the bank pins: pool buffers plus the repair
        journal.

        The journal grows one entry per generation unit and was previously
        invisible to ``byte_cap`` accounting, letting a "capped" bank hold
        arbitrarily more memory than its pool; the gauge and eviction now
        see the full figure.
        """
        return self.pool.nbytes() + self.journal_nbytes()

    @property
    def over_cap(self) -> bool:
        return self.byte_cap is not None and self.nbytes() > self.byte_cap

    # ------------------------------------------------------------------
    # incremental repair
    # ------------------------------------------------------------------
    def _fresh_generator(self) -> RRGenerator:
        """A new generator instance with this bank's model configuration.

        Construction re-derives every graph-dependent cache (e.g. SUBSIM's
        per-node rate arrays are fingerprint-keyed), so a generator built
        after :meth:`CSRGraph.apply_delta` samples from the mutated graph.
        """
        cls = type(self.generator)
        mode = getattr(self.generator, "general_mode", None)
        gen = cls(self.graph, mode) if mode is not None else cls(self.graph)
        gen.batch_size = self.generator.batch_size
        return gen

    def repair(self, dirty_nodes: np.ndarray) -> Dict[str, Any]:
        """Resample the stored sets a graph delta invalidated, in place.

        ``dirty_nodes`` are the delta's touched nodes (destinations of
        changed edges).  Generation only examines the in-adjacency blocks
        of nodes it activates, so a stored set containing no touched node
        would replay bit-identically on the mutated graph — those sets are
        kept verbatim and the pool's prefix stability survives.  Dirty
        sets are regenerated by :func:`replay_units`: each owning
        generation unit replays its journaled RNG state on the mutated
        graph, the exact coupling under which the repaired pool is
        distributed precisely as a cold pool on the new graph.  Dirty sets
        the journal cannot replay (adopted pools, pre-journal snapshots)
        fall back to fresh per-set seeds ``SeedSequence(entropy,
        spawn_key=(crc32(role), REPAIR_KEY, repair_epoch, set_id))``.

        The bank's growth generator is also rebuilt (its construction-time
        caches described the pre-delta graph).  Resampling runs on a
        separate fresh generator so the cumulative counters — and the
        marks recorded from them — keep describing the prefix's own
        generation cost; the repair cost is returned, not mixed in.
        """
        if not self.reusable:
            raise ConfigurationError("only reusable banks can be repaired")
        dirty_nodes = np.asarray(dirty_nodes, dtype=np.int64)
        self._repair_epoch += 1
        num_rr = self.pool.num_rr
        dirty_ids = self.pool.sets_touching(dirty_nodes)

        old = self.generator
        fresh = self._fresh_generator()
        fresh.counters = old.counters
        fresh.control = old.control
        fresh.metrics = old.metrics
        fresh._reported_edges = old._reported_edges
        self.generator = fresh

        num_resampled = 0
        num_fallback = 0
        if len(dirty_ids):
            repair_gen = self._fresh_generator()
            ids, chunks, sizes, uncovered = replay_units(
                self._journal, dirty_ids, repair_gen
            )
            num_fallback = len(uncovered)
            if uncovered:
                if self.entropy is None:
                    raise ConfigurationError(
                        f"bank {self.role!r} has no entropy: "
                        f"{num_fallback} dirty sets are outside the unit "
                        "journal and need fallback reseed specs"
                    )
                role_key = zlib.crc32(self.role.encode("utf-8"))
                for set_id in uncovered:
                    seq = np.random.SeedSequence(
                        self.entropy,
                        spawn_key=(
                            role_key,
                            REPAIR_KEY,
                            self._repair_epoch,
                            int(set_id),
                        ),
                    )
                    rr = np.asarray(
                        repair_gen.generate(np.random.default_rng(seq)),
                        dtype=np.int64,
                    )
                    ids.append(int(set_id))
                    chunks.append(rr)
                    sizes.append(len(rr))
            order = np.argsort(np.asarray(ids, dtype=np.int64))
            flat = np.concatenate(chunks) if chunks else np.empty(0, np.int64)
            sizes_arr = np.asarray(sizes, dtype=np.int64)
            bounds = np.concatenate(([0], np.cumsum(sizes_arr)))
            reordered = [flat[bounds[i]:bounds[i + 1]] for i in order]
            self.pool.replace_sets(
                np.asarray(ids, dtype=np.int64)[order],
                np.concatenate(reordered),
                sizes_arr[order],
            )
            num_resampled = len(ids)
            repair_counters = counters_to_dict(repair_gen.counters)
        else:
            repair_counters = _zero_mark()
        return {
            "num_rr": int(num_rr),
            "num_dirty": int(len(dirty_ids)),
            "num_resampled": int(num_resampled),
            "num_fallback": int(num_fallback),
            "dirty_fraction": (
                len(dirty_ids) / num_rr if num_rr else 0.0
            ),
            "repair_epoch": int(self._repair_epoch),
            "repair_counters": repair_counters,
        }

    # ------------------------------------------------------------------
    # query lifecycle
    # ------------------------------------------------------------------
    def begin_query(self, sinks: Iterable[Any] = ()) -> None:
        """Start serving a query: reset per-query accounting."""
        self._sinks = tuple(sinks)
        self._query_base = self.pool.num_rr
        self._reuse_counted = 0
        self._used = 0

    def end_query(self) -> bool:
        """Finish the query; evict if dirty or over the byte cap."""
        evicted = False
        if self.reusable and (self._dirty or self.over_cap):
            self.evict()
            evicted = True
        self._sinks = ()
        return evicted

    def evict(self) -> None:
        """Drop the pool and rewind to the stream origin.

        Only meaningful for reusable banks: the RNG is restored to its
        recorded origin and the generator's counters zeroed, so the next
        query regenerates a bit-identical prefix from scratch.
        """
        if not self.reusable:
            raise ConfigurationError("only reusable banks can be evicted")
        for sink in self._sinks:
            sink.inc("bank.evictions")
        self.pool = RRCollection(self.graph.n)
        self.generator.counters = GenerationCounters()
        self.generator._reported_edges = 0
        self.rng.bit_generator.state = self._rng_state0
        self._journal = UnitJournal()
        self._marks = {0: _zero_mark()}
        self._used = 0
        self._query_base = 0
        self._reuse_counted = 0
        self._dirty = False

    def reset_pool(self) -> None:
        """Drop the pool but keep the generator and RNG where they are.

        The pattern of HIST's sentinel verification: each candidate gets a
        fresh stop-masked pool while the stream keeps advancing — exactly
        the historical fresh-``RRCollection``-per-candidate behaviour.
        """
        if self.reusable:
            raise ConfigurationError(
                "reusable banks are prefix-stable and cannot be reset "
                "mid-stream; use evict()"
            )
        self.pool = RRCollection(self.graph.n)
        self._used = 0
        self._query_base = 0
        self._reuse_counted = 0

    # ------------------------------------------------------------------
    # checkpoint / warm-start serialization
    # ------------------------------------------------------------------
    def adopt(self, pool: RRCollection, counters_payload: Dict[str, int]) -> None:
        """Install a checkpoint-restored pool and counter state.

        The transient half of resume: run-level checkpoints persist pools
        and counters, and the run's RNG state is restored separately by the
        algorithm.  Session banks never adopt run checkpoints (their state
        round-trips through :meth:`state_dict`).
        """
        if self.reusable:
            raise ConfigurationError(
                "cannot adopt run-checkpoint state into a session bank"
            )
        self.pool = pool
        self.generator.counters = counters_from_dict(counters_payload)
        self.generator._reported_edges = self.generator.counters.edges_examined

    def state_dict(self) -> Dict[str, Any]:
        """JSON-able warm-start state (pool arrays travel separately)."""
        return {
            "role": self.role,
            "generator": type(self.generator).__name__,
            "num_rr": int(self.pool.num_rr),
            "counters": counters_to_dict(self.generator.counters),
            "marks": {
                str(size): dict(mark) for size, mark in self._marks.items()
            },
            "rng_state": self.rng.bit_generator.state,
            "rng_state0": self._rng_state0,
            "repair_epoch": int(self._repair_epoch),
            "journal": self._journal.to_entries(),
        }

    def restore_state(
        self, payload: Dict[str, Any], pool: RRCollection
    ) -> None:
        """Warm-start from a :meth:`state_dict` payload and restored pool."""
        expected = type(self.generator).__name__
        found = payload.get("generator")
        if found != expected:
            raise CheckpointError(
                f"bank {self.role!r} was saved with generator {found!r}, "
                f"not {expected!r}"
            )
        if int(payload.get("num_rr", -1)) != pool.num_rr:
            raise CheckpointError(
                f"bank {self.role!r}: pool holds {pool.num_rr} sets but the "
                f"metadata recorded {payload.get('num_rr')}"
            )
        try:
            journal = UnitJournal.from_entries(payload.get("journal", []))
        except (ConfigurationError, KeyError, TypeError) as exc:
            raise CheckpointError(
                f"bank {self.role!r}: unreadable unit journal ({exc})"
            ) from exc
        self.pool = pool
        self.generator.counters = counters_from_dict(payload["counters"])
        self.generator._reported_edges = self.generator.counters.edges_examined
        self._marks = {
            int(size): {k: int(v) for k, v in mark.items()}
            for size, mark in payload["marks"].items()
        }
        self._rng_state0 = payload["rng_state0"]
        self.rng.bit_generator.state = payload["rng_state"]
        self._repair_epoch = int(payload.get("repair_epoch", 0))
        self._journal = journal
        # Older snapshots may carry a "sketch" entry (coverage-sketch
        # registers, derived data of a removed tier): ignored.
        self._dirty = False
