"""RR-set collections backed by a flat growable CSR-style pool.

:class:`RRCollection` is the shared substrate of every sampling-based IM
algorithm.  RR sets live concatenated in one growable ``rr_nodes`` array
with ``rr_indptr`` offsets (the same layout as a CSR adjacency), so the two
coverage hot paths are single NumPy kernels instead of Python loops:

* per-node *coverage counts* are maintained incrementally on every append
  (``np.add.at`` over the new mass) and served from cache;
* the node → RR-set *inverted index* is a lazily rebuilt CSR
  (``inv_indptr`` / ``inv_rrs``) — one stable argsort of the pool amortised
  across the greedy selections that consume it.

Per-set and per-node access goes through the same flat arrays:
``set_nodes(i)`` is a view of one stored set and ``rrs_containing(v)``
the ascending ids of the sets holding node ``v``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Optional, Sequence

import numpy as np

from repro.rrsets.base import RRGenerator

if TYPE_CHECKING:
    from repro.rrsets.journal import UnitJournal

#: dtype of the flat node pool; int32 halves memory vs. int64 and covers
#: every graph this library can hold in RAM.
NODE_DTYPE = np.int32

#: the first pool size (in stored node entries) whose inverted-index
#: offsets no longer fit int32; the index widens them to int64 from here on
WIDE_ENTRIES = 1 << 31


def _pow2_capacity(need: int, floor: int) -> int:
    """Smallest power of two >= ``max(need, floor)``.

    Growing to the next power of two (instead of ``max(need, 2 * cap)``)
    keeps growth geometric even when a single ``add_batch`` overshoots the
    doubled capacity: the old policy then landed at *exactly* ``need``, so
    the very next append reallocated again.  Power-of-two capacities also
    make successive doubling-schedule extensions land on shared buffer
    sizes, which is what the ``realloc_count`` micro-benchmark measures.
    """
    need = max(int(need), int(floor))
    return 1 << (need - 1).bit_length()


def _segment_uncovered(
    inv_indptr: np.ndarray,
    inv_rrs: np.ndarray,
    nodes: np.ndarray,
    covered: np.ndarray,
    limit: Optional[int] = None,
) -> np.ndarray:
    """Per-node count of uncovered member sets from an inverted CSR.

    ``limit`` restricts the count to set ids below it (prefix views);
    ``covered`` is then indexed only by in-range ids, so a prefix-sized
    mask is safe against a full-pool index.
    """
    starts = inv_indptr[nodes]
    lens = inv_indptr[nodes + 1] - starts
    total = int(lens.sum())
    if total == 0:
        return np.zeros(len(nodes), dtype=np.int64)
    offsets = np.repeat(np.cumsum(lens) - lens, lens)
    flat = np.repeat(starts, lens) + np.arange(total, dtype=np.int64) - offsets
    ids = inv_rrs[flat]
    if limit is None:
        fresh = (~covered[ids]).astype(np.int64)
    else:
        fresh = np.zeros(total, dtype=np.int64)
        kept = np.flatnonzero(ids < limit)
        fresh[kept] = ~covered[ids[kept]]
    # Segmented sums via cumsum differences: reduceat mishandles the empty
    # segments that zero-membership nodes produce.
    csum = np.concatenate(([0], np.cumsum(fresh)))
    bounds = np.concatenate(([0], np.cumsum(lens)))
    return csum[bounds[1:]] - csum[bounds[:-1]]


class RRPrefixView:
    """Read-only view over the first ``theta`` RR sets of a collection.

    Warm :class:`~repro.rrsets.bank.RRBank` queries select seeds over a
    *prefix* of a pool that may already hold more sets (generated for an
    earlier query).  The view re-serves the exact coverage surface greedy
    and the bounds consume — ``coverage_counts`` / ``rrs_containing`` /
    ``nodes_of_sets`` / ``covered_mask`` — restricted to set ids
    ``< num_rr``, so selecting over the prefix of a warm pool is
    bit-identical to selecting over a cold pool of that size.

    :meth:`RRCollection.prefix` returns the collection itself when the
    requested prefix covers the whole pool, so cold (single-query) runs
    never pay for the indirection.
    """

    __slots__ = ("_coll", "num_rr")

    def __init__(self, coll: "RRCollection", theta: int) -> None:
        if not 0 <= theta <= coll.num_rr:
            raise ValueError(
                f"prefix length {theta} out of range [0, {coll.num_rr}]"
            )
        self._coll = coll
        self.num_rr = int(theta)

    def __len__(self) -> int:
        return self.num_rr

    @property
    def n(self) -> int:
        return self._coll.n

    @property
    def total_size(self) -> int:
        return int(self._coll.rr_indptr[self.num_rr])

    def average_size(self) -> float:
        return self.total_size / self.num_rr if self.num_rr else 0.0

    def set_nodes(self, rr_id: int) -> np.ndarray:
        if not 0 <= rr_id < self.num_rr:
            raise IndexError(f"RR-set id {rr_id} out of range [0, {self.num_rr})")
        return self._coll.set_nodes(rr_id)

    def set_sizes(self) -> np.ndarray:
        return np.diff(self._coll.rr_indptr[: self.num_rr + 1])

    def coverage_counts(self) -> np.ndarray:
        """Per-node membership counts over the prefix (fresh array)."""
        stop = int(self._coll.rr_indptr[self.num_rr])
        counts = np.bincount(
            self._coll.rr_nodes[:stop], minlength=self._coll.n
        )
        return counts.astype(np.int64, copy=False)

    def rrs_containing(self, node: int) -> np.ndarray:
        """Prefix RR-set ids containing ``node`` (ascending)."""
        ids = self._coll.rrs_containing(node)
        # Ids come back ascending (stable argsort of the flat pool), so the
        # prefix is a binary-searched slice, not a boolean scan.
        return ids[: np.searchsorted(ids, self.num_rr)]

    def nodes_of_sets(self, rr_ids: np.ndarray) -> np.ndarray:
        rr_ids = np.asarray(rr_ids, dtype=np.int64)
        if len(rr_ids) and rr_ids.max() >= self.num_rr:
            raise IndexError(
                f"RR-set id {int(rr_ids.max())} out of prefix [0, {self.num_rr})"
            )
        return self._coll.nodes_of_sets(rr_ids)

    def uncovered_counts(
        self, nodes: np.ndarray, covered: np.ndarray
    ) -> np.ndarray:
        """Per-node count of uncovered prefix sets containing each node."""
        nodes = np.asarray(nodes, dtype=np.int64)
        if len(nodes) == 0:
            return np.zeros(0, dtype=np.int64)
        inv_indptr, inv_rrs = self._coll._inverted()
        return _segment_uncovered(
            inv_indptr, inv_rrs, nodes, covered, limit=self.num_rr
        )

    def per_set_sums(
        self, values: np.ndarray, stop: Optional[int] = None
    ) -> np.ndarray:
        stop = self.num_rr if stop is None else min(stop, self.num_rr)
        return self._coll.per_set_sums(values, stop=stop)

    def covered_mask(self, seeds: Iterable[int]) -> np.ndarray:
        mask = np.zeros(self.num_rr, dtype=bool)
        for s in seeds:
            mask[self.rrs_containing(s)] = True
        return mask

    def coverage(self, seeds: Iterable[int]) -> int:
        return int(self.covered_mask(seeds).sum())

    def estimate_influence(self, seeds: Iterable[int]) -> float:
        if self.num_rr == 0:
            raise ValueError("cannot estimate influence from an empty prefix")
        return self.n * self.coverage(seeds) / self.num_rr


class RRCollection:
    """An append-only pool of RR sets over ``n`` nodes (flat CSR layout)."""

    def __init__(self, n: int) -> None:
        if n <= 0:
            raise ValueError(f"graph must have at least one node, got n={n}")
        self.n = n
        self.total_size = 0
        self._num_rr = 0
        self._nodes = np.empty(1024, dtype=NODE_DTYPE)
        self._indptr = np.zeros(257, dtype=np.int64)
        # Incrementally maintained per-node membership counts (the cached
        # ``coverage_counts``); always current.  int32: a node appears at
        # most once per set, so its count never exceeds the set count,
        # which NODE_DTYPE set ids already bound.
        self._counts = np.zeros(n, dtype=np.int32)
        # Lazily (re)built inverted CSR; ``_inv_num_rr`` records the pool
        # size it reflects, so any append invalidates it implicitly.
        self._inv_indptr: Optional[np.ndarray] = None
        self._inv_rrs: Optional[np.ndarray] = None
        self._inv_num_rr = -1
        #: number of buffer reallocations (node pool + offsets) performed
        #: by :meth:`_reserve` — the quantity the growth-policy
        #: micro-benchmark compares across policies.
        self.realloc_count = 0

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self._num_rr

    @property
    def num_rr(self) -> int:
        return self._num_rr

    @property
    def rr_indptr(self) -> np.ndarray:
        """Offsets of each stored set inside :attr:`rr_nodes` (read-only)."""
        return self._indptr[: self._num_rr + 1]

    @property
    def rr_nodes(self) -> np.ndarray:
        """The concatenated node ids of every stored set (read-only)."""
        return self._nodes[: self.total_size]

    def average_size(self) -> float:
        """Mean number of nodes per stored RR set."""
        return self.total_size / self._num_rr if self._num_rr else 0.0

    def set_nodes(self, rr_id: int) -> np.ndarray:
        """Nodes of one stored RR set (a view into the flat pool)."""
        return self._nodes[self._indptr[rr_id]: self._indptr[rr_id + 1]]

    def set_sizes(self) -> np.ndarray:
        """Sizes of every stored RR set."""
        return np.diff(self.rr_indptr)

    def nbytes(self) -> int:
        """Resident bytes of the pool buffers (nodes, offsets, indexes)."""
        total = self._counts.nbytes + self._nodes.nbytes + self._indptr.nbytes
        if self._inv_rrs is not None:
            total += self._inv_rrs.nbytes + self._inv_indptr.nbytes
        return total

    # ------------------------------------------------------------------
    # growth
    # ------------------------------------------------------------------
    def _count(self, nodes: np.ndarray, step: int) -> None:
        """Add ``step`` to the coverage count of each of ``nodes``.

        The step goes in as an int32 scalar: ``np.add.at`` on int32 with a
        Python int leaves NumPy's fast path and runs ~28x slower.
        """
        np.add.at(self._counts, nodes, np.int32(step))

    def _reserve(self, extra_nodes: int, extra_sets: int) -> None:
        need = self.total_size + extra_nodes
        if need > len(self._nodes):
            grown = np.empty(_pow2_capacity(need, 1024), dtype=NODE_DTYPE)
            grown[: self.total_size] = self._nodes[: self.total_size]
            self._nodes = grown
            self.realloc_count += 1
        need = self._num_rr + extra_sets + 1
        if need > len(self._indptr):
            grown = np.zeros(_pow2_capacity(need, 256), dtype=np.int64)
            grown[: self._num_rr + 1] = self._indptr[: self._num_rr + 1]
            self._indptr = grown
            self.realloc_count += 1

    def add(self, rr: Sequence[int]) -> int:
        """Store one RR set; returns its id.

        Accepts any integer sequence; ndarrays of the pool dtype are copied
        straight into the flat buffer without an intermediate conversion,
        and the coverage-count cache is updated vectorized (nodes within one
        RR set are unique by construction).
        """
        arr = np.asarray(rr, dtype=NODE_DTYPE)
        size = len(arr)
        self._reserve(size, 1)
        rr_id = self._num_rr
        start = self.total_size
        self._nodes[start: start + size] = arr
        self._indptr[rr_id + 1] = start + size
        self._num_rr = rr_id + 1
        self.total_size = start + size
        self._counts[arr] += 1
        return rr_id

    def add_batch(self, nodes: np.ndarray, sizes: np.ndarray) -> int:
        """Bulk-append ``len(sizes)`` RR sets stored concatenated in ``nodes``.

        Returns the id of the first appended set.  This is the path the
        batched generation engine feeds: one memcpy into the pool plus one
        ``np.add.at`` over the new mass, no per-set Python work.
        """
        nodes = np.asarray(nodes, dtype=NODE_DTYPE)
        sizes = np.asarray(sizes, dtype=np.int64)
        if sizes.sum() != len(nodes):
            raise ValueError(
                f"sizes sum to {int(sizes.sum())} but {len(nodes)} nodes given"
            )
        count = len(sizes)
        self._reserve(len(nodes), count)
        first_id = self._num_rr
        start = self.total_size
        self._nodes[start: start + len(nodes)] = nodes
        self._indptr[first_id + 1: first_id + count + 1] = (
            start + np.cumsum(sizes)
        )
        self._num_rr = first_id + count
        self.total_size = start + len(nodes)
        # Nodes may repeat across (not within) sets: unbuffered add.
        self._count(nodes, 1)
        return first_id

    def extend(
        self,
        count: int,
        generator: RRGenerator,
        rng: np.random.Generator,
        stop_mask: Optional[np.ndarray] = None,
        journal: Optional["UnitJournal"] = None,
    ) -> None:
        """Generate and store ``count`` fresh random RR sets.

        The execution strategy comes from the generator's ``batch_size``
        attribute: the default (1) replays the sequential per-set loop
        bit-identically; ``batch_size > 1`` routes through the vectorized
        batched engine.

        ``journal``, when given, receives one appended row per generation
        *unit* (a single ``generate`` call, or one ``generate_batch``
        chunk): its first set id, delivered and requested set counts, mode,
        and the RNG bit-generator state captured *before* the unit's draws
        (see :class:`~repro.rrsets.journal.UnitJournal`).  Replaying a unit
        from its recorded state reproduces it bit-identically, which is
        what lets :meth:`~repro.rrsets.bank.RRBank.repair` resample exactly
        the sets a graph delta invalidated.
        """
        if count < 0:
            raise ValueError(f"count must be non-negative, got {count}")
        batch_size = int(getattr(generator, "batch_size", 1) or 1)
        try:
            if batch_size > 1:
                remaining = count
                while remaining > 0:
                    b = min(batch_size, remaining)
                    start = self._num_rr
                    state = (
                        rng.bit_generator.state if journal is not None else None
                    )
                    nodes, sizes = generator.generate_batch(
                        rng, b, stop_mask=stop_mask
                    )
                    self.add_batch(nodes, sizes)
                    if journal is not None:
                        journal.append(start, len(sizes), b, True, state)
                    remaining -= len(sizes)
                return
            for _ in range(count):
                start = self._num_rr
                state = (
                    rng.bit_generator.state if journal is not None else None
                )
                self.add(generator.generate(rng, stop_mask=stop_mask))
                if journal is not None:
                    journal.append(start, 1, 1, False, state)
        finally:
            metrics = getattr(generator, "metrics", None)
            if metrics is not None:
                # Pool-memory gauge at extend granularity (one call per
                # doubling round) — phase spans pick it up at span exit.
                metrics.set_gauge("rr_pool_bytes", self.nbytes())

    # ------------------------------------------------------------------
    # inverted index
    # ------------------------------------------------------------------
    def _inverted(self):
        """Return ``(inv_indptr, inv_rrs)``, rebuilding if the pool grew."""
        if self._inv_num_rr != self._num_rr:
            size = self.total_size
            nodes = self._nodes[:size]
            indptr = np.zeros(
                self.n + 1,
                dtype=np.int64 if size >= WIDE_ENTRIES else np.int32,
            )
            np.cumsum(self._counts, out=indptr[1:])
            # Sort on the narrowest key that holds every node id: below
            # 2**16 nodes numpy's stable sort is a radix sort, with the
            # same permutation as sorting the int32 ids.
            key = np.min_scalar_type(self.n - 1)
            if key.itemsize < nodes.itemsize:
                nodes = nodes.astype(key)
            order = np.argsort(nodes, kind="stable")
            rr_of_entry = np.repeat(
                np.arange(self._num_rr, dtype=NODE_DTYPE), self.set_sizes()
            )
            self._inv_rrs = rr_of_entry[order]
            self._inv_indptr = indptr
            self._inv_num_rr = self._num_rr
        return self._inv_indptr, self._inv_rrs

    def rrs_containing(self, node: int) -> np.ndarray:
        """Ids of the stored RR sets containing ``node`` (ascending)."""
        if not 0 <= node < self.n:
            raise IndexError(f"node {node} out of range [0, {self.n})")
        inv_indptr, inv_rrs = self._inverted()
        return inv_rrs[inv_indptr[node]: inv_indptr[node + 1]]

    def sets_touching(self, nodes: np.ndarray) -> np.ndarray:
        """Ids of the stored sets containing *any* of ``nodes`` (ascending).

        One ragged gather over the inverted CSR — the dirty-set query of
        incremental repair: ``nodes`` are the destinations of changed
        edges, and the returned ids are exactly the sets whose sampled
        walks could have traversed a changed in-adjacency block.
        """
        nodes = np.asarray(nodes, dtype=np.int64)
        if len(nodes) == 0 or self._num_rr == 0:
            return np.empty(0, dtype=np.int64)
        if nodes.min() < 0 or nodes.max() >= self.n:
            raise IndexError(
                f"node {int(nodes.min() if nodes.min() < 0 else nodes.max())}"
                f" out of range [0, {self.n})"
            )
        inv_indptr, inv_rrs = self._inverted()
        starts = inv_indptr[nodes]
        lens = inv_indptr[nodes + 1] - starts
        total = int(lens.sum())
        if total == 0:
            return np.empty(0, dtype=np.int64)
        offsets = np.repeat(np.cumsum(lens) - lens, lens)
        flat = np.repeat(starts, lens) + np.arange(total, dtype=np.int64) - offsets
        return np.unique(inv_rrs[flat]).astype(np.int64, copy=False)

    def replace_sets(
        self, rr_ids: np.ndarray, nodes: np.ndarray, sizes: np.ndarray
    ) -> None:
        """Replace the stored sets ``rr_ids`` in place with new contents.

        ``nodes``/``sizes`` hold the replacements concatenated in
        ``rr_ids`` order.  Set ids and count are preserved — only the
        replaced sets' contents change — so prefix views, counter marks,
        and every clean set's identity survive.  The coverage-count cache
        is adjusted by the membership deltas; the inverted index is
        dropped and rebuilt lazily.
        """
        rr_ids = np.asarray(rr_ids, dtype=np.int64)
        nodes = np.asarray(nodes, dtype=NODE_DTYPE)
        sizes = np.asarray(sizes, dtype=np.int64)
        if len(rr_ids) == 0:
            return
        if len(rr_ids) != len(sizes):
            raise ValueError(
                f"{len(rr_ids)} set ids but {len(sizes)} replacement sizes"
            )
        if int(sizes.sum()) != len(nodes):
            raise ValueError(
                f"sizes sum to {int(sizes.sum())} but {len(nodes)} nodes given"
            )
        if len(np.unique(rr_ids)) != len(rr_ids):
            raise ValueError("replacement set ids must be unique")
        if rr_ids.min() < 0 or rr_ids.max() >= self._num_rr:
            raise IndexError(
                f"RR-set id {int(rr_ids.max())} out of range "
                f"[0, {self._num_rr})"
            )
        old_sizes = self.set_sizes()
        new_sizes = old_sizes.copy()
        new_sizes[rr_ids] = sizes
        new_indptr = np.zeros(self._num_rr + 1, dtype=np.int64)
        np.cumsum(new_sizes, out=new_indptr[1:])
        new_total = int(new_indptr[-1])
        new_nodes = np.empty(
            _pow2_capacity(new_total, 1024), dtype=NODE_DTYPE
        )
        # Coverage deltas: remove the replaced sets' old mass, add the new.
        self._count(self.nodes_of_sets(rr_ids), -1)
        self._count(nodes, 1)

        def _scatter(ids, src_nodes, src_indptr_starts, src_sizes):
            lens = src_sizes
            total = int(lens.sum())
            if total == 0:
                return
            ramp = np.arange(total, dtype=np.int64) - np.repeat(
                np.cumsum(lens) - lens, lens
            )
            flat_src = np.repeat(src_indptr_starts, lens) + ramp
            flat_dst = np.repeat(new_indptr[ids], lens) + ramp
            new_nodes[flat_dst] = src_nodes[flat_src]

        unchanged = np.ones(self._num_rr, dtype=bool)
        unchanged[rr_ids] = False
        ids_u = np.flatnonzero(unchanged)
        _scatter(
            ids_u, self._nodes, self._indptr[ids_u], old_sizes[ids_u]
        )
        repl_starts = np.zeros(len(rr_ids), dtype=np.int64)
        np.cumsum(sizes[:-1], out=repl_starts[1:])
        _scatter(rr_ids, nodes, repl_starts, sizes)

        indptr_buf = np.zeros(
            _pow2_capacity(self._num_rr + 1, 256), dtype=np.int64
        )
        indptr_buf[: self._num_rr + 1] = new_indptr
        self._nodes = new_nodes
        self._indptr = indptr_buf
        self.total_size = new_total
        # Same set count, new contents: force the lazy rebuild explicitly.
        self._inv_indptr = None
        self._inv_rrs = None
        self._inv_num_rr = -1

    def uncovered_counts(
        self, nodes: np.ndarray, covered: np.ndarray
    ) -> np.ndarray:
        """Per-node count of *uncovered* sets containing each queried node.

        One ragged gather over the inverted CSR plus a segmented sum — the
        exact marginal-gain vector, with no per-node Python work.  Shard
        workers use it to answer sharded greedy's initial gains once its
        ``initial_covered`` seeds are marked.
        """
        nodes = np.asarray(nodes, dtype=np.int64)
        if len(nodes) == 0:
            return np.zeros(0, dtype=np.int64)
        inv_indptr, inv_rrs = self._inverted()
        return _segment_uncovered(inv_indptr, inv_rrs, nodes, covered)

    def nodes_of_sets(self, rr_ids: np.ndarray) -> np.ndarray:
        """Concatenated nodes of the given RR sets (duplicates across sets
        preserved — exactly what decremental gain updates need)."""
        rr_ids = np.asarray(rr_ids, dtype=np.int64)
        if len(rr_ids) == 0:
            return np.empty(0, dtype=NODE_DTYPE)
        starts = self._indptr[rr_ids]
        lens = self._indptr[rr_ids + 1] - starts
        total = int(lens.sum())
        offsets = np.repeat(np.cumsum(lens) - lens, lens)
        flat = np.repeat(starts, lens) + np.arange(total, dtype=np.int64) - offsets
        return self._nodes[flat]

    def per_set_sums(
        self, values: np.ndarray, stop: Optional[int] = None
    ) -> np.ndarray:
        """Per-set sums of a node-indexed ``values`` array over the first
        ``stop`` sets (all by default) — one ``reduceat`` over the pool."""
        stop = self._num_rr if stop is None else min(stop, self._num_rr)
        if stop == 0:
            return np.zeros(0, dtype=np.asarray(values).dtype)
        indptr = self._indptr[: stop + 1]
        gathered = np.asarray(values)[self._nodes[: indptr[-1]]]
        # RR sets are never empty (the root is always present), so plain
        # reduceat needs no empty-block fixup.
        return np.add.reduceat(gathered, indptr[:-1])

    # ------------------------------------------------------------------
    # coverage queries
    # ------------------------------------------------------------------
    def coverage_counts(self) -> np.ndarray:
        """Per-node count of RR sets containing the node (singleton coverage).

        Served from the incrementally maintained cache; the returned array
        is an int64 copy the caller may mutate (greedy uses it as its gain
        vector).
        """
        return self._counts.astype(np.int64)

    def covered_mask(self, seeds: Iterable[int]) -> np.ndarray:
        """Boolean mask over RR-set ids marking sets hit by ``seeds``."""
        mask = np.zeros(self._num_rr, dtype=bool)
        inv_indptr, inv_rrs = self._inverted()
        for s in seeds:
            mask[inv_rrs[inv_indptr[s]: inv_indptr[s + 1]]] = True
        return mask

    def coverage(self, seeds: Iterable[int]) -> int:
        """Number of stored RR sets hit by the seed set (Lambda_R(S))."""
        return int(self.covered_mask(seeds).sum())

    def estimate_influence(self, seeds: Iterable[int]) -> float:
        """Unbiased influence estimate ``n * Lambda_R(S) / |R|`` (Lemma 1)."""
        if self._num_rr == 0:
            raise ValueError("cannot estimate influence from an empty pool")
        return self.n * self.coverage(seeds) / self._num_rr

    # ------------------------------------------------------------------
    # prefix views
    # ------------------------------------------------------------------
    def prefix(self, theta: int):
        """The first ``theta`` sets as a selectable pool.

        Returns ``self`` when ``theta`` covers the whole pool (the cold
        path pays nothing) and an :class:`RRPrefixView` otherwise (the warm
        path selects over exactly the sets a cold run of that size holds).
        """
        theta = int(theta)
        if theta >= self._num_rr:
            return self
        return RRPrefixView(self, theta)
