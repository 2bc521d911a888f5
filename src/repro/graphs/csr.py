"""Compressed-sparse-row directed graphs with per-edge propagation probabilities.

The whole library works on :class:`CSRGraph`: an immutable digraph storing
*both* adjacency directions as CSR arrays.  Reverse-reachable set generation
walks the **in**-adjacency (``in_indptr`` / ``in_indices`` / ``in_probs``),
forward cascade simulation walks the **out**-adjacency.

Within each node's in-adjacency block, edges are sorted in **descending order
of probability**.  That ordering is required by the index-free general-IC
subset sampler (paper Section 3.3) and is harmless everywhere else.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Iterable, Optional, Tuple, Union

import numpy as np

from repro.utils.exceptions import GraphFormatError

ArrayLike = Union[np.ndarray, Iterable[int], Iterable[float]]


class CSRGraph:
    """A weighted digraph in dual-CSR form.

    The arrays are treated as immutable by every reader — samplers cache
    preprocessing keyed on :meth:`fingerprint` — but the graph itself can
    evolve through :meth:`apply_delta`, which rewrites only the adjacency
    blocks a :class:`~repro.graphs.dynamic.GraphDelta` touches and advances
    :attr:`delta_epoch`.

    Attributes
    ----------
    n, m:
        Node and edge counts.
    out_indptr, out_indices, out_probs:
        CSR arrays of the forward adjacency: the out-neighbors of node ``u``
        are ``out_indices[out_indptr[u]:out_indptr[u + 1]]`` with matching
        propagation probabilities in ``out_probs``.
    in_indptr, in_indices, in_probs:
        CSR arrays of the reverse adjacency (in-neighbors), with each node's
        block sorted by descending probability.
    in_prob_sums:
        Per-node sum of incoming-edge probabilities (the ``mu`` of the subset
        sampling problem at that node).
    uniform_in:
        Per-node boolean: ``True`` when all incoming edges of the node carry
        the same probability (the WC / uniform-IC fast path of SUBSIM).
    weight_model:
        Free-form tag recording how probabilities were assigned (e.g. "wc",
        "uniform:0.01"); informational only.
    delta_epoch:
        Number of :meth:`apply_delta` batches applied since construction.
    """

    __slots__ = (
        "n",
        "m",
        "out_indptr",
        "out_indices",
        "out_probs",
        "in_indptr",
        "in_indices",
        "in_probs",
        "in_prob_sums",
        "uniform_in",
        "weight_model",
        "delta_epoch",
        "_fingerprint",
        "_cache",
    )

    def __init__(
        self,
        n: int,
        out_indptr: np.ndarray,
        out_indices: np.ndarray,
        out_probs: np.ndarray,
        in_indptr: np.ndarray,
        in_indices: np.ndarray,
        in_probs: np.ndarray,
        weight_model: str = "custom",
    ) -> None:
        self.n = int(n)
        self.m = int(len(out_indices))
        self.out_indptr = out_indptr
        self.out_indices = out_indices
        self.out_probs = out_probs
        self.in_indptr = in_indptr
        self.in_indices = in_indices
        self.in_probs = in_probs
        self.weight_model = weight_model
        self._derive_in_stats()
        self.delta_epoch = 0
        self._fingerprint: Optional[str] = None
        self._cache: Dict[str, Tuple[str, Any]] = {}

    def _derive_in_stats(self) -> None:
        """(Re)compute the per-node reductions over the reverse CSR."""
        in_indptr, in_probs = self.in_indptr, self.in_probs
        self.in_prob_sums = np.add.reduceat(
            np.concatenate([in_probs, [0.0]]), in_indptr[:-1]
        ) if self.m else np.zeros(self.n)
        # reduceat quirk: empty blocks pick up the *next* block's first value;
        # zero them out explicitly.
        empty = np.diff(in_indptr) == 0
        if empty.any():
            self.in_prob_sums[empty] = 0.0
        self.uniform_in = _uniform_in_flags(in_indptr, in_probs)

    # ------------------------------------------------------------------
    # basic accessors
    # ------------------------------------------------------------------
    def out_degree(self, v: Optional[int] = None):
        """Out-degree of ``v``, or the full out-degree array if ``v`` is None."""
        if v is None:
            return np.diff(self.out_indptr)
        return int(self.out_indptr[v + 1] - self.out_indptr[v])

    def in_degree(self, v: Optional[int] = None):
        """In-degree of ``v``, or the full in-degree array if ``v`` is None."""
        if v is None:
            return np.diff(self.in_indptr)
        return int(self.in_indptr[v + 1] - self.in_indptr[v])

    def in_neighbors(self, v: int) -> Tuple[np.ndarray, np.ndarray]:
        """Return ``(neighbor_ids, probabilities)`` of edges into ``v``."""
        lo, hi = self.in_indptr[v], self.in_indptr[v + 1]
        return self.in_indices[lo:hi], self.in_probs[lo:hi]

    def out_neighbors(self, v: int) -> Tuple[np.ndarray, np.ndarray]:
        """Return ``(neighbor_ids, probabilities)`` of edges out of ``v``."""
        lo, hi = self.out_indptr[v], self.out_indptr[v + 1]
        return self.out_indices[lo:hi], self.out_probs[lo:hi]

    def edges(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Return parallel ``(src, dst, prob)`` arrays of all edges."""
        src = np.repeat(np.arange(self.n, dtype=np.int64), self.out_degree())
        return src, self.out_indices.copy(), self.out_probs.copy()

    def average_degree(self) -> float:
        """Average out-degree m / n."""
        return self.m / self.n if self.n else 0.0

    def fingerprint(self) -> str:
        """Content hash identifying the graph (structure + probabilities).

        SHA-256 over ``n`` and the reverse-CSR arrays — the representation
        RR generation actually walks — so two graphs with the same
        fingerprint produce identical RR-set distributions and identical
        deterministic counters.  Cached after the first call and
        invalidated by :meth:`apply_delta`, so the fingerprint advances
        with every delta that changes the arrays.
        """
        if self._fingerprint is None:
            import hashlib

            digest = hashlib.sha256()
            digest.update(str(self.n).encode())
            for array in (self.in_indptr, self.in_indices, self.in_probs):
                digest.update(np.ascontiguousarray(array).tobytes())
            self._fingerprint = digest.hexdigest()[:16]
        return self._fingerprint

    def cached(self, key: str, builder: Callable[["CSRGraph"], Any]) -> Any:
        """Memoised per-graph preprocessing (sampler tables, kernel arrays).

        Samplers derive immutable structures from the in-adjacency (bucket
        boundaries, alias tables, sorted-segment arrays); caching them on
        the graph lets every generator instance — sequential or batched —
        share one build.  Entries are guarded by :meth:`fingerprint`, so a
        stale entry can never serve a graph whose arrays differ, and the
        cache is dropped on pickling (unpickled copies rebuild lazily).
        """
        fp = self.fingerprint()
        entry = self._cache.get(key)
        if entry is None or entry[0] != fp:
            entry = (fp, builder(self))
            self._cache[key] = entry
        return entry[1]

    def to_shared(self):
        """Pack this graph into a shared-memory block (see
        :func:`repro.graphs.shared.share_graph`).  Returns
        ``(handle, shm)``; the caller owns the block's lifetime."""
        from repro.graphs.shared import share_graph

        return share_graph(self)

    @staticmethod
    def from_shared(handle) -> "CSRGraph":
        """Attach a graph previously shared with :meth:`to_shared`
        (zero-copy read-only views; see
        :func:`repro.graphs.shared.attach_graph`)."""
        from repro.graphs.shared import attach_graph

        return attach_graph(handle)

    def __getstate__(self) -> Dict[str, Any]:
        # Exclude the preprocessing cache: worker processes rebuild what
        # they need, and shipping alias/segment tables would bloat every
        # pickle.
        return {
            slot: getattr(self, slot)
            for slot in self.__slots__
            if slot != "_cache"
        }

    def __setstate__(self, state: Dict[str, Any]) -> None:
        for slot, value in state.items():
            setattr(self, slot, value)
        self._cache = {}

    # ------------------------------------------------------------------
    # incremental mutation
    # ------------------------------------------------------------------
    def apply_delta(self, delta: Any) -> np.ndarray:
        """Apply a :class:`~repro.graphs.dynamic.GraphDelta` in place.

        Only the adjacency blocks of touched endpoints are rewritten (and
        re-sorted to the canonical per-block order); every other block is
        carried over as a contiguous slice, so the patched arrays stay
        bit-identical to a from-scratch :func:`build_graph`.  The cached
        fingerprint is dropped — it advances with the content — which also
        invalidates every :meth:`cached` sampler table.  Returns the
        delta's touched destination nodes (the dirty-node set RR repair
        keys on).
        """
        from repro.graphs.dynamic import delta_edits, patch_blocks

        delta.validate_against(self)
        touched = delta.touched_nodes()
        if delta.num_changes == 0:
            return touched
        rem_src, rem_dst, add_src, add_dst, add_prob = delta_edits(delta)
        self.in_indptr, self.in_indices, self.in_probs = patch_blocks(
            self.in_indptr, self.in_indices, self.in_probs,
            rem_dst, rem_src, add_dst, add_src, add_prob, order="in",
        )
        self.out_indptr, self.out_indices, self.out_probs = patch_blocks(
            self.out_indptr, self.out_indices, self.out_probs,
            rem_src, rem_dst, add_src, add_dst, add_prob, order="out",
        )
        self.m = int(len(self.out_indices))
        self._derive_in_stats()
        self._fingerprint = None
        self.delta_epoch += 1
        return touched

    # ------------------------------------------------------------------
    # transforms
    # ------------------------------------------------------------------
    def transpose(self) -> "CSRGraph":
        """Return the graph with every edge reversed."""
        src, dst, prob = self.edges()
        return build_graph(self.n, dst, src, prob, weight_model=self.weight_model)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"CSRGraph(n={self.n}, m={self.m}, "
            f"weight_model={self.weight_model!r})"
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CSRGraph):
            return NotImplemented
        return (
            self.n == other.n
            and self.m == other.m
            and np.array_equal(self.out_indptr, other.out_indptr)
            and np.array_equal(self.out_indices, other.out_indices)
            and np.allclose(self.out_probs, other.out_probs)
        )

    def __hash__(self) -> int:  # graphs are used as dict keys in caches
        return hash((self.n, self.m, self.weight_model))


def _uniform_in_flags(in_indptr: np.ndarray, in_probs: np.ndarray) -> np.ndarray:
    """Per-node flag: all in-edge probabilities equal (within float equality).

    Because blocks are sorted descending, a block is uniform iff its first and
    last entries match.
    """
    n = len(in_indptr) - 1
    flags = np.ones(n, dtype=bool)
    starts = in_indptr[:-1]
    ends = in_indptr[1:]
    nonempty = ends > starts
    if nonempty.any():
        first = in_probs[starts[nonempty]]
        last = in_probs[ends[nonempty] - 1]
        flags[nonempty] = first == last
    return flags


def build_graph(
    n: int,
    src: ArrayLike,
    dst: ArrayLike,
    probs: ArrayLike,
    weight_model: str = "custom",
    validate: bool = True,
) -> CSRGraph:
    """Construct a :class:`CSRGraph` from parallel edge arrays.

    Parameters
    ----------
    n:
        Number of nodes; node ids must lie in ``[0, n)``.
    src, dst, probs:
        Parallel arrays describing directed edges ``src -> dst`` with
        propagation probability ``probs`` in ``[0, 1]``.
    weight_model:
        Informational tag stored on the graph.
    validate:
        When True (default), check id ranges, probability ranges, and reject
        self-loops and duplicate edges.
    """
    src = np.asarray(src, dtype=np.int64)
    dst = np.asarray(dst, dtype=np.int64)
    probs = np.asarray(probs, dtype=np.float64)
    if not (len(src) == len(dst) == len(probs)):
        raise GraphFormatError(
            f"edge arrays disagree on length: {len(src)}, {len(dst)}, {len(probs)}"
        )
    if validate and len(src):
        if src.min() < 0 or dst.min() < 0 or src.max() >= n or dst.max() >= n:
            raise GraphFormatError(f"edge endpoints out of range [0, {n})")
        if (src == dst).any():
            raise GraphFormatError("self-loops are not supported")
        if probs.min() < 0.0 or probs.max() > 1.0:
            raise GraphFormatError("edge probabilities must lie in [0, 1]")
        packed = src * np.int64(n) + dst
        if len(np.unique(packed)) != len(packed):
            raise GraphFormatError("duplicate edges are not supported")

    # Forward CSR: sort edges by (src, dst) for deterministic layout.
    order = np.lexsort((dst, src))
    out_indices = dst[order]
    out_probs = probs[order]
    out_indptr = np.zeros(n + 1, dtype=np.int64)
    np.add.at(out_indptr, src + 1, 1)
    np.cumsum(out_indptr, out=out_indptr)

    # Reverse CSR: within each destination block, descending probability
    # (break probability ties by source id for determinism).
    rorder = np.lexsort((src, -probs, dst))
    in_indices = src[rorder]
    in_probs = probs[rorder]
    in_indptr = np.zeros(n + 1, dtype=np.int64)
    np.add.at(in_indptr, dst + 1, 1)
    np.cumsum(in_indptr, out=in_indptr)

    return CSRGraph(
        n,
        out_indptr,
        out_indices,
        out_probs,
        in_indptr,
        in_indices,
        in_probs,
        weight_model=weight_model,
    )
