"""Graph deltas: batched edge mutations applied to a live :class:`CSRGraph`.

A :class:`GraphDelta` describes one batch of edge *inserts*, *deletes*,
and *weight updates*.  :meth:`repro.graphs.csr.CSRGraph.apply_delta`
applies it in place by **block surgery**: only the adjacency blocks of
endpoints the delta touches are rewritten (re-sorted to the canonical
per-block order ``build_graph`` produces), every other block is carried
over as an untouched slice.  The patched arrays are therefore
bit-identical to a from-scratch ``build_graph`` over the updated edges,
which the property tests assert.

The delta's :meth:`touched_nodes` are the **destinations** of every
changed edge.  That is the set RR-set repair keys on: reverse-reachable
generation only ever examines the in-adjacency blocks of nodes that are
*members* of the set being grown, so an RR set whose members avoid every
touched destination would replay bit-identically on the mutated graph —
it stays clean, and only sets containing a touched destination need
resampling (see ``docs/ARCHITECTURE.md``).
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.utils.exceptions import GraphFormatError

EdgeTriples = Sequence[Tuple[int, int, float]]
EdgePairs = Sequence[Tuple[int, int]]


def _as_edge_arrays(
    edges: Any, with_prob: bool, kind: str
) -> Tuple[np.ndarray, np.ndarray, Optional[np.ndarray]]:
    """Coerce ``(src, dst[, prob])`` rows or parallel arrays to ndarrays."""
    if edges is None:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty, (np.empty(0) if with_prob else None)
    if (
        isinstance(edges, tuple)
        and len(edges) in (2, 3)
        and all(isinstance(p, np.ndarray) for p in edges)
    ):
        parts = [np.asarray(p) for p in edges]
    else:
        width = 3 if with_prob else 2
        table = np.asarray(list(edges), dtype=np.float64)
        if table.size == 0:
            table = table.reshape(0, width)
        if table.ndim != 2 or table.shape[1] != width:
            raise GraphFormatError(
                f"{kind} rows must have {width} columns (src, dst"
                + (", prob)" if with_prob else ")")
            )
        parts = [table[:, i] for i in range(width)]
    src = np.asarray(parts[0], dtype=np.int64)
    dst = np.asarray(parts[1], dtype=np.int64)
    prob = None
    if with_prob:
        if len(parts) < 3:
            raise GraphFormatError(f"{kind} edges need a probability column")
        prob = np.asarray(parts[2], dtype=np.float64)
    if not all(len(p) == len(src) for p in parts):
        raise GraphFormatError(f"{kind} edge arrays disagree on length")
    return src, dst, prob


class GraphDelta:
    """One batch of edge inserts / deletes / probability updates.

    ``inserts`` and ``updates`` are ``(src, dst, prob)`` rows (or a tuple
    of three parallel arrays); ``deletes`` are ``(src, dst)`` rows.  An
    edge may appear in at most one of the three groups, inserts may not be
    self-loops, and probabilities must lie in ``[0, 1]`` — all checked at
    construction.  Existence against a concrete graph (deletes and updates
    must hit live edges, inserts must not duplicate one) is checked by
    ``CSRGraph.apply_delta``.
    """

    __slots__ = (
        "insert_src", "insert_dst", "insert_prob",
        "delete_src", "delete_dst",
        "update_src", "update_dst", "update_prob",
    )

    def __init__(
        self,
        inserts: Optional[EdgeTriples] = None,
        deletes: Optional[EdgePairs] = None,
        updates: Optional[EdgeTriples] = None,
    ) -> None:
        self.insert_src, self.insert_dst, self.insert_prob = _as_edge_arrays(
            inserts, True, "insert"
        )
        self.delete_src, self.delete_dst, _ = _as_edge_arrays(
            deletes, False, "delete"
        )
        self.update_src, self.update_dst, self.update_prob = _as_edge_arrays(
            updates, True, "update"
        )
        for name, src, dst in (
            ("insert", self.insert_src, self.insert_dst),
            ("delete", self.delete_src, self.delete_dst),
            ("update", self.update_src, self.update_dst),
        ):
            if len(src) and (src.min() < 0 or dst.min() < 0):
                raise GraphFormatError(f"{name} endpoints must be >= 0")
        if len(self.insert_src) and (self.insert_src == self.insert_dst).any():
            raise GraphFormatError("self-loops cannot be inserted")
        for name, prob in (
            ("insert", self.insert_prob), ("update", self.update_prob)
        ):
            if len(prob) and (prob.min() < 0.0 or prob.max() > 1.0):
                raise GraphFormatError(
                    f"{name} probabilities must lie in [0, 1]"
                )

    # ------------------------------------------------------------------
    @property
    def num_changes(self) -> int:
        return (
            len(self.insert_src) + len(self.delete_src) + len(self.update_src)
        )

    def touched_nodes(self) -> np.ndarray:
        """Destinations of every changed edge — the dirty-node set repair
        keys on (the only in-adjacency blocks the delta rewrites)."""
        return np.unique(
            np.concatenate(
                [self.insert_dst, self.delete_dst, self.update_dst]
            )
        )

    def _keys(self, n: int) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Packed ``src * n + dst`` keys per group (for membership tests)."""
        scale = np.int64(n)
        return (
            self.insert_src * scale + self.insert_dst,
            self.delete_src * scale + self.delete_dst,
            self.update_src * scale + self.update_dst,
        )

    def validate_against(self, graph: Any) -> None:
        """Check the delta is applicable to ``graph`` (raises otherwise)."""
        n = graph.n
        for name, src, dst in (
            ("insert", self.insert_src, self.insert_dst),
            ("delete", self.delete_src, self.delete_dst),
            ("update", self.update_src, self.update_dst),
        ):
            if len(src) and (src.max() >= n or dst.max() >= n):
                raise GraphFormatError(
                    f"{name} endpoints out of range [0, {n})"
                )
        ins, dels, ups = self._keys(n)
        batch = np.concatenate([ins, dels, ups])
        if len(np.unique(batch)) != len(batch):
            raise GraphFormatError(
                "an edge may appear at most once across a delta's "
                "inserts, deletes, and updates"
            )
        existing = np.sort(
            np.repeat(
                np.arange(n, dtype=np.int64), np.diff(graph.out_indptr)
            )
            * np.int64(n)
            + graph.out_indices
        )
        for name, keys, want in (
            ("insert", ins, False), ("delete", dels, True), ("update", ups, True)
        ):
            if not len(keys):
                continue
            pos = np.searchsorted(existing, keys)
            pos = np.minimum(pos, len(existing) - 1) if len(existing) else pos
            present = (
                existing[pos] == keys
                if len(existing)
                else np.zeros(len(keys), dtype=bool)
            )
            if want and not present.all():
                missing = keys[~present][0]
                raise GraphFormatError(
                    f"cannot {name} edge "
                    f"{int(missing // n)}->{int(missing % n)}: no such edge"
                )
            if not want and present.any():
                dup = keys[present][0]
                raise GraphFormatError(
                    f"cannot insert edge {int(dup // n)}->{int(dup % n)}: "
                    "edge already exists"
                )

    # ------------------------------------------------------------------
    # wire format (serving endpoint, shard-worker journals + checkpoints)
    # ------------------------------------------------------------------
    def to_payload(self) -> Dict[str, List[List[float]]]:
        """JSON-able dict of edge rows (round-trips via :meth:`from_payload`)."""
        return {
            "inserts": [
                [int(u), int(v), float(p)]
                for u, v, p in zip(
                    self.insert_src, self.insert_dst, self.insert_prob
                )
            ],
            "deletes": [
                [int(u), int(v)]
                for u, v in zip(self.delete_src, self.delete_dst)
            ],
            "updates": [
                [int(u), int(v), float(p)]
                for u, v, p in zip(
                    self.update_src, self.update_dst, self.update_prob
                )
            ],
        }

    @classmethod
    def from_payload(cls, payload: Dict[str, Any]) -> "GraphDelta":
        known = {"inserts", "deletes", "updates"}
        extra = set(payload) - known
        if extra:
            raise GraphFormatError(
                f"unknown delta fields {sorted(extra)!r}; "
                f"expected a subset of {sorted(known)!r}"
            )
        return cls(
            inserts=payload.get("inserts"),
            deletes=payload.get("deletes"),
            updates=payload.get("updates"),
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"GraphDelta(inserts={len(self.insert_src)}, "
            f"deletes={len(self.delete_src)}, "
            f"updates={len(self.update_src)})"
        )


# ----------------------------------------------------------------------
# CSR block surgery
# ----------------------------------------------------------------------

def patch_blocks(
    indptr: np.ndarray,
    indices: np.ndarray,
    probs: np.ndarray,
    rem_block: np.ndarray,
    rem_other: np.ndarray,
    add_block: np.ndarray,
    add_other: np.ndarray,
    add_prob: np.ndarray,
    order: str,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Rewrite only the touched blocks of one CSR direction.

    ``rem_*`` are entries to drop, ``add_*`` entries to append; ``order``
    selects the canonical within-block ordering: ``"in"`` sorts by
    descending probability with the neighbor id as tie-break (the reverse
    CSR the SUBSIM samplers require), ``"out"`` sorts by neighbor id (the
    forward CSR's ``(src, dst)`` lexsort).  Untouched blocks are carried
    over as contiguous slices, so the result is bit-identical to a full
    rebuild while doing work proportional to the touched blocks only.
    """
    n = len(indptr) - 1
    affected = np.unique(np.concatenate([rem_block, add_block]))
    r_order = np.argsort(rem_block, kind="stable")
    rb, ro = rem_block[r_order], rem_other[r_order]
    a_order = np.argsort(add_block, kind="stable")
    ab, ao, ap = add_block[a_order], add_other[a_order], add_prob[a_order]
    pieces_i: List[np.ndarray] = []
    pieces_p: List[np.ndarray] = []
    new_counts = np.diff(indptr).astype(np.int64)
    prev = 0
    for b in affected:
        lo, hi = int(indptr[b]), int(indptr[b + 1])
        pieces_i.append(indices[prev:lo])
        pieces_p.append(probs[prev:lo])
        block_i = indices[lo:hi]
        block_p = probs[lo:hi]
        r_lo = int(np.searchsorted(rb, b))
        r_hi = int(np.searchsorted(rb, b, side="right"))
        if r_hi > r_lo:
            keep = ~np.isin(block_i, ro[r_lo:r_hi])
            block_i, block_p = block_i[keep], block_p[keep]
        a_lo = int(np.searchsorted(ab, b))
        a_hi = int(np.searchsorted(ab, b, side="right"))
        if a_hi > a_lo:
            block_i = np.concatenate([block_i, ao[a_lo:a_hi]])
            block_p = np.concatenate([block_p, ap[a_lo:a_hi]])
        if order == "in":
            sorter = np.lexsort((block_i, -block_p))
        else:
            sorter = np.argsort(block_i, kind="stable")
        pieces_i.append(block_i[sorter])
        pieces_p.append(block_p[sorter])
        new_counts[b] = len(block_i)
        prev = hi
    pieces_i.append(indices[prev:])
    pieces_p.append(probs[prev:])
    new_indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(new_counts, out=new_indptr[1:])
    return (
        new_indptr,
        np.concatenate(pieces_i).astype(indices.dtype, copy=False),
        np.concatenate(pieces_p).astype(np.float64, copy=False),
    )


def delta_edits(
    delta: GraphDelta,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The delta as flat ``(rem_src, rem_dst, add_src, add_dst, add_prob)``.

    Updates decompose into a removal of the old row plus an addition with
    the new probability, which is what lets both CSR directions share one
    surgery primitive.
    """
    rem_src = np.concatenate([delta.delete_src, delta.update_src])
    rem_dst = np.concatenate([delta.delete_dst, delta.update_dst])
    add_src = np.concatenate([delta.insert_src, delta.update_src])
    add_dst = np.concatenate([delta.insert_dst, delta.update_dst])
    add_prob = np.concatenate([delta.insert_prob, delta.update_prob])
    return rem_src, rem_dst, add_src, add_dst, add_prob
