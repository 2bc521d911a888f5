"""Zero-copy graph sharing between processes via POSIX shared memory.

The sharded worker runtime spawns long-lived processes that each need the
full :class:`~repro.graphs.csr.CSRGraph`.  Pickling the CSR arrays into
every worker would cost one full copy per process per request; instead
the parent packs all graph arrays into a single
:class:`multiprocessing.shared_memory.SharedMemory` block **once** and
workers attach read-only NumPy views onto it — the graph is mapped,
never copied, no matter how many workers or requests follow.

The handle describing the block (:class:`SharedGraphHandle`) is a small
picklable value object: block name, scalar graph attributes, and one
``(attr, dtype, shape, offset)`` spec per array.  Lifetime contract: the
*creator* owns the block and must call :func:`unlink_shared` when done;
attachers only hold a reference (kept alive on the attached graph itself)
and are explicitly unregistered from the resource tracker so worker exit
never unlinks — or warns about — a block the parent still serves.
"""

from __future__ import annotations

from dataclasses import dataclass
from multiprocessing import shared_memory
from typing import Tuple

import numpy as np

from repro.graphs.csr import CSRGraph

#: array attributes packed into the shared block, in layout order.  The
#: derived per-node arrays (``in_prob_sums``, ``uniform_in``) are included
#: so attaching never re-runs the O(m) reductions ``__init__`` performs.
SHARED_ARRAYS: Tuple[str, ...] = (
    "out_indptr",
    "out_indices",
    "out_probs",
    "in_indptr",
    "in_indices",
    "in_probs",
    "in_prob_sums",
    "uniform_in",
)

#: key under which an attached graph stashes its SharedMemory reference in
#: the (pickle-excluded) per-graph cache, keeping the mapping alive for as
#: long as the graph object lives.
_SHM_CACHE_KEY = "__shared_memory__"


@dataclass(frozen=True)
class SharedArraySpec:
    """Placement of one graph array inside the shared block."""

    attr: str
    dtype: str
    shape: Tuple[int, ...]
    offset: int


@dataclass(frozen=True)
class SharedGraphHandle:
    """Picklable description of a graph resident in shared memory."""

    shm_name: str
    n: int
    m: int
    weight_model: str
    fingerprint: str
    specs: Tuple[SharedArraySpec, ...]
    total_bytes: int


def _attach_untracked(name: str) -> shared_memory.SharedMemory:
    """Attach to a named block without registering it with the tracker.

    Attaching normally registers the block with the (process-shared)
    resource tracker, which would unlink it — with a noisy warning — when
    the attaching process exits, and whose ``unregister`` on attacher exit
    races the creator's own ``unlink``.  The creator owns the block's
    lifetime, so attachers must not be tracked at all.  CPython offers no
    public opt-out, hence the guarded monkeypatch; on failure we fall back
    to default (tracked) behavior, which is merely noisy, not incorrect
    for the block's data.
    """
    try:  # pragma: no cover - depends on CPython internals
        from multiprocessing import resource_tracker

        original = resource_tracker.register
        resource_tracker.register = lambda *args, **kwargs: None
        try:
            return shared_memory.SharedMemory(name=name)
        finally:
            resource_tracker.register = original
    except Exception:
        return shared_memory.SharedMemory(name=name)


def share_graph(
    graph: CSRGraph,
) -> Tuple[SharedGraphHandle, shared_memory.SharedMemory]:
    """Pack ``graph`` into one shared-memory block.

    Returns the picklable handle plus the block itself; the caller owns the
    block and must eventually :func:`unlink_shared` it.  Array offsets are
    8-byte aligned so every attached view is properly aligned regardless of
    the dtype mix.
    """
    specs = []
    offset = 0
    arrays = []
    for attr in SHARED_ARRAYS:
        arr = np.ascontiguousarray(getattr(graph, attr))
        offset = (offset + 7) & ~7
        specs.append(
            SharedArraySpec(attr, arr.dtype.str, tuple(arr.shape), offset)
        )
        arrays.append(arr)
        offset += arr.nbytes
    total = max(offset, 1)
    shm = shared_memory.SharedMemory(create=True, size=total)
    for spec, arr in zip(specs, arrays):
        dst = np.ndarray(
            spec.shape, dtype=spec.dtype, buffer=shm.buf, offset=spec.offset
        )
        dst[...] = arr
    handle = SharedGraphHandle(
        shm_name=shm.name,
        n=graph.n,
        m=graph.m,
        weight_model=graph.weight_model,
        fingerprint=graph.fingerprint(),
        specs=tuple(specs),
        total_bytes=total,
    )
    return handle, shm


def attach_graph(handle: SharedGraphHandle) -> CSRGraph:
    """Map the shared block into this process as a read-only ``CSRGraph``.

    No array data is copied and none of the ``__init__`` reductions re-run:
    the instance is assembled slot-by-slot from views onto the block.  The
    fingerprint travels with the handle, so per-graph sampler-table caches
    (:meth:`CSRGraph.cached`) hit without hashing megabytes on attach.
    """
    shm = _attach_untracked(handle.shm_name)
    graph = object.__new__(CSRGraph)
    graph.n = handle.n
    graph.m = handle.m
    graph.weight_model = handle.weight_model
    for spec in handle.specs:
        view = np.ndarray(
            spec.shape, dtype=spec.dtype, buffer=shm.buf, offset=spec.offset
        )
        view.flags.writeable = False
        setattr(graph, spec.attr, view)
    graph.delta_epoch = 0
    graph._fingerprint = handle.fingerprint
    # The cache dict is excluded from pickling, making it the right home
    # for the process-local SharedMemory reference that keeps the mapping
    # alive as long as the graph does.
    graph._cache = {_SHM_CACHE_KEY: (handle.fingerprint, shm)}
    return graph


def unlink_shared(shm: shared_memory.SharedMemory) -> None:
    """Release the block (creator side); safe to call more than once."""
    try:
        shm.close()
    except (OSError, BufferError):  # pragma: no cover - teardown race
        pass
    try:
        shm.unlink()
    except (OSError, FileNotFoundError):
        pass
