"""Per-tenant session ownership, locking, and crash recovery.

Each ``(tenant, graph)`` pair owns one
:class:`~repro.engine.session.QuerySession` whose entropy is a pure
function of ``(server seed, tenant, graph)`` — so a restarted server (or
a session rebuilt after a worker crash) regenerates *bit-identical* RR
banks, and a snapshot-restored warm session is indistinguishable from
one that never went down.

Concurrency: the manager's own lock only guards the session table; every
entry carries a per-session lock that a worker holds for the whole query
(and the post-query snapshot).  Bank eviction runs inside
``end_query`` — under the entry lock — so it stays strictly *between*
queries even when the worker pool is concurrent.

Recovery: sessions snapshot through the atomic
:class:`~repro.runtime.checkpoint.CheckpointStore` after queries.  On
first use of a ``(tenant, graph)`` the manager tries the snapshot; a
truncated or corrupted file raises
:class:`~repro.utils.exceptions.CheckpointError` inside the store's
self-validating load, the manager counts a cold start and serves a fresh
session — it never loads garbage.
"""

from __future__ import annotations

import hashlib
import os
import re
import threading
import zlib
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional, Tuple

from repro.engine.session import QuerySession
from repro.graphs.csr import CSRGraph
from repro.observability.registry import MetricsRegistry
from repro.serving.config import ServerConfig
from repro.serving.faults import ServerFaultInjector
from repro.utils.exceptions import CheckpointError

Key = Tuple[str, str]


def _safe(text: str) -> str:
    # Human-readable prefix + crc suffix so distinct tenants that
    # sanitize to the same string cannot share a file.
    return (
        re.sub(r"[^A-Za-z0-9_.-]", "_", text)[:40]
        + f"-{zlib.crc32(text.encode('utf-8')):08x}"
    )


def tenant_entropy(server_seed: int, tenant: str, graph_name: str) -> int:
    """Deterministic session entropy for ``(server seed, tenant, graph)``.

    A keyed hash, not a counter: entropy must not depend on creation
    order, restart count, or which other tenants exist — that independence
    is what makes crash recovery and rebuild-after-crash bit-identical.
    """
    digest = hashlib.blake2b(
        f"{server_seed}:{tenant}:{graph_name}".encode("utf-8"), digest_size=8
    ).digest()
    return int.from_bytes(digest, "big")


class SessionEntry:
    """One tenant's session plus the lock serializing its queries."""

    __slots__ = ("key", "session", "lock", "queries_snapshotted")

    def __init__(self, key: Key, session: QuerySession) -> None:
        self.key = key
        self.session = session
        self.lock = threading.RLock()
        self.queries_snapshotted = 0


class SessionManager:
    """Owns every tenant session of a server."""

    def __init__(
        self,
        config: ServerConfig,
        metrics: Optional[MetricsRegistry] = None,
        faults: Optional[ServerFaultInjector] = None,
    ) -> None:
        self.config = config
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.faults = faults
        self._entries: Dict[Key, SessionEntry] = {}
        self._lock = threading.Lock()
        if config.snapshot_dir:
            os.makedirs(config.snapshot_dir, exist_ok=True)

    # ------------------------------------------------------------------
    def snapshot_path(self, tenant: str, graph_name: str) -> Optional[str]:
        if not self.config.snapshot_dir:
            return None
        name = f"{_safe(tenant)}__{_safe(graph_name)}.session.npz"
        return os.path.join(self.config.snapshot_dir, name)

    # ------------------------------------------------------------------
    def _build(self, tenant: str, graph_name: str, graph: CSRGraph) -> SessionEntry:
        # A tenant-specific byte cap overrides the server-wide default, so
        # one noisy tenant's bank budget can be pinned without starving
        # (or inflating) everyone else's.
        byte_cap = self.config.tenant_byte_caps.get(
            tenant, self.config.byte_cap
        )
        session = QuerySession(
            graph,
            self.config.algorithm,
            seed=tenant_entropy(self.config.seed, tenant, graph_name),
            byte_cap=byte_cap,
        )
        entry = SessionEntry((tenant, graph_name), session)
        path = self.snapshot_path(tenant, graph_name)
        if path and os.path.exists(path):
            try:
                session.restore(path)
                entry.queries_snapshotted = session.queries_served
                self.metrics.inc("serving.sessions_restored")
            except (CheckpointError, OSError):
                # Refuse the snapshot, never load garbage: the entry keeps
                # its fresh (cold) session, which regenerates the identical
                # prefix from the deterministic per-tenant entropy.
                self.metrics.inc("serving.recovery_cold_starts")
        self.metrics.inc("serving.sessions_created")
        return entry

    @contextmanager
    def lease(
        self, tenant: str, graph_name: str, graph: CSRGraph
    ) -> Iterator[QuerySession]:
        """Exclusive access to the tenant's session for one query.

        The per-entry lock is held for the query *and* its snapshot, so a
        concurrent worker can never observe (or trigger eviction in) a
        session mid-query.
        """
        with self._lock:
            entry = self._entries.get((tenant, graph_name))
            if entry is None:
                entry = self._build(tenant, graph_name, graph)
                self._entries[(tenant, graph_name)] = entry
        with entry.lock:
            yield entry.session
            self._maybe_snapshot(entry)

    def _maybe_snapshot(self, entry: SessionEntry) -> None:
        """Snapshot under the entry lock when the interval has elapsed."""
        served = entry.session.queries_served
        if served - entry.queries_snapshotted < self.config.snapshot_every:
            return
        path = self.snapshot_path(*entry.key)
        if path is None:
            return
        entry.session.save(path)
        entry.queries_snapshotted = served
        self.metrics.inc("serving.snapshots")
        if self.faults is not None:
            self.faults.on_snapshot(path)

    # ------------------------------------------------------------------
    def invalidate(self, tenant: str, graph_name: str) -> None:
        """Drop a session whose worker crashed mid-query.

        The in-memory banks may hold a half-extended pool with a desynced
        stream, so the whole session is discarded; the next query rebuilds
        it from the last good snapshot (or cold), both of which regenerate
        the identical prefix.
        """
        with self._lock:
            dropped = self._entries.pop((tenant, graph_name), None)
        if dropped is not None:
            dropped.session.close()
            self.metrics.inc("serving.sessions_invalidated")

    def snapshot_all(self) -> int:
        """Persist sessions with unsnapshotted queries (graceful shutdown).

        Sessions whose snapshot is already current are left alone — never
        rewritten.  That matters beyond efficiency: a snapshot that was
        corrupted *after* its write (torn write, disk fault) must surface
        as a refused restore on the next boot, not be papered over by a
        shutdown-time rewrite.
        """
        with self._lock:
            entries = list(self._entries.values())
        saved = 0
        for entry in entries:
            with entry.lock:
                served = entry.session.queries_served
                if served == entry.queries_snapshotted:
                    continue
                path = self.snapshot_path(*entry.key)
                if path is not None and served:
                    entry.session.save(path)
                    entry.queries_snapshotted = served
                    self.metrics.inc("serving.snapshots")
                    saved += 1
        return saved

    def close_all(self) -> None:
        """Release session resources (shard pools, shared memory) at shutdown."""
        with self._lock:
            entries = list(self._entries.values())
            self._entries.clear()
        for entry in entries:
            with entry.lock:
                entry.session.close()

    # ------------------------------------------------------------------
    def entries(self) -> List[SessionEntry]:
        with self._lock:
            return list(self._entries.values())

    def describe(self) -> List[Dict[str, object]]:
        """JSON-able per-session summary for the ``/report`` endpoint."""
        rows = []
        for entry in self.entries():
            session = entry.session
            rows.append(
                {
                    "tenant": entry.key[0],
                    "graph": entry.key[1],
                    "algorithm": session.algorithm,
                    "queries_served": int(session.queries_served),
                    "sets_generated": session.metrics.value(
                        "bank.sets_generated"
                    ),
                    "sets_reused": session.metrics.value("bank.sets_reused"),
                    "evictions": session.metrics.value("bank.evictions"),
                }
            )
        return rows
