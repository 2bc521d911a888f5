"""Persistent sharded worker runtime for RR-set generation and coverage.

A per-call process fan-out would pay process spawn, a full graph pickle,
and a sampler-table rebuild on **every** generate call, and merge every
shard back into one parent-resident pool.  A :class:`ShardPool` avoids
all three costs:

* **Spawn once** — workers are long-lived processes created at pool
  construction; each attaches the graph from one shared-memory block
  (:mod:`repro.graphs.shared`) and keeps its generator — and therefore the
  per-graph sampler tables cached on the attached graph — resident across
  requests.
* **Shard-resident pools** — each worker permanently owns its shard of
  every role's RR pool (an ordinary :class:`~repro.rrsets.collection
  .RRCollection`) plus the lazily built inverted index.  Nothing is merged
  back to the parent; coverage runs *where the data lives* and only
  per-node gain vectors travel.

**Tagged wire.**  Every message carries a per-worker monotone *tag* —
parent to worker ``(cmd, tag, payload)``, worker to parent ``(tag,
status, reply)``.  Broadcasts send to every rank before collecting, and
replies that arrive for another tag are stashed, so a reply that shipped
before a worker crash can still be resolved after the respawn.  A
generate stages its chunks privately and installs them with one
``add_batch`` at the end, so a mid-generate crash leaves the pool
untouched and replay re-runs the whole request.

**Determinism and crash recovery.**  Every mutating command carries a
monotone per-worker sequence number and (for generation) a self-contained
``SeedSequence`` spec, so a worker's entire pool state is a pure function
of the command journal the parent keeps.  When a worker dies the parent
drains the dead pipe (already-sent replies are still readable and are
stashed by tag), respawns the worker, replays the whole journal from seq 0
— bit-identical, because requests are independently seeded, and graph
deltas are journaled like any other mutation — caching each replayed reply
by sequence number, and re-establishes any in-progress selection state.  A
pending reply is therefore always recoverable: it is either in the drained
pipe or owned by a replayed command.
"""

from __future__ import annotations

import multiprocessing
import os
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.graphs.csr import CSRGraph
from repro.graphs.shared import unlink_shared
from repro.rrsets.collection import RRCollection
from repro.rrsets.journal import UnitJournal
from repro.utils.exceptions import ReproError


class ShardPoolError(ReproError):
    """A shard worker reported an error or could not be recovered."""


#: recv/send failure modes that mean "the worker process is gone".
_LINK_ERRORS = (EOFError, BrokenPipeError, ConnectionResetError, OSError)


# ----------------------------------------------------------------------
# worker side
# ----------------------------------------------------------------------

class _RoleState:
    """One role's resident shard inside a worker: pool + generator.

    ``journal`` records the RNG state of every generation unit (a
    :class:`~repro.rrsets.journal.UnitJournal`); ``repair`` replays it so
    a graph delta resamples exactly the invalidated sets.
    """

    __slots__ = ("pool", "generator", "journal")

    def __init__(self, pool: RRCollection, generator) -> None:
        self.pool = pool
        self.generator = generator
        self.journal = UnitJournal()


class _Selection:
    """Worker-side state of one in-progress scatter-gather selection."""

    __slots__ = ("limit", "covered")

    def __init__(self, limit: int) -> None:
        self.limit = int(limit)
        self.covered = np.zeros(self.limit, dtype=bool)


class _ShardWorker:
    """State machine executed by one worker process."""

    def __init__(self, rank: int, graph: CSRGraph) -> None:
        self.rank = rank
        self.graph = graph
        self.roles: Dict[str, _RoleState] = {}
        self.selections: Dict[str, _Selection] = {}
        self.seq = 0
        self.last_reply: Optional[Tuple[int, Any]] = None
        self.crash_next = False

    # -- role plumbing -------------------------------------------------
    def _role(self, role: str, generator_cls, batch_size) -> _RoleState:
        state = self.roles.get(role)
        if state is None:
            state = _RoleState(
                RRCollection(self.graph.n), generator_cls(self.graph)
            )
            self.roles[role] = state
        state.generator.batch_size = int(batch_size)
        return state

    def _view(self, role: str, limit: int):
        state = self.roles.get(role)
        pool = state.pool if state is not None else RRCollection(self.graph.n)
        return pool.prefix(min(int(limit), pool.num_rr))

    # -- command dispatch ----------------------------------------------
    def dispatch(self, cmd: str, payload: Dict[str, Any]):
        handler = getattr(self, f"_cmd_{cmd}", None)
        if handler is None:
            raise ShardPoolError(f"unknown shard command {cmd!r}")
        mutating = cmd in _MUTATING_COMMANDS
        if mutating:
            seq = int(payload["seq"])
            if seq < self.seq:
                # A retried send reached a command this worker already
                # applied: answer idempotently from the cached reply.
                # Only the immediately preceding command can ever be
                # re-sent — anything else means the journal and worker
                # disagree.
                if self.last_reply is not None and self.last_reply[0] == seq:
                    return self.last_reply[1]
                raise ShardPoolError(
                    f"shard {self.rank}: replayed seq {seq} predates worker "
                    f"seq {self.seq} and no cached reply exists (journal "
                    "mismatch)"
                )
        reply = handler(payload)
        if mutating:
            self.seq += 1
            self.last_reply = (int(payload["seq"]), reply)
        return reply

    def _cmd_hello(self, payload):
        return {}

    def _cmd_generate(self, payload):
        from repro.observability.registry import MetricsRegistry

        state = self._role(
            payload["role"],
            payload["generator_cls"],
            payload.get("batch_size", 1),
        )
        gen = state.generator
        gen.metrics = MetricsRegistry() if payload.get("want_metrics") else None
        before = _counter_tuple(gen.counters)
        rng = np.random.default_rng(payload["seed"])
        stop_mask = payload.get("stop_mask")
        count = int(payload["count"])
        batch = max(1, int(payload.get("batch_size", 1)))
        node_chunks: List[np.ndarray] = []
        sizes_chunks: List[np.ndarray] = []
        units: List[Tuple[int, int, int, dict]] = []
        base = state.pool.num_rr
        produced = 0
        remaining = count
        midpoint = count // 2
        while remaining > 0:
            b = min(batch, remaining)
            rng_state = rng.bit_generator.state
            nodes, sizes = gen.generate_batch(rng, b, stop_mask=stop_mask)
            node_chunks.append(nodes)
            sizes_chunks.append(sizes)
            units.append((base + produced, len(sizes), b, rng_state))
            produced += len(sizes)
            remaining -= len(sizes)
            if self.crash_next and count - remaining >= midpoint:
                # Chaos hook: die mid-generate with chunks staged but
                # uncommitted and no reply sent — exactly the failure
                # recovery must absorb.  ``os._exit`` skips every
                # cleanup path.
                os._exit(17)
        # Stage-then-commit: one add_batch makes a mid-generate crash
        # leave the pool untouched (replay re-runs the whole request).
        if produced:
            state.pool.add_batch(
                np.concatenate(node_chunks), np.concatenate(sizes_chunks)
            )
            for start, delivered, requested, rng_state in units:
                state.journal.append(
                    start, delivered, requested, True, rng_state
                )
        sizes = (
            np.concatenate(sizes_chunks)
            if sizes_chunks
            else np.empty(0, dtype=np.int64)
        )
        after = _counter_tuple(gen.counters)
        delta = tuple(a - b for a, b in zip(after, before))
        metrics_payload = (
            gen.metrics.snapshot() if gen.metrics is not None else None
        )
        gen.metrics = None
        return {
            "sizes": sizes,
            "totals": delta,
            "metrics": metrics_payload,
            "num_rr": state.pool.num_rr,
        }

    def _cmd_adopt(self, payload):
        state = self._role(payload["role"], payload["generator_cls"], 1)
        nodes = payload["nodes"]
        sizes = payload["sizes"]
        if len(sizes):
            state.pool.add_batch(nodes, sizes)
        return {"num_rr": state.pool.num_rr}

    def _cmd_reset_role(self, payload):
        state = self.roles.get(payload["role"])
        if state is not None:
            state.pool = RRCollection(self.graph.n)
            state.journal = UnitJournal()
        return {"num_rr": 0}

    def _cmd_apply_delta(self, payload):
        from repro.graphs.dynamic import GraphDelta

        delta = GraphDelta.from_payload(payload["delta"])
        touched = self.graph.apply_delta(delta)
        # Resident generators hold construction-time caches derived from
        # the pre-delta graph (e.g. SUBSIM's per-node rate arrays): rebuild
        # each one in place, carrying its cumulative counters.
        for state in self.roles.values():
            old = state.generator
            gen = type(old)(self.graph)
            gen.counters = old.counters
            gen.batch_size = old.batch_size
            state.generator = gen
        return {
            "touched": int(len(touched)),
            "delta_epoch": int(self.graph.delta_epoch),
        }

    def _cmd_repair(self, payload):
        from repro.rrsets.bank import REPAIR_KEY, replay_units

        role = payload["role"]
        state = self.roles.get(role)
        if state is None or state.pool.num_rr == 0:
            return {"num_dirty": 0, "num_rr": 0, "num_resampled": 0}
        pool = state.pool
        dirty = pool.sets_touching(payload["nodes"])
        num_resampled = 0
        if len(dirty):
            repair_gen = type(state.generator)(self.graph)
            ids, chunks, sizes, uncovered = replay_units(
                state.journal, dirty, repair_gen
            )
            # Fresh per-set fallback seeds for dirty sets the journal
            # cannot replay (adopted sets); the rank is in the spawn key so
            # shards never share a stream.
            for local_id in uncovered:
                seq = np.random.SeedSequence(
                    payload["entropy"],
                    spawn_key=(
                        payload["role_key"],
                        REPAIR_KEY,
                        payload["epoch"],
                        self.rank,
                        int(local_id),
                    ),
                )
                rr = np.asarray(
                    repair_gen.generate(np.random.default_rng(seq)),
                    dtype=np.int64,
                )
                ids.append(int(local_id))
                chunks.append(rr)
                sizes.append(len(rr))
            order = np.argsort(np.asarray(ids, dtype=np.int64))
            flat = np.concatenate(chunks)
            sizes_arr = np.asarray(sizes, dtype=np.int64)
            bounds = np.concatenate(([0], np.cumsum(sizes_arr)))
            pool.replace_sets(
                np.asarray(ids, dtype=np.int64)[order],
                np.concatenate(
                    [flat[bounds[i]:bounds[i + 1]] for i in order]
                ),
                sizes_arr[order],
            )
            num_resampled = len(ids)
        return {
            "num_dirty": int(len(dirty)),
            "num_rr": pool.num_rr,
            "num_resampled": int(num_resampled),
        }

    def _cmd_stats(self, payload):
        return {
            role: {
                "num_rr": s.pool.num_rr,
                "nbytes": s.pool.nbytes(),
                "realloc_count": s.pool.realloc_count,
            }
            for role, s in self.roles.items()
        }

    def _cmd_crash_next(self, payload):
        self.crash_next = True
        return {}

    def _cmd_coverage_counts(self, payload):
        view = self._view(payload["role"], payload["limit"])
        return {"counts": view.coverage_counts(), "num_rr": view.num_rr}

    def _cmd_coverage(self, payload):
        view = self._view(payload["role"], payload["limit"])
        return {"covered": view.coverage(payload["seeds"])}

    def _cmd_per_set_sums(self, payload):
        view = self._view(payload["role"], payload["limit"])
        return {"sums": view.per_set_sums(payload["values"])}

    def _cmd_select_begin(self, payload):
        self.selections[payload["role"]] = _Selection(payload["limit"])
        return {}

    def _cmd_select_mark(self, payload):
        role = payload["role"]
        sel = self.selections[role]
        view = self._view(role, sel.limit)
        containing = view.rrs_containing(int(payload["node"]))
        newly = containing[~sel.covered[containing]]
        sel.covered[newly] = True
        reply: Dict[str, Any] = {"newly": len(newly)}
        if payload.get("want_decrements"):
            reply["members"] = view.nodes_of_sets(newly)
        return reply

    def _cmd_select_uncovered(self, payload):
        role = payload["role"]
        sel = self.selections[role]
        view = self._view(role, sel.limit)
        return {
            "counts": view.uncovered_counts(payload["nodes"], sel.covered)
        }

    def _cmd_select_covered(self, payload):
        return {"covered": self.selections[payload["role"]].covered}

    def _cmd_select_end(self, payload):
        self.selections.pop(payload["role"], None)
        return {}


#: commands that advance worker state; they carry ``seq``, are journaled by
#: the parent, and are replayed verbatim after a crash.
_MUTATING_COMMANDS = frozenset(
    {"generate", "adopt", "reset_role", "apply_delta", "repair"}
)


def _counter_tuple(c) -> Tuple[int, int, int, int, int]:
    return (
        c.edges_examined, c.rng_draws, c.nodes_added,
        c.sets_generated, c.sentinel_hits,
    )


def _shard_worker_main(rank, conn, handle):
    """Worker process entry point: attach the graph, serve commands."""
    graph = CSRGraph.from_shared(handle)
    worker = _ShardWorker(rank, graph)
    while True:
        try:
            cmd, tag, payload = conn.recv()
        except _LINK_ERRORS:  # parent is gone
            break
        if cmd == "shutdown":
            try:
                conn.send((tag, "ok", None))
            except _LINK_ERRORS:  # pragma: no cover - teardown race
                pass
            break
        try:
            reply = worker.dispatch(cmd, payload)
        except ShardPoolError as exc:
            conn.send((tag, "error", str(exc)))
            continue
        except Exception as exc:  # surface, don't die silently
            conn.send((tag, "error", f"{type(exc).__name__}: {exc}"))
            continue
        conn.send((tag, "ok", reply))


# ----------------------------------------------------------------------
# parent side
# ----------------------------------------------------------------------

class ShardPool:
    """A fixed set of long-lived worker processes owning RR-pool shards.

    The pool is role-multiplexed: any number of RR banks (``"opimc.r1"``,
    ``"sentinel.r2"``, ...) share the same workers, each role owning one
    resident :class:`RRCollection` shard per worker.  Communication is
    tagged request/reply over per-worker pipes; every call gathers its
    replies in rank order.
    """

    def __init__(
        self,
        graph: CSRGraph,
        shards: int,
        *,
        mp_context: Optional[str] = None,
        metrics=None,
    ) -> None:
        if shards < 1:
            raise ShardPoolError(f"shards must be >= 1, got {shards}")
        self.graph = graph
        self.shards = int(shards)
        self.metrics = metrics
        self._ctx = multiprocessing.get_context(mp_context)
        self._handle, self._shm = graph.to_shared()
        self._conns: List[Any] = [None] * self.shards
        self._procs: List[Any] = [None] * self.shards
        self._journal: List[List[Tuple[str, dict]]] = [
            [] for _ in range(self.shards)
        ]
        #: per-rank monotone message tags (never reset, even on respawn,
        #: so stashed replies from a dead worker stay unambiguous).
        self._tags: List[int] = [0] * self.shards
        #: out-of-order replies keyed by tag, per rank.
        self._stash: List[Dict[int, Tuple[str, Any]]] = [
            {} for _ in range(self.shards)
        ]
        #: bumped on every (re)spawn; a request sent under an older epoch
        #: resolves its reply from the stash or the replay cache.
        self._epochs: List[int] = [0] * self.shards
        #: replies of journal-replayed commands from the latest recovery,
        #: keyed by absolute seq, per rank.
        self._replay_cache: List[Dict[int, Any]] = [
            {} for _ in range(self.shards)
        ]
        #: parent mirror of live selections: role -> (per-rank limits,
        #: [marked nodes]) — enough to rebuild worker selection state.
        self._selections: Dict[str, Tuple[List[int], List[int]]] = {}
        self._closed = False
        try:
            for rank in range(self.shards):
                self._spawn(rank)
        except BaseException:
            self.close()
            raise

    # -- lifecycle -----------------------------------------------------
    def __enter__(self) -> "ShardPool":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def close(self) -> None:
        """Shut workers down and release the shared graph block."""
        if self._closed:
            return
        self._closed = True
        for rank in range(self.shards):
            conn = self._conns[rank]
            if conn is not None:
                try:
                    tag = self._send(rank, "shutdown", {})
                    self._recv_tag(rank, tag)
                except _LINK_ERRORS:
                    pass
                conn.close()
                self._conns[rank] = None
        for rank in range(self.shards):
            proc = self._procs[rank]
            if proc is not None:
                proc.join(timeout=5.0)
                if proc.is_alive():  # pragma: no cover - stuck worker
                    proc.terminate()
                    proc.join(timeout=5.0)
                self._procs[rank] = None
        if self._shm is not None:
            unlink_shared(self._shm)
            self._shm = None

    def __del__(self):  # pragma: no cover - GC safety net
        try:
            self.close()
        except Exception:
            pass

    # -- wire primitives -----------------------------------------------
    def _send(self, rank: int, cmd: str, payload: dict) -> int:
        """Send one tagged command; returns the tag (may raise link errors)."""
        tag = self._tags[rank]
        self._tags[rank] += 1
        self._conns[rank].send((cmd, tag, payload))
        return tag

    def _recv_tag(self, rank: int, tag: int) -> Tuple[str, Any]:
        """Receive until ``tag``'s reply arrives, stashing out-of-order ones."""
        stash = self._stash[rank]
        hit = stash.pop(tag, None)
        if hit is not None:
            return hit
        conn = self._conns[rank]
        while True:
            rtag, status, reply = conn.recv()
            if rtag == tag:
                return status, reply
            stash[rtag] = (status, reply)

    def _exchange(self, rank: int, cmd: str, payload: dict):
        """One request/reply on an assumed-healthy link (may raise)."""
        tag = self._send(rank, cmd, payload)
        status, reply = self._recv_tag(rank, tag)
        if status == "error":
            raise ShardPoolError(f"shard {rank}: {reply}")
        return reply

    # -- spawn / recovery ----------------------------------------------
    def _spawn(self, rank: int) -> None:
        parent_conn, child_conn = self._ctx.Pipe()
        proc = self._ctx.Process(
            target=_shard_worker_main,
            args=(rank, child_conn, self._handle),
            daemon=True,
            name=f"repro-shard-{rank}",
        )
        proc.start()
        child_conn.close()
        self._conns[rank] = parent_conn
        self._procs[rank] = proc
        self._epochs[rank] += 1
        self._exchange(rank, "hello", {})

    def _drain_dead(self, rank: int) -> None:
        """Stash every reply still buffered in a dead worker's pipe.

        A reply that shipped before the crash survives in the pipe until
        EOF; stashing it (keyed by its tag, which is never reused) lets the
        pending request resolve it after the respawn.
        """
        conn = self._conns[rank]
        if conn is None:
            return
        try:
            while conn.poll(0):
                rtag, status, reply = conn.recv()
                self._stash[rank][rtag] = (status, reply)
        except _LINK_ERRORS:
            pass

    def _recover(self, rank: int) -> None:
        """Respawn a dead worker and replay its whole journal."""
        if self.metrics is not None:
            self.metrics.inc("shardpool.worker_crashes")
        proc = self._procs[rank]
        if proc is not None:
            proc.join(timeout=1.0)
            if proc.is_alive():
                proc.terminate()
                proc.join(timeout=5.0)
        self._drain_dead(rank)
        conn = self._conns[rank]
        if conn is not None:
            conn.close()
        self._spawn(rank)
        cache: Dict[int, Any] = {}
        self._replay_cache[rank] = cache
        try:
            for seq, (cmd, payload) in enumerate(self._journal[rank]):
                cache[seq] = self._exchange(rank, cmd, payload)
        except _LINK_ERRORS:
            raise ShardPoolError(
                f"shard {rank} died again during recovery replay; giving up"
            )
        # Selection state is not journaled (it is transient and cheap to
        # rebuild): re-open each live selection and re-mark its seeds.
        for role, (limits, marked) in self._selections.items():
            self._exchange(
                rank, "select_begin", {"role": role, "limit": limits[rank]}
            )
            for node in marked:
                self._exchange(
                    rank,
                    "select_mark",
                    {"role": role, "node": node, "want_decrements": False},
                )

    def _finish_request(
        self,
        rank: int,
        tag: Optional[int],
        seq: Optional[int],
        epoch: int,
        cmd: str,
        payload: dict,
    ):
        """Collect one reply, absorbing a worker crash at any point.

        The reply is taken from, in order: the live link; the stash (the
        dead pipe was drained, or an earlier collect stashed it); the
        replay cache (recovery re-ran the journaled command); or — for
        non-journaled commands only — a fresh re-issue on the respawned
        worker.
        """
        if tag is not None and epoch == self._epochs[rank]:
            try:
                status, reply = self._recv_tag(rank, tag)
            except _LINK_ERRORS:
                self._recover(rank)
            else:
                if status == "error":
                    raise ShardPoolError(f"shard {rank}: {reply}")
                return reply
        elif epoch == self._epochs[rank]:
            # The send itself failed on a live-looking link: recover now.
            self._recover(rank)
        if tag is not None:
            stashed = self._stash[rank].pop(tag, None)
            if stashed is not None:
                status, reply = stashed
                if status == "error":
                    raise ShardPoolError(f"shard {rank}: {reply}")
                return reply
        if seq is not None:
            reply = self._replay_cache[rank].get(seq)
            if reply is not None:
                return reply
            raise ShardPoolError(
                f"shard {rank}: reply for journaled seq {seq} was lost in "
                "recovery (neither drained nor replayed)"
            )
        return self._exchange(rank, cmd, payload)

    def _request(self, rank: int, cmd: str, payload: dict, journal: bool):
        if self._closed:
            raise ShardPoolError("shard pool is closed")
        seq: Optional[int] = None
        if journal:
            seq = len(self._journal[rank])
            payload = dict(payload, seq=seq)
            self._journal[rank].append((cmd, payload))
        epoch = self._epochs[rank]
        try:
            tag: Optional[int] = self._send(rank, cmd, payload)
        except _LINK_ERRORS:
            tag = None
        return self._finish_request(rank, tag, seq, epoch, cmd, payload)

    def _request_all(
        self,
        cmd: str,
        payloads: Sequence[dict],
        journal: bool = False,
    ) -> List[Any]:
        """Broadcast one command; gather replies in rank order.

        Sends are pipelined so multi-core hosts overlap worker execution;
        any link failure routes that rank through recovery, resolving the
        reply from the drained stash or the journal replay.
        """
        if self._closed:
            raise ShardPoolError("shard pool is closed")
        staged: List[dict] = []
        tags: List[Optional[int]] = []
        seqs: List[Optional[int]] = []
        epochs: List[int] = []
        for rank in range(self.shards):
            payload = payloads[rank]
            seq: Optional[int] = None
            if journal:
                seq = len(self._journal[rank])
                payload = dict(payload, seq=seq)
                self._journal[rank].append((cmd, payload))
            staged.append(payload)
            seqs.append(seq)
            epochs.append(self._epochs[rank])
            try:
                tags.append(self._send(rank, cmd, payload))
            except _LINK_ERRORS:
                tags.append(None)
        return [
            self._finish_request(
                rank, tags[rank], seqs[rank], epochs[rank], cmd, staged[rank]
            )
            for rank in range(self.shards)
        ]

    # -- generation ----------------------------------------------------
    def generate(
        self,
        role: str,
        counts: Sequence[int],
        seeds: Sequence[np.random.SeedSequence],
        *,
        generator_cls,
        batch_size: int,
        stop_mask: Optional[np.ndarray] = None,
        want_metrics: bool = False,
    ) -> List[dict]:
        """Broadcast one generate request; per-rank replies in rank order.

        Each reply carries ``sizes`` (per-set sizes, local order),
        ``totals`` (the counter delta tuple) and optionally a serialized
        metrics snapshot.  Counts of zero still round-trip so every rank's
        journal advances in lockstep.
        """
        payloads = [
            {
                "role": role,
                "count": int(counts[rank]),
                "seed": seeds[rank],
                "generator_cls": generator_cls,
                "batch_size": int(batch_size),
                "stop_mask": stop_mask,
                "want_metrics": bool(want_metrics),
            }
            for rank in range(self.shards)
        ]
        return self._request_all("generate", payloads, journal=True)

    def adopt(self, role: str, shards_data, generator_cls) -> None:
        """Scatter pre-generated ``(nodes, sizes)`` pairs into the shards
        (equivalence tests and benchmarks; journaled like any mutation)."""
        payloads = [
            {
                "role": role,
                "nodes": nodes,
                "sizes": sizes,
                "generator_cls": generator_cls,
            }
            for nodes, sizes in shards_data
        ]
        self._request_all("adopt", payloads, journal=True)

    def reset_role(self, role: str) -> None:
        """Drop every shard of ``role`` (journaled)."""
        self._request_all(
            "reset_role", [{"role": role}] * self.shards, journal=True
        )

    def apply_delta(self, delta) -> List[dict]:
        """Broadcast one graph delta to every worker (journaled).

        Workers mutate their *private* graph state: block surgery replaces
        the read-only shared-memory views with ordinary arrays, so the
        parent's shared block — which a respawned worker re-attaches — is
        never written.  The parent's own graph object is not touched here;
        the session owns that mutation.
        """
        payload = {"delta": delta.to_payload()}
        return self._request_all(
            "apply_delta", [payload] * self.shards, journal=True
        )

    def repair(
        self,
        role: str,
        nodes: np.ndarray,
        *,
        entropy: int,
        role_key: int,
        epoch: int,
    ) -> List[dict]:
        """Resample the dirty sets of ``role`` on every shard (journaled).

        Each worker finds its own dirty local ids and reseeds them from
        ``SeedSequence(entropy, spawn_key=(role_key, REPAIR_KEY, epoch,
        rank, local_id))`` — deterministic per shard, so recovery replay
        reproduces the repaired pools bit-identically.
        """
        payload = {
            "role": role,
            "nodes": np.asarray(nodes, dtype=np.int64),
            "entropy": int(entropy),
            "role_key": int(role_key),
            "epoch": int(epoch),
        }
        return self._request_all(
            "repair", [payload] * self.shards, journal=True
        )

    def stats(self) -> List[dict]:
        return self._request_all("stats", [{}] * self.shards)

    def crash_next_generate(self, rank: int) -> None:
        """Arm the chaos hook: ``rank`` dies mid-way through its next
        generate request (test-only)."""
        self._request(rank, "crash_next", {}, journal=False)

    # -- coverage (scatter-gather) -------------------------------------
    def coverage_counts(self, role: str, limits: Sequence[int]) -> np.ndarray:
        replies = self._request_all(
            "coverage_counts",
            [{"role": role, "limit": int(limits[r])} for r in range(self.shards)],
        )
        total = np.zeros(self.graph.n, dtype=np.int64)
        for reply in replies:
            total += reply["counts"]
        return total

    def coverage(self, role: str, limits: Sequence[int], seeds) -> int:
        seeds = list(seeds)
        replies = self._request_all(
            "coverage",
            [
                {"role": role, "limit": int(limits[r]), "seeds": seeds}
                for r in range(self.shards)
            ],
        )
        return int(sum(reply["covered"] for reply in replies))

    def per_set_sums(
        self, role: str, limits: Sequence[int], values: np.ndarray
    ) -> List[np.ndarray]:
        replies = self._request_all(
            "per_set_sums",
            [
                {"role": role, "limit": int(limits[r]), "values": values}
                for r in range(self.shards)
            ],
        )
        return [reply["sums"] for reply in replies]

    # -- selection sessions --------------------------------------------
    def select_begin(self, role: str, limits: Sequence[int]) -> None:
        if role in self._selections:
            raise ShardPoolError(f"selection already active for {role!r}")
        limits = [int(limits[r]) for r in range(self.shards)]
        self._request_all(
            "select_begin",
            [{"role": role, "limit": lim} for lim in limits],
        )
        self._selections[role] = (limits, [])

    def select_mark(
        self, role: str, node: int, want_decrements: bool = True
    ) -> Tuple[int, np.ndarray]:
        """Mark ``node`` selected on every shard.

        Returns ``(newly_covered_total, members)`` where ``members`` is the
        concatenation of every newly covered set's nodes across shards
        (multiplicities preserved — the decrement mass).  Addition over
        shards is exact because the sets are partitioned.
        """
        replies = self._request_all(
            "select_mark",
            [
                {
                    "role": role,
                    "node": int(node),
                    "want_decrements": want_decrements,
                }
            ]
            * self.shards,
        )
        self._selections[role][1].append(int(node))
        newly = sum(r["newly"] for r in replies)
        if want_decrements:
            chunks = [r["members"] for r in replies if len(r["members"])]
            members = (
                np.concatenate(chunks)
                if chunks
                else np.empty(0, dtype=np.int64)
            )
        else:
            members = np.empty(0, dtype=np.int64)
        return int(newly), members

    def select_uncovered(self, role: str, nodes: np.ndarray) -> np.ndarray:
        replies = self._request_all(
            "select_uncovered",
            [{"role": role, "nodes": nodes}] * self.shards,
        )
        total = np.zeros(len(nodes), dtype=np.int64)
        for reply in replies:
            total += reply["counts"]
        return total

    def select_covered(self, role: str) -> List[np.ndarray]:
        replies = self._request_all(
            "select_covered", [{"role": role}] * self.shards
        )
        return [reply["covered"] for reply in replies]

    def select_end(self, role: str) -> None:
        self._selections.pop(role, None)
        if not self._closed:
            self._request_all("select_end", [{"role": role}] * self.shards)
