"""Query sessions: bank provisioning and cross-query RR-set reuse.

Two pieces live here.  :class:`BankProvider` is the factory every
``IMAlgorithm.run`` draws its :class:`~repro.rrsets.bank.RRBank`\\ s from;
it has two modes:

* **transient** — built internally by ``run()`` around the run's own RNG.
  Every ``get`` hands out a fresh single-run bank sharing that RNG, so the
  pools interleave their draws on one stream exactly as the pre-bank code
  did.  Default single-query runs go through this path and replay the seed
  RNG schedule bit-identically.
* **session** — built by :class:`QuerySession` with its own entropy.  Each
  *role* (``"opimc.r1"``, ``"tim.final"``, ...) gets a private RNG stream
  derived from ``(entropy, role)`` only, so the stream a role sees is the
  same whether the pool is cold or warm — the prefix-stability property
  cross-query reuse rests on.  Reusable, unmasked roles are cached and
  served again to later queries; stop-masked or non-reusable roles get a
  fresh bank (on the same per-role stream origin) every query.

:class:`QuerySession` binds a graph + algorithm to a session provider and
serves repeated ``maximize(k, eps)`` calls, reporting per-query
``bank.sets_generated`` / ``bank.sets_reused`` deltas, with warm-start
persistence through the existing
:class:`~repro.runtime.checkpoint.CheckpointStore`.
"""

from __future__ import annotations

import zlib
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.graphs.csr import CSRGraph
from repro.observability.registry import MetricsRegistry
from repro.rrsets.bank import RRBank
from repro.rrsets.base import RRGenerator
from repro.rrsets.collection import RRCollection
from repro.runtime.checkpoint import CheckpointStore, coerce_store
from repro.utils.exceptions import CheckpointError, ConfigurationError

#: bumped when the warm-start payload layout changes incompatibly
SESSION_FORMAT = 1


def _session_entropy(seed: Any) -> int:
    if seed is None:
        return int(np.random.SeedSequence().entropy)
    if isinstance(seed, (int, np.integer)):
        return int(seed)
    raise ConfigurationError(
        f"session seed must be an int or None, got {type(seed).__name__}"
    )


class BankProvider:
    """Hands out :class:`RRBank` instances to algorithm code.

    Algorithms never construct banks directly — they ask the provider for a
    *role*, and the provider decides whether that role is a throwaway bank
    on the run's shared RNG (transient mode) or a cached, prefix-stable
    bank on a private stream (session mode).
    """

    def __init__(
        self,
        graph: CSRGraph,
        *,
        rng: Optional[np.random.Generator] = None,
        entropy: Optional[int] = None,
        byte_cap: Optional[int] = None,
        session_metrics: Optional[MetricsRegistry] = None,
        shard_pool: Optional[Any] = None,
    ) -> None:
        if (rng is None) == (entropy is None):
            raise ConfigurationError(
                "a BankProvider needs exactly one of a shared rng "
                "(transient mode) or an entropy (session mode)"
            )
        self.graph = graph
        self.byte_cap = byte_cap
        self.metrics = session_metrics
        self.entropy = entropy
        #: session mode only: when set, every bank this provider hands out
        #: is shard-resident (a :class:`~repro.engine.shards.ShardedRRBank`
        #: over this pool)
        self.shard_pool = shard_pool
        self._shared_rng = rng
        self._banks: Dict[str, Any] = {}
        self._staged: Dict[str, Tuple[Dict[str, Any], RRCollection]] = {}
        self._active: List[Any] = []
        self._control: Optional[Any] = None
        self._run_metrics: Optional[MetricsRegistry] = None

    @classmethod
    def transient(
        cls, graph: CSRGraph, rng: np.random.Generator
    ) -> "BankProvider":
        """The single-run provider ``IMAlgorithm.run`` builds by default."""
        return cls(graph, rng=rng)

    # ------------------------------------------------------------------
    # per-query lifecycle
    # ------------------------------------------------------------------
    def begin_query(self, control: Optional[Any] = None) -> None:
        self._control = control
        self._run_metrics = (
            getattr(control, "metrics", None) if control is not None else None
        )
        self._active = []

    def end_query(self) -> None:
        for bank in self._active:
            bank.end_query()
        self._active = []
        self._control = None
        self._run_metrics = None

    # ------------------------------------------------------------------
    # bank provisioning
    # ------------------------------------------------------------------
    def get(
        self,
        role: str,
        make_generator: Callable[[], RRGenerator],
        *,
        stop_mask: Optional[np.ndarray] = None,
        reusable: bool = True,
    ) -> RRBank:
        """The bank serving ``role`` for the current query.

        ``reusable`` declares whether the role's sets are query-agnostic
        (plain RR sets: yes; sentinel-masked or per-candidate validation
        sets: no).  Only reusable, unmasked roles are cached across
        queries; everything else is rebuilt per query — but still on its
        deterministic per-role stream, so cold and warm queries draw
        identically.
        """
        if self._shared_rng is not None:
            return RRBank(
                self.graph,
                make_generator(),
                self._shared_rng,
                role=role,
                stop_mask=stop_mask,
                reusable=False,
            )
        persistent = reusable and stop_mask is None
        bank = self._banks.get(role) if persistent else None
        if bank is None:
            gen = make_generator()
            if self.shard_pool is not None:
                from repro.engine.shards import ShardedRRBank

                # Non-persistent roles re-start from their seed origin
                # every query; clear any shards a previous query left.
                if not persistent:
                    self.shard_pool.reset_role(role)
                bank = ShardedRRBank(
                    self.graph,
                    gen,
                    self.shard_pool,
                    role=role,
                    entropy=self.entropy,
                    stop_mask=stop_mask,
                    reusable=persistent,
                    byte_cap=self.byte_cap,
                )
            else:
                bank = RRBank(
                    self.graph,
                    gen,
                    self._stream(role),
                    role=role,
                    stop_mask=stop_mask,
                    reusable=persistent,
                    byte_cap=self.byte_cap,
                    entropy=self.entropy,
                )
            if persistent:
                staged = self._staged.pop(role, None)
                if staged is not None:
                    bank.restore_state(*staged)
                self._banks[role] = bank
        elif self._control is not None:
            # Cached bank: rebind its generator to this query's control,
            # which carries the batch size (the generator object itself
            # persists so its cumulative counters keep matching the
            # recorded marks).
            self._control.adopt_generator(bank.generator)
        sinks: List[MetricsRegistry] = []
        for m in (self._run_metrics, self.metrics):
            # Identity-dedupe: when the run registry IS the session
            # registry (maximize's default), one sink, not two, or every
            # bank counter would double.
            if m is not None and all(m is not existing for existing in sinks):
                sinks.append(m)
        bank.begin_query(sinks)
        self._active.append(bank)
        return bank

    def _stream(self, role: str) -> np.random.Generator:
        # The stream depends only on (entropy, role) — not on creation
        # order or query index — so a role re-created for a later query
        # starts at the same origin a cold run would.
        key = zlib.crc32(role.encode("utf-8"))
        seq = np.random.SeedSequence(self.entropy, spawn_key=(key,))
        return np.random.default_rng(seq)

    # ------------------------------------------------------------------
    # warm-start state
    # ------------------------------------------------------------------
    def persistent_banks(self) -> Dict[str, RRBank]:
        return dict(self._banks)

    @property
    def has_banks(self) -> bool:
        return bool(self._banks) or bool(self._staged)

    def stage_restored(
        self, mapping: Dict[str, Tuple[Dict[str, Any], RRCollection]]
    ) -> None:
        """Install warm-start payloads, now or when the role is first used."""
        if self.shard_pool is not None:
            raise ConfigurationError(
                "sharded sessions cannot restore warm-start state; "
                "restore into a session with shards=None"
            )
        for role, (payload, pool) in mapping.items():
            bank = self._banks.get(role)
            if bank is not None:
                bank.restore_state(payload, pool)
            else:
                self._staged[role] = (payload, pool)


class QuerySession:
    """A graph bound to its RR banks, serving repeated queries.

    Successive :meth:`maximize` calls share the session's banks: a query
    whose sampling schedule stops within an already-materialised prefix
    generates nothing new.  With an integer ``seed`` the session is fully
    deterministic — and because every bank stream depends only on
    ``(seed, role)``, each query's seeds and counters are bit-identical to
    what a cold session with the same seed would return for that query
    alone (sequential generation; see ``docs/ARCHITECTURE.md``).

    ``shards`` backs every bank with a persistent
    :class:`~repro.rrsets.shardpool.ShardPool` — the one entry point to the
    sharded worker runtime.  Algorithms whose ``supports_shards`` is False
    are refused before any worker starts.
    """

    def __init__(
        self,
        graph: CSRGraph,
        algorithm: str = "hist+subsim",
        *,
        seed: Any = None,
        byte_cap: Optional[int] = None,
        shards: Optional[int] = None,
        **algorithm_kwargs: Any,
    ) -> None:
        self.graph = graph
        self.algorithm = algorithm
        self.algorithm_kwargs = dict(algorithm_kwargs)
        #: session-lifetime registry accumulating ``bank.*`` counters
        self.metrics = MetricsRegistry()
        self._shard_pool = None
        if shards is not None:
            from repro.core.registry import get_algorithm
            from repro.rrsets.shardpool import ShardPool

            # Refuse an algorithm the shard runtime cannot serve before a
            # single worker process starts.
            algo = get_algorithm(algorithm, graph, **self.algorithm_kwargs)
            if not algo.supports_shards:
                raise ConfigurationError(
                    f"{algo.name} does not support the sharded worker "
                    "runtime; build the session with shards=None"
                )
            # The session owns the worker runtime: one graph share, one set
            # of resident workers, reused by every query it serves.
            self._shard_pool = ShardPool(graph, int(shards), metrics=self.metrics)
        self.provider = BankProvider(
            graph,
            entropy=_session_entropy(seed),
            byte_cap=byte_cap,
            session_metrics=self.metrics,
            shard_pool=self._shard_pool,
        )
        self.queries_served = 0

    @property
    def entropy(self) -> int:
        return int(self.provider.entropy)

    @property
    def shard_pool(self):
        return self._shard_pool

    def close(self) -> None:
        """Release the shard workers (no-op for unsharded sessions)."""
        if self._shard_pool is not None:
            self._shard_pool.close()

    def __enter__(self) -> "QuerySession":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------------
    def maximize(
        self,
        k: int,
        eps: float = 0.1,
        delta: Optional[float] = None,
        **options: Any,
    ) -> Any:
        """Serve one query against the session's banks.

        ``options`` are forwarded unchanged to
        :meth:`~repro.algorithms.base.IMAlgorithm.run`, whose docstring is
        the one place they are documented and checked; the session sets
        ``seed`` and ``banks`` itself.  Run-level ``checkpoint``/``resume``
        are refused there: a session's durability story is :meth:`save` /
        :meth:`restore`, which persist the banks themselves.  The result's
        ``extras["session"]`` block reports this query's generated-vs-reused
        split.
        """
        # Imported lazily: the registry pulls in the algorithm modules,
        # which import the engine — resolving at call time breaks the cycle.
        from repro.core.registry import get_algorithm

        # Default the run registry to the session's so per-query
        # observability (coverage counters, rr_pool_bytes) survives the
        # query and shows up in serving /metrics.
        if options.get("metrics") is None:
            options["metrics"] = self.metrics
        algo = get_algorithm(self.algorithm, self.graph, **self.algorithm_kwargs)
        generated0 = self.metrics.value("bank.sets_generated")
        reused0 = self.metrics.value("bank.sets_reused")
        result = algo.run(
            k,
            eps=eps,
            delta=delta,
            seed=self._query_rng(),
            banks=self.provider,
            **options,
        )
        self.queries_served += 1
        result.extras["session"] = {
            "query_index": self.queries_served,
            "sets_generated": self.metrics.value("bank.sets_generated")
            - generated0,
            "sets_reused": self.metrics.value("bank.sets_reused") - reused0,
        }
        return result

    # ------------------------------------------------------------------
    # streaming graph updates
    # ------------------------------------------------------------------
    def apply_delta(
        self, delta: Any, *, graph_mutated: bool = False
    ) -> Dict[str, Any]:
        """Apply a :class:`~repro.graphs.dynamic.GraphDelta` and repair
        the warm banks in place instead of discarding them.

        The graph is mutated (unless the caller already did it —
        ``graph_mutated=True`` is the serving layer's path, where several
        sessions share one registry graph object and the delta must be
        applied exactly once), the delta is broadcast to the shard workers
        when the session is sharded, and every persistent bank resamples
        just the sets whose walks could have traversed a changed edge.
        The next :meth:`maximize` reuses the repaired banks; any saved
        session snapshot predating the delta is invalidated automatically
        (snapshots embed the graph fingerprint, which the delta advances).
        """
        touched = delta.touched_nodes()
        if not graph_mutated:
            self.graph.apply_delta(delta)
        if self._shard_pool is not None:
            self._shard_pool.apply_delta(delta)
        bank_stats: Dict[str, Any] = {}
        total = dirty = 0
        for role, bank in self.provider.persistent_banks().items():
            stats = bank.repair(touched)
            bank_stats[role] = stats
            total += stats["num_rr"]
            dirty += stats["num_dirty"]
        fraction = dirty / total if total else 0.0
        self.metrics.inc("generation.repaired", dirty)
        self.metrics.set_gauge("generation.dirty_fraction", fraction)
        return {
            "num_changes": int(delta.num_changes),
            "touched_nodes": int(len(touched)),
            "delta_epoch": int(self.graph.delta_epoch),
            "sets_total": int(total),
            "sets_repaired": int(dirty),
            "dirty_fraction": fraction,
            "banks": bank_stats,
        }

    def _query_rng(self) -> np.random.Generator:
        # The run-level RNG: RR generation never touches it in session mode
        # (banks own their streams); it seeds whatever non-bank randomness
        # an algorithm may have.  Distinct per query, deterministic in
        # (entropy, query index).
        seq = np.random.SeedSequence(
            self.provider.entropy, spawn_key=(0, self.queries_served)
        )
        return np.random.default_rng(seq)

    # ------------------------------------------------------------------
    # warm-start persistence
    # ------------------------------------------------------------------
    def save(self, path: Any) -> None:
        """Persist the reusable banks for a later process to warm-start."""
        if self._shard_pool is not None:
            raise ConfigurationError(
                "sharded sessions cannot be saved: the RR pools are "
                "worker-resident"
            )
        store: CheckpointStore = coerce_store(path)
        banks = self.provider.persistent_banks()
        meta = {
            "session_format": SESSION_FORMAT,
            "fingerprint": self.graph.fingerprint(),
            "algorithm": self.algorithm,
            "entropy": self.entropy,
            "queries_served": int(self.queries_served),
            "banks": {role: bank.state_dict() for role, bank in banks.items()},
            "metrics": self.metrics.own_state(),
        }
        store.save(meta, {role: bank.pool for role, bank in banks.items()})

    def restore(self, path: Any) -> "QuerySession":
        """Warm-start this session from a :meth:`save` payload."""
        store: CheckpointStore = coerce_store(path)
        meta, pools = store.load()
        if meta.get("session_format") != SESSION_FORMAT:
            raise CheckpointError(
                f"unsupported session format {meta.get('session_format')!r}"
            )
        fingerprint = self.graph.fingerprint()
        if meta.get("fingerprint") != fingerprint:
            raise CheckpointError(
                "session checkpoint belongs to a different graph "
                f"({meta.get('fingerprint')!r} != {fingerprint!r})"
            )
        if meta.get("algorithm") != self.algorithm:
            raise CheckpointError(
                f"session checkpoint was written by {meta.get('algorithm')!r}, "
                f"not {self.algorithm!r}"
            )
        entropy = int(meta["entropy"])
        if self.queries_served == 0 and not self.provider.has_banks:
            self.provider.entropy = entropy
        elif entropy != self.provider.entropy:
            raise CheckpointError(
                "session checkpoint entropy does not match this session's seed"
            )
        self.queries_served = int(meta["queries_served"])
        self.metrics.restore_own_state(meta.get("metrics", {}))
        self.provider.stage_restored(
            {
                role: (payload, pools[role])
                for role, payload in meta["banks"].items()
            }
        )
        return self
