"""Server configuration: one declarative dataclass.

The daemon's own settings live here, each default written once, so tests,
the CLI and the load-test harness construct servers the same way.  The
defaults are conservative: small worker pool, bounded queue, snapshots
after every query when a snapshot directory is configured.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.runtime.budget import Budget
from repro.utils.exceptions import ConfigurationError


@dataclass
class ServerConfig:
    """Declarative configuration for a :class:`~repro.serving.server.QueryServer`.

    Attributes
    ----------
    host, port:
        Bind address; ``port=0`` asks the OS for an ephemeral port (the
        bound port is readable from ``QueryServer.address`` after start).
    workers:
        Query worker threads.  Each worker serves one query at a time; a
        tenant's session is additionally serialized by its own lock, so
        bank eviction stays strictly between queries even under
        concurrency.
    max_pending:
        Dispatch-queue bound.  A request arriving while ``max_pending``
        queries are already waiting is shed with HTTP 429 instead of
        queued — the admission-control half of the resilience contract.
    algorithm, eps:
        Defaults for queries that do not specify their own.
    seed:
        Server entropy root.  Per-tenant session entropy is a pure
        function of ``(seed, tenant, graph)``, which is what makes
        restart recovery bit-identical.
    byte_cap:
        Per-session RR-bank byte cap (the cache tier); eviction runs
        strictly between queries.
    tenant_byte_caps:
        Per-tenant overrides of ``byte_cap`` keyed by tenant name.  A
        tenant listed here gets its own cap (which may be larger or
        smaller than the global default); everyone else falls back to
        ``byte_cap``.
    default_deadline:
        Deadline (seconds) applied to queries that do not send one;
        ``None`` means no implicit deadline.
    lifetime_budget:
        Server-lifetime spend caps (``max_edges_examined`` /
        ``max_rr_sets`` / ``max_rr_nodes`` axes).  Once cumulative query
        spend crosses a cap, new requests are shed with 429 — the Budget
        machinery driving admission control.
    query_retries:
        How many times a query whose worker crashed (an unexpected,
        non-cooperative failure) is retried on a recovered session before
        a degraded response is returned.  The backoff between retries is
        :class:`~repro.serving.retry.RetryPolicy`'s own, seeded by
        ``seed``; graph loads retry and trip their circuit breaker by
        :class:`~repro.serving.registry.GraphRegistry`'s defaults.
    snapshot_dir:
        Directory for per-tenant session snapshots; ``None`` disables
        crash recovery.
    snapshot_every:
        Snapshot a session after every N-th query it serves (1 = every
        query).
    """

    host: str = "127.0.0.1"
    port: int = 0
    workers: int = 2
    max_pending: int = 8
    algorithm: str = "subsim"
    eps: float = 0.3
    seed: int = 0
    byte_cap: Optional[int] = None
    tenant_byte_caps: Dict[str, int] = field(default_factory=dict)
    default_deadline: Optional[float] = None
    lifetime_budget: Budget = field(default_factory=Budget)
    query_retries: int = 1
    snapshot_dir: Optional[str] = None
    snapshot_every: int = 1

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ConfigurationError(f"workers must be >= 1, got {self.workers}")
        if self.max_pending < 1:
            raise ConfigurationError(
                f"max_pending must be >= 1, got {self.max_pending}"
            )
        if self.query_retries < 0:
            raise ConfigurationError(
                f"query_retries must be >= 0, got {self.query_retries}"
            )
        if self.snapshot_every < 1:
            raise ConfigurationError(
                f"snapshot_every must be >= 1, got {self.snapshot_every}"
            )
        if self.default_deadline is not None and self.default_deadline <= 0:
            raise ConfigurationError(
                f"default_deadline must be positive, got {self.default_deadline}"
            )
        if not 0.0 < self.eps < 1.0:
            raise ConfigurationError(f"eps must lie in (0, 1), got {self.eps}")
        for tenant, cap in self.tenant_byte_caps.items():
            if cap < 1:
                raise ConfigurationError(
                    f"tenant_byte_caps[{tenant!r}] must be >= 1, got {cap}"
                )
