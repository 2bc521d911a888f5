"""Resilient multi-tenant query serving over warm RR banks.

The serving layer turns :class:`~repro.engine.session.QuerySession` into a
long-lived daemon: a named graph registry, per-tenant session ownership, a
worker pool for concurrent ``maximize(k, eps)`` dispatch — and, wrapped
around every request, the resilience contract the ROADMAP's "millions of
users" north star demands:

* **admission control** — a bounded dispatch queue plus lifetime
  :class:`~repro.runtime.budget.Budget` caps shed overload as HTTP 429
  instead of queueing unboundedly;
* **deadlines** — per-request deadlines cancel cooperatively through
  :class:`~repro.runtime.cancellation.CancellationToken` and return
  ``status="partial"`` results carrying a ``complete=False`` certificate
  instead of erroring;
* **retries + circuit breaking** — transient failures (graph loads, a
  crashed worker mid-query) are retried by one
  :class:`~repro.serving.retry.RetryPolicy` loop with seeded, jittered,
  capped backoff; persistent failures open a breaker that fails fast with
  a retry-after hint;
* **crash recovery** — sessions snapshot through
  :class:`~repro.runtime.checkpoint.CheckpointStore` after queries, so a
  restarted server resumes warm banks bit-identically; a truncated or
  corrupted snapshot is refused and the tenant cold-starts (never loads
  garbage).

See ``docs/ARCHITECTURE.md`` (Serving section) and the failure-modes table
in ``docs/ROBUSTNESS.md``.
"""

from repro.serving.admission import AdmissionController
from repro.serving.client import ServeClient
from repro.serving.config import ServerConfig
from repro.serving.faults import ServerFaultInjector
from repro.serving.registry import GraphRegistry
from repro.serving.retry import CircuitBreaker, CircuitOpenError, RetryPolicy
from repro.serving.server import QueryServer
from repro.serving.sessions import SessionManager, tenant_entropy

__all__ = [
    "AdmissionController",
    "CircuitBreaker",
    "CircuitOpenError",
    "GraphRegistry",
    "QueryServer",
    "RetryPolicy",
    "ServeClient",
    "ServerConfig",
    "ServerFaultInjector",
    "SessionManager",
    "tenant_entropy",
]
