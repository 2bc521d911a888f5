"""The resilient multi-tenant query daemon.

A :class:`QueryServer` binds a :class:`~repro.serving.registry.GraphRegistry`
to a worker pool and serves ``maximize(k, eps)`` queries over HTTP (stdlib
``ThreadingHTTPServer`` — one thread per connection for request parsing, a
fixed pool of query workers for the actual runs).  The request path is:

1. **handler** — parse + validate, then *admission control*: requests are
   shed with HTTP 429 when the lifetime
   :class:`~repro.runtime.budget.Budget` is spent or when the bounded
   dispatch queue is full.  Admitted jobs are enqueued and the handler
   waits on the job with a hard timeout derived from the request deadline.
2. **worker** — resolves the graph (lazy load behind retry + circuit
   breaker), leases the tenant's session (one lock per session, held for
   query + snapshot, so bank eviction stays strictly between queries), and
   runs the query with the deadline mapped to a wall-clock budget plus a
   cancellation token.  Deadline-blown queries degrade to
   ``status="partial"`` results whose certificates carry
   ``complete=False`` — the server never returns silently-truncated
   answers as complete.
3. **crash recovery** — an unexpected worker failure (an
   :class:`~repro.utils.exceptions.InjectedFault` mid-query, or any bug)
   invalidates the tenant session (its banks may be desynced), retries on
   a session rebuilt from the last good snapshot, and only after
   ``query_retries`` rebuilds answers with an explicit ``degraded``
   response.  Because session entropy is a pure function of
   ``(server seed, tenant, graph)``, the rebuilt session — and a whole
   restarted server — regenerates bit-identical RR banks.

Endpoints: ``POST /query``, ``GET /healthz``, ``GET /metrics`` (server +
per-session counters merged into one snapshot), ``GET /report`` (spend,
sessions, and the last canonical run report per tenant).
"""

from __future__ import annotations

import json
import queue
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Dict, List, Optional, Tuple, Union

from repro.core.certify import Certificate, partial_certificate
from repro.core.registry import get_algorithm
from repro.core.results import IMResult
from repro.graphs.csr import build_graph
from repro.observability.registry import MetricsRegistry
from repro.observability.report import build_run_report
from repro.runtime.budget import Budget
from repro.runtime.cancellation import CancellationToken
from repro.serving.admission import AdmissionController
from repro.serving.config import ServerConfig
from repro.serving.faults import ServerFaultInjector
from repro.serving.registry import GraphRegistry
from repro.serving.retry import CircuitOpenError, RetryPolicy
from repro.serving.sessions import SessionManager
from repro.utils.exceptions import (
    ConfigurationError,
    GraphFormatError,
    InjectedFault,
)

_SENTINEL = object()

#: seconds the handler waits past a deadline, then again after cancelling
#: the query, before it answers degraded on a stuck worker's behalf
DEADLINE_GRACE = 2.0


def _certificate_block(certificate: Certificate) -> Dict[str, Any]:
    return {
        "ratio": float(certificate.ratio),
        "lower_bound": float(certificate.lower_bound),
        "upper_bound": float(certificate.upper_bound),
        "complete": bool(certificate.complete),
    }


def _degraded_certificate() -> Dict[str, Any]:
    """The vacuous certificate of a query that produced no seeds."""
    return {
        "ratio": 0.0,
        "lower_bound": 0.0,
        "upper_bound": float("inf"),
        "complete": False,
    }


class QueryJob:
    """One admitted query travelling from handler to worker and back."""

    def __init__(
        self,
        tenant: str,
        graph_name: str,
        k: int,
        eps: float,
        deadline_seconds: Optional[float],
        metrics: MetricsRegistry,
        arrived: Optional[float] = None,
    ) -> None:
        self.tenant = tenant
        self.graph_name = graph_name
        self.k = k
        self.eps = eps
        self.deadline_seconds = deadline_seconds
        self.metrics = metrics
        self.arrived = time.monotonic() if arrived is None else arrived
        self.token = CancellationToken()
        self._done = threading.Event()
        self._lock = threading.Lock()
        self.status_code: int = 500
        self.response: Dict[str, Any] = {"error": "no response"}

    def remaining(self) -> Optional[float]:
        """Seconds left until the request deadline (None = no deadline).

        Measured from request *arrival*, so handler stalls (the slow-handler
        fault) and queue time both count against the deadline — the contract
        is end-to-end.
        """
        if self.deadline_seconds is None:
            return None
        return self.deadline_seconds - (time.monotonic() - self.arrived)

    def respond(
        self, status_code: int, response: Dict[str, Any], *counters: str
    ) -> bool:
        """First responder wins; later calls (an abandoned worker) no-op.

        The winner's outcome ``counters`` are bumped before the answer is
        released, so each query is counted once and a client never reads
        ``/metrics`` ahead of its own answer's count.
        """
        with self._lock:
            if self._done.is_set():
                return False
            for name in counters:
                self.metrics.inc(name)
            self.status_code = status_code
            self.response = response
            self._done.set()
            return True

    def wait(self, timeout: Optional[float]) -> bool:
        return self._done.wait(timeout)


class QueryServer:
    """Threaded daemon serving influence-maximization queries."""

    def __init__(
        self,
        config: Optional[ServerConfig] = None,
        registry: Optional[GraphRegistry] = None,
        faults: Optional[ServerFaultInjector] = None,
    ) -> None:
        self.config = config if config is not None else ServerConfig()
        # Refuse an unknown algorithm before a query is served. The name
        # lookup depends on the name alone, so a one-node graph stands in
        # for the graphs served later.
        get_algorithm(self.config.algorithm, build_graph(1, [], [], []))
        self.metrics = MetricsRegistry()
        self.faults = faults
        self.registry = (
            registry
            if registry is not None
            else GraphRegistry(retry=RetryPolicy(seed=self.config.seed))
        )
        #: per-query retries after a worker crash; the sleep is injectable
        self.query_retry = RetryPolicy(
            attempts=self.config.query_retries + 1,
            seed=self.config.seed,
            on_retry=lambda attempt, exc: self.metrics.inc("serving.retries"),
        )
        self.sessions = SessionManager(
            self.config, metrics=self.metrics, faults=faults
        )
        self.admission = AdmissionController(
            self.config.lifetime_budget, metrics=self.metrics
        )
        self._queue: "queue.Queue[Any]" = queue.Queue(
            maxsize=self.config.max_pending
        )
        self._workers: List[threading.Thread] = []
        self._http: Optional[ThreadingHTTPServer] = None
        self._http_thread: Optional[threading.Thread] = None
        self._reports: Dict[str, Dict[str, Any]] = {}
        self._reports_lock = threading.Lock()
        self._started = False

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    @property
    def address(self) -> Tuple[str, int]:
        """The bound ``(host, port)`` (resolves ``port=0`` after start)."""
        if self._http is None:
            raise RuntimeError("server is not started")
        return self._http.server_address[0], self._http.server_address[1]

    def start(self) -> "QueryServer":
        if self._started:
            return self
        server = self

        class Handler(BaseHTTPRequestHandler):
            def log_message(self, format: str, *args: Any) -> None:
                pass

            def _send(self, status_code: int, payload: Dict[str, Any]) -> None:
                body = json.dumps(payload).encode("utf-8")
                self.send_response(status_code)
                self.send_header("Content-Type", "application/json")
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)

            def do_GET(self) -> None:
                try:
                    status_code, payload = server.handle_get(self.path)
                except Exception as exc:  # noqa: BLE001 - last-resort guard
                    status_code, payload = 500, {"error": str(exc)}
                self._send(status_code, payload)

            def do_POST(self) -> None:
                length = int(self.headers.get("Content-Length") or 0)
                raw = self.rfile.read(length) if length else b""
                try:
                    status_code, payload = server.handle_post(self.path, raw)
                except InjectedFault as exc:
                    server.metrics.inc("serving.handler_crashes")
                    status_code, payload = 500, {
                        "error": "handler_crash",
                        "detail": str(exc),
                    }
                except Exception as exc:  # noqa: BLE001 - last-resort guard
                    status_code, payload = 500, {"error": str(exc)}
                self._send(status_code, payload)

        self._http = ThreadingHTTPServer(
            (self.config.host, self.config.port), Handler
        )
        self._http.daemon_threads = True
        self._http_thread = threading.Thread(
            target=self._http.serve_forever, name="serve-http", daemon=True
        )
        self._http_thread.start()
        for index in range(self.config.workers):
            worker = threading.Thread(
                target=self._worker_loop, name=f"serve-worker-{index}", daemon=True
            )
            worker.start()
            self._workers.append(worker)
        self._started = True
        return self

    def stop(self) -> None:
        """Graceful shutdown: stop intake, drain workers, snapshot sessions."""
        if not self._started:
            return
        if self._http is not None:
            self._http.shutdown()
            self._http.server_close()
        for _ in self._workers:
            self._queue.put(_SENTINEL)
        for worker in self._workers:
            worker.join(timeout=30.0)
        self._workers = []
        self.sessions.snapshot_all()
        self.sessions.close_all()
        self._started = False

    def __enter__(self) -> "QueryServer":
        return self.start()

    def __exit__(self, *exc_info: Any) -> None:
        self.stop()

    # ------------------------------------------------------------------
    # HTTP routing (also callable directly, without a socket, in tests)
    # ------------------------------------------------------------------
    def handle_get(self, path: str) -> Tuple[int, Dict[str, Any]]:
        if path == "/healthz":
            return 200, {
                "status": "ok",
                "graphs": self.registry.names(),
                "workers": self.config.workers,
                "pending": self._queue.qsize(),
            }
        if path == "/metrics":
            return 200, self.metrics_snapshot()
        if path == "/report":
            return 200, self.report()
        return 404, {"error": f"unknown path {path!r}"}

    def handle_post(self, path: str, raw: bytes) -> Tuple[int, Dict[str, Any]]:
        # Stamp arrival before anything can stall: the deadline contract is
        # end-to-end, so a slow handler burns the request's own deadline.
        arrived = time.monotonic()
        if path not in ("/query", "/delta"):
            return 404, {"error": f"unknown path {path!r}"}
        if self.faults is not None:
            # Slow-handler / handler-crash axis; fires before admission so a
            # delayed request burns its own deadline, not a worker's time.
            self.faults.on_request()
        try:
            payload = json.loads(raw.decode("utf-8")) if raw else {}
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            return 400, {"error": f"invalid JSON body: {exc}"}
        if not isinstance(payload, dict):
            return 400, {"error": "request body must be a JSON object"}
        if path == "/delta":
            return self.apply_delta_request(payload)
        return self.submit(payload, arrived=arrived)

    # ------------------------------------------------------------------
    # streaming graph updates
    # ------------------------------------------------------------------
    def apply_delta_request(
        self, payload: Dict[str, Any]
    ) -> Tuple[int, Dict[str, Any]]:
        """Apply one edge delta to a named graph and repair its warm banks.

        Runs in the handler thread (deltas are rare, administrative, and
        must not compete with queries for worker slots).  Every session
        entry serving the graph is locked — in sorted key order, so two
        concurrent deltas cannot deadlock — for the whole mutation, which
        keeps the graph change and each tenant's bank repair atomic with
        respect to in-flight queries.  The graph object is shared by all
        of a name's sessions, so it is mutated exactly once here and the
        per-session repairs run with ``graph_mutated=True``.
        """
        from repro.graphs.dynamic import GraphDelta

        graph_name = payload.get("graph")
        if not isinstance(graph_name, str) or not graph_name:
            return 400, {"error": "'graph' must be a non-empty string"}
        if graph_name not in self.registry:
            return 404, {"error": f"unknown graph {graph_name!r}"}
        spec = {
            key: payload[key]
            for key in ("inserts", "deletes", "updates")
            if key in payload
        }
        if not spec:
            return 400, {
                "error": "delta needs at least one of "
                "'inserts', 'deletes', 'updates'"
            }
        try:
            delta = GraphDelta.from_payload(spec)
        except (GraphFormatError, ConfigurationError, TypeError, ValueError) as exc:
            return 400, {"error": f"invalid delta: {exc}"}
        try:
            graph = self.registry.get(graph_name)
        except CircuitOpenError as exc:
            return 503, {"error": str(exc), "retry_after": exc.retry_after}
        except GraphFormatError as exc:
            self.metrics.inc("serving.graph_load_failures")
            return 500, {"error": "graph_load_failed", "detail": str(exc)}

        entries = sorted(
            (e for e in self.sessions.entries() if e.key[1] == graph_name),
            key=lambda e: e.key,
        )
        acquired = []
        try:
            for entry in entries:
                entry.lock.acquire()
                acquired.append(entry)
            try:
                touched = graph.apply_delta(delta)
            except GraphFormatError as exc:
                return 400, {"error": f"delta rejected: {exc}"}
            sessions_block: Dict[str, Any] = {}
            for entry in entries:
                stats = entry.session.apply_delta(delta, graph_mutated=True)
                sessions_block[entry.key[0]] = {
                    "sets_total": stats["sets_total"],
                    "sets_repaired": stats["sets_repaired"],
                    "dirty_fraction": stats["dirty_fraction"],
                }
        finally:
            for entry in reversed(acquired):
                entry.lock.release()
        self.metrics.inc("serving.deltas_applied")
        return 200, {
            "status": "ok",
            "graph": graph_name,
            "num_changes": int(delta.num_changes),
            "touched_nodes": int(len(touched)),
            "delta_epoch": int(graph.delta_epoch),
            "fingerprint": graph.fingerprint(),
            "sessions": sessions_block,
        }

    # ------------------------------------------------------------------
    # admission + dispatch
    # ------------------------------------------------------------------
    def submit(
        self, payload: Dict[str, Any], arrived: Optional[float] = None
    ) -> Tuple[int, Dict[str, Any]]:
        """Validate, admit, enqueue, and wait out one query request."""
        try:
            job = self._parse(payload, arrived=arrived)
        except ConfigurationError as exc:
            return 400, {"error": str(exc)}
        if job.graph_name not in self.registry:
            return 404, {"error": f"unknown graph {job.graph_name!r}"}

        blocked = self.admission.check()
        if blocked is not None:
            return 429, {
                "error": "shed",
                "reason": f"budget_exhausted:{blocked}",
                "spend": self.admission.spend(),
            }
        try:
            self._queue.put_nowait(job)
        except queue.Full:
            self.admission.record_queue_shed()
            return 429, {
                "error": "shed",
                "reason": "queue_full",
                "max_pending": self.config.max_pending,
            }
        self.metrics.inc("serving.admitted")
        self.metrics.set_gauge("serving.queue_depth", self._queue.qsize())

        remaining = job.remaining()
        if remaining is None:
            job.wait(None)
        elif not job.wait(max(remaining, 0.0) + DEADLINE_GRACE):
            # The worker is stuck past deadline + grace (non-cooperative
            # code). Cancel it and answer on its behalf; respond() makes a
            # late worker result a no-op.
            job.token.cancel("deadline")
            if not job.wait(DEADLINE_GRACE):
                self._respond_deadline(job)
        return job.status_code, job.response

    def _parse(
        self, payload: Dict[str, Any], arrived: Optional[float] = None
    ) -> QueryJob:
        for fixed in ("algorithm", "seed"):
            if fixed in payload:
                raise ConfigurationError(
                    f"{fixed!r} is fixed by the server configuration; "
                    "per-request overrides would break per-tenant session "
                    "determinism"
                )
        graph_name = payload.get("graph")
        if not isinstance(graph_name, str) or not graph_name:
            raise ConfigurationError("'graph' must be a non-empty string")
        k = payload.get("k")
        if not isinstance(k, int) or isinstance(k, bool) or k < 1:
            raise ConfigurationError(f"'k' must be a positive integer, got {k!r}")
        eps = payload.get("eps", self.config.eps)
        if not isinstance(eps, (int, float)) or not 0 < float(eps) < 1:
            raise ConfigurationError(f"'eps' must lie in (0, 1), got {eps!r}")
        tenant = payload.get("tenant", "default")
        if not isinstance(tenant, str) or not tenant:
            raise ConfigurationError("'tenant' must be a non-empty string")
        deadline = payload.get("deadline_seconds", self.config.default_deadline)
        if deadline is not None and (
            not isinstance(deadline, (int, float)) or float(deadline) <= 0
        ):
            raise ConfigurationError(
                f"'deadline_seconds' must be positive, got {deadline!r}"
            )
        return QueryJob(
            tenant=tenant,
            graph_name=graph_name,
            k=int(k),
            eps=float(eps),
            deadline_seconds=None if deadline is None else float(deadline),
            metrics=self.metrics,
            arrived=arrived,
        )

    # ------------------------------------------------------------------
    # workers
    # ------------------------------------------------------------------
    def _worker_loop(self) -> None:
        while True:
            job = self._queue.get()
            try:
                if job is _SENTINEL:
                    return
                self.metrics.set_gauge("serving.queue_depth", self._queue.qsize())
                try:
                    self._execute(job)
                except Exception as exc:  # noqa: BLE001 - workers never die
                    job.respond(
                        500,
                        {"error": "internal error", "detail": str(exc)},
                        "serving.degraded",
                    )
            finally:
                self._queue.task_done()

    def _execute(self, job: QueryJob) -> None:
        try:
            graph = self.registry.get(job.graph_name)
        except CircuitOpenError as exc:
            job.respond(
                503, {"error": str(exc), "retry_after": exc.retry_after}
            )
            return
        except GraphFormatError as exc:
            self.metrics.inc("serving.graph_load_failures")
            job.respond(
                500,
                {
                    "error": "graph_load_failed",
                    "detail": str(exc),
                    "attempts": getattr(exc, "attempts", None),
                },
            )
            return

        def attempt() -> Union[None, ConfigurationError, Tuple[Any, IMResult]]:
            if self.faults is not None:
                try:
                    self.faults.on_worker()
                except InjectedFault:
                    # Worker died between dequeue and execution: nothing
                    # touched the session, but the job still gets retried.
                    self.metrics.inc("serving.worker_crashes")
                    raise
            remaining = job.remaining()
            if remaining is not None and remaining <= 0:
                return None
            try:
                with self.sessions.lease(
                    job.tenant, job.graph_name, graph
                ) as session:
                    try:
                        result = session.maximize(
                            job.k,
                            eps=job.eps,
                            budget=(
                                Budget(wall_clock_seconds=remaining)
                                if remaining is not None
                                else None
                            ),
                            cancel=job.token,
                            fault_injector=self.faults,
                        )
                    except ConfigurationError as exc:
                        # run() refused the query before touching a bank:
                        # a bad request, not a crash, so the session stays
                        # warm and nothing is retried.
                        return exc
            except Exception:
                # InjectedFault or a genuine bug escaped the run: the
                # session's banks may be desynced, so drop the session and
                # retry against one rebuilt from the last good snapshot.
                self.metrics.inc("serving.worker_crashes")
                self.sessions.invalidate(job.tenant, job.graph_name)
                raise
            return session, result

        try:
            outcome = self.query_retry.call(attempt)
        except Exception as exc:  # noqa: BLE001 - crash containment
            self._respond_degraded(
                job,
                "worker_crash",
                detail=str(exc),
                retries=exc.attempts - 1,  # type: ignore[attr-defined]
            )
            return
        if outcome is None:
            self._respond_deadline(job)
            return
        if isinstance(outcome, ConfigurationError):
            job.respond(400, {"error": str(outcome)})
            return
        self._respond_result(job, graph, *outcome)

    def _respond_deadline(self, job: QueryJob) -> None:
        self._respond_degraded(
            job, "deadline_exceeded", "serving.deadline_exceeded"
        )

    def _respond_degraded(
        self, job: QueryJob, stop_reason: str, *counters: str, **extra: Any
    ) -> None:
        """Answer 200 ``degraded``: no seeds and a vacuous certificate."""
        job.respond(
            200,
            {
                "status": "degraded",
                "stop_reason": stop_reason,
                **extra,
                "tenant": job.tenant,
                "graph": job.graph_name,
                "k": job.k,
                "seeds": [],
                "certificate": _degraded_certificate(),
            },
            "serving.degraded",
            *counters,
        )

    def _respond_result(
        self, job: QueryJob, graph: Any, session: Any, result: IMResult
    ) -> None:
        self.admission.record_spend(result)
        certificate = partial_certificate(result)
        if not result.is_partial:
            counters: Tuple[str, ...] = ("serving.completed",)
        elif result.stop_reason in ("deadline", "cancelled"):
            counters = ("serving.partial", "serving.deadline_exceeded")
        else:
            counters = ("serving.partial",)
        report = build_run_report(
            result,
            graph,
            seed=session.entropy,
            config={"tenant": job.tenant, "graph_name": job.graph_name},
        )
        with self._reports_lock:
            self._reports[f"{job.tenant}/{job.graph_name}"] = report.canonical()
        payload = {
            "status": result.status,
            "stop_reason": result.stop_reason,
            "tenant": job.tenant,
            "graph": job.graph_name,
            "algorithm": result.algorithm,
            "k": result.k,
            "eps": result.eps,
            "seeds": [int(s) for s in result.seeds],
            "num_rr_sets": int(result.num_rr_sets),
            "edges_examined": int(result.edges_examined),
            "runtime_seconds": float(result.runtime_seconds),
            "certificate": _certificate_block(certificate),
            "session": result.extras.get("session", {}),
        }
        job.respond(200, payload, *counters)

    # ------------------------------------------------------------------
    # observability endpoints
    # ------------------------------------------------------------------
    def metrics_snapshot(self) -> Dict[str, Any]:
        """Server counters merged with every live session's registry.

        Built on a *fresh* registry per call, so repeated reads never
        double-count (merging is commutative addition).
        """
        merged = MetricsRegistry()
        merged.merge_snapshot(self.metrics.snapshot())
        for entry in self.sessions.entries():
            merged.merge_snapshot(entry.session.metrics.snapshot())
        return merged.snapshot()

    def report(self) -> Dict[str, Any]:
        with self._reports_lock:
            reports = dict(self._reports)
        return {
            "server": {
                "algorithm": self.config.algorithm,
                "workers": self.config.workers,
                "max_pending": self.config.max_pending,
                "graphs": self.registry.names(),
                "lifetime_budget": self.config.lifetime_budget.as_dict(),
            },
            "spend": self.admission.spend(),
            "sessions": self.sessions.describe(),
            "reports": reports,
        }
