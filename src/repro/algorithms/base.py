"""Shared machinery for IM algorithms: parameter handling and accounting."""

from __future__ import annotations

import math
import time
from typing import Optional, Type, Union

import numpy as np

from repro.core.results import IMResult
from repro.engine.session import BankProvider
from repro.graphs.csr import CSRGraph
from repro.observability.registry import MetricsRegistry
from repro.observability.trace import NULL_TRACER, PhaseTracer
from repro.rrsets.base import RRGenerator
from repro.rrsets.vanilla import VanillaICGenerator
from repro.runtime.budget import Budget
from repro.runtime.cancellation import CancellationToken
from repro.runtime.checkpoint import (
    CheckpointStore,
    coerce_store,
    counters_from_dict,
)
from repro.runtime.control import RunControl
from repro.runtime.faults import FaultInjector
from repro.utils.exceptions import (
    CheckpointError,
    ConfigurationError,
    ExecutionInterrupted,
)
from repro.utils.rng import SeedLike, as_generator


class IMAlgorithm:
    """Base class for influence-maximization algorithms.

    Subclasses implement :meth:`_select` and set :attr:`name`.  The public
    :meth:`run` validates parameters (``delta`` defaults to the customary
    ``1/n``), seeds the RNG, times the run, and folds the generator counters
    into the returned :class:`~repro.core.results.IMResult`.

    Every algorithm is an *interruptible* computation: ``run`` accepts a
    :class:`~repro.runtime.budget.Budget` and a
    :class:`~repro.runtime.cancellation.CancellationToken`, and when either
    fires mid-sampling the algorithm degrades to a ``status="partial"``
    result (best-so-far seeds, honest counters and bounds) instead of
    raising or hanging.  Algorithms with checkpoint support (HIST, OPIM-C
    and their generator variants) additionally persist round-boundary state
    to ``checkpoint`` and can ``resume`` a killed run bit-identically.
    """

    name = "base"
    #: set False for algorithms that do not generate RR sets (heuristics)
    uses_rr_sets = True
    #: set False for algorithms incompatible with the sharded worker
    #: runtime (cursor-style ``take()`` consumers, non-RR heuristics);
    #: ``QuerySession(shards=...)`` refuses them up front
    supports_shards = True

    def __init__(
        self,
        graph: CSRGraph,
        generator_cls: Type[RRGenerator] = VanillaICGenerator,
    ) -> None:
        if graph.n < 1:
            raise ConfigurationError("graph must contain at least one node")
        self.graph = graph
        self.generator_cls = generator_cls
        self._control: Optional[RunControl] = None
        self._banks: Optional[BankProvider] = None
        self._resume_state = None
        self._batch_size = 1

    # ------------------------------------------------------------------
    def run(
        self,
        k: int,
        eps: float = 0.1,
        delta: Optional[float] = None,
        seed: SeedLike = None,
        *,
        budget: Optional[Budget] = None,
        cancel: Optional[CancellationToken] = None,
        checkpoint: Union[None, str, CheckpointStore] = None,
        checkpoint_every: int = 1,
        resume: bool = False,
        fault_injector: Optional[FaultInjector] = None,
        batch_size: int = 1,
        metrics: Optional[MetricsRegistry] = None,
        trace: bool = False,
        banks: Optional[BankProvider] = None,
    ) -> IMResult:
        """Select ``k`` seeds with a ``(1 - 1/e - eps)`` guarantee w.p. ``1 - delta``.

        ``delta`` defaults to ``1/n``; ``seed`` accepts anything
        :func:`repro.utils.rng.as_generator` does.

        Runtime parameters (all keyword-only):

        * ``budget`` — resource caps; expiry yields a ``status="partial"``
          result instead of an exception.
        * ``cancel`` — cooperative cancellation token, same degradation.
        * ``checkpoint`` — path (or ready store) where round-boundary state
          is persisted every ``checkpoint_every`` rounds; cleared when the
          run completes.
        * ``resume`` — continue from the checkpoint if one exists (requires
          ``checkpoint``); the resumed run replays to a bit-identical final
          answer.
        * ``fault_injector`` — deterministic fault hooks for tests.
        * ``batch_size`` — RR-generation strategy: the default (1)
          replays the sequential per-set loop with its exact RNG schedule
          (bit-identical seeds, counters and checkpoints); ``batch_size >
          1`` enables the vectorized batched engine, which samples the
          identical RR-set distribution.  The kernel it runs is the
          generator's own (the registry name picks the generator).
        * ``metrics`` — a :class:`~repro.observability.registry
          .MetricsRegistry` that the run populates (counters, RR-size
          histogram, pool-memory gauge); its snapshot lands in
          ``result.extras["metrics"]``.
        * ``trace`` — enable structured phase tracing; the phase tree
          (wall time, counter deltas, pool memory per span) lands in
          ``result.extras["trace"]``.  Implies an internal registry when
          ``metrics`` is not supplied.
        * ``banks`` — a session :class:`~repro.engine.session.BankProvider`
          whose RR banks this run should draw from (set by
          :class:`~repro.engine.session.QuerySession`).  When omitted, a
          transient provider around the run's own RNG is built internally
          and the run replays the historical RNG schedule bit-identically.
          Incompatible with ``checkpoint``/``resume`` — session durability
          goes through ``QuerySession.save``.  The sharded worker
          runtime is reached only this way, through
          ``QuerySession(shards=...)``.
        """
        n = self.graph.n
        if not 1 <= k <= n:
            raise ConfigurationError(f"k must lie in [1, n={n}], got {k}")
        if eps <= 0 or eps >= 1:
            raise ConfigurationError(f"eps must lie in (0, 1), got {eps}")
        if delta is None:
            delta = 1.0 / n if n > 1 else 0.5
        if not 0 < delta < 1:
            raise ConfigurationError(f"delta must lie in (0, 1), got {delta}")

        if batch_size < 1:
            raise ConfigurationError(
                f"batch_size must be >= 1, got {batch_size}"
            )
        store = coerce_store(checkpoint, every=checkpoint_every)
        if banks is not None and (store is not None or resume):
            raise ConfigurationError(
                "run-level checkpoint/resume cannot be combined with a "
                "session bank provider; persist the session itself with "
                "QuerySession.save()"
            )
        if resume and store is None:
            raise ConfigurationError("resume=True requires a checkpoint path")
        run_metrics = metrics if metrics is not None else MetricsRegistry()
        tracer = PhaseTracer(run_metrics) if trace else None
        control = RunControl(
            budget=budget,
            token=cancel,
            faults=fault_injector,
            checkpoint=store,
            metrics=run_metrics,
            tracer=tracer,
        )
        self._control = control
        self._resume_state = None
        self._batch_size = int(batch_size)
        if resume and store.exists():
            meta, pools = store.load()
            self._validate_resume(meta, k, eps, delta)
            # Replay the killed run's pushed metrics (coverage counters,
            # RR-size histograms) so the resumed run's report is
            # bit-identical to an uninterrupted one; the runtime.* budget
            # tallies stay at zero — budgets are per-process.
            if "metrics" in meta:
                run_metrics.restore_own_state(
                    meta["metrics"], skip_prefixes=("runtime.",)
                )
            self._resume_state = (meta, pools)

        rng = as_generator(seed)
        if banks is not None:
            provider = banks
        else:
            provider = BankProvider.transient(self.graph, rng)
        provider.begin_query(control)
        self._banks = provider
        control.start()
        begin = time.perf_counter()
        try:
            with control.tracer.phase("run"):
                result = self._select(k, eps, delta, rng)
        except ExecutionInterrupted as exc:
            # Safety net: even an algorithm without bespoke degradation
            # honors the contract — no exception, no hang, an honest
            # (possibly empty) partial result.
            result = self._result_from(
                [],
                k,
                eps,
                delta,
                status="partial",
                stop_reason=getattr(exc, "reason", None) or str(exc),
            )
        finally:
            provider.end_query()
            self._banks = None
            self._resume_state = None
            self._control = None
            self._batch_size = 1
        result.runtime_seconds = time.perf_counter() - begin
        if control.active or control.checkpoint is not None:
            result.extras.setdefault("runtime", control.snapshot())
        if metrics is not None:
            result.extras.setdefault("metrics", run_metrics.snapshot())
        if tracer is not None:
            result.extras.setdefault("trace", tracer.to_dict())
        if store is not None and result.status == "complete":
            store.clear()
        return result

    # ------------------------------------------------------------------
    def _select(
        self, k: int, eps: float, delta: float, rng: np.random.Generator
    ) -> IMResult:
        raise NotImplementedError

    def _new_generator(self) -> RRGenerator:
        gen = self.generator_cls(self.graph)
        if self._control is not None:
            self._control.adopt_generator(gen)
        gen.batch_size = self._batch_size
        return gen

    def _bank(self, role: str, *, stop_mask=None, reusable: bool = True):
        """The RR bank serving ``role`` for the current run.

        Inside a default run this is a fresh single-run bank on the run's
        RNG (bit-identical to the pre-bank pools); inside a session it may
        be a warm bank whose prefix previous queries already generated.
        """
        return self._banks.get(
            role,
            self._new_generator,
            stop_mask=stop_mask,
            reusable=reusable,
            batch_size=self._batch_size,
        )

    def _check(self) -> None:
        """Poll cancellation/deadline from a non-RR sampling loop."""
        if self._control is not None:
            self._control.check()

    def _phase(self, name: str):
        """Span context for one algorithm phase (no-op when not tracing)."""
        if self._control is None:
            return NULL_TRACER.phase(name)
        return self._control.tracer.phase(name)

    @property
    def _metrics(self) -> Optional[MetricsRegistry]:
        """The run's registry, or ``None`` outside ``run()``."""
        return self._control.metrics if self._control is not None else None

    @property
    def _has_checkpoint(self) -> bool:
        """True when a round-checkpoint store is attached to this run."""
        return self._control is not None and self._control.checkpoint is not None

    # ------------------------------------------------------------------
    # checkpoint / resume plumbing
    # ------------------------------------------------------------------
    def _validate_resume(self, meta: dict, k: int, eps: float, delta: float) -> None:
        """Refuse to resume a checkpoint taken by a different query."""
        expected = {
            "algorithm": self.name,
            "n": self.graph.n,
            "k": k,
        }
        for key, want in expected.items():
            got = meta.get(key)
            if got != want:
                raise CheckpointError(
                    f"checkpoint {key}={got!r} does not match this run's {want!r}"
                )
        for key, want in (("eps", eps), ("delta", delta)):
            got = meta.get(key)
            if got is None or abs(float(got) - want) > 1e-12:
                raise CheckpointError(
                    f"checkpoint {key}={got!r} does not match this run's {want}"
                )

    def _take_resume_state(self):
        """Consume the pending resume state (one-shot)."""
        state, self._resume_state = self._resume_state, None
        return state

    def _query_meta(self, k: int, eps: float, delta: float) -> dict:
        return {
            "algorithm": self.name,
            "n": self.graph.n,
            "k": k,
            "eps": eps,
            "delta": delta,
        }

    def _round_checkpoint(
        self, rng: np.random.Generator, meta: dict, pools: dict
    ) -> bool:
        """Persist round-boundary state (RNG snapshot taken at call time)."""
        control = self._control
        if control is None or control.checkpoint is None:
            return False

        def builder():
            payload = dict(meta)
            payload["rng_state"] = rng.bit_generator.state
            payload["metrics"] = control.metrics.own_state()
            return payload, pools

        return control.maybe_checkpoint(builder)

    @staticmethod
    def _restore_generator(gen: RRGenerator, counters_payload: dict) -> None:
        """Load checkpointed counters into a fresh generator."""
        gen.counters = counters_from_dict(counters_payload)
        gen._reported_edges = gen.counters.edges_examined

    @staticmethod
    def _restore_rng(rng: np.random.Generator, state) -> None:
        try:
            rng.bit_generator.state = state
        except (TypeError, ValueError, KeyError) as exc:
            raise CheckpointError(
                f"cannot restore RNG state from checkpoint: {exc}"
            ) from exc

    # ------------------------------------------------------------------
    def _result_from(
        self,
        seeds,
        k: int,
        eps: float,
        delta: float,
        generators=(),
        status: str = "complete",
        stop_reason: Optional[str] = None,
        **extras,
    ) -> IMResult:
        """Assemble an IMResult, merging counters from ``generators``."""
        num_sets = sum(g.counters.sets_generated for g in generators)
        total_nodes = sum(g.counters.nodes_added for g in generators)
        return IMResult(
            algorithm=self.name,
            seeds=list(seeds),
            k=k,
            eps=eps,
            delta=delta,
            runtime_seconds=0.0,  # filled in by run()
            num_rr_sets=num_sets,
            average_rr_size=(total_nodes / num_sets) if num_sets else 0.0,
            edges_examined=sum(g.counters.edges_examined for g in generators),
            rng_draws=sum(g.counters.rng_draws for g in generators),
            status=status,
            stop_reason=stop_reason,
            extras=extras,
        )

    def _partial_result(
        self,
        seeds,
        k: int,
        eps: float,
        delta: float,
        generators=(),
        reason: Optional[str] = None,
        **extras,
    ) -> IMResult:
        """Best-so-far result after a budget expiry or cancellation."""
        if reason is None and self._control is not None:
            reason = self._control.stop_reason
        return self._result_from(
            list(seeds)[:k],
            k,
            eps,
            delta,
            generators=generators,
            status="partial",
            stop_reason=reason or "interrupted",
            **extras,
        )

    @staticmethod
    def _doubling_iterations(theta0: int, theta_max: int) -> int:
        """Number of doubling rounds from ``theta0`` to ``theta_max``."""
        if theta_max <= theta0:
            return 1
        return int(math.ceil(math.log2(theta_max / theta0)))
