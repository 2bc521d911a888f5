"""HIST — Hit-and-Stop (paper Section 4, Algorithms 4, 7 and 8).

In high-influence networks the bottleneck of every RR-based IM algorithm is
the *size* of each RR set, not their number.  HIST splits the budget:

1. :class:`SentinelSetPhase` (Algorithm 7) cheaply finds a small sentinel
   set ``S_b*`` with the loose guarantee
   ``I(S_b*) >= (1 - (1-1/k)^b - eps1) * OPT_k``: it runs the revised greedy
   (Algorithm 6, out-degree tie-break) on a doubling pool ``R1``, picks the
   largest prefix ``b`` whose *estimated* Eq.-1 lower bound clears the
   prefix-specific threshold, then verifies that prefix on an independent
   sentinel-stopped pool ``R2`` (grown up to ``4 |R1|`` before giving up on
   the current candidate, per lines 13–15).
2. :class:`IMSentinelPhase` (Algorithm 8) selects the remaining ``k - b``
   seeds with an OPIM-C-style loop in which **every RR set stops as soon as
   it hits a sentinel** (Algorithm 5), shrinking average RR size by up to
   the paper's 700x.  RR sets already hit by the sentinels are treated as
   covered before greedy runs (line 5).

Budget split (Algorithm 4): ``eps1 = eps2 = eps/2`` and ``delta1 = delta2 =
delta/2``, giving ``(1 - 1/e - eps)`` with probability ``1 - delta`` overall.

Both phases are interruptible: a budget expiry or cancellation surfaces as
an *interrupted* phase result carrying best-so-far seeds, which
:class:`HIST` turns into a ``status="partial"`` IMResult.  HIST also
checkpoints at two granularities — once at the sentinel/IM phase boundary
and once per IM-Sentinel doubling round — and resumes a killed run to a
bit-identical final answer (round-boundary RNG snapshots plus pool and
counter state make the replay an exact prefix extension).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Type

import numpy as np

from repro.algorithms.base import IMAlgorithm
from repro.bounds.opim import influence_lower_bound, influence_upper_bound
from repro.bounds.thresholds import theta_max_im_sentinel, theta_max_sentinel
from repro.core.results import IMResult
from repro.coverage.greedy import max_coverage_greedy
from repro.engine.schedule import (
    DoublingResume,
    SamplingSchedule,
    fallback_seeds,
    run_doubling,
)
from repro.engine.session import BankProvider
from repro.graphs.csr import CSRGraph
from repro.rrsets.base import RRGenerator
from repro.rrsets.vanilla import VanillaICGenerator
from repro.runtime.checkpoint import RestoredCounters, counters_to_dict
from repro.runtime.control import RunControl
from repro.utils.exceptions import ConfigurationError, ExecutionInterrupted
from repro.utils.timing import Timer


def _generator_factory(
    graph: CSRGraph,
    generator_cls: Type[RRGenerator],
    control: Optional[RunControl],
) -> Callable[[], RRGenerator]:
    """A phase's bank factory: a fresh generator adopted into ``control``
    (which carries the run's batch size)."""

    def make() -> RRGenerator:
        gen = generator_cls(graph)
        if control is not None:
            control.adopt_generator(gen)
        return gen

    return make


@dataclass
class SentinelResult:
    """Outcome of the sentinel-selection phase."""

    seeds: List[int]
    b: int
    selection_rr_sets: int        # |R1| at termination
    total_rr_sets: int            # R1 + all R2 validation sets
    verified: bool                # True if the Eq.-1 check passed in-loop
    iterations: int
    generators: tuple = field(repr=False, default=())
    #: the phase stopped early (budget / cancellation) — ``fallback_seeds``
    #: then holds the best-so-far greedy prefix for partial degradation
    interrupted: bool = False
    stop_reason: Optional[str] = None
    fallback_seeds: List[int] = field(default_factory=list)

    def state_dict(self) -> dict:
        """JSON-able snapshot for the phase-boundary checkpoint."""
        return {
            "seeds": [int(s) for s in self.seeds],
            "b": int(self.b),
            "selection_rr_sets": int(self.selection_rr_sets),
            "total_rr_sets": int(self.total_rr_sets),
            "verified": bool(self.verified),
            "iterations": int(self.iterations),
            "counters": [counters_to_dict(g.counters) for g in self.generators],
        }

    @classmethod
    def from_state_dict(cls, payload: dict) -> "SentinelResult":
        return cls(
            seeds=[int(s) for s in payload["seeds"]],
            b=int(payload["b"]),
            selection_rr_sets=int(payload["selection_rr_sets"]),
            total_rr_sets=int(payload["total_rr_sets"]),
            verified=bool(payload["verified"]),
            iterations=int(payload["iterations"]),
            generators=tuple(RestoredCounters(c) for c in payload["counters"]),
        )


class SentinelSetPhase:
    """Algorithm 7: find a size-``b`` sentinel set with a loose guarantee."""

    def __init__(
        self,
        graph: CSRGraph,
        generator_cls: Type[RRGenerator] = VanillaICGenerator,
        use_out_degree_tie_break: bool = True,
    ) -> None:
        self.graph = graph
        self.generator_cls = generator_cls
        self.use_out_degree_tie_break = use_out_degree_tie_break

    def run(
        self,
        k: int,
        eps1: float,
        delta1: float,
        rng: np.random.Generator,
        max_b: Optional[int] = None,
        control: Optional[RunControl] = None,
        banks: Optional[BankProvider] = None,
    ) -> SentinelResult:
        """Execute the phase.  ``max_b`` optionally caps the sentinel size
        (used by the fixed-``b`` ablation); the automatic choice of line 8
        applies within ``[1, max_b]``.
        """
        graph = self.graph
        n = graph.n
        out_deg = graph.out_degree() if self.use_out_degree_tie_break else None
        if max_b is None:
            max_b = k
        if not 1 <= max_b <= k:
            raise ConfigurationError(f"max_b must lie in [1, k={k}], got {max_b}")

        theta0 = max(1, int(math.ceil(3.0 * math.log(1.0 / delta1))))
        theta_max = theta_max_sentinel(n, k, eps1, delta1)
        i_max = max(1, int(math.ceil(math.log2(max(theta_max / theta0, 2.0)))))
        delta_u = delta1 / (3.0 * i_max)
        delta_l = delta1 / (6.0 * i_max)
        x = 1.0 - 1.0 / k

        provider = (
            banks if banks is not None else BankProvider.transient(graph, rng)
        )
        make_gen = _generator_factory(graph, self.generator_cls, control)
        # R1 holds plain (unmasked) RR sets — reusable across session
        # queries; R2 is stop-masked per candidate and rebuilt every query.
        bank1 = provider.get("sentinel.r1", make_gen)
        bank2 = provider.get("sentinel.r2", make_gen, reusable=False)
        metrics = control.metrics if control is not None else None

        candidate_b = 0
        candidate_seeds: List[int] = []
        validation_sets = 0
        iterations = 0
        sel_sets = 0
        verified = False
        greedy = None

        try:
            theta = theta0
            view1 = bank1.ensure(theta)
            for i in range(1, i_max + 1):
                iterations = i
                sel_sets = view1.num_rr
                greedy = max_coverage_greedy(
                    view1, select=k, topk=k, out_degree=out_deg,
                    metrics=metrics,
                )
                upper = influence_upper_bound(
                    greedy.upper_bound_coverage, view1.num_rr, n, delta_u
                )
                # Line 8: the largest prefix whose *estimated* lower bound
                # (Eq. 1 applied to R1 as if it were independent) clears the
                # prefix threshold 1 - x^a - eps1.
                b = 0
                for a in range(1, max_b + 1):
                    est_lower = influence_lower_bound(
                        greedy.coverage_history[a], view1.num_rr, n, delta_l
                    )
                    if upper > 0 and est_lower / upper > 1.0 - x ** a - eps1:
                        b = a
                if b >= 1:
                    seeds_b = greedy.seeds[:b]
                    candidate_b, candidate_seeds = b, seeds_b
                    stop_mask = np.zeros(n, dtype=bool)
                    stop_mask[seeds_b] = True
                    threshold = 1.0 - x ** b - eps1
                    # Lines 9-15: verify on an independent sentinel-stopped
                    # pool, growing it once to 4 |R1| before giving up on
                    # the candidate.  Each candidate gets a fresh pool on
                    # the same advancing stream.
                    bank2.reset_pool()
                    bank2.ensure(view1.num_rr, stop_mask=stop_mask)
                    for _ in range(2):
                        lower = influence_lower_bound(
                            bank2.pool.coverage(seeds_b),
                            bank2.pool.num_rr, n, delta_l,
                        )
                        if upper > 0 and lower / upper > threshold:
                            verified = True
                            break
                        if bank2.pool.num_rr < 4 * view1.num_rr:
                            bank2.ensure(4 * view1.num_rr, stop_mask=stop_mask)
                    validation_sets += bank2.pool.num_rr
                    if verified:
                        break
                if i < i_max:
                    theta *= 2
                    view1 = bank1.ensure(theta)
        except ExecutionInterrupted as exc:
            fallback = fallback_seeds(
                bank1.pool, k, last=greedy, topk=k, out_degree=out_deg
            )
            return SentinelResult(
                seeds=candidate_seeds,
                b=candidate_b,
                selection_rr_sets=bank1.pool.num_rr,
                total_rr_sets=bank1.pool.num_rr + validation_sets,
                verified=verified,
                iterations=iterations,
                generators=(bank1, bank2),
                interrupted=True,
                stop_reason=exc.reason,
                fallback_seeds=fallback,
            )

        if candidate_b == 0:
            # Degenerate fallback: even the loosest prefix never cleared the
            # estimated test.  theta_max samples still certify any prefix
            # (Lemma 6), so return the strongest single sentinel.
            assert greedy is not None
            candidate_b, candidate_seeds = 1, greedy.seeds[:1]

        return SentinelResult(
            seeds=candidate_seeds,
            b=candidate_b,
            selection_rr_sets=sel_sets,
            total_rr_sets=sel_sets + validation_sets,
            verified=verified,
            iterations=iterations,
            generators=(bank1, bank2),
        )


@dataclass
class IMSentinelResult:
    """Outcome of the IM-Sentinel phase."""

    seeds: List[int]
    lower_bound: float
    upper_bound: float
    num_rr_sets: int
    average_rr_size: float
    iterations: int
    generators: tuple = field(repr=False, default=())
    interrupted: bool = False
    stop_reason: Optional[str] = None


class IMSentinelPhase:
    """Algorithm 8: select the remaining seeds with sentinel-stopped RR sets."""

    def __init__(
        self,
        graph: CSRGraph,
        generator_cls: Type[RRGenerator] = VanillaICGenerator,
        use_out_degree_tie_break: bool = True,
    ) -> None:
        self.graph = graph
        self.generator_cls = generator_cls
        self.use_out_degree_tie_break = use_out_degree_tie_break

    def run(
        self,
        k: int,
        eps: float,
        sentinel_seeds: List[int],
        eps2: float,
        delta2: float,
        rng: np.random.Generator,
        control: Optional[RunControl] = None,
        resume=None,
        checkpoint: Optional[Callable[[dict, dict], None]] = None,
        banks: Optional[BankProvider] = None,
        phase=None,
    ) -> IMSentinelResult:
        """Execute the phase.

        ``resume`` is a ``(meta, pools)`` pair from a round checkpoint taken
        by ``checkpoint`` (a callback receiving round state + pools); both
        are wired by :class:`HIST`, as is ``phase`` (trace-span factory for
        the per-round spans).
        """
        graph = self.graph
        n = graph.n
        b = len(sentinel_seeds)
        if not 1 <= b < k:
            raise ConfigurationError(
                f"IM-Sentinel needs 1 <= b < k, got b={b}, k={k}"
            )
        out_deg = graph.out_degree() if self.use_out_degree_tie_break else None
        stop_mask = np.zeros(n, dtype=bool)
        stop_mask[sentinel_seeds] = True
        target = 1.0 - 1.0 / math.e - eps

        theta0 = max(1, int(math.ceil(3.0 * math.log(1.0 / delta2))))
        theta_max = theta_max_im_sentinel(n, k, b, eps2, delta2)
        i_max = max(1, int(math.ceil(math.log2(max(theta_max / theta0, 2.0)))))
        delta_iter = delta2 / (3.0 * i_max)

        provider = (
            banks if banks is not None else BankProvider.transient(graph, rng)
        )
        make_gen = _generator_factory(graph, self.generator_cls, control)
        # Sentinel-stopped sets are specific to this query's sentinel set,
        # so neither pool is reusable across session queries.
        bank1 = provider.get(
            "im.r1", make_gen, stop_mask=stop_mask, reusable=False
        )
        bank2 = provider.get(
            "im.r2", make_gen, stop_mask=stop_mask, reusable=False
        )
        metrics = control.metrics if control is not None else None
        schedule = SamplingSchedule(theta0, max(theta0, theta_max), i_max)

        doubling_resume = None
        if resume is not None:
            meta, pools = resume
            bank1.adopt(pools["pool1"], meta["counters"][0])
            bank2.adopt(pools["pool2"], meta["counters"][1])
            IMAlgorithm._restore_rng(rng, meta["rng_state"])
            doubling_resume = DoublingResume(
                int(meta["round"]),
                [int(s) for s in meta["seeds"]],
                float(meta["lower"]),
                float(meta["upper"]),
            )

        def select(pool):
            # Line 5: RR sets already hit by a sentinel carry no marginal
            # coverage; mark them covered before greedy runs.
            greedy = max_coverage_greedy(
                pool,
                select=k - b,
                topk=k,
                out_degree=out_deg,
                initial_covered=pool.covered_mask(sentinel_seeds),
                excluded=sentinel_seeds,
                metrics=metrics,
            )
            upper = influence_upper_bound(
                greedy.upper_bound_coverage, pool.num_rr, n, delta_iter
            )
            return list(sentinel_seeds) + greedy.seeds, upper

        def validate(pool, seeds):
            return influence_lower_bound(
                pool.coverage(seeds), pool.num_rr, n, delta_iter
            )

        checkpointer = None
        if checkpoint is not None:

            def checkpointer(i, seeds, lower, upper):
                checkpoint(
                    {
                        "round": i,
                        "seeds": [int(s) for s in seeds],
                        "lower": lower,
                        "upper": upper,
                        "counters": [
                            counters_to_dict(bank1.generator.counters),
                            counters_to_dict(bank2.generator.counters),
                        ],
                    },
                    {"pool1": bank1.pool, "pool2": bank2.pool},
                )

        outcome = run_doubling(
            schedule,
            bank1,
            bank2,
            select=select,
            validate=validate,
            target=target,
            initial_seeds=sentinel_seeds,
            resume=doubling_resume,
            checkpointer=checkpointer,
            phase=phase,
        )
        if outcome.interrupted:
            return self._interrupted(
                sentinel_seeds, bank1.pool, out_deg, k, b,
                outcome.seeds, outcome.lower, outcome.upper,
                outcome.rounds, (bank1, bank2), outcome.stop_reason,
            )

        sets = sum(g.counters.sets_generated for g in (bank1, bank2))
        nodes = sum(g.counters.nodes_added for g in (bank1, bank2))
        return IMSentinelResult(
            seeds=outcome.seeds,
            lower_bound=outcome.lower,
            upper_bound=outcome.upper,
            num_rr_sets=sets,
            average_rr_size=(nodes / sets) if sets else 0.0,
            iterations=outcome.rounds,
            generators=(bank1, bank2),
        )

    def _interrupted(
        self, sentinel_seeds, pool1, out_deg, k, b,
        seeds, lower, upper, iterations, generators, reason,
    ) -> IMSentinelResult:
        """Best-so-far seeds after an interrupt inside the phase."""
        if len(seeds) <= b:
            seeds = list(sentinel_seeds) + fallback_seeds(
                pool1,
                k - b,
                topk=k,
                out_degree=out_deg,
                initial_covered=pool1.covered_mask(sentinel_seeds),
                excluded=sentinel_seeds,
            )
        gens = tuple(generators)
        sets = sum(g.counters.sets_generated for g in gens)
        nodes = sum(g.counters.nodes_added for g in gens)
        return IMSentinelResult(
            seeds=seeds,
            lower_bound=lower,
            upper_bound=upper,
            num_rr_sets=sets,
            average_rr_size=(nodes / sets) if sets else 0.0,
            iterations=iterations,
            generators=gens,
            interrupted=True,
            stop_reason=reason,
        )


class HIST(IMAlgorithm):
    """Algorithm 4: sentinel selection followed by IM-Sentinel.

    ``generator_cls`` picks the RR engine: vanilla (paper's "HIST") or
    :class:`~repro.rrsets.subsim.SubsimICGenerator` ("HIST+SUBSIM").
    ``fixed_b`` forces a sentinel size (ablation); ``use_out_degree_tie_break
    = False`` disables Algorithm 6's revision (ablation).
    """

    name = "hist"

    def __init__(
        self,
        graph: CSRGraph,
        generator_cls: Type[RRGenerator] = VanillaICGenerator,
        fixed_b: Optional[int] = None,
        use_out_degree_tie_break: bool = True,
    ) -> None:
        super().__init__(graph, generator_cls)
        if generator_cls is not VanillaICGenerator:
            self.name = f"hist+{generator_cls.name}"
        self.fixed_b = fixed_b
        self.use_out_degree_tie_break = use_out_degree_tie_break

    def _select(
        self, k: int, eps: float, delta: float, rng: np.random.Generator
    ) -> IMResult:
        eps1 = eps2 = eps / 2.0
        delta1 = delta2 = delta / 2.0
        if self.fixed_b is not None and not 1 <= self.fixed_b <= k:
            raise ConfigurationError(
                f"fixed_b must lie in [1, k={k}], got {self.fixed_b}"
            )

        phases = {}
        im_resume = None
        resumed = self._take_resume_state()
        if resumed is not None:
            meta, pools = resumed
            sentinel_state = meta["sentinel"]
            sentinel = SentinelResult.from_state_dict(sentinel_state)
            # The killed run's sentinel wall-clock is part of its record,
            # not of this process; keep the phase key with the saved value.
            phases["sentinel"] = float(sentinel_state.get("elapsed", 0.0))
            if self._control is not None:
                # The finished phase's generators survive only as counter
                # shims; registering them keeps ``generation.*`` totals (and
                # thus RunReports) identical to the uninterrupted run.
                for shim in sentinel.generators:
                    self._control.metrics.attach_source(shim)
            if meta["phase"] == "sentinel":
                self._restore_rng(rng, meta["rng_state"])
            else:
                im_resume = (meta, pools)
        else:
            with Timer() as t_sentinel, self._phase("sentinel"):
                sentinel = SentinelSetPhase(
                    self.graph, self.generator_cls, self.use_out_degree_tie_break
                ).run(k, eps1, delta1, rng, max_b=self.fixed_b,
                      control=self._control, banks=self._banks)
            phases["sentinel"] = t_sentinel.elapsed
            if sentinel.interrupted:
                result = self._partial_result(
                    sentinel.fallback_seeds, k, eps, delta,
                    generators=sentinel.generators,
                    reason=sentinel.stop_reason,
                    b=sentinel.b,
                    sentinel_rr_sets=sentinel.total_rr_sets,
                    sentinel_selection_rr_sets=sentinel.selection_rr_sets,
                    sentinel_verified=sentinel.verified,
                )
                result.phases = phases
                return result
            sentinel_state = sentinel.state_dict()
            sentinel_state["elapsed"] = phases["sentinel"]
            boundary_meta = self._query_meta(k, eps, delta)
            boundary_meta.update(phase="sentinel", sentinel=sentinel_state)
            self._round_checkpoint(rng, boundary_meta, {})

        generators = list(sentinel.generators)
        extras = {
            "b": sentinel.b,
            "sentinel_rr_sets": sentinel.total_rr_sets,
            "sentinel_selection_rr_sets": sentinel.selection_rr_sets,
            "sentinel_verified": sentinel.verified,
        }

        if sentinel.b >= k:
            result = self._result_from(
                sentinel.seeds, k, eps, delta, generators=generators, **extras
            )
            result.phases = phases
            return result

        def im_checkpoint(round_state: dict, pools: dict) -> None:
            meta = self._query_meta(k, eps, delta)
            meta.update(phase="im_sentinel", sentinel=sentinel_state)
            meta.update(round_state)
            self._round_checkpoint(rng, meta, pools)

        with Timer() as t_im, self._phase("im_sentinel"):
            im = IMSentinelPhase(
                self.graph, self.generator_cls, self.use_out_degree_tie_break
            ).run(
                k, eps, sentinel.seeds, eps2, delta2, rng,
                control=self._control,
                resume=im_resume,
                # Only wire the checkpoint callback when a store is attached.
                checkpoint=im_checkpoint if self._has_checkpoint else None,
                banks=self._banks,
                phase=self._phase,
            )
        generators.extend(im.generators)
        phases["im_sentinel"] = t_im.elapsed
        extras["im_sentinel_rr_sets"] = im.num_rr_sets
        extras["im_sentinel_avg_rr_size"] = im.average_rr_size

        if im.interrupted:
            result = self._partial_result(
                im.seeds, k, eps, delta,
                generators=generators,
                reason=im.stop_reason,
                **extras,
            )
        else:
            result = self._result_from(
                im.seeds, k, eps, delta, generators=generators, **extras
            )
        result.phases = phases
        result.lower_bound = im.lower_bound
        result.upper_bound = im.upper_bound
        return result
