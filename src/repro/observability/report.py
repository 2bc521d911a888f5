"""Run reports: the per-run artifact the CI counter baseline diffs.

A :class:`RunReport` captures everything needed to reproduce and audit one
algorithm run: the graph fingerprint, the query configuration and seed, the
registry's counter/gauge/histogram snapshot, the budget spend, the
certificate (bounds and certified ratio), and optionally the phase trace.

Two projections matter:

* :meth:`RunReport.as_dict` / :meth:`RunReport.to_json` — the full
  artifact, including wall-clock fields;
* :meth:`RunReport.canonical` — the deterministic subset (no wall times,
  no memory gauges, no phase tree), which is **bit-identical** across
  reruns of the same ``(code, graph, config, seed)`` — including runs
  resumed from a checkpoint — and is therefore what the counter-regression
  baseline stores and compares.
"""

from __future__ import annotations

import json
import os
from dataclasses import asdict, dataclass, field
from typing import Any, Dict, List, Optional

from repro.core.results import IMResult
from repro.graphs.csr import CSRGraph
from repro.observability.registry import MetricsRegistry

SCHEMA_VERSION = 1

#: gauge names excluded from the canonical projection (buffer growth, and
#: hence resident bytes, legitimately differs between a fresh run and a
#: checkpoint-resumed one rebuilding its pools in a single append)
_NONDETERMINISTIC_GAUGES = ("rr_pool_bytes",)

#: counter namespaces excluded from the canonical projection: the runtime
#: budget tallies are *per-process* spend (they restart at zero when a run
#: resumes from a checkpoint) and duplicate the ``generation.*`` totals
_PROCESS_LOCAL_COUNTER_PREFIXES = ("runtime.",)


def _round_records(trace: Optional[Dict[str, Any]]) -> List[Dict[str, Any]]:
    """Lift the doubling loop's per-round span annotations out of a trace.

    Walks the phase tree for ``round-{i}`` spans carrying annotations
    (theta, lower/upper bounds, bound ratio) and returns
    them as an ordered list of ``{"round": i, ...}`` records — the
    round-by-round story ``--report`` surfaces without forcing readers to
    dig through the span tree.
    """
    records: List[Dict[str, Any]] = []
    if not trace:
        return records

    def walk(span: Dict[str, Any]) -> None:
        name = span.get("name", "")
        annotations = span.get("annotations")
        if annotations and name.startswith("round-"):
            try:
                index = int(name[len("round-"):])
            except ValueError:
                index = len(records) + 1
            records.append({"round": index, **annotations})
        for child in span.get("children", ()):
            walk(child)

    for root in trace.get("phases", ()):
        walk(root)
    records.sort(key=lambda record: record["round"])
    return records


@dataclass
class RunReport:
    """Structured record of one influence-maximization run."""

    algorithm: str
    graph: Dict[str, Any]
    config: Dict[str, Any]
    seeds: List[int]
    status: str
    stop_reason: Optional[str]
    certificate: Dict[str, Any]
    counters: Dict[str, int] = field(default_factory=dict)
    gauges: Dict[str, float] = field(default_factory=dict)
    histograms: Dict[str, Any] = field(default_factory=dict)
    budget: Dict[str, Any] = field(default_factory=dict)
    phases: Dict[str, Any] = field(default_factory=dict)
    rounds: List[Dict[str, Any]] = field(default_factory=list)
    runtime_seconds: float = 0.0
    schema_version: int = SCHEMA_VERSION

    # ------------------------------------------------------------------
    def as_dict(self) -> Dict[str, Any]:
        return asdict(self)

    def canonical(self) -> Dict[str, Any]:
        """The deterministic projection the counter baseline compares.

        Drops every wall-clock quantity (``runtime_seconds``, the phase
        tree, the budget's elapsed and spend fields), memory gauges, and
        the per-process ``runtime.*`` tallies; keeps the deterministic
        counters, histograms, seeds, config, fingerprint, and certificate.
        """
        budget = {"limits": dict(self.budget.get("limits", {}))}
        gauges = {
            name: value
            for name, value in self.gauges.items()
            if name not in _NONDETERMINISTIC_GAUGES
        }
        counters = {
            name: value
            for name, value in self.counters.items()
            if not name.startswith(_PROCESS_LOCAL_COUNTER_PREFIXES)
        }
        payload = {
            "schema_version": self.schema_version,
            "algorithm": self.algorithm,
            "graph": dict(self.graph),
            "config": dict(self.config),
            "seeds": list(self.seeds),
            "status": self.status,
            "stop_reason": self.stop_reason,
            "certificate": dict(self.certificate),
            "counters": counters,
            "gauges": gauges,
            "histograms": {
                name: dict(payload) for name, payload in self.histograms.items()
            },
            "budget": budget,
        }
        if self.rounds:
            # Only present on traced runs (the baseline workloads run
            # untraced, so the committed baseline document is unchanged).
            payload["rounds"] = [dict(record) for record in self.rounds]
        return payload

    # ------------------------------------------------------------------
    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.as_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "RunReport":
        known = {name for name in cls.__dataclass_fields__}
        return cls(**{key: value for key, value in payload.items() if key in known})

    @classmethod
    def from_json(cls, text: str) -> "RunReport":
        return cls.from_dict(json.loads(text))

    def write(self, path: os.PathLike) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(self.to_json() + "\n")

    @classmethod
    def load(cls, path: os.PathLike) -> "RunReport":
        with open(path, "r", encoding="utf-8") as handle:
            return cls.from_json(handle.read())


def _opt_int(value: Any) -> Optional[int]:
    return None if value is None else int(value)


def _opt_float(value: Any) -> Optional[float]:
    return None if value is None else float(value)


def graph_descriptor(graph: CSRGraph) -> Dict[str, Any]:
    """The graph identity block every report carries."""
    return {
        "n": int(graph.n),
        "m": int(graph.m),
        "weight_model": graph.weight_model,
        "fingerprint": graph.fingerprint(),
    }


def build_run_report(
    result: IMResult,
    graph: CSRGraph,
    seed: Any = None,
    metrics: Optional[MetricsRegistry] = None,
    trace: Optional[Dict[str, Any]] = None,
    config: Optional[Dict[str, Any]] = None,
) -> RunReport:
    """Assemble a :class:`RunReport` from a finished run.

    ``metrics`` supplies the counter/gauge/histogram snapshot; without one,
    the report still carries the result's own counter fields (under the
    same ``generation.*`` names the registry would use), so every
    registered algorithm can write a report even when it ran uninstrumented.
    """
    if metrics is not None:
        snapshot = metrics.snapshot()
    else:
        snapshot = {
            "counters": {
                "generation.edges_examined": result.edges_examined,
                "generation.rng_draws": result.rng_draws,
                "generation.sets_generated": result.num_rr_sets,
            },
            "gauges": {},
            "histograms": {},
        }
    runtime = result.extras.get("runtime", {})
    # The fallbacks read IMResult counter fields, which vectorized loops may
    # have left as numpy scalars — coerce everything JSON-bound.
    budget = {
        "edges_examined": int(
            runtime.get("edges_examined", result.edges_examined)
        ),
        "rr_sets": int(runtime.get("rr_sets", result.num_rr_sets)),
        "rr_nodes": _opt_int(runtime.get("rr_nodes")),
        "elapsed_seconds": float(
            runtime.get("elapsed_seconds", result.runtime_seconds)
        ),
        # None means "unlimited"; dropping those keys makes the limits block
        # identical whether or not the run carried a runtime snapshot.
        "limits": {
            key: value
            for key, value in runtime.get("budget", {}).items()
            if value is not None
        },
    }
    report_config = {
        "k": int(result.k),
        "eps": _opt_float(result.eps),
        "delta": _opt_float(result.delta),
        "seed": seed if isinstance(seed, (int, type(None))) else repr(seed),
    }
    if config:
        report_config.update(config)
    return RunReport(
        algorithm=result.algorithm,
        graph=graph_descriptor(graph),
        config=report_config,
        seeds=[int(s) for s in result.seeds],
        status=result.status,
        stop_reason=result.stop_reason,
        certificate={
            "lower_bound": _opt_float(result.lower_bound),
            "upper_bound": _opt_float(result.upper_bound),
            "certified_ratio": _opt_float(result.approx_ratio_certified),
        },
        counters=snapshot["counters"],
        gauges=snapshot["gauges"],
        histograms=snapshot["histograms"],
        budget=budget,
        phases=trace if trace is not None else {},
        rounds=_round_records(trace),
        runtime_seconds=result.runtime_seconds,
    )
