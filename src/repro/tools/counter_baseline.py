"""The fixed-seed workload matrix behind the counter-regression gate.

Wall-clock benchmarks are useless as CI gates — shared runners are noisy.
The machine-independent cost counters (``edges_examined``, ``rng_draws``,
RR-size histograms, ...) are exactly reproducible for a fixed ``(code,
graph, config, seed)``, so CI runs a small matrix of algorithm
configurations and diffs the canonical :class:`~repro.observability.report
.RunReport` of each against a committed baseline with **exact** match.

A diff means the change altered sampling behaviour — more edges examined, a
different RNG schedule, a different pool size.  That is sometimes intended
(an optimization that provably skips work); then the baseline is
regenerated with ``python -m repro.tools.update_baseline`` and the new
numbers are reviewed like any other diff.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Any, Dict, List

import numpy as np

from repro.core.registry import get_algorithm
from repro.graphs.dynamic import GraphDelta
from repro.graphs.generators import preferential_attachment
from repro.graphs.weights import uniform_weights, wc_weights
from repro.observability import MetricsRegistry, build_run_report

#: bump when the workload matrix or report schema changes incompatibly
BASELINE_SCHEMA_VERSION = 1

#: the graph every workload runs on (small enough for CI, rich enough that
#: every code path — geometric skipping, sentinel stops, batching — fires)
GRAPH_SPEC = {"n": 300, "degree": 3, "seed": 1, "reciprocal": 0.3}

#: query configuration shared by all workloads
QUERY = {"k": 8, "eps": 0.25, "seed": 11}

#: (name, algorithm, weight scheme, batch_size) — vanilla/SUBSIM generation
#: x WC/uniform weighting x sequential/batched execution
WORKLOADS = [
    ("opim-c/wc/sequential", "opim-c", "wc", 1),
    ("opim-c/wc/batched", "opim-c", "wc", 64),
    ("opim-c/uniform/sequential", "opim-c", "uniform", 1),
    ("opim-c/uniform/batched", "opim-c", "uniform", 64),
    ("subsim/wc/sequential", "subsim", "wc", 1),
    ("subsim/wc/batched", "subsim", "wc", 64),
    ("subsim/uniform/sequential", "subsim", "uniform", 1),
    ("subsim/uniform/batched", "subsim", "uniform", 64),
]

#: (name, delta mix) — dynamic workloads: warm session, fixed-seed edge
#: delta, in-place bank repair, second query.  Their counters pin down the
#: whole repair pipeline (dirty-set detection, journal replay, post-delta
#: generation) exactly.
DYNAMIC_WORKLOADS = [
    ("dynamic/insert-heavy", {"inserts": 12, "deletes": 2, "updates": 2}),
    ("dynamic/delete-heavy", {"inserts": 2, "deletes": 12, "updates": 2}),
]

#: RNG seed for the dynamic workloads' delta construction
DELTA_SEED = 23

_UNIFORM_P = 0.05


def baseline_path() -> Path:
    """Where the committed baseline lives (override: ``REPRO_BASELINE``)."""
    override = os.environ.get("REPRO_BASELINE")
    if override:
        return Path(override)
    return (
        Path(__file__).resolve().parents[3]
        / "benchmarks"
        / "results"
        / "BASELINE_counters.json"
    )


def _build_graph(weight_scheme: str):
    graph = preferential_attachment(
        GRAPH_SPEC["n"],
        GRAPH_SPEC["degree"],
        seed=GRAPH_SPEC["seed"],
        reciprocal=GRAPH_SPEC["reciprocal"],
    )
    if weight_scheme == "wc":
        return wc_weights(graph)
    if weight_scheme == "uniform":
        return uniform_weights(graph, _UNIFORM_P)
    raise ValueError(f"unknown weight scheme {weight_scheme!r}")


def run_workload(
    algorithm: str,
    weight_scheme: str,
    batch_size: int,
) -> Dict[str, Any]:
    """Run one matrix cell; returns the canonical RunReport projection."""
    graph = _build_graph(weight_scheme)
    metrics = MetricsRegistry()
    algo = get_algorithm(algorithm, graph)
    result = algo.run(
        QUERY["k"],
        eps=QUERY["eps"],
        seed=QUERY["seed"],
        batch_size=batch_size,
        metrics=metrics,
    )
    report = build_run_report(
        result,
        graph,
        seed=QUERY["seed"],
        metrics=metrics,
        config={"weights": weight_scheme, "batch_size": batch_size},
    )
    return report.canonical()


def _build_delta(graph, mix: Dict[str, int]) -> GraphDelta:
    """A fixed-seed edge delta with the given insert/delete/update mix."""
    rng = np.random.default_rng(DELTA_SEED)
    indeg = np.diff(graph.in_indptr)
    candidates = np.flatnonzero(indeg > 0)
    picked = set()
    deletes: List = []
    updates: List = []
    while len(deletes) < mix["deletes"] or len(updates) < mix["updates"]:
        v = int(rng.choice(candidates))
        offset = int(rng.integers(indeg[v]))
        u = int(graph.in_indices[graph.in_indptr[v] + offset])
        if (u, v) in picked:
            continue
        picked.add((u, v))
        if len(deletes) < mix["deletes"]:
            deletes.append((u, v))
        else:
            updates.append((u, v, float(rng.uniform(0.05, 0.3))))
    srcs = np.repeat(
        np.arange(graph.n, dtype=np.int64), np.diff(graph.out_indptr)
    )
    existing = set(
        zip(srcs.tolist(), graph.out_indices.astype(np.int64).tolist())
    )
    inserts: List = []
    while len(inserts) < mix["inserts"]:
        u = int(rng.integers(0, graph.n))
        v = int(rng.integers(0, graph.n))
        if u == v or (u, v) in existing or (u, v) in picked:
            continue
        picked.add((u, v))
        inserts.append((u, v, float(rng.uniform(0.05, 0.3))))
    return GraphDelta(inserts=inserts, deletes=deletes, updates=updates)


def run_dynamic_workload(mix: Dict[str, int]) -> Dict[str, Any]:
    """Warm session -> fixed delta -> repair -> requery; exact counters."""
    from repro.engine.session import QuerySession

    graph = _build_graph("wc")
    session = QuerySession(graph, "subsim", seed=QUERY["seed"])
    session.maximize(QUERY["k"], eps=QUERY["eps"])
    delta = _build_delta(graph, mix)
    info = session.apply_delta(delta)
    second = session.maximize(QUERY["k"], eps=QUERY["eps"])
    return {
        "delta": {
            "inserts": len(delta.insert_src),
            "deletes": len(delta.delete_src),
            "updates": len(delta.update_src),
            "touched_nodes": int(info["touched_nodes"]),
        },
        "repair": {
            "sets_total": int(info["sets_total"]),
            "sets_repaired": int(info["sets_repaired"]),
            "banks": {
                name: {
                    "num_rr": int(stats["num_rr"]),
                    "num_dirty": int(stats["num_dirty"]),
                    "num_resampled": int(stats["num_resampled"]),
                    "repair_counters": dict(stats["repair_counters"]),
                }
                for name, stats in sorted(info["banks"].items())
            },
        },
        "second_query": {
            "seeds": [int(s) for s in second.seeds],
            "num_rr_sets": int(second.num_rr_sets),
            "edges_examined": int(second.edges_examined),
            "rng_draws": int(second.rng_draws),
        },
    }


def collect_baseline() -> Dict[str, Any]:
    """Run every workload; returns the JSON-able baseline document."""
    workloads = {
        name: run_workload(algorithm, weights, batch_size)
        for name, algorithm, weights, batch_size in WORKLOADS
    }
    workloads.update({
        name: run_dynamic_workload(mix) for name, mix in DYNAMIC_WORKLOADS
    })
    return {
        "baseline_schema_version": BASELINE_SCHEMA_VERSION,
        "graph": dict(GRAPH_SPEC),
        "query": dict(QUERY),
        "workloads": workloads,
    }


def _flatten(prefix: str, value: Any, out: Dict[str, Any]) -> None:
    if isinstance(value, dict):
        for key in sorted(value):
            _flatten(f"{prefix}.{key}" if prefix else str(key), value[key], out)
    else:
        out[prefix] = value


def diff_documents(baseline: Dict[str, Any], current: Dict[str, Any]) -> List[str]:
    """Human-readable exact-match diff; empty list means identical."""
    lines: List[str] = []
    base_workloads = baseline.get("workloads", {})
    cur_workloads = current.get("workloads", {})
    for name in sorted(set(base_workloads) | set(cur_workloads)):
        if name not in cur_workloads:
            lines.append(f"{name}: present in baseline, missing from current run")
            continue
        if name not in base_workloads:
            lines.append(f"{name}: produced by current run, missing from baseline")
            continue
        flat_base: Dict[str, Any] = {}
        flat_cur: Dict[str, Any] = {}
        _flatten("", base_workloads[name], flat_base)
        _flatten("", cur_workloads[name], flat_cur)
        for key in sorted(set(flat_base) | set(flat_cur)):
            base_value = flat_base.get(key, "<absent>")
            cur_value = flat_cur.get(key, "<absent>")
            if base_value != cur_value:
                lines.append(
                    f"{name}: {key}: baseline={base_value!r} current={cur_value!r}"
                )
    for key in ("baseline_schema_version", "graph", "query"):
        if baseline.get(key) != current.get(key):
            lines.append(
                f"{key}: baseline={baseline.get(key)!r} current={current.get(key)!r}"
            )
    return lines


def write_baseline(document: Dict[str, Any], path: Path) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=2, sort_keys=True)
        handle.write("\n")


def load_baseline(path: Path) -> Dict[str, Any]:
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)
