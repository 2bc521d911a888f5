"""RR-set generation benchmark: sequential vs. batched.

Measures wall-clock time, edge throughput, and pool memory for growing a
fixed number of RR sets on a weighted preferential-attachment graph, and
writes machine-readable results to ``benchmarks/results/BENCH_rrgen.json``.

Run directly::

    PYTHONPATH=src python benchmarks/bench_rrgen.py            # full (n=10^4)
    PYTHONPATH=src python benchmarks/bench_rrgen.py --quick    # CI smoke

``--weights {wc,skewed,uniform}`` selects the edge-probability scheme and
``--model {ic,lt}`` the diffusion model (``lt`` applies LT normalisation
and benchmarks the backward live-edge walk).  ``--suite generalw`` runs
the general-weight fast-path comparison — batched bucket-skipping SUBSIM
on skewed weights plus the batched LT kernel — and writes
``BENCH_generalw.json``.

Each arm (sequential, batched) is timed ``REPEATS`` (3) times, the two
arms alternating, and every row reports the median wall time with
all timings beside it in ``wall_seconds_all``: one timing per arm moved
the headline ratio by 1.7x between two runs on the same host.  Each row
also gives the median as ``us_per_set``, so a change in the headline
ratio can be read as a change in one arm or the other.

``--quick`` shrinks the graph and sample count so the whole run finishes
in seconds; quick results carry ``"quick": true`` and are written to
``*_quick.json`` files so a smoke run never overwrites the committed
full-size numbers.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import time
from pathlib import Path

import numpy as np

from repro.graphs.generators import preferential_attachment
from repro.graphs.weights import (
    exponential_weights,
    lt_normalized_weights,
    uniform_weights,
    wc_weights,
)
from repro.rrsets.collection import RRCollection
from repro.rrsets.lt import LTGenerator
from repro.rrsets.subsim import SubsimICGenerator
from repro.rrsets.vanilla import VanillaICGenerator

RESULTS_PATH = Path(__file__).parent / "results" / "BENCH_rrgen.json"
#: ``--quick`` runs land here so a CI smoke run can never clobber the
#: committed full-size numbers in BENCH_rrgen.json
QUICK_RESULTS_PATH = Path(__file__).parent / "results" / "BENCH_rrgen_quick.json"
GENERALW_PATH = Path(__file__).parent / "results" / "BENCH_generalw.json"
GENERALW_QUICK_PATH = (
    Path(__file__).parent / "results" / "BENCH_generalw_quick.json"
)

GENERATORS = {
    "vanilla": VanillaICGenerator,
    "subsim": SubsimICGenerator,
}

WEIGHT_SCHEMES = ("wc", "skewed", "uniform")

#: timings per arm; the reported figure is their median
REPEATS = 3


def build_graph(n: int, degree: int, weights: str = "wc",
                model: str = "ic", seed: int = 1):
    """The benchmark graph: a PA digraph under the chosen weight scheme."""
    graph = preferential_attachment(n, degree, seed=seed, reciprocal=0.3)
    if weights == "wc":
        graph = wc_weights(graph)
    elif weights == "skewed":
        graph = exponential_weights(graph, seed=2)
    elif weights == "uniform":
        graph = uniform_weights(graph, 0.02)
    else:
        raise ValueError(
            f"weights must be one of {WEIGHT_SCHEMES}, got {weights!r}"
        )
    if model == "lt":
        graph = lt_normalized_weights(graph)
    return graph


def _measure(graph, cls, count, seed, batch_size=1):
    """Grow ``count`` RR sets, returning timing + counter telemetry."""
    gen = cls(graph)
    gen.batch_size = batch_size
    pool = RRCollection(graph.n)
    rng = np.random.default_rng(seed)
    start = time.perf_counter()
    pool.extend(count, gen, rng)
    elapsed = time.perf_counter() - start
    counters = gen.counters
    return {
        "mode": "sequential" if batch_size == 1 else f"batched(b={batch_size})",
        "batch_size": batch_size,
        "rr_sets": int(pool.num_rr),
        "wall_seconds": round(elapsed, 6),
        "us_per_set": _us_per_set(elapsed, pool.num_rr),
        "edges_examined": int(counters.edges_examined),
        "rng_draws": int(counters.rng_draws),
        "edges_per_second": round(counters.edges_examined / max(elapsed, 1e-9)),
        "avg_rr_size": round(float(pool.set_sizes().mean()), 3),
        "pool_bytes": int(pool.nbytes()),
    }


def _us_per_set(seconds: float, sets: int) -> float:
    """Wall time per generated set in microseconds: the arm's constant,
    which the batched speedup divides."""
    return round(seconds / max(sets, 1) * 1e6, 2)


def _median_row(rows):
    """One row for repeated timings of the same arm: the median wall time,
    every timing, and the (seeded, hence identical) counters."""
    first = rows[0]
    for row in rows[1:]:
        if row["edges_examined"] != first["edges_examined"]:
            raise RuntimeError(
                f"{first['mode']}: repeats of one seeded arm examined "
                f"{first['edges_examined']} and {row['edges_examined']} edges"
            )
    timings = [row["wall_seconds"] for row in rows]
    wall = statistics.median(timings)
    return dict(
        first,
        wall_seconds=round(wall, 6),
        wall_seconds_all=timings,
        us_per_set=_us_per_set(wall, first["rr_sets"]),
        edges_per_second=round(first["edges_examined"] / max(wall, 1e-9)),
    )


def _compare_arms(graph, cls, count, seed, batch_size):
    """Time the sequential and batched arms ``REPEATS`` times each,
    alternating, so a host slowdown lands on both arms alike."""
    sequential, batched = [], []
    for _ in range(REPEATS):
        sequential.append(_measure(graph, cls, count, seed))
        batched.append(_measure(graph, cls, count, seed, batch_size=batch_size))
    rows = [_median_row(sequential), _median_row(batched)]
    return {
        "runs": rows,
        "batched_speedup": round(
            rows[0]["wall_seconds"] / max(rows[1]["wall_seconds"], 1e-9), 2
        ),
    }


def run_benchmark(
    n: int = 10_000,
    degree: int = 10,
    count: int = 3_000,
    batch_size: int = 512,
    seed: int = 7,
    quick: bool = False,
    weights: str = "wc",
    model: str = "ic",
) -> dict:
    """Benchmark every generator in sequential and batched modes."""
    if quick:
        n, count, batch_size = 1_500, 400, 128
    graph = build_graph(n, degree, weights=weights, model=model)
    generators = {"lt": LTGenerator} if model == "lt" else GENERATORS
    report = {
        "benchmark": "rrgen",
        "quick": quick,
        "cpus": os.cpu_count(),
        "graph": {
            "model": f"pa+{weights}" + ("+lt" if model == "lt" else ""),
            "n": graph.n,
            "m": graph.m,
        },
        "count": count,
        "seed": seed,
        "repeats": REPEATS,
        "generators": {},
    }
    for name, cls in generators.items():
        report["generators"][name] = _compare_arms(
            graph, cls, count, seed, batch_size
        )
    return report


def run_generalw_benchmark(
    n: int = 10_000,
    degree: int = 10,
    count: int = 3_000,
    batch_size: int = 4_096,
    seed: int = 7,
    quick: bool = False,
) -> dict:
    """The general-weight fast-path comparison.

    Two workloads on the n=10^4 PA graph: the bucket-skipping SUBSIM
    kernel on skewed (exponential) weights, and the batched LT kernel on
    LT-normalised WC weights — each sequential vs. batched, with per-mode
    ``edges_examined`` / ``rng_draws`` telemetry.

    The per-graph sampler tables (uniform rates, sorted segments, LT alias
    tables) are built once and cached on the graph, shared by every
    generator instance and query; their one-time cost is timed separately
    as ``preprocess_seconds`` so the kernel rows measure steady-state
    throughput.  Larger batches amortise the per-level dispatch better,
    hence the 4096 default here (one batch per run at the
    default count) vs. the rrgen suite's 512.
    """
    from repro.sampling.precompute import (
        lt_alias_tables,
        sorted_segments,
        uniform_arrays,
    )

    if quick:
        n, count, batch_size = 1_500, 400, 128

    def prep_ic(graph):
        uniform_arrays(graph)
        sorted_segments(graph)

    workloads = {
        "subsim-skewed": (
            build_graph(n, degree, weights="skewed"),
            SubsimICGenerator,
            prep_ic,
        ),
        "lt": (
            build_graph(n, degree, weights="wc", model="lt"),
            LTGenerator,
            lt_alias_tables,
        ),
    }
    report = {
        "benchmark": "generalw",
        "quick": quick,
        "cpus": os.cpu_count(),
        "count": count,
        "seed": seed,
        "repeats": REPEATS,
        "workloads": {},
    }
    for name, (graph, cls, preprocess) in workloads.items():
        t0 = time.perf_counter()
        preprocess(graph)
        preprocess_seconds = time.perf_counter() - t0
        report["workloads"][name] = {
            "graph": {"n": graph.n, "m": graph.m,
                      "weight_model": graph.weight_model},
            "preprocess_seconds": round(preprocess_seconds, 6),
            **_compare_arms(graph, cls, count, seed, batch_size),
        }
    return report


def write_report(report: dict, path: Path = RESULTS_PATH) -> Path:
    path.parent.mkdir(exist_ok=True)
    path.write_text(json.dumps(report, indent=2) + "\n")
    return path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="small graph + few sets; for CI smoke runs")
    parser.add_argument("--suite", default="rrgen",
                        choices=["rrgen", "generalw"],
                        help="rrgen: per-generator modes on one graph; "
                             "generalw: skewed-SUBSIM + LT fast paths")
    parser.add_argument("--weights", default="wc", choices=WEIGHT_SCHEMES,
                        help="edge-probability scheme (rrgen suite)")
    parser.add_argument("--model", default="ic", choices=["ic", "lt"],
                        help="diffusion model; lt normalises weights and "
                             "benchmarks the LT walk (rrgen suite)")
    parser.add_argument("--n", type=int, default=10_000)
    parser.add_argument("--count", type=int, default=3_000)
    parser.add_argument("--batch-size", type=int, default=None,
                        help="sets per vectorized batch (default: 512 for "
                             "rrgen, 4096 for generalw)")
    parser.add_argument("--output", type=Path, default=None,
                        help="result file (default: BENCH_<suite>.json, or "
                             "BENCH_<suite>_quick.json with --quick)")
    args = parser.parse_args(argv)
    if args.batch_size is None:
        args.batch_size = 4_096 if args.suite == "generalw" else 512
    if args.output is None:
        if args.suite == "generalw":
            args.output = GENERALW_QUICK_PATH if args.quick else GENERALW_PATH
        else:
            args.output = QUICK_RESULTS_PATH if args.quick else RESULTS_PATH

    if args.suite == "generalw":
        report = run_generalw_benchmark(
            n=args.n, count=args.count, batch_size=args.batch_size,
            quick=args.quick,
        )
        entries = report["workloads"]
    else:
        report = run_benchmark(
            n=args.n, count=args.count, batch_size=args.batch_size,
            quick=args.quick, weights=args.weights, model=args.model,
        )
        entries = report["generators"]
    path = write_report(report, args.output)
    for name, entry in entries.items():
        print(f"{name}: batched speedup {entry['batched_speedup']}x")
        for row in entry["runs"]:
            print(
                f"  {row['mode']:24s} {row['wall_seconds']:.3f}s  "
                f"{row['us_per_set']:>9.2f} us/set  "
                f"{row['edges_per_second']:>12,} edges/s  "
                f"pool {row['pool_bytes'] / 1e6:.1f} MB"
            )
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
