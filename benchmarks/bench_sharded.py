"""Sharded worker runtime benchmark: a large sharded run and pool growth.

Two measurements, written to ``benchmarks/results/BENCH_sharded.json``:

* **large-run** — an end-to-end ``opim-c`` query (batched ``ic`` kernel)
  on an n=10^6 WC Erdős–Rényi graph through the shard runtime with
  spill-to-disk, reporting wall time and the peak RSS across the parent
  and every worker (the stated memory cap the spill tier must respect).
* **realloc** — the power-of-two pool growth policy versus a simulated
  exact-size growth, counting buffer reallocations per appended set.

Run directly::

    PYTHONPATH=src python benchmarks/bench_sharded.py            # full
    PYTHONPATH=src python benchmarks/bench_sharded.py --quick    # CI smoke

``--quick`` shrinks everything so the whole run finishes in well under a
minute and writes ``BENCH_sharded_quick.json`` so a smoke run never
overwrites the committed full-size numbers.
"""

from __future__ import annotations

import argparse
import json
import os
import tempfile
import time
from pathlib import Path

import numpy as np

from repro.core.registry import get_algorithm
from repro.graphs.generators import erdos_renyi
from repro.graphs.weights import wc_weights
from repro.rrsets.collection import RRCollection, _pow2_capacity
from repro.rrsets.shardpool import ShardPool

RESULTS_PATH = Path(__file__).parent / "results" / "BENCH_sharded.json"
QUICK_RESULTS_PATH = (
    Path(__file__).parent / "results" / "BENCH_sharded_quick.json"
)


def _rss_kib(pid: int) -> int:
    """VmRSS of one process in KiB (0 if it vanished)."""
    try:
        with open(f"/proc/{pid}/status") as handle:
            for line in handle:
                if line.startswith("VmRSS:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def _pool_rss_mib(pool: ShardPool) -> float:
    """Parent + all shard workers, in MiB."""
    pids = [os.getpid()] + [p.pid for p in pool._procs if p is not None]
    return sum(_rss_kib(pid) for pid in pids) / 1024.0


def bench_large_run(*, n: int, degree: float, k: int, eps: float,
                    shards: int, spill_dir: str) -> dict:
    """One end-to-end sharded query at scale, with RSS tracking."""
    build_start = time.perf_counter()
    graph = wc_weights(erdos_renyi(n, degree, seed=1))
    build_s = time.perf_counter() - build_start

    pool = ShardPool(graph, shards, spill_dir=spill_dir)
    peak_rss = _pool_rss_mib(pool)
    try:
        algo = get_algorithm("opim-c", graph)
        start = time.perf_counter()
        result = algo.run(k, eps=eps, seed=7, shards=pool, batch_size=256)
        run_s = time.perf_counter() - start
        peak_rss = max(peak_rss, _pool_rss_mib(pool))
        spilled = pool.spill()
        after_spill_rss = _pool_rss_mib(pool)
        stats = pool.stats()
        resident_pool_bytes = sum(
            r["nbytes"] for s in stats for r in s.values()
        )
    finally:
        pool.close()

    return {
        "n": n,
        "avg_degree": degree,
        "weights": "wc",
        "k": k,
        "eps": eps,
        "shards": shards,
        "graph_build_seconds": round(build_s, 2),
        "run_seconds": round(run_s, 2),
        "status": result.status,
        "num_rr_sets": result.num_rr_sets,
        "average_rr_size": round(result.average_rr_size, 2),
        "peak_rss_mib": round(peak_rss, 1),
        "rss_after_spill_mib": round(after_spill_rss, 1),
        "resident_pool_bytes_after_spill": int(resident_pool_bytes),
        "spill_files": sum(len(s) for s in spilled if s),
    }


def bench_realloc(*, appends: int) -> dict:
    """Pow2 growth vs. simulated exact-size growth, reallocs per append."""
    rr = np.arange(8, dtype=np.int64)

    coll = RRCollection(64)
    start = time.perf_counter()
    for _ in range(appends):
        coll.add(rr)
    pow2_s = time.perf_counter() - start
    pow2_reallocs = coll.realloc_count

    # Exact-size policy: what the pool did before power-of-two growth —
    # every append that outgrows the buffer pays a full copy.
    start = time.perf_counter()
    nodes = np.empty(0, dtype=np.int64)
    indptr = np.zeros(1, dtype=np.int64)
    exact_reallocs = 0
    for i in range(appends):
        grown = np.empty(len(nodes) + len(rr), dtype=np.int64)
        grown[: len(nodes)] = nodes
        grown[len(nodes):] = rr
        nodes = grown
        new_indptr = np.empty(len(indptr) + 1, dtype=np.int64)
        new_indptr[: len(indptr)] = indptr
        new_indptr[-1] = len(nodes)
        indptr = new_indptr
        exact_reallocs += 2
    exact_s = time.perf_counter() - start

    return {
        "appends": appends,
        "pow2_reallocs": int(pow2_reallocs),
        "pow2_seconds": round(pow2_s, 4),
        "exact_reallocs": int(exact_reallocs),
        "exact_seconds": round(exact_s, 4),
        "final_capacity": int(_pow2_capacity(coll.total_size, 1024)),
        "speedup": round(exact_s / pow2_s, 2) if pow2_s else float("inf"),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true",
                        help="CI smoke: tiny sizes, separate results file")
    parser.add_argument(
        "--spill-dir", default=None,
        help="spill directory for the large run (default: a fresh tempdir)",
    )
    args = parser.parse_args()
    if args.spill_dir is None:
        args.spill_dir = tempfile.mkdtemp(prefix="bench_sharded_spill_")

    if args.quick:
        large_args = dict(n=20_000, degree=4.0, k=10, eps=0.5, shards=2)
        realloc_appends = 20_000
    else:
        large_args = dict(n=1_000_000, degree=4.0, k=20, eps=0.5, shards=4)
        realloc_appends = 200_000

    print("large-run ...", flush=True)
    os.makedirs(args.spill_dir, exist_ok=True)
    large = bench_large_run(spill_dir=args.spill_dir, **large_args)
    print(json.dumps(large, indent=2), flush=True)

    print("realloc ...", flush=True)
    realloc = bench_realloc(appends=realloc_appends)
    print(json.dumps(realloc, indent=2), flush=True)

    payload = {
        "benchmark": "sharded-worker-runtime",
        "quick": bool(args.quick),
        "large_run": large,
        "realloc": realloc,
    }
    path = QUICK_RESULTS_PATH if args.quick else RESULTS_PATH
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
