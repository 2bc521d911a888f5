"""Sharded worker runtime benchmark: a large run with and without shards.

Two measurements, written to ``benchmarks/results/BENCH_sharded.json``:

* **large-run** — one ``opim-c`` query (batched ``ic`` kernel,
  ``batch_size=256``) on an n=10^6 WC Erdős–Rényi graph, run twice on the
  same graph with the same ``k``, ``eps`` and seed: once through an
  unsharded :class:`~repro.engine.session.QuerySession`, once through a
  sharded one (``QuerySession(shards=)``).  Each arm records wall time and the peak memory of
  the parent plus every shard worker.  Memory is the summed proportional
  set size (Pss): plain RSS would count the shared-memory graph once per
  worker.  It is sampled every 0.25 s while the query runs.
* **realloc** — the power-of-two pool growth policy versus a simulated
  exact-size growth, counting buffer reallocations per appended set.

Run directly::

    PYTHONPATH=src python benchmarks/bench_sharded.py            # full
    PYTHONPATH=src python benchmarks/bench_sharded.py --quick    # CI smoke

``--quick`` shrinks everything (both large-run arms included) so the whole
run finishes in well under a minute and writes ``BENCH_sharded_quick.json``
so a smoke run never overwrites the committed full-size numbers.
"""

from __future__ import annotations

import argparse
import json
import os
import threading
import time
from pathlib import Path

import numpy as np

from repro.engine.session import QuerySession
from repro.graphs.generators import erdos_renyi
from repro.graphs.weights import wc_weights
from repro.rrsets.collection import RRCollection, _pow2_capacity

RESULTS_PATH = Path(__file__).parent / "results" / "BENCH_sharded.json"
QUICK_RESULTS_PATH = (
    Path(__file__).parent / "results" / "BENCH_sharded_quick.json"
)

#: seconds between memory samples while a query runs
SAMPLE_INTERVAL = 0.25


def _pss_kib(pid: int) -> int:
    """Proportional set size of one process in KiB (0 if it vanished).

    Falls back to VmRSS where ``smaps_rollup`` is unavailable.
    """
    for path, key in ((f"/proc/{pid}/smaps_rollup", "Pss:"),
                      (f"/proc/{pid}/status", "VmRSS:")):
        try:
            with open(path) as handle:
                for line in handle:
                    if line.startswith(key):
                        return int(line.split()[1])
        except OSError:
            continue
    return 0


def _session_mib(session: QuerySession) -> float:
    """Parent + all shard workers of ``session``, in MiB."""
    pids = [os.getpid()]
    if session.shard_pool is not None:
        pids += [p.pid for p in session.shard_pool._procs if p is not None]
    return sum(_pss_kib(pid) for pid in pids) / 1024.0


class _PeakSampler:
    """Background thread tracking the peak of :func:`_session_mib`."""

    def __init__(self, session: QuerySession) -> None:
        self.session = session
        self.peak = _session_mib(session)
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)

    def _loop(self) -> None:
        while not self._stop.wait(SAMPLE_INTERVAL):
            self.peak = max(self.peak, _session_mib(self.session))

    def __enter__(self) -> "_PeakSampler":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()
        self.peak = max(self.peak, _session_mib(self.session))


def _cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def _run_arm(graph, *, k: int, eps: float, seed: int, batch_size: int,
             shards=None) -> dict:
    """One cold ``opim-c`` query through a fresh (un)sharded session."""
    with QuerySession(graph, "opim-c", seed=seed, shards=shards) as session:
        start_mib = _session_mib(session)
        with _PeakSampler(session) as sampler:
            start = time.perf_counter()
            result = session.maximize(k, eps=eps, batch_size=batch_size)
            run_s = time.perf_counter() - start
    return {
        "run_seconds": round(run_s, 2),
        "status": result.status,
        "num_rr_sets": result.num_rr_sets,
        "average_rr_size": round(result.average_rr_size, 2),
        "start_pss_mib": round(start_mib, 1),
        "peak_pss_mib": round(sampler.peak, 1),
    }


def bench_large_run(*, n: int, degree: float, k: int, eps: float,
                    shards: int) -> dict:
    """The same query at scale, unsharded and then sharded."""
    build_start = time.perf_counter()
    graph = wc_weights(erdos_renyi(n, degree, seed=1))
    build_s = time.perf_counter() - build_start

    query = dict(k=k, eps=eps, seed=7, batch_size=256)
    unsharded = _run_arm(graph, **query)
    sharded = _run_arm(graph, shards=shards, **query)
    return {
        "n": n,
        "avg_degree": degree,
        "weights": "wc",
        "algorithm": "opim-c",
        **query,
        "shards": shards,
        "cpus": _cpus(),
        "graph_build_seconds": round(build_s, 2),
        "unsharded": unsharded,
        "sharded": sharded,
        "sharded_seconds_ratio": round(
            sharded["run_seconds"] / max(unsharded["run_seconds"], 1e-9), 2
        ),
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
    args = parser.parse_args()

    if args.quick:
        large_args = dict(n=20_000, degree=4.0, k=10, eps=0.5, shards=2)
        realloc_appends = 20_000
    else:
        large_args = dict(n=1_000_000, degree=4.0, k=20, eps=0.5, shards=4)
        realloc_appends = 200_000

    print("large-run ...", flush=True)
    large = bench_large_run(**large_args)
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
