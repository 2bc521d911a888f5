"""One workload's set-up and timed phase, in a fresh interpreter.

``run.py`` starts this file once per workload, so set-up time and memory
belong to that workload alone, and only one load generator runs at a time.
It reads a spec JSON and writes a result JSON holding every op's answer; the
parent verifies the answers, so no verification work runs here.

    python benchmarks/e2e/workloads.py SPEC.json

Set-up is repeated ``setup_reps`` times and the last repetition's state
serves the timed phase.  Memory is sampled every 0.1 s of the timed phase
(see :class:`MemorySampler`).  Every timed stretch, set-up and
op alike, is reported raw together with the host's slowdown around it (see
:func:`probe`); the parent turns the two into the reported times.
"""

import time

CHILD_START = time.perf_counter()

import contextlib  # noqa: E402
import ctypes  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Any, Callable, Dict, List, Optional, Tuple  # noqa: E402

import inputs  # noqa: E402
from repro import InfluenceMaximizer, QuerySession  # noqa: E402
from repro.graphs import io  # noqa: E402
from repro.serving import QueryServer, ServeClient, ServerConfig  # noqa: E402

IMPORT_S = time.perf_counter() - CHILD_START

#: set-up queries of the cold workloads: enough to build the sampler tables
#: once per graph, so the timed ops measure the per-query cost users pay
COLD_WARMUP = {
    "cold-wc": [
        (algorithm, k, inputs.COLD_WC_EPS)
        for algorithm, k in dict.fromkeys(inputs.COLD_WC_CLASSES)
    ],
    "cold-hi": [("hist+subsim", inputs.COLD_HI_K, inputs.COLD_HI_EPS)],
}
SERVE_GRAPH = "wc"
RSS_EVERY_S = 0.1
PAGE_MB = os.sysconf("SC_PAGE_SIZE") / 2**20

PROBE_LOOP = 30_000
#: the probe's time on an idle core of the two-core Xeon VM the bounds were
#: calibrated on, rounded: reported times read as seconds on that host
PROBE_NOMINAL_S = 1.0e-3
#: an op's slowdown is the median of this many probes on each side of it
PROBE_SIDE = 3


def probe() -> float:
    """Seconds a fixed pure-Python loop takes right now.

    The host shares its cores with other tenants, and its speed moves by
    10-40% for seconds to minutes at a time.  Over ten minutes of such
    contention this loop's time, taken between ops, tracked query latency
    with a correlation of 0.95 (memory-bound NumPy kernels tracked it
    worse): raw latency medians of 25-s windows spread 18-22% between the
    quartiles, latency divided by the local probe time 3-5%.  The loop
    shares no code with the library, so no change to the library moves it.
    """
    began = time.perf_counter()
    total = 0
    for i in range(PROBE_LOOP):
        total += i
    return time.perf_counter() - began


def slowdown(probes: List[float]) -> float:
    """The host's slowdown against :data:`PROBE_NOMINAL_S`."""
    return statistics.median(probes) / PROBE_NOMINAL_S


class MallInfo2(ctypes.Structure):
    """glibc's ``struct mallinfo2`` (glibc 2.33 and later)."""

    _fields_ = [
        (name, ctypes.c_size_t)
        for name in ("arena", "ordblks", "smblks", "hblks", "hblkhd",
                     "usmblks", "fsmblks", "uordblks", "fordblks", "keepcost")
    ]


class MemorySampler:
    """Memory of this process, sampled through the timed phase.

    The resident set alone moved by up to 40% between runs that held the
    same data: glibc keeps freed chunks mapped, and how many it keeps
    depends on the order in which threads freed them.  So each sample also
    takes the resident set less the bytes the allocator holds free
    (``mallinfo2().fordblks``), which repeated within 3%.  The median
    sample is what a query typically holds; a run's peak (``ru_maxrss``)
    hangs on its single largest query, which the seed picks.
    """

    def __init__(self) -> None:
        self.resident_mb: List[float] = []
        self.rss_mb: List[float] = []
        self._mallinfo2 = ctypes.CDLL(None).mallinfo2
        self._mallinfo2.restype = MallInfo2
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, name="bench-memory")

    def _sample(self) -> None:
        with open("/proc/self/statm") as statm:
            rss = int(statm.read().split()[1]) * PAGE_MB
        self.rss_mb.append(rss)
        self.resident_mb.append(rss - self._mallinfo2().fordblks / 2**20)

    def _run(self) -> None:
        while not self._stop.wait(RSS_EVERY_S):
            self._sample()

    def __enter__(self) -> "MemorySampler":
        self._sample()
        self._thread.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self._stop.set()
        self._thread.join()
        self._sample()


def _span(rec, name: str, layer: str):
    return rec.span(name, layer) if rec is not None else contextlib.nullcontext()


def _library_record(index: int, result, latency: float) -> Dict[str, Any]:
    session = result.extras.get("session", {})
    return {
        "i": index,
        "kind": "query",
        "ok": result.status == "complete",
        "status": result.status,
        "seeds": [int(s) for s in result.seeds],
        "latency_s": latency,
        "runtime_s": float(result.runtime_seconds),
        "lower": float(result.lower_bound),
        "num_rr_sets": int(result.num_rr_sets),
        "edges_examined": int(result.edges_examined),
        "sets_generated": int(
            session.get("sets_generated", result.num_rr_sets)
        ),
        "sets_reused": int(session.get("sets_reused", 0)),
    }


def run_plan(plan: List[Dict], seconds: float,
             do_op: Callable[[int, Dict], Dict[str, Any]],
             ) -> Tuple[List[Dict], float]:
    """Run ops in plan order, one at a time, until ``seconds`` have passed;
    return their records and the wall time of the loop.

    A probe runs before every op and after the last, and each record gets
    the ``slowdown`` of the probes on either side of it.
    """
    records = []
    probes = []
    start = time.perf_counter()
    deadline = start + seconds
    for index, op in enumerate(plan):
        if time.perf_counter() >= deadline:
            break
        probes.append(probe())
        began = time.perf_counter()
        try:
            records.append(do_op(index, op))
        except Exception as exc:  # noqa: BLE001 - a failed op is counted
            records.append({
                "i": index, "kind": op["kind"], "ok": False,
                "error": repr(exc), "latency_s": time.perf_counter() - began,
            })
    probes.append(probe())
    wall = time.perf_counter() - start
    for index, record in enumerate(records):
        # op ``index`` ran between probes[index] and probes[index + 1]
        record["slowdown"] = slowdown(
            probes[max(index + 1 - PROBE_SIDE, 0):index + 1 + PROBE_SIDE]
        )
    return records, wall


class Library:
    """cold-wc, cold-hi and warm-hi: queries straight through the library."""

    def __init__(self, spec: Dict[str, Any], rec) -> None:
        self.spec = spec
        self.rec = rec
        self.call = None

    def release(self) -> None:
        self.call = None

    def setup(self) -> None:
        spec = self.spec
        graph = io.load_graph_auto(spec["graph"])
        if spec["workload"] == "warm-hi":
            session = QuerySession(graph, "subsim", seed=inputs.STATE_SEED)
            for k in inputs.WARM_HI_KS:
                session.maximize(
                    k, eps=inputs.WARM_HI_EPS, batch_size=inputs.BATCH_SIZE
                )

            def call(op):
                return session.maximize(
                    op["k"], eps=op["eps"], batch_size=inputs.BATCH_SIZE
                )
        else:
            def call(op):
                return InfluenceMaximizer(graph).maximize(
                    op["k"], op["algorithm"], eps=op["eps"], seed=op["seed"],
                    batch_size=inputs.BATCH_SIZE,
                )

            for algorithm, k, eps in COLD_WARMUP[spec["workload"]]:
                call({"k": k, "algorithm": algorithm, "eps": eps, "seed": 0})
        self.call = call

    def run(self, plan: List[Dict], seconds: float) -> Tuple[List[Dict], float]:
        def do_op(index: int, op: Dict) -> Dict[str, Any]:
            began = time.perf_counter()
            with _span(self.rec, "op", "engine"):
                result = self.call(op)
            return _library_record(index, result, time.perf_counter() - began)

        return run_plan(plan, seconds, do_op)

    def counters(self) -> Dict[str, float]:
        return {}


class Serving:
    """serve-mixed: a closed-loop HTTP client against an in-process server.

    One client, so one query or delta is in flight at a time.  With two,
    a delta held every session lock while the other client waited, and on
    a host whose two cores slow down one at a time the median query flipped
    between the blocked and the unblocked mode from run to run.
    """

    def __init__(self, spec: Dict[str, Any], rec) -> None:
        self.spec = spec
        self.rec = rec
        self.server: Optional[QueryServer] = None
        self.client: Optional[ServeClient] = None

    def release(self) -> None:
        if self.server is not None:
            self.server.stop()
        self.server = self.client = None

    def setup(self) -> None:
        server = QueryServer(ServerConfig(seed=inputs.STATE_SEED))
        server.registry.add_path(SERVE_GRAPH, self.spec["graph"])
        self.server = server.start()
        self.client = ServeClient(*server.address, timeout=120.0)
        for tenant in inputs.SERVE_HOT_TENANTS:
            status, payload = self.client.query(
                SERVE_GRAPH, inputs.SERVE_K, tenant=tenant
            )
            if status != 200:
                raise RuntimeError(f"warm-up query failed: {status} {payload}")

    def _op(self, index: int, op: Dict) -> Dict[str, Any]:
        began = time.perf_counter()
        if op["kind"] == "delta":
            status, payload = self.client.delta(
                SERVE_GRAPH, updates=op["updates"]
            )
            return {
                "i": index, "kind": "delta", "ok": status == 200,
                "http": status, "latency_s": time.perf_counter() - began,
                "epoch": payload.get("delta_epoch"),
            }
        status, payload = self.client.query(
            SERVE_GRAPH, op["k"], tenant=op["tenant"]
        )
        latency = time.perf_counter() - began
        session = payload.get("session", {})
        return {
            "i": index, "kind": "query",
            "ok": (
                status == 200
                and payload.get("status") == "complete"
                and payload.get("certificate", {}).get("complete") is True
            ),
            "http": status, "status": payload.get("status"),
            "seeds": [int(s) for s in payload.get("seeds", [])],
            "latency_s": latency,
            "runtime_s": float(payload.get("runtime_seconds", 0.0)),
            "sets_generated": int(session.get("sets_generated", 0)),
            "sets_reused": int(session.get("sets_reused", 0)),
        }

    def run(self, plan: List[Dict], seconds: float) -> Tuple[List[Dict], float]:
        return run_plan(plan, seconds, self._op)

    def counters(self) -> Dict[str, float]:
        _, snapshot = self.client.metrics()
        return dict(snapshot.get("counters", {}))


def main(spec_path: str) -> int:
    spec = json.loads(Path(spec_path).read_text())
    rec = None
    if spec["trace"]:
        import spans

        rec = spans.install(spans.SpanRecorder())
    runner = (Serving if spec["workload"] == "serve-mixed" else Library)(
        spec, rec
    )
    reps = []
    rep_slowdowns = []
    try:
        for _ in range(spec["setup_reps"]):
            # Each set-up starts from the same heap, whenever the cyclic
            # collector last ran; without this, serve-mixed's resident set
            # spread twice as wide from run to run.
            runner.release()
            gc.collect()
            before = [probe() for _ in range(PROBE_SIDE)]
            began = time.perf_counter()
            with _span(rec, "setup", "engine"):
                runner.setup()
            reps.append(time.perf_counter() - began)
            rep_slowdowns.append(
                slowdown(before + [probe() for _ in range(PROBE_SIDE)])
            )
        plan = json.loads(Path(spec["plan"]).read_text())
        if rec is not None:
            rec.phase = "timed"
        with MemorySampler() as memory:
            ops, wall = runner.run(plan, spec["seconds"])
        if rec is not None:
            rec.phase = "done"
        counters = runner.counters()
    finally:
        runner.release()
    result: Dict[str, Any] = {
        "workload": spec["workload"],
        "import_s": IMPORT_S,
        "setup_reps_s": reps,
        "setup_slowdowns": rep_slowdowns,
        "wall_s": wall,
        "resident_mb": statistics.median(memory.resident_mb),
        "rss_mb": statistics.median(memory.rss_mb),
        "plan_exhausted": len(ops) == len(plan),
        "ops": ops,
        "counters": counters,
    }
    if rec is not None:
        rec.uninstall()
        result["per_layer"], result["unattributed"] = spans.per_layer_metrics(
            rec, ops, len(reps), wall, counters
        )
        Path(spec["trace_out"]).write_text(json.dumps(spans.dump(rec)))
    Path(spec["result"]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
