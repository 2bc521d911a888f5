"""End-to-end query benchmark: four workloads, one command, per-layer trace.

Run from the repository root::

    python3 benchmarks/e2e/run.py --seed 1                   # every workload
    python3 benchmarks/e2e/run.py --workload cold-wc --seed 1 --trace 0
    python3 benchmarks/e2e/run.py --seed 1 --trace           # per-layer metrics
    python3 benchmarks/e2e/run.py --seed 1 --smoke           # tiny sizes
    python3 benchmarks/e2e/run.py --seed 1 --repeat 5 --out DIR
    python3 benchmarks/e2e/run.py --compare BASE_DIR NEW_DIR
    python3 benchmarks/e2e/run.py --summarize DIR [DIR ...]

The parent turns the seed into inputs (``.npz`` graphs and an op plan per
workload, under ``benchmarks/e2e/.cache``), runs each workload in its own
fresh child process (``workloads.py``), verifies the answers against
held-out RR pools (``verify.py``) and prints every metric of
``BENCHMARK.json`` as ``<workload> <metric> <value> <unit>``.  Reported
times are adjusted for the host's speed (see :func:`adjusted`); the ``#``
line of each workload gives the raw ones beside them.  End-to-end
metrics come from an untraced run; ``--trace`` runs the same workload with
spans on (``spans.py``) and prints the per-layer metrics instead.  The last
line of output is one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics``.  Every run also writes that record, with its seed, trace
mode, run length and core count, to a result file under ``--out``.

The timed phase lasts ``run_seconds`` of ``BENCHMARK.json`` (1.5 s with
``--smoke``), so every run of every commit measures the same length; a
``--seconds`` that says otherwise is refused, and ``--compare`` refuses to
pool runs of different lengths, scales or core counts.

The exit status is 1 when an answer fails verification or an op fails, and
2 when the library sources are missing or the arguments are refused.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
BENCHMARK = ROOT / "BENCHMARK.json"
RESULTS = HERE / "results"
RUNS = RESULTS / "runs"
#: the child must end within this many seconds of the start, so that with
#: verification one invocation stays under 180 s
DEADLINE_S = 150.0
SMOKE_SECONDS = 1.5
#: a traced run fails when more of the queries' wall time than this share
#: falls outside every named layer
UNATTRIBUTED_MAX = 0.05


def load_benchmark() -> Dict[str, Any]:
    return json.loads(BENCHMARK.read_text())


def adjusted(op: Dict[str, Any]) -> float:
    """An op's latency divided by the host's slowdown around it: seconds
    on the calibration host while it is idle (see ``workloads.probe``)."""
    return op["latency_s"] / op["slowdown"]


def latencies(child: Dict[str, Any], kind: str) -> List[float]:
    """Adjusted latencies of the successful ops of one kind."""
    return [
        adjusted(op) for op in child["ops"] if op["kind"] == kind and op["ok"]
    ]


def setup_time(child: Dict[str, Any]) -> float:
    """Import time plus the median set-up, each adjusted like an op."""
    slowdowns = child["setup_slowdowns"]
    reps = [t / s for t, s in zip(child["setup_reps_s"], slowdowns)]
    return child["import_s"] / slowdowns[0] + statistics.median(reps)


def end_to_end(child: Dict[str, Any], ratios: List[float]) -> Dict[str, float]:
    queries = latencies(child, "query")
    busy = sum(adjusted(op) for op in child["ops"])
    return {
        "setup_s": setup_time(child),
        "query_p50_s": statistics.median(queries) if queries else 0.0,
        "qps": len(queries) / busy if busy else 0.0,
        "resident_mb": child["resident_mb"],
        "spread_ratio": statistics.median(ratios) if ratios else 0.0,
    }


def run_info(child: Dict[str, Any]) -> Dict[str, Any]:
    """What the ``#`` line reports beside the metrics: the highest
    query-latency percentile with ten samples beyond it, the median delta
    latency, the host's median slowdown, the raw (unadjusted) median
    latency, throughput and set-up time, and the median resident set."""
    queries = latencies(child, "query")
    deltas = latencies(child, "delta")
    raw = [
        op["latency_s"] for op in child["ops"]
        if op["kind"] == "query" and op["ok"]
    ]
    pct = int(100 * (1 - 10 / len(queries))) if queries else 0
    info: Dict[str, Any] = {
        "queries": len(queries),
        "deltas": len(deltas),
        "slowdown": statistics.median(op["slowdown"] for op in child["ops"]),
        "raw_query_p50_s": statistics.median(raw) if raw else 0.0,
        "raw_qps": len(raw) / child["wall_s"],
        "raw_setup_s": child["import_s"] + statistics.median(
            child["setup_reps_s"]
        ),
        "rss_mb": child["rss_mb"],
    }
    if pct > 50:
        info["tail_pct"] = pct
        info["tail_s"] = statistics.quantiles(
            queries, n=100, method="inclusive"
        )[pct - 1]
    if deltas:
        info["delta_p50_s"] = statistics.median(deltas)
    return info


def describe_info(workload: str, info: Dict[str, Any]) -> str:
    text = f"# {workload}: {info['queries']} queries"
    if "tail_pct" in info:
        text += f", p{info['tail_pct']} {info['tail_s']:.4f} s (10 beyond)"
    if info["deltas"]:
        text += f", {info['deltas']} deltas, p50 {info['delta_p50_s']:.4f} s"
    text += (
        f"; host slowdown {info['slowdown']:.3f}, raw p50 "
        f"{info['raw_query_p50_s']:.4f} s, raw qps {info['raw_qps']:.4g}, "
        f"raw setup {info['raw_setup_s']:.4f} s, rss {info['rss_mb']:.1f} MiB"
    )
    if "unattributed" in info:
        text += f"; no layer claims {info['unattributed']:.2%} of query time"
    return text


def describe_failure(workload: str, op: Dict[str, Any]) -> str:
    detail = op.get("error") or op.get("status") or op.get("http")
    return f"{workload} op {op['i']} ({op['kind']}) failed: {detail}"


def run_child(workload: str, seed: int, seconds: float, trace: bool,
              smoke: bool) -> Tuple[Dict[str, Any], List[Dict[str, Any]]]:
    """Prepare the inputs, run the workload's child process, and return its
    result with the op plan it ran."""
    import inputs

    began = time.monotonic()
    plan = inputs.make_plan(workload, seed, seconds, smoke)
    graph = inputs.graph_path(inputs.GRAPH_OF[workload], smoke)
    tag = f"{workload}-{os.getpid()}"
    files = {
        name: inputs.CACHE / f"{name}-{tag}.json"
        for name in ("spec", "plan", "result")
    }
    RESULTS.mkdir(parents=True, exist_ok=True)
    files["plan"].write_text(json.dumps(plan))
    files["spec"].write_text(json.dumps({
        "workload": workload,
        "seconds": seconds,
        "trace": trace,
        "setup_reps": inputs.sizes(smoke).setup_reps,
        "graph": str(graph),
        "plan": str(files["plan"]),
        "result": str(files["result"]),
        "trace_out": str(RESULTS / f"trace-{workload}.json"),
    }))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC), str(HERE)]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "workloads.py"), str(files["spec"])],
            env=env, capture_output=True, text=True,
            timeout=max(DEADLINE_S - (time.monotonic() - began), 30.0),
        )
        if proc.returncode != 0:
            raise RuntimeError(
                f"{workload}: child exited {proc.returncode}\n{proc.stderr}"
            )
        child = json.loads(files["result"].read_text())
    finally:
        for path in files.values():
            path.unlink(missing_ok=True)
    return child, plan


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 smoke: bool, bench: Dict[str, Any]) -> Dict[str, Any]:
    """Run one workload, verify its answers, and build the result record."""
    import verify

    child, plan = run_child(workload, seed, seconds, trace, smoke)
    errors, ratios = verify.verify(workload, smoke, child["ops"], plan)
    failed = [op for op in child["ops"] if not op["ok"]]
    errors = [describe_failure(workload, op) for op in failed] + errors
    if child["plan_exhausted"]:
        errors.append(f"{workload}: the op plan ran out before the deadline")
    info = run_info(child)
    if trace:
        info["unattributed"] = child["unattributed"]
        values = child["per_layer"]
        specs = bench["per_layer"]
        # A smoke query takes milliseconds, so fixed per-call costs (HTTP,
        # result assembly) outweigh every layer there; the check is for the
        # real sizes.
        if not smoke and child["unattributed"] > UNATTRIBUTED_MAX:
            errors.append(
                f"{workload}: the named layers miss "
                f"{child['unattributed']:.1%} of the queries' wall time"
            )
    else:
        values = end_to_end(child, ratios)
        specs = bench["end_to_end"]
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "smoke": smoke,
        "cpus": os.cpu_count(),
        "correct": not errors,
        "attempted": len(child["ops"]),
        "failed": len(failed),
        "errors": errors,
        "info": info,
        "latencies_s": {
            kind: latencies(child, kind) for kind in ("query", "delta")
        },
        "metrics": {
            spec["name"]: {"value": float(values[spec["name"]]),
                           "unit": spec["unit"]}
            for spec in specs
        },
    }


def write_record(record: Dict[str, Any], out: Path) -> Path:
    out.mkdir(parents=True, exist_ok=True)
    mode = "trace" if record["trace"] else "e2e"
    path = out / (
        f"{record['workload']}-seed{record['seed']}-{mode}-"
        f"{time.time_ns()}.json"
    )
    path.write_text(json.dumps(record, indent=1))
    return path


def final_line(records: List[Dict[str, Any]]) -> Dict[str, Any]:
    """The closing JSON object; several records report per-workload medians
    under ``<workload>/<metric>``."""
    if len(records) == 1:
        metrics = records[0]["metrics"]
    else:
        grouped: Dict[str, List[float]] = {}
        units: Dict[str, str] = {}
        for record in records:
            for name, metric in record["metrics"].items():
                key = f"{record['workload']}/{name}"
                grouped.setdefault(key, []).append(metric["value"])
                units[key] = metric["unit"]
        metrics = {
            key: {"value": statistics.median(values), "unit": units[key]}
            for key, values in grouped.items()
        }
    return {
        "correct": all(r["correct"] for r in records),
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": metrics,
    }


# ----------------------------------------------------------------------
# comparing and summarizing result files
# ----------------------------------------------------------------------

def load_records(folder: Path) -> List[Dict[str, Any]]:
    """The untraced result files in ``folder``."""
    records = [
        json.loads(path.read_text())
        for path in sorted(Path(folder).glob("*.json"))
    ]
    return [record for record in records if not record.get("trace")]


def metric_table(
    records: List[Dict[str, Any]]
) -> Dict[str, Dict[str, List[float]]]:
    """workload -> metric -> values."""
    table: Dict[str, Dict[str, List[float]]] = {}
    for record in records:
        rows = table.setdefault(record["workload"], {})
        for name, metric in record["metrics"].items():
            rows.setdefault(name, []).append(float(metric["value"]))
    return table


def spread(values: List[float]) -> float:
    """Distance between the quartiles as a share of the median."""
    if len(values) < 2:
        return 0.0
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median if median else 0.0


def verdict(base: List[float], new: List[float], better: str,
            bound: float) -> str:
    """ok / regressed / unresolved for one (workload, metric) pair.

    The new median may be worse than the base median by at most ``bound``
    (a share of the base median).  When the base runs spread wider than the
    bound the difference cannot be resolved, unless every new run reads
    better than every base run.
    """
    base_median = statistics.median(base)
    new_median = statistics.median(new)
    lower_is_better = better == "lower"
    if spread(base) > bound:
        if lower_is_better:
            all_better = max(new) < min(base)
        else:
            all_better = min(new) > max(base)
        return "ok" if all_better else "unresolved"
    change = (new_median - base_median) / base_median if base_median else 0.0
    worse = change if lower_is_better else -change
    return "regressed" if worse > bound else "ok"


#: record fields that must match across every run a comparison pools
SETTINGS = ("seconds", "smoke", "cpus")


def compare(base_dir: Path, new_dir: Path, bench: Dict[str, Any]) -> int:
    base_records = load_records(base_dir)
    new_records = load_records(new_dir)
    settings = {
        tuple(record.get(key) for key in SETTINGS)
        for record in base_records + new_records
    }
    if len(settings) > 1:
        print("error: the runs differ in " + ", ".join(SETTINGS) + ": "
              + "; ".join(map(str, sorted(settings, key=str))),
              file=sys.stderr)
        return 2
    base = metric_table(base_records)
    new = metric_table(new_records)
    failures = 0
    print(f"{'workload':<12} {'metric':<14} {'base':>12} {'new':>12} "
          f"{'change':>8} {'spread':>7} {'bound':>6}  verdict")
    for workload in sorted(set(base) & set(new)):
        for metric in bench["end_to_end"]:
            name = metric["name"]
            a = base[workload].get(name)
            b = new[workload].get(name)
            if not a or not b:
                continue
            result = verdict(a, b, metric["better"], metric["bound"])
            failures += result != "ok"
            base_median = statistics.median(a)
            change = (
                (statistics.median(b) - base_median) / base_median
                if base_median else 0.0
            )
            print(f"{workload:<12} {name:<14} {base_median:>12.6g} "
                  f"{statistics.median(b):>12.6g} {change:>+8.1%} "
                  f"{spread(a):>7.1%} {metric['bound']:>6.0%}  {result}")
    return 1 if failures else 0


def summarize(folders: List[Path]) -> Dict[str, Any]:
    """Median, quartiles and extremes of every metric in each folder, with
    the seeds, run lengths and core counts of its runs."""
    summary: Dict[str, Any] = {}
    for folder in folders:
        records = load_records(folder)
        rows: Dict[str, Any] = {}
        for workload, metrics in metric_table(records).items():
            rows[workload] = {}
            for name, values in metrics.items():
                median = statistics.median(values)
                q1, _, q3 = (
                    statistics.quantiles(values, n=4)
                    if len(values) > 1 else (median, median, median)
                )
                rows[workload][name] = {
                    "runs": len(values),
                    "median": median,
                    "q1": q1,
                    "q3": q3,
                    "min": min(values),
                    "max": max(values),
                    "range_share": (max(values) - min(values)) / median
                    if median else 0.0,
                }
        summary[Path(folder).name] = {
            key: sorted({record[key] for record in records})
            for key in ("seed", "seconds", "cpus")
        }
        summary[Path(folder).name]["workloads"] = rows
    return summary


# ----------------------------------------------------------------------

def parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        description="End-to-end query benchmark (see benchmarks/e2e/README.md)."
    )
    parser.add_argument("--workload", choices=(
        "cold-wc", "cold-hi", "warm-hi", "serve-mixed"
    ), help="run one workload (default: all four, one after another)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="the timed phase per workload, which is fixed: "
                        "BENCHMARK.json run_seconds, 1.5 with --smoke; "
                        "accepted so that a harness can state the length it "
                        "expects, and refused if it differs")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1),
                        help="1: record spans and print per-layer metrics")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny graphs, one set-up repetition")
    parser.add_argument("--repeat", type=int, default=1,
                        help="run everything this many times")
    parser.add_argument("--out", type=Path, default=RUNS,
                        help="directory for one result file per run")
    parser.add_argument("--compare", nargs=2, type=Path,
                        metavar=("BASE", "NEW"),
                        help="compare two directories of result files")
    parser.add_argument("--summarize", nargs="+", type=Path, metavar="DIR",
                        help="print median, quartiles and range per metric")
    return parser.parse_args(argv)


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    if args.compare:
        return compare(args.compare[0], args.compare[1], load_benchmark())
    if args.summarize:
        print(json.dumps(summarize(args.summarize), indent=1))
        return 0
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: library sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    from inputs import WORKLOADS

    bench = load_benchmark()
    seconds = SMOKE_SECONDS if args.smoke else float(bench["run_seconds"])
    if args.seconds is not None and args.seconds != seconds:
        print(f"error: the timed phase is fixed at {seconds:g} s, "
              f"got --seconds {args.seconds:g}", file=sys.stderr)
        return 2
    workloads = [args.workload] if args.workload else list(WORKLOADS)
    records = []
    for _ in range(args.repeat):
        for workload in workloads:
            record = run_workload(
                workload, args.seed, seconds, bool(args.trace), args.smoke,
                bench,
            )
            for name, metric in record["metrics"].items():
                print(f"{workload} {name} {metric['value']!r} {metric['unit']}")
            print(describe_info(workload, record["info"]))
            for error in record["errors"]:
                print(f"error: {error}", file=sys.stderr)
            write_record(record, args.out)
            records.append(record)
    print(json.dumps(final_line(records)))
    return 0 if all(r["correct"] for r in records) else 1


if __name__ == "__main__":
    sys.exit(main())
