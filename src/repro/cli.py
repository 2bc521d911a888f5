"""Command-line interface: ``python -m repro <command>``.

Subcommands mirror the library's workflow:

* ``generate`` — build a synthetic graph (optionally weighted) and save it.
* ``summarize`` — print Table-2 style statistics of a graph file.
* ``run`` — run an IM algorithm on a graph file and print the seeds.
* ``evaluate`` — Monte-Carlo spread of an explicit seed list.
* ``calibrate`` — find the WC-variant theta / uniform p for a target
  average RR-set size.
* ``rr-stats`` — average RR-set size and generation cost per generator.
* ``experiment`` — regenerate one of the paper's figures/tables.
* ``serve`` / ``query`` — run the resilient multi-tenant query daemon and
  talk to it.

Every command accepts ``--seed`` for reproducibility.  Ctrl-C during
``run`` cancels cooperatively: the partial result (with its
``complete=False`` certificate) is printed and the process exits with
code 130 instead of a traceback.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
from typing import List, Optional

import numpy as np

from repro.core.registry import available_algorithms, get_algorithm
from repro.estimation.montecarlo import estimate_spread
from repro.experiments import calibration, figures, workloads
from repro.experiments.reporting import render_table
from repro.graphs import generators, io, stats, weights
from repro.graphs.csr import CSRGraph
from repro.rrsets.lt import LTGenerator
from repro.rrsets.subsim import SubsimICGenerator
from repro.rrsets.vanilla import VanillaICGenerator
from repro.runtime.budget import Budget
from repro.utils.exceptions import ReproError

#: exit code for a run interrupted by Ctrl-C (after printing the partial
#: result + certificate) — 128 + SIGINT, distinct from error exit 2
EXIT_INTERRUPTED = 130

_GENERATOR_CLASSES = {
    "vanilla": VanillaICGenerator,
    "subsim": SubsimICGenerator,
    "lt": LTGenerator,
}

_FIGURES = {
    "table2": lambda args: workloads.table2_rows(scale=args.scale, seed=args.seed),
    "fig1": lambda args: figures.figure1_rows(scale=args.scale, seed=args.seed),
    "fig2": lambda args: figures.figure2_rows(scale=args.scale, seed=args.seed),
    "fig3": lambda args: figures.figure3_rows(scale=args.scale, seed=args.seed),
    "fig4": lambda args: figures.figure4_rows(scale=args.scale, seed=args.seed),
    "fig5": lambda args: figures.figure5_rows(scale=args.scale, seed=args.seed),
    "fig6": lambda args: figures.figure6_rows(scale=args.scale, seed=args.seed),
    "fig7": lambda args: figures.figure7_rows(scale=args.scale, seed=args.seed),
}


def _load(path: str, retries: int = 0) -> CSRGraph:
    """Load a graph file; transient I/O failures retry when ``retries`` > 0.

    Text edge lists go through :func:`repro.graphs.io.load_graph_auto`,
    which prefers (and maintains) a fresh ``<path>.graph.npz`` binary
    sidecar — repeat CLI invocations on large text graphs skip the parse.
    """
    return io.load_graph_auto(path, retries=retries)


def _write_json(path: str, payload) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")


def _save(graph: CSRGraph, path: str) -> None:
    if path.endswith(".npz"):
        io.save_npz(graph, path)
    else:
        io.save_edge_list(graph, path)


def _apply_weights(graph: CSRGraph, scheme: str, seed: int) -> CSRGraph:
    """Apply a weight scheme named like "wc", "wc-variant:2.5", "uniform:0.01"."""
    return weights.apply_scheme(graph, scheme, seed=seed)


class _SigintCancel:
    """Turn Ctrl-C into a cooperative cancellation instead of a traceback.

    While active, the first SIGINT cancels the run's
    :class:`~repro.runtime.cancellation.CancellationToken`, so the
    algorithm degrades to a ``status="partial"`` result whose certificate
    the CLI then prints; a second SIGINT restores the default behavior
    (hard exit) in case the run ignores the token.
    """

    def __init__(self) -> None:
        from repro.runtime.cancellation import CancellationToken

        self.token = CancellationToken()
        self._previous = None

    def _handle(self, signum, frame) -> None:
        self.token.cancel("cancelled")
        print("interrupt: finishing with partial results "
              "(Ctrl-C again to force quit)", file=sys.stderr)
        if self._previous is not None:
            signal.signal(signal.SIGINT, self._previous)

    def __enter__(self) -> "_SigintCancel":
        try:
            self._previous = signal.signal(signal.SIGINT, self._handle)
        except ValueError:  # not the main thread; run uninterruptible
            self._previous = None
        return self

    def __exit__(self, *exc_info) -> None:
        if self._previous is not None:
            signal.signal(signal.SIGINT, self._previous)
            self._previous = None


# ----------------------------------------------------------------------
# subcommand implementations
# ----------------------------------------------------------------------

def cmd_generate(args) -> int:
    if args.model == "pa":
        graph = generators.preferential_attachment(
            args.n, max(1, int(args.degree)), seed=args.seed,
            directed=not args.undirected, reciprocal=args.reciprocal,
        )
    elif args.model == "er":
        graph = generators.erdos_renyi(
            args.n, args.degree, seed=args.seed, directed=not args.undirected
        )
    elif args.model == "ws":
        graph = generators.watts_strogatz(
            args.n, max(1, int(args.degree)), args.beta, seed=args.seed
        )
    else:  # dataset stand-in
        graph = workloads.make_dataset(args.model, scale=args.scale, seed=args.seed)
    if args.weights:
        graph = _apply_weights(graph, args.weights, args.seed)
    _save(graph, args.output)
    print(f"wrote {graph.n} nodes / {graph.m} edges to {args.output}")
    return 0


def cmd_summarize(args) -> int:
    graph = _load(args.graph)
    summary = stats.graph_summary(graph)
    print(render_table([summary.as_row()], title=args.graph))
    return 0


def _run_payload(result, args, graph) -> dict:
    """The JSON block ``run`` prints for one query."""
    payload = {
        "algorithm": result.algorithm,
        "status": result.status,
        "seeds": result.seeds,
        "runtime_seconds": round(result.runtime_seconds, 4),
        "num_rr_sets": result.num_rr_sets,
        "average_rr_size": round(result.average_rr_size, 2),
        "certified_ratio": round(result.approx_ratio_certified, 4),
    }
    if result.is_partial:
        from repro.core.certify import partial_certificate

        certificate = partial_certificate(result)
        payload["stop_reason"] = result.stop_reason
        payload["certificate"] = {
            "ratio": round(certificate.ratio, 4),
            "lower_bound": round(certificate.lower_bound, 2),
            "upper_bound": (
                certificate.upper_bound
                if certificate.upper_bound == float("inf")
                else round(certificate.upper_bound, 2)
            ),
            "complete": certificate.complete,
        }
    if args.evaluate:
        spread = estimate_spread(
            graph, result.seeds,
            model="lt" if args.algorithm.endswith("-lt") else "ic",
            num_simulations=args.simulations, seed=args.seed,
        )
        payload["expected_spread"] = round(spread.mean, 2)
    return payload


def cmd_run(args) -> int:
    if (args.k is None) == (args.ks is None):
        raise ReproError("exactly one of --k or --ks is required")
    ks = None
    if args.ks is not None:
        ks = [int(s) for s in args.ks.split(",") if s.strip()]
        if not ks or any(k < 1 for k in ks):
            raise ReproError(f"--ks needs positive integers, got {args.ks!r}")
        if args.checkpoint or args.resume or args.report or args.trace_out:
            raise ReproError(
                "--ks is incompatible with --checkpoint/--resume/--report/"
                "--trace-out; those artifacts describe a single run"
            )
    # --ks already excludes --checkpoint/--resume, so a session (and the
    # shard runtime behind one) never meets a run-level checkpoint.
    if args.reuse_pool and ks is None:
        raise ReproError("--reuse-pool requires --ks (a multi-query run)")
    if (args.shards is not None or args.spill_dir) and not args.reuse_pool:
        raise ReproError(
            "--shards/--spill-dir require --reuse-pool: the shard workers "
            "back a multi-query session (--ks ... --reuse-pool --shards S)"
        )
    graph = _load(args.graph, retries=args.load_retries)
    if args.weights:
        graph = _apply_weights(graph, args.weights, args.seed)
    kwargs = {}
    if args.max_rr_sets and args.algorithm in ("imm", "tim+", "imm-lt"):
        kwargs["max_rr_sets"] = args.max_rr_sets

    def make_budget():
        if args.timeout is None and args.max_edges is None:
            return None
        return Budget(
            wall_clock_seconds=args.timeout,
            max_edges_examined=args.max_edges,
        )

    if args.resume and not args.checkpoint:
        raise ReproError("--resume requires --checkpoint")
    if args.batch_size < 1:
        raise ReproError(f"--batch-size must be >= 1, got {args.batch_size}")
    want_metrics = bool(args.metrics_out or args.report)
    want_trace = bool(args.trace_out or args.report)
    metrics = None
    if want_metrics:
        from repro.observability import MetricsRegistry

        metrics = MetricsRegistry()

    if ks is not None:
        queries = []
        cancelled = False
        with _SigintCancel() as interrupt:
            if args.reuse_pool:
                from repro.engine.session import QuerySession

                session = QuerySession(
                    graph, args.algorithm, seed=args.seed,
                    shards=args.shards, spill_dir=args.spill_dir, **kwargs
                )
                try:
                    for k in ks:
                        result = session.maximize(
                            k,
                            eps=args.eps,
                            budget=make_budget(),
                            cancel=interrupt.token,
                            batch_size=args.batch_size,
                            metrics=metrics,
                        )
                        entry = _run_payload(result, args, graph)
                        entry["k"] = k
                        entry["session"] = result.extras.get("session")
                        queries.append(entry)
                        if interrupt.token.cancelled:
                            cancelled = True
                            break
                    session_block = {
                        "reuse_pool": True,
                        "sets_generated": session.metrics.value(
                            "bank.sets_generated"
                        ),
                        "sets_reused": session.metrics.value("bank.sets_reused"),
                    }
                finally:
                    session.close()
            else:
                algo = get_algorithm(args.algorithm, graph, **kwargs)
                for k in ks:
                    result = algo.run(
                        k,
                        eps=args.eps,
                        seed=args.seed,
                        budget=make_budget(),
                        cancel=interrupt.token,
                        batch_size=args.batch_size,
                        metrics=metrics,
                    )
                    entry = _run_payload(result, args, graph)
                    entry["k"] = k
                    queries.append(entry)
                    if interrupt.token.cancelled:
                        cancelled = True
                        break
                session_block = {"reuse_pool": False}
        if args.metrics_out:
            _write_json(args.metrics_out, metrics.snapshot())
        print(json.dumps(
            {"queries": queries, "session": session_block},
            indent=2, default=int,
        ))
        return EXIT_INTERRUPTED if cancelled else 0

    algo = get_algorithm(args.algorithm, graph, **kwargs)
    with _SigintCancel() as interrupt:
        result = algo.run(
            args.k,
            eps=args.eps,
            seed=args.seed,
            budget=make_budget(),
            cancel=interrupt.token,
            checkpoint=args.checkpoint,
            checkpoint_every=args.checkpoint_every,
            resume=args.resume,
            batch_size=args.batch_size,
            metrics=metrics,
            trace=want_trace,
        )
    if args.metrics_out:
        _write_json(args.metrics_out, metrics.snapshot())
    if args.trace_out:
        _write_json(args.trace_out, result.extras.get("trace", {}))
    if args.report:
        from repro.observability import build_run_report

        build_run_report(
            result,
            graph,
            seed=args.seed,
            metrics=metrics,
            trace=result.extras.get("trace"),
        ).write(args.report)
    print(json.dumps(_run_payload(result, args, graph), indent=2, default=int))
    if result.is_partial and result.stop_reason == "cancelled":
        return EXIT_INTERRUPTED
    return 0


def cmd_evaluate(args) -> int:
    graph = _load(args.graph)
    if args.weights:
        graph = _apply_weights(graph, args.weights, args.seed)
    seeds = [int(s) for s in args.seeds.split(",")]
    spread = estimate_spread(
        graph, seeds, model=args.model,
        num_simulations=args.simulations, seed=args.seed,
    )
    lo, hi = spread.confidence_interval()
    print(f"expected spread: {spread.mean:.2f}  (95% CI {lo:.2f} - {hi:.2f})")
    return 0


def cmd_audit(args) -> int:
    from repro.core.certify import certify_result
    from repro.estimation.attribution import (
        attribution_table,
        marginal_contributions,
    )

    graph = _load(args.graph)
    if args.weights:
        graph = _apply_weights(graph, args.weights, args.seed)
    seeds = [int(s) for s in args.seeds.split(",")]
    cert = certify_result(
        graph, seeds, k=args.k, num_rr=args.num_rr,
        delta=args.delta, seed=args.seed,
    )
    print(
        f"certificate: I(S) >= {cert.ratio:.4f} * OPT_{args.k} "
        f"(lower {cert.lower_bound:.2f}, upper {cert.upper_bound:.2f}, "
        f"confidence {1 - cert.delta:g})"
    )
    if args.attribution:
        records = marginal_contributions(
            graph, seeds, num_simulations=args.simulations, seed=args.seed
        )
        print(render_table(attribution_table(records),
                           title="leave-one-out attribution"))
    return 0


def cmd_calibrate(args) -> int:
    graph = _load(args.graph)
    if args.mode == "wc-variant":
        value, _, achieved = calibration.calibrate_wc_variant(
            graph, args.target, seed=args.seed
        )
        label = "theta"
    else:
        value, _, achieved = calibration.calibrate_uniform_ic(
            graph, args.target, seed=args.seed
        )
        label = "p"
    print(f"{label} = {value:.6g}  (average RR size {achieved:.1f}, "
          f"target {args.target})")
    return 0


def cmd_rr_stats(args) -> int:
    graph = _load(args.graph)
    if args.weights:
        graph = _apply_weights(graph, args.weights, args.seed)
    rows = []
    for name in args.generators.split(","):
        try:
            cls = _GENERATOR_CLASSES[name]
        except KeyError:
            raise ReproError(
                f"unknown generator {name!r}; choose from "
                f"{sorted(_GENERATOR_CLASSES)}"
            ) from None
        generator = cls(graph)
        rng = np.random.default_rng(args.seed)
        import time

        start = time.perf_counter()
        for _ in range(args.count):
            generator.generate(rng)
        elapsed = time.perf_counter() - start
        rows.append(
            {
                "generator": name,
                "rr_sets": args.count,
                "runtime_s": round(elapsed, 4),
                "avg_rr_size": round(generator.counters.average_size(), 2),
                "edges_examined": generator.counters.edges_examined,
            }
        )
    print(render_table(rows, title="RR generation statistics"))
    return 0


def cmd_experiment(args) -> int:
    rows = _FIGURES[args.name](args)
    print(render_table(rows, title=f"{args.name} (scale={args.scale})"))
    return 0


def cmd_report(args) -> int:
    from repro.experiments.reportgen import generate_report

    text = generate_report(args.results_dir, output_path=args.output)
    if args.output:
        print(f"wrote report to {args.output}")
    else:
        print(text)
    return 0


def cmd_profile(args) -> int:
    from repro.experiments.profiles import profile_rr_sizes

    graph = _load(args.graph)
    if args.weights:
        graph = _apply_weights(graph, args.weights, args.seed)
    sentinel = (
        [int(s) for s in args.sentinels.split(",")] if args.sentinels else None
    )
    profile = profile_rr_sizes(
        graph,
        num_samples=args.count,
        sentinel_seeds=sentinel,
        seed=args.seed,
    )
    print(render_table([profile.summary_row()], title="RR-set size profile"))
    print(profile.histogram_chart())
    return 0


def _parse_graph_specs(specs: List[str]) -> List[tuple]:
    """Parse repeated ``--graph NAME=PATH`` arguments."""
    parsed = []
    for spec in specs:
        name, sep, path = spec.partition("=")
        if not sep or not name or not path:
            raise ReproError(
                f"--graph expects NAME=PATH, got {spec!r}"
            )
        parsed.append((name, path))
    return parsed


def _parse_tenant_byte_caps(specs) -> dict:
    """``NAME=BYTES`` pairs (repeatable ``--tenant-byte-cap``) to a dict."""
    caps = {}
    for spec in specs or []:
        name, sep, value = spec.partition("=")
        if not sep or not name:
            raise ReproError(
                f"--tenant-byte-cap expects NAME=BYTES, got {spec!r}"
            )
        try:
            caps[name] = int(value)
        except ValueError:
            raise ReproError(
                f"--tenant-byte-cap {spec!r}: {value!r} is not an integer"
            )
    return caps


def cmd_serve(args) -> int:
    from repro.serving import GraphRegistry, QueryServer, ServerConfig

    config = ServerConfig(
        host=args.host,
        port=args.port,
        workers=args.workers,
        max_pending=args.max_pending,
        algorithm=args.algorithm,
        eps=args.eps,
        seed=args.seed,
        byte_cap=args.byte_cap,
        tenant_byte_caps=_parse_tenant_byte_caps(args.tenant_byte_cap),
        default_deadline=args.default_deadline,
        lifetime_budget=Budget(
            max_edges_examined=args.max_edges,
            max_rr_sets=args.max_rr_sets,
        ),
        query_retries=args.query_retries,
        snapshot_dir=args.snapshot_dir,
        snapshot_every=args.snapshot_every,
        shards=args.shards,
        spill_dir=args.spill_dir,
    )
    registry = GraphRegistry()
    for name, path in _parse_graph_specs(args.graph):
        registry.add_path(name, path, weight_scheme=args.weights, seed=args.seed)
    server = QueryServer(config, registry=registry)
    server.start()
    host, port = server.address
    # flush: supervisors (and CI) read this banner through a pipe to
    # learn the bound port, so it must not sit in a block buffer.
    print(f"serving {registry.names()} on http://{host}:{port} "
          f"({config.workers} workers, algorithm {config.algorithm})",
          flush=True)
    try:
        while True:
            signal.pause()
    except KeyboardInterrupt:
        print("shutting down: draining workers and snapshotting sessions",
              file=sys.stderr)
    finally:
        server.stop()
    return 0


def cmd_query(args) -> int:
    from repro.serving import ServeClient

    client = ServeClient(args.host, args.port, timeout=args.timeout)
    status_code, payload = client.query(
        args.graph,
        args.k,
        tenant=args.tenant,
        eps=args.eps,
        deadline_seconds=args.deadline,
    )
    print(json.dumps(payload, indent=2, default=float))
    if status_code == 200:
        return 0
    if status_code == 429:
        return 3  # shed: the caller should back off and retry
    return 2


def _parse_edge_spec(text: str, with_prob: bool):
    parts = text.split(":")
    want = 3 if with_prob else 2
    if len(parts) != want:
        shape = "SRC:DST:PROB" if with_prob else "SRC:DST"
        raise ReproError(f"edge spec {text!r} must look like {shape}")
    try:
        if with_prob:
            return [int(parts[0]), int(parts[1]), float(parts[2])]
        return [int(parts[0]), int(parts[1])]
    except ValueError as exc:
        raise ReproError(f"invalid edge spec {text!r}: {exc}") from None


def cmd_delta(args) -> int:
    from repro.serving import ServeClient

    if args.file:
        with open(args.file, "r", encoding="utf-8") as handle:
            spec = json.load(handle)
        if not isinstance(spec, dict):
            raise ReproError("--file must hold a JSON object")
        inserts = spec.get("inserts")
        deletes = spec.get("deletes")
        updates = spec.get("updates")
    else:
        inserts = [_parse_edge_spec(s, True) for s in args.insert or []]
        deletes = [_parse_edge_spec(s, False) for s in args.delete or []]
        updates = [_parse_edge_spec(s, True) for s in args.update or []]
    if not (inserts or deletes or updates):
        raise ReproError(
            "nothing to apply: give --insert/--delete/--update or --file"
        )
    client = ServeClient(args.host, args.port, timeout=args.timeout)
    status_code, payload = client.delta(
        args.graph, inserts=inserts, deletes=deletes, updates=updates
    )
    print(json.dumps(payload, indent=2, default=float))
    return 0 if status_code == 200 else 2


def cmd_stability(args) -> int:
    from repro.experiments.stability import stability_report

    graph = _load(args.graph)
    if args.weights:
        graph = _apply_weights(graph, args.weights, args.seed)
    report = stability_report(
        graph,
        args.algorithm,
        args.k,
        eps=args.eps,
        runs=args.runs,
        num_simulations=args.simulations,
        seed=args.seed,
    )
    print(render_table([report.summary_row()], title="seed-set stability"))
    print(f"core seeds (in every run): {sorted(report.core_seeds)}")
    return 0


# ----------------------------------------------------------------------
# parser
# ----------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="SUBSIM + HIST influence maximization (SIGMOD 2020 repro)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="build a synthetic graph")
    p.add_argument(
        "--model",
        default="pa",
        choices=["pa", "er", "ws", *workloads.DATASET_NAMES],
    )
    p.add_argument("--n", type=int, default=10_000)
    p.add_argument("--degree", type=float, default=4.0)
    p.add_argument("--beta", type=float, default=0.1, help="WS rewiring prob")
    p.add_argument("--reciprocal", type=float, default=0.0)
    p.add_argument("--undirected", action="store_true")
    p.add_argument("--scale", type=float, default=0.1, help="dataset scale")
    p.add_argument("--weights", default=None, help="e.g. wc, uniform:0.01")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--output", required=True)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("summarize", help="print graph statistics")
    p.add_argument("graph")
    p.set_defaults(func=cmd_summarize)

    p = sub.add_parser("run", help="run an IM algorithm")
    p.add_argument("graph")
    p.add_argument("--algorithm", default="hist+subsim",
                   choices=available_algorithms())
    p.add_argument("--k", type=int, default=None,
                   help="seed-set size (exactly one of --k / --ks)")
    p.add_argument("--ks", default=None, metavar="K1,K2,...",
                   help="comma-separated seed-set sizes: run one query per "
                        "k and print a {queries, session} payload")
    p.add_argument("--reuse-pool", action="store_true",
                   help="serve --ks queries from one shared RR-set session "
                        "(later queries reuse earlier queries' RR sets)")
    p.add_argument("--eps", type=float, default=0.1)
    p.add_argument("--weights", default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-rr-sets", type=int, default=None)
    p.add_argument("--timeout", type=float, default=None, metavar="SECONDS",
                   help="wall-clock budget; expiry returns a partial result")
    p.add_argument("--max-edges", type=int, default=None,
                   help="edge-examination budget (machine-independent)")
    p.add_argument("--checkpoint", default=None, metavar="PATH",
                   help="persist round-boundary state to this .npz file")
    p.add_argument("--checkpoint-every", type=int, default=1, metavar="N",
                   help="save every N-th round boundary (default 1)")
    p.add_argument("--resume", action="store_true",
                   help="continue from --checkpoint if it exists")
    p.add_argument("--load-retries", type=int, default=0, metavar="N",
                   help="retry transient graph-load failures up to N times")
    p.add_argument("--batch-size", type=int, default=1, metavar="B",
                   help="grow B RR sets per vectorized batch (1 = exact "
                        "sequential semantics, the default)")
    p.add_argument("--shards", type=int, default=None, metavar="S",
                   help="back the --reuse-pool session with a persistent "
                        "pool of S shard workers (shared-memory graph, "
                        "shard-resident RR banks, scatter-gather selection)")
    p.add_argument("--spill-dir", default=None, metavar="DIR",
                   help="spill cold shard-resident RR pools (and shard "
                        "checkpoints) to this directory; requires --shards")
    p.add_argument("--metrics-out", default=None, metavar="PATH",
                   help="write the run's metrics-registry snapshot "
                        "(counters, gauges, histograms) as JSON")
    p.add_argument("--trace-out", default=None, metavar="PATH",
                   help="write the structured phase trace (span tree with "
                        "wall time, counter deltas, pool memory) as JSON")
    p.add_argument("--report", default=None, metavar="PATH",
                   help="write a full RunReport artifact (graph "
                        "fingerprint, config, counters, certificate); "
                        "implies metrics and tracing")
    p.add_argument("--evaluate", action="store_true")
    p.add_argument("--simulations", type=int, default=500)
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("evaluate", help="Monte-Carlo spread of given seeds")
    p.add_argument("graph")
    p.add_argument("--seeds", required=True, help="comma-separated node ids")
    p.add_argument("--model", default="ic", choices=["ic", "lt"])
    p.add_argument("--weights", default=None)
    p.add_argument("--simulations", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("audit", help="certify a seed set + attribute spread")
    p.add_argument("graph")
    p.add_argument("--seeds", required=True, help="comma-separated node ids")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--num-rr", type=int, default=20_000)
    p.add_argument("--delta", type=float, default=0.01)
    p.add_argument("--weights", default=None)
    p.add_argument("--attribution", action="store_true")
    p.add_argument("--simulations", type=int, default=300)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_audit)

    p = sub.add_parser("calibrate", help="tune theta/p for a target RR size")
    p.add_argument("graph")
    p.add_argument("--mode", default="wc-variant",
                   choices=["wc-variant", "uniform"])
    p.add_argument("--target", type=float, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_calibrate)

    p = sub.add_parser("rr-stats", help="RR generation cost per generator")
    p.add_argument("graph")
    p.add_argument("--generators", default="vanilla,subsim")
    p.add_argument("--count", type=int, default=1000)
    p.add_argument("--weights", default=None)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_rr_stats)

    p = sub.add_parser("experiment", help="regenerate a paper figure/table")
    p.add_argument("name", choices=sorted(_FIGURES))
    p.add_argument("--scale", type=float, default=0.05)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_experiment)

    p = sub.add_parser("report", help="aggregate benchmark results")
    p.add_argument("--results-dir", default="benchmarks/results")
    p.add_argument("--output", default=None)
    p.set_defaults(func=cmd_report)

    p = sub.add_parser("profile", help="RR-set size distribution")
    p.add_argument("graph")
    p.add_argument("--count", type=int, default=1000)
    p.add_argument("--weights", default=None)
    p.add_argument("--sentinels", default=None,
                   help="comma-separated ids enabling sentinel stop")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_profile)

    p = sub.add_parser("serve", help="run the multi-tenant query daemon")
    p.add_argument("--graph", action="append", required=True,
                   metavar="NAME=PATH",
                   help="register a graph file under NAME (repeatable)")
    p.add_argument("--weights", default=None,
                   help="weight scheme applied to every loaded graph")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=8337,
                   help="bind port (0 = ephemeral)")
    p.add_argument("--workers", type=int, default=2,
                   help="HTTP query worker threads")
    p.add_argument("--max-pending", type=int, default=8,
                   help="dispatch-queue bound; excess requests shed with 429")
    p.add_argument("--algorithm", default="subsim",
                   choices=available_algorithms())
    p.add_argument("--eps", type=float, default=0.3)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--byte-cap", type=int, default=None,
                   help="per-session RR-bank byte cap (eviction between "
                        "queries)")
    p.add_argument("--tenant-byte-cap", action="append", default=None,
                   metavar="NAME=BYTES",
                   help="per-tenant override of --byte-cap (repeatable); "
                        "tenants not listed fall back to the global cap")
    p.add_argument("--default-deadline", type=float, default=None,
                   metavar="SECONDS")
    p.add_argument("--max-edges", type=int, default=None,
                   help="lifetime edge-examination budget; exhaustion sheds "
                        "new requests")
    p.add_argument("--max-rr-sets", type=int, default=None,
                   help="lifetime RR-set budget; exhaustion sheds new "
                        "requests")
    p.add_argument("--query-retries", type=int, default=1)
    p.add_argument("--snapshot-dir", default=None,
                   help="session snapshot directory (enables crash recovery)")
    p.add_argument("--snapshot-every", type=int, default=1)
    p.add_argument("--shards", type=int, default=None, metavar="S",
                   help="back every tenant session with a persistent pool "
                        "of S shard workers (incompatible with "
                        "--snapshot-dir)")
    p.add_argument("--spill-dir", default=None, metavar="DIR",
                   help="root directory for shard spill/checkpoint files; "
                        "requires --shards")
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser("query", help="send one query to a running daemon")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=8337)
    p.add_argument("--graph", required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--tenant", default="default")
    p.add_argument("--eps", type=float, default=None)
    p.add_argument("--deadline", type=float, default=None, metavar="SECONDS")
    p.add_argument("--timeout", type=float, default=60.0,
                   help="client-side HTTP timeout")
    p.set_defaults(func=cmd_query)

    p = sub.add_parser(
        "delta", help="stream an edge delta to a running daemon"
    )
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=8337)
    p.add_argument("--graph", required=True)
    p.add_argument("--insert", action="append", metavar="SRC:DST:PROB",
                   help="insert one edge (repeatable)")
    p.add_argument("--delete", action="append", metavar="SRC:DST",
                   help="delete one edge (repeatable)")
    p.add_argument("--update", action="append", metavar="SRC:DST:PROB",
                   help="reweight one edge (repeatable)")
    p.add_argument("--file", default=None, metavar="JSON",
                   help="JSON file with inserts/deletes/updates lists "
                        "(overrides the per-edge flags)")
    p.add_argument("--timeout", type=float, default=60.0,
                   help="client-side HTTP timeout")
    p.set_defaults(func=cmd_delta)

    p = sub.add_parser("stability", help="seed-set stability across runs")
    p.add_argument("graph")
    p.add_argument("--algorithm", default="subsim",
                   choices=available_algorithms())
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--eps", type=float, default=0.3)
    p.add_argument("--runs", type=int, default=5)
    p.add_argument("--simulations", type=int, default=200)
    p.add_argument("--weights", default=None)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_stability)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except KeyboardInterrupt:
        # A Ctrl-C outside a cancellable run (or a forced second one):
        # still no traceback, and the exit code states what happened.
        print("error: interrupted", file=sys.stderr)
        return EXIT_INTERRUPTED


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
