"""Tests of the end-to-end benchmark harness (not part of the tier-1 suite).

    PYTHONPATH=src python -m pytest benchmarks/e2e/test_e2e.py -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import inputs  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(*args: str, timeout: float = 120.0) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(HERE / "run.py"), *args],
        cwd=ROOT, capture_output=True, text=True, timeout=timeout,
    )


# ----------------------------------------------------------------------
# span recorder
# ----------------------------------------------------------------------

def test_install_then_uninstall_restores_identical_objects():
    rec = spans.SpanRecorder()
    spans.install(rec)
    patched = rec.patched
    try:
        assert {f"{owner.__name__}.{attr}" for owner, attr, _ in patched} == {
            "repro.graphs.io.load_graph_auto",
            "GraphRegistry.get",
            "repro.sampling.precompute.build_uniform_arrays",
            "repro.sampling.precompute.build_sorted_segments",
            "RRBank.ensure",
            "ShardedRRBank.ensure",
            "repro.engine.schedule.ensure_pair",
            "repro.algorithms.opimc.run_doubling",
            "repro.algorithms.hist.run_doubling",
            "repro.algorithms.hist.max_coverage_greedy",
            "RRCollection.coverage",
            "SentinelSetPhase.run",
            "RRBank.repair",
            "QuerySession.apply_delta",
            "QuerySession.maximize",
            "QueryServer._execute",
            "QueryServer.apply_delta_request",
        }
        for owner, attr, original in patched:
            assert vars(owner)[attr] is not original
    finally:
        rec.uninstall()
    for owner, attr, original in patched:
        assert vars(owner)[attr] is original
    assert rec.patched == []


def _span(name, layer, start, end, parent=-1, op=-1):
    return spans.Span(name, layer, start, end, parent=parent, op=op)


def test_self_time_subtracts_only_the_covered_part_of_children():
    recorded = [
        _span("root", spans.ENGINE, 0.0, 10.0, op=0),
        _span("gen", spans.GENERATE, 1.0, 4.0, parent=0, op=0),
        _span("inner", spans.GENERATE, 2.0, 3.0, parent=1, op=0),
        _span("select", spans.SELECT, 5.0, 9.0, parent=0, op=0),
        # a second thread's root overlapping the first: never subtracted
        _span("other", spans.SERVING, 2.0, 8.0, op=4),
        _span("repair", spans.REPAIR, 3.0, 6.0, parent=4, op=4),
    ]
    assert spans.self_times(recorded) == pytest.approx(
        [3.0, 2.0, 1.0, 4.0, 3.0, 3.0]
    )
    per_op = spans.layer_self_times(recorded)
    assert per_op[0] == pytest.approx(
        {spans.ENGINE: 3.0, spans.GENERATE: 3.0, spans.SELECT: 4.0}
    )
    assert sum(per_op[0].values()) == pytest.approx(10.0)
    assert sum(per_op[4].values()) == pytest.approx(6.0)


def test_unattributed_share_flags_time_no_layer_claims():
    wall = 10.0
    covered = [
        _span("op", spans.ENGINE, 0.0, 10.0, op=0),
        _span("gen", spans.GENERATE, 0.1, 4.0, parent=0, op=0),
        _span("select", spans.SELECT, 4.0, 9.9, parent=0, op=0),
    ]
    assert spans.unattributed_share(
        covered, spans.self_times(covered), [0], wall
    ) == pytest.approx(0.02)
    # the same query with 2 s that no wrapper covers
    uncovered = [
        _span("op", spans.ENGINE, 0.0, 10.0, op=0),
        _span("gen", spans.GENERATE, 0.1, 4.0, parent=0, op=0),
        _span("select", spans.SELECT, 6.0, 9.9, parent=0, op=0),
    ]
    share = spans.unattributed_share(
        uncovered, spans.self_times(uncovered), [0], wall
    )
    assert share == pytest.approx(0.22) and share > run.UNATTRIBUTED_MAX
    # time the load generator saw outside the root span counts as missed
    assert spans.unattributed_share(
        covered, spans.self_times(covered), [0], 12.5
    ) == pytest.approx(2.7 / 12.5)


def test_span_stacks_are_thread_local():
    rec = spans.SpanRecorder()
    barrier = threading.Barrier(2)

    def work(name):
        with rec.span(name, spans.SERVING):
            barrier.wait(timeout=10)
            with rec.span(f"{name}.child", spans.GENERATE):
                time.sleep(0.01)
            barrier.wait(timeout=10)

    threads = [threading.Thread(target=work, args=(n,)) for n in ("a", "b")]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=10)
        assert not thread.is_alive()
    by_name = {s.name: i for i, s in enumerate(rec.spans)}
    for name in ("a", "b"):
        root = by_name[name]
        child = rec.spans[by_name[f"{name}.child"]]
        assert rec.spans[root].parent == -1
        assert child.parent == root and child.op == root
    own = spans.layer_self_times(rec.spans)
    for name in ("a", "b"):
        root = by_name[name]
        assert sum(own[root].values()) == pytest.approx(
            rec.spans[root].duration
        )


# ----------------------------------------------------------------------
# the command
# ----------------------------------------------------------------------

def _printed_metrics(stdout: str):
    names = {}
    for line in stdout.splitlines()[:-1]:
        if line.startswith("#"):
            continue
        workload, name, _value, _unit = line.split()
        names.setdefault(workload, set()).add(name)
    return names


@pytest.mark.parametrize("trace,section", [("0", "end_to_end"),
                                           ("1", "per_layer")])
def test_smoke_run_prints_every_metric(tmp_path, trace, section):
    began = time.monotonic()
    proc = _bench("--smoke", "--seed", "3", "--trace", trace,
                  "--out", str(tmp_path))
    assert time.monotonic() - began < 60
    assert proc.returncode == 0, proc.stderr
    final = json.loads(proc.stdout.splitlines()[-1])
    assert final["correct"] and final["failed"] == 0 and final["attempted"] > 0
    expected = {metric["name"] for metric in BENCH[section]}
    printed = _printed_metrics(proc.stdout)
    assert set(printed) == set(inputs.WORKLOADS)
    for names in printed.values():
        assert names == expected
    assert len(list(tmp_path.glob("*.json"))) == len(inputs.WORKLOADS)


@pytest.mark.parametrize("workload", ["cold-wc", "cold-hi", "warm-hi"])
def test_same_seed_gives_identical_answers(workload):
    first, plan = run.run_child(workload, 5, 1.0, False, True)
    second, again = run.run_child(workload, 5, 1.0, False, True)
    assert plan == again
    count = min(len(first["ops"]), len(second["ops"]))
    assert count > 0
    keys = ("i", "seeds", "num_rr_sets", "edges_examined", "sets_generated")
    for a, b in zip(first["ops"][:count], second["ops"][:count]):
        assert {key: a[key] for key in keys} == {key: b[key] for key in keys}


def test_same_seed_gives_identical_serving_plan():
    graph = inputs.build_graph("wc", smoke=True)

    def plan(seed):
        rng = np.random.default_rng(
            inputs.derive_seed(seed, "plan", "serve-mixed")
        )
        return inputs.plan_serve_mixed(rng, 60, graph)

    assert plan(7) == plan(7)
    assert plan(7) != plan(8)
    assert any(op["kind"] == "delta" for op in plan(7))


def test_without_library_sources_it_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns(".cache", "results",
                                                  "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", "cold-wc",
         "--seed", "1", "--seconds", str(BENCH["run_seconds"]),
         "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_a_run_length_other_than_the_fixed_one_is_refused():
    proc = _bench("--workload", "cold-wc", "--seed", "1",
                  "--seconds", str(BENCH["run_seconds"] + 1), "--trace", "0")
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "fixed" in proc.stderr


def test_serving_answers_are_checked_on_the_graph_they_saw(monkeypatch):
    import verify
    from repro.coverage.greedy import max_coverage_greedy
    from repro.graphs import io

    count = inputs.SMOKE.pool_sets
    graph = io.load_npz(inputs.graph_path("wc", True))
    selection = verify.cached_pool(
        inputs.CACHE / f"pool-{inputs.graph_tag('wc', True)}-F-{count}.npz",
        graph, verify.pool_seed("wc", "F"), count,
    )
    greedy = [
        int(s) for s in max_coverage_greedy(
            selection, select=inputs.SERVE_K, track_upper_bound=False
        ).seeds
    ]
    src, dst, _ = graph.edges()
    update = [[int(src[0]), int(dst[0]), 0.5]]
    plan = [
        {"kind": "query", "tenant": "t", "k": inputs.SERVE_K},
        {"kind": "delta", "updates": update},
        {"kind": "query", "tenant": "t", "k": inputs.SERVE_K},
        {"kind": "query", "tenant": "t", "k": inputs.SERVE_K},
        {"kind": "delta", "updates": update},
    ]
    ops = [
        {"i": i, "kind": op["kind"], "ok": True, "seeds": greedy}
        for i, op in enumerate(plan)
    ]
    ops[1]["epoch"] = 1
    ops[4]["epoch"] = 3  # the server skipped one: replay reaches 2
    drawn = []
    draw_pool = verify.draw_pool

    def spy(pool_graph, seed, pool_count):
        drawn.append(pool_graph.delta_epoch)
        return draw_pool(pool_graph, seed, pool_count)

    monkeypatch.setattr(verify, "draw_pool", spy)
    errors, ratios = verify.verify("serve-mixed", True, ops, plan)
    # one fresh pool, for epoch 1, shared by both of its queries; epoch 2
    # answered nothing and epoch 0 reads the cached base pool
    assert drawn == [1]
    assert ratios == pytest.approx([1.0, 1.0, 1.0])
    assert len(errors) == 1 and "epoch 3" in errors[0]


# ----------------------------------------------------------------------
# comparing result sets
# ----------------------------------------------------------------------

def _write_runs(folder: Path, p50_scale: float, seconds: float = 25.0) -> None:
    folder.mkdir()
    for index, wobble in enumerate((1.0, 1.005, 0.995)):
        values = {
            "setup_s": 2.0 * wobble,
            "query_p50_s": 0.5 * wobble * p50_scale,
            "qps": 2.0 / wobble,
            "resident_mb": 150.0 * wobble,
            "spread_ratio": 0.99 * wobble,
        }
        record = {
            "workload": "cold-wc", "trace": False,
            "seconds": seconds, "smoke": False, "cpus": 2,
            "metrics": {
                name: {"value": value, "unit": "x"}
                for name, value in values.items()
            },
        }
        (folder / f"run-{index}.json").write_text(json.dumps(record))


def test_compare_flags_a_20_percent_p50_regression(tmp_path, capsys):
    _write_runs(tmp_path / "base", 1.0)
    _write_runs(tmp_path / "same", 1.0)
    _write_runs(tmp_path / "slow", 1.2)
    assert run.compare(tmp_path / "base", tmp_path / "same", BENCH) == 0
    same = capsys.readouterr().out
    assert "regressed" not in same and "unresolved" not in same
    assert run.compare(tmp_path / "base", tmp_path / "slow", BENCH) == 1
    rows = {
        line.split()[1]: line.split()[-1]
        for line in capsys.readouterr().out.splitlines()[1:]
    }
    assert rows.pop("query_p50_s") == "regressed"
    assert set(rows.values()) == {"ok"}


def test_compare_refuses_runs_of_another_length(tmp_path, capsys):
    _write_runs(tmp_path / "base", 1.0)
    _write_runs(tmp_path / "short", 1.0, seconds=10.0)
    assert run.compare(tmp_path / "base", tmp_path / "short", BENCH) == 2
    assert "differ" in capsys.readouterr().err


def test_verdict_is_unresolved_when_the_base_spreads_wider_than_the_bound():
    base = [1.0, 1.3, 0.8, 1.1]
    assert run.verdict(base, [1.05, 1.1, 1.0], "lower", 0.1) == "unresolved"
    assert run.verdict(base, [0.5, 0.6, 0.55], "lower", 0.1) == "ok"
    assert run.verdict([1.0, 1.0], [1.2, 1.2], "higher", 0.1) == "ok"
    assert run.verdict([1.0, 1.0], [0.8, 0.8], "higher", 0.1) == "regressed"
