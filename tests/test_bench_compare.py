"""Unit tests for the nightly benchmark regression gate (tools/bench_compare.py)."""

import importlib.util
import json
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "bench_compare",
    Path(__file__).resolve().parents[1] / "tools" / "bench_compare.py",
)
bench_compare = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_compare)


def _nested(dotted, value):
    """The smallest document whose ``dotted`` path holds ``value``."""
    doc = value
    for part in reversed(dotted.split(".")):
        doc = {"x" if part == "*" else part: doc}
    return doc


def write_results(root, rrgen=8.0, generalw=(10.0, 160.0)):
    """One file per gate headline; the two named ones are tunable."""
    root.mkdir(parents=True, exist_ok=True)
    for filename, dotted, _ in bench_compare.HEADLINES:
        (root / filename).write_text(json.dumps(_nested(dotted, 5.0)))
    (root / "BENCH_rrgen.json").write_text(json.dumps({
        "generators": {"subsim": {"batched_speedup": rrgen}}
    }))
    (root / "BENCH_generalw.json").write_text(json.dumps({
        "workloads": {
            "subsim-skewed": {"batched_speedup": generalw[0]},
            "lt": {"batched_speedup": generalw[1]},
        }
    }))


@pytest.fixture
def dirs(tmp_path):
    base = tmp_path / "baseline"
    cur = tmp_path / "current"
    write_results(base)
    return base, cur


class TestCompare:
    def test_identical_results_pass(self, dirs, capsys):
        base, cur = dirs
        write_results(cur)
        assert bench_compare.main(
            ["--baseline-dir", str(base), "--current-dir", str(cur)]
        ) == 0
        out = capsys.readouterr().out
        assert "within threshold" in out

    def test_small_drift_tolerated(self, dirs):
        base, cur = dirs
        write_results(cur, rrgen=6.5, generalw=(8.0, 130.0))
        assert bench_compare.main(
            ["--baseline-dir", str(base), "--current-dir", str(cur)]
        ) == 0

    def test_large_regression_fails(self, dirs, capsys):
        base, cur = dirs
        write_results(cur, rrgen=2.0)  # 8.0 -> 2.0: way past 25%
        assert bench_compare.main(
            ["--baseline-dir", str(base), "--current-dir", str(cur)]
        ) == 1
        out = capsys.readouterr().out
        assert "FAIL" in out and "generators.subsim.batched_speedup" in out

    def test_wildcard_covers_each_workload(self, dirs, capsys):
        base, cur = dirs
        write_results(cur, generalw=(10.0, 40.0))  # only lt regresses
        assert bench_compare.main(
            ["--baseline-dir", str(base), "--current-dir", str(cur)]
        ) == 1
        out = capsys.readouterr().out
        assert "workloads.lt.batched_speedup" in out
        assert "FAIL" in out

    def test_commit_message_waiver_downgrades_failure(self, dirs, capsys):
        base, cur = dirs
        write_results(cur, rrgen=2.0)
        code = bench_compare.main([
            "--baseline-dir", str(base),
            "--current-dir", str(cur),
            "--commit-message",
            "tune the kernel\n\nknown slowdown [bench-waiver]",
        ])
        assert code == 0
        assert "WAIVED" in capsys.readouterr().out

    def test_missing_files_fail_the_gate(self, dirs, capsys):
        base, cur = dirs
        write_results(cur)
        (base / "BENCH_rrgen.json").unlink()  # no committed baseline
        (cur / "BENCH_generalw.json").unlink()  # not produced this run
        assert bench_compare.main(
            ["--baseline-dir", str(base), "--current-dir", str(cur)]
        ) == 1
        out = capsys.readouterr().out
        # A headline that cannot be checked is a failure, never a skip:
        # otherwise coverage could be lost silently.
        assert "FAIL  BENCH_rrgen.json: no committed baseline" in out
        assert "FAIL  BENCH_generalw.json: not produced" in out

    def test_baseline_without_headline_path_fails(self, dirs, capsys):
        base, cur = dirs
        write_results(cur)
        (base / "BENCH_rrgen.json").write_text(json.dumps({"other": 1.0}))
        assert bench_compare.main(
            ["--baseline-dir", str(base), "--current-dir", str(cur)]
        ) == 1
        out = capsys.readouterr().out
        assert "FAIL  BENCH_rrgen.json: baseline lacks" in out

    def test_committed_results_pass_against_themselves(self, capsys):
        results = (
            Path(__file__).resolve().parents[1] / "benchmarks" / "results"
        )
        assert bench_compare.main(
            ["--baseline-dir", str(results), "--current-dir", str(results)]
        ) == 0

    def test_metric_vanishing_from_current_fails(self, dirs):
        base, cur = dirs
        write_results(cur)
        (cur / "BENCH_generalw.json").write_text(
            json.dumps({"workloads": {"lt": {"batched_speedup": 160.0}}})
        )
        assert bench_compare.main(
            ["--baseline-dir", str(base), "--current-dir", str(cur)]
        ) == 1


class TestResolvePath:
    def test_plain_path(self):
        doc = {"a": {"b": 2.5}}
        assert dict(bench_compare.resolve_path(doc, "a.b")) == {"a.b": 2.5}

    def test_wildcard_is_sorted_and_numeric_only(self):
        doc = {"w": {"y": {"m": 2.0}, "x": {"m": 1.0}, "z": {"m": "no"}}}
        assert list(bench_compare.resolve_path(doc, "w.*.m")) == [
            ("w.x.m", 1.0), ("w.y.m", 2.0),
        ]

    def test_missing_path_yields_nothing(self):
        assert list(bench_compare.resolve_path({"a": 1}, "b.c")) == []

    def test_headlines_cover_committed_results(self):
        """Every committed full-size result file has a headline extractor."""
        results = (
            Path(__file__).resolve().parents[1] / "benchmarks" / "results"
        )
        covered = {filename for filename, _, _ in bench_compare.HEADLINES}
        for path in results.glob("BENCH_*.json"):
            if path.name.endswith("_quick.json"):
                continue
            assert path.name in covered, f"no headline metric for {path.name}"
            doc = json.loads(path.read_text())
            dotted = next(
                d for f, d, _ in bench_compare.HEADLINES if f == path.name
            )
            assert dict(bench_compare.resolve_path(doc, dotted)), (
                f"{path.name}: headline path {dotted!r} resolves to nothing"
            )
