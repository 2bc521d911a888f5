"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import build_parser, main
from repro.graphs.generators import preferential_attachment
from repro.graphs.io import save_edge_list, save_npz
from repro.graphs.weights import wc_weights


@pytest.fixture
def graph_file(tmp_path):
    g = preferential_attachment(150, 3, seed=1, reciprocal=0.3)
    path = tmp_path / "g.txt"
    save_edge_list(g, path)
    return str(path)


@pytest.fixture
def weighted_npz(tmp_path):
    g = wc_weights(preferential_attachment(150, 3, seed=1, reciprocal=0.3))
    path = tmp_path / "g.npz"
    save_npz(g, path)
    return str(path)


class TestGenerate:
    def test_pa_with_weights(self, tmp_path, capsys):
        out = tmp_path / "out.npz"
        rc = main([
            "generate", "--model", "pa", "--n", "200", "--degree", "3",
            "--weights", "wc", "--seed", "1", "--output", str(out),
        ])
        assert rc == 0
        assert out.exists()
        assert "200 nodes" in capsys.readouterr().out

    def test_dataset_standin(self, tmp_path):
        out = tmp_path / "d.npz"
        rc = main([
            "generate", "--model", "pokec-like", "--scale", "0.02",
            "--output", str(out),
        ])
        assert rc == 0

    def test_edge_list_output(self, tmp_path):
        out = tmp_path / "g.txt"
        rc = main([
            "generate", "--model", "er", "--n", "100", "--degree", "2",
            "--output", str(out),
        ])
        assert rc == 0
        assert out.read_text().startswith("#")

    def test_bad_weight_scheme(self, tmp_path, capsys):
        rc = main([
            "generate", "--model", "pa", "--n", "50", "--degree", "2",
            "--weights", "nonsense", "--output", str(tmp_path / "x.npz"),
        ])
        assert rc == 2
        assert "unknown weight scheme" in capsys.readouterr().err


class TestSummarize:
    def test_prints_stats(self, weighted_npz, capsys):
        assert main(["summarize", weighted_npz]) == 0
        out = capsys.readouterr().out
        assert "150" in out
        assert "avg_degree" in out


class TestRun:
    def test_json_output(self, weighted_npz, capsys):
        rc = main([
            "run", weighted_npz, "--algorithm", "subsim", "--k", "3",
            "--eps", "0.4", "--seed", "0",
        ])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload["seeds"]) == 3
        assert payload["algorithm"] == "opim-c+subsim"

    def test_weights_applied_on_the_fly(self, graph_file, capsys):
        rc = main([
            "run", graph_file, "--algorithm", "degree", "--k", "2",
            "--weights", "wc",
        ])
        assert rc == 0
        assert len(json.loads(capsys.readouterr().out)["seeds"]) == 2

    def test_evaluate_flag(self, weighted_npz, capsys):
        rc = main([
            "run", weighted_npz, "--algorithm", "degree", "--k", "2",
            "--evaluate", "--simulations", "50",
        ])
        assert rc == 0
        assert "expected_spread" in json.loads(capsys.readouterr().out)

    def test_batch_size_flag(self, weighted_npz, capsys):
        rc = main([
            "run", weighted_npz, "--algorithm", "subsim", "--k", "3",
            "--eps", "0.4", "--seed", "0", "--batch-size", "64",
        ])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload["seeds"]) == 3
        assert payload["status"] == "complete"

    def test_bad_batch_size_rejected(self, weighted_npz, capsys):
        rc = main([
            "run", weighted_npz, "--algorithm", "subsim", "--k", "3",
            "--batch-size", "0",
        ])
        assert rc == 2
        assert "--batch-size" in capsys.readouterr().err


class TestEvaluate:
    def test_spread_of_explicit_seeds(self, weighted_npz, capsys):
        rc = main([
            "evaluate", weighted_npz, "--seeds", "0,1,2",
            "--simulations", "50",
        ])
        assert rc == 0
        assert "expected spread" in capsys.readouterr().out


class TestAudit:
    def test_certificate_printed(self, weighted_npz, capsys):
        rc = main([
            "audit", weighted_npz, "--seeds", "0,1,2", "--k", "3",
            "--num-rr", "2000",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "certificate" in out
        assert "OPT_3" in out

    def test_attribution_flag(self, weighted_npz, capsys):
        rc = main([
            "audit", weighted_npz, "--seeds", "0,1", "--k", "2",
            "--num-rr", "1000", "--attribution", "--simulations", "30",
        ])
        assert rc == 0
        assert "attribution" in capsys.readouterr().out

    def test_empty_seed_error(self, weighted_npz, capsys):
        rc = main([
            "audit", weighted_npz, "--seeds", "0", "--k", "0",
        ])
        assert rc == 2


class TestCalibrate:
    def test_wc_variant(self, graph_file, capsys):
        rc = main([
            "calibrate", graph_file, "--mode", "wc-variant", "--target", "20",
        ])
        assert rc == 0
        assert "theta" in capsys.readouterr().out

    def test_uniform(self, graph_file, capsys):
        rc = main([
            "calibrate", graph_file, "--mode", "uniform", "--target", "20",
        ])
        assert rc == 0
        assert "p =" in capsys.readouterr().out


class TestRRStats:
    def test_compares_generators(self, weighted_npz, capsys):
        rc = main([
            "rr-stats", weighted_npz, "--count", "200",
            "--generators", "vanilla,subsim",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "vanilla" in out and "subsim" in out

    def test_unknown_generator(self, weighted_npz, capsys):
        rc = main(["rr-stats", weighted_npz, "--generators", "warp-drive"])
        assert rc == 2


class TestProfile:
    def test_prints_distribution(self, weighted_npz, capsys):
        rc = main(["profile", weighted_npz, "--count", "200"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "RR-set size profile" in out
        assert "p99" in out

    def test_with_sentinels(self, weighted_npz, capsys):
        rc = main([
            "profile", weighted_npz, "--count", "100", "--sentinels", "0,1",
        ])
        assert rc == 0

    def test_bad_sentinel(self, weighted_npz):
        rc = main([
            "profile", weighted_npz, "--count", "10", "--sentinels", "99999",
        ])
        assert rc == 2


class TestStability:
    def test_report_printed(self, weighted_npz, capsys):
        rc = main([
            "stability", weighted_npz, "--algorithm", "degree", "--k", "3",
            "--runs", "2", "--simulations", "20",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "seed-set stability" in out
        assert "core seeds" in out


class TestExperiment:
    def test_table2(self, capsys):
        rc = main(["experiment", "table2", "--scale", "0.02"])
        assert rc == 0
        assert "pokec-like" in capsys.readouterr().out


class TestReport:
    def test_report_from_fixture_dir(self, tmp_path, capsys):
        results = tmp_path / "results"
        results.mkdir()
        (results / "fig1_wc_running_time.txt").write_text("body\n")
        rc = main(["report", "--results-dir", str(results)])
        assert rc == 0
        assert "Reproduction report" in capsys.readouterr().out

    def test_report_missing_dir_errors(self, tmp_path, capsys):
        rc = main(["report", "--results-dir", str(tmp_path / "nope")])
        assert rc == 2


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_algorithm_choices_validated(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "g", "--algorithm", "x", "--k", "1"])


class TestInterrupt:
    """Ctrl-C during ``run`` degrades to a partial result + exit 130."""

    def _stub_algorithm(self, monkeypatch, behavior):
        class Stub:
            def run(self, k, **kwargs):
                return behavior(k, kwargs)

        monkeypatch.setattr(
            "repro.cli.get_algorithm", lambda *a, **kw: Stub()
        )

    def test_sigint_prints_partial_and_exits_130(
        self, weighted_npz, monkeypatch, capsys
    ):
        import signal as signal_module

        from repro.core.results import IMResult
        from repro.utils.exceptions import CancelledError

        def behavior(k, kwargs):
            token = kwargs["cancel"]
            assert token is not None and not token.cancelled
            # Simulate Ctrl-C mid-run: the CLI's handler must cancel the
            # token instead of letting KeyboardInterrupt unwind the stack.
            signal_module.raise_signal(signal_module.SIGINT)
            assert token.cancelled
            try:
                token.raise_if_cancelled()
            except CancelledError:
                pass
            return IMResult(
                algorithm="subsim", seeds=[1, 2], k=k, eps=0.3, delta=0.01,
                runtime_seconds=0.1, lower_bound=10.0, upper_bound=40.0,
                status="partial", stop_reason="cancelled",
            )

        self._stub_algorithm(monkeypatch, behavior)
        rc = main(["run", weighted_npz, "--algorithm", "subsim", "--k", "2"])
        captured = capsys.readouterr()
        assert rc == 130
        payload = json.loads(captured.out)
        assert payload["status"] == "partial"
        assert payload["stop_reason"] == "cancelled"
        assert payload["certificate"]["complete"] is False
        assert payload["certificate"]["ratio"] == 0.25
        assert "partial results" in captured.err

    def test_hard_keyboard_interrupt_exits_130_without_traceback(
        self, weighted_npz, monkeypatch, capsys
    ):
        def behavior(k, kwargs):
            raise KeyboardInterrupt

        self._stub_algorithm(monkeypatch, behavior)
        rc = main(["run", weighted_npz, "--algorithm", "subsim", "--k", "2"])
        assert rc == 130
        assert "interrupted" in capsys.readouterr().err

    def test_budget_partial_keeps_exit_zero(self, weighted_npz, capsys):
        rc = main([
            "run", weighted_npz, "--algorithm", "subsim", "--k", "5",
            "--eps", "0.4", "--max-edges", "1",
        ])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["status"] == "partial"
        assert payload["certificate"]["complete"] is False


class TestServeCli:
    def test_query_subcommand_against_live_server(self, capsys):
        from repro.graphs.generators import preferential_attachment
        from repro.serving import GraphRegistry, QueryServer, ServerConfig

        graph = wc_weights(
            preferential_attachment(120, 3, seed=1, reciprocal=0.3)
        )
        registry = GraphRegistry()
        registry.add_graph("pa", graph)
        with QueryServer(
            ServerConfig(eps=0.4, seed=3), registry=registry
        ) as server:
            host, port = server.address
            rc = main([
                "query", "--host", host, "--port", str(port),
                "--graph", "pa", "--k", "3", "--tenant", "cli",
            ])
            out = json.loads(capsys.readouterr().out)
            assert rc == 0
            assert out["status"] == "complete"
            assert len(out["seeds"]) == 3

            rc = main([
                "query", "--host", host, "--port", str(port),
                "--graph", "ghost", "--k", "3",
            ])
            assert rc == 2

    def test_bad_graph_spec_rejected(self, capsys):
        rc = main(["serve", "--graph", "no-equals-sign"])
        assert rc == 2
        assert "NAME=PATH" in capsys.readouterr().err


class TestShardsFlag:
    """``--shards`` backs a ``--ks ... --reuse-pool`` session."""

    def test_run_with_shards(self, weighted_npz, capsys):
        rc = main([
            "run", weighted_npz, "--algorithm", "subsim", "--ks", "3",
            "--reuse-pool", "--eps", "0.4", "--seed", "3", "--shards", "2",
            "--batch-size", "16",
        ])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        (query,) = payload["queries"]
        assert query["status"] == "complete"
        assert len(query["seeds"]) == 3

    def test_ks_share_one_warm_pool(self, weighted_npz, capsys):
        rc = main([
            "run", weighted_npz, "--algorithm", "subsim",
            "--ks", "2,3", "--reuse-pool", "--eps", "0.4", "--seed", "3",
            "--shards", "2", "--batch-size", "16",
        ])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert [q["k"] for q in payload["queries"]] == [2, 3]
        assert payload["queries"][1]["session"]["sets_reused"] > 0

    def test_shards_without_reuse_pool_rejected(self, weighted_npz, capsys):
        rc = main([
            "run", weighted_npz, "--algorithm", "subsim", "--ks", "2,3",
            "--seed", "3", "--shards", "2",
        ])
        assert rc == 2
        assert "--reuse-pool" in capsys.readouterr().err

    def test_unshardable_algorithm_rejected(self, weighted_npz, capsys):
        rc = main([
            "run", weighted_npz, "--algorithm", "ssa", "--ks", "2",
            "--reuse-pool", "--seed", "3", "--shards", "2",
        ])
        assert rc == 2
        assert "shards=None" in capsys.readouterr().err

    def test_spill_dir_without_shards_rejected(self, weighted_npz, capsys):
        rc = main([
            "run", weighted_npz, "--ks", "3", "--reuse-pool", "--seed", "1",
            "--spill-dir", "/tmp/nope",
        ])
        assert rc == 2
        assert "spill" in capsys.readouterr().err.lower()
