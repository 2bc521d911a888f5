"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import build_parser, main
from repro.graphs.generators import preferential_attachment
from repro.graphs.io import save_edge_list, save_npz
from repro.graphs.weights import wc_weights
from repro.utils.exceptions import GraphFormatError


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

    def test_bad_weight_parameter_rejected(self, weighted_npz, capsys):
        rc = main([
            "run", weighted_npz, "--k", "3", "--weights", "uniform:abc",
        ])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "uniform:abc" in err

    def test_bad_batch_size_rejected(self, weighted_npz, capsys):
        rc = main([
            "run", weighted_npz, "--algorithm", "subsim", "--k", "3",
            "--batch-size", "0",
        ])
        assert rc == 2
        assert "--batch-size" in capsys.readouterr().err


class TestQueryLoop:
    """``run``'s one query loop: a checkpointed single run, cold ``--ks``."""

    def _run(self, capsys, *argv):
        return main(["run", *argv]), capsys.readouterr()

    def test_cli_resume_matches_uninterrupted_run(
        self, wc_graph, tmp_path, capsys
    ):
        from repro.algorithms.opimc import OPIMC
        from repro.runtime import FaultInjector
        from repro.utils.exceptions import InjectedFault

        graph_path = str(tmp_path / "g.npz")
        save_npz(wc_graph, graph_path)
        ckpt = tmp_path / "run.ckpt.npz"
        with pytest.raises(InjectedFault):
            OPIMC(wc_graph).run(
                8, eps=0.25, seed=11, checkpoint=ckpt,
                fault_injector=FaultInjector(at_rr_set=900),
            )
        assert ckpt.exists()
        query = [graph_path, "--algorithm", "opim-c", "--k", "8",
                 "--eps", "0.25", "--seed", "11"]
        rc, baseline = self._run(capsys, *query)
        assert rc == 0
        metrics = tmp_path / "m.json"
        rc, resumed = self._run(
            capsys, *query, "--checkpoint", str(ckpt), "--resume",
            "--metrics-out", str(metrics),
        )
        assert rc == 0
        base, again = json.loads(baseline.out), json.loads(resumed.out)
        assert again["status"] == "complete"
        assert again["seeds"] == base["seeds"]
        assert again["num_rr_sets"] == base["num_rr_sets"]
        assert not ckpt.exists()
        # The resumed run started from the saved round: it wrote fewer
        # round checkpoints than the same query run from scratch would.
        fresh_metrics = tmp_path / "fresh.json"
        rc, _ = self._run(
            capsys, *query, "--checkpoint", str(tmp_path / "fresh.npz"),
            "--metrics-out", str(fresh_metrics),
        )
        assert rc == 0
        saves = [
            json.loads(path.read_text())["counters"].get(
                "runtime.checkpoint_saves", 0
            )
            for path in (metrics, fresh_metrics)
        ]
        assert saves[0] < saves[1]

    def test_cold_ks_match_separate_runs(self, weighted_npz, capsys):
        common = ["--algorithm", "subsim", "--eps", "0.4", "--seed", "5"]
        rc, out = self._run(capsys, weighted_npz, "--ks", "2,3", *common)
        assert rc == 0
        payload = json.loads(out.out)
        assert payload["session"] == {"reuse_pool": False}
        for entry in payload["queries"]:
            rc, single = self._run(
                capsys, weighted_npz, "--k", str(entry["k"]), *common
            )
            assert rc == 0
            assert json.loads(single.out)["seeds"] == entry["seeds"]

    def test_resume_without_checkpoint_rejected(self, weighted_npz, capsys):
        rc, out = self._run(capsys, weighted_npz, "--k", "3", "--resume")
        assert rc == 2
        assert "--checkpoint" in out.err

    def test_ks_checked_against_n_before_the_first_query(
        self, weighted_npz, monkeypatch, capsys
    ):
        from repro.algorithms.base import IMAlgorithm

        calls = []
        original = IMAlgorithm.run

        def counting_run(self, *args, **kwargs):
            calls.append(args)
            return original(self, *args, **kwargs)

        monkeypatch.setattr(IMAlgorithm, "run", counting_run)
        rc, out = self._run(
            capsys, weighted_npz, "--algorithm", "subsim", "--ks", "3,400"
        )
        assert rc == 2
        assert "--ks" in out.err and "400" in out.err
        assert calls == []


class TestLoadRetries:
    def _flaky_loader(self, monkeypatch, failures):
        from repro.graphs import io

        real = io.load_graph_auto
        calls = []

        def flaky(path):
            calls.append(path)
            if len(calls) <= failures:
                raise GraphFormatError(f"{path}: flap") from OSError("mount")
            return real(path)

        monkeypatch.setattr(io, "load_graph_auto", flaky)
        return calls

    @pytest.mark.parametrize("retries, code", [(2, 0), (1, 2)])
    def test_transient_failures_retried(
        self, weighted_npz, monkeypatch, capsys, retries, code
    ):
        calls = self._flaky_loader(monkeypatch, failures=2)
        rc = main([
            "run", weighted_npz, "--algorithm", "degree", "--k", "2",
            "--load-retries", str(retries),
        ])
        assert rc == code
        assert len(calls) == retries + 1
        if code == 2:
            assert "flap" in capsys.readouterr().err

    def test_negative_load_retries_rejected(self, weighted_npz, capsys):
        rc = main([
            "run", weighted_npz, "--algorithm", "degree", "--k", "2",
            "--load-retries", "-1",
        ])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error:")


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

    def test_serve_loads_through_the_server_registry(
        self, weighted_npz, monkeypatch, capsys
    ):
        import signal

        import repro.serving
        from repro.serving import QueryServer

        built = []

        class RecordingServer(QueryServer):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                built.append(self)

        def pause():
            raise KeyboardInterrupt

        monkeypatch.setattr(repro.serving, "QueryServer", RecordingServer)
        monkeypatch.setattr(signal, "pause", pause)
        rc = main([
            "serve", "--graph", f"demo={weighted_npz}", "--port", "0",
            "--seed", "11",
        ])
        assert rc == 0
        assert "serving ['demo']" in capsys.readouterr().out
        (server,) = built
        assert "demo" in server.registry
        # Graph loads use the retry policy built from the server config,
        # so their jitter is seeded with --seed.
        assert server.registry._retry.seed == 11


    def test_bad_weight_scheme_exits_before_binding(
        self, weighted_npz, monkeypatch, capsys
    ):
        import signal

        def pause():
            raise KeyboardInterrupt

        # A daemon that did start would return 0 from this pause.
        monkeypatch.setattr(signal, "pause", pause)
        rc = main([
            "serve", "--graph", f"demo={weighted_npz}", "--port", "0",
            "--weights", "nonsense",
        ])
        assert rc == 2
        captured = capsys.readouterr()
        assert "serving" not in captured.out
        assert captured.err.startswith("error:")
        assert "unknown weight scheme" in captured.err


    def test_config_flags_default_to_server_config(self):
        import dataclasses

        from repro.serving import ServerConfig

        args = vars(build_parser().parse_args(["serve", "--graph", "g=x"]))
        fields = {f.name for f in dataclasses.fields(ServerConfig)}
        named = {dest: args[dest] for dest in fields & set(args)}
        assert named.pop("port") == 8337
        assert named and set(named.values()) == {None}

    def test_only_typed_flags_reach_the_config(
        self, weighted_npz, monkeypatch, capsys
    ):
        import signal

        import repro.serving
        from repro.serving import QueryServer, ServerConfig

        built = []

        class RecordingServer(QueryServer):
            def __init__(self, config, *args, **kwargs):
                super().__init__(config, *args, **kwargs)
                built.append(config)

        def pause():
            raise KeyboardInterrupt

        monkeypatch.setattr(repro.serving, "QueryServer", RecordingServer)
        monkeypatch.setattr(signal, "pause", pause)
        rc = main([
            "serve", "--graph", f"demo={weighted_npz}", "--port", "0",
            "--workers", "3",
        ])
        assert rc == 0
        assert "3 workers" in capsys.readouterr().out
        (config,) = built
        defaults = ServerConfig()
        assert config.workers == 3
        assert config.port == 0
        for name in ("host", "max_pending", "algorithm", "eps", "seed",
                     "query_retries", "snapshot_every"):
            assert getattr(config, name) == getattr(defaults, name), name

    def test_eps_outside_unit_interval_exits_before_binding(
        self, weighted_npz, monkeypatch, capsys
    ):
        import signal

        from repro.serving import QueryServer

        def pause():
            raise KeyboardInterrupt

        def start(self):
            raise AssertionError("the daemon bound a port")

        # A daemon that did start would return 0 from this pause.
        monkeypatch.setattr(signal, "pause", pause)
        monkeypatch.setattr(QueryServer, "start", start)
        rc = main([
            "serve", "--graph", f"demo={weighted_npz}", "--port", "0",
            "--eps", "5",
        ])
        assert rc == 2
        captured = capsys.readouterr()
        assert "serving" not in captured.out
        assert "eps must lie in (0, 1)" in captured.err
