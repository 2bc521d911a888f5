"""Unit tests for the serving-layer policies (no sockets involved)."""

import numpy as np
import pytest

from repro.core.results import IMResult
from repro.graphs.generators import preferential_attachment
from repro.graphs.io import save_edge_list, save_npz
from repro.graphs.weights import wc_weights
from repro.observability.registry import MetricsRegistry
from repro.runtime.budget import Budget
from repro.serving import (
    AdmissionController,
    CircuitBreaker,
    CircuitOpenError,
    GraphRegistry,
    RetryPolicy,
    ServerConfig,
    ServerFaultInjector,
    tenant_entropy,
)
from repro.utils.exceptions import (
    ConfigurationError,
    GraphFormatError,
    InjectedFault,
)


class TestRetryPolicy:
    def test_first_try_success_never_sleeps(self):
        sleeps = []
        policy = RetryPolicy(attempts=3, sleep=sleeps.append, seed=0)
        assert policy.call(lambda: 42) == 42
        assert sleeps == []

    def test_retries_then_succeeds(self):
        sleeps = []
        calls = {"n": 0}

        def flaky():
            calls["n"] += 1
            if calls["n"] < 3:
                raise OSError("flap")
            return "ok"

        policy = RetryPolicy(attempts=3, backoff=0.1, sleep=sleeps.append, seed=0)
        assert policy.call(flaky) == "ok"
        assert calls["n"] == 3
        assert len(sleeps) == 2
        # Exponential: second delay at least doubles the base.
        assert sleeps[1] > sleeps[0]

    def test_attempts_exhausted_reraises(self):
        policy = RetryPolicy(attempts=2, backoff=0.0, sleep=lambda _: None)
        with pytest.raises(OSError):
            policy.call(lambda: (_ for _ in ()).throw(OSError("down")))

    def test_non_transient_not_retried(self):
        calls = {"n": 0}

        def broken():
            calls["n"] += 1
            raise ValueError("format")

        policy = RetryPolicy(attempts=5, sleep=lambda _: None)
        with pytest.raises(ValueError):
            policy.call(broken, transient=lambda exc: isinstance(exc, OSError))
        assert calls["n"] == 1

    def test_max_total_wait_caps_retrying(self):
        sleeps = []
        policy = RetryPolicy(
            attempts=50,
            backoff=1.0,
            jitter=0.0,
            max_total_wait=5.0,
            sleep=sleeps.append,
        )
        with pytest.raises(OSError):
            policy.call(lambda: (_ for _ in ()).throw(OSError("down")))
        # Delays 1, 2 fit (total 3); the next (4) would blow the 5s cap.
        assert sleeps == [1.0, 2.0]
        assert sum(sleeps) <= 5.0

    def test_jitter_is_seeded(self):
        def delays(seed):
            sleeps = []
            policy = RetryPolicy(
                attempts=4, backoff=0.1, jitter=0.5, seed=seed,
                sleep=sleeps.append,
            )
            with pytest.raises(OSError):
                policy.call(lambda: (_ for _ in ()).throw(OSError("x")))
            return sleeps

        assert delays(7) == delays(7)
        assert delays(7) != delays(8)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            RetryPolicy(attempts=0)
        with pytest.raises(ConfigurationError):
            RetryPolicy(backoff=-1.0)
        with pytest.raises(ConfigurationError):
            RetryPolicy(max_total_wait=-0.1)


class TestCircuitBreaker:
    def _clock(self):
        state = {"t": 0.0}

        def advance(dt):
            state["t"] += dt

        return (lambda: state["t"]), advance

    def test_opens_after_threshold(self):
        clock, _ = self._clock()
        breaker = CircuitBreaker(threshold=2, cooldown=10.0, clock=clock)
        for _ in range(2):
            with pytest.raises(OSError):
                breaker.call(lambda: (_ for _ in ()).throw(OSError("x")))
        assert breaker.state == "open"
        with pytest.raises(CircuitOpenError) as info:
            breaker.call(lambda: "never runs")
        assert info.value.retry_after == pytest.approx(10.0)

    def test_half_open_probe_closes_on_success(self):
        clock, advance = self._clock()
        breaker = CircuitBreaker(threshold=1, cooldown=5.0, clock=clock)
        with pytest.raises(OSError):
            breaker.call(lambda: (_ for _ in ()).throw(OSError("x")))
        advance(6.0)
        assert breaker.state == "half-open"
        assert breaker.call(lambda: "recovered") == "recovered"
        assert breaker.state == "closed"

    def test_half_open_probe_reopens_on_failure(self):
        clock, advance = self._clock()
        breaker = CircuitBreaker(threshold=1, cooldown=5.0, clock=clock)
        with pytest.raises(OSError):
            breaker.call(lambda: (_ for _ in ()).throw(OSError("x")))
        advance(6.0)
        with pytest.raises(OSError):
            breaker.call(lambda: (_ for _ in ()).throw(OSError("still down")))
        assert breaker.state == "open"

    def test_success_resets_failure_count(self):
        breaker = CircuitBreaker(threshold=2)
        with pytest.raises(OSError):
            breaker.call(lambda: (_ for _ in ()).throw(OSError("x")))
        breaker.call(lambda: "fine")
        with pytest.raises(OSError):
            breaker.call(lambda: (_ for _ in ()).throw(OSError("x")))
        assert breaker.state == "closed"


def _result(edges=100, rr_sets=10, avg_size=3.0):
    return IMResult(
        algorithm="subsim",
        seeds=[1],
        k=1,
        eps=0.3,
        delta=0.01,
        runtime_seconds=0.1,
        num_rr_sets=rr_sets,
        average_rr_size=avg_size,
        edges_examined=edges,
    )


class TestAdmissionController:
    def test_unlimited_budget_always_admits(self):
        controller = AdmissionController(Budget(), metrics=MetricsRegistry())
        for _ in range(5):
            assert controller.admit() is None
            controller.record_spend(_result())

    def test_sheds_after_edge_budget_spent(self):
        metrics = MetricsRegistry()
        controller = AdmissionController(
            Budget(max_edges_examined=150), metrics=metrics
        )
        assert controller.admit() is None
        controller.record_spend(_result(edges=200))
        assert controller.admit() == "edges_examined"
        assert metrics.value("serving.shed") == 1
        assert metrics.value("serving.shed_budget") == 1
        assert metrics.value("serving.admitted") == 1

    def test_rr_set_and_node_axes(self):
        controller = AdmissionController(Budget(max_rr_sets=5))
        controller.record_spend(_result(rr_sets=6))
        assert controller.check() == "rr_sets"
        controller = AdmissionController(Budget(max_rr_nodes=10))
        controller.record_spend(_result(rr_sets=10, avg_size=2.0))
        assert controller.check() == "rr_nodes"

    def test_spend_reported(self):
        controller = AdmissionController(Budget())
        controller.record_spend(_result(edges=42, rr_sets=7, avg_size=2.0))
        assert controller.spend() == {
            "edges_examined": 42,
            "rr_sets": 7,
            "rr_nodes": 14,
        }


class TestServerFaultInjector:
    def test_request_axis_fires_once(self):
        faults = ServerFaultInjector(at_request=2)
        faults.on_request()
        with pytest.raises(InjectedFault):
            faults.on_request()
        faults.on_request()  # fired already: no further faults
        assert faults.counts["request"] == 3

    def test_worker_axis_delay_mode(self):
        sleeps = []
        faults = ServerFaultInjector(
            at_worker=1, mode="delay", delay_seconds=0.5, seed=3,
            sleep=sleeps.append,
        )
        faults.on_worker()
        assert len(sleeps) == 1
        assert sleeps[0] >= 0.5

    def test_snapshot_axis_truncates_file(self, tmp_path):
        path = tmp_path / "snap.npz"
        path.write_bytes(b"x" * 500)
        faults = ServerFaultInjector(at_snapshot=1, snapshot_truncate_bytes=16)
        faults.on_snapshot(path)
        assert path.stat().st_size == 16
        # Fires once: a second snapshot write is left alone.
        path.write_bytes(b"y" * 500)
        faults.on_snapshot(path)
        assert path.stat().st_size == 500

    def test_inherited_axes_still_work(self):
        faults = ServerFaultInjector(at_rr_set=1)
        with pytest.raises(InjectedFault):
            faults.on_rr_set()

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            ServerFaultInjector(at_request=0)
        with pytest.raises(ConfigurationError):
            ServerFaultInjector(snapshot_truncate_bytes=-1)


class TestGraphRegistry:
    @pytest.fixture
    def graph(self):
        return wc_weights(
            preferential_attachment(60, 3, seed=1, reciprocal=0.3)
        )

    def test_in_memory_graph(self, graph):
        registry = GraphRegistry()
        registry.add_graph("g", graph)
        assert "g" in registry
        assert registry.get("g") is graph

    def test_unknown_name_rejected(self):
        registry = GraphRegistry()
        with pytest.raises(ConfigurationError):
            registry.get("nope")

    def test_lazy_load_edge_list_with_weights(self, graph, tmp_path):
        path = tmp_path / "g.txt"
        save_edge_list(graph, path)
        registry = GraphRegistry()
        registry.add_path("g", str(path), weight_scheme="wc")
        loaded = registry.get("g")
        assert loaded.n == graph.n
        # Loading is cached: same object on repeat access.
        assert registry.get("g") is loaded

    @pytest.mark.parametrize("scheme", ["nonsense", "uniform:abc", "wc:2"])
    def test_bad_weight_scheme_rejected_at_registration(self, tmp_path, scheme):
        registry = GraphRegistry()
        with pytest.raises(ConfigurationError, match="weight scheme"):
            registry.add_path("g", str(tmp_path / "g.npz"), weight_scheme=scheme)
        assert "g" not in registry

    def test_lazy_load_npz(self, graph, tmp_path):
        path = tmp_path / "g.npz"
        save_npz(graph, path)
        registry = GraphRegistry()
        registry.add_path("g", str(path))
        assert registry.get("g") == graph

    def test_breaker_opens_on_persistent_failure(self, tmp_path):
        registry = GraphRegistry(
            retry=RetryPolicy(attempts=1, sleep=lambda _: None),
            breaker_threshold=2,
            breaker_cooldown=60.0,
        )
        registry.add_path("missing", str(tmp_path / "absent.txt"))
        for _ in range(2):
            with pytest.raises(GraphFormatError):
                registry.get("missing")
        with pytest.raises(CircuitOpenError):
            registry.get("missing")

    def test_format_error_not_retried(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("not an edge list at all\n")
        sleeps = []
        registry = GraphRegistry(
            retry=RetryPolicy(attempts=5, sleep=sleeps.append)
        )
        registry.add_path("bad", str(path))
        with pytest.raises(GraphFormatError):
            registry.get("bad")
        assert sleeps == []


class TestTenantEntropy:
    def test_pure_function_of_inputs(self):
        assert tenant_entropy(0, "alice", "g") == tenant_entropy(0, "alice", "g")

    def test_distinct_tenants_and_graphs(self):
        values = {
            tenant_entropy(0, "alice", "g"),
            tenant_entropy(0, "bob", "g"),
            tenant_entropy(0, "alice", "h"),
            tenant_entropy(1, "alice", "g"),
        }
        assert len(values) == 4

    def test_fits_in_numpy_seed_space(self):
        entropy = tenant_entropy(0, "x" * 100, "y" * 100)
        np.random.default_rng(np.random.SeedSequence(entropy))


class TestServerConfig:
    def test_defaults_valid(self):
        config = ServerConfig()
        assert config.workers >= 1
        assert config.lifetime_budget.unlimited

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            ServerConfig(workers=0)
        with pytest.raises(ConfigurationError):
            ServerConfig(max_pending=0)
        with pytest.raises(ConfigurationError):
            ServerConfig(query_retries=-1)
        with pytest.raises(ConfigurationError):
            ServerConfig(snapshot_every=0)
        with pytest.raises(ConfigurationError):
            ServerConfig(default_deadline=0.0)


class TestGraphRegistryStaleness:
    """A replaced graph file must not keep serving the stale cached graph."""

    def _graph(self, seed):
        return wc_weights(
            preferential_attachment(60, 3, seed=seed, reciprocal=0.3)
        )

    def test_replaced_file_reloads_fresh_graph(self, tmp_path):
        import os

        old, new = self._graph(1), self._graph(2)
        path = tmp_path / "g.npz"
        save_npz(old, path)
        os.utime(path, ns=(1_000_000_000, 1_000_000_000))
        registry = GraphRegistry()
        registry.add_path("g", str(path))
        assert registry.get("g").fingerprint() == old.fingerprint()

        save_npz(new, path)
        os.utime(path, ns=(2_000_000_000, 2_000_000_000))
        reloaded = registry.get("g")
        assert reloaded.fingerprint() == new.fingerprint()
        # the fresh graph is cached under the new mtime
        assert registry.get("g") is reloaded

    def test_untouched_file_stays_cached(self, tmp_path):
        path = tmp_path / "g.npz"
        save_npz(self._graph(1), path)
        registry = GraphRegistry()
        registry.add_path("g", str(path))
        first = registry.get("g")
        assert registry.get("g") is first
