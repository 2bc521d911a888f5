"""Chaos harness: every injected fault must degrade cleanly.

The contract under test, for each fault axis: the client gets a
well-formed response (degraded ones carry ``complete=False``
certificates), the tenant's banks are never corrupted (the next query
answers bit-identically to a server that never saw the fault), and
restarts recover from the last good snapshot — or cold-start when the
snapshot itself was the casualty.
"""

import pytest

from repro.graphs.generators import preferential_attachment
from repro.graphs.weights import wc_weights
from repro.serving import (
    GraphRegistry,
    QueryServer,
    ServeClient,
    ServerConfig,
    ServerFaultInjector,
)


@pytest.fixture(scope="module")
def graph():
    return wc_weights(preferential_attachment(150, 3, seed=1, reciprocal=0.3))


@pytest.fixture(scope="module")
def clean_answer(graph):
    """What an unfaulted server answers — the bit-identity reference."""
    with _server(graph) as server:
        _, payload = ServeClient(*server.address).query("pa", 5, tenant="alice")
    assert payload["status"] == "complete"
    return payload["seeds"]


def _server(graph, faults=None, **overrides):
    overrides.setdefault("eps", 0.4)
    overrides.setdefault("seed", 7)
    registry = GraphRegistry()
    registry.add_graph("pa", graph)
    return QueryServer(ServerConfig(**overrides), registry=registry, faults=faults)


class TestSlowHandler:
    def test_stall_past_deadline_degrades(self, graph, clean_answer):
        faults = ServerFaultInjector(
            at_request=1, mode="delay", delay_seconds=0.5, jitter=0.0, seed=0
        )
        with _server(graph, faults=faults) as server:
            client = ServeClient(*server.address)
            status, payload = client.query(
                "pa", 5, tenant="alice", deadline_seconds=0.05
            )
            assert status == 200
            assert payload["status"] == "degraded"
            assert payload["stop_reason"] == "deadline_exceeded"
            assert payload["certificate"]["complete"] is False
            assert payload["seeds"] == []
            # The fault fired once; the tenant is unharmed afterwards.
            status, retry = client.query("pa", 5, tenant="alice")
            assert status == 200
            assert retry["seeds"] == clean_answer
            _, metrics = client.metrics()
            assert metrics["counters"]["serving.deadline_exceeded"] == 1
            assert metrics["counters"]["serving.degraded"] == 1


class TestHandlerCrash:
    def test_crash_returns_clean_500(self, graph, clean_answer):
        faults = ServerFaultInjector(at_request=1, mode="raise")
        with _server(graph, faults=faults) as server:
            client = ServeClient(*server.address)
            status, payload = client.query("pa", 5, tenant="alice")
            assert status == 500
            assert payload["error"] == "handler_crash"
            status, retry = client.query("pa", 5, tenant="alice")
            assert status == 200
            assert retry["seeds"] == clean_answer


class TestWorkerCrash:
    def test_crash_before_execution_is_retried(self, graph, clean_answer):
        faults = ServerFaultInjector(at_worker=1, mode="raise")
        with _server(graph, faults=faults, query_retries=1) as server:
            client = ServeClient(*server.address)
            status, payload = client.query("pa", 5, tenant="alice")
            assert status == 200
            assert payload["status"] == "complete"
            assert payload["seeds"] == clean_answer
            _, metrics = client.metrics()
            assert metrics["counters"]["serving.retries"] == 1
            assert metrics["counters"]["serving.worker_crashes"] == 1

    def test_retry_sleeps_through_the_server_policy(self, graph, clean_answer):
        faults = ServerFaultInjector(at_worker=1, mode="raise")
        server = _server(graph, faults=faults, query_retries=1)
        sleeps = []
        server.query_retry.sleep = sleeps.append
        with server:
            status, payload = ServeClient(*server.address).query(
                "pa", 5, tenant="alice"
            )
        assert status == 200
        assert payload["seeds"] == clean_answer
        # One retry, one backoff: the policy's base scaled by its jitter,
        # not a bare exponential.
        policy = server.query_retry
        assert len(sleeps) == 1
        assert policy.backoff <= sleeps[0] <= policy.backoff * (1 + policy.jitter)

    def test_crash_mid_query_recovers_bit_identically(self, graph, clean_answer):
        # The inherited rr_set axis fires *inside* session.maximize: the
        # crash leaves a half-extended bank, the session is invalidated,
        # and the retry rebuilds it from scratch.
        faults = ServerFaultInjector(at_rr_set=50, mode="raise")
        with _server(graph, faults=faults, query_retries=1) as server:
            client = ServeClient(*server.address)
            status, payload = client.query("pa", 5, tenant="alice")
            assert status == 200
            assert payload["status"] == "complete"
            assert payload["seeds"] == clean_answer
            _, metrics = client.metrics()
            assert metrics["counters"]["serving.worker_crashes"] == 1
            assert metrics["counters"]["serving.sessions_invalidated"] == 1

    def test_retries_exhausted_returns_degraded(self, graph, clean_answer):
        faults = ServerFaultInjector(at_rr_set=50, mode="raise")
        with _server(graph, faults=faults, query_retries=0) as server:
            client = ServeClient(*server.address)
            status, payload = client.query("pa", 5, tenant="alice")
            assert status == 200
            assert payload["status"] == "degraded"
            assert payload["stop_reason"] == "worker_crash"
            assert payload["certificate"]["complete"] is False
            _, metrics = client.metrics()
            assert metrics["counters"]["serving.degraded"] == 1
            # The fault fired once; the rebuilt session answers cleanly.
            status, retry = client.query("pa", 5, tenant="alice")
            assert status == 200
            assert retry["seeds"] == clean_answer


class TestGraphLoadFailure:
    def test_missing_path_reports_attempts(self, tmp_path):
        server = QueryServer(ServerConfig(seed=7))
        server.registry.add_path("gone", str(tmp_path / "absent.npz"))
        job = server._parse({"graph": "gone", "k": 3})
        server._execute(job)
        assert job.status_code == 500
        assert job.response["error"] == "graph_load_failed"
        # Every load attempt the registry's policy allows was spent.
        assert job.response["attempts"] == 3
        assert server.metrics.value("serving.graph_load_failures") == 1


class TestTruncatedSnapshot:
    def test_refused_and_cold_started(self, graph, clean_answer, tmp_path):
        snapdir = str(tmp_path / "snaps")
        faults = ServerFaultInjector(at_snapshot=1, snapshot_truncate_bytes=32)
        with _server(graph, faults=faults, snapshot_dir=snapdir) as server:
            client = ServeClient(*server.address)
            status, payload = client.query("pa", 5, tenant="alice")
            assert status == 200  # truncation happens after responding

        # Restart: the truncated snapshot must be refused, never half-read.
        with _server(graph, snapshot_dir=snapdir) as server:
            client = ServeClient(*server.address)
            status, payload = client.query("pa", 5, tenant="alice")
            assert status == 200
            assert payload["status"] == "complete"
            assert payload["seeds"] == clean_answer
            # Cold start: the banks were regenerated, not restored.
            assert payload["session"]["sets_generated"] > 0
            _, metrics = client.metrics()
            assert metrics["counters"]["serving.recovery_cold_starts"] == 1
            assert "serving.sessions_restored" not in metrics["counters"]

    def test_snapshot_survivors_still_restore(self, graph, tmp_path):
        # Bob's snapshot is written after the fault fired on alice's, so a
        # restart restores bob warm while alice cold-starts.
        snapdir = str(tmp_path / "snaps")
        faults = ServerFaultInjector(at_snapshot=1, snapshot_truncate_bytes=32)
        with _server(graph, faults=faults, snapshot_dir=snapdir) as server:
            client = ServeClient(*server.address)
            client.query("pa", 5, tenant="alice")
            client.query("pa", 5, tenant="bob")

        with _server(graph, snapshot_dir=snapdir) as server:
            client = ServeClient(*server.address)
            _, bob = client.query("pa", 5, tenant="bob")
            _, alice = client.query("pa", 5, tenant="alice")
            _, metrics = client.metrics()
        assert bob["session"]["sets_generated"] == 0
        assert alice["session"]["sets_generated"] > 0
        assert metrics["counters"]["serving.sessions_restored"] == 1
        assert metrics["counters"]["serving.recovery_cold_starts"] == 1
