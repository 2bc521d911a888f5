"""Tests for graph persistence."""

import os

import numpy as np
import pytest

from repro.graphs.generators import preferential_attachment
from repro.graphs.io import (
    is_transient,
    load_edge_list,
    load_graph_auto,
    load_npz,
    save_edge_list,
    save_npz,
    sidecar_path,
)
from repro.graphs.weights import exponential_weights
from repro.serving.retry import RetryPolicy
from repro.utils.exceptions import ConfigurationError, GraphFormatError


@pytest.fixture
def graph():
    return exponential_weights(
        preferential_attachment(50, 3, seed=1, reciprocal=0.3), seed=2
    )


class TestEdgeList:
    def test_round_trip_with_probs(self, graph, tmp_path):
        path = tmp_path / "g.txt"
        save_edge_list(graph, path)
        loaded = load_edge_list(path, n=graph.n)
        assert loaded == graph

    def test_round_trip_without_probs(self, graph, tmp_path):
        path = tmp_path / "g.txt"
        save_edge_list(graph, path, write_probs=False)
        loaded = load_edge_list(path, default_prob=1.0, n=graph.n)
        assert loaded.m == graph.m
        assert (loaded.out_probs == 1.0).all()

    def test_comments_and_blanks_skipped(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("# header\n\n0 1 0.5\n# mid\n1 2\n")
        g = load_edge_list(path, default_prob=0.25)
        assert g.n == 3
        assert g.m == 2
        assert set(g.out_probs) == {0.5, 0.25}

    def test_n_inferred_from_max_id(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("0 7 0.5\n")
        assert load_edge_list(path).n == 8

    def test_malformed_line_rejected(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("0 1 0.5 extra stuff\n")
        with pytest.raises(GraphFormatError):
            load_edge_list(path)

    def test_non_numeric_rejected(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("a b\n")
        with pytest.raises(GraphFormatError):
            load_edge_list(path)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("# nothing\n")
        with pytest.raises(GraphFormatError):
            load_edge_list(path)


class TestNpz:
    def test_round_trip(self, graph, tmp_path):
        path = tmp_path / "g.npz"
        save_npz(graph, path)
        loaded = load_npz(path)
        assert loaded == graph
        assert loaded.weight_model == graph.weight_model

    def test_preserves_in_adjacency_exactly(self, graph, tmp_path):
        path = tmp_path / "g.npz"
        save_npz(graph, path)
        loaded = load_npz(path)
        assert np.array_equal(loaded.in_indices, graph.in_indices)
        assert np.array_equal(loaded.in_probs, graph.in_probs)


def _load_with_retry(loader, path, **policy):
    """``loader(path)`` under a :class:`RetryPolicy`, as the CLI and the
    server's registry run graph loads."""
    return RetryPolicy(**policy).call(lambda: loader(path), transient=is_transient)


class TestRetry:
    def test_transient_failure_eventually_loads(self, graph, tmp_path):
        # The file appears after two attempts (flaky mount simulation):
        # materialize it from inside the injected sleep.
        path = tmp_path / "late.npz"
        sleeps = []

        def sleep(delay):
            sleeps.append(delay)
            if len(sleeps) == 2:
                save_npz(graph, path)

        loaded = _load_with_retry(load_npz, path, attempts=4, sleep=sleep, seed=0)
        assert loaded == graph
        assert len(sleeps) == 2

    def test_format_error_not_retried(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("garbage line here\n")
        sleeps = []
        with pytest.raises(GraphFormatError) as info:
            _load_with_retry(load_edge_list, path, attempts=6, sleep=sleeps.append)
        assert not is_transient(info.value)
        assert sleeps == []
        assert info.value.attempts == 1
        assert info.value.total_wait == 0.0

    def test_exhausted_retries_surface_attempts(self, tmp_path):
        sleeps = []
        with pytest.raises(GraphFormatError) as info:
            _load_with_retry(
                load_npz, tmp_path / "absent.npz", attempts=4, backoff=0.25,
                jitter=0.0, sleep=sleeps.append, max_total_wait=None,
            )
        assert is_transient(info.value)
        assert info.value.attempts == 4  # first try + 3 retries
        assert info.value.total_wait == pytest.approx(sum(sleeps))
        assert len(sleeps) == 3

    def test_max_total_wait_caps_cumulative_sleep(self, tmp_path):
        sleeps = []
        with pytest.raises(GraphFormatError) as info:
            _load_with_retry(
                load_edge_list, tmp_path / "absent.txt", attempts=51,
                backoff=1.0, jitter=0.0, sleep=sleeps.append, max_total_wait=5.0,
            )
        # Backoffs 1, 2 fit (3s total); the next (4s) would blow the cap.
        assert sleeps == [1.0, 2.0]
        assert info.value.attempts == 3
        assert info.value.total_wait == pytest.approx(3.0)

    def test_jitter_is_seeded_and_bounded(self, tmp_path):
        def delays(seed):
            sleeps = []
            with pytest.raises(GraphFormatError):
                _load_with_retry(
                    load_npz, tmp_path / "absent.npz", attempts=4, backoff=0.1,
                    jitter=0.5, sleep=sleeps.append, seed=seed,
                )
            return sleeps

        first = delays(7)
        assert first == delays(7)
        assert first != delays(8)
        for i, delay in enumerate(first):
            base = 0.1 * 2.0 ** i
            assert base <= delay <= base * 1.5

    def test_negative_retries_rejected(self):
        with pytest.raises(ConfigurationError):
            RetryPolicy(attempts=0)  # zero tries = -1 retries
        with pytest.raises(ConfigurationError):
            RetryPolicy(attempts=2, max_total_wait=-1.0)


def _graphs_equal(a, b) -> bool:
    # weight_model is a label the text format does not carry; equality of
    # the structural arrays is what cache correctness means here.
    return (
        a.n == b.n
        and np.array_equal(a.out_indptr, b.out_indptr)
        and np.array_equal(a.out_indices, b.out_indices)
        and np.array_equal(a.out_probs, b.out_probs)
    )


class TestSidecarCache:
    def test_text_load_writes_sidecar(self, graph, tmp_path):
        path = tmp_path / "g.txt"
        save_edge_list(graph, path)
        loaded = load_graph_auto(path)
        assert _graphs_equal(loaded, graph)
        assert os.path.exists(sidecar_path(path))
        # Second load comes from the sidecar and is identical.
        assert _graphs_equal(load_graph_auto(path), graph)

    def test_stale_sidecar_ignored_and_refreshed(self, graph, tmp_path):
        path = tmp_path / "g.txt"
        save_edge_list(graph, path)
        load_graph_auto(path)
        # Rewrite the text with a different graph, newer than the sidecar.
        other = exponential_weights(
            preferential_attachment(30, 2, seed=9), seed=3
        )
        save_edge_list(other, path)
        future = os.path.getmtime(sidecar_path(path)) + 10
        os.utime(path, (future, future))
        assert _graphs_equal(load_graph_auto(path), other)

    def test_corrupt_sidecar_falls_back_to_text(self, graph, tmp_path):
        path = tmp_path / "g.txt"
        save_edge_list(graph, path)
        with open(sidecar_path(path), "wb") as handle:
            handle.write(b"not a zip")
        future = os.path.getmtime(path) + 10
        os.utime(sidecar_path(path), (future, future))
        assert _graphs_equal(load_graph_auto(path), graph)

    def test_npz_path_loads_directly(self, graph, tmp_path):
        path = tmp_path / "g.npz"
        save_npz(graph, path)
        assert _graphs_equal(load_graph_auto(path), graph)
        assert not os.path.exists(sidecar_path(path))
