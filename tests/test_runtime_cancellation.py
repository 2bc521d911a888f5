"""Cooperative cancellation: token semantics and mid-run degradation."""

import pytest

from repro.core.registry import get_algorithm
from repro.runtime import CancellationToken, FaultInjector
from repro.utils.exceptions import CancelledError, ExecutionInterrupted

K = 5
EPS = 0.3
SEED = 3


class TestToken:
    def test_initially_clear(self):
        token = CancellationToken()
        assert not token.cancelled
        token.raise_if_cancelled()  # no-op while clear

    def test_cancel_sets_reason_and_raises(self):
        token = CancellationToken()
        token.cancel("user pressed ctrl-c")
        assert token.cancelled
        assert token.reason == "user pressed ctrl-c"
        with pytest.raises(CancelledError) as excinfo:
            token.raise_if_cancelled()
        assert excinfo.value.reason == "cancelled"
        assert isinstance(excinfo.value, ExecutionInterrupted)

    def test_cancel_idempotent_keeps_first_reason(self):
        token = CancellationToken()
        token.cancel("first")
        token.cancel("second")
        assert token.reason == "first"


class TestCancelledRuns:
    def test_pre_cancelled_token_yields_partial(self, wc_graph):
        token = CancellationToken()
        token.cancel()
        result = get_algorithm("opim-c", wc_graph).run(
            K, eps=EPS, seed=SEED, cancel=token
        )
        assert result.status == "partial"
        assert result.stop_reason == "cancelled"
        assert result.num_rr_sets == 0

    @pytest.mark.parametrize("name", ["opim-c", "hist", "subsim"])
    def test_mid_run_cancellation_keeps_progress(self, wc_graph, name):
        # The delay-mode fault injector doubles as a deterministic mid-run
        # trigger: its "sleep" fires exactly once at the 50th RR set, and we
        # make it flip the token instead of sleeping.
        token = CancellationToken()
        trigger = FaultInjector(
            at_rr_set=50,
            mode="delay",
            sleep=lambda _seconds: token.cancel("triggered at set 50"),
        )
        result = get_algorithm(name, wc_graph).run(
            K, eps=EPS, seed=SEED, cancel=token, fault_injector=trigger
        )
        assert result.status == "partial"
        assert result.stop_reason == "cancelled"
        assert result.num_rr_sets >= 50  # work before the trigger is kept
        assert len(result.seeds) <= K

    def test_uncancelled_token_changes_nothing(self, wc_graph):
        token = CancellationToken()
        plain = get_algorithm("opim-c", wc_graph).run(K, eps=EPS, seed=SEED)
        watched = get_algorithm("opim-c", wc_graph).run(
            K, eps=EPS, seed=SEED, cancel=token
        )
        assert watched.status == "complete"
        assert watched.seeds == plain.seeds
        assert watched.num_rr_sets == plain.num_rr_sets

    def test_cancelled_non_rr_algorithm(self, wc_graph):
        token = CancellationToken()
        token.cancel()
        result = get_algorithm("greedy-mc", wc_graph).run(
            K, seed=SEED, cancel=token
        )
        assert result.status == "partial"
        assert result.seeds == []

