"""Tests for IMResult JSON persistence."""

import math

import pytest

from repro.core.results import IMResult
from repro.core.serialization import (
    load_result,
    result_from_dict,
    result_to_dict,
    save_result,
)


def make_result(**overrides):
    base = dict(
        algorithm="hist+subsim",
        seeds=[5, 2, 9],
        k=3,
        eps=0.1,
        delta=0.01,
        runtime_seconds=1.25,
        num_rr_sets=1000,
        average_rr_size=12.5,
        edges_examined=54321,
        rng_draws=11111,
        lower_bound=40.0,
        upper_bound=70.0,
        phases={"sentinel": 0.5, "im_sentinel": 0.75},
        extras={"b": 2, "sentinel_verified": True},
    )
    base.update(overrides)
    return IMResult(**base)


class TestRoundTrip:
    def test_dict_round_trip(self):
        original = make_result()
        revived = result_from_dict(result_to_dict(original))
        assert revived == original

    def test_file_round_trip(self, tmp_path):
        original = make_result()
        path = tmp_path / "result.json"
        save_result(original, path)
        assert load_result(path) == original

    def test_infinite_upper_bound_survives(self, tmp_path):
        original = make_result(upper_bound=float("inf"))
        path = tmp_path / "result.json"
        save_result(original, path)
        revived = load_result(path)
        assert math.isinf(revived.upper_bound)

    def test_missing_optional_fields_default(self):
        minimal = {
            "algorithm": "degree",
            "seeds": [1],
            "k": 1,
            "eps": 0.0,
            "delta": 0.0,
            "runtime_seconds": 0.1,
        }
        revived = result_from_dict(minimal)
        assert revived.num_rr_sets == 0
        assert revived.upper_bound == float("inf")

    def test_real_algorithm_result_round_trips(self, wc_graph, tmp_path):
        from repro.core.api import InfluenceMaximizer

        result = InfluenceMaximizer(wc_graph).maximize(
            3, algorithm="subsim", eps=0.4, seed=0
        )
        path = tmp_path / "r.json"
        save_result(result, path)
        revived = load_result(path)
        assert revived.seeds == result.seeds
        assert revived.num_rr_sets == result.num_rr_sets
