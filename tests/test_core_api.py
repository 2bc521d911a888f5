"""Tests for the public facade, registry, and result objects."""

import pytest

from repro.core.api import InfluenceMaximizer, maximize_influence
from repro.core.registry import (
    available_algorithms,
    get_algorithm,
    register_algorithm,
)
from repro.core.results import IMResult
from repro.utils.exceptions import ConfigurationError


class TestRegistry:
    def test_known_names_present(self):
        names = available_algorithms()
        for expected in (
            "opim-c",
            "subsim",
            "hist",
            "hist+subsim",
            "imm",
            "tim+",
            "ssa",
            "degree",
            "opim-c-lt",
        ):
            assert expected in names

    def test_get_algorithm_instantiates(self, wc_graph):
        algo = get_algorithm("opim-c", wc_graph)
        assert algo.name == "opim-c"

    def test_unknown_name_rejected(self, wc_graph):
        with pytest.raises(ConfigurationError):
            get_algorithm("definitely-not-real", wc_graph)

    def test_kwargs_forwarded(self, wc_graph):
        algo = get_algorithm("imm", wc_graph, max_rr_sets=123)
        assert algo.max_rr_sets == 123

    def test_register_custom(self, wc_graph):
        from repro.algorithms.heuristics import RandomSeeds

        register_algorithm("test-custom-algo", lambda g, **kw: RandomSeeds(g))
        algo = get_algorithm("test-custom-algo", wc_graph)
        assert algo.run(2, seed=0).seeds

    def test_register_duplicate_rejected(self):
        with pytest.raises(ConfigurationError):
            register_algorithm("opim-c", lambda g, **kw: None)


class TestFacade:
    def test_maximize_returns_result(self, wc_graph):
        result = InfluenceMaximizer(wc_graph).maximize(
            3, algorithm="subsim", eps=0.4, seed=0
        )
        assert isinstance(result, IMResult)
        assert len(result.seeds) == 3

    def test_functional_spelling(self, wc_graph):
        result = maximize_influence(wc_graph, 3, algorithm="degree", seed=0)
        assert len(result.seeds) == 3

    def test_evaluate(self, wc_graph):
        maximizer = InfluenceMaximizer(wc_graph)
        result = maximizer.maximize(3, algorithm="degree", seed=0)
        est = maximizer.evaluate(result, num_simulations=100, seed=0)
        assert est.mean >= 3.0

    def test_algorithm_kwargs_forwarded(self, wc_graph):
        result = maximize_influence(
            wc_graph, 3, algorithm="imm", eps=0.4, seed=0, max_rr_sets=1000
        )
        assert result.num_rr_sets <= 1000

    def test_batch_size_forwarded_to_run(self, wc_graph):
        # Regression: these are run() parameters, not constructor kwargs —
        # they used to fall into **algorithm_kwargs and blow up the
        # algorithm constructor with a TypeError.
        result = InfluenceMaximizer(wc_graph).maximize(
            3, algorithm="subsim", eps=0.4, seed=0, batch_size=16
        )
        assert len(result.seeds) == 3
        functional = maximize_influence(
            wc_graph, 3, algorithm="subsim", eps=0.4, seed=0,
            batch_size=16,
        )
        assert functional.seeds == result.seeds

class TestFacadeSessions:
    def test_session_returns_query_session(self, wc_graph):
        from repro.engine.session import QuerySession

        session = InfluenceMaximizer(wc_graph).session("subsim", seed=4)
        assert isinstance(session, QuerySession)
        assert len(session.maximize(3, eps=0.4).seeds) == 3

    def test_reuse_pool_shares_sets_across_calls(self, wc_graph):
        session = InfluenceMaximizer(wc_graph).session("subsim", seed=9)
        first = session.maximize(6, eps=0.3)
        second = session.maximize(3, eps=0.3)
        assert first.extras["session"]["query_index"] == 1
        assert second.extras["session"]["query_index"] == 2
        assert second.extras["session"]["sets_reused"] > 0


class TestEvaluateModels:
    def test_evaluate_lt_model(self):
        from repro.graphs.generators import star_graph

        g = star_graph(6, center_out=True)
        maximizer = InfluenceMaximizer(g)
        result = maximizer.maximize(1, algorithm="degree", seed=0)
        assert result.seeds == [0]  # the broadcasting center
        est = maximizer.evaluate(result, model="lt", num_simulations=20, seed=0)
        assert est.mean == 6.0  # full-weight LT star is deterministic


class TestIMResult:
    def make(self, **overrides):
        base = dict(
            algorithm="x",
            seeds=[3, 1, 2],
            k=3,
            eps=0.1,
            delta=0.01,
            runtime_seconds=1.0,
        )
        base.update(overrides)
        return IMResult(**base)

    def test_seed_set(self):
        assert self.make().seed_set == {1, 2, 3}

    def test_certified_ratio(self):
        r = self.make(lower_bound=4.0, upper_bound=8.0)
        assert r.approx_ratio_certified == 0.5

    def test_certified_ratio_degenerate(self):
        assert self.make().approx_ratio_certified == 0.0
        assert self.make(upper_bound=0.0).approx_ratio_certified == 0.0

    def test_summary_row_keys(self):
        row = self.make().summary_row()
        assert {"algorithm", "k", "runtime_s", "num_rr_sets"} <= set(row)
