"""Tests for HIST (Algorithms 4, 7 and 8)."""

import math

import numpy as np
import pytest

from repro.algorithms.hist import HIST, IMSentinelPhase, SentinelSetPhase
from repro.estimation.montecarlo import estimate_spread
from repro.graphs.generators import preferential_attachment
from repro.graphs.weights import wc_variant_weights
from repro.rrsets.subsim import SubsimICGenerator
from repro.runtime import Budget
from repro.utils.exceptions import ConfigurationError


@pytest.fixture(scope="module")
def high_influence_graph():
    """A 400-node graph calibrated to strong cascades (avg RR size ~ n/5)."""
    base = preferential_attachment(400, 4, seed=9, reciprocal=0.3)
    return wc_variant_weights(base, 2.5)


class TestSentinelPhase:
    def test_returns_valid_sentinels(self, high_influence_graph, rng):
        res = SentinelSetPhase(high_influence_graph).run(
            k=20, eps1=0.15, delta1=0.005, rng=rng
        )
        assert 1 <= res.b <= 20
        assert len(res.seeds) == res.b
        assert len(set(res.seeds)) == res.b
        assert res.selection_rr_sets > 0
        assert res.total_rr_sets >= res.selection_rr_sets

    def test_max_b_caps_sentinel_size(self, high_influence_graph, rng):
        res = SentinelSetPhase(high_influence_graph).run(
            k=20, eps1=0.15, delta1=0.005, rng=rng, max_b=3
        )
        assert res.b <= 3

    def test_max_b_validation(self, high_influence_graph, rng):
        with pytest.raises(ConfigurationError):
            SentinelSetPhase(high_influence_graph).run(
                k=5, eps1=0.2, delta1=0.01, rng=rng, max_b=9
            )

    def test_sentinels_have_high_influence(self, high_influence_graph, rng):
        """The sentinel set must achieve its loose approximation target:
        at least (1 - (1-1/k)^b - eps1) of a strong seed set's spread."""
        k, eps1 = 10, 0.15
        res = SentinelSetPhase(high_influence_graph).run(
            k=k, eps1=eps1, delta1=0.005, rng=rng
        )
        spread_b = estimate_spread(
            high_influence_graph, res.seeds, num_simulations=400, seed=0
        ).mean
        # Reference: OPIM-C's k seeds as an OPT proxy.
        from repro.algorithms.opimc import OPIMC

        full = OPIMC(high_influence_graph).run(k, eps=0.1, seed=1)
        spread_k = estimate_spread(
            high_influence_graph, full.seeds, num_simulations=400, seed=0
        ).mean
        threshold = 1 - (1 - 1 / k) ** res.b - eps1
        assert spread_b >= threshold * spread_k * 0.9  # 0.9: MC slack


class TestIMSentinelPhase:
    def test_completes_seed_set(self, high_influence_graph, rng):
        sentinel = SentinelSetPhase(high_influence_graph).run(
            k=12, eps1=0.15, delta1=0.005, rng=rng
        )
        if sentinel.b >= 12:
            pytest.skip("sentinel phase already solved the instance")
        res = IMSentinelPhase(high_influence_graph).run(
            k=12,
            eps=0.3,
            sentinel_seeds=sentinel.seeds,
            eps2=0.15,
            delta2=0.005,
            rng=rng,
        )
        assert len(res.seeds) == 12
        assert len(set(res.seeds)) == 12
        assert set(sentinel.seeds) <= set(res.seeds)

    def test_validates_b_range(self, high_influence_graph, rng):
        phase = IMSentinelPhase(high_influence_graph)
        with pytest.raises(ConfigurationError):
            phase.run(5, 0.3, [], 0.15, 0.01, rng)  # b = 0
        with pytest.raises(ConfigurationError):
            phase.run(5, 0.3, [0, 1, 2, 3, 4], 0.15, 0.01, rng)  # b = k

    def test_sentinel_stopped_sets_are_small(self, high_influence_graph, rng):
        sentinel = SentinelSetPhase(high_influence_graph).run(
            k=12, eps1=0.15, delta1=0.005, rng=rng
        )
        if sentinel.b >= 12:
            pytest.skip("sentinel phase already solved the instance")
        res = IMSentinelPhase(high_influence_graph).run(
            k=12, eps=0.3, sentinel_seeds=sentinel.seeds,
            eps2=0.15, delta2=0.005, rng=rng,
        )
        # Sentinel-stopped RR sets must be smaller than unrestricted ones.
        from repro.experiments.calibration import average_rr_size

        unrestricted = average_rr_size(high_influence_graph, 200, seed=0)
        assert res.average_rr_size < 0.8 * unrestricted


class TestHIST:
    def test_end_to_end(self, high_influence_graph):
        res = HIST(high_influence_graph).run(10, eps=0.3, seed=4)
        assert len(res.seeds) == 10
        assert len(set(res.seeds)) == 10
        assert 1 <= res.extras["b"] <= 10
        assert "sentinel" in res.phases

    def test_smaller_rr_sets_than_opimc(self, high_influence_graph):
        from repro.algorithms.opimc import OPIMC

        hist = HIST(high_influence_graph).run(10, eps=0.3, seed=4)
        opim = OPIMC(high_influence_graph).run(10, eps=0.3, seed=4)
        assert hist.average_rr_size < opim.average_rr_size

    def test_seed_quality_matches_opimc(self, high_influence_graph):
        from repro.algorithms.opimc import OPIMC

        hist = HIST(high_influence_graph).run(10, eps=0.2, seed=4)
        opim = OPIMC(high_influence_graph).run(10, eps=0.2, seed=4)
        sp_h = estimate_spread(
            high_influence_graph, hist.seeds, num_simulations=400, seed=0
        )
        sp_o = estimate_spread(
            high_influence_graph, opim.seeds, num_simulations=400, seed=0
        )
        assert sp_h.mean == pytest.approx(sp_o.mean, rel=0.1)

    def test_subsim_variant_name_and_quality(self, high_influence_graph):
        algo = HIST(high_influence_graph, SubsimICGenerator)
        assert algo.name == "hist+subsim"
        res = algo.run(8, eps=0.3, seed=2)
        assert len(res.seeds) == 8

    def test_fixed_b(self, high_influence_graph):
        res = HIST(high_influence_graph, fixed_b=2).run(8, eps=0.3, seed=2)
        assert res.extras["b"] <= 2

    def test_fixed_b_validation(self, high_influence_graph):
        with pytest.raises(ConfigurationError):
            HIST(high_influence_graph, fixed_b=9).run(8, eps=0.3, seed=2)

    def test_tie_break_ablation_runs(self, high_influence_graph):
        res = HIST(
            high_influence_graph, use_out_degree_tie_break=False
        ).run(8, eps=0.3, seed=2)
        assert len(res.seeds) == 8

    def test_low_influence_graph_still_works(self, wc_graph):
        """HIST must stay correct when cascades are weak (its worst case)."""
        res = HIST(wc_graph).run(5, eps=0.4, seed=3)
        assert len(res.seeds) == 5

    def test_k_one(self, high_influence_graph):
        res = HIST(high_influence_graph).run(1, eps=0.4, seed=3)
        assert len(res.seeds) == 1
        assert res.extras["b"] == 1

    def test_phase_times_recorded(self, high_influence_graph):
        res = HIST(high_influence_graph).run(10, eps=0.3, seed=4)
        assert res.phases["sentinel"] > 0
        if res.extras["b"] < 10:
            assert res.phases["im_sentinel"] > 0

    def test_certified_bounds(self, high_influence_graph):
        res = HIST(high_influence_graph).run(10, eps=0.3, seed=4)
        if res.extras["b"] < 10:
            assert 0 <= res.lower_bound <= res.upper_bound


class TestInterruptFallback:
    """A budget cut inside either phase degrades to the greedy fallback.

    The seed lists are literals: they pin the best-so-far seeds each
    fallback branch returns on the session WC graph (k=5, eps=0.3, seed 3).
    """

    @pytest.mark.parametrize(
        "cap, phase, seeds",
        [
            # sentinel phase, bootstrap cut: greedy over the partial R1
            (5, "sentinel", [4, 0, 23, 243, 1]),
            # sentinel phase, after a round: that round's greedy seeds
            (40, "sentinel", [4, 1, 3, 16, 72]),
            # IM phase, nothing sampled yet: the sentinels alone
            (1600, "im_sentinel", [1]),
            # IM phase, bootstrap cut: sentinels + greedy over the partial R1
            (1605, "im_sentinel", [1, 7, 55, 88, 191]),
        ],
    )
    def test_partial_seeds_pinned(self, wc_graph, cap, phase, seeds):
        res = HIST(wc_graph).run(
            5, eps=0.3, seed=3, budget=Budget(max_rr_sets=cap)
        )
        assert res.status == "partial"
        assert res.stop_reason == "num_rr_sets"
        assert phase in res.phases
        assert ("im_sentinel" in res.phases) == (phase == "im_sentinel")
        assert res.seeds == seeds
