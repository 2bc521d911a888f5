"""Micro-benchmarks for the subset-sampling primitives.

Statistical timings (pytest-benchmark rounds) of one draw from each
sampler over a representative skewed probability vector, quantifying the
constants behind Section 3's O(.) claims in the interpreter.
"""

import numpy as np
import pytest

from repro.sampling.alias import AliasTable
from repro.sampling.bucket import BucketSampler, IndexedBucketSampler
from repro.sampling.geometric import sample_equal_probability
from repro.sampling.sorted_sampler import sample_sorted_descending


@pytest.fixture(scope="module")
def skewed_probs():
    rng = np.random.default_rng(0)
    probs = rng.exponential(0.02, size=256)
    probs = np.clip(probs, 0.0, 1.0)
    return np.sort(probs)[::-1]


def test_micro_equal_probability(benchmark):
    rng = np.random.default_rng(1)
    benchmark(sample_equal_probability, 256, 1 / 256, rng)


def test_micro_naive_bernoulli_reference(benchmark, skewed_probs):
    """The vanilla baseline: one coin per element, for contrast."""
    rng = np.random.default_rng(1)

    def naive():
        return [i for i, p in enumerate(skewed_probs) if rng.random() < p]

    benchmark(naive)


def test_micro_sorted_sampler(benchmark, skewed_probs):
    rng = np.random.default_rng(1)
    benchmark(sample_sorted_descending, skewed_probs, rng)


def test_micro_bucket_sampler(benchmark, skewed_probs):
    sampler = BucketSampler(skewed_probs)
    rng = np.random.default_rng(1)
    benchmark(sampler.sample, rng)


def test_micro_indexed_bucket_sampler(benchmark, skewed_probs):
    sampler = IndexedBucketSampler(skewed_probs)
    rng = np.random.default_rng(1)
    benchmark(sampler.sample, rng)


def test_micro_alias_table(benchmark, skewed_probs):
    table = AliasTable(skewed_probs + 1e-12)
    rng = np.random.default_rng(1)
    benchmark(table.sample, rng)


def test_rrgen_batched_speedup(results_dir):
    """Batched engine vs. sequential on the WC n=10^4 workload.

    Records the full comparison to ``results/BENCH_rrgen.json`` and asserts
    the headline claim: the vectorized engine grows RR sets at least 5x
    faster than the per-set sequential path for the vanilla IC sampler.
    """
    from bench_rrgen import run_benchmark, write_report

    report = run_benchmark()
    write_report(report)
    speedup = report["generators"]["vanilla"]["batched_speedup"]
    print(f"\nvanilla batched speedup: {speedup}x")
    assert speedup >= 5.0, (
        f"batched engine only {speedup}x faster than sequential "
        "(expected >= 5x on the WC n=10^4 workload)"
    )
