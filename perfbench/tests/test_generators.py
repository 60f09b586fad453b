"""The benchmark's inputs are a pure function of its seed."""

import dataclasses

import numpy as np

from perfbench import loadgen
from perfbench.workloads import PROFILE, WORKLOADS, DistinctQueries, build_inputs


def keys(queries):
    return [q.cache_key() for q in queries]


def test_zipf_ranks_are_seed_deterministic_and_skewed():
    a = loadgen.zipf_ranks(100, 2000, 1.1, np.random.default_rng(3))
    b = loadgen.zipf_ranks(100, 2000, 1.1, np.random.default_rng(3))
    c = loadgen.zipf_ranks(100, 2000, 1.1, np.random.default_rng(4))
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert a.min() >= 0 and a.max() < 100
    counts = np.bincount(a, minlength=100)
    assert counts[0] > counts[10] > counts[90]


def test_poisson_offsets_are_seed_deterministic_and_bounded():
    a = loadgen.poisson_offsets(30.0, 5.0, np.random.default_rng(1))
    b = loadgen.poisson_offsets(30.0, 5.0, np.random.default_rng(1))
    assert np.array_equal(a, b)
    assert np.all(np.diff(a) > 0) and a[-1] < 5.0
    assert 100 < len(a) < 200  # 150 expected


def test_query_stream_is_seed_deterministic_and_distinct():
    from repro.datasets import load_dataset

    table = load_dataset("wisdm", n_rows=500, seed=0)
    first = DistinctQueries(table, 5).take(200)
    again = DistinctQueries(table, 5).take(200)
    other = DistinctQueries(table, 6).take(200)
    assert keys(first) == keys(again)
    assert keys(first) != keys(other)
    assert len(set(keys(first))) == 200


def test_inputs_depend_only_on_the_seed():
    profile = dataclasses.replace(PROFILE, rows=1_200, n_test_queries=40)
    workload = WORKLOADS["serve-twi-zipf"]
    a = build_inputs(workload, profile, seed=9, seconds=2)
    b = build_inputs(workload, profile, seed=9, seconds=2)
    c = build_inputs(workload, profile, seed=10, seconds=2)
    assert keys(a.serve_queries) == keys(b.serve_queries)
    assert keys(a.serve_queries) != keys(c.serve_queries)
    assert keys(a.batch_queries.take(64)) == keys(b.batch_queries.take(64))
    # The accuracy test set is fixed, whatever the seed.
    assert keys(a.test.queries) == keys(c.test.queries)
    assert np.array_equal(a.test.true_selectivities, c.test.true_selectivities)
    # Zipf traffic repeats queries from a bounded pool.
    assert len(set(keys(a.serve_queries))) < len(a.serve_queries)
