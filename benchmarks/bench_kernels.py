"""Micro-benchmarks of the kernel layer (vectorized vs reference engines).

The JSON perf trajectory lives in ``BENCH_PR<n>.json`` (written by
``python -m repro.cli bench``); these pytest-benchmark probes give the
same engines per-commit visibility next to the solver benchmarks.
"""

from __future__ import annotations

import numpy as np

from repro.petri import build_overlap_tpn, build_strict_tpn
from repro.petri.reachability import explore, explore_reference
from repro.sim import simulate_tpn
from repro.experiments.fig10 import paper_system

from _util import make_mapping


def _mid_size_net():
    return build_strict_tpn(make_mapping([[0, 1], [2, 3, 4], [5, 6, 7]], seed=1))


def test_explore_vectorized_speed(benchmark):
    tpn = _mid_size_net()
    result = benchmark(explore, tpn, max_states=500_000)
    assert result.n_states == 10_368


def test_explore_reference_speed(benchmark):
    """The seed implementation — the denominator of the ≥5× target."""
    tpn = _mid_size_net()
    result = benchmark.pedantic(
        explore_reference, args=(tpn,), kwargs={"max_states": 500_000},
        rounds=2, iterations=1,
    )
    assert result.n_states == 10_368


def test_sim_fast_speed(benchmark):
    tpn = build_overlap_tpn(paper_system())
    result = benchmark(
        simulate_tpn, tpn, n_datasets=1000, seed=7, engine="fast"
    )
    assert result.n_processed == 1000


def test_sim_reference_speed(benchmark):
    tpn = build_overlap_tpn(paper_system())
    ref = benchmark.pedantic(
        simulate_tpn, args=(tpn,),
        kwargs={"n_datasets": 1000, "seed": 7, "engine": "reference"},
        rounds=2, iterations=1,
    )
    fast = simulate_tpn(tpn, n_datasets=1000, seed=7, engine="fast")
    assert np.array_equal(fast.completion_times, ref.completion_times)
