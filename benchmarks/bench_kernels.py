"""Substrate micro-benchmarks: the primitives everything else is built on.

Not tied to one experiment; tracks regression-sensitive kernels:
demand-profile construction (sum of pulses), the batched optimal-configuration
search, interval-tree queries, the event sweep and feasibility validation.
"""

import numpy as np

from repro import (
    dec_ladder,
    dec_offline,
    elementary_segments,
    solve_configs,
    sum_pulses,
    sweep_busy_union,
    sweep_grouped_busy_time,
    sweep_peak_load,
    validate_schedule,
)
from repro.core.interval_tree import StaticIntervalTree


def test_kernel_sum_pulses_10k(benchmark, bench_rng):
    starts = bench_rng.uniform(0, 1000, size=10_000)
    durations = bench_rng.uniform(0.5, 20, size=10_000)
    pulses = [(float(a), float(a + d), 1.0) for a, d in zip(starts, durations)]
    profile = benchmark(sum_pulses, pulses)
    assert profile.max() > 0


def test_kernel_sweep_busy_union_10k(benchmark, bench_rng):
    starts = bench_rng.uniform(0, 1000, size=10_000)
    ends = starts + bench_rng.uniform(0.5, 20, size=10_000)
    union = benchmark(sweep_busy_union, starts, ends)
    assert union.length > 0


def test_kernel_sweep_peak_load_10k(benchmark, bench_rng):
    starts = bench_rng.uniform(0, 1000, size=10_000)
    ends = starts + bench_rng.uniform(0.5, 20, size=10_000)
    sizes = bench_rng.uniform(0.05, 1.0, size=10_000)
    peak = benchmark(sweep_peak_load, starts, ends, sizes)
    assert peak > 0


def test_kernel_sweep_grouped_busy_time_10k(benchmark, bench_rng):
    starts = bench_rng.uniform(0, 1000, size=10_000)
    ends = starts + bench_rng.uniform(0.5, 20, size=10_000)
    groups = bench_rng.integers(0, 500, size=10_000)
    busy = benchmark(sweep_grouped_busy_time, starts, ends, groups, 500)
    assert busy.sum() > 0


def test_kernel_config_solver(benchmark):
    ladder = dec_ladder(5)
    x = np.linspace(0.5, 200, 300)[:, None]
    demands = x * np.array([1.0, 0.6, 0.3, 0.1, 0.0])
    rates, counts = benchmark(solve_configs, demands, ladder)
    assert (rates >= 0).all()
    assert counts.shape == (300, ladder.m)


def test_kernel_interval_tree_queries(benchmark, bench_rng):
    lefts = bench_rng.uniform(0, 1000, size=20_000)
    rights = lefts + bench_rng.uniform(0.5, 30, size=20_000)
    tree = StaticIntervalTree(lefts, rights)
    probes = bench_rng.uniform(0, 1000, size=500)

    def run_queries():
        return sum(len(tree.stab(float(t))) for t in probes)

    hits = benchmark(run_queries)
    assert hits > 0


def test_kernel_elementary_segments_10k(benchmark, bench_rng, dec3_ladder):
    from repro import poisson_workload

    jobs = poisson_workload(10_000, bench_rng, max_size=dec3_ladder.capacity(3))
    segments = benchmark(elementary_segments, list(jobs))
    assert len(segments) > 0


def test_kernel_validation(benchmark, dec_workload_200, dec3_ladder):
    schedule = dec_offline(dec_workload_200, dec3_ladder)
    report = benchmark(validate_schedule, schedule, dec_workload_200)
    assert report.ok
