"""Test oracles for the Eq.-(1) lower bound.

``optimal_config_reference`` is the memoized depth-first search that
defined the optimal configuration before the batched search in
:func:`repro.lowerbound.config.solve_configs` replaced it: types from ``m``
down to ``1``, the suffix capacity bought so far as the only state, and
buying more capacity than ``D_1`` never considered.  The batched search is
pinned bit for bit against it.

``lower_bound_reference`` evaluates the bound the slow way: the naive
per-segment demand scan, one reference search per segment and a running
sum.
"""

from __future__ import annotations

import math
from typing import Sequence

from repro import JobSet, Ladder, OptimalConfig
from repro.core.sweep import nested_demand_reference
from repro.core.tolerance import FINE_TOL, TOLERANCE

_TOL = TOLERANCE


def _ceil_div(x: float, g: float) -> int:
    """``ceil(x / g)`` robust to float noise; 0 for non-positive ``x``."""
    if x <= _TOL:
        return 0
    return int(math.ceil(x / g - FINE_TOL))


def optimal_config_reference(demands: Sequence[float], ladder: Ladder) -> OptimalConfig:
    """The optimal configuration by memoized depth-first search."""
    demands = tuple(float(d) for d in demands)
    m = ladder.m
    if demands[0] <= _TOL:
        return OptimalConfig(counts=(0,) * m, rate=0.0)
    g = ladder.capacities
    r = ladder.rates
    d_top = demands[0]
    memo: dict[tuple[int, float], tuple[float, tuple[int, ...]]] = {}

    def rec(i: int, suffix_cap: float) -> tuple[float, tuple[int, ...]]:
        """Best cost/counts for types i..1 given capacity bought above."""
        if suffix_cap >= d_top - _TOL:
            return 0.0, (0,) * i
        if i == 0:
            return math.inf, ()
        key = (i, round(suffix_cap, 9))
        hit = memo.get(key)
        if hit is not None:
            return hit
        w_min = _ceil_div(demands[i - 1] - suffix_cap, g[i - 1])
        w_max = max(w_min, _ceil_div(d_top - suffix_cap, g[i - 1]))
        best: tuple[float, tuple[int, ...]] = (math.inf, ())
        for w in range(w_min, w_max + 1):
            sub_cost, sub_counts = rec(i - 1, suffix_cap + w * g[i - 1])
            cost = w * r[i - 1] + sub_cost
            if cost < best[0] - _TOL:
                best = (cost, sub_counts + (w,))
            if w * r[i - 1] >= best[0]:
                break  # buying more of type i alone already beats nothing
        memo[key] = best
        return best

    best_cost, counts = rec(m, 0.0)
    if not math.isfinite(best_cost):
        raise RuntimeError("optimal configuration search failed (infeasible?)")
    # rec(i, .) returns a tuple of length i ordered type 1..i
    return OptimalConfig(counts=counts, rate=best_cost)


def lower_bound_reference(
    jobs: JobSet, ladder: Ladder
) -> tuple[float, list[tuple[float, float]], list[OptimalConfig]]:
    """``(value, segments, configs)`` over the segments where a job is active."""
    times, active, demand = nested_demand_reference(list(jobs), ladder.capacities)
    total = 0.0
    segments: list[tuple[float, float]] = []
    configs: list[OptimalConfig] = []
    for k in range(active.size):
        if active[k] <= 0:
            continue
        left, right = float(times[k]), float(times[k + 1])
        config = optimal_config_reference(demand[:, k], ladder)
        segments.append((left, right))
        configs.append(config)
        total += config.rate * (right - left)
    return total, segments, configs
