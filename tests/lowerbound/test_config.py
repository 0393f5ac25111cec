"""Unit tests for the optimal-machine-configuration solver.

The solver is cross-checked against a scipy MILP formulation of the same
integer program on randomized demand vectors; its bit-exact agreement with
the recursive reference search is in ``test_batched_search.py``.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import optimize

from repro import ConfigSolver, Ladder, optimal_config
from tests.conftest import any_ladder_strategy


def milp_config_rate(demands, ladder) -> float:
    """Reference solution of min sum w_i r_i s.t. nested suffix capacity."""
    m = ladder.m
    c = np.array(ladder.rates)
    rows, lower = [], []
    for i in range(1, m + 1):
        row = np.zeros(m)
        for j in range(i, m + 1):
            row[j - 1] = ladder.capacity(j)
        rows.append(row)
        lower.append(demands[i - 1])
    constraints = optimize.LinearConstraint(np.array(rows), np.array(lower), np.inf)
    res = optimize.milp(
        c=c,
        constraints=constraints,
        integrality=np.ones(m),
        bounds=optimize.Bounds(0, np.inf),
    )
    assert res.success
    return float(res.fun)


class TestOptimalConfig:
    def test_zero_demand(self, dec3):
        cfg = optimal_config((0.0, 0.0, 0.0), dec3)
        assert cfg.rate == 0.0
        assert cfg.counts == (0, 0, 0)

    def test_single_small_job_uses_cheapest_cover(self, dec3):
        # capacities 1,3,9 rates 1,2,4; one job of size 0.5
        cfg = optimal_config((0.5, 0.0, 0.0), dec3)
        assert cfg.rate == 1.0
        assert cfg.counts == (1, 0, 0)

    def test_large_demand_prefers_big_machine_in_dec(self, dec3):
        # total demand 9 of small jobs: 9 type-1 machines cost 9;
        # 3 type-2 cost 6; 1 type-3 costs 4
        cfg = optimal_config((9.0, 0.0, 0.0), dec3)
        assert cfg.rate == 4.0
        assert cfg.counts == (0, 0, 1)

    def test_nested_constraint_forces_big_machine(self, dec3):
        # a single job of size 5 must be on type 3 (capacity 9)
        cfg = optimal_config((5.0, 5.0, 5.0), dec3)
        assert cfg.counts[2] >= 1
        assert cfg.rate == 4.0

    def test_big_machine_covers_lower_demands_too(self, dec3):
        # D = (9.5, 5, 5): one type-3 machine covers class>=3 demand (5)
        # and gives 9 units toward D_1 = 9.5; remaining 0.5 -> one type-1
        cfg = optimal_config((9.5, 5.0, 5.0), dec3)
        assert cfg.rate == pytest.approx(5.0)  # 4 + 1

    def test_inc_prefers_small_machines(self, inc3):
        # capacities 1, 1.5, 2.25, rates 1, 2, 4; demand 2 of small jobs:
        # two type-1 machines (cost 2) beat one type-2 (cost 2, capacity 1.5
        # insufficient) and one type-3 (cost 4)
        cfg = optimal_config((2.0, 0.0, 0.0), inc3)
        assert cfg.rate == 2.0
        assert cfg.counts == (2, 0, 0)

    def test_rejects_increasing_demands(self, dec3):
        with pytest.raises(ValueError):
            optimal_config((1.0, 2.0, 0.0), dec3)

    def test_rejects_wrong_length(self, dec3):
        with pytest.raises(ValueError):
            optimal_config((1.0,), dec3)

    def test_solver_cache_consistency(self, dec3):
        solver = ConfigSolver(dec3)
        a = solver.solve((4.0, 2.0, 0.0))
        b = solver.solve((4.0, 2.0, 0.0))
        assert a is b  # cached

    def test_counts_satisfy_constraints(self, dec3):
        demands = (7.3, 4.1, 2.0)
        cfg = optimal_config(demands, dec3)
        for i in range(1, 4):
            suffix = sum(
                cfg.counts[j - 1] * dec3.capacity(j) for j in range(i, 4)
            )
            assert suffix >= demands[i - 1] - 1e-9


@settings(deadline=None, max_examples=60)
@given(
    any_ladder_strategy(max_m=4),
    st.lists(st.floats(0.0, 30.0), min_size=4, max_size=4),
)
def test_property_dp_matches_milp(ladder, raw):
    # build a non-increasing demand vector of the right length; clamp values
    # below HiGHS's feasibility tolerance (the DP would rightly buy a machine
    # for a 1e-7 demand while the MILP's tolerance rounds it away)
    vals = sorted((0.0 if v < 1e-6 else float(v) for v in raw), reverse=True)[: ladder.m]
    while len(vals) < ladder.m:
        vals.append(0.0)
    demands = tuple(vals)
    cfg = optimal_config(demands, ladder)
    ref = milp_config_rate(demands, ladder)
    assert cfg.rate == pytest.approx(ref, rel=1e-9, abs=1e-9)


@settings(deadline=None, max_examples=40)
@given(
    any_ladder_strategy(max_m=4),
    st.lists(st.floats(0.0, 20.0), min_size=4, max_size=4),
)
def test_property_counts_feasible_and_priced_right(ladder, raw):
    vals = sorted((0.0 if v < 1e-6 else float(v) for v in raw), reverse=True)[: ladder.m]
    while len(vals) < ladder.m:
        vals.append(0.0)
    demands = tuple(vals)
    cfg = optimal_config(demands, ladder)
    assert cfg.rate == pytest.approx(
        sum(w * r for w, r in zip(cfg.counts, ladder.rates)), rel=1e-12
    )
    for i in range(1, ladder.m + 1):
        suffix = sum(cfg.counts[j - 1] * ladder.capacity(j) for j in range(i, ladder.m + 1))
        assert suffix >= demands[i - 1] - 1e-9
