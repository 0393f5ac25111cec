"""Differential suite: the batched configuration search against its oracle.

:func:`repro.solve_configs` must return the recursive search's answer bit
for bit (``tests/lowerbound/reference.py``): the same ``w*`` and the same
float rate, summed in the same order.  ``lower_bound`` built on it must
give the segments, rates and counts of the per-segment reference
evaluation, and its value up to the order of the final sum.
"""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro import ConfigSolver, Ladder, dec_ladder, inc_ladder, lower_bound, solve_configs
from repro.lowerbound import config
from tests.conftest import any_ladder_strategy, jobset_strategy
from tests.lowerbound.reference import lower_bound_reference, optimal_config_reference
from tests.property.settings import tiered


def assert_matches_reference(rows, ladder):
    """``solve_configs`` on ``rows`` equals the oracle row by row, exactly."""
    rows = np.asarray(rows, dtype=float)
    rates, counts = solve_configs(rows, ladder)
    assert rates.shape == (len(rows),)
    assert counts.shape == (len(rows), ladder.m)
    for k, row in enumerate(rows):
        ref = optimal_config_reference(row, ladder)
        assert rates[k] == ref.rate, (row.tolist(), rates[k], ref.rate)
        assert tuple(int(c) for c in counts[k]) == ref.counts, (row.tolist(), counts[k])


@st.composite
def demand_rows(draw, max_m: int = 5, max_rows: int = 12):
    """A ladder and a matrix of non-increasing demand rows for it."""
    ladder = draw(any_ladder_strategy(max_m=max_m))
    n = draw(st.integers(1, max_rows))
    raw = draw(
        st.lists(
            st.lists(st.floats(0.0, 30.0), min_size=ladder.m, max_size=ladder.m),
            min_size=n,
            max_size=n,
        )
    )
    return ladder, [sorted(row, reverse=True) for row in raw]


@tiered(150)
@given(demand_rows())
def test_solve_configs_bit_identical_to_reference(case):
    ladder, rows = case
    assert_matches_reference(rows, ladder)


@st.composite
def instance_for_ladder(draw):
    ladder = draw(any_ladder_strategy(max_m=4))
    jobs = draw(jobset_strategy(max_jobs=12, max_size=ladder.capacities[-1]))
    return jobs, ladder


@tiered(60)
@given(instance_for_ladder())
def test_lower_bound_matches_reference(case):
    jobs, ladder = case
    res = lower_bound(jobs, ladder)
    value, segments, configs = lower_bound_reference(jobs, ladder)
    assert [(s.left, s.right) for s in res.segments] == segments
    assert res.rates == tuple(c.rate for c in configs)
    assert res.counts == tuple(c.counts for c in configs)
    assert res.value == pytest.approx(value, rel=1e-12, abs=0.0)


class TestFixedRows:
    def test_single_type_ladder(self):
        ladder = Ladder.from_pairs([(2.0, 3.0)])
        rows = [[0.0], [1e-10], [0.5], [2.0], [2.0 + 1e-13], [4.0], [7.3]]
        assert_matches_reference(rows, ladder)
        rates, counts = solve_configs(rows, ladder)
        assert counts[:, 0].tolist() == [0, 0, 1, 1, 1, 2, 4]

    def test_all_zero_rows(self, dec3):
        rates, counts = solve_configs(np.zeros((5, 3)), dec3)
        assert rates.tolist() == [0.0] * 5
        assert counts.tolist() == [[0, 0, 0]] * 5

    @pytest.mark.parametrize("ladder", [dec_ladder(3), inc_ladder(4), dec_ladder(6)])
    def test_demands_on_capacity_multiples(self, ladder):
        # D_i = k_i * g_i exactly, and a hair above: the ceilings' edge cases
        g = ladder.capacities
        rows = []
        for k in range(1, 5):
            for extra in range(3):
                row = [k * g[-1]]
                for i in range(ladder.m - 2, -1, -1):
                    row.insert(0, (math.ceil(row[0] / g[i]) + extra) * g[i])
                rows.append(row)
                rows.append([x + 1e-13 for x in row])
        assert_matches_reference(rows, ladder)

    def test_top_demand_equals_bottom(self, inc3):
        # D_1 = D_m: every active job needs the largest type
        assert_matches_reference([[d] * 3 for d in (0.5, 2.25, 4.5, 9.1)], inc3)

    def test_single_row(self, dec3):
        rates, counts = solve_configs([[9.5, 5.0, 5.0]], dec3)
        assert rates.tolist() == [5.0]
        assert counts.tolist() == [[1, 0, 1]]

    def test_more_rows_than_one_block(self):
        ladder = dec_ladder(4)
        rng = np.random.default_rng(7)
        n = 2 * config._BLOCK_ROWS + 300
        rows = -np.sort(-rng.uniform(0.0, 60.0, size=(n, ladder.m)), axis=1)
        rows[rng.random(n) < 0.1] = 0.0
        rates, counts = solve_configs(rows, ladder)
        for k in range(n):
            one_rate, one_counts = solve_configs(rows[k : k + 1], ladder)
            assert one_rate[0] == rates[k]
            assert one_counts[0].tolist() == counts[k].tolist()
            ref = optimal_config_reference(rows[k], ladder)
            assert (rates[k], tuple(counts[k].tolist())) == (ref.rate, ref.counts)

    def test_large_frontier_in_row_slices(self, monkeypatch):
        # flat unit rates tie every exact cover: hundreds of children and of
        # finished configurations per row, expanded in slices and compacted
        ladder = Ladder.from_pairs([(2.0**i, 2.0**i) for i in range(4)])
        rng = np.random.default_rng(3)
        rows = -np.sort(-rng.uniform(0.0, 60.0, size=(40, ladder.m)), axis=1)
        whole = solve_configs(rows, ladder)
        monkeypatch.setattr(config, "_MAX_CHILDREN", 64)
        sliced = solve_configs(rows, ladder)
        assert whole[0].tolist() == sliced[0].tolist()
        assert whole[1].tolist() == sliced[1].tolist()
        assert_matches_reference(rows, ladder)

    def test_config_solver_runs_the_kernel(self, dec3):
        cfg = ConfigSolver(dec3).solve((9.5, 5.0, 5.0))
        assert cfg == optimal_config_reference((9.5, 5.0, 5.0), dec3)
        assert isinstance(cfg.rate, float)
        assert all(type(c) is int for c in cfg.counts)

    def test_rejects_malformed_matrices(self, dec3):
        with pytest.raises(ValueError):
            solve_configs(np.zeros((2, 2)), dec3)
        with pytest.raises(ValueError):
            solve_configs([[1.0, 2.0, 0.0]], dec3)
        with pytest.raises(ValueError):
            solve_configs([[np.nan, 0.0, 0.0]], dec3)
