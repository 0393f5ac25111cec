"""Differential tests: the object-level accounting APIs against the naive
``*_reference`` oracles.

The entry points the rest of the program calls with Python objects —
``sum_pulses``, the ``JobSet`` aggregates, ``BusyIntervalCache`` (the
streaming runtime's cost), ``Schedule`` busy times and cost, and
``sweep_nested_demand`` — are pinned to the retired naive implementations:
**exact** equality on integer inputs (where float arithmetic is exact),
1e-9 tolerance on float inputs (where only summation order differs).
~200 Hypothesis examples per pair.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro import (
    BusyIntervalCache,
    Job,
    JobSet,
    MachineKey,
    Schedule,
    busy_time_reference,
    busy_union_reference,
    dec_ladder,
    demand_profile_reference,
    grouped_busy_time_reference,
    nested_demand_reference,
    peak_load_reference,
    single_type_ladder,
    sum_pulses,
    sum_pulses_reference,
    sweep_nested_demand,
)
from tests.conftest import jobset_strategy
from tests.schedule.reference import cost_dict_reference, cost_reference

from tests.property.settings import tiered

# ci-tier baseline: ~200 examples per kernel pair
ORACLE = tiered(200)

TOL = 1e-9


def _jobset(starts, ends, sizes):
    return JobSet(
        Job(size=float(z), arrival=float(a), departure=float(b), uid=k)
        for k, (a, b, z) in enumerate(zip(starts, ends, sizes))
    )


def _busy_time_with(starts, ends):
    """The runtime's busy time: half the intervals recorded as closed, the
    rest passed as still-open extras."""
    cache = BusyIntervalCache()
    pairs = list(zip(starts, ends))
    for a, b in pairs[::2]:
        cache.add("m", a, b)
    return cache.busy_time_with("m", pairs[1::2])


# ---------------------------------------------------------------------------
# strategies: weighted interval batches, integer and float flavours
# ---------------------------------------------------------------------------

@st.composite
def int_intervals(draw, max_n: int = 25, max_weight: int = 9):
    """(starts, ends, weights) with integer coordinates — float-exact."""
    n = draw(st.integers(1, max_n))
    starts = draw(st.lists(st.integers(0, 100), min_size=n, max_size=n))
    durations = draw(st.lists(st.integers(1, 40), min_size=n, max_size=n))
    weights = draw(st.lists(st.integers(1, max_weight), min_size=n, max_size=n))
    ends = [a + d for a, d in zip(starts, durations)]
    return starts, ends, weights


@st.composite
def float_intervals(draw, max_n: int = 25):
    """(starts, ends, weights) with arbitrary float coordinates."""
    n = draw(st.integers(1, max_n))
    f = st.floats(0.0, 100.0, allow_nan=False, allow_infinity=False)
    d = st.floats(0.05, 40.0, allow_nan=False, allow_infinity=False)
    w = st.floats(0.05, 8.0, allow_nan=False, allow_infinity=False)
    starts = draw(st.lists(f, min_size=n, max_size=n))
    durations = draw(st.lists(d, min_size=n, max_size=n))
    weights = draw(st.lists(w, min_size=n, max_size=n))
    ends = [a + dd for a, dd in zip(starts, durations)]
    return starts, ends, weights


def _profile_probes(*profiles):
    """Probe times covering every breakpoint and every segment midpoint."""
    breaks = np.unique(np.concatenate([p.breaks for p in profiles]))
    mids = (breaks[:-1] + breaks[1:]) / 2.0
    return np.concatenate([breaks, mids, breaks - 1e-3, breaks + 1e-3])


# ---------------------------------------------------------------------------
# demand profiles
# ---------------------------------------------------------------------------

class TestDemandProfileOracle:
    @ORACLE
    @given(int_intervals())
    def test_exact_on_integers(self, batch):
        starts, ends, weights = batch
        pulses = list(zip(starts, ends, weights))
        profile = _jobset(starts, ends, weights).demand_profile()
        assert profile == demand_profile_reference(pulses)

    @ORACLE
    @given(float_intervals())
    def test_pointwise_on_floats(self, batch):
        starts, ends, weights = batch
        pulses = list(zip(starts, ends, weights))
        fast = _jobset(starts, ends, weights).demand_profile()
        ref = demand_profile_reference(pulses)
        for t in _profile_probes(fast, ref):
            assert fast(float(t)) == pytest.approx(ref(float(t)), abs=TOL, rel=TOL)
        assert fast.integral() == pytest.approx(ref.integral(), rel=TOL, abs=TOL)

    @ORACLE
    @given(int_intervals())
    def test_sum_pulses_dispatches_to_sweep(self, batch):
        starts, ends, weights = batch
        pulses = list(zip(starts, ends, weights))
        assert sum_pulses(pulses) == sum_pulses_reference(pulses)


# ---------------------------------------------------------------------------
# busy-interval unions
# ---------------------------------------------------------------------------

class TestBusyUnionOracle:
    @ORACLE
    @given(int_intervals())
    def test_union_exact_on_integers(self, batch):
        starts, ends, sizes = batch
        span = _jobset(starts, ends, sizes).busy_span()
        assert span == busy_union_reference(starts, ends)

    @ORACLE
    @given(float_intervals())
    def test_union_exact_on_floats(self, batch):
        # endpoints pass through both paths unchanged, so even the float
        # case is structurally exact — only derived *measures* can drift
        starts, ends, sizes = batch
        span = _jobset(starts, ends, sizes).busy_span()
        assert span == busy_union_reference(starts, ends)

    @ORACLE
    @given(int_intervals())
    def test_busy_time_exact_on_integers(self, batch):
        starts, ends, _ = batch
        assert _busy_time_with(starts, ends) == busy_time_reference(starts, ends)

    @ORACLE
    @given(float_intervals())
    def test_busy_time_on_floats(self, batch):
        starts, ends, _ = batch
        assert _busy_time_with(starts, ends) == pytest.approx(
            busy_time_reference(starts, ends), rel=TOL, abs=TOL
        )


# ---------------------------------------------------------------------------
# capacity checks
# ---------------------------------------------------------------------------

class TestPeakLoadOracle:
    @ORACLE
    @given(int_intervals())
    def test_exact_on_integers(self, batch):
        starts, ends, sizes = batch
        peak = _jobset(starts, ends, sizes).peak_demand()
        assert peak == peak_load_reference(starts, ends, sizes)

    @ORACLE
    @given(float_intervals())
    def test_tolerance_on_floats(self, batch):
        starts, ends, sizes = batch
        assert _jobset(starts, ends, sizes).peak_demand() == pytest.approx(
            peak_load_reference(starts, ends, sizes), rel=TOL, abs=TOL
        )


# ---------------------------------------------------------------------------
# grouped busy time (the busy-cost integrator)
# ---------------------------------------------------------------------------

@st.composite
def grouped_batch(draw, intervals, max_groups: int = 5):
    starts, ends, _ = draw(intervals)
    n_groups = draw(st.integers(1, max_groups))
    groups = draw(
        st.lists(
            st.integers(0, n_groups - 1), min_size=len(starts), max_size=len(starts)
        )
    )
    return starts, ends, groups, n_groups


def _schedule_busy_times(starts, ends, groups, n_groups):
    """``Schedule.busy_times`` with group ``g`` on machine ``("m", g)``."""
    jobs = _jobset(starts, ends, [1.0] * len(starts))
    sched = Schedule(
        single_type_ladder(),
        {jobs[uid]: MachineKey(1, ("m", g)) for uid, g in enumerate(groups)},
    )
    busy = sched.busy_times()
    return np.array([busy.get(MachineKey(1, ("m", g)), 0.0) for g in range(n_groups)])


class TestGroupedBusyTimeOracle:
    @ORACLE
    @given(grouped_batch(int_intervals()))
    def test_exact_on_integers(self, batch):
        starts, ends, groups, n_groups = batch
        fast = _schedule_busy_times(starts, ends, groups, n_groups)
        ref = grouped_busy_time_reference(starts, ends, groups, n_groups)
        assert np.array_equal(fast, ref)

    @ORACLE
    @given(grouped_batch(float_intervals()))
    def test_tolerance_on_floats(self, batch):
        starts, ends, groups, n_groups = batch
        fast = _schedule_busy_times(starts, ends, groups, n_groups)
        ref = grouped_busy_time_reference(starts, ends, groups, n_groups)
        np.testing.assert_allclose(fast, ref, rtol=TOL, atol=TOL)


# ---------------------------------------------------------------------------
# nested demands (lower bound)
# ---------------------------------------------------------------------------

@st.composite
def capacities_strategy(draw, top: float = 8.0):
    """Strictly increasing capacities whose largest covers every job size."""
    lower = draw(
        st.lists(
            st.floats(0.1, top - 0.1, allow_nan=False, allow_infinity=False),
            max_size=4,
            unique=True,
        )
    )
    return sorted(lower) + [top]


class TestNestedDemandOracle:
    @ORACLE
    @given(jobset_strategy(max_jobs=20), capacities_strategy())
    def test_against_reference(self, jobs, capacities):
        t_fast, a_fast, d_fast = sweep_nested_demand(list(jobs), capacities)
        t_ref, a_ref, d_ref = nested_demand_reference(list(jobs), capacities)
        np.testing.assert_array_equal(t_fast, t_ref)
        np.testing.assert_array_equal(a_fast, a_ref)  # exact integer counts
        np.testing.assert_allclose(d_fast, d_ref, rtol=TOL, atol=TOL)

    @ORACLE
    @given(int_intervals(max_n=15))
    def test_exact_on_integer_jobs(self, batch):
        starts, ends, sizes = batch
        jobs = [
            Job(size=float(s), arrival=float(a), departure=float(b))
            for a, b, s in zip(starts, ends, sizes)
        ]
        caps = [2.0, 5.0, 9.0]
        t_fast, a_fast, d_fast = sweep_nested_demand(jobs, caps)
        t_ref, a_ref, d_ref = nested_demand_reference(jobs, caps)
        np.testing.assert_array_equal(t_fast, t_ref)
        np.testing.assert_array_equal(a_fast, a_ref)
        np.testing.assert_array_equal(d_fast, d_ref)


# ---------------------------------------------------------------------------
# end-to-end: schedule busy cost
# ---------------------------------------------------------------------------

class TestScheduleCostOracle:
    @ORACLE
    @given(
        jobset_strategy(max_jobs=20),
        st.lists(st.integers(0, 3), min_size=20, max_size=20),
    )
    def test_cost_matches_reference(self, jobs, tags):
        # every job fits the top type of dec_ladder(3) (capacity 9 >= 8)
        ladder = dec_ladder(3)
        sched = Schedule(
            ladder,
            {job: MachineKey(3, ("m", tag)) for job, tag in zip(jobs, tags)},
        )
        assert sched.cost() == pytest.approx(cost_reference(sched), rel=TOL, abs=TOL)
        assert sched.cost() == cost_dict_reference(sched)  # bit for bit
