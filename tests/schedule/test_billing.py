"""Tests for billing models."""

import pytest
from hypothesis import given, settings

from repro import Job, JobSet, MachineKey, Schedule, dec_ladder, general_offline
from repro.schedule.billing import FLUID, BillingModel, billed_cost, billing_overhead
from tests.conftest import jobset_strategy


class TestBillingModel:
    def test_fluid_is_identity(self):
        assert FLUID.billed_duration(3.7) == 3.7
        assert FLUID.describe() == "fluid"

    def test_rounding_up(self):
        hourly = BillingModel(period=1.0)
        assert hourly.billed_duration(0.1) == 1.0
        assert hourly.billed_duration(1.0) == 1.0
        assert hourly.billed_duration(1.01) == 2.0

    def test_minimum(self):
        model = BillingModel(minimum=5.0)
        assert model.billed_duration(1.0) == 5.0
        assert model.billed_duration(7.0) == 7.0

    def test_zero_length_free(self):
        assert BillingModel(period=1.0, minimum=2.0).billed_duration(0.0) == 0.0

    def test_invalid(self):
        with pytest.raises(ValueError):
            BillingModel(period=-1.0)

    def test_describe(self):
        assert "per-1" in BillingModel(period=1.0).describe()
        assert "min 2" in BillingModel(minimum=2.0).describe()


class TestBilledCost:
    def test_fluid_matches_schedule_cost(self, dec3, small_jobs):
        sched = general_offline(small_jobs, dec3)
        assert billed_cost(sched, FLUID) == pytest.approx(sched.cost())

    def test_each_busy_period_billed_separately(self, dec3):
        # one machine, two busy periods of 0.4 each -> hourly bills 2 periods
        a = Job(0.5, 0.0, 0.4, name="a")
        b = Job(0.5, 5.0, 5.4, name="b")
        key = MachineKey(1, ("m", 0))
        sched = Schedule(dec3, {a: key, b: key})
        hourly = BillingModel(period=1.0)
        assert billed_cost(sched, hourly) == pytest.approx(2.0)  # 2 x 1h x rate 1

    def test_merged_busy_period_billed_once(self, dec3):
        a = Job(0.5, 0.0, 0.4, name="a")
        b = Job(0.4, 0.3, 0.9, name="b")  # overlaps a: one busy period [0, 0.9)
        key = MachineKey(1, ("m", 0))
        sched = Schedule(dec3, {a: key, b: key})
        assert billed_cost(sched, BillingModel(period=1.0)) == pytest.approx(1.0)

    def test_overhead_one_for_empty(self, dec3):
        sched = Schedule(dec3, {})
        assert billing_overhead(sched, BillingModel(period=1.0)) == 1.0

    @settings(deadline=None, max_examples=25)
    @given(jobset_strategy(max_jobs=15, max_size=8.0))
    def test_property_billed_at_least_fluid(self, jobs):
        ladder = dec_ladder(3)
        sched = general_offline(jobs, ladder)
        for period in (0.25, 1.0, 5.0):
            assert billed_cost(sched, BillingModel(period=period)) >= sched.cost() - 1e-9

    @settings(deadline=None, max_examples=20)
    @given(jobset_strategy(max_jobs=15, max_size=8.0))
    def test_property_overhead_bounded_by_period_ratio(self, jobs):
        """billed period <= length + period, so overhead <= 1 + period/min_len."""
        ladder = dec_ladder(3)
        sched = general_offline(jobs, ladder)
        period = 0.5
        groups = sched.by_machine()
        min_busy = min(
            (p.length for key in groups for p in sched.busy_set(key)),
            default=1.0,
        )
        overhead = billing_overhead(sched, BillingModel(period=period))
        assert overhead <= 1.0 + period / min_busy + 1e-9
