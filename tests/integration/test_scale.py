"""Scale smoke: every scheduler and the lower bound stay correct and fast
on 2000-job traces."""

import time

import numpy as np
import pytest

from repro import (
    DecOnlineScheduler,
    GeneralOnlineScheduler,
    dec_ladder,
    dec_offline,
    inc_ladder,
    inc_offline,
    lower_bound,
    poisson_workload,
    run_online,
)
from repro.online.inc_online import IncOnlineScheduler
from repro.schedule.validate import assert_feasible


@pytest.fixture(scope="module")
def big_dec():
    ladder = dec_ladder(4)
    rng = np.random.default_rng(424242)
    return poisson_workload(2000, rng, max_size=ladder.capacity(4)), ladder


class TestScale:
    def test_offline_at_scale(self, big_dec):
        jobs, ladder = big_dec
        start = time.perf_counter()
        sched = dec_offline(jobs, ladder)
        elapsed = time.perf_counter() - start
        assert_feasible(sched, jobs)
        assert elapsed < 30.0  # generous CI margin; ~0.2 s typical
        lb = lower_bound(jobs, ladder).value
        assert sched.cost() <= 14 * lb

    def test_online_at_scale(self, big_dec):
        jobs, ladder = big_dec
        for scheduler in (DecOnlineScheduler(ladder), GeneralOnlineScheduler(ladder)):
            sched = run_online(jobs, scheduler)
            assert_feasible(sched, jobs)

    def test_inc_at_scale(self):
        ladder = inc_ladder(4)
        rng = np.random.default_rng(99)
        jobs = poisson_workload(2000, rng, max_size=ladder.capacity(4))
        for sched in (
            inc_offline(jobs, ladder),
            run_online(jobs, IncOnlineScheduler(ladder)),
        ):
            assert_feasible(sched, jobs)

    def test_lower_bound_at_scale(self, big_dec):
        jobs, ladder = big_dec
        start = time.perf_counter()
        lb = lower_bound(jobs, ladder)
        assert time.perf_counter() - start < 30.0
        assert lb.value > 0
        assert len(lb.segments) > 1000

    def test_lower_bound_inc_high_live(self):
        # INC(4) at ~250 live jobs: the configuration search must not grow
        # steeply with the live level
        ladder = inc_ladder(4)
        rng = np.random.default_rng(2024)
        jobs = poisson_workload(
            2000, rng, mean_duration=250.0, max_size=ladder.capacity(4)
        )
        start = time.perf_counter()
        lb = lower_bound(jobs, ladder)
        assert time.perf_counter() - start < 5.0  # generous CI margin; ~0.1 s typical
        assert lb.value > 0
        assert max(sum(c) for c in lb.counts) > 100  # hundreds of machines live
