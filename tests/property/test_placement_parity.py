"""The indexed placement engine is gated on exact parity with the scan.

``IndexedPool.first_fit`` (segment tree + free-slot heap) must reproduce the
``first_fit_reference`` linear scan decision-for-decision: same accept/reject
outcomes, same machine keys in the same order, bit-identical machine loads.
Random admit/release traffic covers mixed sizes, concurrency budgets,
size-limited (Group A) pools and single-job (Group B) pools; a scheduler-
level test replays whole DEC and INC instances through both engines, on
small ladders and on a deep ladder with hundreds of jobs live, and compares
placement sequences and final schedule costs.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, strategies as st

from tests.property.settings import tiered

import repro.online.dec_online as dec_mod
import repro.online.inc_online as inc_mod
from repro import Job, JobSet, dec_ladder, inc_ladder, run_online, uniform_workload
from repro.machines.fleet import IndexedPool
from repro.online.dec_online import DecOnlineScheduler
from repro.online.inc_online import IncOnlineScheduler

CAPACITY = 4.0


@st.composite
def traffic(draw):
    """A sequence of (kind, payload) events: admit(size) / release(nth)."""
    return draw(
        st.lists(
            st.one_of(
                st.tuples(st.just("admit"), st.floats(0.05, CAPACITY * 1.25)),
                st.tuples(st.just("release"), st.integers(0, 60)),
            ),
            max_size=120,
        )
    )


def _drive(pool: IndexedPool, events, *, reference: bool) -> list:
    """Replay traffic through one engine; return the decision trace."""
    place = pool.first_fit_reference if reference else pool.first_fit
    live: list[tuple[int, object]] = []
    trace = []
    uid = 0
    for kind, payload in events:
        if kind == "admit":
            uid += 1
            machine = place(uid, float(payload))
            if machine is not None:
                live.append((uid, machine))
            trace.append(machine.key if machine is not None else None)
        else:
            if live:
                gone_uid, machine = live.pop(int(payload) % len(live))
                machine.release(gone_uid)
    return trace


def _pool_pair(**kwargs) -> tuple[IndexedPool, IndexedPool]:
    return (
        IndexedPool("P", 1, CAPACITY, **kwargs),
        IndexedPool("P", 1, CAPACITY, **kwargs),
    )


def _assert_parity(events, **pool_kwargs) -> None:
    indexed, scan = _pool_pair(**pool_kwargs)
    got = _drive(indexed, events, reference=False)
    want = _drive(scan, events, reference=True)
    assert got == want
    # state parity too: same machines, bit-identical loads
    assert len(indexed.machines) == len(scan.machines)
    for a, b in zip(indexed.machines, scan.machines):
        assert a.key == b.key
        assert a.load == b.load  # bit-identical, not approx
        assert sorted(a.resident.items()) == sorted(b.resident.items())
    assert indexed.busy_count() == scan.busy_count()


@tiered(120)
@given(traffic(), st.one_of(st.none(), st.integers(1, 5)))
def test_multi_job_pool_parity(events, budget):
    _assert_parity(events, budget=budget)


@tiered(120)
@given(traffic(), st.one_of(st.none(), st.integers(1, 4)))
def test_single_job_pool_parity(events, budget):
    _assert_parity(events, budget=budget, single_job=True)


@tiered(80)
@given(traffic())
def test_size_limited_pool_parity(events):
    _assert_parity(events, size_limit=CAPACITY / 2.0, budget=3)


class _ScanPool(IndexedPool):
    """IndexedPool forced onto the reference scan (test-only engine swap)."""

    __slots__ = ()

    def first_fit(self, uid, size):
        return self.first_fit_reference(uid, size)


def _assert_scheduler_parity(scheduler_cls, module, ladder, jobs) -> None:
    """A whole online run places identically under either engine."""
    fast = run_online(jobs, scheduler_cls(ladder))
    original = module.IndexedPool
    module.IndexedPool = _ScanPool
    try:
        slow = run_online(jobs, scheduler_cls(ladder))
    finally:
        module.IndexedPool = original

    fast_map = {job.uid: key for job, key in fast.assignment.items()}
    slow_map = {job.uid: key for job, key in slow.assignment.items()}
    assert fast_map == slow_map
    assert list(fast.assignment.values()) == list(slow.assignment.values())
    assert fast.cost() == slow.cost()  # bit-identical placements => costs


@tiered(15)
@given(st.integers(0, 2**32 - 1), st.integers(60, 220))
def test_dec_scheduler_engine_parity(seed, n):
    """Whole DEC-ONLINE runs place identically under either engine."""
    ladder = dec_ladder(3)
    jobs = uniform_workload(n, np.random.default_rng(seed), max_size=ladder.capacity(3))
    _assert_scheduler_parity(DecOnlineScheduler, dec_mod, ladder, jobs)


@tiered(15)
@given(st.integers(0, 2**32 - 1), st.integers(60, 220))
def test_inc_scheduler_engine_parity(seed, n):
    """Whole INC-ONLINE runs place identically under either engine."""
    ladder = inc_ladder(3)
    jobs = uniform_workload(n, np.random.default_rng(seed), max_size=ladder.capacity(3))
    _assert_scheduler_parity(IncOnlineScheduler, inc_mod, ladder, jobs)


@pytest.mark.parametrize(
    "scheduler_cls, module",
    [(DecOnlineScheduler, dec_mod), (IncOnlineScheduler, inc_mod)],
    ids=["dec", "inc"],
)
def test_deep_ladder_high_concurrency_parity(scheduler_cls, module):
    """A deep DEC(6) ladder with hundreds of jobs live at once, so the
    pools hold many busy machines: the regime where the index and the scan
    differ most in work, and where a divergence would hide."""
    ladder = dec_ladder(6)
    rng = np.random.default_rng(2020)
    n = 1200
    arrivals = np.sort(rng.uniform(0.0, n / 200.0, size=n))
    durations = rng.uniform(5.0, 25.0, size=n)
    sizes = rng.uniform(0.05, ladder.capacity(ladder.m), size=n)
    jobs = JobSet(
        Job(size=float(s), arrival=float(a), departure=float(a + d))
        for a, d, s in zip(arrivals, durations, sizes)
    )
    _assert_scheduler_parity(scheduler_cls, module, ladder, jobs)
