"""Unit tests for online machine state and indexed pools."""

import pytest

from repro import SchedulerRuntime, dec_ladder
from repro.machines.fleet import FleetState, IndexedPool
from repro.machines.machine import OnlineMachine
from repro.schedule.schedule import MachineKey
from repro.service.state import capture_state, restore_state


class TestOnlineMachine:
    def test_admit_release(self):
        m = OnlineMachine(MachineKey(1, ("A", 1)), capacity=4.0)
        m.admit(1, 2.0)
        m.admit(2, 2.0)
        assert m.busy
        assert m.load == pytest.approx(4.0)
        assert not m.fits(0.1)
        m.release(1)
        assert m.fits(2.0)
        m.release(2)
        assert m.empty
        assert m.load == 0.0

    def test_overfill_rejected(self):
        m = OnlineMachine(MachineKey(1, ("A", 1)), capacity=1.0)
        m.admit(1, 0.7)
        with pytest.raises(ValueError):
            m.admit(2, 0.5)

    def test_double_admit_rejected(self):
        m = OnlineMachine(MachineKey(1, ("A", 1)), capacity=4.0)
        m.admit(1, 1.0)
        with pytest.raises(ValueError):
            m.admit(1, 1.0)

    def test_release_unknown_raises(self):
        m = OnlineMachine(MachineKey(1, ("A", 1)), capacity=4.0)
        with pytest.raises(KeyError):
            m.release(42)


class TestIndexedPool:
    def test_first_fit_prefers_lowest_index(self):
        pool = IndexedPool("A", 1, capacity=2.0, budget=None)
        m1 = pool.first_fit(1, 1.0)
        m2 = pool.first_fit(2, 1.5)  # doesn't fit m1 -> new machine
        m3 = pool.first_fit(3, 1.0)  # fits m1
        assert m1.key.tag == ("A", 1)
        assert m2.key.tag == ("A", 2)
        assert m3 is m1

    def test_size_limit(self):
        pool = IndexedPool("A", 1, capacity=4.0, size_limit=2.0, budget=None)
        assert pool.first_fit(1, 2.5) is None
        assert pool.first_fit(2, 2.0) is not None

    def test_budget_blocks_new_machines_only(self):
        pool = IndexedPool("A", 1, capacity=2.0, budget=1)
        m1 = pool.first_fit(1, 1.0)
        assert m1 is not None
        # budget reached: cannot open machine 2
        assert pool.first_fit(2, 2.0) is None
        # but the busy machine can still accept load
        m3 = pool.first_fit(3, 0.5)
        assert m3 is m1

    def test_budget_frees_on_departure(self):
        pool = IndexedPool("B", 2, capacity=1.0, budget=1, single_job=True)
        state = FleetState()
        m1 = pool.first_fit(1, 1.0)
        state.record(1, m1)
        assert pool.first_fit(2, 1.0) is None  # budget blocked
        state.depart(1)
        m2 = pool.first_fit(2, 1.0)
        assert m2 is m1  # lowest-indexed empty machine reused

    def test_single_job_pool_never_shares(self):
        pool = IndexedPool("B", 1, capacity=10.0, budget=None, single_job=True)
        m1 = pool.first_fit(1, 1.0)
        m2 = pool.first_fit(2, 1.0)
        assert m1 is not m2

    def test_busy_count(self):
        pool = IndexedPool("A", 1, capacity=1.0, budget=None)
        state = FleetState()
        for uid in range(3):
            state.record(uid, pool.first_fit(uid, 1.0))
        assert pool.busy_count() == 3
        state.depart(1)
        assert pool.busy_count() == 2


class TestPlacementStats:
    def test_probes_accumulate_across_shared_pools(self):
        state = FleetState()
        a = IndexedPool("A", 1, capacity=2.0, budget=None, stats=state.stats)
        b = IndexedPool("B", 1, capacity=2.0, budget=None, stats=state.stats)
        a.first_fit(1, 1.0)
        b.first_fit(2, 1.0)
        assert state.stats.decisions == 2
        assert a.stats is b.stats is state.stats

    def test_reference_counts_scanned_machines(self):
        pool = IndexedPool("A", 1, capacity=1.0, budget=None)
        for uid in range(4):
            pool.first_fit_reference(uid, 1.0)  # each opens a fresh machine
        before = pool.stats.probes
        pool.first_fit_reference(9, 1.0)
        # the fifth call scanned all four full machines before opening
        assert pool.stats.probes - before == 4

    def test_busy_count_live_under_direct_release(self):
        pool = IndexedPool("A", 1, capacity=1.0, budget=None)
        machines = [pool.first_fit(uid, 1.0) for uid in range(3)]
        assert pool.busy_count() == 3
        machines[1].release(1)  # bypasses FleetState on purpose
        assert pool.busy_count() == 2
        # the freed machine is found again via the free-slot heap
        assert pool.first_fit(7, 1.0) is machines[1]


class TestFreeSlotHeap:
    """The free-slot heap holds exactly the empty slots, so a restored pool
    probes like the live one it was captured from."""

    def test_failed_admit_leaves_the_fresh_machine_reusable(self):
        pool = IndexedPool("A", 1, capacity=1.0, size_limit=2.0, budget=None)
        with pytest.raises(ValueError):
            pool.first_fit(1, 1.5)  # admissible, but over the raw capacity
        assert pool.first_fit(2, 0.5) is pool.machines[0]

    def test_restored_runtime_counts_probes_like_the_live_one(self):
        # first-fit on dec(3): eight full machines, restore, one more submit
        ladder = dec_ladder(3)
        live = SchedulerRuntime.create("first-fit", ladder)
        for _ in range(8):
            live.submit(ladder.capacity(1), 0.0)
        restored = restore_state(capture_state(live))
        for rt in (live, restored):
            rt.submit(ladder.capacity(1), 0.0)
        stats = [capture_state(rt)["placement_stats"] for rt in (live, restored)]
        assert stats[0] == stats[1] == {"decisions": 9, "probes": 9}


class TestFleetState:
    def test_depart_unknown_raises(self):
        with pytest.raises(KeyError):
            FleetState().depart(3)
