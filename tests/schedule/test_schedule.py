"""Unit tests for Schedule cost accounting."""

import pytest

from repro import Job, JobSet, MachineKey, Schedule, dec_ladder


@pytest.fixture
def two_jobs():
    return [
        Job(0.5, 0.0, 4.0, name="a"),
        Job(0.5, 2.0, 6.0, name="b"),
    ]


class TestCost:
    def test_single_machine_busy_union(self, dec3, two_jobs):
        key = MachineKey(1, ("m", 0))
        sched = Schedule(dec3, {two_jobs[0]: key, two_jobs[1]: key})
        # busy = union [0,6) length 6, rate 1
        assert sched.cost() == pytest.approx(6.0)

    def test_two_machines_sum(self, dec3, two_jobs):
        sched = Schedule(
            dec3,
            {
                two_jobs[0]: MachineKey(1, ("m", 0)),
                two_jobs[1]: MachineKey(2, ("m", 1)),
            },
        )
        # machine 1: 4 * r1(1); machine 2: 4 * r2(2)
        assert sched.cost() == pytest.approx(4.0 + 8.0)

    def test_disjoint_busy_periods_on_one_machine(self, dec3):
        a = Job(0.5, 0, 1, name="a")
        b = Job(0.5, 5, 7, name="b")
        key = MachineKey(1, ("m", 0))
        sched = Schedule(dec3, {a: key, b: key})
        assert sched.cost() == pytest.approx(3.0)  # 1 + 2, idle gap unpaid

    def test_cost_by_type(self, dec3, two_jobs):
        sched = Schedule(
            dec3,
            {
                two_jobs[0]: MachineKey(1, ("m", 0)),
                two_jobs[1]: MachineKey(3, ("m", 1)),
            },
        )
        by_type = sched.cost_by_type()
        assert by_type[1] == pytest.approx(4.0)
        assert by_type[2] == 0.0
        assert by_type[3] == pytest.approx(16.0)
        assert sum(by_type.values()) == pytest.approx(sched.cost())

    def test_machine_count_by_type(self, dec3, two_jobs):
        sched = Schedule(
            dec3,
            {
                two_jobs[0]: MachineKey(1, ("m", 0)),
                two_jobs[1]: MachineKey(1, ("m", 1)),
            },
        )
        assert sched.machine_count_by_type() == {1: 2, 2: 0, 3: 0}


class TestStructure:
    def test_invalid_type_index_rejected(self, dec3, two_jobs):
        with pytest.raises(ValueError):
            Schedule(dec3, {two_jobs[0]: MachineKey(9, ("m", 0))})

    def test_jobs_on_and_machine_of(self, dec3, two_jobs):
        key = MachineKey(2, ("x",))
        sched = Schedule(dec3, {two_jobs[0]: key, two_jobs[1]: key})
        assert sched.machine_of(two_jobs[0]) == key
        assert len(sched.jobs_on(key)) == 2
        assert sched.machines() == [key]

    def test_merge_disjoint(self, dec3, two_jobs):
        s1 = Schedule(dec3, {two_jobs[0]: MachineKey(1, ("m", 0))})
        s2 = Schedule(dec3, {two_jobs[1]: MachineKey(1, ("m", 1))})
        merged = s1.merge(s2)
        assert len(merged) == 2

    def test_merge_duplicate_job_rejected(self, dec3, two_jobs):
        s1 = Schedule(dec3, {two_jobs[0]: MachineKey(1, ("m", 0))})
        s2 = Schedule(dec3, {two_jobs[0]: MachineKey(1, ("m", 1))})
        with pytest.raises(ValueError):
            s1.merge(s2)

    def test_merge_different_ladder_rejected(self, dec3, two_jobs):
        other = dec_ladder(2)
        s1 = Schedule(dec3, {two_jobs[0]: MachineKey(1, ("m", 0))})
        s2 = Schedule(other, {two_jobs[1]: MachineKey(1, ("m", 1))})
        with pytest.raises(ValueError):
            s1.merge(s2)

    def test_empty_schedule(self, dec3):
        sched = Schedule(dec3, {})
        assert sched.cost() == 0.0
        assert sched.machines() == []


class TestColumns:
    """``Schedule.from_columns``: what the offline engines emit."""

    def test_from_columns_is_the_mapping_it_describes(self, dec3, two_jobs):
        jobs = JobSet(two_jobs)
        keys = [MachineKey(1, ("m", 0)), MachineKey(2, ("m", 1))]
        # the later job was assigned first, to the first machine
        sched = Schedule.from_columns(dec3, jobs, [1, 0], [0, 1], keys)
        assert list(sched.assignment.items()) == [(two_jobs[1], keys[0]), (two_jobs[0], keys[1])]
        assert sched.jobs is jobs
        assert sched.machine_table == tuple(keys)
        assert sched.machine_ids().tolist() == [1, 0]
        assert sched.cost() == Schedule(dec3, sched.assignment).cost() == 4.0 + 8.0

    def test_partial_columns_keep_only_the_scheduled_jobs(self, dec3, two_jobs):
        key = MachineKey(1, ("m", 0))
        sched = Schedule.from_columns(dec3, JobSet(two_jobs), [1], [0], [key])
        assert sched.assignment == {two_jobs[1]: key}
        assert len(sched.jobs) == 1

    def test_a_machine_listed_twice_is_rejected(self, dec3, two_jobs):
        key = MachineKey(1, ("m", 0))
        with pytest.raises(ValueError, match="each machine once"):
            Schedule.from_columns(dec3, JobSet(two_jobs), [0, 1], [0, 1], [key, key])
