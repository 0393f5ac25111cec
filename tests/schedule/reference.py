"""Test oracles for :class:`~repro.schedule.schedule.Schedule` accounting.

``Schedule`` keeps its assignment as columns.  These are the dict-backed
accounting it replaced: group the ``(Job, MachineKey)`` pairs of
``schedule.assignment`` by machine in insertion order, feed every group's
intervals to one :func:`~repro.core.vectorized.vec_grouped_busy_time`
call, and sum ``rate * busy`` in machine first-seen order.  The columnar
accounting must match them bit for bit.  :func:`cost_reference` is the
older naive oracle (one interval union per machine).
"""

from __future__ import annotations

from repro import MachineKey, Schedule
from repro.core.sweep import busy_union_reference
from repro.core.vectorized import vec_grouped_busy_time


def by_machine_reference(schedule: Schedule) -> dict:
    """Jobs grouped by machine, both in assignment insertion order."""
    groups: dict = {}
    for job, key in schedule.assignment.items():
        groups.setdefault(key, []).append(job)
    return groups


def busy_times_reference(schedule: Schedule) -> dict[MachineKey, float]:
    """Every machine's busy time, from the job groups of the assignment."""
    groups = by_machine_reference(schedule)
    keys = list(groups)
    starts: list[float] = []
    ends: list[float] = []
    gidx: list[int] = []
    for gi, key in enumerate(keys):
        for job in groups[key]:
            starts.append(job.arrival)
            ends.append(job.departure)
            gidx.append(gi)
    busy = vec_grouped_busy_time(starts, ends, gidx, len(keys))
    return {key: float(b) for key, b in zip(keys, busy)}


def cost_dict_reference(schedule: Schedule) -> float:
    """Total busy cost summed in machine first-seen order."""
    return sum(
        schedule.ladder.rate(key.type_index) * busy
        for key, busy in busy_times_reference(schedule).items()
    )


def cost_reference(schedule: Schedule) -> float:
    """Busy cost from a naive interval union per machine."""
    total = 0.0
    for key, jobs in by_machine_reference(schedule).items():
        union = busy_union_reference(
            [j.arrival for j in jobs], [j.departure for j in jobs]
        )
        total += schedule.ladder.rate(key.type_index) * union.length
    return total
