"""Schedules: the assignment of jobs to concrete machines, plus exact cost.

A :class:`Schedule` maps every job to a :class:`MachineKey` — a distinct
physical machine identified by ``(type_index, tag)``.  Machines exist only
implicitly through the jobs assigned to them; a machine's *busy time* is the
measure of the union of its jobs' active intervals, and its cost is busy time
times its type's rate (the BSHM objective).

Feasibility (capacity at every instant, every job placed, sizes fit) is
checked by :mod:`repro.schedule.validate`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

from ..core.intervals import IntervalSet
# the oracle import feeds cost_reference() only — Schedule deliberately
# carries its own differential-test twin.  # bshm: ignore[BSHM003]
from ..core.sweep import busy_union_reference
from ..core.vectorized import vec_busy_union, vec_grouped_busy_time
from ..jobs.job import Job
from ..jobs.jobset import JobSet
from ..machines.ladder import Ladder

__all__ = ["MachineKey", "Schedule"]


@dataclass(frozen=True, slots=True, order=True)
class MachineKey:
    """Identity of one physical machine: its 1-based type index and a
    scheduler-chosen tag that distinguishes machines of the same type
    (e.g. ``("iter3", "strip", 2)`` or ``("A", 7)``)."""

    type_index: int
    tag: tuple

    def __str__(self) -> str:
        inner = "/".join(str(p) for p in self.tag)
        return f"T{self.type_index}[{inner}]"


class Schedule:
    """An immutable job → machine assignment over a ladder."""

    __slots__ = ("ladder", "_assignment", "_jobs", "_memo")

    def __init__(
        self,
        ladder: Ladder,
        assignment: Mapping[Job, MachineKey] | Iterable[tuple[Job, MachineKey]],
    ) -> None:
        pairs = dict(assignment.items()) if isinstance(assignment, Mapping) else dict(assignment)
        for job, key in pairs.items():
            if not 1 <= key.type_index <= ladder.m:
                raise ValueError(f"machine type {key.type_index} not in ladder for {job}")
        object.__setattr__(self, "ladder", ladder)
        object.__setattr__(self, "_assignment", pairs)
        object.__setattr__(self, "_jobs", JobSet(pairs.keys()))
        # memoized derived data; safe because the assignment is immutable —
        # any "placement change" necessarily constructs a new Schedule
        object.__setattr__(self, "_memo", {})

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("Schedule is immutable")

    # -- access ----------------------------------------------------------
    @property
    def jobs(self) -> JobSet:
        return self._jobs

    @property
    def assignment(self) -> dict[Job, MachineKey]:
        return dict(self._assignment)

    def machine_of(self, job: Job) -> MachineKey:
        """The machine hosting a job."""
        return self._assignment[job]

    def machines(self) -> list[MachineKey]:
        """All machines that host at least one job, sorted."""
        return sorted(set(self._assignment.values()))

    def jobs_on(self, key: MachineKey) -> JobSet:
        """All jobs assigned to one machine."""
        return JobSet(j for j, k in self._assignment.items() if k == key)

    def by_machine(self) -> dict[MachineKey, list[Job]]:
        """Group jobs by machine in one pass (memoized)."""
        groups = self._memo.get("by_machine")
        if groups is None:
            groups = {}
            for job, key in self._assignment.items():
                groups.setdefault(key, []).append(job)
            self._memo["by_machine"] = groups
        return groups

    # -- cost ---------------------------------------------------------------
    def busy_set(self, key: MachineKey, groups: dict[MachineKey, list[Job]] | None = None) -> IntervalSet:
        """The machine's busy periods: union of its jobs' active intervals
        (event sweep, memoized per machine)."""
        memo = self._memo.setdefault("busy_set", {})
        cached = memo.get(key)
        if cached is None:
            jobs = (groups or self.by_machine()).get(key, [])
            if jobs:
                cached = vec_busy_union(
                    [j.arrival for j in jobs], [j.departure for j in jobs]
                )
            else:
                cached = IntervalSet()
            memo[key] = cached
        return cached

    def busy_times(self) -> dict[MachineKey, float]:
        """Every machine's busy time from ONE grouped sweep (memoized).

        All machines' intervals go through a single
        :func:`~repro.core.vectorized.vec_grouped_busy_time` call — one
        stable sort, ``O(N log N)`` total instead of one sort per machine.
        """
        cached = self._memo.get("busy_times")
        if cached is None:
            groups = self.by_machine()
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
            cached = {key: float(b) for key, b in zip(keys, busy)}
            self._memo["busy_times"] = cached
        return cached

    def machine_cost(self, key: MachineKey, groups: dict[MachineKey, list[Job]] | None = None) -> float:
        """One machine's busy time times its rate."""
        rate = self.ladder.rate(key.type_index)
        return rate * self.busy_times().get(key, 0.0)

    def cost(self) -> float:
        """Total accumulated busy cost — the BSHM objective."""
        return sum(
            self.ladder.rate(key.type_index) * busy
            for key, busy in self.busy_times().items()
        )

    def cost_reference(self) -> float:
        """The pre-sweep busy-cost accounting (naive per-machine interval
        union), kept as the differential-test oracle for :meth:`cost`."""
        groups = self.by_machine()
        total = 0.0
        for key, jobs in groups.items():
            union = busy_union_reference(
                [j.arrival for j in jobs], [j.departure for j in jobs]
            )
            total += self.ladder.rate(key.type_index) * union.length
        return total

    def cost_by_type(self) -> dict[int, float]:
        """Cost decomposition per machine type (for the analysis tables)."""
        out: dict[int, float] = {i: 0.0 for i in range(1, self.ladder.m + 1)}
        for key, busy in self.busy_times().items():
            out[key.type_index] += self.ladder.rate(key.type_index) * busy
        return out

    def machine_count_by_type(self) -> dict[int, int]:
        """Number of machines used per type."""
        counts: dict[int, int] = {i: 0 for i in range(1, self.ladder.m + 1)}
        for key in set(self._assignment.values()):
            counts[key.type_index] += 1
        return counts

    def merge(self, other: "Schedule") -> "Schedule":
        """Disjoint union of two schedules over the same ladder.

        Machine tags are assumed distinct between the two (the iterative
        algorithms namespace tags per iteration); a shared machine key with
        different type indices is impossible and shared keys are allowed —
        jobs simply share the machine.
        """
        if other.ladder != self.ladder:
            raise ValueError("cannot merge schedules over different ladders")
        merged = dict(self._assignment)
        for job, key in other._assignment.items():
            if job in merged:
                raise ValueError(f"job {job} scheduled twice in merge")
            merged[job] = key
        return Schedule(self.ladder, merged)

    # -- dunder ----------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._assignment)

    def __repr__(self) -> str:
        return (
            f"Schedule({len(self._assignment)} jobs on "
            f"{len(set(self._assignment.values()))} machines, cost={self.cost():.4g})"
        )
