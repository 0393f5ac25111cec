"""Schedules: the assignment of jobs to concrete machines, plus exact cost.

A :class:`Schedule` maps every job to a :class:`MachineKey` — a distinct
physical machine identified by ``(type_index, tag)``.  Machines exist only
implicitly through the jobs assigned to them; a machine's *busy time* is the
measure of the union of its jobs' active intervals, and its cost is busy time
times its type's rate (the BSHM objective).

The assignment is stored as columns beside the :class:`JobSet`'s own: the
*emission order* (the canonical position of each job, in the order the
scheduler assigned them), a machine id per emitted job, and the machine
table, numbered first-seen in emission order.  The offline engines build
these columns directly (:meth:`Schedule.from_columns`); the ``Job`` and
``MachineKey`` views (:attr:`assignment`, :meth:`by_machine`, ...) are
built on demand, in the emission order.

Feasibility (capacity at every instant, every job placed, sizes fit) is
checked by :mod:`repro.schedule.validate`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, NamedTuple, Sequence

import numpy as np

from ..core.intervals import IntervalSet
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


class _Columns(NamedTuple):
    """A schedule's columns (see the module docstring)."""

    jobs: JobSet
    order: np.ndarray  # canonical position of the e-th job assigned
    machine: np.ndarray  # its machine's index into keys
    keys: tuple[MachineKey, ...]  # the machine table, first-seen order

    @classmethod
    def of_pairs(cls, pairs: dict[Job, MachineKey]) -> "_Columns":
        n = len(pairs)
        ids: dict[MachineKey, int] = {}
        machine = np.fromiter(
            (ids.setdefault(key, len(ids)) for key in pairs.values()), dtype=np.int64, count=n
        )
        emitted = list(pairs)
        starts = np.fromiter((j.arrival for j in emitted), dtype=np.float64, count=n)
        uids = np.fromiter((j.uid for j in emitted), dtype=np.int64, count=n)
        canonical = np.lexsort((uids, starts))  # emission index per canonical slot
        order = np.empty(n, dtype=np.int64)
        order[canonical] = np.arange(n, dtype=np.int64)
        jobs = JobSet([emitted[e] for e in canonical.tolist()], _presorted=True)
        return cls(jobs, order, machine, tuple(ids))


class Schedule:
    """An immutable job → machine assignment over a ladder."""

    __slots__ = ("ladder", "_jobs", "_order", "_machine", "_keys", "_memo")

    def __init__(
        self,
        ladder: Ladder,
        assignment: Mapping[Job, MachineKey] | Iterable[tuple[Job, MachineKey]],
    ) -> None:
        if isinstance(assignment, _Columns):
            # from_columns passes its columns through here, so that the
            # frozen slots are only ever set by the constructor
            columns, pairs = assignment, None
        else:
            pairs = dict(assignment.items()) if isinstance(assignment, Mapping) else dict(assignment)
            columns = _Columns.of_pairs(pairs)
        jobs, order, machine, keys = columns
        for m, key in enumerate(keys):
            if not 1 <= key.type_index <= ladder.m:
                first = jobs.jobs[int(order[int(np.argmax(machine == m))])]
                raise ValueError(f"machine type {key.type_index} not in ladder for {first}")
        order.setflags(write=False)
        machine.setflags(write=False)
        object.__setattr__(self, "ladder", ladder)
        object.__setattr__(self, "_jobs", jobs)
        object.__setattr__(self, "_order", order)
        object.__setattr__(self, "_machine", machine)
        object.__setattr__(self, "_keys", keys)
        # memoized derived data; safe because the assignment is immutable —
        # any "placement change" necessarily constructs a new Schedule
        object.__setattr__(self, "_memo", {} if pairs is None else {"pairs": pairs})

    @classmethod
    def from_columns(
        cls,
        ladder: Ladder,
        jobs: JobSet,
        order: np.ndarray,
        machine: np.ndarray,
        keys: Sequence[MachineKey],
    ) -> "Schedule":
        """The schedule that assigned ``jobs`` in emission order.

        ``order[e]`` is the canonical position in ``jobs`` of the ``e``-th
        job assigned, ``machine[e]`` its machine's index into ``keys``, and
        ``keys`` lists each machine once, in the order of its first job.
        """
        order = np.array(order, dtype=np.int64)
        machine = np.array(machine, dtype=np.int64)
        if machine.shape != order.shape or len(set(keys)) != len(keys):
            raise ValueError("need one machine id per job and each machine once in keys")
        if order.size != len(jobs):  # a partial schedule: keep its jobs only
            seq = jobs.jobs
            return cls(
                ladder,
                {seq[g]: keys[m] for g, m in zip(order.tolist(), machine.tolist())},
            )
        return cls(ladder, _Columns(jobs, order, machine, tuple(keys)))

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("Schedule is immutable")

    # -- columns ---------------------------------------------------------
    @property
    def jobs(self) -> JobSet:
        return self._jobs

    @property
    def machine_table(self) -> tuple[MachineKey, ...]:
        """Every machine that hosts a job, in the order of its first job."""
        return self._keys

    def machine_ids(self) -> np.ndarray:
        """Each job's index into :attr:`machine_table`, in the canonical
        order of :attr:`jobs`."""
        ids = self._memo.get("machine_ids")
        if ids is None:
            ids = np.empty(self._order.size, dtype=np.int64)
            ids[self._order] = self._machine
            ids.setflags(write=False)
            self._memo["machine_ids"] = ids
        return ids

    def machine_groups(self) -> list[np.ndarray]:
        """Per machine of :attr:`machine_table`, the canonical positions of
        its jobs in emission order."""
        groups = self._memo.get("groups")
        if groups is None:
            emission = np.argsort(self._machine, kind="stable")
            bounds = np.cumsum(np.bincount(self._machine, minlength=len(self._keys)))
            groups = np.split(self._order[emission], bounds[:-1]) if self._keys else []
            self._memo["groups"] = groups
        return groups

    # -- access ----------------------------------------------------------
    def _pairs(self) -> dict[Job, MachineKey]:
        pairs = self._memo.get("pairs")
        if pairs is None:
            seq = self._jobs.jobs
            keys = self._keys
            pairs = {
                seq[g]: keys[m]
                for g, m in zip(self._order.tolist(), self._machine.tolist())
            }
            self._memo["pairs"] = pairs
        return pairs

    @property
    def assignment(self) -> dict[Job, MachineKey]:
        return dict(self._pairs())

    def machine_of(self, job: Job) -> MachineKey:
        """The machine hosting a job."""
        return self._pairs()[job]

    def machines(self) -> list[MachineKey]:
        """All machines that host at least one job, sorted."""
        return sorted(self._keys)

    def jobs_on(self, key: MachineKey) -> JobSet:
        """All jobs assigned to one machine."""
        return JobSet(self.by_machine().get(key, ()))

    def by_machine(self) -> dict[MachineKey, list[Job]]:
        """Group jobs by machine in one pass (memoized)."""
        groups = self._memo.get("by_machine")
        if groups is None:
            seq = self._jobs.jobs
            groups = {
                key: [seq[g] for g in members.tolist()]
                for key, members in zip(self._keys, self.machine_groups())
            }
            self._memo["by_machine"] = groups
        return groups

    # -- cost ---------------------------------------------------------------
    def busy_set(self, key: MachineKey) -> IntervalSet:
        """The machine's busy periods: union of its jobs' active intervals
        (event sweep, memoized per machine)."""
        memo = self._memo.setdefault("busy_set", {})
        cached = memo.get(key)
        if cached is None:
            ids = self._memo.get("ids")
            if ids is None:
                ids = self._memo["ids"] = {k: m for m, k in enumerate(self._keys)}
            m = ids.get(key)
            if m is None:
                cached = IntervalSet()
            else:
                a = self._jobs.to_arrays()
                members = self.machine_groups()[m]
                cached = vec_busy_union(a.starts[members], a.ends[members])
            memo[key] = cached
        return cached

    def busy_times(self) -> dict[MachineKey, float]:
        """Every machine's busy time from ONE grouped sweep (memoized).

        All machines' intervals go through a single
        :func:`~repro.core.vectorized.vec_grouped_busy_time` call, in
        emission order with first-seen machine ids — one stable sort,
        ``O(N log N)`` total instead of one sort per machine.
        """
        cached = self._memo.get("busy_times")
        if cached is None:
            a = self._jobs.to_arrays()
            busy = vec_grouped_busy_time(
                a.starts[self._order], a.ends[self._order], self._machine, len(self._keys)
            )
            cached = dict(zip(self._keys, busy.tolist()))
            self._memo["busy_times"] = cached
        return cached

    def machine_cost(self, key: MachineKey) -> float:
        """One machine's busy time times its rate."""
        rate = self.ladder.rate(key.type_index)
        return rate * self.busy_times().get(key, 0.0)

    def cost(self) -> float:
        """Total accumulated busy cost — the BSHM objective."""
        return sum(
            self.ladder.rate(key.type_index) * busy
            for key, busy in self.busy_times().items()
        )

    def cost_by_type(self) -> dict[int, float]:
        """Cost decomposition per machine type (for the analysis tables)."""
        out: dict[int, float] = {i: 0.0 for i in range(1, self.ladder.m + 1)}
        for key, busy in self.busy_times().items():
            out[key.type_index] += self.ladder.rate(key.type_index) * busy
        return out

    def machine_count_by_type(self) -> dict[int, int]:
        """Number of machines used per type."""
        counts: dict[int, int] = {i: 0 for i in range(1, self.ladder.m + 1)}
        for key in self._keys:
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
        merged = dict(self._pairs())
        for job, key in other._pairs().items():
            if job in merged:
                raise ValueError(f"job {job} scheduled twice in merge")
            merged[job] = key
        return Schedule(self.ladder, merged)

    # -- dunder ----------------------------------------------------------------
    def __len__(self) -> int:
        return int(self._order.size)

    def __repr__(self) -> str:
        return (
            f"Schedule({len(self)} jobs on "
            f"{len(self._keys)} machines, cost={self.cost():.4g})"
        )
