"""Machine-checked feasibility of schedules.

Every algorithm's output passes through :func:`validate_schedule` in the test
suite and the experiment harness.  A schedule is feasible iff

1. every job of the instance is assigned to exactly one machine,
2. every job fits its machine's type (``s(J) <= g_type``), and
3. at every instant, the total size of the jobs concurrently on one machine
   does not exceed the machine's capacity.  Because demand only changes at
   arrivals/departures, one event sweep over each machine's jobs is exact;
   half-open intervals mean a job departing at ``t`` and another arriving at
   ``t`` are sequential, never concurrent (the sweep's merged accumulator
   guarantees this, and a one-ulp float sliver between the two times is
   ignored via a time tolerance).

Violations are collected into :class:`FeasibilityReport` rather than raised,
so tests can assert on the precise failure kind.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..core.vectorized import vec_peak_load
from ..core.timecmp import TIME_TOL
from ..core.tolerance import TOLERANCE
from ..jobs.jobset import JobSet
from .schedule import Schedule

__all__ = ["FeasibilityError", "FeasibilityReport", "validate_schedule", "assert_feasible"]


class FeasibilityError(AssertionError):
    """Raised by :func:`assert_feasible` when a schedule is infeasible."""


@dataclass(slots=True)
class FeasibilityReport:
    """Outcome of a feasibility check."""

    ok: bool = True
    missing_jobs: list = field(default_factory=list)
    extra_jobs: list = field(default_factory=list)
    oversize_jobs: list = field(default_factory=list)  # (job, machine)
    overloaded: list = field(default_factory=list)  # (machine, peak, capacity)

    def summary(self) -> str:
        """One-line human-readable verdict."""
        if self.ok:
            return "feasible"
        parts = []
        if self.missing_jobs:
            parts.append(f"{len(self.missing_jobs)} unscheduled jobs")
        if self.extra_jobs:
            parts.append(f"{len(self.extra_jobs)} unknown jobs")
        if self.oversize_jobs:
            parts.append(f"{len(self.oversize_jobs)} jobs larger than their machine")
        if self.overloaded:
            worst = max(self.overloaded, key=lambda x: x[1] / x[2])
            parts.append(
                f"{len(self.overloaded)} overloaded machines "
                f"(worst {worst[0]}: peak {worst[1]:g} > capacity {worst[2]:g})"
            )
        return "; ".join(parts)


_CAP_TOL = TOLERANCE

#: segments of measure <= this are float slivers, not real co-residency: a
#: departure at (mathematical) time t and an arrival at the same t can land
#: one ulp apart after float arithmetic (0.1 + 0.2 vs 0.3); half-open
#: intervals mean such a handoff never overlaps, so the capacity check must
#: not double-count it.  Shared with the time_eq/time_ne comparison helpers.
_TIME_TOL = TIME_TOL


def validate_schedule(schedule: Schedule, instance: JobSet) -> FeasibilityReport:
    """Check a schedule against the instance it claims to solve."""
    report = FeasibilityReport()

    scheduled = schedule.jobs
    inst_uids = {j.uid for j in instance}
    sched_uids = {j.uid for j in scheduled}
    report.missing_jobs = [j for j in instance if j.uid not in sched_uids]
    report.extra_jobs = [j for j in scheduled if j.uid not in inst_uids]

    groups = schedule.by_machine()
    for key, jobs in groups.items():
        capacity = schedule.ladder.capacity(key.type_index)
        for job in jobs:
            if job.size > capacity + _CAP_TOL:
                report.oversize_jobs.append((job, key))
        # event sweep with half-open semantics: a job departing at t and one
        # arriving at t share the machine sequentially, never concurrently
        peak = vec_peak_load(
            [j.arrival for j in jobs],
            [j.departure for j in jobs],
            [j.size for j in jobs],
            time_tol=_TIME_TOL,
        )
        # tolerance scales with capacity: float sums of many sizes
        if peak > capacity * (1 + TOLERANCE) + _CAP_TOL:
            report.overloaded.append((key, peak, capacity))

    report.ok = not (
        report.missing_jobs
        or report.extra_jobs
        or report.oversize_jobs
        or report.overloaded
    )
    return report


def assert_feasible(schedule: Schedule, instance: JobSet) -> None:
    """Raise :class:`FeasibilityError` unless the schedule is feasible."""
    report = validate_schedule(schedule, instance)
    if not report.ok:
        raise FeasibilityError(report.summary())
