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

import numpy as np

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
    """Check a schedule against the instance it claims to solve, on the
    columns of both; ``Job`` objects are built only to report a violation."""
    report = FeasibilityReport()

    scheduled = schedule.jobs
    a = scheduled.to_arrays()
    inst_uids = instance.to_arrays().uids
    if scheduled is not instance and not np.array_equal(inst_uids, a.uids):
        report.missing_jobs = _where(instance, ~np.isin(inst_uids, a.uids))
        report.extra_jobs = _where(scheduled, ~np.isin(a.uids, inst_uids))

    keys = schedule.machine_table
    groups = schedule.machine_groups()
    capacities = [schedule.ladder.capacity(key.type_index) for key in keys]
    job_capacity = np.array(capacities, dtype=np.float64)[schedule.machine_ids()]
    oversize = a.sizes > job_capacity + _CAP_TOL
    if oversize.any():
        seq = scheduled.jobs
        report.oversize_jobs = [
            (seq[g], key)
            for key, members in zip(keys, groups)
            for g in members[oversize[members]].tolist()
        ]
    for key, members, capacity in zip(keys, groups, capacities):
        # event sweep with half-open semantics: a job departing at t and one
        # arriving at t share the machine sequentially, never concurrently
        peak = vec_peak_load(
            a.starts[members], a.ends[members], a.sizes[members], time_tol=_TIME_TOL
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


def _where(jobs: JobSet, mask: np.ndarray) -> list:
    """The jobs of ``jobs`` (canonical order) where ``mask`` holds."""
    if not mask.any():
        return []
    seq = jobs.jobs
    return [seq[g] for g in np.flatnonzero(mask).tolist()]


def assert_feasible(schedule: Schedule, instance: JobSet) -> None:
    """Raise :class:`FeasibilityError` unless the schedule is feasible."""
    report = validate_schedule(schedule, instance)
    if not report.ok:
        raise FeasibilityError(report.summary())
