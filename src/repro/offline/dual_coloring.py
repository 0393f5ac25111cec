"""Homogeneous Dual-Coloring scheduling ([13], used as a subroutine).

For a single machine type of capacity ``g``, the Dual Coloring algorithm

1. places all jobs in the demand chart (placement phase, ≤ 2-fold overlap),
2. slices the chart into strips of height ``g / 2``,
3. assigns the jobs fully inside strip ``k`` to one machine ``("strip", k)``
   and splits the jobs whose lowest crossed boundary is ``k`` across two
   machines ``("cross", k, 0|1)``.

[13] shows this uses at most ``4 * ceil(s(J, t) / g)`` machines at any time,
which yields the 4-approximation for MinUsageTime DBP and powers both
INC-OFFLINE (per size class) and the final iteration of DEC-OFFLINE.
"""

from __future__ import annotations

from ..jobs.job import Job
from ..jobs.jobset import JobSet
from ..machines.ladder import Ladder
from ..schedule.schedule import MachineKey, Schedule
from .columnar_peel import columnar_dual_assign

__all__ = ["dual_coloring_assign", "dual_coloring_schedule"]


def dual_coloring_assign(
    jobs: JobSet,
    capacity: float,
    type_index: int,
    tag_prefix: tuple = (),
    strip_divisor: float = 2.0,
) -> dict[Job, MachineKey]:
    """Assign every job to a machine of one type via placement + strips.

    ``tag_prefix`` namespaces the machine tags (callers running several
    instances, e.g. one per size class, pass distinct prefixes).
    ``strip_divisor`` sets the strip height to ``capacity / strip_divisor``
    (the paper uses 2; values > 2 are only safe with divisor-aware callers
    because a strip machine packs up to two strips' worth of jobs).
    """
    if strip_divisor < 2.0:
        raise ValueError("strip_divisor below 2 would overload strip machines")
    return columnar_dual_assign(
        jobs, capacity, type_index, tag_prefix=tag_prefix, strip_divisor=strip_divisor
    )


def dual_coloring_schedule(jobs: JobSet, ladder: Ladder, type_index: int | None = None) -> Schedule:
    """Schedule a whole instance on a single type of a ladder.

    ``type_index`` defaults to the smallest type that fits every job.
    """
    if type_index is None:
        type_index = ladder.smallest_fitting(jobs.max_size) if not jobs.empty else 1
    capacity = ladder.capacity(type_index)
    return Schedule(ladder, dual_coloring_assign(jobs, capacity, type_index))
