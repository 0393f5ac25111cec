"""The strip-peeling engines behind every offline algorithm.

DEC/INC/GEN-OFFLINE and Dual-Coloring all run one pipeline — place, slice
into ``g_i / 2`` strips, charge the bottom ``B_i`` strips, roll the rest
over — and the engines here run it on the ``JobSet.to_arrays()`` columns at
every instance size: roll-over sets are index arrays into the canonical
columns, altitudes come from
:func:`~repro.placement.columnar.columnar_altitudes`, and the result is
emitted as :class:`~repro.schedule.schedule.Schedule` columns (a position
and a machine id per job, one ``MachineKey`` per machine).  No ``Job``
object is touched, except by the object placer the E17 orders use.

**Emission order is part of the contract.**  ``Schedule.cost()`` numbers
machines first-seen over the emission order and sums their busy times in
that order, so each iteration emits all inside-strip keys first (strips in
first-seen order over the placement's processing order, filtered by
budget) and then the crossing keys boundary by boundary — the
dict-iteration order of
``StripAssignment.bands_touching_bottom`` plus ``two_color``.  The object
peel loops in ``tests/offline/reference.py`` are the differential oracle
(``tests/property/test_columnar_parity.py``).
"""

from __future__ import annotations

import numpy as np

from ..core.tolerance import FINE_TOL
from ..jobs.job import Job
from ..jobs.jobset import JobSet
from ..machines.ladder import Ladder
from ..placement.columnar import (
    columnar_altitudes,
    columnar_strip_slices,
    columnar_two_color,
)
from ..placement.greedy import place_jobs
from ..schedule.schedule import MachineKey, Schedule

__all__ = [
    "columnar_dual_assign",
    "dec_offline_columnar",
    "inc_offline_columnar",
    "general_offline_columnar",
]


class _Emission:
    """The schedule columns one engine run grows: the canonical position of
    each job in emission order, its machine id, and the machine table
    (:meth:`Schedule.from_columns`).  One ``MachineKey`` per machine."""

    __slots__ = ("order", "machine", "keys")

    def __init__(self) -> None:
        self.order: list[int] = []
        self.machine: list[int] = []
        self.keys: list[MachineKey] = []

    def open(self, key: MachineKey) -> int:
        """Add a machine to the table; returns its id."""
        self.keys.append(key)
        return len(self.keys) - 1

    def schedule(self, ladder: Ladder, jobs: JobSet) -> Schedule:
        return Schedule.from_columns(ladder, jobs, self.order, self.machine, self.keys)


def _placed(
    jobs: JobSet,
    idx: np.ndarray,
    sub_starts: np.ndarray,
    sub_ends: np.ndarray,
    sub_sizes: np.ndarray,
    order: str,
) -> tuple[np.ndarray, list[int] | None]:
    """Band altitudes of the jobs at canonical positions ``idx`` (whose
    columns are ``sub_*``) and the placement's processing sequence of
    positions in ``idx`` (``None``: arrival order).

    Arrival order runs the columnar placer.  The largest-first and
    longest-first orders (the E17 ablation) run the object placer on the
    subset and map its bands back to positions.
    """
    if order == "arrival":
        return columnar_altitudes(sub_starts, sub_ends, sub_sizes), None
    seq = jobs.jobs
    subset = tuple(seq[g] for g in idx.tolist())
    local = {job.uid: i for i, job in enumerate(subset)}
    alts = np.empty(len(subset))
    processed = []
    for band in place_jobs(JobSet(subset, _presorted=True), order=order).bands:
        i = local[band.job.uid]
        alts[i] = band.altitude
        processed.append(i)
    return alts, processed


def _peel(
    jobs: JobSet,
    idx: np.ndarray,
    height: float,
    budget: int | None,
    type_index: int,
    tag_prefix: tuple,
    out: _Emission,
    order: str = "arrival",
) -> list[int]:
    """Place the jobs at canonical positions ``idx``, slice the chart into
    strips of ``height`` and emit every band touching the bottom ``budget``
    strips (``None``: unbounded strips, i.e. Dual-Coloring) into ``out``, in
    the object peel loop's exact insertion order.  Returns the positions
    emitted.
    """
    a = jobs.to_arrays()
    sub_starts = a.starts[idx]
    sub_ends = a.ends[idx]
    sub_sizes = a.sizes[idx]
    alts, processed = _placed(jobs, idx, sub_starts, sub_ends, sub_sizes, order)
    strip_index, boundary = columnar_strip_slices(alts, alts + sub_sizes, height)
    strips = strip_index.tolist()
    bounds = boundary.tolist()
    inside_groups: dict[int, list[int]] = {}
    cross_groups: dict[int, list[int]] = {}
    for i in range(len(bounds)) if processed is None else processed:
        k = bounds[i]
        if k:
            cross_groups.setdefault(k, []).append(i)
        else:
            inside_groups.setdefault(strips[i], []).append(i)

    globals_ = idx.tolist()
    emitted: list[int] = []
    for k, members in inside_groups.items():
        if budget is not None and not k < budget:
            continue
        m = out.open(MachineKey(type_index, tag_prefix + ("strip", k)))
        emitted.extend(globals_[i] for i in members)
        out.machine.extend([m] * len(members))
    arrivals = sub_starts.tolist()
    departures = sub_ends.tolist()
    for k, members in cross_groups.items():
        if budget is not None and not k <= budget:
            continue
        ordered = sorted(members)  # the two-coloring runs in arrival order
        colors = dict(
            zip(
                ordered,
                columnar_two_color(
                    [arrivals[i] for i in ordered], [departures[i] for i in ordered]
                ),
            )
        )
        # the two machines are numbered in the order of their first job
        ids: dict[int, int] = {}
        for i in members:
            color = colors[i]
            if color not in ids:
                ids[color] = out.open(
                    MachineKey(type_index, tag_prefix + ("cross", k, color))
                )
            out.machine.append(ids[color])
        emitted.extend(globals_[i] for i in members)
    out.order.extend(emitted)
    return emitted


def _without(remaining: np.ndarray, emitted: list[int], n: int) -> np.ndarray:
    """``remaining`` minus the positions ``emitted``, order kept."""
    gone = np.zeros(n, dtype=bool)
    gone[emitted] = True
    return remaining[~gone[remaining]]


def _dual_emit(
    jobs: JobSet,
    idx: np.ndarray,
    capacity: float,
    type_index: int,
    tag_prefix: tuple,
    out: _Emission,
    strip_divisor: float = 2.0,
    order: str = "arrival",
) -> list[int]:
    """Dual-Coloring the jobs at canonical positions ``idx`` into ``out``;
    returns the positions emitted."""
    oversize = int(np.count_nonzero(jobs.to_arrays().sizes[idx] > capacity * (1 + FINE_TOL)))
    if oversize:
        raise ValueError(f"{oversize} jobs exceed capacity {capacity}")
    if idx.size == 0:
        return []
    return _peel(
        jobs, idx, capacity / strip_divisor, None, type_index, tag_prefix, out, order
    )


def columnar_dual_assign(
    jobs: JobSet,
    capacity: float,
    type_index: int,
    tag_prefix: tuple = (),
    strip_divisor: float = 2.0,
) -> dict[Job, MachineKey]:
    """Dual-Coloring of a whole job set on one machine type (caller
    validates ``strip_divisor``; see
    :func:`~repro.offline.dual_coloring.dual_coloring_assign`)."""
    out = _Emission()
    _dual_emit(
        jobs,
        np.arange(len(jobs), dtype=np.int64),
        capacity,
        type_index,
        tuple(tag_prefix),
        out,
        strip_divisor,
    )
    seq = jobs.jobs
    return {seq[g]: out.keys[m] for g, m in zip(out.order, out.machine)}


def dec_offline_columnar(
    jobs: JobSet,
    ladder: Ladder,
    *,
    budget_factor: float = 2.0,
    strip_divisor: float = 2.0,
    placement_order: str = "arrival",
) -> Schedule:
    """DEC-OFFLINE iteration loop (caller validates the instance).

    Roll-over jobs are carried as an index array into the canonical columns;
    the per-iteration eligibility cut ``s(J) <= g_i`` is one boolean mask,
    and the schedule is emitted as columns: no ``Job`` object is touched.
    """
    from .dec_offline import strip_budget  # deferred: dec_offline imports this module

    sizes = jobs.to_arrays().sizes
    n = len(jobs)
    remaining = np.arange(n, dtype=np.int64)
    out = _Emission()

    for i in range(1, ladder.m):
        eligible = remaining[sizes[remaining] <= ladder.capacity(i)]
        if eligible.size == 0:
            continue
        budget = strip_budget(
            ladder.rate(i + 1) / ladder.rate(i),
            budget_factor * strip_divisor / 2.0,
        )
        emitted = _peel(
            jobs, eligible, ladder.capacity(i) / strip_divisor, budget, i, ("it", i),
            out, placement_order,
        )
        if emitted:
            remaining = _without(remaining, emitted, n)

    # final iteration: everything left goes to type m, unbounded strips
    if remaining.size:
        _dual_emit(
            jobs, remaining, ladder.capacity(ladder.m), ladder.m, ("it", ladder.m),
            out, strip_divisor, placement_order,
        )
    return out.schedule(ladder, jobs)


def inc_offline_columnar(jobs: JobSet, ladder: Ladder) -> Schedule:
    """INC-OFFLINE (caller validates the instance).

    The size-class partition is one ``searchsorted`` against the capacity
    ladder — the vector twin of ``Job.size_class`` — and each class runs
    Dual-Coloring on its index subset.
    """
    caps = np.asarray(ladder.capacities, dtype=np.float64)
    cls = np.searchsorted(caps, jobs.to_arrays().sizes, side="left")
    out = _Emission()
    for i in range(1, ladder.m + 1):
        members = np.flatnonzero(cls == i - 1)
        if members.size == 0:
            continue
        _dual_emit(jobs, members, ladder.capacity(i), i, ("class", i), out)
    return out.schedule(ladder, jobs)


def general_offline_columnar(jobs: JobSet, ladder: Ladder) -> Schedule:
    """GEN-OFFLINE post-order traversal (caller validates the instance)."""
    from .general_offline import node_strip_budget  # deferred: import cycle

    sizes = jobs.to_arrays().sizes
    n = len(jobs)
    forest = ladder.forest()
    remaining = np.arange(n, dtype=np.int64)
    out = _Emission()

    for j in forest.postorder():
        lo, hi = forest.subtree_span(j)
        assert hi == j, "subtree roots carry the highest index of their span"
        g_lo_prev = ladder.capacity(lo - 1)
        g_j = ladder.capacity(j)
        rem_sizes = sizes[remaining]
        eligible = remaining[(rem_sizes > g_lo_prev) & (rem_sizes <= g_j)]
        if eligible.size == 0:
            continue

        parent = forest.parent[j]
        if parent is None:
            # tree root: schedule everything on type j, unbounded strips
            emitted = _dual_emit(jobs, eligible, g_j, j, ("node", j), out)
        else:
            budget = node_strip_budget(ladder, j, parent, forest.num_children(parent))
            emitted = _peel(jobs, eligible, g_j / 2.0, budget, j, ("node", j), out)
        if emitted:
            remaining = _without(remaining, emitted, n)

    if remaining.size:  # pragma: no cover - every job reaches some root
        raise RuntimeError("GEN-OFFLINE left jobs unscheduled")
    return out.schedule(ladder, jobs)
