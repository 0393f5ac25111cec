"""The strip-peeling engines behind every offline algorithm.

DEC/INC/GEN-OFFLINE and Dual-Coloring all run one pipeline — place, slice
into ``g_i / 2`` strips, charge the bottom ``B_i`` strips, roll the rest
over — and the engines here run it on the ``JobSet.to_arrays()`` columns at
every instance size: roll-over sets are index arrays into the canonical
columns, altitudes come from
:func:`~repro.placement.columnar.columnar_altitudes`, and ``Job`` objects
are only touched once at the very end when the assignment dict is built for
:class:`~repro.schedule.schedule.Schedule`.

**Emission order is part of the contract.**  ``Schedule.cost()`` sums busy
times in assignment insertion order, so each iteration emits all
inside-strip keys first (strips in first-seen order over the placement's
processing order, filtered by budget) and then the crossing keys boundary
by boundary — the dict-iteration order of
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


def _placed(
    seq: tuple[Job, ...],
    idx: np.ndarray,
    sub_starts: np.ndarray,
    sub_ends: np.ndarray,
    sub_sizes: np.ndarray,
    order: str,
) -> tuple[np.ndarray, list[int] | None]:
    """Band altitudes of the jobs ``seq[idx]`` (whose columns are ``sub_*``)
    and the placement's processing sequence of positions in ``idx``
    (``None``: arrival order).

    Arrival order runs the columnar placer.  The largest-first and
    longest-first orders (the E17 ablation) run the object placer on the
    subset and map its bands back to positions.
    """
    if order == "arrival":
        return columnar_altitudes(sub_starts, sub_ends, sub_sizes), None
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
    seq: tuple[Job, ...],
    starts: np.ndarray,
    ends: np.ndarray,
    sizes: np.ndarray,
    idx: np.ndarray,
    height: float,
    budget: int | None,
    type_index: int,
    tag_prefix: tuple,
    order: str = "arrival",
) -> list[tuple[int, MachineKey]]:
    """Place the jobs ``idx``, slice the chart into strips of ``height`` and
    emit ``(global_index, machine_key)`` for every band touching the bottom
    ``budget`` strips (``None``: unbounded strips, i.e. Dual-Coloring), in
    the object peel loop's exact insertion order.
    """
    sub_starts = starts[idx]
    sub_ends = ends[idx]
    sub_sizes = sizes[idx]
    alts, processed = _placed(seq, idx, sub_starts, sub_ends, sub_sizes, order)
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
    pairs: list[tuple[int, MachineKey]] = []
    for k, members in inside_groups.items():
        if budget is not None and not k < budget:
            continue
        key = MachineKey(type_index, tag_prefix + ("strip", k))
        pairs.extend((globals_[i], key) for i in members)
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
        pairs.extend(
            (globals_[i], MachineKey(type_index, tag_prefix + ("cross", k, colors[i])))
            for i in members
        )
    return pairs


def _without(
    remaining: np.ndarray, pairs: list[tuple[int, MachineKey]], n: int
) -> np.ndarray:
    """``remaining`` minus the jobs scheduled in ``pairs``, order kept."""
    gone = np.zeros(n, dtype=bool)
    gone[[g for g, _ in pairs]] = True
    return remaining[~gone[remaining]]


def _dual_emit(
    seq: tuple[Job, ...],
    starts: np.ndarray,
    ends: np.ndarray,
    sizes: np.ndarray,
    idx: np.ndarray,
    capacity: float,
    type_index: int,
    tag_prefix: tuple,
    strip_divisor: float = 2.0,
    order: str = "arrival",
) -> list[tuple[int, MachineKey]]:
    """Dual-Coloring one index subset; returns ``(global_index, key)`` pairs."""
    oversize = int(np.count_nonzero(sizes[idx] > capacity * (1 + FINE_TOL)))
    if oversize:
        raise ValueError(f"{oversize} jobs exceed capacity {capacity}")
    if idx.size == 0:
        return []
    return _peel(
        seq, starts, ends, sizes, idx, capacity / strip_divisor, None,
        type_index, tag_prefix, order,
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
    arrays = jobs.to_arrays()
    seq = jobs.jobs
    emitted = _dual_emit(
        seq,
        arrays.starts,
        arrays.ends,
        arrays.sizes,
        np.arange(len(seq), dtype=np.int64),
        capacity,
        type_index,
        tuple(tag_prefix),
        strip_divisor,
    )
    return {seq[g]: key for g, key in emitted}


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
    and no ``Job`` object is touched until the final assignment dict.
    """
    from .dec_offline import strip_budget  # deferred: dec_offline imports this module

    arrays = jobs.to_arrays()
    starts, ends, sizes = arrays.starts, arrays.ends, arrays.sizes
    seq = jobs.jobs
    remaining = np.arange(len(seq), dtype=np.int64)
    emitted: list[tuple[int, MachineKey]] = []

    for i in range(1, ladder.m):
        eligible = remaining[sizes[remaining] <= ladder.capacity(i)]
        if eligible.size == 0:
            continue
        budget = strip_budget(
            ladder.rate(i + 1) / ladder.rate(i),
            budget_factor * strip_divisor / 2.0,
        )
        pairs = _peel(
            seq, starts, ends, sizes, eligible,
            ladder.capacity(i) / strip_divisor, budget, i, ("it", i),
            placement_order,
        )
        if pairs:
            emitted.extend(pairs)
            remaining = _without(remaining, pairs, len(seq))

    # final iteration: everything left goes to type m, unbounded strips
    if remaining.size:
        emitted.extend(
            _dual_emit(
                seq, starts, ends, sizes, remaining,
                ladder.capacity(ladder.m), ladder.m, ("it", ladder.m),
                strip_divisor, placement_order,
            )
        )
    return Schedule(ladder, {seq[g]: key for g, key in emitted})


def inc_offline_columnar(jobs: JobSet, ladder: Ladder) -> Schedule:
    """INC-OFFLINE (caller validates the instance).

    The size-class partition is one ``searchsorted`` against the capacity
    ladder — the vector twin of ``Job.size_class`` — and each class runs
    Dual-Coloring on its index subset.
    """
    arrays = jobs.to_arrays()
    caps = np.asarray(ladder.capacities, dtype=np.float64)
    cls = np.searchsorted(caps, arrays.sizes, side="left")
    seq = jobs.jobs
    emitted: list[tuple[int, MachineKey]] = []
    for i in range(1, ladder.m + 1):
        members = np.flatnonzero(cls == i - 1)
        if members.size == 0:
            continue
        emitted.extend(
            _dual_emit(
                seq, arrays.starts, arrays.ends, arrays.sizes, members,
                ladder.capacity(i), i, ("class", i),
            )
        )
    return Schedule(ladder, {seq[g]: key for g, key in emitted})


def general_offline_columnar(jobs: JobSet, ladder: Ladder) -> Schedule:
    """GEN-OFFLINE post-order traversal (caller validates the instance)."""
    from .general_offline import node_strip_budget  # deferred: import cycle

    arrays = jobs.to_arrays()
    starts, ends, sizes = arrays.starts, arrays.ends, arrays.sizes
    seq = jobs.jobs
    forest = ladder.forest()
    remaining = np.arange(len(seq), dtype=np.int64)
    emitted: list[tuple[int, MachineKey]] = []

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
            pairs = _dual_emit(seq, starts, ends, sizes, eligible, g_j, j, ("node", j))
        else:
            budget = node_strip_budget(ladder, j, parent, forest.num_children(parent))
            pairs = _peel(
                seq, starts, ends, sizes, eligible, g_j / 2.0, budget, j, ("node", j)
            )
        if pairs:
            emitted.extend(pairs)
            remaining = _without(remaining, pairs, len(seq))

    if remaining.size:  # pragma: no cover - every job reaches some root
        raise RuntimeError("GEN-OFFLINE left jobs unscheduled")
    return Schedule(ladder, {seq[g]: key for g, key in emitted})
