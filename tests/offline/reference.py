"""Test oracles for the offline strip-peeling algorithms.

These are the object implementations of DEC-OFFLINE, INC-OFFLINE,
GEN-OFFLINE and Dual-Coloring: each iteration re-materializes a
``JobSet``, places Python ``Band`` objects with
:func:`~repro.placement.greedy.place_jobs`, slices them with
:func:`~repro.placement.strips.split_into_strips` and two-colors the
boundary crossers with :func:`~repro.placement.strips.two_color`.  They
follow the paper's pseudocode step by step, so the columnar engines of
:mod:`repro.offline.columnar_peel` are pinned against them decision for
decision: the same assignment, in the same insertion order, at the same
bit-identical cost.

Each oracle skips the input validation of its production entry point;
callers pass instances the production path accepts.
"""

from __future__ import annotations

from repro import JobSet, Ladder, MachineKey, Schedule
from repro.core.tolerance import FINE_TOL
from repro.offline.dec_offline import strip_budget
from repro.offline.general_offline import node_strip_budget
from repro.placement.greedy import place_jobs
from repro.placement.strips import split_into_strips, two_color


def dual_coloring_assign_reference(
    jobs: JobSet,
    capacity: float,
    type_index: int,
    tag_prefix: tuple = (),
    strip_divisor: float = 2.0,
    placement_order: str = "arrival",
) -> dict:
    """Dual-Coloring of one machine type: place, slice, color."""
    oversize = [j for j in jobs if j.size > capacity * (1 + FINE_TOL)]
    if oversize:
        raise ValueError(f"{len(oversize)} jobs exceed capacity {capacity}")
    if jobs.empty:
        return {}
    placement = place_jobs(jobs, order=placement_order)
    strips = split_into_strips(placement, capacity / strip_divisor)
    assignment = {}
    for k, bands in strips.inside.items():
        key = MachineKey(type_index, tag_prefix + ("strip", k))
        for band in bands:
            assignment[band.job] = key
    for k, bands in strips.crossing.items():
        colors = two_color(bands)
        for band in bands:
            key = MachineKey(type_index, tag_prefix + ("cross", k, colors[band.job]))
            assignment[band.job] = key
    return assignment


def _peel_bottom(assignment: dict, strips, budget: int, type_index: int, tag: tuple) -> JobSet:
    """Assign the bands touching the bottom ``budget`` strips; returns the
    jobs scheduled."""
    inside_pairs, crossing_pairs = strips.bands_touching_bottom(budget)
    for k, band in inside_pairs:
        assignment[band.job] = MachineKey(type_index, tag + ("strip", k))
    by_boundary: dict[int, list] = {}
    for k, band in crossing_pairs:
        by_boundary.setdefault(k, []).append(band)
    for k, bands in by_boundary.items():
        colors = two_color(bands)
        for band in bands:
            assignment[band.job] = MachineKey(
                type_index, tag + ("cross", k, colors[band.job])
            )
    return JobSet(band.job for _, band in inside_pairs + crossing_pairs)


def dec_offline_reference(
    jobs: JobSet,
    ladder: Ladder,
    *,
    budget_factor: float = 2.0,
    strip_divisor: float = 2.0,
    placement_order: str = "arrival",
) -> Schedule:
    """DEC-OFFLINE (Theorem 1): peel the bottom strips of each type's chart."""
    assignment: dict = {}
    remaining = jobs
    for i in range(1, ladder.m):
        cap = ladder.capacity(i)
        eligible = remaining.filter(lambda j: j.size <= cap)
        if eligible.empty:
            continue
        placement = place_jobs(eligible, order=placement_order)
        strips = split_into_strips(placement, cap / strip_divisor)
        budget = strip_budget(
            ladder.rate(i + 1) / ladder.rate(i),
            budget_factor * strip_divisor / 2.0,
        )
        scheduled = _peel_bottom(assignment, strips, budget, i, ("it", i))
        remaining = remaining.minus(scheduled)
    # final iteration: everything left goes to type m, unbounded strips
    if not remaining.empty:
        assignment.update(
            dual_coloring_assign_reference(
                remaining,
                ladder.capacity(ladder.m),
                ladder.m,
                tag_prefix=("it", ladder.m),
                strip_divisor=strip_divisor,
                placement_order=placement_order,
            )
        )
    return Schedule(ladder, assignment)


def inc_offline_reference(jobs: JobSet, ladder: Ladder) -> Schedule:
    """INC-OFFLINE (Section IV): Dual-Coloring per size class."""
    assignment: dict = {}
    for i, cls in enumerate(jobs.size_partition(ladder.capacities), start=1):
        if not cls.empty:
            assignment.update(
                dual_coloring_assign_reference(
                    cls, ladder.capacity(i), i, tag_prefix=("class", i)
                )
            )
    return Schedule(ladder, assignment)


def general_offline_reference(jobs: JobSet, ladder: Ladder) -> Schedule:
    """GEN-OFFLINE (Section V): post-order over the type forest."""
    forest = ladder.forest()
    assignment: dict = {}
    remaining = jobs
    for j in forest.postorder():
        lo, _hi = forest.subtree_span(j)
        g_lo_prev = ladder.capacity(lo - 1)
        g_j = ladder.capacity(j)
        eligible = remaining.filter(lambda job: g_lo_prev < job.size <= g_j)
        if eligible.empty:
            continue
        parent = forest.parent[j]
        if parent is None:
            # tree root: schedule everything on type j, unbounded strips
            assignment.update(
                dual_coloring_assign_reference(eligible, g_j, j, tag_prefix=("node", j))
            )
            remaining = remaining.minus(eligible)
            continue
        strips = split_into_strips(place_jobs(eligible), g_j / 2.0)
        budget = node_strip_budget(ladder, j, parent, forest.num_children(parent))
        scheduled = _peel_bottom(assignment, strips, budget, j, ("node", j))
        remaining = remaining.minus(scheduled)
    assert remaining.empty, "every job reaches some root"
    return Schedule(ladder, assignment)
