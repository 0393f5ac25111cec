"""Array-native bulk kernels: the columnar fast path for offline-scale runs.

The event-sweep kernels in :mod:`repro.core.sweep` are asymptotically right,
but every *batch* entry point reached them by walking Python ``Job`` objects:
list comprehensions over a million jobs, one boxed float per endpoint, a
``list -> np.asarray`` conversion per call, and a pure-Python
``StepFunction.compact`` pass over millions of segments.  At the scales the
offline bounds and the e11 scaling experiments care about (10^5-10^6 jobs),
that per-object traffic dominates the actual sorting work.

This module is the second implementation of the bulk kernels, built directly
on contiguous ``float64`` columns (see :meth:`repro.jobs.jobset.JobSet.
to_arrays`): one stable sort of the merged event queue, ``np.cumsum`` for
running loads, ``np.searchsorted`` for segment sampling, and vectorized
compaction — no per-job Python in any hot loop.

Dispatch
--------
Batch entry points (``JobSet.demand_profile``, ``Schedule.busy_times``,
DEC-OFFLINE strip peeling, the experiment harness) route through
:func:`use_vectorized`: instances with at least :func:`vec_threshold`
jobs take the columnar path, smaller ones stay on the sweep kernels, and the
``*_reference`` twins remain the ground-truth oracle tier underneath both
(BSHM003 keeps them out of production paths).  The decision is a pure integer
comparison against a process-wide constant — **never** derived from timing,
core counts or platform probes — so a replayed trace picks the same path on
every machine (see ``tests/core/test_vectorized_dispatch.py``).

The threshold comes from ``BSHM_VEC_THRESHOLD`` (read once at import;
default :data:`DEFAULT_VEC_THRESHOLD`); tests pin it temporarily with
:func:`dispatch_threshold`.

Correctness
-----------
Every kernel here is pinned three ways in
``tests/property/test_vectorized_oracle.py``: vectorized vs sweep vs
``*_reference`` — exact on integer inputs, within 1e-9 on floats (only the
summation order differs).  The golden E1-E5 costs are additionally replayed
through this path in ``tests/integration/test_golden_costs.py``.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from typing import Iterator, Sequence

import numpy as np

from .intervals import IntervalSet
from .stepfun import StepFunction
from .tolerance import TOLERANCE

__all__ = [
    "DEFAULT_VEC_THRESHOLD",
    "vec_threshold",
    "use_vectorized",
    "dispatch_threshold",
    "vec_event_steps",
    "vec_demand_steps",
    "vec_demand_profile",
    "vec_busy_time",
    "vec_busy_union",
    "vec_peak_load",
    "vec_grouped_busy_time",
    "vec_busy_cost",
    "vec_nested_demand",
]

#: values smaller than this are float residue of event cancellation, not load
#: (kept identical to ``repro.core.sweep._LOAD_EPS``)
_LOAD_EPS = TOLERANCE

#: instances with at least this many jobs take the columnar path by default.
#: Chosen where the per-object costs of the sweep entry points (list building,
#: boxed-float conversion) start to dominate the sort; the exact value only
#: moves work between two bit-compatible paths, it never changes results.
DEFAULT_VEC_THRESHOLD = 4096


def _threshold_from_env() -> int:
    """Parse ``BSHM_VEC_THRESHOLD`` once at import (explicit configuration,
    not a platform probe — the same environment replays identically)."""
    raw = os.environ.get("BSHM_VEC_THRESHOLD")
    if raw is None:
        return DEFAULT_VEC_THRESHOLD
    try:
        return int(raw)
    except ValueError as exc:
        raise ValueError(
            f"BSHM_VEC_THRESHOLD must be an integer, got {raw!r}"
        ) from exc


_threshold: int = _threshold_from_env()


def vec_threshold() -> int:
    """The current dispatch threshold (jobs needed to take the columnar path)."""
    return _threshold


def use_vectorized(n: int) -> bool:
    """Whether a batch of ``n`` jobs dispatches to the vectorized kernels.

    A pure integer comparison: deterministic across platforms, runs and
    replays.  ``BSHM_VEC_THRESHOLD=0`` forces the columnar path everywhere;
    a threshold larger than any instance disables it.
    """
    return n >= _threshold


@contextmanager
def dispatch_threshold(value: int) -> Iterator[None]:
    """Temporarily pin the dispatch threshold (tests, benchmarks).

    ``dispatch_threshold(0)`` forces every entry point onto the vectorized
    path; ``dispatch_threshold(2**63 - 1)`` forces the sweep tier.
    """
    global _threshold
    old = _threshold
    _threshold = int(value)
    try:
        yield
    finally:
        _threshold = old


# ---------------------------------------------------------------------------
# the shared sort-once event engine
# ---------------------------------------------------------------------------

def _stable_order(values: np.ndarray) -> np.ndarray:
    """The stable (mergesort-equivalent) argsort permutation, fast.

    ``np.argsort(kind="stable")`` on float64 is a comparison timsort —
    ~4x slower than numpy's SIMD quicksort.  But stability only matters
    where values *tie*: when the sorted array has no equal neighbours the
    permutation is unique, and any sort kind returns the stable answer.
    So: sort fast, detect ties, and only fall back to the stable kind when
    ties actually exist.  The result is bit-identical to the stable
    permutation on every input and never platform-dependent — the unstable
    kind's tie order is never allowed to leak into the output.
    """
    # ties are repaired below, so the fast unstable kind is safe here
    perm = np.argsort(values)  # bshm: ignore[BSHM007]
    vs = values[perm]
    if bool((vs[1:] == vs[:-1]).any()):
        return np.argsort(values, kind="stable")
    return perm


def _as_columns(
    starts: Sequence[float] | np.ndarray,
    ends: Sequence[float] | np.ndarray,
    weights: Sequence[float] | np.ndarray | None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Validate and coerce to contiguous float64 columns (no copy if already)."""
    s = np.ascontiguousarray(starts, dtype=np.float64)
    e = np.ascontiguousarray(ends, dtype=np.float64)
    if s.shape != e.shape or s.ndim != 1:
        raise ValueError("starts and ends must be 1-D arrays of equal length")
    if np.any(e <= s):
        raise ValueError("every interval needs start < end")
    if weights is None:
        w = np.ones_like(s)
    else:
        w = np.ascontiguousarray(weights, dtype=np.float64)
        if w.shape != s.shape:
            raise ValueError("weights must match starts/ends")
    return s, e, w


def vec_event_steps(
    starts: np.ndarray,
    ends: np.ndarray,
    weights: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """``(times, cover)`` for weighted ``[start, end)`` intervals, sort-once.

    ``times`` holds the ``k+1`` distinct event times, ``cover[j]`` the total
    weight active on ``[times[j], times[j+1])``.  Unlike
    :func:`repro.core.sweep.merged_events` (argsort + a second sort inside
    ``np.unique`` + ``reduceat``), this sorts the event queue exactly once
    and reads the running ``np.cumsum`` at the last slot of each distinct
    time — half-open semantics fall out because a ``-w`` and a ``+w`` at the
    same instant are both folded into the running sum before it is sampled.
    """
    s, e, w = _as_columns(starts, ends, weights)
    if s.size == 0:
        return np.zeros(1), np.zeros(0)
    times = np.concatenate([s, e])
    deltas = np.concatenate([w, -w])
    order = _stable_order(times)
    t_sorted = times[order]
    run = np.cumsum(deltas[order])
    # last slot of each distinct time: where the next time differs
    boundary = np.empty(t_sorted.size, dtype=bool)
    boundary[:-1] = t_sorted[1:] != t_sorted[:-1]
    boundary[-1] = True
    last = np.flatnonzero(boundary)
    uniq = t_sorted[last]
    cover = run[last][:-1]
    # float cancellation can leave ±1e-16 residue where the true cover is 0
    cover[np.abs(cover) < _LOAD_EPS] = 0.0
    return uniq, cover


# ---------------------------------------------------------------------------
# demand profiles
# ---------------------------------------------------------------------------

def vec_demand_steps(
    starts: np.ndarray, ends: np.ndarray, sizes: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Raw ``(breaks, values)`` of the demand profile — no objects built."""
    return vec_event_steps(starts, ends, sizes)


def _compact_steps(
    breaks: np.ndarray, values: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized twin of :meth:`StepFunction.compact`: merge equal adjacent
    segments, trim zero-valued edges (always keep at least one segment)."""
    if values.size == 0:
        return breaks, values
    keep = np.empty(values.size, dtype=bool)
    keep[0] = True
    keep[1:] = values[1:] != values[:-1]
    idx = np.flatnonzero(keep)
    merged_values = values[idx]
    merged_breaks = np.concatenate([breaks[idx], breaks[-1:]])
    nz = np.flatnonzero(merged_values)
    if nz.size == 0:
        # all-zero profile: the trim loops leave exactly the last segment
        lo = merged_values.size - 1
        hi = lo
    else:
        lo = min(int(nz[0]), merged_values.size - 1)
        hi = max(int(nz[-1]), lo)
    return merged_breaks[lo : hi + 2], merged_values[lo : hi + 1]


def vec_demand_profile(
    starts: np.ndarray, ends: np.ndarray, sizes: np.ndarray
) -> StepFunction:
    """The demand profile ``s(J, ·)`` as a compacted :class:`StepFunction`.

    Identical output to ``sum_pulses`` / :func:`repro.core.sweep.
    sweep_demand_profile`, but compaction happens on whole arrays instead of
    the per-segment Python loop in :meth:`StepFunction.compact` — at 10^6
    jobs that loop alone costs more than the sort.
    """
    if np.asarray(starts).size == 0:
        return StepFunction.zero()
    times, cover = vec_demand_steps(starts, ends, sizes)
    breaks, values = _compact_steps(times, cover)
    return StepFunction(breaks, values)


# ---------------------------------------------------------------------------
# busy time / unions
# ---------------------------------------------------------------------------

def vec_busy_time(starts: np.ndarray, ends: np.ndarray) -> float:
    """Measure of the union of ``[start, end)`` intervals — no permutation.

    With starts and ends *value*-sorted independently, the cover
    ``#\\{starts <= t\\} - #\\{ends <= t\\}`` hits zero exactly on the spans
    ``[ee[k-1], ss[k])`` where the ``k``-th smallest end precedes the
    ``(k+1)``-th smallest start, so

        union  =  (max end - min start) - Σ_k max(0, ss[k] - ee[k-1]).

    Two ``np.sort`` calls (SIMD, no argsort, no gathers) and one reduction —
    the cheapest kernel in the module.
    """
    s, e, _ = _as_columns(starts, ends, None)
    if s.size == 0:
        return 0.0
    ss = np.sort(s)
    ee = np.sort(e)
    gaps = np.maximum(ss[1:] - ee[:-1], 0.0)
    return float(ee[-1] - ss[0] - gaps.sum())


def vec_busy_union(starts: np.ndarray, ends: np.ndarray) -> IntervalSet:
    """Union of ``[start, end)`` intervals as a normalized IntervalSet."""
    times, cover = vec_event_steps(starts, ends)
    if cover.size == 0:
        return IntervalSet()
    padded = np.concatenate([[False], cover > 0, [False]])
    edges = np.flatnonzero(padded[1:] != padded[:-1])
    return IntervalSet.from_pairs(
        (float(times[i]), float(times[j])) for i, j in zip(edges[0::2], edges[1::2])
    )


# ---------------------------------------------------------------------------
# peak load
# ---------------------------------------------------------------------------

def vec_peak_load(
    starts: np.ndarray,
    ends: np.ndarray,
    sizes: np.ndarray,
    *,
    time_tol: float = 0.0,
) -> float:
    """Peak concurrent load of weighted ``[start, end)`` intervals.

    With ``time_tol == 0`` no segment structure is needed: departures are
    ordered *before* arrivals at tied instants (the ``[ends, starts]``
    concatenation under a stable sort), so every prefix of the running sum
    is at most the true segment cover and the prefix maximum equals the
    half-open peak — one sort, one ``cumsum``, one ``max``.

    A positive ``time_tol`` ignores zero-measure phantom slivers exactly like
    :func:`repro.core.sweep.sweep_peak_load` and needs the deduplicated
    segment view.
    """
    s, e, w = _as_columns(starts, ends, sizes)
    if s.size == 0:
        return 0.0
    if time_tol > 0.0:
        times, cover = vec_event_steps(s, e, w)
        cover = cover[np.diff(times) > time_tol]
        if cover.size == 0:
            return 0.0
        return float(np.max(cover, initial=0.0))
    times = np.concatenate([e, s])
    deltas = np.concatenate([-w, w])
    run = np.cumsum(deltas[_stable_order(times)])
    return float(max(run.max(initial=0.0), 0.0))


# ---------------------------------------------------------------------------
# grouped busy time and busy-cost integration
# ---------------------------------------------------------------------------

def vec_grouped_busy_time(
    starts: Sequence[float] | np.ndarray,
    ends: Sequence[float] | np.ndarray,
    group_index: Sequence[int] | np.ndarray,
    n_groups: int,
) -> np.ndarray:
    """Busy time (union measure) of each group's intervals in ONE sort.

    Every group's intervals are shifted into a private block of the time
    line (block width = global span) and merged with the running-maximum
    interval sweep of :func:`vec_busy_time`; per-group totals come from one
    ``np.bincount``.  Unlike :func:`repro.core.sweep.sweep_grouped_busy_time`
    there is no event queue, no ``np.unique`` re-sort and no ``np.add.at``
    scatter — ``O(N log N)`` with a single stable argsort.
    """
    s = np.ascontiguousarray(starts, dtype=np.float64)
    e = np.ascontiguousarray(ends, dtype=np.float64)
    g = np.ascontiguousarray(group_index, dtype=np.int64)
    if not (s.shape == e.shape == g.shape) or s.ndim != 1:
        raise ValueError("starts, ends and group_index must align")
    out = np.zeros(n_groups)
    if s.size == 0:
        return out
    if np.any(e <= s):
        raise ValueError("every interval needs start < end")
    if np.any(g < 0) or np.any(g >= n_groups):
        raise ValueError("group_index out of range")
    t0 = float(s.min())
    block = float(e.max()) - t0 + 1.0
    offset = g.astype(np.float64) * block
    ss = s - t0 + offset
    ee = e - t0 + offset
    order = _stable_order(ss)
    ss = ss[order]
    ee = ee[order]
    gg = g[order]
    runmax = np.maximum.accumulate(ee)
    covered_to = np.empty(ss.size)
    covered_to[0] = ss[0]
    # a group's block ends strictly below the next group's offset, so the
    # running maximum never leaks coverage across group boundaries
    covered_to[1:] = np.maximum(runmax[:-1], ss[1:])
    contrib = np.maximum(ee - covered_to, 0.0)
    return np.bincount(gg, weights=contrib, minlength=n_groups)


def vec_busy_cost(
    starts: Sequence[float] | np.ndarray,
    ends: Sequence[float] | np.ndarray,
    group_index: Sequence[int] | np.ndarray,
    group_rates: Sequence[float] | np.ndarray,
) -> float:
    """Total busy cost ``Σ_machine rate(machine) · busy_time(machine)``.

    The BSHM objective for a fully materialized assignment: grouped busy
    times from :func:`vec_grouped_busy_time` contracted against per-group
    rates in one dot product.
    """
    rates = np.ascontiguousarray(group_rates, dtype=np.float64)
    busy = vec_grouped_busy_time(starts, ends, group_index, rates.size)
    return float(np.dot(busy, rates))


# ---------------------------------------------------------------------------
# the nested lower-bound matrix
# ---------------------------------------------------------------------------

def vec_nested_demand(
    starts: np.ndarray,
    ends: np.ndarray,
    sizes: np.ndarray,
    capacities: Sequence[float] | np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The Eq.-(1) demand matrix ``s(J_{>=i}, t)`` from columnar inputs.

    Returns ``(times, active, demand)`` shaped exactly like
    :func:`repro.core.sweep.sweep_nested_demand`: ``k+1`` distinct event
    times, integer active counts per segment, and the ``m x k`` nested
    demand rows.

    Construction: ONE stable sort of the ``2n`` merged events; the running
    load of each size class is the ``np.cumsum`` of the class-masked deltas
    in that shared global order, sampled at the last slot of each distinct
    time (exactly the :func:`vec_event_steps` engine, ``m`` cumsums instead
    of one).  Nested rows are the suffix sums across classes.  No second
    sort anywhere — ``np.unique``/``np.lexsort`` would each re-sort the
    event queue, which is the dominant cost at 10^6 jobs.
    """
    caps = np.ascontiguousarray(capacities, dtype=np.float64)
    m = caps.size
    s = np.ascontiguousarray(starts, dtype=np.float64)
    e = np.ascontiguousarray(ends, dtype=np.float64)
    z = np.ascontiguousarray(sizes, dtype=np.float64)
    if m == 0 or s.size == 0:
        return np.zeros(1), np.zeros(0, dtype=np.int64), np.zeros((m, 0))
    if not (s.shape == e.shape == z.shape) or s.ndim != 1:
        raise ValueError("starts, ends and sizes must align")
    if np.any(e <= s):
        raise ValueError("every interval needs start < end")
    if np.any(z > caps[-1]):
        raise ValueError("job larger than the largest capacity")
    # class c (0-based): smallest type that fits; job demands types 1..c+1
    cls = np.searchsorted(caps, z, side="left")

    times = np.concatenate([s, e])
    deltas = np.concatenate([z, -z])
    cls2 = np.concatenate([cls, cls])
    order = _stable_order(times)
    t_sorted = times[order]
    d_sorted = deltas[order]
    c_sorted = cls2[order]
    boundary = np.empty(t_sorted.size, dtype=bool)
    boundary[:-1] = t_sorted[1:] != t_sorted[:-1]
    boundary[-1] = True
    last = np.flatnonzero(boundary)
    uniq = t_sorted[last]
    sample = last[:-1]

    k = uniq.size - 1
    per_class = np.empty((m, k))
    for c in range(m):
        # running class-c load in the global event order, read at the last
        # slot of each distinct time (all deltas at that instant folded in)
        run_c = np.cumsum(np.where(c_sorted == c, d_sorted, 0.0))
        per_class[c] = run_c[sample]
    demand = np.cumsum(per_class[::-1], axis=0)[::-1]
    demand[np.abs(demand) < _LOAD_EPS] = 0.0
    # enforce the nesting invariant against float summation noise
    demand = np.maximum.accumulate(demand[::-1], axis=0)[::-1]

    signs = np.where(order < s.size, 1, -1)  # arrival events come first
    active = np.cumsum(signs)[sample]
    return uniq, active, demand
