"""Array-native bulk kernels: the one production path for batch accounting.

Every batch computation over interval jobs — demand profiles, busy-interval
unions, capacity checks, per-machine busy times, the nested per-type
demands of the Eq.-(1) lower bound — runs here, at every instance size,
directly on contiguous ``float64`` columns (see
:meth:`repro.jobs.jobset.JobSet.to_arrays`): one stable sort of the merged
event queue, ``np.cumsum`` for running loads, ``np.searchsorted`` for
segment sampling, and vectorized compaction — no per-job Python in any hot
loop.

Correctness
-----------
Every kernel is pinned against the naive ``*_reference`` oracles of
:mod:`repro.core.sweep` in ``tests/property/test_vectorized_oracle.py`` —
exact on integer inputs, within 1e-9 on floats (only the summation order
differs).  BSHM003 keeps the oracles out of production paths.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .intervals import IntervalSet
from .stepfun import StepFunction
from .tolerance import TOLERANCE

__all__ = [
    "vec_event_steps",
    "vec_demand_profile",
    "vec_busy_union",
    "vec_peak_load",
    "vec_grouped_busy_time",
    "vec_nested_demand",
]

#: values smaller than this are float residue of event cancellation, not load
_LOAD_EPS = TOLERANCE


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
    weight active on ``[times[j], times[j+1])``.  The event queue is sorted
    exactly once and the running ``np.cumsum`` is read at the last slot of
    each distinct time — half-open semantics fall out because a ``-w`` and a
    ``+w`` at the same instant are both folded into the running sum before
    it is sampled.  This is the shared primitive behind every
    segment-valued kernel here.
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

    The engine behind :func:`repro.core.stepfun.sum_pulses` and
    :meth:`repro.jobs.jobset.JobSet.demand_profile`.  Compaction happens on
    whole arrays instead of the per-segment Python loop in
    :meth:`StepFunction.compact` — at 10^6 jobs that loop alone costs more
    than the sort.
    """
    if np.asarray(starts).size == 0:
        return StepFunction.zero()
    times, cover = vec_event_steps(starts, ends, sizes)
    breaks, values = _compact_steps(times, cover)
    return StepFunction(breaks, values)


# ---------------------------------------------------------------------------
# busy time / unions
# ---------------------------------------------------------------------------

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

    A positive ``time_tol`` ignores segments of measure ``<= time_tol``:
    when a departure and an arrival are *mathematically* simultaneous but an
    ulp apart in float (``0.1 + 0.2`` vs ``0.3``), the phantom sliver they
    span carries both loads.  That needs the deduplicated segment view.
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
# grouped busy time (the busy-cost integrator)
# ---------------------------------------------------------------------------

def vec_grouped_busy_time(
    starts: Sequence[float] | np.ndarray,
    ends: Sequence[float] | np.ndarray,
    group_index: Sequence[int] | np.ndarray,
    n_groups: int,
) -> np.ndarray:
    """Busy time (union measure) of each group's intervals in ONE sort.

    Every group's intervals are shifted into a private block of the time
    line (block width = global span) and merged with a running-maximum
    interval sweep; per-group totals come from one ``np.bincount``.  No
    event queue, no re-sort and no scatter — ``O(N log N)`` with a single
    stable argsort, whatever the machine count.
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
