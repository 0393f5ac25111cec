"""Naive ``*_reference`` oracles, the lower bound's list-input sweep, and the
per-machine busy-interval cache.

The production batch kernels live in :mod:`repro.core.vectorized`.  Every
one of them has a ``*_reference`` twin here: the naive per-time-point
implementation it replaced.  References are kept deliberately simple (plain
Python loops over candidate times) and serve as the differential-test oracle
in ``tests/property/test_vectorized_oracle.py`` and
``tests/property/test_sweep_oracle.py`` — the refined ratio assertions of
Liu & Tang (arXiv:2105.06287) are only trustworthy if the fast cost
accounting is provably identical to the naive one.

Contents
--------
- :func:`demand_profile_reference`, :func:`busy_union_reference`,
  :func:`busy_time_reference`, :func:`peak_load_reference`,
  :func:`grouped_busy_time_reference`, :func:`nested_demand_reference` —
  the oracles (BSHM003 keeps them out of production paths).
- :func:`sweep_nested_demand` — the ``m x k`` demand matrix
  ``s(J_{>=i}, t)`` from ``Job`` objects; the lower bound itself runs
  :func:`repro.core.vectorized.vec_nested_demand`.
- :class:`BusyIntervalCache` — memoized per-machine busy intervals,
  invalidated on placement changes (incremental/online contexts).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Iterable, Sequence

import numpy as np

from .intervals import Interval, IntervalSet
from .stepfun import StepFunction
from .tolerance import TOLERANCE
from .vectorized import vec_busy_union, vec_event_steps

if TYPE_CHECKING:  # pragma: no cover
    from ..jobs.job import Job

__all__ = [
    "demand_profile_reference",
    "busy_union_reference",
    "busy_time_reference",
    "peak_load_reference",
    "grouped_busy_time_reference",
    "sweep_nested_demand",
    "nested_demand_reference",
    "BusyIntervalCache",
]

#: values smaller than this are float residue of event cancellation, not load
_LOAD_EPS = TOLERANCE


# ---------------------------------------------------------------------------
# demand profiles
# ---------------------------------------------------------------------------

def demand_profile_reference(
    pulses: Sequence[tuple[float, float, float]],
) -> StepFunction:
    """Naive oracle: evaluate the total height at every candidate time by
    scanning all pulses — ``O(n^2)``, kept as the differential-test truth."""
    if not pulses:
        return StepFunction.zero()
    times = sorted({t for left, right, _ in pulses for t in (left, right)})
    values = []
    for t in times[:-1]:
        values.append(sum(h for left, right, h in pulses if left <= t < right))
    return StepFunction(times, values).compact()


# ---------------------------------------------------------------------------
# busy-interval unions
# ---------------------------------------------------------------------------

def busy_union_reference(
    starts: Sequence[float], ends: Sequence[float]
) -> IntervalSet:
    """Naive oracle: hand every interval to the sort-and-merge normalizer."""
    return IntervalSet(Interval(float(a), float(b)) for a, b in zip(starts, ends))


def busy_time_reference(starts: Sequence[float], ends: Sequence[float]) -> float:
    """Naive oracle for the measure of a busy union."""
    return busy_union_reference(starts, ends).length


# ---------------------------------------------------------------------------
# capacity checks
# ---------------------------------------------------------------------------

def peak_load_reference(
    starts: Sequence[float], ends: Sequence[float], sizes: Sequence[float]
) -> float:
    """Naive oracle: evaluate the load at every event time by a full scan."""
    triples = list(zip(starts, ends, sizes))
    peak = 0.0
    for t in {t for a, b, _ in triples for t in (a, b)}:
        load = sum(s for a, b, s in triples if a <= t < b)
        peak = max(peak, load)
    return peak


# ---------------------------------------------------------------------------
# grouped busy time (the busy-cost integrator)
# ---------------------------------------------------------------------------

def grouped_busy_time_reference(
    starts: Sequence[float],
    ends: Sequence[float],
    group_index: Sequence[int],
    n_groups: int,
) -> np.ndarray:
    """Naive oracle: independent interval-set union per group."""
    out = np.zeros(n_groups)
    for gi in range(n_groups):
        members = [
            (a, b) for a, b, g in zip(starts, ends, group_index) if g == gi
        ]
        if members:
            out[gi] = busy_union_reference(*zip(*members)).length
    return out


# ---------------------------------------------------------------------------
# nested demands for the lower bound
# ---------------------------------------------------------------------------

def sweep_nested_demand(
    jobs: Sequence["Job"], capacities: Sequence[float]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The lower bound's demand matrix from ONE shared event queue.

    Returns ``(times, active, demand)`` where ``times`` holds the ``k+1``
    distinct event times, ``active[j]`` the (exact, integer) number of jobs
    active on segment ``j`` and ``demand[i-1, j]`` the total size of the
    active jobs needing type ``>= i`` (``s(J) > g_{i-1}``).

    One stable sort of ``2n`` events replaces the ``m`` independent
    profile constructions the old code did: each job's deltas land in its
    size class's row and nested demands fall out as a reversed cumulative
    sum across rows — ``O(n log n + m k)``.
    """
    m = len(capacities)
    caps = np.asarray(capacities, dtype=float)
    if m == 0 or not jobs:
        return np.zeros(1), np.zeros(0, dtype=np.int64), np.zeros((m, 0))
    arr = np.asarray(
        [(j.arrival, j.departure, j.size) for j in jobs], dtype=float
    )
    sizes = arr[:, 2]
    if np.any(sizes > caps[-1]):
        raise ValueError("job larger than the largest capacity")
    # class c (0-based): smallest type that fits; job demands types 1..c+1
    cls = np.searchsorted(caps, sizes, side="left")

    times = np.concatenate([arr[:, 0], arr[:, 1]])
    uniq, inv = np.unique(times, return_inverse=True)
    k = uniq.size - 1
    n = sizes.size

    grid = np.zeros((m, uniq.size))
    np.add.at(grid, (cls, inv[:n]), sizes)
    np.add.at(grid, (cls, inv[n:]), -sizes)
    per_class = np.cumsum(grid, axis=1)[:, :-1]
    demand = np.cumsum(per_class[::-1], axis=0)[::-1]
    demand[np.abs(demand) < _LOAD_EPS] = 0.0
    # enforce the nesting invariant against float summation noise
    demand = np.maximum.accumulate(demand[::-1], axis=0)[::-1]

    count_grid = np.zeros(uniq.size, dtype=np.int64)
    np.add.at(count_grid, inv[:n], 1)
    np.add.at(count_grid, inv[n:], -1)
    active = np.cumsum(count_grid)[:-1]
    return uniq, active, demand


def nested_demand_reference(
    jobs: Sequence["Job"], capacities: Sequence[float]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Naive oracle: per segment midpoint, scan all jobs for each type."""
    m = len(capacities)
    if m == 0 or not jobs:
        return np.zeros(1), np.zeros(0, dtype=np.int64), np.zeros((m, 0))
    times = sorted({t for j in jobs for t in (j.arrival, j.departure)})
    k = len(times) - 1
    active = np.zeros(k, dtype=np.int64)
    demand = np.zeros((m, k))
    for seg in range(k):
        # probe at the segment's left endpoint: job status is constant on
        # [times[seg], times[seg+1]) and the endpoint is an exact event
        # time, whereas a midpoint probe can round onto the right boundary
        # when the two event times are adjacent floats
        probe = times[seg]
        live = [j for j in jobs if j.arrival <= probe < j.departure]
        active[seg] = len(live)
        for i in range(1, m + 1):
            g_prev = capacities[i - 2] if i >= 2 else 0.0
            demand[i - 1, seg] = sum(j.size for j in live if j.size > g_prev)
    return np.asarray(times), active, demand


# ---------------------------------------------------------------------------
# memoized busy intervals
# ---------------------------------------------------------------------------

class BusyIntervalCache:
    """Per-machine busy intervals with memoized unions.

    Incremental contexts (the online engine, windowed re-planning, the
    streaming service runtime) add and remove intervals as placements
    change; the union/measure of a machine is computed lazily by
    :func:`~repro.core.vectorized.vec_busy_union` and cached until the next
    change to that machine invalidates it.  Machines are independent, so an
    update to one never discards another's memo.

    ``on_change`` is an invalidation hook: whenever a machine's memo is
    dropped (add / remove / explicit invalidate) the callback is invoked
    with that machine's key (or ``None`` for a full invalidation), letting
    observers — e.g. the service metrics sampler — track exactly which
    unions went stale without polling every machine.
    """

    __slots__ = ("_raw", "_memo", "on_change")

    def __init__(
        self, on_change: Callable[[object | None], None] | None = None
    ) -> None:
        self._raw: dict[object, list[tuple[float, float]]] = {}
        self._memo: dict[object, IntervalSet] = {}
        #: optional callback ``(key | None) -> None`` fired on invalidation
        self.on_change = on_change

    def _invalidated(self, key: object | None) -> None:
        if key is None:
            self._memo.clear()
        else:
            self._memo.pop(key, None)
        if self.on_change is not None:
            self.on_change(key)

    def add(self, key: object, left: float, right: float) -> None:
        """Record a placed job's active interval on a machine."""
        if not right > left:
            raise ValueError("empty interval")
        self._raw.setdefault(key, []).append((float(left), float(right)))
        self._invalidated(key)

    def remove(self, key: object, left: float, right: float) -> None:
        """Withdraw a previously added interval (placement change)."""
        self._raw[key].remove((float(left), float(right)))
        self._invalidated(key)

    def invalidate(self, key: object | None = None) -> None:
        """Drop memoized unions for one machine (or all of them)."""
        self._invalidated(key)

    def machines(self) -> list[object]:
        """Keys of every machine that ever received an interval."""
        return list(self._raw)

    def busy_set(self, key: object) -> IntervalSet:
        """The machine's busy union (memoized until invalidated)."""
        memo = self._memo.get(key)
        if memo is None:
            pairs = self._raw.get(key, [])
            memo = vec_busy_union(*zip(*pairs)) if pairs else IntervalSet()
            self._memo[key] = memo
        return memo

    def busy_time(self, key: object) -> float:
        """Measure of the machine's busy union."""
        return self.busy_set(key).length

    def busy_time_with(
        self, key: object, extras: Iterable[tuple[float, float]]
    ) -> float:
        """Busy time of ``key`` with hypothetical extra intervals included.

        The streaming runtime uses this to cost machines whose jobs are
        still running: each open job contributes ``[arrival, now)`` on top
        of the recorded (closed) intervals.  Nothing is mutated and the
        memo is neither consulted for the combined union nor invalidated.

        The measure is the sum of the covered segment lengths.  Snapshots
        store ``cost()`` and restores compare it exactly, so this summation
        order is part of the persisted state.
        """
        pairs = list(self._raw.get(key, []))
        pairs.extend((float(a), float(b)) for a, b in extras)
        if not pairs:
            return 0.0
        times, cover = vec_event_steps(*zip(*pairs))
        return float(np.sum(np.diff(times)[cover > 0]))

    def total_busy_time(self) -> float:
        """Sum of busy times over all machines."""
        return sum(self.busy_time(key) for key in self._raw)
