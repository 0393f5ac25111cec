"""Columnar (array-native) placement stages: the offline engines' placer.

The object path (:class:`~repro.placement.greedy.GreedyDualPlacer`,
:func:`~repro.placement.strips.split_into_strips`,
:func:`~repro.placement.strips.two_color`) walks Python ``Band``/``Job``
instances and also tracks chart containment; it serves the E8/E17
experiments, ``bshm chart`` and the visualizations.  The strip-peeling
engines of :mod:`repro.offline.columnar_peel` run these stages directly on
the ``JobSet.to_arrays()`` columns instead:

- **altitude assignment** (:func:`columnar_altitudes`) — per arrival, the
  forbidden altitudes are exactly the depth >= 2 region of ONE
  event-sorted sweep over the currently active bands' ``[altitude, top)``
  ranges.  This equals the object path's union of pairwise intersections
  because every pair of active bands coexists at the arriving job's instant
  (arrival order + departure pruning), so no temporal qualification is left
  to check.  The event queue is kept **incrementally sorted** (bisect
  insertion/removal, two events per band), so each arrival costs one O(k)
  scalar depth scan instead of an O(k log k) rebuild — and no per-arrival
  numpy dispatch overhead, which is what dominates at realistic
  concurrency.  The final gap scan replicates ``_lowest_gap``
  float-for-float.
- **strip slicing** (:func:`columnar_strip_slices`) — the inside/crossing
  classification and lowest-crossed-boundary charge as whole-column integer
  arithmetic, bit-compatible with ``_strip_index`` /
  ``_lowest_crossed_boundary``.
- **two-coloring** (:func:`columnar_two_color`) — the greedy boundary
  2-coloring reduced to two scalar last-departure registers.

Every stage is bit-identical to the object path by construction — the
parity is pinned by ``tests/property/test_columnar_parity.py``.
"""

from __future__ import annotations

import math
from bisect import bisect_left, insort

import numpy as np

from ..core.tolerance import FINE_TOL, TOLERANCE

__all__ = [
    "columnar_altitudes",
    "columnar_strip_slices",
    "columnar_two_color",
]


def columnar_altitudes(
    starts: np.ndarray, ends: np.ndarray, sizes: np.ndarray
) -> np.ndarray:
    """Greedy dual-placement altitudes for jobs in canonical (arrival, uid)
    order, one event-sorted altitude sweep per arrival.

    Bit-identical to feeding the jobs through
    :class:`~repro.placement.greedy.GreedyDualPlacer` in arrival order: the
    altitude only depends on the <= 2-overlap geometry of the active bands,
    never on the demand profile (the containment limit decides *overflow
    bookkeeping*, not the chosen altitude).
    """
    n = int(np.asarray(starts).size)
    if n == 0:
        return np.empty(0, dtype=np.float64)

    dep_order = np.argsort(ends, kind="stable")
    dep_seq = dep_order.tolist()
    dep_ends = np.asarray(ends, dtype=np.float64)[dep_order].tolist()
    arr_l = np.asarray(starts, dtype=np.float64).tolist()
    size_l = np.asarray(sizes, dtype=np.float64).tolist()

    alt_l = [0.0] * n
    # sorted (coord, kind) events of the active bands: kind 0 closes a range
    # at its top, kind 1 opens one at its altitude.  Tuple order puts the
    # close before the open at equal coordinates (half-open ranges), which
    # is exactly the stable tops-first sweep ordering.
    events: list[tuple[float, int]] = []
    count = 0
    p = 0  # cursor into the departure-sorted sequence

    for j in range(n):
        arrival = arr_l[j]
        # retire bands with departure <= arrival (the bisect pruning twin);
        # only already-placed jobs can qualify because arrival < departure
        while p < n and dep_ends[p] <= arrival:
            victim = dep_seq[p]
            p += 1
            v_alt = alt_l[victim]
            # recomputed top is the same float the insertion used
            del events[bisect_left(events, (v_alt + size_l[victim], 0))]
            del events[bisect_left(events, (v_alt, 1))]
            count -= 1

        size = size_l[j]
        candidate = 0.0
        if count >= 2:
            # depth >= 2 of the active altitude ranges == the forbidden set,
            # normalized exactly like IntervalSet: drop empty spans, merge
            # touching ones, then replay the _lowest_gap scan
            depth = 0
            lo = 0.0
            spans: list[list[float]] = []
            for coord, kind in events:
                if kind:
                    depth += 1
                    if depth == 2:
                        lo = coord
                elif depth == 2:
                    depth = 1
                    if coord > lo:
                        if spans and lo <= spans[-1][1]:
                            if coord > spans[-1][1]:
                                spans[-1][1] = coord
                        else:
                            spans.append([lo, coord])
                else:
                    depth -= 1
            for lo, hi in spans:
                if lo - candidate >= size - FINE_TOL:
                    break  # gap [candidate, lo) is big enough
                if hi > candidate:
                    candidate = hi

        alt_l[j] = candidate
        insort(events, (candidate, 1))
        insort(events, (candidate + size, 0))
        count += 1
    return np.array(alt_l, dtype=np.float64)


def columnar_strip_slices(
    altitudes: np.ndarray, tops: np.ndarray, height: float
) -> tuple[np.ndarray, np.ndarray]:
    """Classify every band as inside-strip or boundary-crossing, columnar.

    Returns ``(strip_index, boundary)``: ``strip_index[i]`` is the 0-based
    strip of band ``i`` (meaningful when ``boundary[i] == 0``), and
    ``boundary[i]`` is the 1-based lowest crossed boundary (0 means the band
    sits fully inside its strip).  Bit-compatible with ``_strip_index`` and
    ``_lowest_crossed_boundary`` for the nonnegative altitudes the greedy
    placer produces.
    """
    h = float(height)
    if h <= 0:
        raise ValueError("strip height must be positive")
    base = np.floor(altitudes / h + TOLERANCE).astype(np.int64)
    strip_index = np.maximum(base, 0)
    slack = TOLERANCE * max(1.0, h)
    # skip boundaries the band merely starts on, exactly like the scalar code
    bump = (base + 1) * h <= altitudes + slack
    k = np.where(bump, base + 2, base + 1)
    crossing = k * h < tops - slack
    boundary = np.where(crossing, k, 0)
    return strip_index, boundary


def columnar_two_color(
    arrivals: list[float], departures: list[float]
) -> list[int]:
    """Greedy boundary 2-coloring over jobs in canonical (arrival, uid) order.

    The object :func:`~repro.placement.strips.two_color` keeps an active
    list pruned by departure; since each color can hold at most one live
    interval, two last-departure registers carry the whole state.  Color 0
    is preferred when both are free, matching ``free[0]``.
    """
    colors: list[int] = []
    end0 = end1 = -math.inf
    for arrival, departure in zip(arrivals, departures):
        if end0 <= arrival:
            colors.append(0)
            end0 = departure
        elif end1 <= arrival:
            colors.append(1)
            end1 = departure
        else:
            raise AssertionError(
                "more than two concurrent boundary-crossing jobs: "
                "the 2-overlap invariant was violated upstream"
            )
    return colors
